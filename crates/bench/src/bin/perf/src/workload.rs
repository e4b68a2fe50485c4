//! The five workloads: set-up, the closed-loop timed run, and the
//! correctness gate every timed query passes through.

use crate::dataset::{self, Format, Rows, Tables, BUCKET, ROWS_PER_PARTITION, SCALE_FACTOR};
use crate::json::Json;
use crate::suite::{query_salt, StreamKind, SHAPES};
use crate::trace::Tracer;
use pushdown_cache::{CacheStats, ManifestStats};
use pushdown_common::perf::{PerfParams, PhaseStats};
use pushdown_common::pricing::Usage;
use pushdown_common::{Result, Row, Value};
use pushdown_core::planner::{execute_sql_verbose, Explain, Strategy};
use pushdown_core::{OpReport, QueryContext, QueryMetrics, QueryOutput};
use pushdown_s3::S3Store;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub format: Format,
    pub strategy: Strategy,
    /// Closed-loop clients: each sends its next query when the previous
    /// one has returned.
    pub clients: usize,
    pub stream: StreamKind,
    /// Warm-up: every shape once (so a cache sees every table before the
    /// stream starts), then this many blocks of the stream.
    pub warm_each_shape: bool,
    pub warm_blocks: usize,
    pub cache: Option<CacheSpec>,
}

/// A two-tier segment cache, budgets as fractions of the dataset's
/// stored bytes.
pub struct CacheSpec {
    pub mem: f64,
    pub disk: f64,
    /// Back the disk tier with files (`with_cache_dir`); otherwise it is
    /// the engine's in-memory stand-in.
    pub file_backed: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "suite_baseline",
        why: "The paper's baseline: plain GET, local CSV decode and row operators do all the work; Select is never called.",
        format: Format::Csv,
        strategy: Strategy::Baseline,
        clients: 1,
        stream: StreamKind::Suite,
        warm_each_shape: false,
        warm_blocks: 1,
        cache: None,
    },
    Spec {
        name: "suite_pushdown",
        why: "The paper's optimized setting: Select scans, filters and aggregates; local code sees only returned rows; Bloom SQL is on the join path.",
        format: Format::Csv,
        strategy: Strategy::Pushdown,
        clients: 1,
        stream: StreamKind::Suite,
        warm_each_shape: false,
        warm_blocks: 1,
        cache: None,
    },
    Spec {
        name: "suite_adaptive_cl",
        why: "ColumnarLite, Adaptive, 2 clients: queries are 10x cheaper than on CSV, so planning and shared-state contention weigh most here.",
        format: Format::Columnar,
        strategy: Strategy::Adaptive,
        clients: 2,
        stream: StreamKind::Suite,
        warm_each_shape: false,
        warm_blocks: 2,
        cache: None,
    },
    Spec {
        name: "zipf_fit",
        why: "Zipf stream over a two-tier cache that holds the whole working set: steady state is all hits and no remote bytes, the cache's read side.",
        format: Format::Columnar,
        strategy: Strategy::Adaptive,
        clients: 1,
        stream: StreamKind::Zipf,
        warm_each_shape: true,
        warm_blocks: 1,
        cache: Some(CacheSpec {
            mem: 0.25,
            disk: 1.0,
            file_backed: false,
        }),
    },
    Spec {
        name: "zipf_churn",
        why: "Zipf stream on CSV, working set 4x a file-backed cache: every pass hits, misses, fills, demotes, evicts and fsyncs, the cache's write side.",
        format: Format::Csv,
        strategy: Strategy::Adaptive,
        clients: 1,
        stream: StreamKind::Zipf,
        warm_each_shape: true,
        warm_blocks: 0,
        cache: Some(CacheSpec {
            mem: 0.05,
            disk: 0.25,
            file_backed: true,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Baseline => "baseline",
        Strategy::Pushdown => "pushdown",
        Strategy::Adaptive => "adaptive",
    }
}

/// A directory under the run's `--out` that is removed on drop: the
/// file-backed cache tiers live here, inside the checkout, never in the
/// system temp directory.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, tag: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = root.join("tmp").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub upload_s: f64,
    pub cache_install_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    /// Everything but the warm-up.
    pub fn build_s(&self) -> f64 {
        self.gen_s + self.upload_s + self.cache_install_s
    }
}

/// A workload ready to be measured.
pub struct Env {
    pub spec: &'static Spec,
    pub seed: u64,
    pub rows: Rows,
    pub ctx: QueryContext,
    pub tables: Tables,
    pub stored_bytes: u64,
    pub times: SetupTimes,
    /// Row digest of the first execution of each (shape, plan) in this
    /// workload.
    first_digest: BTreeMap<(usize, String), u64>,
    // Dropped last: the cache's files live in it.
    _cache_dir: Option<ScratchDir>,
}

impl Drop for Env {
    fn drop(&mut self) {
        // The cache is store-wide state; uninstall it so its files close
        // before the directory goes.
        self.ctx.store.set_cache(None);
    }
}

/// Generate the dataset, upload it and install the cache: everything a
/// user waits for before the first query can be sent. Each part is
/// timed (and, when tracing, recorded as a span).
pub fn build(
    spec: &'static Spec,
    seed: u64,
    scratch_root: &Path,
    tracer: &mut Tracer,
) -> Result<Env> {
    let mut times = SetupTimes::default();
    let (rows, gen_s) = tracer.timed("tpch.gen", |_| dataset::generate(SCALE_FACTOR));
    times.gen_s = gen_s;

    let store = S3Store::new();
    let upload_span = match spec.format {
        Format::Csv => "tpch.upload_csv",
        Format::Columnar => "tpch.upload_columnar",
    };
    let (tables, upload_s) = tracer.timed(upload_span, |_| {
        dataset::upload(&store, BUCKET, &rows, spec.format, ROWS_PER_PARTITION)
    });
    let tables = tables?;
    times.upload_s = upload_s;
    let stored_bytes = dataset::stored_bytes(&store, &tables);

    let mut ctx = QueryContext::new(store).with_columnar(true);
    for t in tables.all() {
        ctx.catalog.register(t.clone());
    }
    let mut cache_dir = None;
    if let Some(cache) = &spec.cache {
        let (installed, install_s) = tracer.timed("cache.install", |_| {
            let tiered = ctx.clone().with_cache_tiers(
                (stored_bytes as f64 * cache.mem) as u64,
                (stored_bytes as f64 * cache.disk) as u64,
            );
            if !cache.file_backed {
                return Ok(tiered);
            }
            let dir = ScratchDir::new(scratch_root, "cache")
                .map_err(|e| pushdown_common::Error::Other(format!("cache dir: {e}")))?;
            let backed = tiered.with_cache_dir(dir.path())?;
            cache_dir = Some(dir);
            Ok(backed)
        });
        ctx = installed?;
        times.cache_install_s = install_s;
    }
    Ok(Env {
        spec,
        seed,
        rows,
        ctx,
        tables,
        stored_bytes,
        times,
        first_digest: BTreeMap::new(),
        _cache_dir: cache_dir,
    })
}

/// Untimed queries before the timed loop. They are not compared with the
/// reference (it does not exist yet), but an error here fails the run,
/// and their digests seed the repeat-execution check.
pub fn warm_up(env: &mut Env, tracer: &mut Tracer) -> Result<()> {
    let (warmed, warmup_s) = tracer.timed("warmup", |_| warm_up_queries(env));
    env.times.warmup_s = warmup_s;
    warmed
}

fn warm_up_queries(env: &mut Env) -> Result<()> {
    let spec = env.spec;
    let mut shapes: Vec<usize> = Vec::new();
    if spec.warm_each_shape {
        shapes.extend(0..SHAPES.len());
    }
    let each = shapes.len();
    for b in 0..spec.warm_blocks {
        shapes.extend(spec.stream.block(env.seed, b));
    }
    for (i, &shape) in shapes.iter().enumerate() {
        // The once-each pass is not part of the stream; give it salts
        // the stream never uses.
        let salt = if i < each {
            query_salt(!env.seed, i)
        } else {
            query_salt(env.seed, i - each)
        };
        let qctx = env.ctx.scoped_with_salt(salt);
        let table = env.tables.by_name(SHAPES[shape].table);
        let (out, explain) = execute_sql_verbose(&qctx, table, SHAPES[shape].sql, spec.strategy)?;
        env.first_digest
            .entry((shape, explain.kind.to_string()))
            .or_insert_with(|| digest_rows(&out.rows));
    }
    Ok(())
}

/// Order-sensitive digest of result rows, hashing values directly (no
/// text rendering: it runs between timed queries).
pub fn digest_rows(rows: &[Row]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for row in rows {
        for v in row.values() {
            match v {
                Value::Null => eat(&[0]),
                Value::Bool(b) => eat(&[1, u8::from(*b)]),
                Value::Int(i) => {
                    eat(&[2]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[3]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[4]);
                    eat(s.as_bytes());
                    eat(&[0xff]);
                }
                Value::Date(d) => {
                    eat(&[5]);
                    eat(&d.to_le_bytes());
                }
            }
        }
        eat(&[0xfe]);
    }
    h
}

/// Each shape's rows under `Strategy::Baseline` on CSV, computed on a
/// store of its own: the answer every timed query is held to.
pub struct Reference {
    rows: Vec<Vec<Row>>,
    digest: Vec<u64>,
}

pub fn reference(rows: &Rows) -> Result<Reference> {
    let store = S3Store::new();
    let tables = dataset::upload(&store, BUCKET, rows, Format::Csv, ROWS_PER_PARTITION)?;
    let ctx = QueryContext::new(store);
    for t in tables.all() {
        ctx.catalog.register(t.clone());
    }
    let mut reference = Reference {
        rows: Vec::new(),
        digest: Vec::new(),
    };
    for shape in &SHAPES {
        let out = execute_sql_verbose(
            &ctx,
            tables.by_name(shape.table),
            shape.sql,
            Strategy::Baseline,
        )?
        .0;
        reference.digest.push(digest_rows(&out.rows));
        reference.rows.push(out.rows);
    }
    Ok(reference)
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // SUM order differs across strategies; 1e-6 relative, as
        // tests/differential.rs does.
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
        (Value::Null, Value::Null) => true,
        _ => a.sql_eq(b) == Some(true),
    }
}

impl Reference {
    /// `None` when `rows` (with `digest`) answer `shape` correctly.
    fn mismatch(&self, shape: usize, rows: &[Row], digest: u64) -> Option<String> {
        if digest == self.digest[shape] {
            return None;
        }
        let want = &self.rows[shape];
        if rows.len() != want.len() {
            return Some(format!("{} rows, reference has {}", rows.len(), want.len()));
        }
        for (i, (got, want)) in rows.iter().zip(want).enumerate() {
            if got.len() != want.len()
                || !got
                    .values()
                    .iter()
                    .zip(want.values())
                    .all(|(a, b)| close(a, b))
            {
                return Some(format!("row {i}: {got:?} != reference {want:?}"));
            }
        }
        None
    }
}

/// Mean modeled seconds per query, split by the model term that the
/// time is charged to. Recomputed here from the public
/// `QueryMetrics.groups` and `PerfParams`; the terms of one query sum to
/// its modeled runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Terms {
    pub startup_s: f64,
    pub request_latency_s: f64,
    pub s3_scan_s: f64,
    pub wire_s: f64,
    pub parse_s: f64,
    pub cpu_s: f64,
    pub local_io_s: f64,
    pub exchange_s: f64,
    /// Cache persistence (segment and manifest appends, fsyncs), which
    /// the engine charges to a scope clock only under a fault plan; the
    /// harness charges it from the cache's persist counters.
    pub persist_s: f64,
}

impl Terms {
    pub fn add(&mut self, o: &Terms) {
        self.startup_s += o.startup_s;
        self.request_latency_s += o.request_latency_s;
        self.s3_scan_s += o.s3_scan_s;
        self.wire_s += o.wire_s;
        self.parse_s += o.parse_s;
        self.cpu_s += o.cpu_s;
        self.local_io_s += o.local_io_s;
        self.exchange_s += o.exchange_s;
        self.persist_s += o.persist_s;
    }

    pub fn named(&self) -> [(&'static str, f64); 9] {
        [
            ("virtual.startup_s", self.startup_s),
            ("virtual.request_latency_s", self.request_latency_s),
            ("virtual.s3_scan_s", self.s3_scan_s),
            ("virtual.wire_s", self.wire_s),
            ("virtual.parse_s", self.parse_s),
            ("virtual.cpu_s", self.cpu_s),
            ("virtual.local_io_s", self.local_io_s),
            ("virtual.exchange_s", self.exchange_s),
            ("virtual.persist_s", self.persist_s),
        ]
    }
}

/// The terms of one phase, mirroring `PerfModel::phase_seconds`: the
/// phase pays startup and request latency, then runs at the pace of its
/// slowest stream, so only that stream's term is charged.
fn phase_terms(p: &PerfParams, s: &PhaseStats) -> (f64, Terms) {
    let requests = s.requests + s.point_requests;
    let inflight = p.max_inflight.min(requests.max(1) as usize).max(1) as f64;
    let latency = requests as f64 * p.request_latency / inflight;
    let scan_bw = p.s3_scan_bw / (1.0 + p.expr_term_coeff * f64::from(s.expr_terms));
    let scan = s.s3_scanned_bytes as f64 / scan_bw;
    let wire = (s.select_returned_bytes + s.plain_bytes) as f64 / p.net_bw;
    let local = s.cache_bytes as f64 / p.cache_read_bw + s.disk_bytes as f64 / p.disk_read_bw;
    let xchg = s.exchange_bytes as f64 / p.exchange_bw;
    let moved = s.plain_bytes + s.cache_bytes + s.disk_bytes;
    let cl = s.cl_parse_bytes.min(moved);
    let parse = (moved - cl) as f64 / p.parse_plain_bw
        + cl as f64 / p.parse_cl_bw
        + s.select_returned_bytes as f64 / p.parse_select_bw;
    let cpu = s.server_cpu_units as f64 * p.cpu_per_unit;
    let server = parse + cpu;
    let mut t = Terms {
        startup_s: p.phase_startup,
        request_latency_s: latency,
        ..Terms::default()
    };
    let slowest = scan.max(wire).max(server).max(local).max(xchg);
    if slowest == server {
        t.parse_s = parse;
        t.cpu_s = cpu;
    } else if slowest == scan {
        t.s3_scan_s = scan;
    } else if slowest == wire {
        t.wire_s = wire;
    } else if slowest == local {
        t.local_io_s = local;
    } else {
        t.exchange_s = xchg;
    }
    (p.phase_startup + latency + slowest, t)
}

/// A query's terms: per group, those of its slowest phase (the phases of
/// a group run concurrently), plus the fixed query startup.
fn query_terms(p: &PerfParams, metrics: &QueryMetrics) -> Terms {
    let mut total = Terms {
        startup_s: p.query_startup,
        ..Terms::default()
    };
    for g in &metrics.groups {
        let slowest = g
            .phases
            .iter()
            .map(|ph| phase_terms(p, &ph.stats))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((_, t)) = slowest {
            total.add(&t);
        }
    }
    total
}

/// What a traced query span carries beyond its timing.
pub struct Detail {
    /// Seconds the harness spent collecting this detail.
    pub capture_s: f64,
    pub candidates: usize,
    pub terms: Terms,
    /// Modeled seconds of each executed operator, in tree order.
    pub operators: Vec<(String, f64)>,
}

fn flatten_operators(ctx: &QueryContext, op: &OpReport, out: &mut Vec<(String, f64)>) {
    out.push((op.label.clone(), ctx.model.phase_seconds(&op.actual)));
    for c in &op.children {
        flatten_operators(ctx, c, out);
    }
}

/// One executed query of the timed loop.
pub struct Sample {
    pub index: usize,
    pub shape: usize,
    pub client: usize,
    pub start: Instant,
    pub wall_s: f64,
    pub virtual_s: f64,
    /// `virtual_s` net of `query_startup` and one `phase_startup` per
    /// phase group: the part a change can move.
    pub data_s: f64,
    pub dollars: f64,
    pub billed: Usage,
    pub digest: u64,
    /// The plan the planner chose, as `PlanKind` prints it.
    pub plan: String,
    pub failure: Option<String>,
    pub detail: Option<Detail>,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Execute stream query `index` and hold its result to the gate: no
/// error or panic, `metrics.usage() == billed`, rows equal to the
/// reference.
fn run_query(
    env: &Env,
    reference: &Reference,
    index: usize,
    shape: usize,
    client: usize,
    traced: bool,
) -> Sample {
    let spec = env.spec;
    let qctx = env.ctx.scoped_with_salt(query_salt(env.seed, index));
    let table = env.tables.by_name(SHAPES[shape].table);
    let cache = env.ctx.cache();
    let persist0 = cache.as_ref().map(|c| c.persist_counters());
    let start = Instant::now();
    let outcome: std::thread::Result<Result<(QueryOutput, Explain)>> =
        catch_unwind(AssertUnwindSafe(|| {
            execute_sql_verbose(&qctx, table, SHAPES[shape].sql, spec.strategy)
        }));
    let wall_s = start.elapsed().as_secs_f64();
    let mut sample = Sample {
        index,
        shape,
        client,
        start,
        wall_s,
        virtual_s: 0.0,
        data_s: 0.0,
        dollars: 0.0,
        billed: qctx.billed(),
        digest: 0,
        plan: String::new(),
        failure: None,
        detail: None,
    };
    let (out, explain) = match outcome {
        Err(payload) => {
            sample.failure = Some(format!("panic: {}", panic_text(payload)));
            return sample;
        }
        Ok(Err(e)) => {
            sample.failure = Some(format!("error: {e}"));
            return sample;
        }
        Ok(Ok(pair)) => pair,
    };
    let p = &env.ctx.model.params;
    // Persistence is exact per query only with one client; the cached
    // workloads have one.
    let persist_s = match (cache, persist0) {
        (Some(c), Some((b0, f0))) => {
            let (b1, f1) = c.persist_counters();
            (b1 - b0) as f64 / p.disk_write_bw + (f1 - f0) as f64 * p.fsync_latency
        }
        _ => 0.0,
    };
    let runtime = out.metrics.runtime(&env.ctx.model);
    sample.virtual_s = runtime + persist_s;
    sample.data_s =
        sample.virtual_s - p.query_startup - p.phase_startup * out.metrics.groups.len() as f64;
    sample.dollars = env.ctx.pricing.cost(&out.billed, sample.virtual_s).total();
    sample.billed = out.billed;
    sample.digest = digest_rows(&out.rows);
    sample.plan = explain.kind.to_string();
    if out.metrics.usage() != out.billed {
        sample.failure = Some(format!(
            "metrics.usage() {:?} != billed {:?}",
            out.metrics.usage(),
            out.billed
        ));
    } else if let Some(why) = reference.mismatch(shape, &out.rows, sample.digest) {
        sample.failure = Some(why);
    }
    if traced {
        let capture = Instant::now();
        let mut terms = query_terms(p, &out.metrics);
        terms.persist_s = persist_s;
        let mut operators = Vec::new();
        if let Some(root) = &explain.operators {
            flatten_operators(&env.ctx, root, &mut operators);
        }
        sample.detail = Some(Detail {
            capture_s: capture.elapsed().as_secs_f64(),
            candidates: explain.candidates.len(),
            terms,
            operators,
        });
    }
    sample
}

/// What a `query#i` span carries.
fn query_args(spec: &Spec, s: &Sample) -> Vec<(String, Json)> {
    let mut args = vec![
        ("shape".to_string(), Json::str(SHAPES[s.shape].name)),
        (
            "strategy".to_string(),
            Json::str(strategy_name(spec.strategy)),
        ),
        ("plan".to_string(), Json::str(&s.plan)),
        ("virtual_s".to_string(), Json::Num(s.virtual_s)),
        ("billed".to_string(), usage_json(&s.billed)),
    ];
    if let Some(d) = &s.detail {
        args.push(("candidates".to_string(), Json::Int(d.candidates as u64)));
        args.push((
            "operators_virtual_s".to_string(),
            Json::Obj(
                d.operators
                    .iter()
                    .map(|(label, secs)| (label.clone(), Json::Num(*secs)))
                    .collect(),
            ),
        ));
    }
    if let Some(f) = &s.failure {
        args.push(("failure".to_string(), Json::str(f)));
    }
    args
}

/// Hands out stream positions to the clients. The stream is endless;
/// once the run's seconds are up, the block in progress is the last.
struct Dispenser {
    next: usize,
    block_no: usize,
    block: Vec<usize>,
    stopped: bool,
}

pub struct LoopResult {
    pub samples: Vec<Sample>,
    /// Seconds from the first query's start to the last one's end.
    pub timed_s: f64,
    /// CPU seconds (user + system, every thread) the process spent
    /// between the loop's start and its end.
    pub cpu_s: f64,
    /// Failures that belong to no single query (ledger conservation).
    pub loop_failures: Vec<String>,
    pub cache_before: Option<CacheStats>,
    pub cache_after: Option<CacheStats>,
    pub manifest_after: Option<ManifestStats>,
}

/// The timed loop: `spec.clients` closed-loop clients execute whole
/// blocks of the stream for at least `seconds`. When `tracer` is on,
/// every query also captures its plan detail.
pub fn run_loop(env: &Env, reference: &Reference, seconds: f64, tracer: &mut Tracer) -> LoopResult {
    let spec = env.spec;
    let block_len = spec.stream.block_len();
    let tracing = tracer.enabled();
    // The warm-up used the stream's first blocks; carry on after them.
    let first_index = spec.warm_blocks * block_len;
    let dispenser = Mutex::new(Dispenser {
        next: first_index,
        block_no: spec.warm_blocks,
        block: spec.stream.block(env.seed, spec.warm_blocks),
        stopped: false,
    });
    let cache = env.ctx.cache();
    let cache_before = cache.as_ref().map(|c| c.stats());
    let ledger_before = env.ctx.store.ledger().snapshot();
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let take = || -> Option<(usize, usize)> {
        let mut d = dispenser
            .lock()
            .expect("a client panicked in the dispenser");
        if d.stopped {
            return None;
        }
        let pos = d.next % block_len;
        if pos == 0 && d.next > first_index {
            if started.elapsed().as_secs_f64() >= seconds {
                d.stopped = true;
                return None;
            }
            d.block_no += 1;
            d.block = spec.stream.block(env.seed, d.block_no);
        }
        let item = (d.next, d.block[pos]);
        d.next += 1;
        Some(item)
    };
    let mut samples: Vec<Sample> = tracer.span("measure", |tracer| {
        let samples: Vec<Sample> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..spec.clients)
                .map(|client| {
                    let take = &take;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some((index, shape)) = take() {
                            mine.push(run_query(env, reference, index, shape, client, tracing));
                        }
                        mine
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked outside a query"))
                .collect()
        });
        for s in &samples {
            tracer.record(
                format!("query#{}", s.index),
                s.start,
                s.wall_s,
                1 + s.client,
                query_args(spec, s),
            );
        }
        samples
    });
    let cpu_s = process_cpu_s() - cpu_before;
    samples.sort_by_key(|s| s.index);
    let timed_s = samples
        .iter()
        .map(|s| s.start.duration_since(started).as_secs_f64() + s.wall_s)
        .fold(0.0, f64::max);

    let mut loop_failures = Vec::new();
    let sum = sum_billed(&samples);
    let delta = env.ctx.store.ledger().delta_since(&ledger_before);
    if sum != delta {
        loop_failures.push(format!(
            "sum of per-query bills {sum:?} != store ledger delta {delta:?}"
        ));
    }
    // Same shape, same plan, same data: every execution must return
    // bit-identical rows to the first one in this workload, warm-up
    // included. (Across plans only the reference's tolerance holds: a
    // SUM pushed to storage adds in another order than a local one.)
    let mut first = env.first_digest.clone();
    for s in samples.iter_mut().filter(|s| s.failure.is_none()) {
        let seen = *first.entry((s.shape, s.plan.clone())).or_insert(s.digest);
        if seen != s.digest {
            s.failure = Some(format!(
                "digest {:016x} differs from the first execution's {seen:016x}",
                s.digest
            ));
        }
    }
    LoopResult {
        samples,
        timed_s,
        cpu_s,
        loop_failures,
        cache_before,
        cache_after: cache.as_ref().map(|c| c.stats()),
        manifest_after: cache.as_ref().and_then(|c| c.manifest_stats()),
    }
}

pub fn sum_billed(samples: &[Sample]) -> Usage {
    let mut u = Usage::default();
    for s in samples {
        u += s.billed;
    }
    u
}

/// CPU seconds this process has used so far, user + system, threads
/// that have exited included: fields 14 and 15 of `/proc/self/stat`, in
/// ticks of 1/100 s (`USER_HZ`, fixed by the kernel's ABI).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is in parentheses and may hold spaces.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Ceiling nearest-rank percentile; sorts `values` in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    values[rank.clamp(1, n) - 1]
}

pub fn usage_json(u: &Usage) -> Json {
    Json::obj([
        ("requests", Json::Int(u.requests)),
        ("select_scanned_bytes", Json::Int(u.select_scanned_bytes)),
        ("select_returned_bytes", Json::Int(u.select_returned_bytes)),
        ("plain_bytes", Json::Int(u.plain_bytes)),
    ])
}
