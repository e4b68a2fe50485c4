//! Per-layer probes: each public layer of the engine, timed from
//! outside on the same objects the workloads scan (the SF 0.02
//! `lineitem`, `orders` and `customer` partitions), so a layer's MB/s
//! and a workload's queries/s share units. Every call into the engine
//! sits in a span named `<layer>.<call>`.

use crate::dataset::{self, Format, Tables, COLUMNAR, ROWS_PER_PARTITION};
use crate::json::Json;
use crate::report::Metric;
use crate::suite::{query_salt, SHAPES};
use crate::trace::Tracer;
use crate::workload::{Env, ScratchDir};
use pushdown_bloom::BloomBuilder;
use pushdown_cache::{SegmentCache, SegmentKey};
use pushdown_common::columnar::ColumnarBatch;
use pushdown_common::{Error, PhaseStats, Result, RetryPolicy, Row, Value};
use pushdown_core::planner::{execute_sql_verbose, Strategy};
use pushdown_core::scan::{cached_scan_streamed, plain_scan, select_scan};
use pushdown_core::{ops, QueryContext};
use pushdown_format::columnar::{encode_columnar, ColumnarReader};
use pushdown_format::compress::{compress, decompress};
use pushdown_format::csv::{decode_csv, encode_csv};
use pushdown_s3::{FaultPlan, S3Store};
use pushdown_select::InputFormat;
use pushdown_sql::agg::AggFunc;
use pushdown_sql::bind::Binder;
use pushdown_sql::eval::eval_predicate;
use pushdown_sql::{parse_expr, parse_query, parse_select};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A probe repeats its call until this much time has been measured, so
/// a microsecond call is not timed once.
const MIN_PROBE_S: f64 = 0.05;
/// Partitions the byte-rate probes read (1 500 rows, ≈190 KB CSV each).
const PROBE_PARTS: usize = 16;
/// Partitions the cache probes read.
const CACHE_PARTS: usize = 32;
const CACHE_CHUNK: u64 = 64 * 1024;
const MB: f64 = 1e6;

const FILTER_SQL: &str = "SELECT l_orderkey, l_extendedprice FROM S3Object \
                          WHERE l_shipdate < DATE '1993-01-01'";
const AGG_SQL: &str = "SELECT SUM(l_extendedprice), COUNT(*) FROM S3Object \
                       WHERE l_shipdate <= DATE '1998-09-02'";
const ROW_PREDICATE: &str = "l_shipdate < DATE '1996-01-01' AND l_quantity < 24";

/// Seconds per call of `f`, repeated inside one span named `name`.
fn per_call(t: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    per_call_with(t, name, || (), |()| f())
}

/// As [`per_call`], with an input built outside the measured time for
/// every call (a kernel that consumes its rows).
fn per_call_with<I>(
    t: &mut Tracer,
    name: &str,
    mut input: impl FnMut() -> I,
    mut f: impl FnMut(I),
) -> f64 {
    t.span(name, |t| {
        let mut measured = 0.0;
        let mut reps = 0u64;
        while measured < MIN_PROBE_S {
            let i = input();
            let start = Instant::now();
            f(i);
            measured += start.elapsed().as_secs_f64();
            reps += 1;
        }
        t.arg("reps", Json::Int(reps));
        measured / reps as f64
    })
}

fn chunk_layout(len: u64) -> Vec<(u64, u64)> {
    (0..len)
        .step_by(CACHE_CHUNK as usize)
        .map(|first| (first, (first + CACHE_CHUNK).min(len)))
        .collect()
}

/// Read every key through the store's segment cache; bytes returned.
fn read_through(store: &S3Store, bucket: &str, keys: &[String]) -> Result<u64> {
    let mut bytes = 0;
    for key in keys {
        let fetched =
            store.get_object_chunked_cached_with(bucket, key, &RetryPolicy::default(), |d| {
                chunk_layout(d.len() as u64)
            })?;
        bytes += fetched.data.len() as u64;
    }
    Ok(bytes)
}

fn context(store: &S3Store, tables: &Tables) -> QueryContext {
    let ctx = QueryContext::new(store.clone()).with_columnar(true);
    for t in tables.all() {
        ctx.catalog.register(t.clone());
    }
    ctx
}

fn int_column(rows: &[Row], col: usize) -> Vec<i64> {
    rows.iter()
        .filter_map(|r| match r.get(col) {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .collect()
}

struct Probes<'a> {
    env: &'a Env,
    out: &'a Path,
    store: S3Store,
    csv: Tables,
    cl: Tables,
    m: Vec<Metric>,
}

pub fn run(env: &Env, out: &Path, t: &mut Tracer) -> Result<Vec<Metric>> {
    // One store holds the dataset in both formats, whatever the traced
    // workload's own format is.
    let store = S3Store::new();
    let (csv, csv_s) = t.timed("tpch.upload_csv", |_| {
        dataset::upload(&store, "csv", &env.rows, Format::Csv, ROWS_PER_PARTITION)
    });
    let (cl, cl_s) = t.timed("tpch.upload_columnar", |_| {
        dataset::upload(
            &store,
            "cl",
            &env.rows,
            Format::Columnar,
            ROWS_PER_PARTITION,
        )
    });
    let mut p = Probes {
        env,
        out,
        store,
        csv: csv?,
        cl: cl?,
        m: Vec::new(),
    };
    p.push("tpch.upload_csv_s", csv_s, "s");
    p.push("tpch.upload_columnar_s", cl_s, "s");
    let csv_bytes = dataset::stored_bytes(&p.store, &p.csv);
    let cl_bytes = dataset::stored_bytes(&p.store, &p.cl);
    p.push("tpch.dataset_csv_mb", csv_bytes as f64 / MB, "MB");
    p.push("tpch.dataset_columnar_mb", cl_bytes as f64 / MB, "MB");

    p.sql_and_bloom(t)?;
    let lineitem_rows = p.format(t)?;
    p.s3(t)?;
    p.select(t)?;
    p.cache(t)?;
    p.scan(t)?;
    p.ops(t, &lineitem_rows)?;
    p.planner(t)?;
    p.cluster(t)?;
    Ok(p.m)
}

impl Probes<'_> {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.m.push((name.to_string(), value, unit));
    }

    /// A rate in MB/s: `bytes` moved in `secs`.
    fn push_mbps(&mut self, name: &str, bytes: u64, secs: f64) {
        self.push(name, bytes as f64 / MB / secs, "MB/s");
    }

    fn lineitem_keys(&self, tables: &Tables, n: usize) -> Vec<String> {
        let mut keys = tables.lineitem.partitions(&self.store);
        keys.truncate(n);
        keys
    }

    fn sql_and_bloom(&mut self, t: &mut Tracer) -> Result<()> {
        let s = per_call(t, "sql.parse_query", || {
            for shape in &SHAPES {
                black_box(parse_query(shape.sql).expect("suite SQL parses"));
            }
        });
        self.push("sql.parse_us_per_stmt", s / SHAPES.len() as f64 * 1e6, "us");

        // The Bloom join of join-q3ish at its largest: every customer
        // key, probed by the orders' o_custkey.
        let (c_schema, c_rows) = &self.env.rows.customer;
        let (o_schema, o_rows) = &self.env.rows.orders;
        let keys = int_column(c_rows, c_schema.resolve("c_custkey")?);
        let probes = int_column(o_rows, o_schema.resolve("o_custkey")?);
        let builder = BloomBuilder::default();
        let s = per_call(t, "bloom.build", || {
            black_box(builder.build(&keys, 0.01, "o_custkey"));
        });
        self.push("bloom.build_mkeys_s", keys.len() as f64 / s / 1e6, "M/s");
        let (filter, _) = builder
            .build(&keys, 0.01, "o_custkey")
            .ok_or_else(|| Error::Other("no Bloom filter fits the SQL limit".into()))?;
        let s = per_call(t, "bloom.contains", || {
            black_box(probes.iter().filter(|&&k| filter.contains(k)).count());
        });
        self.push("bloom.probe_mkeys_s", probes.len() as f64 / s / 1e6, "M/s");
        let bloom_sql = format!(
            "SELECT o_orderkey FROM S3Object WHERE {}",
            filter.sql_predicate("o_custkey")
        );
        let s = per_call(t, "bloom.sql_predicate", || {
            black_box(filter.sql_predicate("o_custkey").to_string());
        });
        self.push_mbps("bloom.render_sql_mbps", bloom_sql.len() as u64, s);
        let s = per_call(t, "sql.parse_select", || {
            black_box(parse_select(&bloom_sql).expect("Bloom SQL parses"));
        });
        self.push_mbps("sql.parse_bloom_mbps", bloom_sql.len() as u64, s);

        // Bind the storage-dialect statements the workloads send.
        let l_schema = &self.csv.lineitem.schema;
        let stmts = [
            (parse_select(FILTER_SQL)?, l_schema),
            (parse_select(AGG_SQL)?, l_schema),
            (parse_select(&bloom_sql)?, o_schema),
        ];
        let s = per_call(t, "sql.bind_select", || {
            for (stmt, schema) in &stmts {
                black_box(Binder::new(schema).bind_select(stmt).expect("binds"));
            }
        });
        self.push("sql.bind_us_per_stmt", s / stmts.len() as f64 * 1e6, "us");
        Ok(())
    }

    /// Encode and decode both formats; returns the decoded lineitem rows
    /// of the probe partitions for the operator probes.
    fn format(&mut self, t: &mut Tracer) -> Result<Vec<Row>> {
        let schema = self.csv.lineitem.schema.clone();
        let mut csv_parts = Vec::new();
        for key in self.lineitem_keys(&self.csv, PROBE_PARTS) {
            csv_parts.push(self.store.raw_object("csv", &key)?);
        }
        let csv_len: usize = csv_parts.iter().map(|d| d.len()).sum();
        let mut rows: Vec<Row> = Vec::new();
        let s = per_call(t, "format.csv.decode_csv", || {
            rows.clear();
            for d in &csv_parts {
                rows.extend(decode_csv(d, &schema).expect("uploaded CSV decodes"));
            }
        });
        self.push_mbps("format.csv.decode_mbps", csv_len as u64, s);
        let mut encoded = 0;
        let s = per_call(t, "format.csv.encode_csv", || {
            encoded = black_box(encode_csv(&schema, &rows)).len();
        });
        self.push_mbps("format.csv.encode_mbps", encoded as u64, s);

        let mut cl_parts = Vec::new();
        for key in self.lineitem_keys(&self.cl, PROBE_PARTS) {
            cl_parts.push(self.store.raw_object("cl", &key)?);
        }
        let cl_len: usize = cl_parts.iter().map(|d| d.len()).sum();
        let s = per_call(t, "format.columnar.read_group_batch", || {
            for d in &cl_parts {
                let r = ColumnarReader::open(d.clone()).expect("uploaded ColumnarLite opens");
                for g in 0..r.num_row_groups() {
                    black_box(r.read_group_batch(g).expect("row group decodes"));
                }
            }
        });
        self.push_mbps("format.columnar.decode_batch_mbps", cl_len as u64, s);
        let s = per_call(t, "format.columnar.read_all", || {
            for d in &cl_parts {
                let r = ColumnarReader::open(d.clone()).expect("uploaded ColumnarLite opens");
                black_box(r.read_all().expect("rows decode"));
            }
        });
        self.push_mbps("format.columnar.decode_rows_mbps", cl_len as u64, s);
        let s = per_call(t, "format.columnar.encode_columnar", || {
            encoded = 0;
            for part in rows.chunks(ROWS_PER_PARTITION) {
                encoded += black_box(encode_columnar(&schema, part, COLUMNAR)).len();
            }
        });
        self.push_mbps("format.columnar.encode_mbps", encoded as u64, s);

        let packed: Vec<(Vec<u8>, usize)> =
            csv_parts.iter().map(|d| (compress(d), d.len())).collect();
        let s = per_call(t, "format.compress.decompress", || {
            for (c, len) in &packed {
                black_box(decompress(c, *len).expect("own compression inflates"));
            }
        });
        self.push_mbps("format.compress.decompress_mbps", csv_len as u64, s);
        Ok(rows)
    }

    fn s3(&mut self, t: &mut Tracer) -> Result<()> {
        let keys = self.csv.lineitem.partitions(&self.store);
        let policy = RetryPolicy::default();
        let pass = |store: &S3Store| -> (u64, u64) {
            let (mut bytes, mut retries) = (0, 0);
            for key in &keys {
                let got = store
                    .get_object_with("csv", key, &policy)
                    .expect("uploaded partition exists");
                bytes += got.value.len() as u64;
                retries += u64::from(got.attempts - 1);
            }
            (bytes, retries)
        };
        let (mut bytes, mut retries) = (0, 0);
        let store = self.store.scoped();
        let one = per_call(t, "s3.get_object", || {
            let (b, r) = pass(&store);
            bytes = b;
            retries += r;
        });
        self.push_mbps("s3.get_mbps", bytes, one);
        self.push("s3.get_us_per_request", one / keys.len() as f64 * 1e6, "us");
        self.push("s3.retries", retries as f64, "count");

        let s = per_call(t, "s3.get_object_range", || {
            for key in &keys {
                black_box(
                    store
                        .get_object_range("csv", key, 0, CACHE_CHUNK - 1)
                        .expect("range inside the partition"),
                );
            }
        });
        self.push(
            "s3.range_get_us_per_request",
            s / keys.len() as f64 * 1e6,
            "us",
        );

        // Two clients on scopes of one store against one: the aggregate
        // rate over the single-client rate (2.0 = no contention on the
        // store's shared state). Many passes per thread, so starting the
        // threads does not count.
        const PASSES: usize = 200;
        let shared = self.store.clone();
        let clients = |n: usize| {
            std::thread::scope(|scope| {
                for _ in 0..n {
                    scope.spawn(|| {
                        let store = shared.scoped();
                        for _ in 0..PASSES {
                            black_box(pass(&store));
                        }
                    });
                }
            });
        };
        let one = per_call(t, "s3.get_object.c1", || clients(1));
        let two = per_call(t, "s3.get_object.c2", || clients(2));
        self.push("s3.get_c2_scaling", 2.0 * one / two, "ratio");
        Ok(())
    }

    fn select(&mut self, t: &mut Tracer) -> Result<()> {
        let ctx = context(&self.store, &self.csv);
        let schema = self.csv.lineitem.schema.clone();
        let csv_keys = self.lineitem_keys(&self.csv, PROBE_PARTS);
        let cl_keys = self.lineitem_keys(&self.cl, PROBE_PARTS);
        let run = |t: &mut Tracer,
                   span: &str,
                   bucket: &str,
                   keys: &[String],
                   sql: &str,
                   format: InputFormat| {
            let (mut scanned, mut returned) = (0, 0);
            let s = per_call(t, span, || {
                (scanned, returned) = (0, 0);
                for key in keys {
                    let resp = ctx
                        .engine
                        .select(bucket, key, sql, &schema, format)
                        .expect("probe Select succeeds");
                    scanned += resp.stats.bytes_scanned;
                    returned += resp.stats.bytes_returned;
                }
            });
            (scanned as f64 / MB / s, returned as f64 / scanned as f64)
        };
        let (mbps, fraction) = run(
            t,
            "select.select.filter_csv",
            "csv",
            &csv_keys,
            FILTER_SQL,
            InputFormat::Csv,
        );
        self.push("select.filter_csv_mbps", mbps, "MB/s");
        self.push("select.returned_fraction", fraction, "ratio");
        let (mbps, _) = run(
            t,
            "select.select.agg_csv",
            "csv",
            &csv_keys,
            AGG_SQL,
            InputFormat::Csv,
        );
        self.push("select.agg_csv_mbps", mbps, "MB/s");
        let (mbps, _) = run(
            t,
            "select.select.filter_columnar",
            "cl",
            &cl_keys,
            FILTER_SQL,
            InputFormat::Columnar,
        );
        self.push("select.filter_columnar_mbps", mbps, "MB/s");
        Ok(())
    }

    /// The segment cache driven directly: serve from each tier, fill,
    /// partial hit, recover. Each case gets a store of its own holding
    /// the same lineitem CSV partitions.
    fn cache(&mut self, t: &mut Tracer) -> Result<()> {
        let keys = self.lineitem_keys(&self.csv, CACHE_PARTS);
        let source = self.store.clone();
        let fresh_store = || -> Result<S3Store> {
            let s = S3Store::new();
            for key in &keys {
                s.put_object("csv", key, source.raw_object("csv", key)?);
            }
            Ok(s)
        };
        let total: u64 = keys
            .iter()
            .map(|k| self.store.object_size("csv", k))
            .sum::<Result<u64>>()?;
        let big = total * 2;
        let mbps = |s: f64| total as f64 / MB / s;

        // Mem tier: fill once, then serve.
        let store = fresh_store()?;
        let _ctx = QueryContext::new(store.clone()).with_cache_tiers(big, 0);
        read_through(&store, "csv", &keys)?;
        let s = per_call(t, "cache.get_object_chunked_cached_with.mem", || {
            black_box(read_through(&store, "csv", &keys).expect("warm read"));
        });
        self.push("cache.serve_mem_mbps", mbps(s), "MB/s");

        // File-backed disk tier with no mem budget: the cold pass fills
        // and persists, warm passes serve in place from disk.
        let dir = ScratchDir::new(self.out, "probe-cache")
            .map_err(|e| Error::Other(format!("probe cache dir: {e}")))?;
        let store = fresh_store()?;
        let ctx = QueryContext::new(store.clone())
            .with_cache_tiers(0, big)
            .with_cache_dir(dir.path())?;
        let (filled, s) = t.timed("cache.get_object_chunked_cached_with.fill", |_| {
            read_through(&store, "csv", &keys)
        });
        filled?;
        self.push("cache.fill_mbps", mbps(s), "MB/s");
        let s = per_call(t, "cache.get_object_chunked_cached_with.disk", || {
            black_box(read_through(&store, "csv", &keys).expect("warm read"));
        });
        self.push("cache.serve_disk_mbps", mbps(s), "MB/s");

        // Restart: drop the cache, recover it from its directory.
        store.set_cache(None);
        drop(ctx);
        let (recovered, s) = t.timed("cache.recover", |_| {
            QueryContext::new(store.clone())
                .with_cache_tiers(0, big)
                .with_cache_dir(dir.path())
        });
        let recovered = recovered?;
        self.push("cache.recover_s", s, "s");
        recovered.store.set_cache(None);

        // Partial hit: every other chunk resident, the rest are gap GETs.
        let store = fresh_store()?;
        let cache = SegmentCache::tiered(big, 0, self.env.ctx.pricing);
        for key in &keys {
            let data = store.raw_object("csv", key)?;
            let epoch = cache.begin_fill(&SegmentKey::whole("csv", key));
            let chunks = chunk_layout(data.len() as u64);
            cache.record_layout("csv", key, epoch, chunks.clone());
            for (first, last) in chunks.into_iter().step_by(2) {
                cache.insert(
                    SegmentKey::chunk("csv", key, (first, last)),
                    data.slice(first as usize..last as usize),
                    epoch,
                );
            }
        }
        store.set_cache(Some(cache));
        let (read, s) = t.timed("cache.get_object_chunked_cached_with.partial", |_| {
            read_through(&store, "csv", &keys)
        });
        read?;
        self.push("cache.partial_hit_mbps", mbps(s), "MB/s");
        Ok(())
    }

    fn scan(&mut self, t: &mut Tracer) -> Result<()> {
        let csv_ctx = context(&self.store, &self.csv);
        let cl_ctx = context(&self.store, &self.cl);

        let (scan, s) = t.timed("core.scan.plain_scan.csv", |_| {
            plain_scan(&csv_ctx.scoped(), &self.csv.lineitem)
        });
        let csv_bytes = scan?.stats.plain_bytes;
        self.push_mbps("core.scan.plain_csv_mbps", csv_bytes, s);
        let (scan, s) = t.timed("core.scan.plain_scan.columnar", |_| {
            plain_scan(&cl_ctx.scoped(), &self.cl.lineitem)
        });
        self.push_mbps("core.scan.plain_columnar_mbps", scan?.stats.plain_bytes, s);
        let stmt = parse_select(FILTER_SQL)?;
        let (scan, s) = t.timed("core.scan.select_scan.csv", |_| {
            select_scan(&csv_ctx.scoped(), &self.csv.lineitem, &stmt)
        });
        self.push_mbps("core.scan.select_csv_mbps", scan?.stats.s3_scanned_bytes, s);

        // What the scan adds over its parts: one scan thread, beside a
        // replay of the same bytes through GET and CSV decode (and the
        // row filter a query would run next, for the ladder).
        let mut serial = csv_ctx.scoped();
        serial.scan_threads = 1;
        let (scan, scan_s) = t.timed("core.scan.plain_scan.serial", |_| {
            plain_scan(&serial, &self.csv.lineitem)
        });
        scan?;
        let schema = self.csv.lineitem.schema.clone();
        let pred = Binder::new(&schema).bind_expr(&parse_expr(ROW_PREDICATE)?)?;
        let keys = self.csv.lineitem.partitions(&self.store);
        let replay_store = self.store.scoped();
        let replay_s = t.span("core.scan.replay", |t| -> Result<f64> {
            let (objects, get_s) = t.timed("s3.get_object", |_| {
                keys.iter()
                    .map(|k| replay_store.get_object("csv", k))
                    .collect::<Result<Vec<_>>>()
            });
            let objects = objects?;
            let (rows, decode_s) = t.timed("format.csv.decode_csv", |_| {
                objects
                    .iter()
                    .map(|d| decode_csv(d, &schema))
                    .collect::<Result<Vec<_>>>()
            });
            let rows = rows?;
            t.span("core.ops.filter_rows", |_| {
                let mut stats = PhaseStats::default();
                for part in rows {
                    black_box(ops::filter_rows(part, &pred, &mut stats)?);
                }
                Ok::<_, Error>(())
            })?;
            Ok(get_s + decode_s)
        })?;
        self.push("core.scan.overhead_ratio", scan_s / replay_s, "ratio");

        // Cached scan, second pass: every chunk resident in memory.
        // The cache is store-wide, so it is removed again right after.
        let cached = csv_ctx
            .clone()
            .with_cache(csv_bytes * 2)
            .with_cache_reads(true);
        cached_scan_streamed(&cached.scoped(), &self.csv.lineitem, |_| Ok(()))?;
        let (summary, s) = t.timed("core.scan.cached_scan_streamed.warm", |_| {
            cached_scan_streamed(&cached.scoped(), &self.csv.lineitem, |_| Ok(()))
        });
        self.store.set_cache(None);
        let st = summary?.stats;
        self.push_mbps(
            "core.scan.cached_warm_mbps",
            st.cache_bytes + st.disk_bytes + st.plain_bytes,
            s,
        );
        Ok(())
    }

    fn ops(&mut self, t: &mut Tracer, lineitem: &[Row]) -> Result<()> {
        let schema = self.csv.lineitem.schema.clone();
        let col = |name: &str| schema.resolve(name);
        let n = lineitem.len() as f64;
        let mrows = |rows: f64, s: f64| rows / s / 1e6;
        let pred = Binder::new(&schema).bind_expr(&parse_expr(ROW_PREDICATE)?)?;

        let s = per_call(t, "sql.eval_predicate", || {
            let mut hits = 0usize;
            for r in lineitem {
                hits += usize::from(eval_predicate(&pred, r).expect("predicate evaluates"));
            }
            black_box(hits);
        });
        self.push("sql.eval_mrows_s", mrows(n, s), "M/s");

        let s = per_call_with(
            t,
            "core.ops.filter_rows",
            || lineitem.to_vec(),
            |rows| {
                let mut stats = PhaseStats::default();
                black_box(ops::filter_rows(rows, &pred, &mut stats).expect("filters"));
            },
        );
        self.push("core.ops.filter_rows_mrows_s", mrows(n, s), "M/s");

        let batch = ColumnarBatch::from_rows(&schema, lineitem);
        let compiled = ops::compile_predicate(&pred)
            .ok_or_else(|| Error::Other("the probe predicate no longer vectorizes".into()))?;
        let s = per_call(t, "core.ops.filter_columnar", || {
            let mut stats = PhaseStats::default();
            black_box(ops::filter_columnar(&batch, &compiled, &mut stats));
        });
        self.push("core.ops.filter_columnar_mrows_s", mrows(n, s), "M/s");

        let group = [col("l_returnflag")?];
        let aggs = [
            (AggFunc::Sum, Some(col("l_quantity")?)),
            (AggFunc::Count, None),
        ];
        let s = per_call(t, "core.ops.hash_group_by", || {
            let mut stats = PhaseStats::default();
            black_box(ops::hash_group_by(lineitem, &group, &aggs, &mut stats).expect("groups"));
        });
        self.push("core.ops.hash_group_by_mrows_s", mrows(n, s), "M/s");

        let price = col("l_extendedprice")?;
        let s = per_call(t, "core.ops.top_k", || {
            let mut stats = PhaseStats::default();
            black_box(ops::top_k(lineitem, price, 100, false, &mut stats));
        });
        self.push("core.ops.top_k_mrows_s", mrows(n, s), "M/s");

        let (o_schema, orders) = &self.env.rows.orders;
        let (o_key, l_key) = (o_schema.resolve("o_orderkey")?, col("l_orderkey")?);
        let s = per_call_with(
            t,
            "core.ops.hash_join",
            || (orders.clone(), lineitem.to_vec()),
            |(build, probe)| {
                let mut stats = PhaseStats::default();
                black_box(ops::hash_join(build, o_key, probe, l_key, &mut stats));
            },
        );
        self.push(
            "core.ops.hash_join_mrows_s",
            mrows(n + orders.len() as f64, s),
            "M/s",
        );

        let s = per_call_with(
            t,
            "core.ops.sort_rows",
            || lineitem.to_vec(),
            |rows| {
                let mut stats = PhaseStats::default();
                black_box(ops::sort_rows(rows, price, true, &mut stats));
            },
        );
        self.push("core.ops.sort_mrows_s", mrows(n, s), "M/s");
        Ok(())
    }

    fn planner(&mut self, t: &mut Tracer) -> Result<()> {
        // Fixed per-query work: the nine shapes, Adaptive, on a dataset
        // so small (one partition per table) that data cost is ≈ 0.
        let tiny_rows = dataset::generate(0.0002);
        let tiny_store = S3Store::new();
        let tiny = dataset::upload(&tiny_store, "tiny", &tiny_rows, Format::Csv, usize::MAX)?;
        let tiny_ctx = context(&tiny_store, &tiny);
        let s = per_call(t, "core.planner.execute_sql_verbose.tiny", || {
            for shape in &SHAPES {
                black_box(
                    execute_sql_verbose(
                        &tiny_ctx,
                        tiny.by_name(shape.table),
                        shape.sql,
                        Strategy::Adaptive,
                    )
                    .expect("tiny query runs"),
                );
            }
        });
        self.push(
            "core.planner.fixed_ms_per_query",
            s / SHAPES.len() as f64 * 1e3,
            "ms",
        );

        // Does Adaptive pick the cheapest plan, and how far off is its
        // prediction? Actual dollars of all three strategies, per shape,
        // on the ColumnarLite tables.
        let ctx = context(&self.store, &self.cl);
        let mut optimal = 0usize;
        let mut errors: Vec<f64> = Vec::new();
        t.span("core.planner.execute_sql_verbose.strategies", |_| {
            for shape in &SHAPES {
                let table = self.cl.by_name(shape.table);
                let mut dollars = [0.0f64; 3];
                let strategies = [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive];
                for (d, strategy) in dollars.iter_mut().zip(strategies) {
                    let (out, explain) = execute_sql_verbose(&ctx, table, shape.sql, strategy)?;
                    *d = out.billed_cost(&ctx).total();
                    if let Some(c) = explain.candidates.iter().find(|c| c.chosen) {
                        errors.push((c.dollars - *d).abs() / *d * 100.0);
                    }
                }
                if dollars[2] <= dollars[0].min(dollars[1]) * (1.0 + 1e-9) {
                    optimal += 1;
                }
            }
            Ok::<_, Error>(())
        })?;
        self.push(
            "core.planner.pick_optimal_fraction",
            optimal as f64 / SHAPES.len() as f64,
            "ratio",
        );
        errors.sort_by(|a, b| a.total_cmp(b));
        self.push(
            "core.cost.predict_error_pct",
            errors.get(errors.len() / 2).copied().unwrap_or(0.0),
            "%",
        );
        Ok(())
    }

    /// One pass of the suite on 4 nodes, all on the virtual clock (a
    /// zero-probability fault plan turns the latency model on).
    fn cluster(&mut self, t: &mut Tracer) -> Result<()> {
        self.store
            .set_fault_plan(Some(FaultPlan::new(self.env.seed, 0.0)));
        let ctx = context(&self.store, &self.cl).with_nodes(4);
        let cluster = ctx.cluster.clone().expect("with_nodes attaches a cluster");
        let before = cluster.snapshots();
        let ran = t.span("core.cluster.suite.4n", |_| {
            for (i, shape) in SHAPES.iter().enumerate() {
                let qctx = ctx.scoped_with_salt(query_salt(self.env.seed, i));
                execute_sql_verbose(
                    &qctx,
                    self.cl.by_name(shape.table),
                    shape.sql,
                    Strategy::Pushdown,
                )?;
            }
            Ok::<_, Error>(())
        });
        self.store.set_fault_plan(None);
        ran?;
        let after = cluster.snapshots();
        let busy: Vec<f64> = after
            .iter()
            .zip(&before)
            .map(|(a, b)| (a.seconds - b.seconds).max(0.0))
            .collect();
        let critical = busy.iter().copied().fold(0.0, f64::max);
        let total: f64 = busy.iter().sum();
        let exchanged: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.exchange_bytes - b.exchange_bytes)
            .sum();
        let over_critical = |x: f64| if critical > 0.0 { x / critical } else { 0.0 };
        // Mean node utilization relative to the busiest node.
        self.push(
            "core.cluster.balance_4n",
            over_critical(total / busy.len() as f64),
            "ratio",
        );
        // The node clocks add up: all four nodes' busy time is what one
        // node would have spent, so this is the 1-node critical path
        // over the 4-node one.
        self.push(
            "core.cluster.critical_path_vs_4n",
            over_critical(total),
            "ratio",
        );
        self.push("core.cluster.exchange_mb_4n", exchanged as f64 / MB, "MB");
        Ok(())
    }
}
