//! Turning a run into metrics, printed lines and JSON files; and the
//! parent mode that runs each workload in a process of its own.

use crate::dataset::{self, ROWS_PER_PARTITION, SCALE_FACTOR};
use crate::json::Json;
use crate::suite::SHAPES;
use crate::trace::Tracer;
use crate::workload::{self, sum_billed, Env, LoopResult, Sample, Spec, Terms};
use crate::{probes, result_line, Options};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Builds (generate, upload, install the cache) per untraced run;
/// `setup_s` is their median plus the one warm-up.
const BUILD_REPEATS: usize = 3;

/// A timed loop shorter than this is flagged `short_run` in the JSON:
/// its percentiles rest on few samples.
const SHORT_RUN_S: f64 = 15.0;

pub type Metric = (String, f64, &'static str);

/// How `--check-repeat` holds two runs of a metric against each other.
#[derive(Clone, Copy, PartialEq)]
enum Repeats {
    /// Modeled: the same for any number of whole blocks on a workload
    /// without a cache, so equal to 1e-9 there. With a cache it depends
    /// on how the scan threads interleaved their fills, and is held to
    /// the bound.
    Modeled,
    /// Measured, and steady enough that one pair is held to the bound.
    WithinBound,
    /// Measured, and one pair says nothing: two set-ups differ by up to
    /// a third on the file-backed workload. The driver, too, holds only
    /// the median of ten runs to the bound. Printed, not checked.
    MedianOnly,
}

/// An end-to-end metric as BENCHMARK.json declares it.
struct MetricDef {
    name: &'static str,
    unit: &'static str,
    bound: f64,
    repeats: Repeats,
}

const fn def(name: &'static str, unit: &'static str, bound: f64, repeats: Repeats) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound,
        repeats,
    }
}

const END_TO_END: [MetricDef; 5] = [
    def("virtual_s_per_query", "model_s", 0.01, Repeats::Modeled),
    def(
        "virtual_data_s_per_query",
        "model_s",
        0.03,
        Repeats::Modeled,
    ),
    def("dollars_per_kquery", "usd", 0.01, Repeats::Modeled),
    def("setup_s", "s", 0.25, Repeats::MedianOnly),
    def("peak_rss_mb", "MB", 0.25, Repeats::WithinBound),
];

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit the checkout is at, read from `.git` without starting a
/// process; "unknown" outside a git repository.
fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
                return hash.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                if let Some(hash) = packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::trim))
                {
                    return hash.to_string();
                }
            }
            break;
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What every JSON file carries, so a number can be traced to the run
/// that produced it.
fn meta(opts: &Options) -> Vec<(String, Json)> {
    vec![
        ("seed".into(), Json::Int(opts.seed)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("scale_factor".into(), Json::Num(SCALE_FACTOR)),
        (
            "rows_per_partition".into(),
            Json::Int(ROWS_PER_PARTITION as u64),
        ),
        ("nproc".into(), Json::Int(nproc() as u64)),
        ("git_commit".into(), Json::Str(git_commit())),
    ]
}

fn mean(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    samples.iter().map(f).sum::<f64>() / samples.len() as f64
}

const MB: f64 = 1e6;

fn end_to_end(res: &LoopResult, setup_s: f64) -> Vec<Metric> {
    let s = &res.samples;
    let values = [
        mean(s, |q| q.virtual_s),
        mean(s, |q| q.data_s),
        1000.0 * mean(s, |q| q.dollars),
        setup_s,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name.to_string(), v, d.unit))
        .collect()
}

/// Elapsed-time and CPU-time numbers of the timed loop. In this sandbox
/// they follow the host more than the code (see README, "Why no
/// elapsed-time metric has a bound"), so they carry no bound: the traced
/// run reports them per layer, the untraced run prints and files them.
fn elapsed(res: &LoopResult) -> Vec<Metric> {
    let s = &res.samples;
    let n = s.len() as f64;
    let mut out: Vec<Metric> = vec![
        ("wall_qps".into(), n / res.timed_s, "1/s"),
        ("cpu_ms_per_query".into(), 1e3 * res.cpu_s / n, "ms"),
    ];
    let mut wall_ms: Vec<f64> = s.iter().map(|q| q.wall_s * 1e3).collect();
    for (name, p) in [("wall_p50_ms", 50.0), ("wall_p90_ms", 90.0)] {
        out.push((name.into(), workload::percentile(&mut wall_ms, p), "ms"));
    }
    for (i, shape) in SHAPES.iter().enumerate() {
        let mut ms: Vec<f64> = s
            .iter()
            .filter(|q| q.shape == i)
            .map(|q| q.wall_s * 1e3)
            .collect();
        out.push((
            format!("shape.{}.p50_ms", shape.name),
            if ms.is_empty() {
                0.0
            } else {
                workload::percentile(&mut ms, 50.0)
            },
            "ms",
        ));
    }
    out
}

/// Per-layer metrics that come from the workload's own timed loop.
fn workload_layers(res: &LoopResult) -> Vec<Metric> {
    let s = &res.samples;
    let n = s.len() as f64;
    let mut out: Vec<Metric> = Vec::new();
    let billed = sum_billed(s);
    out.push((
        "s3.requests_per_query".into(),
        billed.requests as f64 / n,
        "count",
    ));
    out.push((
        "s3.remote_mb_per_query".into(),
        (billed.select_scanned_bytes + billed.plain_bytes) as f64 / MB / n,
        "MB",
    ));
    out.push((
        "select.returned_mb_per_query".into(),
        billed.select_returned_bytes as f64 / MB / n,
        "MB",
    ));

    // Cache counters over the timed loop; all zero without a cache.
    let b = res.cache_before.unwrap_or_default();
    let a = res.cache_after.unwrap_or_default();
    let d = |f: fn(&pushdown_cache::CacheStats) -> u64| (f(&a) - f(&b)) as f64;
    let hit_bytes = d(|c| c.hit_bytes);
    let fill_bytes = d(|c| c.fill_bytes);
    let served = hit_bytes + fill_bytes;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    out.extend([
        (
            "cache.hit_ratio_bytes".to_string(),
            ratio(hit_bytes, served),
            "ratio",
        ),
        (
            "cache.disk_hit_share".to_string(),
            ratio(d(|c| c.disk_hit_bytes), hit_bytes),
            "ratio",
        ),
        (
            "cache.fills_per_query".to_string(),
            d(|c| c.fills) / n,
            "count",
        ),
        (
            "cache.evictions_per_query".to_string(),
            d(|c| c.evictions) / n,
            "count",
        ),
        (
            "cache.disk_evictions_per_query".to_string(),
            d(|c| c.disk_evictions) / n,
            "count",
        ),
        (
            "cache.promotions_per_query".to_string(),
            d(|c| c.promotions) / n,
            "count",
        ),
        (
            "cache.demotions_per_query".to_string(),
            d(|c| c.demotions) / n,
            "count",
        ),
        (
            "cache.read_arounds".to_string(),
            d(|c| c.read_arounds),
            "count",
        ),
        (
            "cache.store.persisted_mb_per_query".to_string(),
            d(|c| c.persisted_bytes) / MB / n,
            "MB",
        ),
        (
            "cache.store.fsyncs_per_query".to_string(),
            d(|c| c.fsyncs) / n,
            "count",
        ),
        (
            "cache.store.manifest_bytes".to_string(),
            res.manifest_after.map_or(0.0, |m| m.manifest_bytes as f64),
            "bytes",
        ),
    ]);

    // Modeled seconds per query by model term, and planner candidates,
    // over the queries that carried detail (the traced blocks).
    let detailed: Vec<_> = s.iter().filter_map(|q| q.detail.as_ref()).collect();
    let mut terms = Terms::default();
    for d in &detailed {
        terms.add(&d.terms);
    }
    let dn = detailed.len().max(1) as f64;
    for (name, total) in terms.named() {
        out.push((name.to_string(), total / dn, "model_s"));
    }
    out.push((
        "core.planner.candidates_per_query".into(),
        detailed.iter().map(|d| d.candidates as f64).sum::<f64>() / dn,
        "count",
    ));

    out.extend(elapsed(res));

    // What collecting the detail cost, against the queries it rode on.
    // (End-to-end numbers come from the untraced run, which collects
    // none.)
    let capture_s: f64 = detailed.iter().map(|d| d.capture_s).sum();
    let query_s: f64 = s.iter().map(|q| q.wall_s).sum();
    out.push((
        "trace.overhead_pct".into(),
        100.0 * capture_s / query_s,
        "%",
    ));
    out
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{workload} {name} {value} {unit}");
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Failure messages worth keeping in the JSON file (the first few).
fn failures(res: &LoopResult) -> Vec<String> {
    res.loop_failures
        .iter()
        .cloned()
        .chain(res.samples.iter().filter_map(|s| {
            s.failure
                .as_ref()
                .map(|f| format!("query#{} {}: {f}", s.index, SHAPES[s.shape].name))
        }))
        .collect()
}

/// Run one workload in this process. Returns the result line and
/// whether every query passed the correctness gate.
pub fn run_one(spec: &'static Spec, opts: &Options) -> Result<(Json, bool), String> {
    let mut tracer = Tracer::new(opts.trace);
    let fail = |e: pushdown_common::Error| format!("{}: {e}", spec.name);

    let mut build_runs: Vec<f64> = Vec::new();
    let (env, reference, res, probe_metrics) = tracer.span("run", |tracer| {
        let env = tracer.span("setup", |tracer| {
            // An untraced run builds several times and reports the
            // median, so one slow build does not read as a regression;
            // the warm-up runs once, on the build that is kept. A traced
            // run builds once: its set-up is a span, not a metric.
            let repeats = if opts.trace { 1 } else { BUILD_REPEATS };
            let mut env: Option<Env> = None;
            for _ in 0..repeats {
                drop(env.take());
                let e = workload::build(spec, opts.seed, &opts.out, tracer).map_err(fail)?;
                build_runs.push(e.times.build_s());
                env = Some(e);
            }
            let mut env = env.expect("at least one build ran");
            workload::warm_up(&mut env, tracer).map_err(fail)?;
            Ok::<_, String>(env)
        })?;
        let reference = tracer
            .span("reference", |_| workload::reference(&env.rows))
            .map_err(fail)?;
        let res = workload::run_loop(&env, &reference, opts.seconds, tracer);
        let probe_metrics = if opts.trace {
            tracer
                .span("probes", |t| probes::run(&env, &opts.out, t))
                .map_err(fail)?
        } else {
            Vec::new()
        };
        Ok::<_, String>((env, reference, res, probe_metrics))
    })?;
    drop(reference);

    let attempted = res.samples.len();
    let failed_list = failures(&res);
    let failed = failed_list.len();
    for f in failed_list.iter().take(10) {
        eprintln!("perf: {}: FAILED {f}", spec.name);
    }

    let metrics: Vec<Metric> = if opts.trace {
        let mut m = vec![("tpch.gen_s".to_string(), env.times.gen_s, "s")];
        m.extend(probe_metrics);
        m.extend(workload_layers(&res));
        m.push(("trace.spans".into(), tracer.span_count() as f64, "count"));
        m
    } else {
        end_to_end(
            &res,
            workload::percentile(&mut build_runs.clone(), 50.0) + env.times.warmup_s,
        )
    };
    print_metrics(spec.name, &metrics);
    // Measured but not part of the result line of an untraced run.
    let unbounded = if opts.trace {
        Vec::new()
    } else {
        elapsed(&res)
    };
    print_metrics(spec.name, &unbounded);

    let digest = dataset::digest(&env.ctx.store, &env.tables).map_err(fail)?;
    let mut doc = meta(opts);
    doc.extend([
        ("workload".to_string(), Json::str(spec.name)),
        ("why".to_string(), Json::str(spec.why)),
        ("format".to_string(), Json::str(spec.format.name())),
        (
            "strategy".to_string(),
            Json::str(workload::strategy_name(spec.strategy)),
        ),
        ("clients".to_string(), Json::Int(spec.clients as u64)),
        (
            "scan_threads".to_string(),
            Json::Int(env.ctx.scan_threads as u64),
        ),
        ("dataset_bytes".to_string(), Json::Int(env.stored_bytes)),
        (
            "dataset_digest".to_string(),
            Json::Str(format!("{digest:016x}")),
        ),
        ("timed_s".to_string(), Json::Num(res.timed_s)),
        (
            "short_run".to_string(),
            Json::Bool(res.timed_s < SHORT_RUN_S),
        ),
        ("samples".to_string(), Json::Int(attempted as u64)),
        (
            "samples_ms".to_string(),
            Json::Arr(
                res.samples
                    .iter()
                    .map(|q| Json::Arr(vec![Json::Int(q.shape as u64), Json::Num(q.wall_s * 1e3)]))
                    .collect(),
            ),
        ),
        ("failed".to_string(), Json::Int(failed as u64)),
        (
            "failures".to_string(),
            Json::Arr(failed_list.iter().take(10).map(Json::str).collect()),
        ),
        (
            "billed".to_string(),
            workload::usage_json(&sum_billed(&res.samples)),
        ),
        (
            "setup".to_string(),
            Json::obj([
                ("gen_s", Json::Num(env.times.gen_s)),
                ("upload_s", Json::Num(env.times.upload_s)),
                ("cache_install_s", Json::Num(env.times.cache_install_s)),
                ("warmup_s", Json::Num(env.times.warmup_s)),
                (
                    "builds_s",
                    Json::Arr(build_runs.iter().map(|&s| Json::Num(s)).collect()),
                ),
            ]),
        ),
        ("metrics".to_string(), metrics_json(&metrics)),
        ("unbounded".to_string(), metrics_json(&unbounded)),
    ]);
    let kind = if opts.trace { "layers" } else { "e2e" };
    if opts.trace {
        doc.push(("spans".to_string(), tracer.layers()));
        write_file(
            &opts.out.join(format!("{}.trace.json", spec.name)),
            &tracer.chrome_trace().to_string(),
        )?;
    }
    write_file(
        &opts.out.join(format!("{}.{kind}.json", spec.name)),
        &Json::Obj(doc).to_string(),
    )?;
    drop(env);

    let correct = failed == 0;
    Ok((
        result_line(correct, attempted, failed, metrics_json(&metrics)),
        correct,
    ))
}

/// One child run: the metric lines it printed and its result line.
struct ChildRun {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    ok: bool,
}

/// Re-execute this binary for one workload, relaying what it prints.
fn run_child(spec: &Spec, opts: &Options) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    // wait_with_output reads to the end and reaps the child.
    let output = child
        .wait_with_output()
        .map_err(|e| format!("wait {}: {e}", spec.name))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        ok: output.status.success(),
    };
    for line in text.lines() {
        let t: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, _unit] = t[..] {
            if w == spec.name {
                if let Ok(v) = value.parse::<f64>() {
                    run.values.insert(name.to_string(), v);
                    println!("{line}");
                }
            }
        }
    }
    // Its result line is the last one; this writer put the counts there
    // as `"attempted": n, "failed": n`.
    let last = text.lines().last().unwrap_or_default();
    let count = |key: &str| -> u64 {
        last.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    run.attempted = count("attempted");
    run.failed = count("failed");
    run.ok &= run.attempted > 0;
    Ok(run)
}

/// Stitch the per-workload files of one kind into `<kind>.json`.
fn merge_files(specs: &[&'static Spec], opts: &Options, kind: &str) -> Result<(), String> {
    let mut docs = Vec::new();
    for s in specs {
        let path = opts.out.join(format!("{}.{kind}.json", s.name));
        docs.push(std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let head = Json::Obj(meta(opts)).to_string();
    let text = format!(
        "{{\"meta\": {head}, \"workloads\": [\n{}\n]}}\n",
        docs.join(",\n")
    );
    write_file(&opts.out.join(format!("{kind}.json")), &text)
}

/// `--all` and `--check-repeat`: run the chosen workloads one process
/// each; with `--check-repeat`, twice, and hold the two sets to the
/// benchmark's own bounds.
pub fn run_children(opts: &Options) -> Result<(Json, bool), String> {
    let specs: Vec<&'static Spec> = match &opts.workload {
        Some(name) => vec![workload::find(name).expect("parse_args checked the name")],
        None => workload::WORKLOADS.iter().collect(),
    };
    let run_set =
        || -> Result<Vec<ChildRun>, String> { specs.iter().map(|s| run_child(s, opts)).collect() };
    let first = run_set()?;
    let kind = if opts.trace { "layers" } else { "e2e" };
    merge_files(&specs, opts, kind)?;
    let mut correct = first.iter().all(|r| r.ok && r.failed == 0);
    let mut attempted: u64 = first.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = first.iter().map(|r| r.failed).sum();

    let mut spreads = Vec::new();
    if opts.check_repeat && !opts.trace {
        let second = run_set()?;
        correct &= second.iter().all(|r| r.ok && r.failed == 0);
        attempted += second.iter().map(|r| r.attempted).sum::<u64>();
        failed += second.iter().map(|r| r.failed).sum::<u64>();
        for ((spec, a), b) in specs.iter().zip(&first).zip(&second) {
            for (name, &x) in &a.values {
                let Some(&y) = b.values.get(name) else {
                    return Err(format!("{} printed {name} only once", spec.name));
                };
                let spread = (x - y).abs() / ((x.abs() + y.abs()) / 2.0).max(f64::MIN_POSITIVE);
                // Only end-to-end metrics are held to a limit; the
                // elapsed-time ones are printed for the record.
                let gated = END_TO_END
                    .iter()
                    .find(|d| d.name == name && d.repeats != Repeats::MedianOnly);
                let Some(d) = gated else {
                    println!(
                        "check-repeat {} {name} {x} {y} spread {spread:.6}",
                        spec.name
                    );
                    continue;
                };
                let exact = d.repeats == Repeats::Modeled && spec.cache.is_none();
                let limit = if exact { 1e-9 } else { d.bound };
                let ok = spread <= limit;
                println!(
                    "check-repeat {} {name} {x} {y} spread {spread:.6} limit {limit} {}",
                    spec.name,
                    if ok { "ok" } else { "FAILED" }
                );
                correct &= ok;
                spreads.push((
                    format!("{}.{name}", spec.name),
                    Json::obj([("spread", Json::Num(spread)), ("ok", Json::Bool(ok))]),
                ));
            }
        }
    }
    Ok((
        result_line(
            correct,
            attempted as usize,
            failed as usize,
            Json::Obj(spreads),
        ),
        correct,
    ))
}
