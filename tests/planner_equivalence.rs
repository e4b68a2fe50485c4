//! Planner equivalence pins (ISSUE 20): what the planner front-end
//! decides, prices, runs and bills, written down for every query of
//! [`planner_suite`] × {Baseline, Pushdown, Adaptive} × {CSV,
//! ColumnarLite} × {no cache, cold cache, warm cache} × {no cluster,
//! `with_nodes(4)`} at SF 0.003 — 324 runs.
//!
//! Each run is one line of a file under
//! `tests/golden/planner_equivalence/` (one per format × cluster): the
//! [`PlanKind`](pushdowndb::core::planner::PlanKind), the candidate
//! names in order with the chosen one starred and each one's predicted
//! dollars as `f64` bits, the executed operator labels, every phase's
//! label and [`PhaseStats`], the row count with a digest of the rows,
//! and the ledger's bill. The files were written by this test at the
//! commit *before* the two planners became one front-end and have to
//! read the same afterwards: a refactor of the planning half may not
//! move a candidate, a pick, a phase or a byte on any of these shapes.
//! They were re-blessed for four declared moves: PR 21's phase rule
//! (joined lines), PR 22's fold of the filter, scalar-aggregate and
//! one-scan group-by families into IR trees (their lines: operator and
//! phase labels, one CPU pass), PR 24's fold of top-K and the staged
//! group-bys (operator and phase labels, the limited `Sort`'s heap
//! charge, one tie rule for `topk-100`; the `_4n` files once more,
//! staged plans scattering), PR 25's fold of a GROUP BY's ORDER BY
//! into the group-by (the two joined shapes: operator labels, one phase
//! group fewer, the fused phase's CPU, candidate dollars) and, for the
//! `_4n` files, the move of placement from a plan rewrite into the
//! partition fan-out (operator labels, per-node phases, Adaptive's
//! candidates priced as they run on the cluster) — see CHANGES.md. In
//! the same loop every
//! run's predicted phases are held to the executed ones, group for
//! group and label for label; a fixed strategy's pick is re-priced by
//! name for it. With no cache and a cold one, so is every other named
//! candidate of the shape, run by name (no line of its own). `Explain::predicted` and the per-operator predictions
//! are not pinned.
//!
//! `PLANNER_EQUIVALENCE_BLESS=1 cargo test --test planner_equivalence`
//! rewrites the files from the run; without it a mismatch prints the
//! first differing lines.

use pushdowndb::common::mix::fnv1a;
use pushdowndb::common::perf::PhaseStats;
use pushdowndb::common::{Row, Schema};
use pushdowndb::core::cost::{predict_plan, Estimators};
use pushdowndb::core::planner::{execute_sql_verbose, lower, run_candidate, Explain, PlanKind};
use pushdowndb::core::{
    execute_sql, upload_columnar_table, upload_csv_table, OpReport, QueryContext, QueryMetrics,
    QueryOutput, Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::sql::parse_query;
use pushdowndb::tpch::{planner_suite, TpchGen};
use std::fmt::Write;

const SF: f64 = 0.003;
const ROWS_PER_PARTITION: usize = 1_200;
/// Holds the three tables several times over: nothing is ever evicted,
/// so what a warm run finds does not depend on fill order.
const CACHE_BYTES: u64 = 256 << 20;
const GOLDEN: &str = "tests/golden/planner_equivalence";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Csv,
    Columnar,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Cache {
    None,
    Cold,
    Warm,
}

struct Dataset {
    store: S3Store,
    tables: Vec<Table>,
}

fn dataset(format: Format) -> Dataset {
    let gen = TpchGen::new(SF);
    let (cs, customers) = gen.customers();
    let (os, orders) = gen.orders();
    let (ls, lineitems) = gen.lineitems(&orders);
    let store = S3Store::new();
    store.create_bucket("tpch");
    let upload = |name: &str, schema: &Schema, rows: &[Row]| match format {
        Format::Csv => upload_csv_table(&store, "tpch", name, schema, rows, ROWS_PER_PARTITION),
        Format::Columnar => upload_columnar_table(
            &store,
            "tpch",
            name,
            schema,
            rows,
            ROWS_PER_PARTITION,
            WriterOptions::default(),
        ),
    };
    let tables = vec![
        upload("customer", &cs, &customers).unwrap(),
        upload("orders", &os, &orders).unwrap(),
        upload("lineitem", &ls, &lineitems).unwrap(),
    ];
    Dataset { store, tables }
}

/// A context of its own for one run: a fresh cache (installing one
/// replaces the store's) and a fresh cluster, so a cold run is cold.
fn context(data: &Dataset, cache: Cache, nodes: Option<usize>) -> QueryContext {
    let mut ctx = QueryContext::new(data.store.clone()).with_tables(data.tables.iter().cloned());
    ctx.scan_threads = 2;
    data.store.set_cache(None);
    if cache != Cache::None {
        ctx = ctx.with_cache(CACHE_BYTES);
    }
    match nodes {
        Some(n) => ctx.with_nodes(n),
        None => ctx,
    }
}

fn stats_text(s: &PhaseStats) -> String {
    let fields = [
        ("req", s.requests),
        ("point", s.point_requests),
        ("scanned", s.s3_scanned_bytes),
        ("returned", s.select_returned_bytes),
        ("plain", s.plain_bytes),
        ("mem", s.cache_bytes),
        ("disk", s.disk_bytes),
        ("exch", s.exchange_bytes),
        ("cpu", s.server_cpu_units),
        ("terms", u64::from(s.expr_terms)),
        ("cl", s.cl_parse_bytes),
    ];
    fields
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn operator_labels(op: &OpReport, out: &mut String) {
    out.push_str(&op.label);
    if !op.children.is_empty() {
        out.push('(');
        for (i, c) in op.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            operator_labels(c, out);
        }
        out.push(')');
    }
}

fn describe(out: &QueryOutput, ex: &Explain) -> String {
    let mut s = format!("{} | cands:", ex.kind);
    for c in &ex.candidates {
        let star = if c.chosen { "*" } else { "" };
        let _ = write!(s, " {star}{}={:016x}", c.algorithm, c.dollars.to_bits());
    }
    s.push_str(" | ops: ");
    operator_labels(ex.operators.as_ref().expect("every plan reports"), &mut s);
    s.push_str(" | phases:");
    for g in &out.metrics.groups {
        let group: Vec<String> = g
            .phases
            .iter()
            .map(|p| format!("{} [{}]", p.label, stats_text(&p.stats)))
            .collect();
        let _ = write!(s, " {{{}}}", group.join(" || "));
    }
    let rows = format!("{:?}", out.rows);
    let b = out.billed;
    let _ = write!(
        s,
        " | rows: {} #{:016x} | billed: {} req {} scanned {} returned {} plain",
        out.rows.len(),
        fnv1a(rows.bytes()),
        b.requests,
        b.select_scanned_bytes,
        b.select_returned_bytes,
        b.plain_bytes
    );
    s
}

fn phase_labels(metrics: &QueryMetrics) -> Vec<Vec<&str>> {
    metrics
        .groups
        .iter()
        .map(|g| g.phases.iter().map(|p| p.label.as_str()).collect())
        .collect()
}

/// The prediction of the plan that ran. `Explain` carries it under
/// Adaptive and on a cluster; the pick of a serial fixed strategy is
/// lowered and priced again here, by name.
fn prediction(ctx: &QueryContext, table: &Table, sql: &str, ex: &Explain) -> QueryMetrics {
    if let Some(predicted) = &ex.predicted {
        return predicted.clone();
    }
    let pushed = |pushdown| if pushdown { "s3-side" } else { "server-side" };
    let name = match ex.kind {
        PlanKind::Filter { pushdown } | PlanKind::Aggregate { pushdown } => pushed(pushdown),
        PlanKind::TopK { sampling: true } => "sampling",
        PlanKind::TopK { sampling: false } => "server-side",
        PlanKind::GroupBy { algorithm } | PlanKind::Join { algorithm } => algorithm,
    };
    let (_, candidates) = lower(ctx, table, &parse_query(sql).unwrap()).unwrap();
    let (_, plan) = candidates.iter().find(|(n, _)| *n == name).unwrap();
    predict_plan(&Estimators::new(ctx, [plan]), plan)
        .unwrap()
        .metrics
}

/// Every line of one (format, cluster) quarter of the matrix.
fn quarter(format: Format, nodes: Option<usize>) -> Vec<String> {
    let data = dataset(format);
    let mut lines = Vec::new();
    for cache in [Cache::None, Cache::Cold, Cache::Warm] {
        for q in planner_suite() {
            let table = data
                .tables
                .iter()
                .find(|t| q.sql.contains(&format!("FROM {}", t.name)))
                .expect("suite query names its table");
            for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
                let ctx = context(&data, cache, nodes);
                if cache == Cache::Warm {
                    // Fill the cache with what the query reads: the
                    // baseline plan, its plain GETs routed through the
                    // cache (on a cluster, the owning node's slice).
                    let warm = ctx.clone().with_cache_reads(true);
                    execute_sql(&warm, table, q.sql, Strategy::Baseline).unwrap();
                }
                let (out, ex) = execute_sql_verbose(&ctx, table, q.sql, strategy).unwrap();
                assert_eq!(out.metrics.usage(), out.billed, "{}: usage == bill", q.name);
                // One phase rule for the pricer and the executor: the
                // same groups under the same labels, on every run.
                assert_eq!(
                    phase_labels(&prediction(&ctx, table, q.sql, &ex)),
                    phase_labels(&out.metrics),
                    "{cache:?} {} {strategy:?}: predicted vs executed phases",
                    q.name
                );
                lines.push(format!(
                    "{cache:?} {} {strategy:?} | {}",
                    q.name,
                    describe(&out, &ex)
                ));
            }
            if cache != Cache::Warm {
                every_candidate_predicts_its_phases(&data, cache, nodes, table, q.sql);
            }
        }
    }
    lines
}

/// Every named candidate of `sql`, not only the one a strategy picks,
/// predicts the phases it runs: each is priced on the scope of a fresh
/// context (an unscoped one does not spread over the cluster), then run
/// by name on it.
fn every_candidate_predicts_its_phases(
    data: &Dataset,
    cache: Cache,
    nodes: Option<usize>,
    table: &Table,
    sql: &str,
) {
    let spec = parse_query(sql).unwrap();
    let (_, candidates) = lower(&context(data, cache, nodes), table, &spec).unwrap();
    for (name, _) in &candidates {
        let ctx = context(data, cache, nodes);
        let scoped = ctx.scoped();
        let (_, lowered) = lower(&scoped, table, &spec).unwrap();
        let (_, plan) = lowered.iter().find(|(n, _)| n == name).unwrap();
        let predicted = predict_plan(&Estimators::new(&scoped, [plan]), plan).unwrap();
        let out = run_candidate(&ctx, table, sql, name, None).unwrap();
        assert_eq!(
            phase_labels(&predicted.metrics),
            phase_labels(&out.metrics),
            "{cache:?} `{sql}` {name}: predicted vs executed phases"
        );
    }
}

fn check(file: &str, format: Format, nodes: Option<usize>) {
    let lines = quarter(format, nodes);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(GOLDEN)
        .join(file);
    if std::env::var_os("PLANNER_EQUIVALENCE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(want.len(), lines.len(), "{file}: run count");
    let diffs: Vec<String> = want
        .iter()
        .zip(&lines)
        .filter(|(w, g)| **w != g.as_str())
        .take(5)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{file}: the planner moved on a pinned shape\n{}",
        diffs.join("\n")
    );
}

#[test]
fn csv_serial() {
    check("csv_serial.txt", Format::Csv, None);
}

#[test]
fn csv_four_nodes() {
    check("csv_4n.txt", Format::Csv, Some(4));
}

#[test]
fn columnar_serial() {
    check("columnar_serial.txt", Format::Columnar, None);
}

#[test]
fn columnar_four_nodes() {
    check("columnar_4n.txt", Format::Columnar, Some(4));
}

/// On a warm ColumnarLite cache the pricer predicts what a cached
/// candidate reads: for every suite shape, each `cached*` candidate's
/// predicted bytes served (mem + disk + remote) and ColumnarLite parse
/// bytes equal the executed ones — the footers and the chunks of the
/// columns its leaves decode — serially and on four nodes.
#[test]
fn warm_columnar_cached_candidates_predict_the_bytes_they_read() {
    let data = dataset(Format::Columnar);
    let read = |m: &QueryMetrics| {
        let phases = m.groups.iter().flat_map(|g| &g.phases);
        phases.fold((0, 0), |(served, cl), p| {
            let s = &p.stats;
            (
                served + s.cache_bytes + s.disk_bytes + s.plain_bytes,
                cl + s.cl_parse_bytes,
            )
        })
    };
    let mut checked = 0;
    for nodes in [None, Some(4)] {
        for q in planner_suite() {
            let table = data
                .tables
                .iter()
                .find(|t| q.sql.contains(&format!("FROM {}", t.name)))
                .expect("suite query names its table");
            let ctx = context(&data, Cache::Warm, nodes);
            let warm = ctx.clone().with_cache_reads(true);
            execute_sql(&warm, table, q.sql, Strategy::Baseline).unwrap();
            let spec = parse_query(q.sql).unwrap();
            let scoped = ctx.scoped();
            let (_, candidates) = lower(&scoped, table, &spec).unwrap();
            for (name, plan) in candidates.iter().filter(|(n, _)| n.starts_with("cached")) {
                let predicted = predict_plan(&Estimators::new(&scoped, [plan]), plan).unwrap();
                let out = run_candidate(&ctx, table, q.sql, name, None).unwrap();
                let (served, cl) = read(&out.metrics);
                assert!(served > 0, "{} {name} reads the cache", q.name);
                assert_eq!(
                    read(&predicted.metrics),
                    (served, cl),
                    "{} {name} on {nodes:?} nodes: predicted vs read",
                    q.name
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 18, "{checked} cached candidates");
}

/// One answer per statement: every line of a shape — whichever strategy
/// picked whichever candidate, on either format, with or without a
/// cache or a cluster — reads one `rows` digest, within each golden file
/// and across the four.
#[test]
fn every_shape_reads_one_answer_in_every_golden_file() {
    let mut answers: Vec<(String, String, String)> = Vec::new();
    for file in [
        "csv_serial.txt",
        "csv_4n.txt",
        "columnar_serial.txt",
        "columnar_4n.txt",
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(GOLDEN)
            .join(file);
        let golden = std::fs::read_to_string(&path).expect("golden file present");
        for line in golden.lines() {
            let key = line.split(" | ").next().unwrap_or_default();
            let shape = key.split(' ').nth(1).expect("a line names its shape");
            let rows = line
                .split(" | ")
                .find(|f| f.starts_with("rows: "))
                .expect("a line reads its rows");
            let at = format!("{file}: {key}");
            match answers.iter().find(|(s, ..)| s == shape) {
                Some((_, want, first)) => {
                    assert_eq!(rows, want, "{at} disagrees with {first}")
                }
                None => answers.push((shape.to_string(), rows.to_string(), at)),
            }
        }
    }
    assert!(answers.len() >= 9, "{} shapes", answers.len());
}
