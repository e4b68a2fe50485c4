//! Scatter-gather cluster suite (ISSUE 7): the N-node engine is the
//! single-node engine, decomposed.
//!
//! * **Differential**: every planner-suite query — all nine shapes —
//!   returns rows bit-identical to the serial run at 1, 2, 4 and 8
//!   nodes, under both fixed strategies, and bills exactly the serial
//!   ledger — scattering moves work between nodes, it never creates or
//!   destroys billable bytes (exchange volume is interconnect, not S3).
//! * **No shape runs wholly on node 0** (ISSUES 22, 24): every
//!   candidate is a tree over scan leaves, the staged top-K and
//!   group-bys included, so every shape scatters — same rows, same bill,
//!   a `Gather` in its operator tree, more than one node busy — but the
//!   pushed scalar aggregate, whose leaf is one merged row per query and
//!   stays whole.
//! * **Conservation**: over a mixed batch the store-global ledger delta
//!   equals Σ per-query bills equals Σ per-node ledger deltas — three
//!   decompositions of one total.
//! * **Calibration**: the scattered plan's predicted `Usage` lands
//!   within 15% of the measured ledger (same bound as the single-node
//!   estimator), and Adaptive prices a "scattered" candidate on
//!   reserved-cluster dollars.
//! * **Chaos**: under seeded node-failure fault plans, successes are
//!   row-identical with every byte billed exactly once (retries are
//!   extra requests only), with pinned always-retrying seeds.
//! * **Writers** (pinned regression): a `put_object` / `delete_object`
//!   through any handle invalidates every node's cache slice, so a
//!   scattered cached re-run never serves a rewritten table's old rows.

use pushdowndb::common::pricing::Usage;
use pushdowndb::common::{DataType, RetryPolicy, Row, Schema, Value};
use pushdowndb::core::planner::execute_sql_verbose;
use pushdowndb::core::{
    execute_sql, upload_columnar_table, upload_csv_table, QueryContext, Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::{FaultPlan, S3Store};
use pushdowndb::tpch::{planner_suite, tpch_context, PlannerQuery, TpchTables};

fn join_suite() -> Vec<PlannerQuery> {
    planner_suite()
        .iter()
        .filter(|q| q.name.starts_with("join-"))
        .copied()
        .collect()
}

/// Serial and scattered execution agree bit-for-bit on rows *and* on the
/// bill, at every node count, under both fixed strategies. n = 1 pins
/// that a single-node cluster is the plain engine routed through node 0.
#[test]
fn scattered_rows_and_bills_match_serial_at_every_node_count() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    for strategy in [Strategy::Pushdown, Strategy::Baseline] {
        for q in planner_suite() {
            let table = (q.table)(&t);
            let serial = execute_sql(&ctx, table, q.sql, strategy).unwrap();
            for n in [1usize, 2, 4, 8] {
                let cctx = ctx.clone().with_nodes(n);
                let out = execute_sql(&cctx, table, q.sql, strategy).unwrap();
                assert_eq!(
                    out.rows, serial.rows,
                    "{} @ {n} nodes ({strategy:?}): rows must be bit-identical",
                    q.name
                );
                assert_eq!(
                    out.billed, serial.billed,
                    "{} @ {n} nodes ({strategy:?}): scattering must not change the bill",
                    q.name
                );
                assert_eq!(
                    out.metrics.usage(),
                    out.billed,
                    "{} @ {n} nodes ({strategy:?}): metrics == ledger",
                    q.name
                );
            }
        }
    }
}

/// Every suite shape at 4 nodes, under both fixed strategies: rows
/// bit-identical to serial, Σ node ledgers == global delta == `billed`,
/// and the plan spreads over the nodes — a `Gather` in the operator
/// tree, more than one node busy — the staged top-K (`sampling`) and
/// group-by (`hybrid`) picks included. Only the pushed scalar aggregate
/// runs whole on the coordinator.
#[test]
fn folded_single_table_families_scatter_like_joins() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    for q in planner_suite() {
        let name = q.name;
        let table = (q.table)(&t);
        for strategy in [Strategy::Baseline, Strategy::Pushdown] {
            let what = format!("{name} under {strategy:?}");
            let serial = execute_sql(&ctx, table, q.sql, strategy).unwrap();
            // A cluster of its own: the node ledgers start at zero.
            let cctx = ctx.clone().with_nodes(4);
            let cluster = cctx.cluster.clone().unwrap();
            let global_before = ctx.store.global_ledger().snapshot();
            let (out, ex) = execute_sql_verbose(&cctx, table, q.sql, strategy).unwrap();
            assert_eq!(out.rows, serial.rows, "{what}: rows");
            assert_eq!(out.billed, serial.billed, "{what}: bill");
            assert_eq!(out.metrics.usage(), out.billed, "{what}: metrics == ledger");
            assert_eq!(cluster.total_usage(), out.billed, "{what}: Σ node ledgers");
            assert_eq!(
                ctx.store.global_ledger().snapshot(),
                global_before + out.billed,
                "{what}: global delta"
            );
            let busy = cluster
                .snapshots()
                .iter()
                .filter(|ns| ns.usage.requests > 0)
                .count();
            let report = ex.operators.as_ref().unwrap().render(&cctx.model);
            if strategy == Strategy::Baseline || name != "aggregate" {
                assert!(report.contains("Gather["), "{what}:\n{report}");
                assert!(busy > 1, "{what}: {busy} busy node(s)");
                // Scattered plans carry the prediction of what ran.
                assert!(ex.predicted.is_some(), "{what}");
            } else {
                assert!(!report.contains("Gather["), "{what}:\n{report}");
                assert_eq!(busy, 1, "{what}: a leaf runs on the coordinator");
            }
            if name == "aggregate" {
                assert_eq!(out.rows.len(), 1, "{what}: one row per query");
            }
            if name.starts_with("join-") && strategy == Strategy::Pushdown {
                // A Bloom join: the build side and the probe it writes
                // its filter into both fan out.
                assert!(report.contains("BloomJoin["), "{what}:\n{report}");
                assert_eq!(report.matches("Gather[").count(), 2, "{what}:\n{report}");
            }
        }
    }
}

/// Adaptive with a cluster still matches the serial adaptive rows (it
/// may pick a different-but-equivalent plan, scattered or not).
#[test]
fn adaptive_rows_match_serial_under_a_cluster() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    for q in planner_suite() {
        let table = (q.table)(&t);
        let serial = execute_sql(&ctx, table, q.sql, Strategy::Adaptive).unwrap();
        for n in [2usize, 4] {
            let cctx = ctx.clone().with_nodes(n);
            let out = execute_sql(&cctx, table, q.sql, Strategy::Adaptive).unwrap();
            assert_eq!(out.rows, serial.rows, "{} @ {n} nodes", q.name);
            assert_eq!(out.metrics.usage(), out.billed, "{} @ {n} nodes", q.name);
        }
    }
}

/// Cluster-wide conservation: after a mixed batch (joined queries
/// scattered across nodes, single-table queries on the coordinator),
/// the store-global ledger delta, the sum of per-query bills, and the
/// sum of per-node ledger deltas are the same `Usage`, exactly.
#[test]
fn global_ledger_equals_sum_of_node_ledgers_equals_sum_of_query_ledgers() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let cctx = ctx.clone().with_nodes(4);
    let cluster = cctx.cluster.clone().unwrap();

    let global_before = ctx.store.global_ledger().snapshot();
    let nodes_before = cluster.total_usage();
    let mut sum = Usage::default();
    for rep in 0..2u64 {
        for (qi, q) in planner_suite().iter().enumerate() {
            let qctx = cctx.scoped_with_salt(rep * 100 + qi as u64);
            let out = execute_sql(&qctx, (q.table)(&t), q.sql, Strategy::Pushdown).unwrap();
            assert_eq!(
                out.billed,
                qctx.billed(),
                "{}: query bill is the base-scope ledger",
                q.name
            );
            sum += out.billed;
        }
    }
    let global_after = ctx.store.global_ledger().snapshot();
    assert_eq!(
        global_after,
        global_before + sum,
        "store-global delta == Σ per-query bills"
    );
    assert_eq!(
        cluster.total_usage(),
        nodes_before + sum,
        "Σ node-ledger deltas == Σ per-query bills"
    );
    // The scattered joined queries actually moved bytes: at least two
    // nodes billed something, and the interconnect carried rows.
    let busy = cluster
        .snapshots()
        .iter()
        .filter(|ns| ns.usage.requests > 0)
        .count();
    assert!(busy >= 2, "expected >= 2 busy nodes, got {busy}");
    assert!(cluster.total_exchange_bytes() > 0, "no exchange traffic");
}

/// EXPLAIN renders the scattered plan: Gather over per-node Exchange
/// children annotated with scanned/exchanged bytes, plus one ledger
/// line per node.
#[test]
fn explain_renders_exchange_operators_and_per_node_ledgers() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let cctx = ctx.with_nodes(4);
    let q = join_suite()[0];
    let (out, explain) =
        execute_sql_verbose(&cctx, (q.table)(&t), q.sql, Strategy::Pushdown).unwrap();
    let report = explain.report(&out, &cctx);
    for needle in [
        "Gather[",
        "Exchange[node",
        "B exchanged",
        "node 0: billed",
        "node 3: billed",
    ] {
        assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
    }
}

/// The scattered prediction is calibrated like the single-node one:
/// predicted `Usage` of the executed scattered plan within 15% of the
/// measured ledger, field by field (512-byte absolute floor for
/// near-zero aggregate payloads).
#[test]
fn scattered_predictions_are_calibrated_against_the_ledger() {
    let (ctx, t) = tpch_context(0.005, 1_500).unwrap();
    let cctx = ctx.with_nodes(4);
    for q in join_suite() {
        let (out, explain) =
            execute_sql_verbose(&cctx, (q.table)(&t), q.sql, Strategy::Pushdown).unwrap();
        let measured = out.billed;
        let predicted = explain
            .predicted
            .as_ref()
            .expect("scattered plans carry a prediction")
            .usage();
        let check = |pred: u64, meas: u64, what: &str| {
            let slack = (0.15 * meas as f64).max(512.0);
            assert!(
                (pred as f64 - meas as f64).abs() <= slack,
                "{} [{}]: predicted {pred} vs measured {meas} (slack {slack:.0})",
                q.name,
                what
            );
        };
        check(predicted.requests, measured.requests, "requests");
        check(
            predicted.select_scanned_bytes,
            measured.select_scanned_bytes,
            "scanned",
        );
        check(
            predicted.select_returned_bytes,
            measured.select_returned_bytes,
            "returned",
        );
        check(predicted.plain_bytes, measured.plain_bytes, "plain");
    }
}

/// Adaptive prices a "scattered" candidate next to the serial families,
/// on reserved-cluster dollars (compute on every node for the query's
/// wall time) — visible in the candidate table whether or not it wins.
#[test]
fn adaptive_lists_a_scattered_candidate_priced_on_cluster_dollars() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let cctx = ctx.with_nodes(4);
    let q = join_suite()[0];
    let (out, explain) =
        execute_sql_verbose(&cctx, (q.table)(&t), q.sql, Strategy::Adaptive).unwrap();
    let scattered = explain
        .candidates
        .iter()
        .find(|c| c.algorithm == "scattered")
        .expect("cluster adaptive runs list the scattered candidate");
    assert!(scattered.dollars > 0.0);
    assert_eq!(
        explain.candidates.iter().filter(|c| c.chosen).count(),
        1,
        "exactly one candidate is chosen"
    );
    assert_eq!(out.metrics.usage(), out.billed);
}

/// Per-node cache slices: a cache installed *before* `with_nodes` is
/// split across the nodes; a warm scattered re-run serves every
/// partition from its owning node's slice and bills zero plain bytes,
/// with rows still bit-identical.
#[test]
fn per_node_cache_slices_serve_warm_scattered_runs_for_free() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let serial = execute_sql(&ctx, &t.customer, join_suite()[0].sql, Strategy::Baseline).unwrap();
    let cctx = ctx
        .with_cache(64 << 20)
        .with_cache_reads(true)
        .with_nodes(4);
    let cluster = cctx.cluster.clone().unwrap();
    let q = join_suite()[0];
    let cold = execute_sql(&cctx, (q.table)(&t), q.sql, Strategy::Baseline).unwrap();
    assert_eq!(cold.rows, serial.rows, "cold scattered run");
    assert!(cold.billed.plain_bytes > 0, "cold run fills remotely");
    let warm = execute_sql(&cctx, (q.table)(&t), q.sql, Strategy::Baseline).unwrap();
    assert_eq!(warm.rows, serial.rows, "warm scattered run");
    assert_eq!(
        warm.billed.plain_bytes, 0,
        "warm run serves every partition from node slices"
    );
    // The fills landed on more than one node's slice.
    let warmed = cluster
        .snapshots()
        .iter()
        .filter(|ns| ns.cache_used_bytes.unwrap_or(0) > 0)
        .count();
    assert!(warmed >= 2, "expected >= 2 warmed slices, got {warmed}");
}

/// Pinned regression: `put_object` / `delete_object` used to invalidate
/// the store-wide cache and the writing handle's own override only, so a
/// cluster's node slices kept serving a rewritten table's old bytes (the
/// in-place rewrite below returned 1560, the old sum, for 2340). Every
/// cache that reads the store is invalidated now: after an in-place
/// rewrite, and after a delete + re-upload with another row count, a
/// warm scattered cached run returns a cache-less context's rows, keeps
/// `usage == billed`, and bills the rewritten partitions as fills again.
#[test]
fn writers_invalidate_every_node_slice() {
    let schema = Schema::from_pairs(&[("fk", DataType::Int), ("v", DataType::Int)]);
    let fact_rows = |n: i64, scale: i64| -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i % 8), Value::Int(scale * i)]))
            .collect()
    };
    let dim_schema = Schema::from_pairs(&[("k", DataType::Int)]);
    let dim_rows: Vec<Row> = (0..8).map(|k| Row::new(vec![Value::Int(k)])).collect();
    let sql = "SELECT SUM(v) FROM fact JOIN dim ON fk = k";
    for columnar in [false, true] {
        let upload = |store: &S3Store, name: &str, schema: &Schema, rows: &[Row]| -> Table {
            if columnar {
                let options = WriterOptions::default();
                upload_columnar_table(store, "b", name, schema, rows, 10, options).unwrap()
            } else {
                upload_csv_table(store, "b", name, schema, rows, 10).unwrap()
            }
        };
        for n in [2usize, 4] {
            let store = S3Store::new();
            let fact = upload(&store, "fact", &schema, &fact_rows(40, 2));
            let dim = upload(&store, "dim", &dim_schema, &dim_rows);
            let plain = QueryContext::new(store.clone()).with_tables([dim.clone()]);
            let cctx = plain
                .clone()
                .with_cache(1 << 20)
                .with_nodes(n)
                .with_cache_reads(true);
            let run = |ctx: &QueryContext, fact: &Table| {
                let out = execute_sql(ctx, fact, sql, Strategy::Baseline).unwrap();
                assert_eq!(
                    out.metrics.usage(),
                    out.billed,
                    "{n} nodes: usage == billed"
                );
                out
            };
            let context = format!("{n} nodes, columnar {columnar}");
            run(&cctx, &fact);
            assert_eq!(run(&cctx, &fact).billed.plain_bytes, 0, "{context}: warm");

            // Rewrite `fact` in place through a handle that holds no
            // override: same keys, same sizes class, new values.
            let fact = upload(&store, "fact", &schema, &fact_rows(40, 3));
            let rerun = run(&cctx, &fact);
            assert_eq!(rerun.rows, run(&plain, &fact).rows, "{context}: rewrite");
            assert_eq!(rerun.rows[0][0], Value::Int(3 * 780), "{context}: rewrite");
            assert_eq!(
                rerun.billed.plain_bytes,
                fact.total_bytes(&store),
                "{context}: only the rewritten partitions fill again"
            );

            // Delete + re-upload with another row (and partition) count.
            for key in fact.partitions(&store) {
                assert!(store.delete_object("b", &key));
            }
            let fact = upload(&store, "fact", &schema, &fact_rows(30, 5));
            let rerun = run(&cctx, &fact);
            assert_eq!(rerun.rows, run(&plain, &fact).rows, "{context}: re-upload");
            assert_eq!(
                rerun.rows[0][0],
                Value::Int(5 * 435),
                "{context}: re-upload"
            );
            assert_eq!(
                rerun.billed.plain_bytes,
                fact.total_bytes(&store),
                "{context}"
            );
            assert_eq!(
                run(&cctx, &fact).billed.plain_bytes,
                0,
                "{context}: warm again"
            );
        }
    }
}

/// Chaos outcome of one scattered run against its fault-free reference.
fn chaos_run(
    cctx: &QueryContext,
    t: &TpchTables,
    q: &PlannerQuery,
    salt: u64,
) -> Result<pushdowndb::core::QueryOutput, pushdowndb::common::Error> {
    execute_sql(
        &cctx.scoped_with_salt(salt),
        (q.table)(t),
        q.sql,
        Strategy::Pushdown,
    )
}

/// Node-failure chaos on scattered plans: under a seeded fault plan each
/// node draws its own fault stream (`Cluster::node_salt`), and a
/// successful query is row-identical to the fault-free scattered run
/// with every byte billed exactly once — retries only ever add
/// requests. Failures surface as retryable faults carrying their seed.
/// The pinned seeds are regression anchors that demonstrably retry.
#[test]
fn node_failure_chaos_never_double_bills_scattered_queries() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let cctx = ctx
        .clone()
        .with_nodes(4)
        .with_retry(RetryPolicy::with_attempts(8));
    let q = join_suite()[0];
    ctx.store.set_fault_plan(None);
    let clean = chaos_run(&cctx, &t, &q, 7).unwrap();

    let mut retried = 0u32;
    for seed in 0..6u64 {
        ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.3)));
        match chaos_run(&cctx, &t, &q, 7) {
            Ok(out) => {
                assert_eq!(out.rows, clean.rows, "seed {seed}: rows");
                assert_eq!(
                    out.metrics.usage(),
                    out.billed,
                    "seed {seed}: metrics == ledger across retries"
                );
                assert_eq!(
                    out.billed.select_scanned_bytes, clean.billed.select_scanned_bytes,
                    "seed {seed}: scans bill once"
                );
                assert_eq!(
                    out.billed.select_returned_bytes, clean.billed.select_returned_bytes,
                    "seed {seed}: returns bill once"
                );
                assert_eq!(
                    out.billed.plain_bytes, clean.billed.plain_bytes,
                    "seed {seed}: plain bytes bill once"
                );
                assert!(
                    out.billed.requests >= clean.billed.requests,
                    "seed {seed}: retries are extra requests"
                );
                if out.billed.requests > clean.billed.requests {
                    retried += 1;
                }
            }
            Err(e) => {
                assert!(e.is_retryable(), "seed {seed}: {e}");
                assert!(e.to_string().contains("seed="), "seed {seed}: {e}");
            }
        }
    }
    assert!(
        retried > 0,
        "no seed in 0..6 caused a retried scattered run"
    );

    // Pinned regression seeds: each retries at least once and still
    // returns the exact fault-free rows. Replay: FaultPlan::new(seed,
    // 0.45), salt 7, 4 nodes, Pushdown.
    for seed in [1u64, 3] {
        ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.45)));
        let out = chaos_run(&cctx, &t, &q, 7).unwrap_or_else(|e| panic!("pinned seed {seed}: {e}"));
        assert_eq!(out.rows, clean.rows, "pinned seed {seed}");
        assert!(
            out.billed.requests > clean.billed.requests,
            "pinned seed {seed}: expected a retried attempt ({} vs {})",
            out.billed.requests,
            clean.billed.requests
        );
        assert_eq!(
            out.billed.select_scanned_bytes, clean.billed.select_scanned_bytes,
            "pinned seed {seed}: no scan double-billing"
        );
    }
    ctx.store.set_fault_plan(None);

    // Determinism: same (seed, salt) ⇒ same outcome on a rerun.
    ctx.store.set_fault_plan(Some(FaultPlan::new(2, 0.3)));
    let a = chaos_run(&cctx, &t, &q, 9).map(|o| (o.rows, o.billed));
    let b = chaos_run(&cctx, &t, &q, 9).map(|o| (o.rows, o.billed));
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(x, y, "seed 2 salt 9 reruns diverged"),
        (Err(x), Err(y)) => assert_eq!(x.code(), y.code()),
        (x, y) => panic!("seed 2 salt 9: outcome flipped: {x:?} vs {y:?}"),
    }
    ctx.store.set_fault_plan(None);
}
