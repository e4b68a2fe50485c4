//! Concurrency stress suite (ISSUE 3): many queries on **one shared
//! engine** must behave exactly as they do alone.
//!
//! * every result set at 8-way concurrency (2-, 4- and 8-way under the
//!   adaptive planner) is identical to its serial execution (streaming
//!   scans are partition-ordered, so results are deterministic —
//!   contention must not change them);
//! * the store-global ledger delta equals the **sum of the per-query
//!   child ledgers** (conservation: scoped accounting loses nothing and
//!   double-counts nothing, with no resets anywhere) — and on a 2-node
//!   cluster context so do the per-node ledger deltas;
//! * the adaptive planner's calibration bounds (tests/adaptive.rs) still
//!   hold per query while 8 threads hammer the same store;
//! * scans progress when more of their jobs are queued than the
//!   process's partition worker pool has threads: 8 clients of
//!   pipelined joins and grouped leaves at 1, 2 and 8 scan threads
//!   finish, under a watchdog, with their serial rows.

use pushdowndb::common::pricing::Usage;
use pushdowndb::core::planner::execute_sql_verbose;
use pushdowndb::core::{execute_sql, QueryOutput, Strategy};
use pushdowndb::tpch::{planner_suite, tpch_context, PlannerQuery, TpchTables};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const THREADS: usize = 8;

fn run_suite_concurrently(
    ctx: &pushdowndb::core::QueryContext,
    tables: &TpchTables,
    suite: &[PlannerQuery],
    threads: usize,
    strategy: Strategy,
) -> Vec<QueryOutput> {
    // `threads × suite` queries: every thread runs the whole suite, all
    // interleaved on the shared context. Slot (t, q) keeps each output.
    let jobs: Vec<(usize, usize)> = (0..threads)
        .flat_map(|t| (0..suite.len()).map(move |q| (t, q)))
        .collect();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<QueryOutput>>> = Mutex::new(vec![None; jobs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, qi)) = jobs.get(i) else { break };
                let q = &suite[qi];
                let table = (q.table)(tables);
                let out = execute_sql(ctx, table, q.sql, strategy).unwrap();
                slots.lock().unwrap()[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("slot filled"))
        .collect()
}

/// (a) + (b): serial/concurrent result equivalence and exact global
/// ledger = Σ child ledgers, at 8 concurrent queries for both fixed
/// strategies and at 2, 4 and 8 for the adaptive planner — and, on a
/// 2-node cluster context, per-node ledger deltas = Σ child ledgers.
#[test]
fn concurrent_queries_match_serial_and_conserve_the_ledger() {
    let (ctx, tables) = tpch_context(0.003, 1_200).unwrap();
    let cluster = ctx.clone().with_nodes(2);
    let suite = planner_suite();
    let runs = [
        (&ctx, Strategy::Baseline, THREADS),
        (&ctx, Strategy::Pushdown, THREADS),
        (&ctx, Strategy::Adaptive, 2),
        (&ctx, Strategy::Adaptive, 4),
        (&ctx, Strategy::Adaptive, THREADS),
        (&cluster, Strategy::Pushdown, 2),
    ];
    for (ctx, strategy, threads) in runs {
        // Serial references, one per suite query.
        let serial: Vec<QueryOutput> = suite
            .iter()
            .map(|q| execute_sql(ctx, (q.table)(&tables), q.sql, strategy).unwrap())
            .collect();

        let before = ctx.store.global_ledger().snapshot();
        let nodes_before = ctx.cluster.as_ref().map(|c| c.snapshots());
        let outputs = run_suite_concurrently(ctx, &tables, &suite, threads, strategy);
        let after = ctx.store.global_ledger().snapshot();

        let mut sum = Usage::default();
        for (i, out) in outputs.iter().enumerate() {
            let reference = &serial[i % suite.len()];
            assert_eq!(
                out.rows,
                reference.rows,
                "{:?} ×{threads} {}: concurrent result differs from serial",
                strategy,
                suite[i % suite.len()].name
            );
            assert_eq!(
                out.billed,
                reference.billed,
                "{:?} ×{threads} {}: per-query bill differs under contention",
                strategy,
                suite[i % suite.len()].name
            );
            // Each query's metrics agree with its own child ledger — the
            // invariant `delta_since` could never give under concurrency.
            assert_eq!(
                out.metrics.usage(),
                out.billed,
                "{:?} ×{threads} {}: metrics vs child ledger",
                strategy,
                suite[i % suite.len()].name
            );
            sum += out.billed;
        }
        assert_eq!(
            after,
            before + sum,
            "{strategy:?} ×{threads}: global ledger delta must equal the sum of child ledgers"
        );
        // Under a cluster every request also bills to one node: the
        // node ledgers' deltas decompose the same sum.
        if let (Some(cluster), Some(nodes_before)) = (&ctx.cluster, nodes_before) {
            let (mut nodes_after, mut nodes_then) = (Usage::default(), Usage::default());
            for (a, b) in cluster.snapshots().iter().zip(&nodes_before) {
                assert!(
                    a.usage.requests > b.usage.requests,
                    "{strategy:?} ×{threads}: node {} idle",
                    a.node
                );
                nodes_after += a.usage;
                nodes_then += b.usage;
            }
            assert_eq!(
                nodes_after,
                nodes_then + sum,
                "{strategy:?} ×{threads}: Σ node deltas must equal the sum of child ledgers"
            );
        }
    }
}

/// (c): the adaptive estimator's calibration bound — predicted usage
/// within 15% of the child ledger (512 B floor) — holds for every query
/// while 8 threads run the suite concurrently.
#[test]
fn adaptive_calibration_bounds_hold_under_contention() {
    let (ctx, tables) = tpch_context(0.003, 1_200).unwrap();
    let suite = planner_suite();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let jobs: Vec<usize> = (0..THREADS).flat_map(|_| 0..suite.len()).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&qi) = jobs.get(i) else { break };
                let q = &suite[qi];
                let (out, explain) =
                    execute_sql_verbose(&ctx, (q.table)(&tables), q.sql, Strategy::Adaptive)
                        .unwrap();
                let predicted = explain
                    .predicted
                    .as_ref()
                    .expect("adaptive plans carry a prediction")
                    .usage();
                let measured = out.billed;
                let check = |pred: u64, meas: u64, what: &str| {
                    let slack = (0.15 * meas as f64).max(512.0);
                    if (pred as f64 - meas as f64).abs() > slack {
                        failures.lock().unwrap().push(format!(
                            "{} [{what}]: predicted {pred} vs billed {meas} (slack {slack:.0})",
                            q.name
                        ));
                    }
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
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(
        failures.is_empty(),
        "calibration violated under contention:\n{}",
        failures.join("\n")
    );
}

/// (d): every scan shares one pool of partition workers, which grows to
/// the most jobs one scan asks for. 8 clients running Baseline's
/// pipelined joins (a probe thread per join, consuming its own scan
/// while the build side's runs) and grouped leaves (partials folded in
/// the workers) queue more jobs than the pool has threads, at every
/// `scan_threads`; each query must still finish — a watchdog fails the
/// test on a hang — with its serial rows and bill, and the global
/// ledger's delta must equal the sum of the queries' ledgers. A consumer
/// moved onto the pool (the probe side of a pipelined join, say) would
/// start its scan from a pool thread, which the pool refuses.
#[test]
fn scans_progress_when_their_jobs_outnumber_the_pool() {
    let (ctx, tables) = tpch_context(0.003, 1_200).unwrap();
    let suite: Vec<PlannerQuery> = planner_suite()
        .into_iter()
        .filter(|q| {
            ["join-", "groupby-", "aggregate"]
                .iter()
                .any(|p| q.name.starts_with(p))
        })
        .collect();
    for scan_threads in [1, 2, 8] {
        let mut ctx = ctx.clone();
        ctx.scan_threads = scan_threads;
        let strategy = Strategy::Baseline;
        let serial: Vec<QueryOutput> = suite
            .iter()
            .map(|q| execute_sql(&ctx, (q.table)(&tables), q.sql, strategy).unwrap())
            .collect();
        let before = ctx.store.global_ledger().snapshot();
        let (done, finished) = std::sync::mpsc::channel();
        let (run_ctx, run_tables, run_suite) = (ctx.clone(), tables.clone(), suite.clone());
        std::thread::spawn(move || {
            let outputs =
                run_suite_concurrently(&run_ctx, &run_tables, &run_suite, THREADS, strategy);
            let _ = done.send(outputs);
        });
        let outputs = finished
            .recv_timeout(Duration::from_secs(600))
            .unwrap_or_else(|_| panic!("scan_threads {scan_threads}: the clients hung"));
        let mut sum = Usage::default();
        for (i, out) in outputs.iter().enumerate() {
            let (reference, name) = (&serial[i % suite.len()], suite[i % suite.len()].name);
            assert_eq!(
                out.rows, reference.rows,
                "scan_threads {scan_threads} {name}: rows"
            );
            assert_eq!(
                out.billed, reference.billed,
                "scan_threads {scan_threads} {name}: bill"
            );
            sum += out.billed;
        }
        let after = ctx.store.global_ledger().snapshot();
        assert_eq!(
            after,
            before + sum,
            "scan_threads {scan_threads}: global = Σ child"
        );
    }
}
