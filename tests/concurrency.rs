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
//!   hold per query while 8 threads hammer the same store.

use pushdowndb::common::pricing::Usage;
use pushdowndb::core::planner::execute_sql_verbose;
use pushdowndb::core::{execute_sql, QueryOutput, Strategy};
use pushdowndb::tpch::{planner_suite, tpch_context, PlannerQuery, TpchTables};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
