//! Differential tests for multi-table SQL (ISSUE 4): join plans built
//! from SQL through the physical-plan IR must return row-identical
//! results to the programmatic `algos::join` variants, pushdown join
//! plans must never bill more transferred bytes than Baseline (mirrors
//! `tests/differential.rs`), and the TPC-H Q3-shaped statement must run
//! end-to-end under every strategy with a per-operator
//! predicted-vs-actual tree and a competitive adaptive pick.

use pushdowndb::core::algos::join;
use pushdowndb::core::planner::{execute_sql_verbose, PlanKind};
use pushdowndb::core::{execute_sql, QueryOutput, Strategy};
use pushdowndb::sql::parse_expr;
use pushdowndb::tpch::{planner_suite, tpch_context};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

fn sorted_rows(mut out: QueryOutput) -> Vec<pushdowndb::common::Row> {
    out.rows.sort_by(|x, y| {
        for (a, b) in x.values().iter().zip(y.values()) {
            let o = a.total_cmp(b);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    out.rows
}

/// The SQL join path returns exactly what the programmatic
/// `algos::join` variants return — for the paper's Listing-2 SUM shape
/// and for plain row output.
#[test]
fn sql_join_plans_match_the_programmatic_join_path() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let q = join::JoinQuery {
        left: t.customer.clone(),
        right: t.orders.clone(),
        left_key: "c_custkey".into(),
        right_key: "o_custkey".into(),
        left_pred: Some(parse_expr("c_acctbal < 0").unwrap()),
        right_pred: None,
        left_proj: vec!["c_custkey".into()],
        right_proj: vec!["o_totalprice".into()],
        sum_column: Some("o_totalprice".into()),
    };
    let programmatic = join::baseline(&ctx, &q).unwrap();

    let sql = "SELECT SUM(o_totalprice) FROM customer \
               JOIN orders ON c_custkey = o_custkey WHERE c_acctbal < 0";
    for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
        let out = execute_sql(&ctx, &t.customer, sql, strategy).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(
            close(
                out.rows[0][0].as_f64().unwrap(),
                programmatic.rows[0][0].as_f64().unwrap()
            ),
            "{strategy:?}: SQL {:?} vs programmatic {:?}",
            out.rows[0][0],
            programmatic.rows[0][0]
        );
    }

    // Row output: same join, projected columns, compared as sets.
    let mut rq = q.clone();
    rq.sum_column = None;
    let want = sorted_rows(join::filtered(&ctx, &rq).unwrap());
    let sql = "SELECT c_custkey, o_totalprice FROM customer \
               JOIN orders ON c_custkey = o_custkey WHERE c_acctbal < 0";
    for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
        let got = sorted_rows(execute_sql(&ctx, &t.customer, sql, strategy).unwrap());
        assert_eq!(got, want, "{strategy:?}");
    }
}

/// Pushdown join plans never bill more transferred bytes than Baseline,
/// and Adaptive returns the same rows as both — over every joined query
/// of the planner suite.
#[test]
fn joined_suite_pushdown_never_transfers_more_than_baseline() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let mut joined = 0;
    for q in planner_suite() {
        if !q.name.starts_with("join-") {
            continue;
        }
        joined += 1;
        let table = (q.table)(&t);
        let base = execute_sql(&ctx, table, q.sql, Strategy::Baseline).unwrap();
        let push = execute_sql(&ctx, table, q.sql, Strategy::Pushdown).unwrap();
        let adapt = execute_sql(&ctx, table, q.sql, Strategy::Adaptive).unwrap();
        assert_eq!(base.rows, push.rows, "{}", q.name);
        assert_eq!(base.rows, adapt.rows, "{}", q.name);
        assert!(
            push.metrics.bytes_returned() <= base.metrics.bytes_returned(),
            "{}: pushdown transferred {} vs baseline {}",
            q.name,
            push.metrics.bytes_returned(),
            base.metrics.bytes_returned()
        );
        // Scoped accounting holds through both join phases.
        assert_eq!(base.metrics.usage(), base.billed, "{} baseline", q.name);
        assert_eq!(push.metrics.usage(), push.billed, "{} pushdown", q.name);
        assert_eq!(adapt.metrics.usage(), adapt.billed, "{} adaptive", q.name);
    }
    assert!(joined >= 2, "suite carries at least two joined queries");
}

/// Acceptance (ISSUE 4): the TPC-H Q3-shaped statement — filter +
/// 2-table equi-join + GROUP BY + ORDER BY + LIMIT — executes through
/// `execute_sql_verbose` under every strategy; its report renders a
/// per-operator tree with predictions; and adaptive lands within 1.1×
/// of the cheaper fixed strategy on measured dollars.
#[test]
fn q3_shaped_statement_end_to_end_acceptance() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let sql = "SELECT o_orderdate, o_shippriority, SUM(o_totalprice) AS revenue \
               FROM customer JOIN orders ON c_custkey = o_custkey \
               WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' \
               GROUP BY o_orderdate, o_shippriority \
               ORDER BY revenue DESC, o_orderdate LIMIT 10";
    let mut outputs = Vec::new();
    for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
        let (out, explain) = execute_sql_verbose(&ctx, &t.customer, sql, strategy).unwrap();
        assert!(
            matches!(explain.kind, PlanKind::Join { .. }),
            "{strategy:?}: {:?}",
            explain.kind
        );
        assert!(!out.rows.is_empty(), "{strategy:?}");
        assert!(out.rows.len() <= 10, "{strategy:?}");
        assert_eq!(
            out.schema.names(),
            vec!["o_orderdate", "o_shippriority", "revenue"],
            "{strategy:?}"
        );
        // Ordered by revenue desc, then date asc on ties.
        for w in out.rows.windows(2) {
            let major = w[0][2].total_cmp(&w[1][2]);
            assert!(major.is_ge(), "{strategy:?}");
            if major == std::cmp::Ordering::Equal {
                assert!(w[0][0].total_cmp(&w[1][0]).is_le(), "{strategy:?}");
            }
        }
        // The operator tree renders per node with predicted-vs-actual.
        let report = explain.report(&out, &ctx);
        assert!(report.contains("operators"), "{strategy:?}:\n{report}");
        assert!(report.contains("Join["), "{strategy:?}:\n{report}");
        assert!(report.contains("Scan["), "{strategy:?}:\n{report}");
        assert!(report.contains("GroupBy["), "{strategy:?}:\n{report}");
        assert!(report.contains("TopK["), "{strategy:?}:\n{report}");
        assert!(
            report.contains("predicted") && report.contains("actual"),
            "{strategy:?}:\n{report}"
        );
        outputs.push(out);
    }
    // All three strategies agree on the answer.
    assert_eq!(outputs[0].rows, outputs[1].rows);
    assert_eq!(outputs[0].rows, outputs[2].rows);

    // Adaptive is competitive: ≤ 1.1× the cheaper fixed strategy on
    // measured dollars.
    let cost = |o: &QueryOutput| o.metrics.cost(&ctx.model, &ctx.pricing).total();
    let min_fixed = cost(&outputs[0]).min(cost(&outputs[1]));
    assert!(
        cost(&outputs[2]) <= min_fixed * 1.10,
        "adaptive ${:.6} vs min(fixed) ${min_fixed:.6}",
        cost(&outputs[2])
    );
}

/// Joined queries through the workload harness: per-query child ledgers
/// sum exactly to the global ledger delta at 8 threads (the PR-3
/// conservation law extended to two-phase join plans).
#[test]
fn joined_queries_conserve_ledgers_at_8_threads() {
    use pushdowndb::common::pricing::Usage;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let suite: Vec<_> = planner_suite()
        .into_iter()
        .filter(|q| q.name.starts_with("join-"))
        .collect();
    let serial: Vec<QueryOutput> = suite
        .iter()
        .map(|q| execute_sql(&ctx, (q.table)(&t), q.sql, Strategy::Adaptive).unwrap())
        .collect();

    let jobs: Vec<usize> = (0..8).flat_map(|_| 0..suite.len()).collect();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<QueryOutput>>> = Mutex::new(vec![None; jobs.len()]);
    let before = ctx.store.global_ledger().snapshot();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&qi) = jobs.get(i) else { break };
                let q = &suite[qi];
                let out = execute_sql(&ctx, (q.table)(&t), q.sql, Strategy::Adaptive).unwrap();
                slots.lock().unwrap()[i] = Some(out);
            });
        }
    });
    let after = ctx.store.global_ledger().snapshot();
    let mut sum = Usage::default();
    for (i, out) in slots.into_inner().unwrap().into_iter().enumerate() {
        let out = out.expect("slot filled");
        let reference = &serial[jobs[i]];
        assert_eq!(out.rows, reference.rows, "join query {} rows", jobs[i]);
        assert_eq!(out.billed, reference.billed, "join query {} bill", jobs[i]);
        sum += out.billed;
    }
    assert_eq!(
        after,
        before + sum,
        "global ledger delta must equal the sum of joined queries' child ledgers"
    );
}
