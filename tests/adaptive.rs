//! `Strategy::Adaptive` acceptance and calibration (ISSUE 2):
//!
//! * on every TPC-H query of the planner-dialect differential suite
//!   *and on the paper's own six* (Q1, Q3, Q6, Q14, Q17, Q19 — the Fig 10
//!   suite) the adaptive strategy returns the same rows as both fixed
//!   strategies, is never measurably worse than either, matches the
//!   cheaper of the two (measured dollars + modeled runtime) within 10%,
//!   and predicted the dollars of the plan it ran within 15% — all at
//!   the scale the planner sees, unprojected;
//! * the cost estimator is calibrated: for the plan actually chosen, the
//!   predicted `Usage` (requests, scanned, returned, plain bytes) lands
//!   within 15% of the measured ledger (with a small absolute floor for
//!   near-zero quantities such as aggregate response payloads), on CSV
//!   and on ColumnarLite;
//! * ledger/metrics agreement holds on multi-phase adaptive plans, and
//!   scaled projections round once at the aggregate level.

use pushdowndb::common::{Row, Schema, Value};
use pushdowndb::core::planner::{execute_sql_verbose, Explain};
use pushdowndb::core::{upload_columnar_table, QueryContext, QueryOutput, Strategy};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::tpch::{planner_suite, tpch_context, TpchGen, TpchTables, SUITE};

/// One input of the bar: a query, as "run me under this strategy".
type Run<'a> = Box<dyn Fn(Strategy) -> (QueryOutput, Explain) + 'a>;

/// The nine planner-dialect shapes, then the paper's six.
fn inputs<'a>(ctx: &'a QueryContext, t: &'a TpchTables) -> Vec<(&'static str, Run<'a>)> {
    let shapes = planner_suite().into_iter().map(|q| {
        let run = move |s| execute_sql_verbose(ctx, (q.table)(t), q.sql, s).unwrap();
        (q.name, Box::new(run) as Run)
    });
    let paper = SUITE.iter().map(|q| {
        let run = move |s| q.run(ctx, t, s).unwrap();
        (q.name, Box::new(run) as Run)
    });
    shapes.chain(paper).collect()
}

fn assert_rows_close(a: &[Row], b: &[Row], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    for (x, y) in a.iter().zip(b) {
        for (vx, vy) in x.values().iter().zip(y.values()) {
            match (vx, vy) {
                (Value::Float(fx), Value::Float(fy)) => assert!(
                    (fx - fy).abs() <= 1e-6 * (1.0 + fx.abs().max(fy.abs())),
                    "{what}: {fx} vs {fy}"
                ),
                _ => assert_eq!(vx, vy, "{what}"),
            }
        }
    }
}

/// Acceptance: Adaptive is never measurably worse than *both* fixed
/// strategies, and matches the cheaper of the two within 10% on measured
/// dollar cost and modeled runtime — on every input; the plan it ran is
/// one of the candidates it listed, and its predicted dollars are within
/// the 15% calibration of what it then cost.
#[test]
fn adaptive_matches_the_cheaper_fixed_strategy_within_10_percent() {
    let (ctx, t) = tpch_context(0.005, 1_500).unwrap();
    for (name, run) in inputs(&ctx, &t) {
        let (base, _) = run(Strategy::Baseline);
        let (push, _) = run(Strategy::Pushdown);
        let (adapt, explain) = run(Strategy::Adaptive);
        assert_rows_close(&base.rows, &push.rows, name);
        assert_rows_close(&base.rows, &adapt.rows, &format!("{name} (adaptive)"));

        let cost = |o: &QueryOutput| o.metrics.cost(&ctx.model, &ctx.pricing).total();
        let runtime = |o: &QueryOutput| o.metrics.runtime(&ctx.model);
        let min_cost = cost(&base).min(cost(&push));
        let min_runtime = runtime(&base).min(runtime(&push));
        assert!(
            cost(&adapt) <= min_cost * 1.10,
            "{name}: adaptive ${:.6} vs min(fixed) ${min_cost:.6}",
            cost(&adapt)
        );
        assert!(
            runtime(&adapt) <= min_runtime * 1.10,
            "{name}: adaptive {:.3}s vs min(fixed) {min_runtime:.3}s",
            runtime(&adapt)
        );

        let picks: Vec<_> = explain.candidates.iter().filter(|c| c.chosen).collect();
        assert_eq!(picks.len(), 1, "{name}: one candidate ran");
        let predicted = picks[0].dollars;
        assert!(
            (predicted - cost(&adapt)).abs() <= 0.15 * cost(&adapt),
            "{name}: `{}` predicted ${predicted:.6} vs executed ${:.6}",
            picks[0].algorithm,
            cost(&adapt)
        );
    }
}

/// The TPC-H context of [`tpch_context`] with the three tables the nine
/// shapes read — customer, orders, lineitem — uploaded as ColumnarLite
/// (in a bucket of their own) and registered in place of the CSV ones.
fn columnar_tpch_context(
    scale_factor: f64,
    rows_per_partition: usize,
) -> (QueryContext, TpchTables) {
    let (ctx, mut t) = tpch_context(scale_factor, rows_per_partition).unwrap();
    let gen = TpchGen::new(scale_factor);
    let upload = |name: &str, schema: &Schema, rows: &[Row]| {
        let opts = WriterOptions::default();
        upload_columnar_table(
            &ctx.store,
            "tpch-cl",
            name,
            schema,
            rows,
            rows_per_partition,
            opts,
        )
        .unwrap()
    };
    let (cs, customers) = gen.customers();
    let (os, orders) = gen.orders();
    let (ls, lineitems) = gen.lineitems(&orders);
    t.customer = upload("customer", &cs, &customers);
    t.orders = upload("orders", &os, &orders);
    t.lineitem = upload("lineitem", &ls, &lineitems);
    t.register(&ctx.catalog);
    (ctx, t)
}

/// Calibration: predicted `Usage` of the chosen plan within 15% of the
/// measured ledger, field by field, on CSV and on ColumnarLite, where a
/// Select scans only the chunks of the columns it references (§IX).
/// Near-zero quantities (aggregate payloads of a few hundred bytes) get a
/// 512-byte absolute floor so the relative bound stays meaningful. (The
/// nine shapes only. The paper's six are held to the dollar calibration
/// above: a window on one column, `l_shipdate >= lo AND l_shipdate < hi`,
/// is priced as two independent conjuncts, so Q14's month over-predicts
/// its returned bytes ~20× — ROADMAP item C.)
#[test]
fn cost_estimator_predictions_are_calibrated_against_the_ledger() {
    let csv = tpch_context(0.005, 1_500).unwrap();
    let columnar = columnar_tpch_context(0.005, 1_500);
    for (format, (ctx, t)) in [("csv", csv), ("columnar", columnar)] {
        calibrated_against_the_ledger(format, &ctx, &t);
    }
}

fn calibrated_against_the_ledger(format: &str, ctx: &QueryContext, t: &TpchTables) {
    for q in planner_suite() {
        let table = (q.table)(t);
        let (out, explain) = execute_sql_verbose(ctx, table, q.sql, Strategy::Adaptive).unwrap();
        let measured = out.billed;
        let predicted = explain
            .predicted
            .as_ref()
            .expect("adaptive plans carry a prediction")
            .usage();
        let check = |pred: u64, meas: u64, what: &str| {
            let slack = (0.15 * meas as f64).max(512.0);
            assert!(
                (pred as f64 - meas as f64).abs() <= slack,
                "{format} {} [{}]: predicted {pred} vs measured {meas} (slack {slack:.0})",
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

/// The AWS-style ledger and the per-query metrics agree exactly on
/// multi-phase adaptive plans, and the scaled projection equals scaling
/// the summed usage once (`Usage::scaled` is not distributive, so the
/// single-rounding path is the one projections must take).
#[test]
fn ledger_agrees_with_metrics_on_adaptive_plans() {
    let (ctx, t) = tpch_context(0.003, 1_000).unwrap();
    for (name, run) in inputs(&ctx, &t) {
        let (out, _) = run(Strategy::Adaptive);
        let billed = out.billed;
        let metered = out.metrics.usage();
        assert_eq!(billed, metered, "{name}: ledger vs metrics");
        // Multi-phase projection invariant (the Usage::scaled bugfix).
        for factor in [1.0, 2.5, 2000.0 / 3.0] {
            assert_eq!(
                out.metrics.scaled_usage(factor),
                out.metrics.usage().scaled(factor),
                "{name}: projection must round once at the aggregate level"
            );
        }
    }
}
