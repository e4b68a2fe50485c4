//! One planner front-end (ISSUE 20): properties every query shape owes
//! whichever family it lowers to, checked on single-table and joined
//! plans alike.
//!
//! * `LIMIT` is an operator of the plan, not a post-pass some branches
//!   remembered: every shape × strategy returns the same number of rows,
//!   `LIMIT 0` on a scalar aggregate included, and a limited plan still
//!   bills the whole scan (`usage == billed`).
//! * An ordered plan is priced whole — its `Sort`, or a group-by's
//!   ORDER BY folded into the group-by, is in the prediction's phases
//!   like it is in the run's — and every executed plan's report carries
//!   per-node predictions, fixed strategies included.

use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::planner::execute_sql_verbose;
use pushdowndb::core::{upload_csv_table, OpReport, QueryContext, Strategy, Table};
use pushdowndb::s3::S3Store;

const STRATEGIES: [Strategy; 3] = [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive];

/// `fact(fk, val, g)` ⋈ `dim(k, tag)`: 600 fact rows over 4 partitions,
/// 20 dim rows; fact keys 20..24 have no dim row.
fn setup() -> (QueryContext, Table) {
    let store = S3Store::new();
    let dim_schema = Schema::from_pairs(&[("k", DataType::Int), ("tag", DataType::Str)]);
    let dims: Vec<Row> = (0..20)
        .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("tag-{}", i % 4))]))
        .collect();
    let fact_schema = Schema::from_pairs(&[
        ("fk", DataType::Int),
        ("val", DataType::Float),
        ("g", DataType::Int),
    ]);
    let facts: Vec<Row> = (0..600i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 25),
                Value::Float((i as f64 * 7.3) % 90.0),
                Value::Int(i % 7),
            ])
        })
        .collect();
    let dim = upload_csv_table(&store, "b", "dim", &dim_schema, &dims, 8).unwrap();
    let fact = upload_csv_table(&store, "b", "fact", &fact_schema, &facts, 150).unwrap();
    (QueryContext::new(store).with_tables([dim]), fact)
}

/// (SQL, rows the statement returns).
const LIMITED: [(&str, usize); 12] = [
    // §IV filter, with and without a projection.
    ("SELECT * FROM fact WHERE g = 1 LIMIT 5", 5),
    ("SELECT fk, val FROM fact LIMIT 7", 7),
    ("SELECT fk FROM fact WHERE val < 0 LIMIT 3", 0),
    // Scalar aggregate: one row, unless the limit says none.
    ("SELECT SUM(val), COUNT(*) FROM fact LIMIT 3", 1),
    ("SELECT COUNT(*) FROM fact LIMIT 0", 0),
    // §VI group-by, LIMIT without ORDER BY and with.
    ("SELECT g, SUM(val) FROM fact GROUP BY g LIMIT 3", 3),
    (
        "SELECT g, SUM(val) AS s FROM fact GROUP BY g ORDER BY s DESC LIMIT 2",
        2,
    ),
    // §VII top-K and its generalisations.
    ("SELECT * FROM fact ORDER BY val DESC LIMIT 4", 4),
    (
        "SELECT fk, val FROM fact WHERE g < 3 ORDER BY fk, val LIMIT 6",
        6,
    ),
    // Joined: projection, scalar aggregate, group-by.
    ("SELECT tag, val FROM fact JOIN dim ON fk = k LIMIT 9", 9),
    ("SELECT SUM(val) FROM fact JOIN dim ON fk = k LIMIT 0", 0),
    (
        "SELECT tag, COUNT(*) AS n FROM fact JOIN dim ON fk = k GROUP BY tag LIMIT 2",
        2,
    ),
];

#[test]
fn limit_holds_on_every_shape_under_every_strategy() {
    let (ctx, fact) = setup();
    for (sql, want) in LIMITED {
        let unlimited = &sql[..sql.rfind(" LIMIT").unwrap()];
        for strategy in STRATEGIES {
            let (out, ex) = execute_sql_verbose(&ctx, &fact, sql, strategy).unwrap();
            assert_eq!(out.rows.len(), want, "{sql} under {strategy:?}");
            assert_eq!(out.metrics.usage(), out.billed, "{sql} under {strategy:?}");
            // The limit drops rows on arrival; the scan below it runs,
            // and bills, to its end.
            let (full, full_ex) = execute_sql_verbose(&ctx, &fact, unlimited, strategy).unwrap();
            if full_ex.kind == ex.kind {
                assert_eq!(
                    out.billed, full.billed,
                    "{sql} under {strategy:?}: whole scan"
                );
            }
            assert!(out.rows.len() <= full.rows.len());
        }
    }
}

/// A bare `LIMIT` is a `Limit[n]` root over the family's tree — it pushes
/// no phase of its own — and `ORDER BY … LIMIT` is the `Sort`'s.
#[test]
fn limit_shows_in_the_operator_tree() {
    let (ctx, fact) = setup();
    for strategy in STRATEGIES {
        let sql = "SELECT g, SUM(val) FROM fact GROUP BY g LIMIT 3";
        let (out, ex) = execute_sql_verbose(&ctx, &fact, sql, strategy).unwrap();
        let root = ex.operators.as_ref().unwrap();
        assert_eq!(root.label, "Limit[3]", "{strategy:?}");
        // The group-by below it: a hash aggregation over a scan, or —
        // Pushdown's pick — the hybrid split.
        let family = &root.children[0].label;
        assert!(
            family.starts_with("GroupBy[") || family.starts_with("HybridSplit["),
            "{strategy:?}: {family}"
        );
        let (full, _) = execute_sql_verbose(
            &ctx,
            &fact,
            "SELECT g, SUM(val) FROM fact GROUP BY g",
            strategy,
        )
        .unwrap();
        let phases = |o: &pushdowndb::core::QueryOutput| -> Vec<String> {
            o.metrics
                .groups
                .iter()
                .flat_map(|g| g.phases.iter().map(|p| p.label.clone()))
                .collect()
        };
        assert_eq!(phases(&out), phases(&full), "Limit pushes no phase");
    }
}

fn every_node_predicted(op: &OpReport) -> bool {
    op.predicted.is_some() && op.children.iter().all(every_node_predicted)
}

/// Ordered single-table plans (a group-by finishing its groups in ORDER
/// BY order — for free under its own key —, or a `Sort` over a bare scan
/// leaf whose pipeline it ends) are priced whole: the prediction has the
/// phases the run has, and a group-by's ORDER BY opens none.
#[test]
fn ordered_single_table_plans_are_priced_with_their_sort() {
    let (ctx, fact) = setup();
    for sql in [
        "SELECT g, SUM(val) FROM fact GROUP BY g ORDER BY g",
        "SELECT g, SUM(val) AS s FROM fact GROUP BY g ORDER BY s DESC LIMIT 2",
        "SELECT fk, val FROM fact WHERE g < 3 ORDER BY fk, val LIMIT 6",
        "SELECT * FROM fact ORDER BY val",
    ] {
        let (out, ex) = execute_sql_verbose(&ctx, &fact, sql, Strategy::Adaptive).unwrap();
        let predicted = ex.predicted.as_ref().expect("Adaptive predicts");
        assert_eq!(
            predicted.groups.len(),
            out.metrics.groups.len(),
            "{sql}: one predicted group per executed group"
        );
        let last =
            |m: &pushdowndb::core::QueryMetrics| m.groups.last().unwrap().phases[0].label.clone();
        let ends = if sql.contains("GROUP BY") {
            "group-by"
        } else {
            "sort"
        };
        assert!(
            last(predicted).ends_with(ends),
            "{sql}: {}",
            last(predicted)
        );
        assert_eq!(last(predicted), last(&out.metrics), "{sql}");
        let root = ex.operators.as_ref().unwrap();
        assert!(every_node_predicted(root), "{sql}: root and leaf annotated");
        // Every candidate carries the same sort addend, so the chosen one
        // is still the cheapest.
        let chosen = ex.candidates.iter().find(|c| c.chosen).unwrap();
        assert!(ex.candidates.iter().all(|c| chosen.dollars <= c.dollars));
    }
}

/// Fixed strategies weigh nothing (`candidates` empty, `predicted`
/// `None`) but the plan they run is priced, node by node, like Adaptive's.
#[test]
fn every_executed_plan_reports_per_node_predictions() {
    let (ctx, fact) = setup();
    for sql in [
        "SELECT fk, val FROM fact WHERE g = 2",
        "SELECT SUM(val) FROM fact",
        "SELECT g, SUM(val) FROM fact GROUP BY g",
        "SELECT * FROM fact ORDER BY val LIMIT 5",
        "SELECT g, COUNT(*) FROM fact GROUP BY g ORDER BY g LIMIT 3",
        "SELECT tag, SUM(val) FROM fact JOIN dim ON fk = k GROUP BY tag",
    ] {
        for strategy in STRATEGIES {
            let (_, ex) = execute_sql_verbose(&ctx, &fact, sql, strategy).unwrap();
            let root = ex.operators.as_ref().unwrap();
            assert!(every_node_predicted(root), "{sql} under {strategy:?}");
            if strategy != Strategy::Adaptive {
                assert!(ex.candidates.is_empty(), "{sql} under {strategy:?}");
                assert!(ex.predicted.is_none(), "{sql} under {strategy:?}");
            }
        }
    }
}

/// A negated number or negation is rendered so that it parses back — a
/// bare `--` would open a comment — and every strategy returns the rows
/// the local evaluator does.
#[test]
fn doubled_negations_return_the_same_rows_under_every_strategy() {
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[("a", DataType::Int)]);
    let rows: Vec<Row> = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let t = upload_csv_table(&store, "b", "t", &schema, &rows, 5).unwrap();
    let ctx = QueryContext::new(store);
    let want: Vec<Value> = (6..10).map(Value::Int).collect();
    for sql in [
        "SELECT a FROM t WHERE a > -(-5)",
        "SELECT a FROM t WHERE -(-a) > 5",
    ] {
        for strategy in STRATEGIES {
            let (out, _) = execute_sql_verbose(&ctx, &t, sql, strategy)
                .unwrap_or_else(|e| panic!("{sql} under {strategy:?}: {e}"));
            let mut got: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
            got.sort_by(|x, y| x.sql_cmp(y).unwrap());
            assert_eq!(got, want, "{sql} under {strategy:?}");
        }
    }
}
