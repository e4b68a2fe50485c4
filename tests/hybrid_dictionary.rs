//! The §VI-B hybrid group-by split from the catalog: when exact load-time
//! statistics hold the grouping column's every value with its row count
//! (`Table::dictionary`), `hybrid` decides its populous groups from
//! them and runs no sample phase. It must answer exactly what the sampled
//! split and an oracle that never calls the engine answer — on CSV and
//! ColumnarLite, serial and on four nodes, under Fig 6's
//! forced splits — including when a listed group has no row in the query
//! (its WHERE emptied it, or the dictionary is stale), when keys are NULL,
//! and when the key is a FLOAT cycling NaN / 0.0 / −0.0.
//!
//! The table: `c` is NULL in every 4th row and `i % 5` otherwise, `f`
//! cycles NaN / 0.0 / −0.0 with `m = i % 3`, `w` has 33 values (one too
//! many for a dictionary) and `x` 32.

use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::catalog::TableStats;
use pushdowndb::core::cost::{predict_plan, Estimators};
use pushdowndb::core::metrics::PhaseGroup;
use pushdowndb::core::planner::{execute_sql_verbose, lower};
use pushdowndb::core::{
    plan, upload_columnar_table, upload_csv_table, OpReport, PlanNode, PlanOp, QueryContext,
    QueryMetrics, Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::sql::parse_query;
use std::sync::Arc;

const ROWS: i64 = 80;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("c", DataType::Int),
        ("f", DataType::Float),
        ("m", DataType::Int),
        ("w", DataType::Int),
        ("x", DataType::Int),
        ("v", DataType::Int),
    ])
}

fn rows() -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            let c = if i % 4 == 3 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            let f = [f64::NAN, 0.0, -0.0][i as usize % 3];
            Row::new(vec![
                Value::Int(i),
                c,
                Value::Float(f),
                Value::Int(i % 3),
                Value::Int(i % 33),
                Value::Int(i % 32),
                Value::Int(i * 7 % 11),
            ])
        })
        .collect()
}

/// Rows of the same count whose `c` and `f` hold other values: `c` in
/// 3..8 (5, 6 and 7 never occur in `rows()`, which has 0, 1 and 2 too),
/// `f` 1.5 / 0.0 / 2.5 (no NaN, no −0.0).
fn stale_rows() -> Vec<Row> {
    rows()
        .into_iter()
        .map(|mut r| {
            if let Value::Int(c) = r.0[1] {
                r.0[1] = Value::Int(c + 3);
            }
            r.0[2] = Value::Float([1.5, 0.0, 2.5][r.0[3].as_i64().unwrap() as usize]);
            r
        })
        .collect()
}

fn upload(store: &S3Store, columnar: bool) -> Table {
    if columnar {
        let options = WriterOptions {
            rows_per_group: 5,
            compress: true,
        };
        upload_columnar_table(store, "b", "t", &schema(), &rows(), 16, options)
    } else {
        upload_csv_table(store, "b", "t", &schema(), &rows(), 16)
    }
    .unwrap()
}

/// `t` with exact statistics but no tails, so no dictionary: its hybrid
/// samples.
fn sampled(t: &Table) -> Table {
    let mut stats = t.stats.as_deref().unwrap().clone();
    stats.columns.iter_mut().for_each(|c| c.tails = None);
    Table {
        stats: Some(Arc::new(stats)),
        ..t.clone()
    }
}

/// One statement: its SQL, which rows its WHERE keeps, whether it asks
/// for `COUNT(*)`, and its ORDER BY — `(output column, ascending)` — and
/// LIMIT.
struct Case {
    sql: String,
    keeps: fn(&Row) -> bool,
    count_star: bool,
    order: Option<((usize, bool), usize)>,
}

fn cases(g: &str) -> Vec<Case> {
    // SQL's `<>` keeps no NULL.
    let empties_one: fn(&Row) -> bool = if g == "c" {
        |r| matches!(r[1], Value::Int(c) if c != 2)
    } else {
        |r| r[3] != Value::Int(0)
    };
    let empties_one_sql = if g == "c" { "c <> 2" } else { "m <> 0" };
    vec![
        Case {
            sql: format!("SELECT {g}, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY {g}"),
            keeps: |_| true,
            count_star: true,
            order: None,
        },
        Case {
            sql: format!("SELECT {g}, SUM(v) AS total FROM t WHERE {empties_one_sql} GROUP BY {g}"),
            keeps: empties_one,
            count_star: false,
            order: None,
        },
        // The emptied group must not take one of the LIMIT's places.
        Case {
            sql: format!(
                "SELECT {g}, SUM(v) AS total FROM t WHERE {empties_one_sql} GROUP BY {g} \
                 ORDER BY total LIMIT 2"
            ),
            keeps: empties_one,
            count_star: false,
            order: Some(((1, true), 2)),
        },
        Case {
            sql: format!(
                "SELECT {g}, COUNT(*) AS n, SUM(v) AS total FROM t WHERE i < 0 GROUP BY {g}"
            ),
            keeps: |_| false,
            count_star: true,
            order: None,
        },
    ]
}

/// The answer, from the rows alone: one row per group of column `col`
/// among the rows the WHERE keeps, in group-key order (NULL first), then
/// stably ordered and cut as the statement says.
fn oracle(col: usize, case: &Case) -> Vec<Row> {
    let mut groups: Vec<(Value, i64, i64)> = Vec::new();
    for r in rows().iter().filter(|r| (case.keeps)(r)) {
        let at = match groups.iter().position(|g| g.0 == r[col]) {
            Some(at) => at,
            None => {
                groups.push((r[col].clone(), 0, 0));
                groups.len() - 1
            }
        };
        groups[at].1 += 1;
        groups[at].2 += r[6].as_i64().unwrap();
    }
    groups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<Row> = groups
        .into_iter()
        .map(|(key, n, total)| match case.count_star {
            true => Row::new(vec![key, Value::Int(n), Value::Int(total)]),
            false => Row::new(vec![key, Value::Int(total)]),
        })
        .collect();
    if let Some(((key, asc), limit)) = case.order {
        out.sort_by(|a, b| match asc {
            true => a[key].total_cmp(&b[key]),
            false => b[key].total_cmp(&a[key]),
        });
        out.truncate(limit);
    }
    out
}

/// `sql`'s `hybrid` candidate over `t`, forced to push `force` groups.
fn hybrid(ctx: &QueryContext, t: &Table, sql: &str, force: Option<usize>) -> PlanNode {
    fn set(node: &mut PlanNode, n: Option<usize>) {
        if let PlanOp::HybridSplit { force, .. } = &mut node.op {
            *force = n;
        }
        node.children.iter_mut().for_each(|c| set(c, n));
    }
    let (_, candidates) = lower(ctx, t, &parse_query(sql).unwrap()).unwrap();
    let (_, mut plan) = candidates
        .into_iter()
        .find(|(n, _)| *n == "hybrid")
        .unwrap();
    set(&mut plan, force);
    plan
}

/// Whether the hybrid split under `plan` reads its split off a dictionary.
fn from_dictionary(plan: &PlanNode) -> bool {
    match &plan.op {
        PlanOp::HybridSplit { dictionary, .. } => {
            assert_eq!(plan.children.len(), 2 - usize::from(dictionary.is_some()));
            dictionary.is_some()
        }
        _ => plan.children.iter().any(from_dictionary),
    }
}

/// Run `plan` on a query scope of its own, spread over the nodes owning
/// its partitions when the context has a cluster: its rows, its phase
/// groups, usage == bill.
fn run(ctx: &QueryContext, plan: &PlanNode, what: &str) -> (Vec<Row>, usize) {
    let ctx = ctx.scoped();
    let out = plan::execute(&ctx, plan).unwrap();
    assert_eq!(out.metrics.usage(), ctx.billed(), "{what}: usage == bill");
    (out.rows, out.metrics.groups.len())
}

#[test]
fn the_fixture_has_the_groups_the_cases_need() {
    let t = upload(&S3Store::new(), false);
    assert_eq!(
        t.dictionary("c").map(<[_]>::len),
        Some(5),
        "NULL is no value"
    );
    assert!(t.stats.as_ref().unwrap().column(1).unwrap().null_fraction > 0.0);
    let f_values: Vec<String> = t
        .dictionary("f")
        .into_iter()
        .flatten()
        .map(|(v, _)| v.to_string())
        .collect();
    assert_eq!(f_values, ["-0.0", "0.0", "NaN"]);
    for (col, want) in [("w", None), ("x", Some(32))] {
        let dictionary = t.dictionary(col);
        assert_eq!(dictionary.map(<[_]>::len), want, "column {col}");
    }
    for g in ["c", "f"] {
        let col = schema().index_of(g).unwrap();
        let all = oracle(col, &cases(g)[0]);
        assert_eq!(all.len(), if g == "c" { 6 } else { 3 }, "{g}");
        // `c <> 2` empties group 2 (and the NULL group), `m <> 0` NaN's.
        let emptied = oracle(col, &cases(g)[1]);
        assert_eq!(emptied.len(), if g == "c" { 4 } else { 2 }, "{g}");
    }
}

/// The dictionary-planned split, the sampled one and a stale dictionary's
/// answer every case as the oracle does, pushing the groups their rule
/// picks or exactly 0, 1 or all of them; one phase group fewer than the
/// sampled split, whose sample is the phase it saves.
#[test]
fn dictionary_split_answers_as_the_sample_and_the_oracle_do() {
    for columnar in [false, true] {
        for nodes in [1, 4] {
            let store = S3Store::new();
            let t = upload(&store, columnar);
            let mut ctx = QueryContext::new(store);
            if nodes > 1 {
                ctx = ctx.with_nodes(nodes);
            }
            let stale = t
                .clone()
                .with_stats(TableStats::from_rows(&schema(), &stale_rows()));
            let tables = [
                ("dictionary", &t),
                ("sampled", &sampled(&t)),
                ("stale", &stale),
            ];
            for g in ["c", "f"] {
                let col = schema().index_of(g).unwrap();
                let all = if g == "c" { 5 } else { 3 };
                for case in cases(g) {
                    let want = oracle(col, &case);
                    for (kind, table) in tables {
                        for force in [None, Some(0), Some(1), Some(all)] {
                            let plan = hybrid(&ctx, table, &case.sql, force);
                            let what = format!(
                                "{kind} `{}` forced to {force:?}, columnar {columnar}, \
                                 {nodes} node(s)",
                                case.sql
                            );
                            assert_eq!(from_dictionary(&plan), kind != "sampled", "{what}");
                            let (got, groups) = run(&ctx, &plan, &what);
                            assert_eq!(got, want, "{what}");
                            if nodes == 1 {
                                let sample = usize::from(kind == "sampled");
                                assert_eq!(groups, 1 + sample, "{what}: phase groups");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The labels of every node of an operator report.
fn labels(report: &OpReport, out: &mut Vec<String>) {
    out.push(report.label.clone());
    report.children.iter().for_each(|c| labels(c, out));
}

/// Phase names, group by group.
fn phases(m: &QueryMetrics) -> Vec<Vec<String>> {
    let names = |g: &PhaseGroup| g.phases.iter().map(|p| p.label.clone()).collect();
    m.groups.iter().map(names).collect()
}

/// What Pushdown runs for `GROUP BY g` over `t`: its operator labels and
/// phases, usage == bill; and the phases the pricer predicts for the same
/// tree.
fn pushdown(ctx: &QueryContext, t: &Table, g: &str) -> (Vec<String>, QueryMetrics, QueryMetrics) {
    let sql = format!("SELECT {g}, COUNT(*), SUM(v) FROM t GROUP BY {g}");
    let (out, explain) = execute_sql_verbose(ctx, t, &sql, Strategy::Pushdown).unwrap();
    assert_eq!(out.metrics.usage(), out.billed, "{sql}: usage == bill");
    let mut ops = Vec::new();
    labels(explain.operators.as_ref().unwrap(), &mut ops);
    assert!(ops[0].starts_with("HybridSplit["), "{ops:?}");
    let plan = hybrid(ctx, t, &sql, None);
    let predicted = predict_plan(&Estimators::new(ctx, [&plan]), &plan).unwrap();
    (ops, out.metrics, predicted.metrics)
}

/// Pushdown's `hybrid` over a dictionary column is one phase group and
/// has no sample leaf; a 33-value column, statistics of another row count
/// and a table registered without statistics keep the sample, and with it
/// a phase group of their own.
#[test]
fn only_a_dictionary_column_drops_the_sample_leaf() {
    let store = S3Store::new();
    let t = upload(&store, false);
    let ctx = QueryContext::new(store);
    let is_sample = |l: &String| l.starts_with("PushdownScan[t, first");
    for g in ["c", "f", "x"] {
        let (ops, ran, predicted) = pushdown(&ctx, &t, g);
        assert!(ops[0].contains("dictionary of"), "{g}: {ops:?}");
        assert!(!ops.iter().any(is_sample), "{g}: {ops:?}");
        // One group, and the pricer prices the tree that runs.
        let want = [[
            "hybrid: s3-side aggregation",
            "hybrid: server-side aggregation + group-by",
        ]];
        assert_eq!(phases(&ran), want, "{g}");
        assert_eq!(phases(&predicted), want, "{g}");
    }
    let stale = t
        .clone()
        .with_stats(TableStats::from_rows(&schema(), &rows()[..40]));
    let bare = Table {
        stats: None,
        ..t.clone()
    };
    for (what, table, g) in [
        ("33 values", &t, "w"),
        ("stale statistics", &stale, "c"),
        ("no statistics", &bare, "c"),
    ] {
        let (ops, ran, _) = pushdown(&ctx, table, g);
        assert!(ops.iter().any(is_sample), "{what}: {ops:?}");
        assert!(!ops[0].contains("dictionary"), "{what}: {ops:?}");
        assert_eq!(phases(&ran)[0], ["hybrid: sample + split"], "{what}");
    }
}
