//! An ORDER BY over a GROUP BY is the group-by's own finish (ISSUE 25):
//! every grouping candidate — `server-side`, `cached-local`, `filtered`
//! (its engine folding under §X's native `GROUP BY`, which these tests
//! turn on), `s3-side`, `hybrid`, and a joined statement's every join
//! candidate — returns the groups a stable [`Value::total_cmp`] sort
//! truncated to the LIMIT would, ties in group-key order, and reports
//! exactly as many phase groups as the same statement without ORDER BY /
//! LIMIT: the order runs inside the grouping operator's breaker, never
//! in a phase of its own. On CSV and ColumnarLite, serial and on four
//! nodes; the oracle never calls the engine.
//!
//! The table is `tests/topk_nulls.rs`'s — `c` NULL in every fourth row
//! and five heavily tied values in the others — plus a float group key
//! `f` cycling through NaN, `0.0` and `-0.0` (three groups under the
//! total order) and a join table `u` keyed by `c`'s values.

use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::planner::lower;
use pushdowndb::core::{
    plan, upload_columnar_table, upload_csv_table, PlanNode, PlanOp, QueryContext, QueryMetrics,
    Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::select::EngineExtensions;
use pushdowndb::sql::parse_query;
use std::cmp::Ordering;

const ROWS_PER_PARTITION: usize = 16;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("c", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
    ])
}

fn rows() -> Vec<Row> {
    (0..40i64)
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
                Value::Str(format!("row-{i}")),
                Value::Float(f),
            ])
        })
        .collect()
}

fn dim_schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Str)])
}

/// `k` 0..5 — every non-NULL `c` joins one `u` row — and `w` ties 0 with
/// 3 and 1 with 4.
fn dim_rows() -> Vec<Row> {
    (0..5i64)
        .map(|k| Row::new(vec![Value::Int(k), Value::Str(format!("w{}", k % 3))]))
        .collect()
}

/// `key ++ [COUNT(*), SUM(i)]` per group of `key_of`, in group-key order.
fn grouped(rows: &[Row], key_of: impl Fn(&Row) -> Vec<Value>) -> Vec<Row> {
    let mut groups: Vec<(Vec<Value>, i64, i64)> = Vec::new();
    for r in rows {
        let key = key_of(r);
        let at = match groups.iter().position(|g| g.0 == key) {
            Some(at) => at,
            None => {
                groups.push((key, 0, 0));
                groups.len() - 1
            }
        };
        groups[at].1 += 1;
        groups[at].2 += r[0].as_i64().unwrap();
    }
    groups.sort_by(|a, b| cmp_keys(&a.0, &b.0, &[]));
    groups
        .into_iter()
        .map(|(mut key, n, total)| {
            key.extend([Value::Int(n), Value::Int(total)]);
            Row::new(key)
        })
        .collect()
}

/// `a` against `b` by `keys` (`(column, ascending)`), or by every column
/// ascending when `keys` is empty.
fn cmp_keys(a: &[Value], b: &[Value], keys: &[(usize, bool)]) -> Ordering {
    let all: Vec<(usize, bool)> = (0..a.len()).map(|i| (i, true)).collect();
    let keys = if keys.is_empty() { &all[..] } else { keys };
    for &(col, asc) in keys {
        let o = a[col].total_cmp(&b[col]);
        if o != Ordering::Equal {
            return if asc { o } else { o.reverse() };
        }
    }
    Ordering::Equal
}

/// The answer: `groups` stably sorted by `keys`, truncated to `limit`.
fn oracle(mut groups: Vec<Row>, keys: &[(usize, bool)], limit: Option<usize>) -> Vec<Row> {
    if !keys.is_empty() {
        groups.sort_by(|a, b| cmp_keys(a.values(), b.values(), keys));
    }
    groups.truncate(limit.unwrap_or(usize::MAX));
    groups
}

/// One statement family: the SQL without ORDER BY / LIMIT, the
/// candidates it lowers to, its groups, and the ORDER BY lists to try
/// (SQL, key columns of the output).
struct Family {
    sql: &'static str,
    names: &'static [&'static str],
    groups: Vec<Row>,
    orders: Vec<(&'static str, Vec<(usize, bool)>)>,
}

const ONE_KEY: &[&str] = &[
    "cached-local",
    "server-side",
    "filtered",
    "s3-side",
    "hybrid",
];

fn families() -> Vec<Family> {
    let table = rows();
    let dims = dim_rows();
    let joined: Vec<Row> = table
        .iter()
        .filter_map(|r| {
            let d = dims.iter().find(|d| r[1].sql_eq(&d[0]) == Some(true))?;
            Some(Row::new(vec![r[0].clone(), d[1].clone()]))
        })
        .collect();
    vec![
        Family {
            sql: "SELECT c, COUNT(*) AS n, SUM(i) AS total FROM t GROUP BY c",
            names: ONE_KEY,
            groups: grouped(&table, |r| vec![r[1].clone()]),
            orders: vec![
                ("c", vec![(0, true)]),
                ("c DESC", vec![(0, false)]),
                ("n DESC, c", vec![(1, false), (0, true)]),
            ],
        },
        Family {
            sql: "SELECT f, COUNT(*) AS n, SUM(i) AS total FROM t GROUP BY f",
            names: ONE_KEY,
            groups: grouped(&table, |r| vec![r[3].clone()]),
            orders: vec![
                ("f", vec![(0, true)]),
                ("f DESC", vec![(0, false)]),
                ("n DESC, f", vec![(1, false), (0, true)]),
            ],
        },
        Family {
            sql: "SELECT c, f, COUNT(*) AS n, SUM(i) AS total FROM t GROUP BY c, f",
            names: &["cached-local", "server-side", "filtered", "s3-side"],
            groups: grouped(&table, |r| vec![r[1].clone(), r[3].clone()]),
            orders: vec![
                ("c", vec![(0, true)]),
                ("c DESC", vec![(0, false)]),
                ("f, c", vec![(1, true), (0, true)]),
                ("n DESC, c", vec![(2, false), (0, true)]),
            ],
        },
        Family {
            sql: "SELECT w, COUNT(*) AS n, SUM(i) AS total FROM t JOIN u ON c = k GROUP BY w",
            names: &[
                "cached",
                "cached-build",
                "baseline",
                "filtered",
                "build-push",
                "probe-push",
                "bloom",
            ],
            groups: grouped(&joined, |r| vec![r[1].clone()]),
            orders: vec![
                ("w", vec![(0, true)]),
                ("w DESC", vec![(0, false)]),
                ("n DESC, w", vec![(1, false), (0, true)]),
            ],
        },
    ]
}

fn tables(store: &S3Store, columnar: bool) -> (Table, Table) {
    let upload = |name: &str, schema: &Schema, rows: &[Row]| {
        if columnar {
            let options = WriterOptions {
                rows_per_group: 5,
                compress: true,
            };
            upload_columnar_table(store, "b", name, schema, rows, ROWS_PER_PARTITION, options)
        } else {
            upload_csv_table(store, "b", name, schema, rows, ROWS_PER_PARTITION)
        }
        .unwrap()
    };
    (
        upload("t", &schema(), &rows()),
        upload("u", &dim_schema(), &dim_rows()),
    )
}

/// What one candidate's run reports.
struct Run {
    rows: Vec<Row>,
    metrics: QueryMetrics,
}

/// Run `plan` on a query scope of its own — spread over the nodes
/// owning its partitions when the context has a cluster — and hold its
/// metrics to the scope's bill.
fn run(ctx: &QueryContext, plan: &PlanNode, what: &str) -> Run {
    let ctx = ctx.scoped();
    let out = plan::execute(&ctx, plan).unwrap();
    assert_eq!(out.metrics.usage(), ctx.billed(), "{what}: usage == bill");
    Run {
        rows: out.rows,
        metrics: out.metrics,
    }
}

/// The candidates `sql` lowers to, by name.
fn candidates(ctx: &QueryContext, t: &Table, sql: &str) -> Vec<(&'static str, PlanNode)> {
    lower(ctx, t, &parse_query(sql).unwrap()).unwrap().1
}

/// The candidates, and before a hybrid split the two runs of it Fig 6's
/// forcing pins: no group pushed — the tail is the whole query — and one,
/// the rest of the groups (NaN included) in the tail.
fn with_forced_splits(candidates: Vec<(&'static str, PlanNode)>) -> Vec<(String, PlanNode)> {
    fn force(node: &mut PlanNode, n: usize) {
        if let PlanOp::HybridSplit { force, .. } = &mut node.op {
            *force = Some(n);
        }
        node.children.iter_mut().for_each(|c| force(c, n));
    }
    let mut out = Vec::new();
    for (name, plan) in candidates {
        if name == "hybrid" {
            for n in [0, 1] {
                let mut forced = plan.clone();
                force(&mut forced, n);
                out.push((format!("hybrid forced to {n}"), forced));
            }
        }
        out.push((name.to_string(), plan));
    }
    out
}

#[test]
fn the_fixture_has_the_ties_and_float_keys_the_cases_need() {
    let families = families();
    let by_c = &families[0].groups;
    assert_eq!(by_c.len(), 6, "five keys and the NULL group");
    assert!(by_c[0][0].is_null(), "NULL sorts first");
    let by_f = &families[1].groups;
    assert_eq!(by_f.len(), 3, "NaN, 0.0 and -0.0 are three groups");
    assert_eq!(by_f[0][0].to_string(), "-0.0", "-0.0 < 0.0 < NaN");
    // COUNT(*) ties across groups: `n DESC` keeps group-key order on
    // them.
    let counts: Vec<i64> = by_c.iter().map(|g| g[1].as_i64().unwrap()).collect();
    assert!(counts
        .iter()
        .any(|n| counts.iter().filter(|m| *m == n).count() > 1));
    assert_eq!(families[3].groups.len(), 3, "`u` ties k 0 with 3, 1 with 4");
}

#[test]
fn every_grouping_candidate_orders_its_groups_without_a_phase_of_its_own() {
    for columnar in [false, true] {
        for nodes in [1, 4] {
            let store = S3Store::new();
            let (t, u) = tables(&store, columnar);
            let mut ctx = QueryContext::new(store)
                .with_cache(1 << 20)
                .with_tables([u]);
            ctx.engine = ctx.engine.clone().with_extensions(EngineExtensions {
                native_group_by: true,
                ..Default::default()
            });
            if nodes > 1 {
                ctx = ctx.with_nodes(nodes);
            }
            for family in families() {
                let base = candidates(&ctx, &t, family.sql);
                let names: Vec<&str> = base.iter().map(|(name, _)| *name).collect();
                assert_eq!(names, family.names, "{}", family.sql);
                let base = with_forced_splits(base);
                for (order_sql, keys) in &family.orders {
                    for limit in [None, Some(0), Some(3), Some(100)] {
                        let sql = match limit {
                            None => format!("{} ORDER BY {order_sql}", family.sql),
                            Some(k) => format!("{} ORDER BY {order_sql} LIMIT {k}", family.sql),
                        };
                        let want = oracle(family.groups.clone(), keys, limit);
                        let ordered = with_forced_splits(candidates(&ctx, &t, &sql));
                        for ((name, plan), (_, unordered)) in ordered.iter().zip(&base) {
                            let what =
                                format!("{name} of `{sql}`, columnar {columnar}, {nodes} node(s)");
                            let got = run(&ctx, plan, &what);
                            assert_eq!(got.rows, want, "{what}");
                            let plain = run(&ctx, unordered, &what);
                            assert_eq!(
                                got.metrics.groups.len(),
                                plain.metrics.groups.len(),
                                "{what}: the ORDER BY opens no phase"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The lowered trees: no `Sort` / `TopK` node sits directly above a
/// grouping operator — an ORDER BY by the group key ascending leaves
/// nothing to do but the LIMIT, any other is the operator's finish.
#[test]
fn no_sort_node_sits_above_a_grouping_operator() {
    let store = S3Store::new();
    let (t, u) = tables(&store, false);
    let ctx = QueryContext::new(store).with_tables([u]);
    let label = |sql: &str| -> Vec<String> {
        candidates(&ctx, &t, sql)
            .iter()
            .map(|(_, plan)| plan.label())
            .collect()
    };
    let free = label("SELECT c, f, COUNT(*) FROM t GROUP BY c, f ORDER BY c, f");
    assert!(free.iter().all(|l| !l.contains("Sort[")), "{free:?}");
    let limited = label("SELECT c, f, COUNT(*) FROM t GROUP BY c, f ORDER BY c LIMIT 2");
    assert!(limited.iter().all(|l| l == "Limit[2]"), "{limited:?}");
    let fused = label("SELECT c, COUNT(*) AS n FROM t GROUP BY c ORDER BY n DESC, c LIMIT 2");
    for l in &fused {
        assert!(l.ends_with(" + TopK[2 keys, limit 2]"), "{fused:?}");
        assert!(!l.starts_with("TopK["), "{fused:?}");
    }
}
