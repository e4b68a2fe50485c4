//! NULLs and §VI group-by (ISSUE 20): every algorithm variant and every
//! strategy returns the same rows when grouping keys and aggregate
//! inputs hold NULLs.
//!
//! The table has 40 rows: `k` is NULL in every 4th row (10 rows per
//! group, the NULL group included), `k2` is NULL in every 8th, `v` is
//! NULL in every 5th (two per `k` group). Three things used to break
//! here, none of them visible on TPC-H, which has no NULLs:
//!
//! * `COUNT(*)` was planned as `COUNT(<first group column>)`, which
//!   counts nothing in the NULL group;
//! * the CASE-WHEN variants rendered `COUNT(c)` as
//!   `COUNT(CASE WHEN g THEN 1 END)`, counting rows whose `c` is NULL;
//! * a NULL group key was rendered `k = NULL` (never true), and hybrid's
//!   tail predicate `k NOT IN (…)` is never true for a NULL key either.
//!
//! And one that has nothing to do with NULLs but lives in the same
//! rule: a `GROUP BY` without aggregates has no CASE-WHEN statement to
//! push, so the CASE-WHEN variants are not candidates for it.

use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::algos::groupby::GroupByQuery;
use pushdowndb::core::planner::{execute_sql_verbose, PlanKind};
use pushdowndb::core::{
    execute_sql, plan, upload_csv_table, AlgoOp, PlanNode, PlanOp, QueryContext, Strategy, Table,
};
use pushdowndb::s3::S3Store;
use pushdowndb::sql::agg::AggFunc;

fn null_rows() -> Vec<Row> {
    (0..40i64)
        .map(|i| {
            let null_if = |cond: bool, v: i64| if cond { Value::Null } else { Value::Int(v) };
            Row::new(vec![
                null_if(i % 4 == 3, i % 4),
                null_if(i % 8 == 0, i % 2),
                null_if(i % 5 == 4, i),
            ])
        })
        .collect()
}

fn setup() -> (QueryContext, Table) {
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("k2", DataType::Int),
        ("v", DataType::Int),
    ]);
    let t = upload_csv_table(&store, "b", "t", &schema, &null_rows(), 16).unwrap();
    (QueryContext::new(store).with_cache(1 << 20), t)
}

/// `[group key…, COUNT(*), COUNT(v), SUM(v)]` per group, worked out from
/// the rows themselves, in the engine's output order (NULL keys first).
fn reference(group_width: usize) -> Vec<Row> {
    let mut groups: Vec<(Vec<Value>, i64, i64, Option<i64>)> = Vec::new();
    for r in null_rows() {
        let key = r.values()[..group_width].to_vec();
        let at = match groups.iter().position(|g| g.0 == key) {
            Some(at) => at,
            None => {
                groups.push((key, 0, 0, None));
                groups.len() - 1
            }
        };
        let g = &mut groups[at];
        g.1 += 1;
        if let Value::Int(v) = r[2] {
            g.2 += 1;
            g.3 = Some(g.3.unwrap_or(0) + v);
        }
    }
    groups.sort_by(|a, b| {
        a.0.iter()
            .zip(&b.0)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    groups
        .into_iter()
        .map(|(mut key, star, count, sum)| {
            key.push(Value::Int(star));
            key.push(Value::Int(count));
            key.push(sum.map_or(Value::Null, Value::Int));
            Row::new(key)
        })
        .collect()
}

fn query(table: &Table, group_cols: &[&str]) -> GroupByQuery {
    GroupByQuery {
        table: table.clone(),
        group_cols: group_cols.iter().map(|c| c.to_string()).collect(),
        aggs: vec![
            (AggFunc::Count, None),
            (AggFunc::Count, Some("v".into())),
            (AggFunc::Sum, Some("v".into())),
        ],
        predicate: None,
    }
}

/// The one-leaf plan running `q` under the named variant.
fn leaf(q: &GroupByQuery, variant: &'static str) -> PlanNode {
    PlanNode::new(
        PlanOp::Algo(AlgoOp::GroupBy(q.clone(), variant)),
        Vec::new(),
        q.output_schema().unwrap(),
    )
}

fn run_variant(ctx: &QueryContext, q: &GroupByQuery, variant: &'static str) -> Vec<Row> {
    let node = leaf(q, variant);
    let ctx = ctx.scoped();
    let ran = plan::execute(&ctx, &node).unwrap();
    assert_eq!(
        ran.metrics.usage(),
        ctx.billed(),
        "{variant}: usage == bill"
    );
    ran.rows
}

#[test]
fn the_fixture_has_the_nulls_the_cases_need() {
    let want = reference(1);
    assert_eq!(want.len(), 4, "three keys and the NULL group");
    assert_eq!(want[0][0], Value::Null);
    for g in &want {
        assert_eq!(g[1], Value::Int(10), "COUNT(*) per group");
        assert_eq!(g[2], Value::Int(8), "COUNT(v) per group");
    }
    assert!(reference(2).iter().any(|g| g[1] == Value::Null));
}

#[test]
fn every_variant_agrees_on_one_grouping_column() {
    let (ctx, t) = setup();
    let q = query(&t, &["k"]);
    let want = reference(1);
    for variant in [
        "server-side",
        "cached-local",
        "filtered",
        "s3-side",
        "hybrid",
    ] {
        assert_eq!(run_variant(&ctx, &q, variant), want, "{variant}");
    }
}

#[test]
fn every_variant_agrees_on_two_grouping_columns() {
    let (ctx, t) = setup();
    let q = query(&t, &["k", "k2"]);
    let want = reference(2);
    for variant in ["server-side", "cached-local", "filtered", "s3-side"] {
        assert_eq!(run_variant(&ctx, &q, variant), want, "{variant}");
    }
}

#[test]
fn every_strategy_agrees_through_sql() {
    let (ctx, t) = setup();
    for (cols, width) in [("k", 1), ("k, k2", 2)] {
        let sql = format!("SELECT {cols}, COUNT(*), COUNT(v), SUM(v) FROM t GROUP BY {cols}");
        let want = reference(width);
        for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
            let out = execute_sql(&ctx, &t, &sql, strategy).unwrap();
            assert_eq!(out.rows, want, "{sql} under {strategy:?}");
            assert_eq!(out.metrics.usage(), out.billed, "{sql} under {strategy:?}");
        }
    }
}

/// `COUNT(*)` keeps the output name it always had: the planner used to
/// rewrite it to `COUNT(<first group column>)`.
#[test]
fn count_star_keeps_its_output_column_name() {
    let (ctx, t) = setup();
    let sql = "SELECT k2, COUNT(*), SUM(v) FROM t GROUP BY k2";
    for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
        let out = execute_sql(&ctx, &t, sql, strategy).unwrap();
        assert_eq!(out.schema.names(), vec!["k2", "count_k2", "sum_v"]);
    }
}

/// A hybrid tail that has to carry the NULL-key rows says so in SQL; a
/// table whose exact statistics rule NULL keys out ships the statement
/// it always shipped (so its `expr_terms`, and every modeled metric
/// with them, stay put).
#[test]
fn hybrid_keeps_null_keys_in_the_tail_only_where_they_can_occur() {
    let terms_of_tail = |rows: &[Row]| {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let t = upload_csv_table(&store, "b", "t", &schema, rows, 1_000).unwrap();
        let ctx = QueryContext::new(store);
        let q = GroupByQuery {
            table: t,
            group_cols: vec!["k".into()],
            aggs: vec![(AggFunc::Sum, Some("v".into()))],
            predicate: None,
        };
        let ran = plan::execute(&ctx.scoped(), &leaf(&q, "hybrid")).unwrap();
        let tail = ran
            .metrics
            .groups
            .iter()
            .flat_map(|g| &g.phases)
            .find(|p| p.label == "hybrid: server-side aggregation")
            .expect("two populous groups are pushed, the rest is the tail");
        (ran.rows.len(), tail.stats.expr_terms)
    };
    // Keys 0 and 1 hold 45 % of the rows each and are pushed; the tail
    // is keys 2..=11, one row each — and, in the second table, a NULL.
    let mut rows: Vec<Row> = (0..100i64)
        .map(|i| {
            let k = if i < 90 { i % 2 } else { i - 88 };
            Row::new(vec![Value::Int(k), Value::Int(i)])
        })
        .collect();
    let (groups, terms) = terms_of_tail(&rows);
    assert_eq!(groups, 12);
    assert_eq!(terms, 2, "k NOT IN (0, 1): one term per listed value");
    rows[99] = Row::new(vec![Value::Null, Value::Int(99)]);
    let (groups, terms) = terms_of_tail(&rows);
    assert_eq!(groups, 12, "the NULL group replaces key 11");
    assert_eq!(terms, 3, "… OR k IS NULL");
}

#[test]
fn group_by_without_aggregates_runs_under_every_strategy() {
    let (ctx, t) = setup();
    let sql = "SELECT k FROM t GROUP BY k";
    let want: Vec<Row> = reference(1)
        .iter()
        .map(|g| Row::new(vec![g[0].clone()]))
        .collect();
    for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
        let (out, ex) = execute_sql_verbose(&ctx, &t, sql, strategy).unwrap();
        assert_eq!(out.rows, want, "{strategy:?}");
        // No aggregates, no CASE-WHEN statement: those variants are not
        // candidates, and Pushdown falls through to `filtered`.
        for c in &ex.candidates {
            assert!(
                !["s3-side", "hybrid"].contains(&c.algorithm),
                "{strategy:?} weighed {}",
                c.algorithm
            );
        }
        if strategy == Strategy::Pushdown {
            assert_eq!(
                ex.kind,
                PlanKind::GroupBy {
                    algorithm: "filtered"
                }
            );
        }
    }
}
