//! NULLs and §VI group-by (ISSUE 20): every algorithm variant and every
//! strategy returns the same rows when grouping keys and aggregate
//! inputs hold NULLs — and (ISSUE 22) so does every named candidate of
//! the filter and scalar-aggregate statements over the same table, on
//! CSV and ColumnarLite, with the cache cold and warm.
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

use pushdown_bench::run_candidate;
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::planner::{execute_sql_verbose, lower, PlanKind};
use pushdowndb::core::{
    execute_sql, upload_columnar_table, upload_csv_table, QueryContext, Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::sql::parse_query;

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

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("k2", DataType::Int),
        ("v", DataType::Int),
    ])
}

fn setup() -> (QueryContext, Table) {
    let store = S3Store::new();
    let t = upload_csv_table(&store, "b", "t", &schema(), &null_rows(), 16).unwrap();
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

/// The statement `reference(group_cols.len())` answers.
fn group_by_sql(cols: &str) -> String {
    format!("SELECT {cols}, COUNT(*), COUNT(v), SUM(v) FROM t GROUP BY {cols}")
}

/// Run the planner's candidate `name` of `sql`, metrics == ledger.
fn run_variant(ctx: &QueryContext, table: &Table, sql: &str, name: &str) -> Vec<Row> {
    let out = run_candidate(ctx, table, sql, name, None).unwrap();
    assert_eq!(
        out.metrics.usage(),
        out.billed,
        "{sql} {name}: usage == bill"
    );
    out.rows
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
    let want = reference(1);
    for variant in [
        "server-side",
        "cached-local",
        "filtered",
        "s3-side",
        "hybrid",
    ] {
        assert_eq!(
            run_variant(&ctx, &t, &group_by_sql("k"), variant),
            want,
            "{variant}"
        );
    }
}

#[test]
fn every_variant_agrees_on_two_grouping_columns() {
    let (ctx, t) = setup();
    let want = reference(2);
    for variant in ["server-side", "cached-local", "filtered", "s3-side"] {
        assert_eq!(
            run_variant(&ctx, &t, &group_by_sql("k, k2"), variant),
            want,
            "{variant}"
        );
    }
}

#[test]
fn every_strategy_agrees_through_sql() {
    let (ctx, t) = setup();
    for (cols, width) in [("k", 1), ("k, k2", 2)] {
        let sql = group_by_sql(cols);
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
        let sql = "SELECT k, SUM(v) FROM t GROUP BY k";
        let ran = run_candidate(&ctx, &t, sql, "hybrid", None).unwrap();
        let tail = ran
            .metrics
            .groups
            .iter()
            .flat_map(|g| &g.phases)
            .find(|p| p.label.starts_with("hybrid: server-side aggregation"))
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

/// Every candidate the lineup offers `sql` with a cache installed — the
/// one-scan trees (`cached-local` cold, then warm; `server-side`; the
/// pushed one) and the staged ones, §X's native group-by included — on
/// CSV and on ColumnarLite: rows equal to `server-side`,
/// metrics == ledger on each. Returns the CSV rows.
fn every_candidate_agrees(sql: &str) -> Vec<Row> {
    every_candidate_agrees_on(&schema(), &null_rows(), sql)
}

/// [`every_candidate_agrees`] over the table `t` of `schema` and `rows`.
fn every_candidate_agrees_on(schema: &Schema, rows: &[Row], sql: &str) -> Vec<Row> {
    let mut answers = Vec::new();
    for columnar in [false, true] {
        let store = S3Store::new();
        let t = if columnar {
            let opts = WriterOptions::default();
            upload_columnar_table(&store, "b", "t", schema, rows, 16, opts).unwrap()
        } else {
            upload_csv_table(&store, "b", "t", schema, rows, 16).unwrap()
        };
        let mut ctx = QueryContext::new(store).with_cache(1 << 20);
        ctx.engine = ctx
            .engine
            .clone()
            .with_extensions(pushdowndb::select::EngineExtensions {
                native_group_by: true,
                ..Default::default()
            });
        let (_, candidates) = lower(&ctx, &t, &parse_query(sql).unwrap()).unwrap();
        let names: Vec<&str> = candidates.iter().map(|(name, _)| *name).collect();
        assert_eq!(names[..2], ["cached-local", "server-side"], "{sql}");
        assert!(names.len() >= 3, "{sql}: {names:?}");
        let want = run_variant(&ctx, &t, sql, "server-side");
        for name in names {
            let got = run_variant(&ctx, &t, sql, name);
            assert_eq!(got, want, "{sql} {name} (columnar: {columnar})");
            if name == "cached-local" {
                let warm = run_candidate(&ctx, &t, sql, name, None).unwrap();
                assert_eq!(warm.billed.plain_bytes, 0, "{sql}: the second run is warm");
                assert_eq!(
                    warm.metrics.usage(),
                    warm.billed,
                    "{sql}: warm usage == bill"
                );
                assert_eq!(warm.rows, want, "{sql} warm {name}");
            }
        }
        answers.push(want);
    }
    assert_eq!(answers[0], answers[1], "{sql}: CSV vs ColumnarLite");
    answers.swap_remove(0)
}

#[test]
fn filter_candidates_agree_on_nulls() {
    let count = |sql| every_candidate_agrees(sql).len();
    // `v` is NULL in every 5th row; `k IS NULL` in every 4th.
    assert_eq!(count("SELECT * FROM t WHERE v IS NULL"), 8);
    assert_eq!(count("SELECT k, v FROM t WHERE k IS NULL"), 10);
    // Comparisons and NOT IN are never true of a NULL.
    assert_eq!(count("SELECT * FROM t WHERE k = 1"), 10);
    assert_eq!(count("SELECT v FROM t WHERE k NOT IN (0, 1)"), 10);
    // A projected column that holds NULLs, no WHERE at all.
    let rows = every_candidate_agrees("SELECT k2, v FROM t");
    assert_eq!(rows.len(), 40);
    assert_eq!(rows.iter().filter(|r| r[0].is_null()).count(), 5);
    assert_eq!(rows.iter().filter(|r| r[1].is_null()).count(), 8);
}

#[test]
fn scalar_aggregate_candidates_agree_on_nulls() {
    let one = |sql| {
        let mut rows = every_candidate_agrees(sql);
        assert_eq!(rows.len(), 1, "{sql}: one row, even over empty input");
        rows.remove(0)
    };
    // A part-NULL column: NULLs are skipped, COUNT(*) counts rows.
    let r = one("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), AVG(v) FROM t");
    let vs: Vec<i64> = (0..40).filter(|i| i % 5 != 4).collect();
    let sum: i64 = vs.iter().sum();
    assert_eq!(r[0], Value::Int(40));
    assert_eq!(r[1], Value::Int(32));
    assert_eq!(r[2], Value::Int(sum));
    assert_eq!(r[3], Value::Int(0));
    assert_eq!(r[4], Value::Float(sum as f64 / 32.0));
    // An all-NULL column: COUNT is 0, the others NULL.
    let r = one("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), AVG(v) FROM t WHERE v IS NULL");
    assert_eq!(r[0], Value::Int(8));
    assert_eq!(r[1], Value::Int(0));
    assert!(r[2].is_null() && r[3].is_null() && r[4].is_null(), "{r:?}");
    // Empty input.
    let r = one("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), AVG(v) FROM t WHERE k > 100");
    assert_eq!(r[0], Value::Int(0));
    assert_eq!(r[1], Value::Int(0));
    assert!(r[2].is_null() && r[3].is_null() && r[4].is_null(), "{r:?}");
}

#[test]
fn group_by_candidates_agree_on_nulls() {
    assert_eq!(every_candidate_agrees(&group_by_sql("k")), reference(1));
    assert_eq!(every_candidate_agrees(&group_by_sql("k, k2")), reference(2));
    // An expression argument: the CASE-WHEN leaves are not offered, the
    // trees carry a Project under the GroupBy.
    let rows =
        every_candidate_agrees("SELECT k, SUM(v * 2), MAX(k2) FROM t WHERE v > 3 GROUP BY k");
    assert_eq!(rows.len(), 4);
    assert!(rows[0][0].is_null(), "the NULL group sorts first");
}

/// An empty string is NULL on both formats. A CSV object stores `''` and
/// NULL as the same empty field, and a Select response is CSV whatever
/// the object's format (§IX), so the ColumnarLite loader writes `''` as
/// NULL too: a local decode and a pushed scan then read the same table.
#[test]
fn empty_strings_read_as_null_under_every_candidate() {
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("s", DataType::Str)]);
    let rows: Vec<Row> = (0..30i64)
        .map(|i| {
            let s = match i % 5 {
                0 => Value::Str(String::new()),
                1 => Value::Null,
                2 => Value::Str("%".into()),
                3 => Value::Str("x".into()),
                _ => Value::Str("y".into()),
            };
            Row::new(vec![Value::Int(i), s])
        })
        .collect();
    let agree = |sql| every_candidate_agrees_on(&schema, &rows, sql);
    assert!(agree("SELECT a FROM t WHERE s = ''").is_empty());
    assert_eq!(
        agree("SELECT MIN(s), MAX(s) FROM t"),
        [Row::new(vec![
            Value::Str("%".into()),
            Value::Str("y".into())
        ])]
    );
    let groups = agree("SELECT s, COUNT(*) FROM t GROUP BY s");
    assert_eq!(groups.len(), 4, "'' is the NULL group: {groups:?}");
    assert_eq!(groups[0], Row::new(vec![Value::Null, Value::Int(12)]));
    let first = agree("SELECT * FROM t ORDER BY s LIMIT 4");
    assert!(first.iter().all(|r| r[1].is_null()), "{first:?}");
    assert_eq!(agree("SELECT a FROM t WHERE s < 'y'").len(), 12);
}
