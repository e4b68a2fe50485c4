//! Differential tests for local execution on typed column vectors: over
//! dictionary-encoded, NULL-heavy and mixed-chunk ColumnarLite tables and
//! over the same rows stored as CSV (whose referenced fields decode
//! straight into column vectors), the local scan returns the rows the S3
//! Select engine returns for the same statement — a reference that
//! shares no decode or evaluation code with it — every run's metrics
//! equal its bill, and rows, per-phase metrics (including CPU charges)
//! and bills do not depend on the batch size.

use proptest::prelude::*;
use pushdown_bench::run_candidate;
use pushdowndb::common::perf::PhaseStats;
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::{
    execute_sql_verbose, upload_columnar_table, upload_csv_table, QueryContext, QueryMetrics,
    Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("name", DataType::Str),
        ("bal", DataType::Float),
        ("d", DataType::Date),
        ("flag", DataType::Bool),
        ("maybe", DataType::Int),
    ])
}

/// Mixed rows: a dictionary-eligible string column (5 distinct values),
/// NULLs sprinkled through every column, and a NULL-heavy tail column.
fn rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let null_at = |m: usize| i % m == m - 1;
            Row::new(vec![
                if null_at(11) {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                },
                if null_at(7) {
                    Value::Null
                } else {
                    Value::Str(format!("name-{}", i % 5))
                },
                if null_at(13) {
                    Value::Null
                } else {
                    Value::Float(i as f64 / 3.0 - 40.0)
                },
                if null_at(17) {
                    Value::Null
                } else {
                    Value::Date(18_000 + (i % 400) as i32)
                },
                if null_at(5) {
                    Value::Null
                } else {
                    Value::Bool(i % 3 == 0)
                },
                if i % 3 == 0 {
                    Value::Int((i % 10) as i64)
                } else {
                    Value::Null
                },
            ])
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Format {
    Columnar,
    Csv,
}

const FORMATS: [Format; 2] = [Format::Columnar, Format::Csv];

/// The same rows in either storage format. ColumnarLite gets small row
/// groups (`rows_per_group`), so partitions hold several chunks and
/// dictionary encoding kicks in.
fn table_ctx(
    format: Format,
    n: usize,
    per_part: usize,
    rows_per_group: usize,
) -> (QueryContext, Table) {
    let store = S3Store::new();
    let t = match format {
        Format::Columnar => upload_columnar_table(
            &store,
            "b",
            "t",
            &schema(),
            &rows(n),
            per_part,
            WriterOptions {
                rows_per_group,
                compress: true,
            },
        ),
        Format::Csv => upload_csv_table(&store, "b", "t", &schema(), &rows(n), per_part),
    }
    .unwrap();
    (QueryContext::new(store), t)
}

fn assert_metrics_equal(a: &QueryMetrics, b: &QueryMetrics, what: &str) {
    assert_eq!(a.groups.len(), b.groups.len(), "{what}: phase group count");
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.phases.len(), gb.phases.len(), "{what}: phase count");
        for (pa, pb) in ga.phases.iter().zip(&gb.phases) {
            assert_eq!(pa.label, pb.label, "{what}: phase label");
            assert_eq!(pa.stats, pb.stats, "{what}: phase `{}`", pa.label);
        }
    }
}

/// `rows` in a canonical order, for statements whose row order is not
/// fixed (a `GROUP BY` without `ORDER BY` emits groups first-seen
/// locally and sorted by key from Select).
fn canonical(rows: &[Row], sql: &str) -> Vec<Row> {
    let mut rows = rows.to_vec();
    if !sql.contains("ORDER BY") {
        rows.sort_by(|a, b| {
            let pairs = a.values().iter().zip(b.values());
            let ord = pairs.map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne());
            ord.unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    rows
}

/// The same rows, floats within a summation order's rounding: a pushed
/// aggregate adds partition by partition, the local one row by row.
fn assert_rows_agree(local: &[Row], select: &[Row], what: &str) {
    assert_eq!(local.len(), select.len(), "{what}: row count");
    for (x, y) in local.iter().zip(select) {
        assert_eq!(x.len(), y.len(), "{what}: width");
        for (vx, vy) in x.values().iter().zip(y.values()) {
            match (vx, vy) {
                (Value::Float(fx), Value::Float(fy)) => assert!(
                    (fx - fy).abs() <= 1e-9 * (1.0 + fx.abs().max(fy.abs())),
                    "{what}: {fx} vs {fy}"
                ),
                _ => assert_eq!(vx, vy, "{what}"),
            }
        }
    }
}

/// The rows S3 Select returns for `sql` on `t`, its bill equal to its
/// metrics.
fn select_rows(ctx: &QueryContext, t: &Table, sql: &str) -> Vec<Row> {
    let (out, _) = execute_sql_verbose(ctx, t, sql, Strategy::Pushdown).unwrap();
    assert_eq!(
        out.metrics.usage(),
        out.billed,
        "{sql} [Select]: metrics vs ledger"
    );
    canonical(&out.rows, sql)
}

/// Run one statement under `strategy` and check it against S3 Select:
/// the same rows, and the run's bill equal to its own metrics.
fn assert_agrees_with_select(ctx: &QueryContext, t: &Table, sql: &str, strategy: Strategy) {
    let (out, _) = execute_sql_verbose(ctx, t, sql, strategy).unwrap();
    let what = format!("{sql} [{strategy:?}]");
    assert_eq!(out.metrics.usage(), out.billed, "{what}: metrics vs ledger");
    let select = select_rows(ctx, t, sql);
    assert_rows_agree(&canonical(&out.rows, sql), &select, &what);
}

const QUERIES: &[&str] = &[
    "SELECT * FROM t WHERE k < 120",
    "SELECT name, bal FROM t WHERE bal >= 0 AND flag = true",
    "SELECT * FROM t WHERE name = 'name-2'",
    "SELECT * FROM t WHERE name IN ('name-0', 'name-3') AND k BETWEEN 40 AND 400",
    "SELECT * FROM t WHERE maybe IS NULL AND d > '2019-06-01'",
    "SELECT * FROM t WHERE NOT (flag = false) OR bal < -20",
    // Shapes the vectorized compiler cannot handle — exercise the
    // row-at-a-time fallback kernel on columnar batches.
    "SELECT * FROM t WHERE k % 7 = 3",
    "SELECT * FROM t WHERE name LIKE 'name-%' AND k + 1 > 100",
    "SELECT SUM(bal), COUNT(*), MIN(k), MAX(name), AVG(bal) FROM t WHERE k >= 50",
    "SELECT COUNT(maybe) FROM t",
    "SELECT name, COUNT(*), SUM(bal), MIN(d), MAX(k) FROM t GROUP BY name",
    "SELECT flag, AVG(bal) FROM t WHERE k < 300 GROUP BY flag",
    "SELECT * FROM t ORDER BY bal LIMIT 25",
    "SELECT * FROM t ORDER BY name DESC LIMIT 10",
];

/// Local ≡ Select across every supported query shape and strategy, on a
/// dict-encoded, NULL-heavy, multi-chunk table.
#[test]
fn columnar_execution_is_indistinguishable_from_row_execution() {
    for format in FORMATS {
        let (ctx, t) = table_ctx(format, 900, 170, 47);
        for sql in QUERIES {
            for strategy in [Strategy::Baseline, Strategy::Adaptive] {
                assert_agrees_with_select(&ctx, &t, sql, strategy);
            }
        }
    }
}

/// The agreement holds through the segment-cache read path, cold and
/// warm, and the warm pass bills nothing.
#[test]
fn columnar_cached_execution_matches_row_execution() {
    for sql in [
        "SELECT * FROM t WHERE k < 100",
        "SELECT name, COUNT(*) FROM t GROUP BY name",
    ] {
        for format in FORMATS {
            let (ctx, t) = table_ctx(format, 600, 140, 31);
            let select = select_rows(&ctx, &t, sql);
            let ctx = ctx.with_cache(1 << 30).with_cache_reads(true);
            for phase in ["cold", "warm"] {
                let (out, _) = execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
                let what = format!("{sql} on {format:?} [{phase}]");
                assert_rows_agree(&canonical(&out.rows, sql), &select, &what);
                assert_eq!(out.metrics.usage(), out.billed, "{what}: metrics vs ledger");
                if phase == "warm" {
                    // Warm passes actually hit the cache: no billable
                    // re-reads.
                    assert_eq!(out.billed.requests, 0, "{what}: requests");
                    assert_eq!(out.billed.plain_bytes, 0, "{what}: plain bytes");
                }
            }
        }
    }
}

/// Batch capacity is an execution detail: results AND stats of the
/// local path are invariant to it (and agree with S3 Select).
#[test]
fn columnar_path_is_batch_size_invariant() {
    for format in FORMATS {
        let (ctx, t) = table_ctx(format, 700, 160, 53);
        let sql = "SELECT name, SUM(bal), COUNT(*) FROM t WHERE k < 500 GROUP BY name";
        let reference = execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline)
            .unwrap()
            .0;
        for batch_rows in [1usize, 17, 64, 100_000] {
            let ctx2 = ctx.clone().with_batch_rows(batch_rows);
            assert_agrees_with_select(&ctx2, &t, sql, Strategy::Baseline);
            let got = execute_sql_verbose(&ctx2, &t, sql, Strategy::Baseline)
                .unwrap()
                .0;
            assert_eq!(got.rows, reference.rows, "batch_rows={batch_rows}");
            assert_metrics_equal(
                &got.metrics,
                &reference.metrics,
                &format!("{format:?}, batch_rows={batch_rows}"),
            );
            assert_eq!(got.billed, reference.billed, "batch_rows={batch_rows}");
        }
    }
}

/// The three algorithm families' server-side paths — the filter,
/// group-by and top-K as the planner's `server-side` candidates by name —
/// return S3 Select's rows, each billing what its metrics say.
#[test]
fn algo_server_side_paths_agree_exactly() {
    for format in FORMATS {
        algo_server_side_paths_agree_on(format);
    }
}

fn algo_server_side_paths_agree_on(format: Format) {
    let (ctx, t) = table_ctx(format, 800, 190, 37);
    let server = |sql: &str| {
        let out = run_candidate(&ctx, &t, sql, "server-side", None).unwrap();
        assert_eq!(out.metrics.usage(), out.billed, "{sql}: metrics vs ledger");
        canonical(&out.rows, sql)
    };
    let sql = "SELECT k, name FROM t WHERE bal > 10 AND name <> 'name-4'";
    assert_rows_agree(&server(sql), &select_rows(&ctx, &t, sql), "filter");

    let sql = "SELECT name, SUM(bal), COUNT(k), MIN(d), MAX(name) FROM t \
               WHERE k < 600 GROUP BY name";
    assert_rows_agree(&server(sql), &select_rows(&ctx, &t, sql), "groupby");

    for (col, asc, k) in [("bal", true, 20), ("name", false, 7), ("maybe", true, 15)] {
        let order = if asc { "ASC" } else { "DESC" };
        let sql = format!("SELECT * FROM t ORDER BY {col} {order} LIMIT {k}");
        let what = format!("topk({col})");
        assert_rows_agree(&server(&sql), &select_rows(&ctx, &t, &sql), &what);
    }
}

/// Scan-level: ColumnarLite parse bytes are reported by both ways of
/// getting the bytes — a GET and a cold cache read — for they are a
/// property of the stored format, and match the bytes read.
#[test]
fn scan_stats_report_columnar_parse_bytes_in_both_modes() {
    let (ctx, t) = table_ctx(Format::Columnar, 500, 120, 29);
    let sql = "SELECT * FROM t WHERE k < 50";
    for cached in [false, true] {
        let ctx = match cached {
            true => ctx.clone().with_cache(1 << 30).with_cache_reads(true),
            false => ctx.clone(),
        };
        let out = execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline)
            .unwrap()
            .0;
        let total: PhaseStats = {
            let mut s = PhaseStats::default();
            for g in &out.metrics.groups {
                for p in &g.phases {
                    s.merge(&p.stats);
                }
            }
            s
        };
        assert!(total.cl_parse_bytes > 0, "cached={cached}");
        assert_eq!(total.cl_parse_bytes, total.plain_bytes, "cached={cached}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary dict/NULL-heavy tables and layouts, as ColumnarLite and
    /// as CSV: local ≡ Select for a predicate sweep covering vectorized
    /// and fallback shapes.
    #[test]
    fn columnar_differential_holds_on_arbitrary_tables(
        vals in proptest::collection::vec((0i64..50, any::<bool>(), 0u8..4), 1..250),
        per_part in 1usize..80,
        rows_per_group in 3usize..60,
        compress in any::<bool>(),
    ) {
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("s", DataType::Str),
            ("v", DataType::Int),
        ]);
        let table_rows: Vec<Row> = vals
            .iter()
            .map(|(v, null_s, tag)| {
                Row::new(vec![
                    Value::Int(v % 7),
                    if *null_s {
                        Value::Null
                    } else {
                        Value::Str(format!("tag-{tag}"))
                    },
                    Value::Int(*v),
                ])
            })
            .collect();
        let upload = |csv: bool| {
            let store = S3Store::new();
            let t = if csv {
                upload_csv_table(&store, "p", "t", &schema, &table_rows, per_part)
            } else {
                upload_columnar_table(
                    &store, "p", "t", &schema, &table_rows, per_part,
                    WriterOptions { rows_per_group, compress },
                )
            };
            (QueryContext::new(store), t.unwrap())
        };
        for (ctx, t) in [upload(false), upload(true)] {
            for sql in [
                "SELECT * FROM t WHERE v >= 25",
                "SELECT * FROM t WHERE s = 'tag-2' OR s IS NULL",
                "SELECT * FROM t WHERE v % 2 = 1",
                "SELECT g, COUNT(*), SUM(v), MAX(s) FROM t GROUP BY g",
                "SELECT * FROM t ORDER BY v LIMIT 9",
            ] {
                let (a, _) = execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
                prop_assert_eq!(a.metrics.usage(), a.billed, "{}", sql);
                prop_assert_eq!(canonical(&a.rows, sql), select_rows(&ctx, &t, sql), "{}", sql);
            }
        }
    }
}
