//! Differential tests for vectorized columnar execution: with
//! `QueryContext::with_columnar` toggled, the columnar path must be
//! *indistinguishable* from the row path — identical rows, identical
//! per-phase metrics (including CPU charges), identical bills, and
//! identical EXPLAIN trees — over dictionary-encoded, NULL-heavy and
//! mixed-chunk ColumnarLite tables and over the same rows stored as CSV
//! (whose referenced fields decode straight into column vectors), at any
//! batch size.

use proptest::prelude::*;
use pushdown_bench::run_candidate;
use pushdowndb::common::perf::PhaseStats;
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::{
    execute_sql_verbose, upload_columnar_table, upload_csv_table, OpReport, QueryContext,
    QueryMetrics, Strategy, Table,
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

fn assert_reports_equal(a: &OpReport, b: &OpReport, what: &str) {
    assert_eq!(a.label, b.label, "{what}: operator label");
    assert_eq!(a.actual, b.actual, "{what}: actual of `{}`", a.label);
    assert_eq!(
        a.predicted, b.predicted,
        "{what}: predicted of `{}`",
        a.label
    );
    assert_eq!(a.children.len(), b.children.len(), "{what}: child count");
    for (ca, cb) in a.children.iter().zip(&b.children) {
        assert_reports_equal(ca, cb, what);
    }
}

/// Run one statement with the columnar path off and on; everything
/// observable must agree exactly, and each mode's bill must equal its
/// own metrics.
fn assert_modes_agree(ctx: &QueryContext, t: &Table, sql: &str, strategy: Strategy) {
    let row_ctx = ctx.clone().with_columnar(false);
    let col_ctx = ctx.clone().with_columnar(true);
    let (a, ea) = execute_sql_verbose(&row_ctx, t, sql, strategy).unwrap();
    let (b, eb) = execute_sql_verbose(&col_ctx, t, sql, strategy).unwrap();
    assert_eq!(a.rows, b.rows, "{sql}: rows");
    assert_metrics_equal(&a.metrics, &b.metrics, sql);
    assert_eq!(a.billed, b.billed, "{sql}: bill");
    // The ledger and the attached metrics agree, field for field, in
    // both modes.
    for (out, mode) in [(&a, "row"), (&b, "columnar")] {
        let u = out.metrics.usage();
        assert_eq!(u, out.billed, "{sql} [{mode}]: metrics vs ledger");
    }
    // EXPLAIN trees — actuals and predictions — are identical too.
    match (&ea.operators, &eb.operators) {
        (Some(ra), Some(rb)) => assert_reports_equal(ra, rb, sql),
        (None, None) => {}
        _ => panic!("{sql}: one mode produced an operator report, the other did not"),
    }
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

/// Columnar ≡ row across every supported query shape and strategy, on a
/// dict-encoded, NULL-heavy, multi-chunk table.
#[test]
fn columnar_execution_is_indistinguishable_from_row_execution() {
    for format in FORMATS {
        let (ctx, t) = table_ctx(format, 900, 170, 47);
        for sql in QUERIES {
            for strategy in [Strategy::Baseline, Strategy::Adaptive] {
                assert_modes_agree(&ctx, &t, sql, strategy);
            }
        }
    }
}

/// The agreement holds through the segment-cache read path, cold and
/// warm. Each mode gets its own store and cache (uploads are
/// deterministic), so both observe the same cold-fill then warm-hit
/// progression rather than the row pass pre-warming the columnar one.
#[test]
fn columnar_cached_execution_matches_row_execution() {
    let run = |format: Format, columnar: bool, sql: &str| {
        let (ctx, t) = table_ctx(format, 600, 140, 31);
        let ctx = ctx
            .with_cache(1 << 30)
            .with_cache_reads(true)
            .with_columnar(columnar);
        let cold = execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline)
            .unwrap()
            .0;
        let warm = execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline)
            .unwrap()
            .0;
        (cold, warm)
    };
    for sql in [
        "SELECT * FROM t WHERE k < 100",
        "SELECT name, COUNT(*) FROM t GROUP BY name",
    ] {
        for format in FORMATS {
            let (cold_row, warm_row) = run(format, false, sql);
            let (cold_col, warm_col) = run(format, true, sql);
            for ((a, b), phase) in [
                ((&cold_row, &cold_col), "cold"),
                ((&warm_row, &warm_col), "warm"),
            ] {
                let what = format!("{sql} on {format:?} [{phase}]");
                assert_eq!(a.rows, b.rows, "{what}: rows");
                assert_metrics_equal(&a.metrics, &b.metrics, &what);
                assert_eq!(a.billed, b.billed, "{what}: bill");
            }
            // Warm passes actually hit the cache: no billable re-reads.
            assert_eq!(warm_col.billed.requests, 0, "{sql}: warm requests");
            assert_eq!(warm_col.billed.plain_bytes, 0, "{sql}: warm plain bytes");
        }
    }
}

/// Batch capacity is an execution detail: results AND stats of the
/// columnar path are invariant to it (and stay equal to the row path).
#[test]
fn columnar_path_is_batch_size_invariant() {
    for format in FORMATS {
        let (ctx, t) = table_ctx(format, 700, 160, 53);
        let sql = "SELECT name, SUM(bal), COUNT(*) FROM t WHERE k < 500 GROUP BY name";
        let reference = execute_sql_verbose(
            &ctx.clone().with_columnar(true),
            &t,
            sql,
            Strategy::Baseline,
        )
        .unwrap()
        .0;
        for batch_rows in [1usize, 17, 64, 100_000] {
            let ctx2 = ctx.clone().with_batch_rows(batch_rows);
            assert_modes_agree(&ctx2, &t, sql, Strategy::Baseline);
            let got = execute_sql_verbose(&ctx2.with_columnar(true), &t, sql, Strategy::Baseline)
                .unwrap()
                .0;
            assert_eq!(got.rows, reference.rows, "batch_rows={batch_rows}");
            assert_metrics_equal(
                &got.metrics,
                &reference.metrics,
                &format!("{format:?}, batch_rows={batch_rows}"),
            );
        }
    }
}

/// The three algorithm families' server-side paths: exact stats parity
/// between the row and columnar kernels — the filter and group-by as the
/// planner's `server-side` candidates by name, top-K driven directly.
#[test]
fn algo_server_side_paths_agree_exactly() {
    for format in FORMATS {
        algo_server_side_paths_agree_on(format);
    }
}

fn algo_server_side_paths_agree_on(format: Format) {
    let (ctx, t) = table_ctx(format, 800, 190, 37);
    let row_ctx = ctx.clone().with_columnar(false);
    let col_ctx = ctx.clone().with_columnar(true);

    let server = |ctx, sql| run_candidate(ctx, &t, sql, "server-side", None).unwrap();
    let sql = "SELECT k, name FROM t WHERE bal > 10 AND name <> 'name-4'";
    let (a, b) = (server(&row_ctx, sql), server(&col_ctx, sql));
    assert_eq!(a.rows, b.rows, "filter rows");
    assert_metrics_equal(&a.metrics, &b.metrics, "filter");
    assert_eq!(a.billed, b.billed, "filter bill");

    let sql = "SELECT name, SUM(bal), COUNT(k), MIN(d), MAX(name) FROM t \
               WHERE k < 600 GROUP BY name";
    let (a, b) = (server(&row_ctx, sql), server(&col_ctx, sql));
    assert_eq!(a.rows, b.rows, "groupby rows");
    assert_metrics_equal(&a.metrics, &b.metrics, "groupby");
    assert_eq!(a.billed, b.billed, "groupby bill");

    for (col, asc, k) in [("bal", true, 20), ("name", false, 7), ("maybe", true, 15)] {
        let order = if asc { "ASC" } else { "DESC" };
        let sql = format!("SELECT * FROM t ORDER BY {col} {order} LIMIT {k}");
        let top = |ctx| run_candidate(ctx, &t, &sql, "server-side", None).unwrap();
        let (a, b) = (top(&row_ctx), top(&col_ctx));
        assert_eq!(a.rows, b.rows, "topk({col}) rows");
        assert_metrics_equal(&a.metrics, &b.metrics, &format!("topk({col})"));
        assert_eq!(a.billed, b.billed, "topk({col}) bill");
    }
}

/// Scan-level parity: the reported footprint never depends on the
/// execution representation, and ColumnarLite parse bytes are reported
/// by BOTH paths (they are a property of the stored format).
#[test]
fn scan_stats_report_columnar_parse_bytes_in_both_modes() {
    let (ctx, t) = table_ctx(Format::Columnar, 500, 120, 29);
    let sql = "SELECT * FROM t WHERE k < 50";
    for columnar in [false, true] {
        let out = execute_sql_verbose(
            &ctx.clone().with_columnar(columnar),
            &t,
            sql,
            Strategy::Baseline,
        )
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
        assert!(total.cl_parse_bytes > 0, "columnar={columnar}");
        assert_eq!(
            total.cl_parse_bytes, total.plain_bytes,
            "columnar={columnar}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary dict/NULL-heavy tables and layouts, as ColumnarLite and
    /// as CSV: columnar ≡ row for a predicate sweep covering vectorized
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
                let (a, _) = execute_sql_verbose(
                    &ctx.clone().with_columnar(false), &t, sql, Strategy::Baseline).unwrap();
                let (b, _) = execute_sql_verbose(
                    &ctx.clone().with_columnar(true), &t, sql, Strategy::Baseline).unwrap();
                prop_assert_eq!(&a.rows, &b.rows, "{}", sql);
                assert_metrics_equal(&a.metrics, &b.metrics, sql);
                prop_assert_eq!(a.billed, b.billed, "{}", sql);
            }
        }
    }
}
