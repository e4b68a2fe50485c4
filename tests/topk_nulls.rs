//! One statement, one answer (ISSUE 24): `ORDER BY c LIMIT k` is the
//! first `k` rows of a stable sort by [`Value::total_cmp`] — NULL keys
//! are rows (first ascending, last descending), ties keep table order —
//! whichever candidate runs it, with or without a `WHERE`, at every
//! batch size and scan-pool width. The table has NULL order keys in
//! every fourth row and five heavily tied values in the others, over
//! three partitions; the oracle never calls the engine.

use pushdown_bench::run_candidate;
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::planner::{execute_sql, lower};
use pushdowndb::core::{upload_columnar_table, upload_csv_table, QueryContext, Strategy, Table};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::sql::parse_query;

const ROWS_PER_PARTITION: usize = 16;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("c", DataType::Int),
        ("s", DataType::Str),
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
            Row::new(vec![Value::Int(i), c, Value::Str(format!("row-{i}"))])
        })
        .collect()
}

/// The answer, computed without the engine.
fn oracle(asc: bool, k: usize) -> Vec<Row> {
    let mut rows = rows();
    rows.sort_by(|a, b| match asc {
        true => a[1].total_cmp(&b[1]),
        false => b[1].total_cmp(&a[1]),
    });
    rows.truncate(k);
    rows
}

fn table(store: &S3Store, columnar: bool) -> Table {
    if columnar {
        let options = WriterOptions {
            rows_per_group: 5,
            compress: true,
        };
        upload_columnar_table(
            store,
            "b",
            "t",
            &schema(),
            &rows(),
            ROWS_PER_PARTITION,
            options,
        )
    } else {
        upload_csv_table(store, "b", "t", &schema(), &rows(), ROWS_PER_PARTITION)
    }
    .unwrap()
}

/// Every named candidate and every strategy, on both formats, cache
/// cold and warm, with and without a `WHERE TRUE`.
#[test]
fn every_candidate_of_order_by_limit_returns_the_stable_sort_truncated() {
    for columnar in [false, true] {
        let store = S3Store::new();
        let t = table(&store, columnar);
        for warm in [false, true] {
            // Installing a cache replaces the store's: every statement of
            // the cold pass starts on an empty one (`cached-local` runs
            // first), the warm pass keeps one that holds the table.
            let fresh = || QueryContext::new(store.clone()).with_cache(1 << 20);
            let warmed = fresh();
            for (asc, k) in [true, false]
                .into_iter()
                .flat_map(|asc| [0, 6, 35, 100].map(|k| (asc, k)))
            {
                let want = oracle(asc, k);
                let order = if asc { "ASC" } else { "DESC" };
                for filter in ["", " WHERE TRUE"] {
                    let sql = format!("SELECT * FROM t{filter} ORDER BY c {order} LIMIT {k}");
                    let what = format!("`{sql}`, columnar {columnar}, warm {warm}");
                    let ctx = if warm { warmed.clone() } else { fresh() };
                    let (_, candidates) = lower(&ctx, &t, &parse_query(&sql).unwrap()).unwrap();
                    let names: Vec<&str> = candidates.iter().map(|(name, _)| *name).collect();
                    let pushed = if filter.is_empty() {
                        "sampling"
                    } else {
                        "s3-side"
                    };
                    assert_eq!(names, ["cached-local", "server-side", pushed], "{what}");
                    for name in names {
                        let out = run_candidate(&ctx, &t, &sql, name, None).unwrap();
                        assert_eq!(out.rows, want, "{name} of {what}");
                        assert_eq!(out.metrics.usage(), out.billed, "{name} of {what}");
                    }
                    for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
                        let out = execute_sql(&ctx, &t, &sql, strategy).unwrap();
                        assert_eq!(out.rows, want, "{strategy:?} on {what}");
                        assert_eq!(out.metrics.usage(), out.billed, "{strategy:?} on {what}");
                    }
                }
            }
        }
    }
}

/// The reducer runs inside the partition workers: whatever the batch
/// size and the pool width, they hand on the same candidates.
#[test]
fn local_candidates_do_not_depend_on_batching_or_the_scan_pool() {
    for columnar in [false, true] {
        let store = S3Store::new();
        let t = table(&store, columnar);
        let ctx = QueryContext::new(store).with_cache(1 << 20);
        for (batch_rows, scan_threads) in [1, 7, 100_000]
            .into_iter()
            .flat_map(|b| [1, 8].map(|threads| (b, threads)))
        {
            let mut ctx = ctx.clone();
            (ctx.batch_rows, ctx.scan_threads) = (batch_rows, scan_threads);
            for (asc, k) in [(true, 6), (false, 6), (true, 35), (false, 35)] {
                let order = if asc { "ASC" } else { "DESC" };
                let sql = format!("SELECT * FROM t ORDER BY c {order} LIMIT {k}");
                for name in ["cached-local", "server-side"] {
                    let out = run_candidate(&ctx, &t, &sql, name, None).unwrap();
                    let what = format!("{name} of `{sql}`, columnar {columnar}");
                    assert_eq!(
                        out.rows,
                        oracle(asc, k),
                        "{what}, batches of {batch_rows}, {scan_threads} threads"
                    );
                    assert_eq!(out.metrics.usage(), out.billed, "{what}");
                }
            }
        }
    }
}
