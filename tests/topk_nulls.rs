//! One statement, one answer (ISSUE 24): `ORDER BY c LIMIT k` is the
//! first `k` rows of a stable sort by [`Value::total_cmp`] — NULL keys
//! are rows (first ascending, last descending), ties keep table order —
//! whichever candidate runs it, with or without a `WHERE`, at every
//! batch size and scan-pool width. The table has three order columns over
//! three partitions: `c`, NULL in every fourth row and five heavily tied
//! values in the others; the FLOAT `f`, NaN in every seventh row
//! (it sorts after every number, yet `<=` and `>=` hold for it nowhere),
//! `-0.0` and `0.0` (SQL's `=` cannot tell them apart, the total order
//! can) and NULLs; and the FLOAT `x`, neither NULL nor NaN anywhere at
//! load. The oracle never calls the engine.

use pushdown_bench::{run_candidate, Tune};
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::planner::{execute_sql, lower};
use pushdowndb::core::{upload_columnar_table, upload_csv_table, QueryContext, Strategy, Table};
use pushdowndb::format::columnar::{encode_columnar, WriterOptions};
use pushdowndb::format::csv::encode_csv;
use pushdowndb::s3::S3Store;
use pushdowndb::sql::parse_query;

const ROWS_PER_PARTITION: usize = 16;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("c", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
        ("x", DataType::Float),
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
            let f = match i % 7 {
                0 => Value::Float(f64::NAN),
                _ if i % 4 == 3 => Value::Null,
                1 | 4 => Value::Float(-0.0),
                2 => Value::Float(0.0),
                r => Value::Float(r as f64 - 4.5),
            };
            let x = Value::Float(i as f64);
            Row::new(vec![Value::Int(i), c, Value::Str(format!("row-{i}")), f, x])
        })
        .collect()
}

/// The answer by column `col`, computed without the engine.
fn oracle(col: usize, asc: bool, k: usize) -> Vec<Row> {
    let mut rows = rows();
    rows.sort_by(|a, b| match asc {
        true => a[col].total_cmp(&b[col]),
        false => b[col].total_cmp(&a[col]),
    });
    rows.truncate(k);
    rows
}

const OPTIONS: WriterOptions = WriterOptions {
    rows_per_group: 5,
    compress: true,
};

fn table(store: &S3Store, columnar: bool) -> Table {
    if columnar {
        upload_columnar_table(
            store,
            "b",
            "t",
            &schema(),
            &rows(),
            ROWS_PER_PARTITION,
            OPTIONS,
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
            // `c` and `f`, each ascending and descending, five limits.
            let runs = [1, 3].into_iter().flat_map(|col| {
                [true, false]
                    .into_iter()
                    .flat_map(move |asc| [0, 3, 6, 35, 100].map(|k| (col, asc, k)))
            });
            for (col, asc, k) in runs {
                let want = oracle(col, asc, k);
                let order = if asc { "ASC" } else { "DESC" };
                let key = schema().field(col).name.clone();
                for filter in ["", " WHERE TRUE"] {
                    let sql = format!("SELECT * FROM t{filter} ORDER BY {key} {order} LIMIT {k}");
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
                    // `sampling` also runs the paper's sample, whatever the
                    // catalog knows.
                    let forced = Some(Tune::SampleSize(12));
                    let forced = (pushed == "sampling").then_some(("sampling", forced));
                    for (name, tune) in names.iter().map(|&name| (name, None)).chain(forced) {
                        let out = run_candidate(&ctx, &t, &sql, name, tune).unwrap();
                        assert_eq!(out.rows, want, "{name} {tune:?} of {what}");
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

/// A threshold the catalog's tails hold, over rows rewritten behind the
/// catalog's back since load. Where fewer than K rows meet it, the
/// threshold scan's rows are dropped and the scan runs again without one,
/// a phase of its own. Rows of `x` that became NULL (first ascending) or
/// NaN (first descending), which its statistics rule out, are asked for by
/// name, so a threshold K rows still meet returns them in its one scan.
/// Either way the answer is the stable sort truncated.
#[test]
fn a_stale_catalog_threshold_scans_again() {
    // `c`: the six `c = 4` rows the catalog counted, three of them in the
    // first partition, now 0.
    let stale_c: fn(usize, &mut Row) = |_, r| r.0[1] = Value::Int(0);
    let stale_x: fn(usize, &mut Row) = |i, r| match i {
        5 | 6 => r.0[4] = Value::Null,
        7 | 8 => r.0[4] = Value::Float(f64::NAN),
        _ => {}
    };
    let rescan: &[&str] = &["scanning phase", "rescanning phase + sort"];
    let one_scan: &[&str] = &["scanning phase + sort"];
    let cases = [
        (1, false, 6, stale_c, rescan),
        (4, true, 3, stale_x, one_scan),
        (4, false, 3, stale_x, one_scan),
    ];
    for (col, asc, k, stale, phases) in cases {
        let key = schema().field(col).name.clone();
        let order = if asc { "ASC" } else { "DESC" };
        let sql = format!("SELECT * FROM t ORDER BY {key} {order} LIMIT {k}");
        for columnar in [false, true] {
            let what = format!("`{sql}`, columnar {columnar}");
            let store = S3Store::new();
            let t = table(&store, columnar);
            assert!(t.kth(&key, asc, k).is_some(), "{what}");
            let mut stored = rows();
            let first = &mut stored[..ROWS_PER_PARTITION];
            first.iter_mut().enumerate().for_each(|(i, r)| stale(i, r));
            let bytes = match columnar {
                true => encode_columnar(&schema(), first, OPTIONS),
                false => encode_csv(&schema(), first),
            };
            store.put_object("b", &t.partitions(&store)[0], bytes);
            stored.sort_by(|a, b| match asc {
                true => a[col].total_cmp(&b[col]),
                false => b[col].total_cmp(&a[col]),
            });
            stored.truncate(k);
            let ctx = QueryContext::new(store);
            let server = run_candidate(&ctx, &t, &sql, "server-side", None).unwrap();
            assert_eq!(server.rows, stored, "{what}");
            let sampling = run_candidate(&ctx, &t, &sql, "sampling", None).unwrap();
            let pushdown = execute_sql(&ctx, &t, &sql, Strategy::Pushdown).unwrap();
            for out in [sampling, pushdown] {
                assert_eq!(out.rows, stored, "{what}");
                assert_eq!(out.metrics.usage(), out.billed, "{what}");
                let seconds = out.metrics.phase_seconds(&ctx.model);
                let labels: Vec<&str> = seconds.iter().map(|(l, _)| l.as_str()).collect();
                assert_eq!(labels, phases, "{what}");
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
                        oracle(1, asc, k),
                        "{what}, batches of {batch_rows}, {scan_threads} threads"
                    );
                    assert_eq!(out.metrics.usage(), out.billed, "{what}");
                }
            }
        }
    }
}
