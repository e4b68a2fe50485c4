//! The partition worker pool is one per process: scans share its
//! long-lived threads instead of starting their own. One `#[test]`, in a
//! binary of its own, so no other test's threads are counted.
//!
//! * once one scan has run, 200 more start no thread: the count is the
//!   same before, while and after they run;
//! * scans whose producers fail, and a scan whose consumer panics
//!   mid-scan, leave the pool as it was: the next scans return every row
//!   and the thread count does not move;
//! * a consumer that panics unwinds only after the scan's jobs have
//!   ended: by the time the panic is caught, no job is left to issue a
//!   request.

use pushdowndb::common::{DataType, Error, RetryPolicy, Row, Schema, Value};
use pushdowndb::core::scan::plain_scan_streamed;
use pushdowndb::core::{upload_csv_table, QueryContext, Table};
use pushdowndb::s3::{FaultPlan, S3Store};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the threads")
        .count()
}

/// 32 partitions of 50 rows on 4 scan threads.
fn context() -> (QueryContext, Table, Vec<Row>) {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
    let rows: Vec<Row> = (0..1_600)
        .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("row {i}"))]))
        .collect();
    let store = S3Store::new();
    let table = upload_csv_table(&store, "b", "t", &schema, &rows, 50).unwrap();
    let mut ctx = QueryContext::new(store);
    ctx.scan_threads = 4;
    ctx.batch_rows = 16;
    (ctx, table, rows)
}

/// Every row the scan returns, in order, and the most threads the
/// process had while its batches arrived.
fn scanned(ctx: &QueryContext, table: &Table) -> (Vec<Row>, usize) {
    let (mut got, mut most) = (Vec::new(), 0);
    plain_scan_streamed(ctx, table, |batch| {
        most = most.max(threads());
        got.extend(batch.rows);
        Ok(())
    })
    .unwrap();
    (got, most)
}

#[test]
fn scans_share_one_pool_of_threads() {
    let (ctx, table, rows) = context();
    assert!(scanned(&ctx, &table).0 == rows, "the first scan's rows");
    let before = threads();
    // Every row, in order, and not one thread more while they arrive.
    let check = |what: &str| {
        let (got, most) = scanned(&ctx, &table);
        assert!(got == rows, "{what}: a scan lost or reordered rows");
        assert_eq!(most, before, "{what}: a scan started threads");
    };
    for _ in 0..200 {
        check("200 scans");
    }
    assert_eq!(threads(), before, "200 scans started threads");

    // Producers that fail: every GET faults, and no retry is left.
    ctx.store.set_fault_plan(Some(FaultPlan::new(7, 1.0)));
    let failing = ctx.clone().with_retry(RetryPolicy::with_attempts(1));
    for _ in 0..20 {
        let err = plain_scan_streamed(&failing, &table, |_| Ok(())).unwrap_err();
        assert!(!matches!(err, Error::Other(_)), "{err}");
    }
    ctx.store.set_fault_plan(None);
    check("after failing scans");
    assert_eq!(threads(), before, "failing scans changed the pool");

    // A consumer that panics on its third batch.
    let mut batches = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        plain_scan_streamed(&ctx, &table, |_| {
            batches += 1;
            assert!(batches < 3, "consumer bug");
            Ok(())
        })
    }));
    let panic = outcome.expect_err("the consumer's panic reaches its caller");
    assert_eq!(panic.downcast_ref::<&str>(), Some(&"consumer bug"));
    // Its jobs have ended: none is left to issue a request.
    let billed = ctx.store.global_ledger().snapshot();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        ctx.store.global_ledger().snapshot(),
        billed,
        "a job outlived the scan"
    );
    check("after a panicking consumer");
    assert_eq!(threads(), before, "a panicking consumer changed the pool");
}
