//! End-to-end correctness: every pushdown algorithm must produce exactly
//! the answer its no-pushdown baseline produces, across operators and
//! under fault injection.

use pushdown_bench::{run_candidate, Tune};
use pushdowndb::common::RetryPolicy;
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::algos::filter;
use pushdowndb::core::{build_index, upload_csv_table, QueryContext, Strategy};
use pushdowndb::s3::{FaultPlan, S3Store};
use pushdowndb::select::{S3SelectEngine, SelectLimits};
use pushdowndb::sql::parse_expr;
use pushdowndb::tpch::{tpch_context, SUITE};

fn assert_rows_close(a: &[Row], b: &[Row], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    for (x, y) in a.iter().zip(b) {
        for (vx, vy) in x.values().iter().zip(y.values()) {
            match (vx, vy) {
                (Value::Float(fx), Value::Float(fy)) => assert!(
                    (fx - fy).abs() <= 1e-6 * (1.0 + fx.abs().max(fy.abs())),
                    "{what}: {fx} vs {fy}"
                ),
                _ => assert_eq!(vx, vy, "{what}"),
            }
        }
    }
}

#[test]
fn tpch_queries_agree_and_push_less_data() {
    let (ctx, t) = tpch_context(0.003, 1_500).unwrap();
    for q in SUITE {
        let name = q.name;
        let base = q.run(&ctx, &t, Strategy::Baseline).unwrap().0;
        let opt = q.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
        assert_rows_close(&base.rows, &opt.rows, name);
        assert!(
            opt.metrics.bytes_returned() < base.metrics.bytes_returned(),
            "{name}: pushdown should reduce wire bytes"
        );
    }
}

#[test]
fn filter_strategies_agree_under_fault_injection() {
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
    let rows: Vec<Row> = (0..2_000)
        .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("val-{i}"))]))
        .collect();
    let table = upload_csv_table(&store, "b", "t", &schema, &rows, 333).unwrap();
    let ctx = QueryContext::new(store);
    let index = build_index(&ctx, &table, "k").unwrap();
    let q = filter::FilterQuery {
        table: table.clone(),
        predicate: parse_expr("k >= 100 AND k < 160").unwrap(),
        projection: None,
    };
    // Transient faults are retried transparently on every request path.
    ctx.store.set_fault_plan(Some(FaultPlan::new(17, 0.25)));
    let ctx = ctx.with_retry(RetryPolicy::with_attempts(12));
    let sql = "SELECT * FROM t WHERE k >= 100 AND k < 160";
    let server = run_candidate(&ctx, &table, sql, "server-side", None).unwrap();
    let s3 = run_candidate(&ctx, &table, sql, "s3-side", None).unwrap();
    let indexed = filter::indexed(&ctx, &index, &q, filter::RowFetch::PerRow).unwrap();
    assert_eq!(server.rows.len(), 60);
    assert_rows_close(&server.rows, &s3.rows, "filter s3");
    assert_rows_close(&server.rows, &indexed.rows, "filter indexed");
}

#[test]
fn join_agrees_across_fpr_extremes_and_fallback() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let sql = "SELECT SUM(o_totalprice) FROM customer JOIN orders ON c_custkey = o_custkey \
               WHERE c_acctbal <= -500 AND o_orderdate < DATE '1996-01-01'";
    let reference = run_candidate(&ctx, &t.customer, sql, "baseline", None).unwrap();
    for fpr in [0.0001, 0.01, 0.5] {
        let out = run_candidate(&ctx, &t.customer, sql, "bloom", Some(Tune::Fpr(fpr))).unwrap();
        assert_rows_close(&reference.rows, &out.rows, &format!("bloom fpr {fpr}"));
    }
    // Forced fallback (a SQL limit that admits the unfiltered probe but
    // no filter) must still agree.
    let mut tight = ctx.clone();
    tight.engine =
        S3SelectEngine::with_limits(ctx.store.clone(), SelectLimits { max_sql_bytes: 128 });
    let out = run_candidate(&tight, &t.customer, sql, "bloom", None).unwrap();
    let probe = &out.metrics.groups[1].phases[0].label;
    assert!(probe.starts_with("fallback probe (no bloom)"), "{probe}");
    assert_rows_close(&reference.rows, &out.rows, "bloom fallback");
}

#[test]
fn groupby_agrees_with_tiny_sql_limit_chunking() {
    // A reduced SQL limit forces the CASE-WHEN phase to split into many
    // statements; results must be unchanged.
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
    let rows: Vec<Row> = (0..3_000)
        .map(|i| {
            Row::new(vec![
                Value::Int((i % 50) as i64),
                Value::Float((i as f64 * 3.3) % 97.0),
            ])
        })
        .collect();
    let table = upload_csv_table(&store, "b", "t", &schema, &rows, 1_000).unwrap();
    let mut ctx = QueryContext::new(store);
    ctx.engine = pushdowndb::select::S3SelectEngine::with_limits(
        ctx.store.clone(),
        pushdowndb::select::SelectLimits {
            max_sql_bytes: 2_048,
        },
    );
    let sql = "SELECT g, SUM(v), AVG(v) FROM t GROUP BY g";
    let run = |name| run_candidate(&ctx, &table, sql, name, None).unwrap();
    let (server, s3, hybrid) = (run("server-side"), run("s3-side"), run("hybrid"));
    assert_eq!(server.rows.len(), 50);
    // Many statements per partition in the CASE-WHEN phase.
    let parts = table.partitions(&ctx.store).len() as u64;
    assert!(s3.metrics.groups[1].phases[0].stats.requests > 2 * parts);
    assert_rows_close(&server.rows, &s3.rows, "s3-side chunked");
    assert_rows_close(&server.rows, &hybrid.rows, "hybrid chunked");
}

#[test]
fn topk_agrees_on_tpch_lineitem() {
    let (ctx, t) = tpch_context(0.002, 2_000).unwrap();
    for (k, asc) in [(1, true), (17, true), (100, false)] {
        let order = if asc { "ASC" } else { "DESC" };
        let sql = format!("SELECT * FROM lineitem ORDER BY l_extendedprice {order} LIMIT {k}");
        let run = |name| run_candidate(&ctx, &t.lineitem, &sql, name, None).unwrap();
        let (server, sampled) = (run("server-side"), run("sampling"));
        assert_eq!(server.rows.len(), sampled.rows.len());
        for (a, b) in server.rows.iter().zip(&sampled.rows) {
            assert_eq!(a[5], b[5], "k={k} asc={asc}: order keys");
        }
    }
}

#[test]
fn ledger_matches_metrics_for_select_queries() {
    // The metrics attached to an output must agree with the store's own
    // AWS-style ledger for the billable Select quantities.
    let (ctx, t) = tpch_context(0.002, 2_000).unwrap();
    let sql = "SELECT o_orderkey FROM orders WHERE o_totalprice < 1000";
    let out = run_candidate(&ctx, &t.orders, sql, "s3-side", None).unwrap();
    // `billed` is the query's scoped child ledger — exact per-query usage.
    let usage = out.billed;
    let metered = out.metrics.usage();
    assert_eq!(usage.select_scanned_bytes, metered.select_scanned_bytes);
    assert_eq!(usage.select_returned_bytes, metered.select_returned_bytes);
    assert_eq!(usage.requests, metered.requests);
}

/// Batched streaming must survive transient faults injected mid-scan:
/// with more faults than partitions, retries are exercised *during* the
/// streamed scan (not just on the first request), for both storage
/// formats and for plain and pushdown paths.
#[test]
fn streamed_scans_survive_faults_mid_scan_for_both_formats() {
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]);
    let rows: Vec<Row> = (0..3_000)
        .map(|i| Row::new(vec![Value::Int(i), Value::Float((i as f64 * 2.3) % 59.0)]))
        .collect();
    let csv = upload_csv_table(&store, "b", "csvt", &schema, &rows, 250).unwrap();
    let clt = pushdowndb::core::upload_columnar_table(
        &store,
        "b",
        "cltt",
        &schema,
        &rows,
        250,
        pushdowndb::format::WriterOptions::default(),
    )
    .unwrap();
    // The seeded plan faults ~30% of attempts; a generous retry budget
    // keeps the success cases deterministic under any scheduling.
    let mut ctx = QueryContext::new(store).with_retry(RetryPolicy::with_attempts(16));
    ctx.batch_rows = 64; // many batches per partition
    ctx.scan_threads = 4;

    let sql = "SELECT * FROM t WHERE k % 7 = 0";
    for table in [&csv, &clt] {
        let run = |name| run_candidate(&ctx, table, sql, name, None).unwrap();
        // Clean reference first.
        let want = run("server-side");
        assert_eq!(want.rows.len(), 3_000 / 7 + 1);

        // Seeded faults across a 12-partition scan: several workers hit a
        // fault partway through and must retry transparently — on the
        // plain path and the pushdown path alike.
        ctx.store.set_fault_plan(Some(FaultPlan::new(99, 0.3)));
        let got = run("server-side");
        assert_rows_close(&want.rows, &got.rows, "plain streamed under faults");
        let s3 = run("s3-side");
        assert_rows_close(&want.rows, &s3.rows, "select streamed under faults");
        ctx.store.set_fault_plan(None);
    }

    // Exhausting retries surfaces the fault instead of corrupting rows.
    ctx.store.set_fault_plan(Some(FaultPlan::new(99, 1.0)));
    let sql = "SELECT * FROM t WHERE k >= 0";
    assert!(run_candidate(&ctx, &csv, sql, "server-side", None).is_err());
    ctx.store.set_fault_plan(None);
}

/// Mid-scan faults during streamed group-by and top-K pipelines: the
/// operator state machines never see a partial partition.
#[test]
fn streamed_operators_survive_faults_mid_scan() {
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]);
    let rows: Vec<Row> = (0..2_400)
        .map(|i| Row::new(vec![Value::Int(i % 11), Value::Int((i * 37) % 1000)]))
        .collect();
    let table = upload_csv_table(&store, "b", "t", &schema, &rows, 200).unwrap();
    let mut ctx = QueryContext::new(store).with_retry(RetryPolicy::with_attempts(16));
    ctx.batch_rows = 50;

    let sql = "SELECT g, SUM(v), COUNT(v) FROM t GROUP BY g";
    let want_groups = run_candidate(&ctx, &table, sql, "server-side", None).unwrap();
    ctx.store.set_fault_plan(Some(FaultPlan::new(4, 0.35)));
    let got_groups = run_candidate(&ctx, &table, sql, "server-side", None).unwrap();
    assert_rows_close(&want_groups.rows, &got_groups.rows, "group-by under faults");

    let sql = "SELECT * FROM t ORDER BY v LIMIT 13";
    ctx.store.set_fault_plan(None);
    let want_topk = run_candidate(&ctx, &table, sql, "server-side", None).unwrap();
    ctx.store.set_fault_plan(Some(FaultPlan::new(6, 0.35)));
    let got_topk = run_candidate(&ctx, &table, sql, "server-side", None).unwrap();
    assert_rows_close(&want_topk.rows, &got_topk.rows, "top-k under faults");
}

#[test]
fn csv_and_columnar_tables_give_identical_query_answers() {
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("s", DataType::Str),
    ]);
    let rows: Vec<Row> = (0..2_500)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Float((i as f64 * 1.7) % 31.0),
                Value::Str(format!("tag-{}", i % 7)),
            ])
        })
        .collect();
    let csv = upload_csv_table(&store, "b", "csvt", &schema, &rows, 600).unwrap();
    let clt = pushdowndb::core::upload_columnar_table(
        &store,
        "b",
        "cltt",
        &schema,
        &rows,
        600,
        pushdowndb::format::WriterOptions::default(),
    )
    .unwrap();
    let ctx = QueryContext::new(store);
    for pred in ["k < 100", "v > 15.0 AND s = 'tag-3'", "k >= 2499"] {
        let sql = format!("SELECT * FROM t WHERE {pred}");
        let a = run_candidate(&ctx, &csv, &sql, "s3-side", None).unwrap();
        let b = run_candidate(&ctx, &clt, &sql, "s3-side", None).unwrap();
        assert_rows_close(&a.rows, &b.rows, pred);
        // Columnar scans fewer bytes for any non-trivial width.
        assert!(
            b.metrics.usage().select_scanned_bytes <= a.metrics.usage().select_scanned_bytes,
            "{pred}"
        );
    }
}
