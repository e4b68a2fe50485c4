//! Differential testing: the pushdown side of every execution path must
//! return exactly what its baseline returns, while never transferring
//! *more* bytes — under the batched streaming engine, across batch
//! sizes, and with the cost ledger agreeing with the attached metrics.

use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::{
    execute_sql, upload_columnar_table, upload_csv_table, QueryContext, Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::tpch::{load_tpch, tpch_context, SUITE};

fn assert_rows_close(a: &[Row], b: &[Row], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.len(), y.len(), "{what}: row widths differ");
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

/// Every TPC-H query: Baseline and Optimized agree row-for-row, and the
/// optimized plan never returns more bytes over the wire.
#[test]
fn tpch_baseline_vs_pushdown_differential() {
    let (ctx, t) = tpch_context(0.003, 1_500).unwrap();
    for q in SUITE {
        let name = q.name;
        let base = q.run(&ctx, &t, Strategy::Baseline).unwrap().0;
        let push = q.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
        assert_rows_close(&base.rows, &push.rows, name);
        assert!(
            push.metrics.bytes_returned() <= base.metrics.bytes_returned(),
            "{name}: pushdown transferred {} bytes vs baseline {}",
            push.metrics.bytes_returned(),
            base.metrics.bytes_returned()
        );
    }
}

/// The differential must be invariant to the streaming batch capacity:
/// batching is an execution detail, not a semantics knob.
#[test]
fn tpch_differential_is_batch_size_invariant() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let reference: Vec<Vec<Row>> = SUITE
        .iter()
        .map(|q| q.run(&ctx, &t, Strategy::Pushdown).unwrap().0.rows)
        .collect();
    for batch_rows in [1usize, 17, 100_000] {
        let ctx2 = ctx.clone().with_batch_rows(batch_rows);
        for (q, reference) in SUITE.iter().zip(&reference) {
            let name = q.name;
            let base = q.run(&ctx2, &t, Strategy::Baseline).unwrap().0;
            let push = q.run(&ctx2, &t, Strategy::Pushdown).unwrap().0;
            assert_rows_close(&base.rows, &push.rows, name);
            assert_rows_close(
                reference,
                &push.rows,
                &format!("{name} @ batch_rows={batch_rows}"),
            );
        }
    }
}

/// The planner-level strategies agree on SQL queries of every supported
/// shape, and pushdown's billable transfer never exceeds the baseline's.
/// `Strategy::Adaptive` must return the same rows as both.
#[test]
fn planner_strategies_differential() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let (orders, lineitem) = (&t.orders, &t.lineitem);
    for (table, sql) in [
        (
            orders,
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice < 50000",
        ),
        (orders, "SELECT * FROM orders WHERE o_custkey = 7"),
        (
            orders,
            "SELECT SUM(o_totalprice), COUNT(*), AVG(o_totalprice) FROM orders \
             WHERE o_orderkey > 100",
        ),
        (
            orders,
            "SELECT o_orderpriority, COUNT(*), MAX(o_totalprice) FROM orders \
             GROUP BY o_orderpriority",
        ),
        (
            orders,
            "SELECT * FROM orders ORDER BY o_totalprice DESC LIMIT 20",
        ),
        // Expression arguments (TPC-H Q1's and Q6's revenue terms): legal
        // over a join all along, over one table since the statement
        // lowers through the same stack.
        (
            lineitem,
            "SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)) FROM lineitem \
             GROUP BY l_returnflag",
        ),
        (
            lineitem,
            "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_quantity < 24",
        ),
    ] {
        let base = execute_sql(&ctx, table, sql, Strategy::Baseline).unwrap();
        let push = execute_sql(&ctx, table, sql, Strategy::Pushdown).unwrap();
        let adapt = execute_sql(&ctx, table, sql, Strategy::Adaptive).unwrap();
        assert_rows_close(&base.rows, &push.rows, sql);
        assert_rows_close(&base.rows, &adapt.rows, &format!("{sql} (adaptive)"));
        for out in [&base, &push, &adapt] {
            assert_eq!(out.metrics.usage(), out.billed, "{sql}: usage == billed");
        }
        assert!(
            push.metrics.bytes_returned() <= base.metrics.bytes_returned(),
            "{sql}: pushdown must not transfer more"
        );
    }
}

/// The store's AWS-style ledger and the per-query metrics account the
/// same billable quantities for a full TPC-H run — streaming must not
/// lose or double-count a byte.
#[test]
fn ledger_agrees_with_metrics_across_the_suite() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    for q in SUITE {
        let name = q.name;
        for mode in [Strategy::Baseline, Strategy::Pushdown] {
            let out = q.run(&ctx, &t, mode).unwrap().0;
            // The query's scoped child ledger: exact per-query usage, no
            // reset needed (and correct even under concurrent queries).
            let billed = out.billed;
            let metered = out.metrics.usage();
            assert_eq!(
                billed.select_scanned_bytes, metered.select_scanned_bytes,
                "{name} {mode:?}: scanned bytes"
            );
            assert_eq!(
                billed.select_returned_bytes, metered.select_returned_bytes,
                "{name} {mode:?}: returned bytes"
            );
            assert_eq!(
                billed.plain_bytes, metered.plain_bytes,
                "{name} {mode:?}: plain bytes"
            );
            assert_eq!(
                billed.requests, metered.requests,
                "{name} {mode:?}: requests"
            );
        }
    }
}

/// Loading the same data twice yields bit-identical query answers — the
/// generator and the streaming scan are fully deterministic.
#[test]
fn repeated_runs_are_deterministic() {
    let (ctx_a, ta) = tpch_context(0.002, 900).unwrap();
    let (ctx_b, tb) = tpch_context(0.002, 900).unwrap();
    // Different partitioning of the identical logical data.
    let store_c = pushdowndb::s3::S3Store::new();
    let tc = load_tpch(&store_c, "tpch", pushdowndb::tpch::TpchGen::new(0.002), 333).unwrap();
    let ctx_c = QueryContext::new(store_c);
    for q in SUITE {
        let name = q.name;
        let a = q.run(&ctx_a, &ta, Strategy::Pushdown).unwrap().0;
        let b = q.run(&ctx_b, &tb, Strategy::Pushdown).unwrap().0;
        let c = q.run(&ctx_c, &tc, Strategy::Pushdown).unwrap().0;
        assert_eq!(
            a.rows, b.rows,
            "{name}: identical setup must be bit-identical"
        );
        assert_rows_close(&a.rows, &c.rows, &format!("{name}: repartitioned"));
    }
}

/// A NULL-bearing, tie-heavy table (TPC-H has no NULLs): `c` is NULL in
/// every fourth row and one of five values otherwise, `v` NULL in every
/// sixth; and a dimension `u` whose join key is NULL once.
fn null_tables(columnar: bool) -> (QueryContext, Table, Table) {
    let t_schema = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("c", DataType::Int),
        ("v", DataType::Float),
        ("s", DataType::Str),
    ]);
    let t_rows: Vec<Row> = (0..40i64)
        .map(|i| {
            let c = if i % 4 == 3 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            let v = if i % 6 == 5 {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.5)
            };
            Row::new(vec![Value::Int(i), c, v, Value::Str(format!("row-{i}"))])
        })
        .collect();
    let u_schema = Schema::from_pairs(&[("k", DataType::Int), ("tag", DataType::Str)]);
    let u_rows: Vec<Row> = (0..7i64)
        .map(|k| {
            let key = if k == 6 { Value::Null } else { Value::Int(k) };
            Row::new(vec![key, Value::Str(format!("tag-{}", k % 3))])
        })
        .collect();
    let store = S3Store::new();
    let upload = |name: &str, schema: &Schema, rows: &[Row], per_part: usize| {
        if columnar {
            let options = WriterOptions {
                rows_per_group: 3,
                compress: true,
            };
            upload_columnar_table(&store, "b", name, schema, rows, per_part, options)
        } else {
            upload_csv_table(&store, "b", name, schema, rows, per_part)
        }
        .unwrap()
    };
    let t = upload("t", &t_schema, &t_rows, 8);
    let u = upload("u", &u_schema, &u_rows, 2);
    let ctx = QueryContext::new(store.clone()).with_tables([t.clone(), u.clone()]);
    (ctx, t, u)
}

/// The suite's nine statement forms over the NULL-bearing table — the
/// two filters, the scalar aggregate, the one-column and the filtered
/// `GROUP BY`, two `ORDER BY … LIMIT k` and two joins (NULL keys join
/// nothing) — under Baseline, Pushdown and Adaptive, on CSV and
/// ColumnarLite, serial and on four nodes: the same rows everywhere
/// (floats to 1e-6), and `usage == billed` on every run.
#[test]
fn null_bearing_statements_agree_across_strategies_formats_and_nodes() {
    let statements: [(&str, &str); 9] = [
        ("t", "SELECT i, v FROM t WHERE c < 2"),
        ("t", "SELECT * FROM t WHERE v > 4"),
        (
            "t",
            "SELECT SUM(v), COUNT(*), COUNT(c), AVG(v), MIN(c), MAX(i) FROM t WHERE i < 30",
        ),
        ("t", "SELECT c, COUNT(*), SUM(v) FROM t GROUP BY c"),
        (
            "t",
            "SELECT c, SUM(v), COUNT(v) FROM t WHERE i < 30 GROUP BY c",
        ),
        ("t", "SELECT * FROM t ORDER BY c DESC LIMIT 100"),
        ("t", "SELECT * FROM t ORDER BY c LIMIT 10"),
        (
            "t",
            "SELECT tag, SUM(v) AS total FROM t JOIN u ON c = k WHERE i < 35 \
             GROUP BY tag ORDER BY total DESC LIMIT 2",
        ),
        (
            "u",
            "SELECT tag, COUNT(*) AS n FROM u JOIN t ON k = c GROUP BY tag ORDER BY tag",
        ),
    ];
    let mut reference: Vec<Option<Vec<Row>>> = vec![None; statements.len()];
    for columnar in [false, true] {
        for nodes in [1, 4] {
            let (ctx, t, u) = null_tables(columnar);
            let ctx = if nodes > 1 {
                ctx.with_nodes(nodes)
            } else {
                ctx
            };
            for (i, (from, sql)) in statements.iter().enumerate() {
                let table = if *from == "t" { &t } else { &u };
                for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
                    let what =
                        format!("`{sql}` {strategy:?}, columnar {columnar}, {nodes} node(s)");
                    let out = execute_sql(&ctx, table, sql, strategy).unwrap();
                    assert_eq!(out.metrics.usage(), out.billed, "{what}: usage == billed");
                    match &reference[i] {
                        None => reference[i] = Some(out.rows),
                        Some(want) => assert_rows_close(want, &out.rows, &what),
                    }
                }
            }
        }
    }
    // The table does carry what the statements are about.
    let groups = reference[3].as_ref().unwrap();
    assert!(groups[0][0].is_null(), "the NULL group sorts first");
    let joined = reference[8].as_ref().unwrap();
    let n: i64 = joined.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(n, 30, "the 30 non-NULL keys join, NULL ones do not");
}
