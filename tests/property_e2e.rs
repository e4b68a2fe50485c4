//! Whole-stack property tests: on *arbitrary* generated tables, each
//! pushdown decomposition must equal its straightforward baseline.

use proptest::prelude::*;
use pushdown_bench::run_candidate;
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::algos::{groupby, topk};
use pushdowndb::core::{upload_csv_table, QueryContext};
use pushdowndb::s3::S3Store;
use pushdowndb::sql::agg::AggFunc;

fn ctx_with(
    name: &str,
    schema: &Schema,
    rows: &[Row],
    per_part: usize,
) -> (QueryContext, pushdowndb::core::Table) {
    let store = S3Store::new();
    let t = upload_csv_table(&store, "prop", name, schema, rows, per_part).unwrap();
    (QueryContext::new(store), t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sampling top-K equals the server-side heap for any data, K, order
    /// direction, and sample size.
    #[test]
    fn sampling_topk_is_exact(
        vals in proptest::collection::vec((-1000i64..1000, any::<bool>()), 1..300),
        k in 1usize..40,
        asc in any::<bool>(),
        sample in 1usize..500,
    ) {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]);
        let rows: Vec<Row> = vals
            .iter()
            .enumerate()
            .map(|(i, (v, _))| Row::new(vec![Value::Int(i as i64), Value::Int(*v)]))
            .collect();
        let (ctx, t) = ctx_with("t", &schema, &rows, 64);
        let q = topk::TopKQuery { table: t, order_col: "v".into(), k, asc };
        let server = topk::server_side(&ctx, &q).unwrap();
        let sampled = topk::sampling(&ctx, &q, Some(sample)).unwrap();
        prop_assert_eq!(server.rows.len(), sampled.rows.len());
        for (a, b) in server.rows.iter().zip(&sampled.rows) {
            prop_assert_eq!(&a[1], &b[1]);
        }
    }

    /// The S3-side CASE-WHEN group-by and the hybrid split both equal the
    /// local hash aggregation, for any distribution of groups.
    #[test]
    fn groupby_decompositions_are_exact(
        vals in proptest::collection::vec((0i64..12, -50i64..50), 1..300),
    ) {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]);
        let rows: Vec<Row> = vals
            .iter()
            .map(|(g, v)| Row::new(vec![Value::Int(*g), Value::Int(*v)]))
            .collect();
        let (ctx, t) = ctx_with("t", &schema, &rows, 50);
        let q = groupby::GroupByQuery {
            table: t,
            group_cols: vec!["g".into()],
            aggs: vec![
                (AggFunc::Sum, Some("v".into())),
                (AggFunc::Count, Some("v".into())),
                (AggFunc::Min, Some("v".into())),
                (AggFunc::Max, Some("v".into())),
            ],
            predicate: None,
        };
        let sql = "SELECT g, SUM(v), COUNT(v), MIN(v), MAX(v) FROM t GROUP BY g";
        let server = run_candidate(&ctx, &q.table, sql, "server-side", None).unwrap();
        let s3 = groupby::s3_side(&ctx, &q).unwrap();
        let hybrid = groupby::hybrid(&ctx, &q, groupby::HybridOptions::default()).unwrap();
        prop_assert_eq!(&server.rows, &s3.rows);
        prop_assert_eq!(&server.rows, &hybrid.rows);
    }

    /// Bloom join (at any FPR) equals the baseline hash join: false
    /// positives are filtered by the local probe, and no true match is
    /// ever lost (no false negatives).
    #[test]
    fn bloom_join_is_exact(
        left_keys in proptest::collection::vec(0i64..100, 1..80),
        right_keys in proptest::collection::vec(0i64..150, 1..200),
        fpr in prop_oneof![Just(0.001), Just(0.01), Just(0.3)],
    ) {
        let ls = Schema::from_pairs(&[("lk", DataType::Int), ("lv", DataType::Int)]);
        let rs = Schema::from_pairs(&[("rk", DataType::Int), ("rv", DataType::Int)]);
        let lrows: Vec<Row> = left_keys
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![Value::Int(*k), Value::Int(i as i64)]))
            .collect();
        let rrows: Vec<Row> = right_keys
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![Value::Int(*k), Value::Int(1000 + i as i64)]))
            .collect();
        let store = S3Store::new();
        let lt = upload_csv_table(&store, "prop", "l", &ls, &lrows, 30).unwrap();
        let rt = upload_csv_table(&store, "prop", "r", &rs, &rrows, 60).unwrap();
        let ctx = QueryContext::new(store).with_tables([rt]);
        let sql = "SELECT lk, lv, rv FROM l JOIN r ON lk = rk";
        let sort = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| {
                a[0].total_cmp(&b[0])
                    .then(a[1].total_cmp(&b[1]))
                    .then(a[2].total_cmp(&b[2]))
            });
            rows
        };
        let base = sort(run_candidate(&ctx, &lt, sql, "baseline", None).unwrap().rows);
        let bloomed = sort(run_candidate(&ctx, &lt, sql, "bloom", Some(fpr)).unwrap().rows);
        prop_assert_eq!(base, bloomed);
    }
}
