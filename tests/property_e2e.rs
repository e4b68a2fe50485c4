//! Whole-stack property tests: on *arbitrary* generated tables, each
//! pushdown decomposition must equal its straightforward baseline.

use proptest::prelude::*;
use pushdown_bench::{run_candidate, Tune};
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::{upload_csv_table, QueryContext};
use pushdowndb::s3::S3Store;

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

    /// Sampling top-K and the server-side heap both answer `ORDER BY v
    /// LIMIT k` — NULL keys are rows, ties keep table order — for any
    /// data (NULL-bearing, duplicate-heavy), K, order direction, and
    /// sample size.
    #[test]
    fn sampling_topk_is_exact(
        vals in proptest::collection::vec((-20i64..20, 0u8..5), 1..300),
        k in 1usize..40,
        asc in any::<bool>(),
        sample in 1usize..500,
    ) {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]);
        let rows: Vec<Row> = vals
            .iter()
            .enumerate()
            .map(|(i, (v, null))| {
                let v = if *null == 0 { Value::Null } else { Value::Int(*v) };
                Row::new(vec![Value::Int(i as i64), v])
            })
            .collect();
        let (ctx, t) = ctx_with("t", &schema, &rows, 64);
        let sql = format!("SELECT * FROM t ORDER BY v {} LIMIT {k}", if asc { "ASC" } else { "DESC" });
        // The oracle: a stable sort, truncated.
        let mut want = rows.clone();
        want.sort_by(|a, b| if asc { a[1].total_cmp(&b[1]) } else { b[1].total_cmp(&a[1]) });
        want.truncate(k);
        let server = run_candidate(&ctx, &t, &sql, "server-side", None).unwrap();
        let sampled = run_candidate(&ctx, &t, &sql, "sampling", Some(Tune::SampleSize(sample))).unwrap();
        prop_assert_eq!(&server.rows, &want);
        prop_assert_eq!(&sampled.rows, &want);
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
        let sql = "SELECT g, SUM(v), COUNT(v), MIN(v), MAX(v) FROM t GROUP BY g";
        let run = |name| run_candidate(&ctx, &t, sql, name, None).unwrap();
        let (server, s3, hybrid) = (run("server-side"), run("s3-side"), run("hybrid"));
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
        let bloomed = sort(run_candidate(&ctx, &lt, sql, "bloom", Some(Tune::Fpr(fpr))).unwrap().rows);
        prop_assert_eq!(base, bloomed);
    }
}
