//! Fig 1's private helper: the §IV-A indexed filter ([`filter`]) and
//! its §X fetch modes — the one paper algorithm the planner cannot pick,
//! because its later phase is not a Select statement at all: it issues
//! byte-range GETs for the index hits.
//!
//! Every other algorithm of the paper is a candidate plan of a SQL
//! statement, a tree of plan-IR operators ([`crate::plan`]) lowered by
//! name in [`crate::joinplan`]: the §V joins (baseline / filtered /
//! Bloom), the §IV server-side / S3-side filter, the §VIII-Q6 scalar
//! aggregate, the §VI group-bys (server-side / filtered / S3-side /
//! hybrid; `filtered` ships the statement whole on an engine with §X's
//! native `GROUP BY`) and the §VII top-K (server-side /
//! sampling). The unit tests of the §VI and §VII families, and of §X
//! Suggestions 3 and 4, run those candidates by name, below.

pub mod filter;

/// §VI group-by, by candidate name: `server-side` and `filtered` are one
/// scan under a local hash aggregation, `s3-side` pushes one CASE-WHEN
/// item per (group, aggregate) over the distinct groups, `hybrid`
/// samples, pushes the populous groups and aggregates the tail locally.
#[cfg(test)]
mod groupby {
    mod tests {
        use crate::catalog::{upload_csv_table, Table};
        use crate::context::QueryContext;
        use crate::output::QueryOutput;
        use crate::planner::{run_candidate, Tune};
        use pushdown_common::{DataType, Result, Row, Schema, Value};
        use pushdown_s3::S3Store;

        const AGGS: &str = "SUM(v), COUNT(w), MIN(w), MAX(v), AVG(v)";

        /// The fixture's statement: `AGGS` per `keys`, over `WHERE pred`.
        fn sql(keys: &str, pred: Option<&str>) -> String {
            let pred = pred.map_or(String::new(), |p| format!(" WHERE {p}"));
            format!("SELECT {keys}, {AGGS} FROM t{pred} GROUP BY {keys}")
        }

        fn run(ctx: &QueryContext, t: &Table, sql: &str, name: &str) -> Result<QueryOutput> {
            run_candidate(ctx, t, sql, name, None)
        }

        /// Every §VI candidate of `sql`, `server-side` first.
        fn all_four(ctx: &QueryContext, t: &Table, sql: &str) -> Vec<QueryOutput> {
            ["server-side", "filtered", "s3-side", "hybrid"]
                .iter()
                .map(|name| run(ctx, t, sql, name).unwrap())
                .collect()
        }

        /// Synthetic table: group column with a skewed distribution plus two
        /// value columns.
        fn setup(n: usize, n_groups: i64, skewed: bool) -> (QueryContext, Table) {
            let store = S3Store::new();
            let schema = Schema::from_pairs(&[
                ("g", DataType::Int),
                ("v", DataType::Float),
                ("w", DataType::Int),
            ]);
            let rows: Vec<Row> = (0..n)
                .map(|i| {
                    let g = if skewed {
                        // ~half the rows in group 0, quarter in 1, ...
                        let mut x = i;
                        let mut g = 0;
                        while x % 2 == 1 && g < n_groups - 1 {
                            x /= 2;
                            g += 1;
                        }
                        g
                    } else {
                        (i as i64) % n_groups
                    };
                    Row::new(vec![
                        Value::Int(g),
                        Value::Float((i as f64 * 7.0) % 103.0),
                        Value::Int((i as i64 * 13) % 17),
                    ])
                })
                .collect();
            let t = upload_csv_table(&store, "b", "t", &schema, &rows, 256).unwrap();
            (QueryContext::new(store), t)
        }

        /// `t` with its exact statistics but no tails, so no dictionaries:
        /// its hybrid split samples.
        fn without_dictionaries(mut t: Table) -> Table {
            let mut stats = t.stats.as_deref().expect("loaded with statistics").clone();
            stats.columns.iter_mut().for_each(|c| c.tails = None);
            t.stats = Some(std::sync::Arc::new(stats));
            t
        }

        fn assert_rows_close(a: &[Row], b: &[Row]) {
            assert_eq!(a.len(), b.len(), "row counts differ");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.len(), y.len());
                for (vx, vy) in x.values().iter().zip(y.values()) {
                    match (vx, vy) {
                        (Value::Float(fx), Value::Float(fy)) => {
                            assert!((fx - fy).abs() <= 1e-6 * (1.0 + fx.abs()), "{fx} vs {fy}");
                        }
                        _ => assert_eq!(vx, vy),
                    }
                }
            }
        }

        fn labels(out: &QueryOutput) -> Vec<String> {
            let phases = out.metrics.groups.iter().flat_map(|g| g.phases.iter());
            phases.map(|p| p.label.clone()).collect()
        }

        #[test]
        fn all_four_algorithms_agree_uniform() {
            let (ctx, t) = setup(2000, 8, false);
            let outs = all_four(&ctx, &t, &sql("g", None));
            assert_eq!(outs[0].rows.len(), 8);
            for out in &outs[1..] {
                assert_rows_close(&outs[0].rows, &out.rows);
                assert_eq!(out.schema, outs[0].schema);
            }
            let names = ["g", "sum_v", "count_w", "min_w", "max_v", "avg_v"];
            assert_eq!(outs[0].schema.names(), names);
        }

        #[test]
        fn all_four_algorithms_agree_skewed() {
            let (ctx, t) = setup(3000, 10, true);
            let outs = all_four(&ctx, &t, &sql("g", None));
            for out in &outs[1..] {
                assert_rows_close(&outs[0].rows, &out.rows);
            }
        }

        #[test]
        fn predicate_applies_in_every_algorithm() {
            let (ctx, t) = setup(2000, 5, false);
            let outs = all_four(&ctx, &t, &sql("g", Some("w < 9")));
            for out in &outs[1..] {
                assert_rows_close(&outs[0].rows, &out.rows);
            }
        }

        #[test]
        fn filtered_returns_fewer_bytes_than_server() {
            let (ctx, t) = setup(2000, 4, false);
            let a = run(&ctx, &t, &sql("g", None), "server-side").unwrap();
            let b = run(&ctx, &t, &sql("g", None), "filtered").unwrap();
            // Server-side ships the whole table as plain bytes; filtered ships
            // a column subset via select.
            assert!(b.metrics.usage().select_returned_bytes < a.metrics.usage().plain_bytes);
        }

        #[test]
        fn s3_side_charges_expression_terms() {
            let (ctx, t) = setup(2000, 32, false);
            let c = run(&ctx, &t, &sql("g", None), "s3-side").unwrap();
            // 32 groups × 5 aggregates, each with a comparison + arm ≥ 2 terms.
            let max_terms = c
                .metrics
                .groups
                .iter()
                .flat_map(|g| g.phases.iter())
                .map(|p| p.stats.expr_terms)
                .max()
                .unwrap();
            assert!(max_terms >= 64, "expr terms {max_terms}");
        }

        #[test]
        fn s3_side_chunks_when_sql_would_exceed_limit() {
            let (mut ctx, t) = setup(1000, 40, false);
            // Squeeze the limit so phase 2 must split into several statements.
            let store = ctx.store.clone();
            ctx.engine = pushdown_select::S3SelectEngine::with_limits(
                store,
                pushdown_select::SelectLimits {
                    max_sql_bytes: 4 * 1024,
                },
            );
            let a = run(&ctx, &t, &sql("g", None), "server-side").unwrap();
            let c = run(&ctx, &t, &sql("g", None), "s3-side").unwrap();
            assert_rows_close(&a.rows, &c.rows);
            // More than one phase-2 select per partition proves chunking.
            let parts = t.partitions(&ctx.store).len() as u64;
            let phase2_requests: u64 = c.metrics.groups[1]
                .phases
                .iter()
                .map(|p| p.stats.requests)
                .sum();
            assert!(phase2_requests > parts, "{phase2_requests} vs {parts}");
        }

        /// Wide keys and long column names: every CASE-WHEN item repeats
        /// its group's 120-character equality and names its own column, so
        /// a chunking that charges a fixed 96 bytes per item ships a
        /// 328 819-byte statement for these 400 groups of three `SUM`s and
        /// a `COUNT(*)`. Chunked by their rendered size, the statements
        /// each fit the 256 KiB limit, the answer is `server-side`'s, and
        /// the pricer predicts the requests they bill.
        #[test]
        fn s3_side_chunks_by_the_rendered_statement() {
            let store = S3Store::new();
            let names = [
                "customer_segment_key_long_name",
                "first_measured_value_in_dollars",
                "second_measured_value_in_euros",
                "third_measured_value_in_pounds",
            ];
            let schema = Schema::from_pairs(&[
                (names[0], DataType::Str),
                (names[1], DataType::Float),
                (names[2], DataType::Float),
                (names[3], DataType::Float),
            ]);
            let rows: Vec<Row> = (0..4_000)
                .map(|i| {
                    let x = i as f64;
                    Row::new(vec![
                        Value::Str(format!("{:0>120}", i % 400)),
                        Value::Float(x * 0.5),
                        Value::Float(x.sqrt()),
                        Value::Float(x % 7.0),
                    ])
                })
                .collect();
            let t = upload_csv_table(&store, "b", "t", &schema, &rows, 1_000).unwrap();
            let ctx = QueryContext::new(store);
            let [g, a, b, c] = names;
            let sql =
                format!("SELECT {g}, SUM({a}), SUM({b}), SUM({c}), COUNT(*) FROM t GROUP BY {g}");
            let want = run(&ctx, &t, &sql, "server-side").unwrap();
            let scope = ctx.scoped();
            let got = run(&scope, &t, &sql, "s3-side").unwrap();
            assert_rows_close(&want.rows, &got.rows);
            // Phase 2 took more than one statement per partition.
            let parts = t.partitions(&ctx.store).len() as u64;
            assert!(got.metrics.groups[1].phases[0].stats.requests > parts);
            let spec = pushdown_sql::parse_query(&sql).unwrap();
            let (_, candidates) = crate::planner::lower(&ctx, &t, &spec).unwrap();
            let (_, plan) = candidates.iter().find(|(n, _)| *n == "s3-side").unwrap();
            let ests = crate::cost::Estimators::new(&ctx, [plan]);
            let predicted = crate::cost::predict_plan(&ests, plan).unwrap();
            assert_eq!(predicted.metrics.usage().requests, got.billed.requests);
        }

        #[test]
        fn hybrid_pushes_populous_groups_only() {
            let (ctx, t) = setup(4000, 12, true);
            let sampled = without_dictionaries(t.clone());
            let out = run(&ctx, &sampled, &sql("g", None), "hybrid").unwrap();
            // There must be both an s3-side and a server-side phase.
            let sampled_labels = labels(&out);
            assert!(sampled_labels.iter().any(|l| l.contains("s3-side")));
            assert!(sampled_labels.iter().any(|l| l.contains("server-side")));
            assert!(sampled_labels.iter().any(|l| l.contains("sample")));
            // Sample, then the two side by side.
            assert_eq!(out.metrics.groups.len(), 2);
            assert_eq!(out.metrics.groups[1].phases.len(), 2);
            // The catalog's dictionary of `g` decides the same split with
            // no sample: the two side by side, nothing before.
            let listed = run(&ctx, &t, &sql("g", None), "hybrid").unwrap();
            assert!(labels(&listed).iter().all(|l| !l.contains("sample")));
            assert_eq!(listed.metrics.groups.len(), 1);
            assert_eq!(listed.metrics.groups[0].phases.len(), 2);
            assert_rows_close(&out.rows, &listed.rows);
        }

        #[test]
        fn hybrid_uniform_degenerates_to_filtered() {
            // 100 uniform groups: none reaches the 2% share threshold cap...
            // each has exactly 1% share < 2% -> no big groups -> filtered path.
            let (ctx, t) = setup(5000, 100, false);
            let out = run(&ctx, &t, &sql("g", None), "hybrid").unwrap();
            // After its sample, it reports the `filtered` candidate's one
            // phase: same label, same footprint.
            let filtered = run(&ctx, &t, &sql("g", None), "filtered").unwrap();
            assert_eq!(out.metrics.groups.len(), 2);
            let (got, want) = (
                &out.metrics.groups[1].phases,
                &filtered.metrics.groups[0].phases,
            );
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].label, want[0].label);
            assert_eq!(got[0].stats, want[0].stats);
            let a = run(&ctx, &t, &sql("g", None), "server-side").unwrap();
            assert_rows_close(&a.rows, &out.rows);
        }

        #[test]
        fn hybrid_force_groups_controls_split() {
            let (ctx, t) = setup(3000, 10, true);
            let t = without_dictionaries(t);
            let a = run(&ctx, &t, &sql("g", None), "server-side").unwrap();
            let mut terms = Vec::new();
            for n in [1usize, 4, 8] {
                let tune = Some(Tune::ForcedSplit(n));
                let out = run_candidate(&ctx, &t, &sql("g", None), "hybrid", tune).unwrap();
                assert_rows_close(&a.rows, &out.rows);
                terms.push(out.metrics.groups[1].phases[0].stats.expr_terms);
            }
            // Exactly `n` groups' CASE-WHEN items ship, 12 terms a group —
            // of the 7 groups the 64-row sample holds, when 8 are asked for.
            assert_eq!(terms, vec![12, 48, 84]);
        }

        /// `hybrid` is not a candidate of a two-column GROUP BY…
        #[test]
        fn hybrid_rejects_multi_column_groups() {
            let (ctx, t) = setup(100, 4, false);
            let err = run(&ctx, &t, &sql("g, w", None), "hybrid").unwrap_err();
            assert_eq!(err.code(), "BindError");
            // …but s3-side supports multi-column grouping.
            let a = run(&ctx, &t, &sql("g, w", None), "server-side").unwrap();
            let c = run(&ctx, &t, &sql("g, w", None), "s3-side").unwrap();
            assert_rows_close(&a.rows, &c.rows);
        }

        #[test]
        fn empty_group_results() {
            let (ctx, t) = setup(500, 4, false);
            for out in all_four(&ctx, &t, &sql("g", Some("w > 100000"))) {
                assert!(out.rows.is_empty(), "{:?}", out.rows);
            }
        }
    }
}

/// §VII top-K, by candidate name: `server-side` loads the table and keeps
/// a K-heap locally; `sampling` takes the K-th value of a striped sample
/// of the ORDER BY column — or the one the catalog's tails hold — as a
/// threshold, pushes `col <= threshold` and heaps only the survivors. The
/// sample always contains K records at or before the threshold, so the
/// answer is exact.
#[cfg(test)]
mod topk {
    mod tests {
        use crate::catalog::{upload_csv_table, Table};
        use crate::context::QueryContext;
        use crate::joinplan::optimal_sample_size;
        use crate::output::QueryOutput;
        use crate::planner::{run_candidate, Tune};
        use pushdown_common::{DataType, Row, Schema, Value};
        use pushdown_s3::S3Store;

        fn setup(n: usize) -> (QueryContext, Table) {
            let store = S3Store::new();
            let schema = Schema::from_pairs(&[
                ("id", DataType::Int),
                ("price", DataType::Float),
                ("pad", DataType::Str),
            ]);
            // Pseudo-random prices, deterministic; no natural ordering with id.
            let rows: Vec<Row> = (0..n)
                .map(|i| {
                    let price = ((i as u64).wrapping_mul(2654435761) % 1_000_000) as f64 / 100.0;
                    Row::new(vec![
                        Value::Int(i as i64),
                        Value::Float(price),
                        Value::Str(format!("pad-{i:08}")),
                    ])
                })
                .collect();
            let t = upload_csv_table(&store, "b", "lineitem", &schema, &rows, 512).unwrap();
            (QueryContext::new(store), t)
        }

        const TOP_25: &str = "SELECT * FROM lineitem ORDER BY price LIMIT 25";

        fn server_side(ctx: &QueryContext, t: &Table, sql: &str) -> QueryOutput {
            run_candidate(ctx, t, sql, "server-side", None).unwrap()
        }

        /// `sampling` as lowered, or with a striped sample of `sample` rows.
        fn sampling(
            ctx: &QueryContext,
            t: &Table,
            sql: &str,
            sample: Option<usize>,
        ) -> QueryOutput {
            run_candidate(ctx, t, sql, "sampling", sample.map(Tune::SampleSize)).unwrap()
        }

        #[test]
        fn sampling_equals_server_side() {
            let (ctx, t) = setup(3000);
            let a = server_side(&ctx, &t, TOP_25);
            let b = sampling(&ctx, &t, TOP_25, None);
            assert_eq!(a.rows.len(), 25);
            assert_eq!(a.rows.len(), b.rows.len());
            for (x, y) in a.rows.iter().zip(&b.rows) {
                assert_eq!(x[1], y[1], "order keys must agree");
            }
        }

        #[test]
        fn descending_order_works() {
            let (ctx, t) = setup(2000);
            let sql = "SELECT * FROM lineitem ORDER BY price DESC LIMIT 25";
            let a = server_side(&ctx, &t, sql);
            let b = sampling(&ctx, &t, sql, Some(400));
            assert_eq!(a.rows.len(), b.rows.len());
            for (x, y) in a.rows.iter().zip(&b.rows) {
                assert_eq!(x[1], y[1]);
            }
            // Top element is the max.
            let max = (0..2000)
                .map(|i| ((i as u64).wrapping_mul(2654435761) % 1_000_000) as f64 / 100.0)
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(a.rows[0][1], Value::Float(max));
        }

        #[test]
        fn sampling_correct_across_sample_sizes() {
            let (ctx, t) = setup(4000);
            let want = server_side(&ctx, &t, TOP_25);
            for s in [25usize, 100, 500, 4000, 100_000] {
                let got = sampling(&ctx, &t, TOP_25, Some(s));
                assert_eq!(got.rows.len(), want.rows.len(), "sample size {s}");
                for (x, y) in want.rows.iter().zip(&got.rows) {
                    assert_eq!(x[1], y[1], "sample size {s}");
                }
            }
        }

        #[test]
        fn k_larger_than_table() {
            let (ctx, t) = setup(100);
            let sql = "SELECT * FROM lineitem ORDER BY price LIMIT 500";
            let a = server_side(&ctx, &t, sql);
            let b = sampling(&ctx, &t, sql, None);
            assert_eq!(a.rows.len(), 100);
            assert_eq!(b.rows.len(), 100);
        }

        #[test]
        fn bigger_samples_shrink_the_scanning_phase() {
            let (ctx, t) = setup(5000);
            let small = sampling(&ctx, &t, TOP_25, Some(50));
            let big = sampling(&ctx, &t, TOP_25, Some(2500));
            let small_phase2 = small.metrics.groups[1].phases[0].stats;
            let big_phase2 = big.metrics.groups[1].phases[0].stats;
            assert!(
                big_phase2.select_returned_bytes < small_phase2.select_returned_bytes,
                "{} vs {}",
                big_phase2.select_returned_bytes,
                small_phase2.select_returned_bytes
            );
            // And the sampling phase grows.
            let small_phase1 = small.metrics.groups[0].phases[0].stats;
            let big_phase1 = big.metrics.groups[0].phases[0].stats;
            assert!(big_phase1.select_returned_bytes > small_phase1.select_returned_bytes);
        }

        #[test]
        fn sampling_transfers_less_than_server_side() {
            let (ctx, t) = setup(5000);
            let a = server_side(&ctx, &t, TOP_25);
            let b = sampling(&ctx, &t, TOP_25, None);
            assert!(
                b.metrics.bytes_returned() < a.metrics.bytes_returned() / 2,
                "sampling {} vs server {}",
                b.metrics.bytes_returned(),
                a.metrics.bytes_returned()
            );
        }

        #[test]
        fn optimal_sample_size_formula() {
            // S* = sqrt(KN/alpha); K=100, N=6e7, alpha=0.1 -> ~2.45e5 (paper
            // §VII-C1 computes 2.4e5).
            let s = optimal_sample_size(100, 60_000_000, 0.1);
            assert!((200_000..300_000).contains(&s), "{s}");
            // Clamps below at 10K.
            assert_eq!(optimal_sample_size(100, 2_000_000_000, 1.0), 447_214);
            assert!(optimal_sample_size(10, 500, 1.0) >= 70);
            // Never exceeds N.
            assert!(optimal_sample_size(1000, 2000, 0.01) <= 2000);
        }

        /// Fig 8 reads its two bars by these labels: each phase is its
        /// scan and the operator that consumes it.
        #[test]
        fn phase_labels_match_fig8() {
            let (ctx, t) = setup(1000);
            let out = sampling(&ctx, &t, TOP_25, Some(200));
            let labels: Vec<String> = out
                .metrics
                .phase_seconds(&ctx.model)
                .into_iter()
                .map(|(l, _)| l)
                .collect();
            assert_eq!(
                labels,
                vec!["sampling phase + threshold", "scanning phase + sort"]
            );
        }

        #[test]
        fn striped_sampling_bounds_phase2_on_adversarial_order() {
            // The table is sorted exactly opposite to the query order — the
            // worst case for a prefix sample: a plain `LIMIT S` would collect
            // the S *largest* values, the ascending threshold would be huge,
            // and phase 2 would re-fetch nearly the whole table. Striping the
            // sample across partitions keeps phase-2 returned bytes within a
            // small multiple of K/N of the table.
            let store = S3Store::new();
            let schema = Schema::from_pairs(&[
                ("id", DataType::Int),
                ("price", DataType::Float),
                ("pad", DataType::Str),
            ]);
            let n = 6000usize;
            let rows: Vec<Row> = (0..n)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i as i64),
                        Value::Float((n - i) as f64), // sorted descending
                        Value::Str(format!("pad-{i:08}")),
                    ])
                })
                .collect();
            let t = upload_csv_table(&store, "b", "sorted", &schema, &rows, 150).unwrap();
            let total = t.total_bytes(&store) as f64;
            let ctx = QueryContext::new(store);
            let k = 30usize;
            let sql = "SELECT * FROM sorted ORDER BY price LIMIT 30";
            let want = server_side(&ctx, &t, sql);
            let kn_bytes = total * k as f64 / n as f64; // "K/N of the table"
            let optimal = optimal_sample_size(k, n as u64, 1.0 / 3.0);
            for sample_size in [Some(optimal), Some(1200)] {
                let got = sampling(&ctx, &t, sql, sample_size);
                assert_eq!(want.rows.len(), got.rows.len());
                for (x, y) in want.rows.iter().zip(&got.rows) {
                    assert_eq!(x[1], y[1], "sample {sample_size:?}");
                }
                // Worst case for a striped sample of share s/P per partition
                // is ~N/P + K rows (one partition's span plus the threshold
                // overshoot) — a small multiple of K/N here, and nowhere near
                // the ~full table the prefix sample degenerates to.
                let phase2 = got.metrics.groups[1].phases[0].stats.select_returned_bytes as f64;
                assert!(
                    phase2 <= 12.0 * kn_bytes,
                    "sample {sample_size:?}: phase 2 returned {phase2:.0} bytes, \
                     want ≤ 12×(K/N)×table = {:.0} (table {total:.0})",
                    12.0 * kn_bytes
                );
                assert!(
                    phase2 <= total / 10.0,
                    "phase 2 must stay far from a full re-fetch"
                );
            }
        }

        #[test]
        fn duplicate_keys_at_the_threshold() {
            // Many duplicate order keys exactly at the K-th position.
            let store = S3Store::new();
            let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]);
            let rows: Vec<Row> = (0..500)
                .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .collect();
            let t = upload_csv_table(&store, "b", "t", &schema, &rows, 128).unwrap();
            let ctx = QueryContext::new(store);
            let sql = "SELECT * FROM t ORDER BY v LIMIT 10";
            let a = server_side(&ctx, &t, sql);
            let b = sampling(&ctx, &t, sql, Some(50));
            assert_eq!(a.rows.len(), 10);
            assert_eq!(b.rows.len(), 10);
            assert!(b.rows.iter().all(|r| r[1] == Value::Int(0)));
            // Ties keep scan order: the first ten `v = 0` rows, whichever
            // way they were found.
            let ids: Vec<Value> = (0..10).map(|i| Value::Int(3 * i)).collect();
            for out in [&a, &b] {
                let got: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
                assert_eq!(got, ids);
            }
        }
    }
}

/// §X Suggestions 3 and 4, which the plan IR runs under an engine
/// extension: the `bitwise` Bloom probe, and the `filtered` group-by
/// whose engine folds under the native `GROUP BY`, each against its
/// stock counterpart.
#[cfg(test)]
mod tests {
    use crate::catalog::{upload_csv_table, Table};
    use crate::context::QueryContext;
    use crate::cost::{predict_plan, Estimators};
    use crate::metrics::{Phase, QueryMetrics};
    use crate::planner::run_candidate;
    use pushdown_common::pricing::Usage;
    use pushdown_common::{DataType, Row, Schema, Value};
    use pushdown_s3::S3Store;
    use pushdown_select::EngineExtensions;

    /// A two-table join and the Bloom candidate of its `SUM` statement:
    /// the build side `l` is the FROM table, `r` is in the catalog.
    fn join_setup() -> (QueryContext, Table) {
        let store = S3Store::new();
        let ls = Schema::from_pairs(&[("lk", DataType::Int), ("bal", DataType::Float)]);
        let lrows: Vec<Row> = (0..400)
            .map(|i| Row::new(vec![Value::Int(i), Value::Float((i % 100) as f64 - 50.0)]))
            .collect();
        let rs = Schema::from_pairs(&[("rk", DataType::Int), ("price", DataType::Float)]);
        let rrows: Vec<Row> = (0..4_000)
            .map(|i| Row::new(vec![Value::Int(i % 500), Value::Float(i as f64)]))
            .collect();
        let left = upload_csv_table(&store, "b", "l", &ls, &lrows, 200).unwrap();
        let right = upload_csv_table(&store, "b", "r", &rs, &rrows, 1_000).unwrap();
        (QueryContext::new(store).with_tables([right]), left)
    }

    /// Run the named join candidate of the fixture's statement; returns
    /// the `SUM` and the label of the phase the probe scan runs in.
    fn run_join(ctx: &QueryContext, left: &Table, name: &str) -> (f64, String) {
        let sql = "SELECT SUM(price) FROM l JOIN r ON lk = rk WHERE bal < -40";
        let spec = pushdown_sql::parse_query(sql).unwrap();
        let candidates = crate::joinplan::lower_candidates(ctx, left, &spec).unwrap();
        let (_, plan) = candidates.iter().find(|(n, _)| *n == name).unwrap();
        let out = crate::plan::execute(&ctx.scoped(), plan).unwrap();
        // The probe's phase is the last one, serial or pipelined.
        let last = out.metrics.groups.last().and_then(|g| g.phases.last());
        let probe = last.expect("a join reports its probe").label.clone();
        (out.rows[0][0].as_f64().unwrap(), probe)
    }

    /// The same context, its engine carrying the `bitwise` extension.
    fn bitwise(ctx: &QueryContext) -> QueryContext {
        let mut extended = ctx.clone();
        extended.engine = ctx.engine.clone().with_extensions(EngineExtensions {
            bitwise: true,
            ..Default::default()
        });
        extended
    }

    #[test]
    fn suggestion3_binary_bloom_matches_and_shrinks_sql() {
        let (ctx, left) = join_setup();
        let (stock, _) = run_join(&ctx, &left, "bloom");
        let (binary, probe) = run_join(&bitwise(&ctx), &left, "bloom");
        assert!((stock - binary).abs() < 1e-6);
        assert!(probe.starts_with("bloom probe r"), "{probe}");
        // Four filter bits per SQL character instead of one.
        let mut f = pushdown_bloom::BloomFilter::with_rate(500, 0.01, 1);
        (0..500).for_each(|k| f.insert(k));
        let binary_sql = f.sql_predicate_binary("rk").to_string();
        assert!(binary_sql.len() * 3 < f.sql_predicate("rk").to_string().len());
        // The stock engine refuses BIT_AT.
        let right = ctx.catalog.resolve("r").unwrap();
        let sql = format!("SELECT rk FROM S3Object WHERE {binary_sql}");
        let err = ctx
            .engine
            .select("b", "r/part-00000.csv", &sql, &right.schema, right.format)
            .unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
    }

    #[test]
    fn suggestion3_binary_bloom_survives_where_string_bloom_degrades() {
        let (mut ctx, left) = join_setup();
        // A SQL limit the string filter cannot meet at the requested rate.
        ctx.engine = pushdown_select::S3SelectEngine::with_limits(
            ctx.store.clone(),
            pushdown_select::SelectLimits {
                max_sql_bytes: 2_000,
            },
        );
        let (string, probe) = run_join(&ctx, &left, "bloom");
        assert!(
            probe.starts_with("bloom probe (fpr 0.01 degraded to ")
                || probe.starts_with("fallback probe"),
            "{probe}"
        );
        // The 4x denser binary encoding still fits and still agrees.
        let (binary, probe) = run_join(&bitwise(&ctx), &left, "bloom");
        assert!(probe.starts_with("bloom probe r"), "{probe}");
        let (reference, _) = run_join(&ctx, &left, "baseline");
        assert!((binary - reference).abs() < 1e-6);
        assert!((string - reference).abs() < 1e-6);
    }

    /// Under an engine limit of 1 200 bytes the 40-key build side's filter
    /// at the requested rate renders past what the probe's statement
    /// leaves it in either encoding (the hex one to 1 247 bytes): the
    /// builder plans against the exact rendered length, so the join
    /// degrades or falls back and answers as `baseline` does, instead of
    /// shipping a statement the engine rejects.
    #[test]
    fn suggestion3_bloom_plans_against_the_rendered_length() {
        let (mut ctx, left) = join_setup();
        ctx.engine = pushdown_select::S3SelectEngine::with_limits(
            ctx.store.clone(),
            pushdown_select::SelectLimits {
                max_sql_bytes: 1_200,
            },
        );
        let (reference, _) = run_join(&ctx, &left, "baseline");
        for ctx in [ctx.clone(), bitwise(&ctx)] {
            let (sum, probe) = run_join(&ctx, &left, "bloom");
            assert!(
                probe.starts_with("bloom probe") || probe.starts_with("fallback probe"),
                "{probe}"
            );
            assert!((sum - reference).abs() < 1e-6);
        }
    }

    /// A 37-group table in three partitions on the stock engine, and the
    /// statement §X Suggestion 4's tests group it by.
    fn native_setup() -> (QueryContext, Table, &'static str) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
        let rows: Vec<Row> = (0..2_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i % 37) as i64),
                    Value::Float((i as f64 * 1.3) % 211.0),
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 700).unwrap();
        let sql = "SELECT g, SUM(v), COUNT(v), AVG(v), MIN(v) FROM t WHERE v > 10 GROUP BY g";
        (QueryContext::new(store), t, sql)
    }

    /// The same context, its engine carrying the native `GROUP BY`.
    fn native(ctx: &QueryContext) -> QueryContext {
        let mut extended = ctx.clone();
        extended.engine = ctx.engine.clone().with_extensions(EngineExtensions {
            native_group_by: true,
            ..Default::default()
        });
        extended
    }

    #[test]
    fn suggestion4_native_groupby_matches_case_when() {
        let (mut ctx, t, sql) = native_setup();
        // `filtered` ships rows on the stock engine and partials on the
        // extended one.
        let stock = run_candidate(&ctx, &t, sql, "filtered", None).unwrap();
        ctx = native(&ctx);
        let case_when = run_candidate(&ctx, &t, sql, "s3-side", None).unwrap();
        let native = run_candidate(&ctx, &t, sql, "filtered", None).unwrap();
        assert_eq!(native.rows, stock.rows);
        assert!(native.billed.select_returned_bytes * 4 < stock.billed.select_returned_bytes);
        assert_eq!(native.metrics.usage(), native.billed);
        assert_eq!(native.schema, case_when.schema);
        assert_eq!(case_when.rows.len(), native.rows.len());
        for (a, b) in case_when.rows.iter().zip(&native.rows) {
            for (x, y) in a.values().iter().zip(b.values()) {
                match (x, y) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert!((fx - fy).abs() < 1e-6 * (1.0 + fx.abs()))
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
        // The native statement is tiny: far fewer expression terms reach
        // the scanner, so the modeled scan is faster.
        let native_terms = native.metrics.groups[0].phases[0].stats.expr_terms;
        let case_terms = case_when.metrics.groups[1].phases[0].stats.expr_terms;
        assert!(
            native_terms * 5 < case_terms,
            "native {native_terms} vs case-when {case_terms}"
        );
        assert!(native.runtime(&ctx) < case_when.runtime(&ctx));
    }

    /// Under the native `GROUP BY` the `filtered` group-by folds in the
    /// engine, at the bill the statement pushed whole has always had —
    /// one phase, a unit per partial row returned and one per partial
    /// merged, the grouped statement's expression terms — and is priced
    /// as it runs.
    #[test]
    fn suggestion4_filtered_folds_in_the_engine_at_the_pushed_bill() {
        let (ctx, t, sql) = native_setup();
        let ctx = native(&ctx);
        let out = run_candidate(&ctx, &t, sql, "filtered", None).unwrap();
        let want = Usage {
            requests: 3,
            select_scanned_bytes: 35_868,
            select_returned_bytes: 6_569,
            plain_bytes: 0,
        };
        assert_eq!(out.billed, want);
        assert_eq!(out.metrics.usage(), want);
        let phases = |m: &QueryMetrics| -> Vec<(String, u64, u32)> {
            let phases = m.groups.iter().flat_map(|g| &g.phases);
            let stats = |p: &Phase| {
                (
                    p.label.clone(),
                    p.stats.server_cpu_units,
                    p.stats.expr_terms,
                )
            };
            phases.map(stats).collect()
        };
        assert_eq!(phases(&out.metrics), [("select t".to_string(), 222, 7)]);
        let spec = pushdown_sql::parse_query(sql).unwrap();
        let (_, candidates) = crate::planner::lower(&ctx, &t, &spec).unwrap();
        let (_, plan) = candidates.iter().find(|(n, _)| *n == "filtered").unwrap();
        let predicted = predict_plan(&Estimators::new(&ctx, [plan]), plan).unwrap();
        assert_eq!(phases(&predicted.metrics), phases(&out.metrics));
        // The returned bytes are the one estimate: the partial rows'
        // widths, which only the run knows.
        let predicted = Usage {
            select_returned_bytes: want.select_returned_bytes,
            ..predicted.metrics.usage()
        };
        assert_eq!(predicted, want);
    }

    #[test]
    fn stock_engine_refuses_native_groupby() {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int)]);
        let rows = vec![Row::new(vec![Value::Int(1)])];
        upload_csv_table(&store, "b", "t", &schema, &rows, 10).unwrap();
        let ctx = QueryContext::new(store);
        let ext = pushdown_sql::parser::parse_select_extended(
            "SELECT g, COUNT(*) FROM S3Object GROUP BY g",
        )
        .unwrap();
        let err = ctx
            .engine
            .select_grouped(
                "b",
                "t/part-00000.csv",
                &ext,
                &schema,
                pushdown_select::InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
    }
}
