//! Differential tests for multi-table SQL (ISSUE 4): the paper's §V join
//! algorithms are the *named candidates* the join lowering emits
//! (`baseline`, `filtered`, `bloom`, ...), run one by one through the
//! plan executor; they must agree with each other on every shape, NULL
//! keys included, pushdown join plans must never bill more transferred
//! bytes than Baseline (mirrors `tests/differential.rs`), and the TPC-H
//! Q3-shaped statement must run end-to-end under every strategy with a
//! per-operator predicted-vs-actual tree and a competitive adaptive pick.

use pushdown_bench::{run_candidate, Tune};
use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::joinplan::lower_candidates;
use pushdowndb::core::planner::{execute_sql_verbose, PlanKind};
use pushdowndb::core::{
    execute_sql, plan, upload_columnar_table, upload_csv_table, PlanNode, PlanOp, QueryContext,
    QueryOutput, Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::select::{S3SelectEngine, SelectLimits};
use pushdowndb::sql::parse_query;
use pushdowndb::tpch::{planner_suite, tpch_context};

fn sorted_rows(mut out: QueryOutput) -> Vec<Row> {
    out.rows.sort_by(|x, y| {
        for (a, b) in x.values().iter().zip(y.values()) {
            let o = a.total_cmp(b);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    out.rows
}

// ---------------------------------------------------------------------
// the §V algorithms as named candidates
// ---------------------------------------------------------------------

const THREE: [&str; 3] = ["baseline", "filtered", "bloom"];

/// A miniature customer ⋈ orders setup mirroring the paper's Listing 2;
/// `customer` is the FROM (build) table, `orders` is in the catalog.
fn listing2_setup() -> (QueryContext, Table) {
    let store = S3Store::new();
    let cust_schema =
        Schema::from_pairs(&[("c_custkey", DataType::Int), ("c_acctbal", DataType::Float)]);
    let customers: Vec<Row> = (0..200)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Float((i as f64 * 37.0) % 2000.0 - 1000.0),
            ])
        })
        .collect();
    let orders_schema = Schema::from_pairs(&[
        ("o_orderkey", DataType::Int),
        ("o_custkey", DataType::Int),
        ("o_totalprice", DataType::Float),
        ("o_orderdate", DataType::Date),
    ]);
    let orders: Vec<Row> = (0..2000)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 250), // some custkeys have no customer
                Value::Float((i as f64 * 13.0) % 500.0),
                Value::Date(8000 + (i % 1000) as i32),
            ])
        })
        .collect();
    let customer = upload_csv_table(&store, "b", "customer", &cust_schema, &customers, 64).unwrap();
    let orders = upload_csv_table(&store, "b", "orders", &orders_schema, &orders, 256).unwrap();
    (QueryContext::new(store).with_tables([orders]), customer)
}

const LISTING2: &str = "FROM customer JOIN orders ON c_custkey = o_custkey";

fn sum_sql(predicate: &str) -> String {
    format!("SELECT SUM(o_totalprice) {LISTING2} WHERE {predicate}")
}

fn rows_sql(predicate: &str) -> String {
    format!("SELECT c_custkey, o_totalprice {LISTING2} WHERE {predicate}")
}

fn total(out: &QueryOutput) -> f64 {
    assert_eq!(out.rows.len(), 1);
    out.rows[0][0].as_f64().unwrap()
}

/// The probe side's phase of a two-table Bloom join: the second group.
fn probe_phase(out: &QueryOutput) -> &pushdowndb::core::metrics::Phase {
    assert_eq!(out.metrics.groups[1].phases.len(), 1);
    &out.metrics.groups[1].phases[0]
}

#[test]
fn all_three_algorithms_agree_on_the_answer() {
    let (ctx, customer) = listing2_setup();
    let sql = sum_sql("c_acctbal <= -800");
    let [a, b, c] = THREE.map(|n| run_candidate(&ctx, &customer, &sql, n, None).unwrap());
    assert!((total(&a) - total(&b)).abs() < 1e-6);
    assert!((total(&a) - total(&c)).abs() < 1e-6);
    assert!(total(&a) > 0.0);
}

#[test]
fn row_outputs_agree_too() {
    let (ctx, customer) = listing2_setup();
    let sql = rows_sql("c_acctbal <= -800");
    let run = |name, fpr| run_candidate(&ctx, &customer, &sql, name, fpr).unwrap();
    let a = run("baseline", None);
    assert_eq!(a.schema.names(), vec!["c_custkey", "o_totalprice"]);
    let a = sorted_rows(a);
    assert!(!a.is_empty());
    assert_eq!(a, sorted_rows(run("filtered", None)));
    assert_eq!(a, sorted_rows(run("bloom", Some(Tune::Fpr(0.05)))));
}

#[test]
fn bloom_join_returns_fewer_probe_bytes() {
    let (ctx, customer) = listing2_setup();
    let sql = sum_sql("c_acctbal <= -800");
    let returned = |name| {
        let out = run_candidate(&ctx, &customer, &sql, name, None).unwrap();
        out.metrics.usage().select_returned_bytes
    };
    // The Bloom filter suppresses non-joining orders rows at S3, so far
    // fewer bytes come back on the probe side.
    let (bloom, filtered) = (returned("bloom"), returned("filtered"));
    assert!(bloom * 3 < filtered, "bloom {bloom} vs filtered {filtered}");
}

/// How a Bloom join ran is on its probe phase: the plain label says the
/// filter applied at the requested rate, and the shipped predicate holds
/// the seven hash conjuncts of `log2(1/0.01)`. The label carries no bit
/// count — the filter's geometry is pinned by the `pushdown-bloom`
/// crate's own `paper_sizing_formulas`.
#[test]
fn bloom_probe_label_reports_an_applied_filter() {
    let (ctx, customer) = listing2_setup();
    let sql = sum_sql("c_acctbal <= -800");
    let out = run_candidate(&ctx, &customer, &sql, "bloom", None).unwrap();
    let probe = probe_phase(&out);
    assert!(
        probe
            .label
            .starts_with("bloom probe orders + hash join (bloom)"),
        "{}",
        probe.label
    );
    assert!(probe.stats.expr_terms >= 7, "{:?}", probe.stats);
}

/// A Bloom join sizes its filter to the SQL limit the engine enforces:
/// under a 4 KiB limit the filter over every customer of
/// `c_acctbal <= 5000` degrades or falls back (§V-B1), and the join
/// answers as the baseline join does instead of sending a statement the
/// engine rejects.
#[test]
fn bloom_plans_its_filter_under_the_engines_sql_limit() {
    let (mut ctx, t) = tpch_context(0.002, 25_000).unwrap();
    ctx.engine = S3SelectEngine::with_limits(
        ctx.store.clone(),
        SelectLimits {
            max_sql_bytes: 4 * 1024,
        },
    );
    let sql = sum_sql("c_acctbal <= 5000");
    let bloom = run_candidate(&ctx, &t.customer, &sql, "bloom", None).unwrap();
    let baseline = run_candidate(&ctx, &t.customer, &sql, "baseline", None).unwrap();
    let (got, want) = (total(&bloom), total(&baseline));
    assert!((got - want).abs() <= 1e-9 * want.abs(), "{got} vs {want}");
}

#[test]
fn bloom_falls_back_when_sql_cannot_fit() {
    let (mut ctx, customer) = listing2_setup();
    // A SQL limit that admits the unfiltered probe but no filter.
    ctx.engine =
        S3SelectEngine::with_limits(ctx.store.clone(), SelectLimits { max_sql_bytes: 128 });
    let sql = sum_sql("c_acctbal <= -800");
    let out = run_candidate(&ctx, &customer, &sql, "bloom", None).unwrap();
    let probe = probe_phase(&out);
    assert!(
        probe.label.starts_with("fallback probe (no bloom) orders"),
        "{}",
        probe.label
    );
    // Still correct.
    let want = run_candidate(&ctx, &customer, &sql, "filtered", None).unwrap();
    assert!((total(&out) - total(&want)).abs() < 1e-6);
    assert_eq!(
        out.metrics.usage().select_returned_bytes,
        want.metrics.usage().select_returned_bytes
    );
    // And serial: the build side had loaded before the decision could be
    // made, so build and probe are phases of their own, one after the
    // other, while `filtered` runs its two scans in one group, the join
    // inside the probe's phase.
    let shape = |o: &QueryOutput| -> Vec<usize> {
        o.metrics.groups.iter().map(|g| g.phases.len()).collect()
    };
    assert_eq!(shape(&out), vec![1, 1]);
    assert_eq!(out.metrics.groups[0].phases[0].label, "select customer");
    assert_eq!(shape(&want), vec![2]);
    let probe = &want.metrics.groups[0].phases[1].label;
    assert!(probe.starts_with("select orders + hash join"), "{probe}");
}

/// Swap the one `HashJoin` of `node` for a Bloom join on the same keys.
fn force_bloom(node: &mut PlanNode) {
    if let PlanOp::HashJoin {
        build_key,
        probe_key,
    } = &node.op
    {
        node.op = PlanOp::BloomJoin {
            build_key: build_key.clone(),
            probe_key: probe_key.clone(),
            fpr: 0.01,
        };
    }
    node.children.iter_mut().for_each(force_bloom);
}

#[test]
fn bloom_requires_integer_keys() {
    let (ctx, customer) = listing2_setup();
    // Retarget the join at a pair of float columns: the lineup has no
    // `bloom`, and a Bloom join built by hand over them is a bind error.
    let sql = "SELECT SUM(o_totalprice) FROM customer JOIN orders ON c_acctbal = o_totalprice";
    let spec = parse_query(sql).unwrap();
    let candidates = lower_candidates(&ctx, &customer, &spec).unwrap();
    assert!(candidates.iter().all(|(name, _)| *name != "bloom"));
    let (_, filtered) = candidates.iter().find(|(n, _)| *n == "filtered").unwrap();
    plan::execute(&ctx.scoped(), filtered).unwrap();
    let mut forced = filtered.clone();
    force_bloom(&mut forced);
    let err = plan::execute(&ctx.scoped(), &forced).unwrap_err();
    assert_eq!(err.code(), "BindError", "{err}");
    assert!(err.to_string().contains("integer join key"), "{err}");
}

#[test]
fn right_predicate_pushes_in_filtered_and_bloom() {
    let (ctx, customer) = listing2_setup();
    let dated = sum_sql("c_acctbal <= -800 AND o_orderdate < DATE '1992-01-01'");
    let [a, b, c] = THREE.map(|n| run_candidate(&ctx, &customer, &dated, n, None).unwrap());
    assert!((total(&a) - total(&b)).abs() < 1e-6);
    assert!((total(&a) - total(&c)).abs() < 1e-6);
    // Selective date predicate => filtered returns fewer probe bytes
    // than the unfiltered variant did.
    let undated = sum_sql("c_acctbal <= -800");
    let unfiltered = run_candidate(&ctx, &customer, &undated, "filtered", None).unwrap();
    assert!(
        b.metrics.usage().select_returned_bytes < unfiltered.metrics.usage().select_returned_bytes
    );
}

/// The SQL planner's adaptive pick agrees with, and never measurably
/// loses to, the three fixed algorithms — at the default `PerfParams`:
/// the pick and the three named candidates count phases by one rule.
#[test]
fn adaptive_join_agrees_and_never_measurably_loses() {
    let (ctx, customer) = listing2_setup();
    let sql = sum_sql("c_acctbal <= -800");
    let out = execute_sql(&ctx, &customer, &sql, Strategy::Adaptive).unwrap();
    let others = THREE.map(|n| run_candidate(&ctx, &customer, &sql, n, None).unwrap());
    assert!((total(&out) - total(&others[0])).abs() < 1e-6);
    let cost = |o: &QueryOutput| o.metrics.cost(&ctx.model, &ctx.pricing).total();
    let min = others.iter().map(cost).fold(f64::INFINITY, f64::min);
    assert!(
        cost(&out) <= min * 1.10,
        "adaptive ${:.6} vs min ${min:.6}",
        cost(&out)
    );
}

#[test]
fn empty_build_side_yields_empty_join() {
    let (ctx, customer) = listing2_setup();
    let sql = rows_sql("c_acctbal < -99999");
    for name in THREE {
        let out = run_candidate(&ctx, &customer, &sql, name, None).unwrap();
        assert!(out.rows.is_empty(), "{name}");
    }
}

// ---------------------------------------------------------------------
// NULL join keys through every candidate
// ---------------------------------------------------------------------

/// Two tables whose keys meet every NULL case: NULL build keys, NULL
/// probe keys, keys on one side only, duplicates on both.
fn null_key_tables(columnar: bool) -> (QueryContext, Table) {
    let key = |k: Option<i64>| k.map_or(Value::Null, Value::Int);
    let dim_schema = Schema::from_pairs(&[("dk", DataType::Int), ("tag", DataType::Str)]);
    let dim_keys = [
        Some(1),
        None,
        Some(2),
        Some(2),
        None,
        Some(7),
        Some(40),
        Some(3),
    ];
    let dims: Vec<Row> = dim_keys
        .iter()
        .enumerate()
        .map(|(i, k)| Row::new(vec![key(*k), Value::Str(format!("d{i}"))]))
        .collect();
    let fact_schema = Schema::from_pairs(&[("fk", DataType::Int), ("val", DataType::Int)]);
    let facts: Vec<Row> = (0..60)
        .map(|i| {
            // Every fifth probe key is NULL, the others run over 0..=9:
            // 0, 4, 5, 6, 8 and 9 have no dim row, and 40 on the build
            // side has no fact row.
            let k = (i % 5 != 0).then_some(i % 7 + (i % 2) * 3);
            Row::new(vec![key(k), Value::Int(i)])
        })
        .collect();
    let store = S3Store::new();
    let upload = |name: &str, schema: &Schema, rows: &[Row], per_partition: usize| {
        if columnar {
            let options = WriterOptions::default();
            upload_columnar_table(&store, "b", name, schema, rows, per_partition, options)
        } else {
            upload_csv_table(&store, "b", name, schema, rows, per_partition)
        }
        .unwrap()
    };
    let dim = upload("dim", &dim_schema, &dims, 3);
    let fact = upload("fact", &fact_schema, &facts, 16);
    (QueryContext::new(store).with_tables([fact]), dim)
}

#[test]
fn null_join_keys_never_match_under_any_candidate() {
    let sql = "SELECT tag, val FROM dim JOIN fact ON dk = fk";
    for columnar in [false, true] {
        let (ctx, dim) = null_key_tables(columnar);
        let ctx = ctx.with_cache(1 << 22);
        let baseline = run_candidate(&ctx, &dim, sql, "baseline", None).unwrap();
        // What the definition says: pairs with equal non-NULL keys.
        // `dk` 1, 2 (twice), 3 and 7 each meet their fact rows; the two
        // NULL build keys (d1, d4) meet nothing — not the twelve NULL
        // probe keys either — and neither does 40 (d6).
        assert!(baseline.rows.len() > 10);
        let tags: std::collections::BTreeSet<String> =
            baseline.rows.iter().map(|r| r[0].to_string()).collect();
        let joined: Vec<&str> = tags.iter().map(String::as_str).collect();
        assert_eq!(joined, ["d0", "d2", "d3", "d5", "d7"]);
        let want = sorted_rows(baseline);
        let spec = parse_query(sql).unwrap();
        let names: Vec<&str> = lower_candidates(&ctx, &dim, &spec)
            .unwrap()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            names,
            vec![
                "cached",
                "cached-build",
                "baseline",
                "filtered",
                "build-push",
                "probe-push",
                "bloom"
            ]
        );
        for name in names {
            let got = run_candidate(&ctx, &dim, sql, name, None).unwrap();
            assert_eq!(got.metrics.usage(), got.billed, "{name}");
            assert_eq!(sorted_rows(got), want, "`{name}`, columnar {columnar}");
        }
    }
}

// ---------------------------------------------------------------------
// the planner over joined statements
// ---------------------------------------------------------------------

/// Pushdown join plans never bill more transferred bytes than Baseline,
/// and Adaptive returns the same rows as both — over every joined query
/// of the planner suite.
#[test]
fn joined_suite_pushdown_never_transfers_more_than_baseline() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let mut joined = 0;
    for q in planner_suite() {
        if !q.name.starts_with("join-") {
            continue;
        }
        joined += 1;
        let table = (q.table)(&t);
        let base = execute_sql(&ctx, table, q.sql, Strategy::Baseline).unwrap();
        let push = execute_sql(&ctx, table, q.sql, Strategy::Pushdown).unwrap();
        let adapt = execute_sql(&ctx, table, q.sql, Strategy::Adaptive).unwrap();
        assert_eq!(base.rows, push.rows, "{}", q.name);
        assert_eq!(base.rows, adapt.rows, "{}", q.name);
        assert!(
            push.metrics.bytes_returned() <= base.metrics.bytes_returned(),
            "{}: pushdown transferred {} vs baseline {}",
            q.name,
            push.metrics.bytes_returned(),
            base.metrics.bytes_returned()
        );
        // Scoped accounting holds through both join phases.
        assert_eq!(base.metrics.usage(), base.billed, "{} baseline", q.name);
        assert_eq!(push.metrics.usage(), push.billed, "{} pushdown", q.name);
        assert_eq!(adapt.metrics.usage(), adapt.billed, "{} adaptive", q.name);
    }
    assert!(joined >= 2, "suite carries at least two joined queries");
}

/// Acceptance (ISSUE 4): the TPC-H Q3-shaped statement — filter +
/// 2-table equi-join + GROUP BY + ORDER BY + LIMIT — executes through
/// `execute_sql_verbose` under every strategy; its report renders a
/// per-operator tree with predictions; and adaptive lands within 1.1×
/// of the cheaper fixed strategy on measured dollars.
#[test]
fn q3_shaped_statement_end_to_end_acceptance() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let sql = "SELECT o_orderdate, o_shippriority, SUM(o_totalprice) AS revenue \
               FROM customer JOIN orders ON c_custkey = o_custkey \
               WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' \
               GROUP BY o_orderdate, o_shippriority \
               ORDER BY revenue DESC, o_orderdate LIMIT 10";
    let mut outputs = Vec::new();
    for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
        let (out, explain) = execute_sql_verbose(&ctx, &t.customer, sql, strategy).unwrap();
        assert!(
            matches!(explain.kind, PlanKind::Join { .. }),
            "{strategy:?}: {:?}",
            explain.kind
        );
        assert!(!out.rows.is_empty(), "{strategy:?}");
        assert!(out.rows.len() <= 10, "{strategy:?}");
        assert_eq!(
            out.schema.names(),
            vec!["o_orderdate", "o_shippriority", "revenue"],
            "{strategy:?}"
        );
        // Ordered by revenue desc, then date asc on ties.
        for w in out.rows.windows(2) {
            let major = w[0][2].total_cmp(&w[1][2]);
            assert!(major.is_ge(), "{strategy:?}");
            if major == std::cmp::Ordering::Equal {
                assert!(w[0][0].total_cmp(&w[1][0]).is_le(), "{strategy:?}");
            }
        }
        // The operator tree renders per node with predicted-vs-actual.
        let report = explain.report(&out, &ctx);
        assert!(report.contains("operators"), "{strategy:?}:\n{report}");
        assert!(report.contains("Join["), "{strategy:?}:\n{report}");
        assert!(report.contains("Scan["), "{strategy:?}:\n{report}");
        assert!(report.contains("GroupBy["), "{strategy:?}:\n{report}");
        assert!(report.contains("TopK["), "{strategy:?}:\n{report}");
        assert!(
            report.contains("predicted") && report.contains("actual"),
            "{strategy:?}:\n{report}"
        );
        outputs.push(out);
    }
    // All three strategies agree on the answer.
    assert_eq!(outputs[0].rows, outputs[1].rows);
    assert_eq!(outputs[0].rows, outputs[2].rows);

    // Adaptive is competitive: ≤ 1.1× the cheaper fixed strategy on
    // measured dollars.
    let cost = |o: &QueryOutput| o.metrics.cost(&ctx.model, &ctx.pricing).total();
    let min_fixed = cost(&outputs[0]).min(cost(&outputs[1]));
    assert!(
        cost(&outputs[2]) <= min_fixed * 1.10,
        "adaptive ${:.6} vs min(fixed) ${min_fixed:.6}",
        cost(&outputs[2])
    );
}

/// Joined queries through the workload harness: per-query child ledgers
/// sum exactly to the global ledger delta at 8 threads (the PR-3
/// conservation law extended to two-phase join plans).
#[test]
fn joined_queries_conserve_ledgers_at_8_threads() {
    use pushdowndb::common::pricing::Usage;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let suite: Vec<_> = planner_suite()
        .into_iter()
        .filter(|q| q.name.starts_with("join-"))
        .collect();
    let serial: Vec<QueryOutput> = suite
        .iter()
        .map(|q| execute_sql(&ctx, (q.table)(&t), q.sql, Strategy::Adaptive).unwrap())
        .collect();

    let jobs: Vec<usize> = (0..8).flat_map(|_| 0..suite.len()).collect();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<QueryOutput>>> = Mutex::new(vec![None; jobs.len()]);
    let before = ctx.store.global_ledger().snapshot();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&qi) = jobs.get(i) else { break };
                let q = &suite[qi];
                let out = execute_sql(&ctx, (q.table)(&t), q.sql, Strategy::Adaptive).unwrap();
                slots.lock().unwrap()[i] = Some(out);
            });
        }
    });
    let after = ctx.store.global_ledger().snapshot();
    let mut sum = Usage::default();
    for (i, out) in slots.into_inner().unwrap().into_iter().enumerate() {
        let out = out.expect("slot filled");
        let reference = &serial[jobs[i]];
        assert_eq!(out.rows, reference.rows, "join query {} rows", jobs[i]);
        assert_eq!(out.billed, reference.billed, "join query {} bill", jobs[i]);
        sum += out.billed;
    }
    assert_eq!(
        after,
        before + sum,
        "global ledger delta must equal the sum of joined queries' child ledgers"
    );
}
