//! Shape assertions for every paper figure: the qualitative claims of
//! the evaluation (who wins, what grows, where crossovers sit) must hold
//! on the reproduction's own output. These run each experiment at the
//! `SIZE` its `figure()` runs at, so the shapes asserted here are those
//! of the rows `tests/paper_figures.rs` pins and the `figures` binary
//! prints.

use pushdown_bench::experiments as ex;

#[test]
fn fig01_filter_shapes() {
    let rows = ex::fig01_filter::run(ex::fig01_filter::SIZE).unwrap();
    for r in &rows {
        // "a dramatic 10x" server → s3 (we accept anything ≥ 5x).
        assert!(
            r.server.runtime > 5.0 * r.s3.runtime,
            "sel {}: server {} vs s3 {}",
            r.selectivity,
            r.server.runtime,
            r.s3.runtime
        );
        // Server-side cost is compute-dominated; s3-side scan-dominated.
        assert!(r.server.cost.compute > r.server.cost.scan);
        assert!(r.s3.cost.scan > r.s3.cost.compute);
    }
    // Indexing: competitive when selective, collapsing at 1e-2.
    let first = &rows[0];
    let last = rows.last().unwrap();
    assert!(first.indexed.runtime <= 1.5 * first.s3.runtime);
    assert!(last.indexed.runtime > 5.0 * last.s3.runtime);
    // Indexing cost explodes with selectivity (requests), ≥ 10x.
    assert!(last.indexed.cost.total() > 10.0 * first.indexed.cost.total());
    // And is the cheapest option when highly selective (paper: 2.7x
    // cheaper than server-side).
    assert!(first.indexed.cost.total() * 2.0 < first.server.cost.total());
}

#[test]
fn fig02_join_customer_shapes() {
    let rows = ex::fig02_join_customer::run(ex::fig02_join_customer::SIZE).unwrap();
    for r in &rows {
        // Bloom wins while the customer predicate is selective.
        assert!(
            r.bloom.runtime < r.filtered.runtime,
            "upper {}",
            r.upper_acctbal
        );
        assert!(
            r.bloom.runtime < r.baseline.runtime,
            "upper {}",
            r.upper_acctbal
        );
        // Baseline and filtered are within the same regime (paper:
        // "perform similarly") — no more than ~2.5x apart.
        assert!(r.baseline.runtime < 2.5 * r.filtered.runtime);
    }
    // Bloom degrades (monotone non-decreasing modulo noise) as the
    // predicate loosens.
    assert!(rows.last().unwrap().bloom.runtime >= rows[0].bloom.runtime * 0.95);
}

#[test]
fn fig03_join_orders_shapes() {
    let rows = ex::fig03_join_orders::run(ex::fig03_join_orders::SIZE).unwrap();
    // Filtered gets slower as the date bound loosens...
    assert!(rows[0].filtered.runtime < rows.last().unwrap().filtered.runtime);
    // ...and beats baseline when selective.
    assert!(rows[0].filtered.runtime * 2.0 < rows[0].baseline.runtime);
    // Bloom stays roughly constant (paper: "remains fairly constant").
    let bloom_min = rows
        .iter()
        .map(|r| r.bloom.runtime)
        .fold(f64::MAX, f64::min);
    let bloom_max = rows.iter().map(|r| r.bloom.runtime).fold(0.0, f64::max);
    assert!(
        bloom_max < 1.5 * bloom_min,
        "bloom {bloom_min}..{bloom_max}"
    );
}

#[test]
fn fig04_fpr_shapes() {
    let res = ex::fig04_join_fpr::run(ex::fig04_join_fpr::SIZE).unwrap();
    let runtimes: Vec<f64> = res.sweep.iter().map(|r| r.bloom.runtime).collect();
    let min = runtimes.iter().copied().fold(f64::MAX, f64::min);
    // The low-FPR end pays for its hash count: every extra conjunct slows
    // the storage-side scan, so the tightest rate is strictly worse than
    // the best one.
    assert!(runtimes[0] > min, "low-FPR end should pay for hash count");
    // The high-FPR end pays in transfer: bytes returned grow strictly
    // with the false-positive rate across the whole sweep. (At bench
    // scale the build side is a handful of keys, so the *runtime* at the
    // loose end stays latency/scan-bound and the paper's full U-shape
    // only emerges at larger scale factors; the byte series is the
    // scale-independent form of the claim.)
    let bytes: Vec<u64> = res.sweep.iter().map(|r| r.bloom.bytes_returned).collect();
    assert!(
        bytes.windows(2).all(|w| w[0] < w[1]),
        "transfer must grow with FPR: {bytes:?}"
    );
    // Bloom at its best beats filtered and baseline.
    assert!(min < res.filtered.runtime);
    assert!(min < res.baseline.runtime);
}

#[test]
fn fig05_groupby_uniform_shapes() {
    let rows = ex::fig05_groupby_uniform::run(ex::fig05_groupby_uniform::SIZE).unwrap();
    // Server and filtered are flat in the group count (±10%).
    let s0 = rows[0].server.runtime;
    let f0 = rows[0].filtered.runtime;
    for r in &rows {
        assert!((r.server.runtime / s0 - 1.0).abs() < 0.1);
        assert!((r.filtered.runtime / f0 - 1.0).abs() < 0.1);
        // Filtered beats server-side at every group count (paper: 64%).
        assert!(r.filtered.runtime < r.server.runtime);
    }
    // S3-side degrades monotonically with groups...
    for w in rows.windows(2) {
        assert!(w[1].s3_side.runtime > w[0].s3_side.runtime);
    }
    // ...beating filtered at 2 groups, losing by 32 (the crossover).
    assert!(rows[0].s3_side.runtime < rows[0].filtered.runtime);
    assert!(rows.last().unwrap().s3_side.runtime > rows.last().unwrap().filtered.runtime);
}

#[test]
fn fig06_hybrid_split_shapes() {
    let rows = ex::fig06_hybrid_split::run(ex::fig06_hybrid_split::SIZE).unwrap();
    for w in rows.windows(2) {
        // More groups at S3: the S3 bar grows, the server bar shrinks,
        // fewer bytes come back (paper Fig 6).
        assert!(w[1].s3_seconds > w[0].s3_seconds);
        assert!(w[1].server_seconds < w[0].server_seconds);
        assert!(w[1].bytes_returned < w[0].bytes_returned);
    }
    // The best total is interior (paper: 6–8 groups).
    let totals: Vec<f64> = rows.iter().map(|r| r.total.runtime).collect();
    let min = totals.iter().copied().fold(f64::MAX, f64::min);
    assert!(totals[0] > min);
    assert!(*totals.last().unwrap() > min);
}

#[test]
fn fig07_skew_shapes() {
    let rows = ex::fig07_groupby_skew::run(ex::fig07_groupby_skew::SIZE).unwrap();
    // Server-side and filtered are insensitive to skew (±10%).
    let s0 = rows[0].server.runtime;
    for r in &rows {
        assert!(
            (r.server.runtime / s0 - 1.0).abs() < 0.1,
            "theta {}",
            r.theta
        );
    }
    // Hybrid improves monotonically with skew and wins clearly at 1.3
    // (paper: 31% over filtered).
    for w in rows.windows(2) {
        assert!(w[1].hybrid.runtime <= w[0].hybrid.runtime * 1.05);
    }
    let last = rows.last().unwrap();
    assert!(last.hybrid.runtime < 0.75 * last.filtered.runtime);
    // At theta 0 hybrid degenerates to ~filtered (within 25%).
    assert!(rows[0].hybrid.runtime < 1.25 * rows[0].filtered.runtime);
}

#[test]
fn fig08_sample_size_shapes() {
    let res = ex::fig08_topk_sample::run(ex::fig08_topk_sample::SIZE).unwrap();
    let s = &res.sweep;
    // Sampling phase grows with S; scanning phase shrinks.
    assert!(s.last().unwrap().sampling_seconds > s[0].sampling_seconds);
    assert!(s.last().unwrap().scanning_seconds < s[0].scanning_seconds);
    // Returned bytes are U-shaped: interior minimum.
    let bytes: Vec<u64> = s.iter().map(|r| r.bytes_returned).collect();
    let min = *bytes.iter().min().unwrap();
    assert!(bytes[0] > min);
    assert!(*bytes.last().unwrap() > min);
    // The measured best total sits within 4x of the analytic optimum's
    // total (the paper: "stable in a relatively wide range around S*").
    let best = s.iter().map(|r| r.total.runtime).fold(f64::MAX, f64::min);
    let at_analytic = s
        .iter()
        .min_by_key(|r| r.sample_size.abs_diff(res.analytic_optimum))
        .unwrap()
        .total
        .runtime;
    assert!(at_analytic <= best * 4.0);
}

#[test]
fn fig09_k_shapes() {
    let rows = ex::fig09_topk_k::run(ex::fig09_topk_k::SIZE).unwrap();
    for r in &rows {
        // Sampling is consistently faster and cheaper (paper Fig 9).
        assert!(r.sampling.runtime < r.server.runtime, "K={}", r.k);
        assert!(r.sampling.cost.total() < r.server.cost.total(), "K={}", r.k);
    }
    // Both grow with K.
    assert!(rows.last().unwrap().server.runtime > rows[0].server.runtime);
    assert!(rows.last().unwrap().sampling.runtime > rows[0].sampling.runtime);
}

#[test]
fn fig10_suite_shapes() {
    let res = ex::fig10_tpch::run(ex::fig10_tpch::SIZE).unwrap();
    for r in &res.rows {
        assert!(r.speedup() > 1.0, "{}: speedup {:.2}", r.name, r.speedup());
    }
    // Headline claims: large geo-mean speedup, net cost reduction.
    assert!(
        res.geo_mean_speedup > 3.0,
        "geo-mean speedup {:.2} (paper: 6.7)",
        res.geo_mean_speedup
    );
    assert!(
        res.geo_mean_cost_ratio < 1.0,
        "geo-mean cost ratio {:.2} (paper: 0.70)",
        res.geo_mean_cost_ratio
    );
}

#[test]
fn ablation_shapes() {
    // Suggestions 1 & 2: each step removes request overhead; at high
    // selectivity the orderings are strict.
    let idx = ex::ablation::run_index_ablation(ex::ablation::INDEX_SIZE).unwrap();
    let worst = idx.last().unwrap();
    assert!(worst.multi_range.runtime * 5.0 < worst.single_range.runtime);
    assert!(worst.in_s3.runtime <= worst.multi_range.runtime);
    // (Batch counts over-project at tiny scale — one partial batch per
    // partition scales as a full one — so assert a conservative 20x.)
    assert!(worst.requests_multi < worst.requests_single / 20);
    assert!(worst.requests_in_s3 < worst.requests_multi);

    // Suggestion 3: ~4x denser SQL, same answer.
    let bloom = ex::ablation::run_bloom_ablation(ex::ablation::BLOOM_SIZE).unwrap();
    assert!(bloom.binary_sql_bytes * 3 < bloom.string_sql_bytes);
    assert_eq!(bloom.max_keys_binary, bloom.max_keys_string * 4);

    // Suggestion 4: native group-by flat in the group count and never
    // slower than the CASE-WHEN rewrite.
    let gb = ex::ablation::run_groupby_ablation(ex::ablation::GROUPBY_SIZE).unwrap();
    for r in &gb {
        assert!(
            r.native.runtime <= r.case_when.runtime,
            "{} groups",
            r.n_groups
        );
    }
    let native_spread = gb.last().unwrap().native.runtime / gb[0].native.runtime;
    assert!(
        native_spread < 1.2,
        "native should be flat, spread {native_spread}"
    );
    assert!(gb.last().unwrap().case_when.runtime > 1.5 * gb[0].case_when.runtime);

    // Suggestion 5: simple scans get cheaper under aware pricing (Q6 is
    // the simplest pushed scan in the suite).
    let pricing = ex::ablation::run_pricing_ablation(ex::ablation::PRICING_SIZE).unwrap();
    let q6 = pricing.iter().find(|r| r.name == "TPCH Q6").unwrap();
    assert!(q6.aware.scan < q6.flat.scan);
}

#[test]
fn fig11_format_shapes() {
    let rows = ex::fig11_parquet::run(ex::fig11_parquet::SIZE).unwrap();
    let get = |cols: usize, sel: f64| {
        rows.iter()
            .find(|r| r.columns == cols && (r.selectivity - sel).abs() < 1e-9)
            .unwrap()
    };
    // Columnar never loses.
    for r in &rows {
        assert!(r.columnar.runtime <= r.csv.runtime * 1.02);
    }
    // CSV pays for width at selectivity 0; columnar does not.
    assert!(get(20, 0.0).csv.runtime > 1.5 * get(1, 0.0).csv.runtime);
    assert!(get(20, 0.0).columnar.runtime < 1.2 * get(1, 0.0).columnar.runtime);
    // At selectivity 1 the two formats converge (transfer-bound; the
    // response is CSV either way — paper §IX).
    let r = get(20, 1.0);
    assert!(r.csv.runtime < 1.2 * r.columnar.runtime);
    // Compression ratio near the paper's 70%.
    assert!((0.5..0.95).contains(&r.size_ratio), "{}", r.size_ratio);
}
