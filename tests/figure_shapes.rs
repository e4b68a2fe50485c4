//! Each figure's shape gates, on hand-built rows. A figure's `check`
//! holds its rows to the paper's qualitative claims (who wins, what
//! grows, where crossovers sit), and its `figure()` calls it on the
//! rows it just measured, which `tests/paper_figures.rs` runs once per
//! figure. These tests run no experiment: each gives a figure's `check`
//! rows of the paper's shape, which must pass every gate, and then
//! breaks one claim at a time, which must fail the gate named for that
//! claim and no earlier one. So no gate is vacuous, and each names the
//! claim it checks.

use pushdown_bench::experiments::ablation::{
    BloomAblation, GroupByAblationRow, IndexAblationRow, PricingAblationRow,
};
use pushdown_bench::experiments::fig01_filter::Fig1Row;
use pushdown_bench::experiments::fig02_join_customer::Fig2Row;
use pushdown_bench::experiments::fig03_join_orders::Fig3Row;
use pushdown_bench::experiments::fig04_join_fpr::{Fig4Result, Fig4Row};
use pushdown_bench::experiments::fig05_groupby_uniform::Fig5Row;
use pushdown_bench::experiments::fig06_hybrid_split::Fig6Row;
use pushdown_bench::experiments::fig07_groupby_skew::Fig7Row;
use pushdown_bench::experiments::fig08_topk_sample::{Fig8Result, Fig8Row};
use pushdown_bench::experiments::fig09_topk_k::Fig9Row;
use pushdown_bench::experiments::fig10_tpch::{Fig10Result, Fig10Row};
use pushdown_bench::experiments::fig11_parquet::Fig11Row;
use pushdown_bench::experiments::*;
use pushdown_bench::Measure;
use pushdown_common::pricing::CostBreakdown;
use pushdown_common::Result;

/// A measure of `runtime` seconds whose dollars are `compute` and
/// `scan`.
fn measure(runtime: f64, compute: f64, scan: f64) -> Measure {
    Measure {
        runtime,
        cost: CostBreakdown {
            compute,
            scan,
            ..CostBreakdown::default()
        },
        bytes_returned: 0,
    }
}

/// A measure of `runtime` seconds and no dollars.
fn secs(runtime: f64) -> Measure {
    measure(runtime, 0.0, 0.0)
}

/// An edit of paper-shaped rows that breaks one claim.
type Break<T> = fn(&mut T);

/// `check` passes `shaped`, and each `(gate, break)` applied to a copy
/// of it makes `check` fail naming `figure` and that gate.
fn shapes<T: Clone>(
    figure: &str,
    shaped: T,
    check: impl Fn(&T) -> Result<()>,
    breaks: &[(&str, Break<T>)],
) {
    if let Err(e) = check(&shaped) {
        panic!("{figure}: the paper-shaped rows fail: {e}");
    }
    for (gate, break_claim) in breaks {
        let mut broken = shaped.clone();
        break_claim(&mut broken);
        let Err(err) = check(&broken) else {
            panic!("{figure}: rows that break {gate} pass every gate");
        };
        let want = format!("{figure}: gate {gate}: ");
        assert!(
            err.message().starts_with(&want),
            "{figure}: rows that break {gate} fail with: {}",
            err.message()
        );
    }
}

#[test]
fn fig01_filter_shapes() {
    let rows: Vec<Fig1Row> = (0..6)
        .map(|i| Fig1Row {
            selectivity: 10f64.powi(i - 7),
            server: measure(100.0, 1.0, 0.1),
            s3: measure(10.0, 0.01, 0.1),
            indexed: if i < 5 {
                measure(10.0, 0.01, 0.0)
            } else {
                measure(100.0, 1.0, 0.0)
            },
        })
        .collect();
    shapes(
        "fig01",
        rows,
        |r| fig01_filter::check(r),
        &[
            ("s3-faster", |r| r[2].s3.runtime = 30.0),
            ("server-compute-bound", |r| r[2].server.cost.scan = 2.0),
            ("s3-scan-bound", |r| r[2].s3.cost.compute = 1.0),
            ("indexed-competitive", |r| r[0].indexed.runtime = 20.0),
            ("indexed-collapses", |r| r[5].indexed.runtime = 40.0),
            ("indexed-cost-explodes", |r| {
                r[5].indexed.cost.compute = 0.05
            }),
            ("indexed-cheapest", |r| {
                r[0].server = measure(100.0, 0.015, 0.001)
            }),
        ],
    );
}

#[test]
fn fig02_join_customer_shapes() {
    let rows: Vec<Fig2Row> = (0..4)
        .map(|i| Fig2Row {
            upper_acctbal: -950 + 1000 * i,
            baseline: secs(10.0),
            filtered: secs(8.0),
            bloom: secs(1.0 + i as f64),
        })
        .collect();
    shapes(
        "fig02",
        rows,
        |r| fig02_join_customer::check(r),
        &[
            ("bloom-beats-filtered", |r| r[1].bloom.runtime = 9.0),
            ("bloom-beats-baseline", |r| r[1].baseline.runtime = 1.5),
            ("baseline-near-filtered", |r| r[1].baseline.runtime = 30.0),
            ("bloom-degrades", |r| r[3].bloom.runtime = 0.5),
        ],
    );
}

#[test]
fn fig03_join_orders_shapes() {
    let dates = [
        Some("1992-03-01"),
        Some("1993-01-01"),
        Some("1995-01-01"),
        None,
    ];
    let rows: Vec<Fig3Row> = dates
        .iter()
        .enumerate()
        .map(|(i, &upper_orderdate)| Fig3Row {
            upper_orderdate,
            baseline: secs(20.0),
            filtered: secs(2.0 * (i + 1) as f64),
            bloom: secs(3.0 + 0.1 * i as f64),
        })
        .collect();
    shapes(
        "fig03",
        rows,
        |r| fig03_join_orders::check(r),
        &[
            ("filtered-slows", |r| r[3].filtered.runtime = 1.0),
            ("filtered-beats-baseline", |r| r[0].baseline.runtime = 3.0),
            ("bloom-flat", |r| r[2].bloom.runtime = 6.0),
        ],
    );
}

#[test]
fn fig04_fpr_shapes() {
    let runtimes = [5.0, 3.0, 2.0, 2.5, 4.0];
    let fprs = [0.0001, 0.001, 0.01, 0.1, 0.3];
    let sweep = (0..5)
        .map(|i| Fig4Row {
            fpr: fprs[i],
            bloom: Measure {
                bytes_returned: 100 * (i as u64 + 1),
                ..secs(runtimes[i])
            },
        })
        .collect();
    let res = Fig4Result {
        baseline: secs(10.0),
        filtered: secs(8.0),
        sweep,
    };
    shapes(
        "fig04",
        res,
        fig04_join_fpr::check,
        &[
            ("low-fpr-pays", |r| r.sweep[0].bloom.runtime = 1.0),
            ("transfer-grows", |r| r.sweep[3].bloom.bytes_returned = 300),
            ("bloom-beats-filtered", |r| r.filtered.runtime = 1.5),
            ("bloom-beats-baseline", |r| r.baseline.runtime = 2.0),
        ],
    );
}

#[test]
fn fig05_groupby_uniform_shapes() {
    let s3_side = [3.0, 4.5, 5.5, 7.0, 9.0];
    let rows: Vec<Fig5Row> = (0..5)
        .map(|i| Fig5Row {
            n_groups: 2 << i,
            server: secs(10.0),
            filtered: secs(6.0),
            s3_side: secs(s3_side[i]),
        })
        .collect();
    fn filtered(rows: &mut [Fig5Row], runtime: f64) {
        rows.iter_mut().for_each(|r| r.filtered.runtime = runtime);
    }
    shapes(
        "fig05",
        rows,
        |r| fig05_groupby_uniform::check(r),
        &[
            ("server-flat", |r| r[2].server.runtime = 12.0),
            ("filtered-flat", |r| r[2].filtered.runtime = 7.0),
            ("filtered-beats-server", |r| filtered(r, 10.5)),
            ("s3-side-degrades", |r| r[2].s3_side.runtime = 4.5),
            ("crossover-at-2", |r| filtered(r, 2.9)),
            ("crossover-at-32", |r| filtered(r, 9.5)),
        ],
    );
}

#[test]
fn fig06_hybrid_split_shapes() {
    let totals = [5.0, 4.0, 3.0, 2.0, 3.0, 4.0, 5.0];
    let rows: Vec<Fig6Row> = [1, 2, 4, 6, 8, 10, 12]
        .iter()
        .enumerate()
        .map(|(i, &s3_groups)| Fig6Row {
            s3_groups,
            s3_seconds: i as f64 + 1.0,
            server_seconds: 10.0 - i as f64,
            total: secs(totals[i]),
            bytes_returned: 1000 - 100 * i as u64,
        })
        .collect();
    shapes(
        "fig06",
        rows,
        |r| fig06_hybrid_split::check(r),
        &[
            ("s3-bar-grows", |r| r[3].s3_seconds = r[2].s3_seconds),
            ("server-bar-shrinks", |r| r[3].server_seconds = 20.0),
            ("bytes-shrink", |r| r[3].bytes_returned = 5000),
            ("best-not-at-1", |r| r[0].total.runtime = 1.0),
            ("best-not-at-12", |r| r[6].total.runtime = 1.0),
        ],
    );
}

#[test]
fn fig07_skew_shapes() {
    let hybrid = [6.5, 6.0, 5.0, 4.0];
    let rows: Vec<Fig7Row> = [0.0, 0.5, 1.0, 1.3]
        .iter()
        .enumerate()
        .map(|(i, &theta)| Fig7Row {
            theta,
            server: secs(10.0),
            filtered: secs(6.0),
            hybrid: secs(hybrid[i]),
        })
        .collect();
    shapes(
        "fig07",
        rows,
        |r| fig07_groupby_skew::check(r),
        &[
            ("server-flat", |r| r[1].server.runtime = 8.0),
            ("hybrid-improves", |r| r[2].hybrid.runtime = 7.0),
            ("hybrid-wins-at-1.3", |r| r[3].hybrid.runtime = 4.6),
            ("hybrid-near-filtered-at-0", |r| r[0].filtered.runtime = 5.0),
        ],
    );
}

#[test]
fn fig08_sample_size_shapes() {
    let bytes = [500, 200, 300, 600];
    let totals = [5.0, 2.0, 3.0, 9.0];
    let sweep = (0..4)
        .map(|i| Fig8Row {
            sample_size: 100 * 10usize.pow(i as u32),
            sampling_seconds: i as f64 + 1.0,
            scanning_seconds: 4.0 - i as f64,
            total: secs(totals[i]),
            bytes_returned: bytes[i],
        })
        .collect();
    let res = Fig8Result {
        n_rows: 1_000_000,
        analytic_optimum: 1200,
        sweep,
    };
    shapes(
        "fig08",
        res,
        fig08_topk_sample::check,
        &[
            ("sampling-grows", |r| r.sweep[3].sampling_seconds = 0.5),
            ("scanning-shrinks", |r| r.sweep[3].scanning_seconds = 5.0),
            ("bytes-min-not-at-smallest", |r| {
                r.sweep[0].bytes_returned = 100
            }),
            ("bytes-min-not-at-largest", |r| {
                r.sweep[3].bytes_returned = 100
            }),
            ("near-analytic-optimum", |r| r.analytic_optimum = 100_000),
        ],
    );
}

#[test]
fn fig09_k_shapes() {
    let rows: Vec<Fig9Row> = [1, 10, 100, 1000]
        .iter()
        .enumerate()
        .map(|(i, &k)| Fig9Row {
            k,
            server: measure(10.0 + i as f64, 1.0, 0.0),
            sampling: measure(2.0 + i as f64, 0.5, 0.0),
        })
        .collect();
    shapes(
        "fig09",
        rows,
        |r| fig09_topk_k::check(r),
        &[
            ("sampling-faster", |r| r[1].sampling.runtime = 20.0),
            ("sampling-cheaper", |r| r[1].sampling.cost.compute = 2.0),
            ("server-grows", |r| r[3].server.runtime = 10.0),
            ("sampling-grows", |r| r[3].sampling.runtime = 2.0),
        ],
    );
}

#[test]
fn fig10_suite_shapes() {
    let rows = [("TPCH Q1", 1.0), ("TPCH Q3", 2.0), ("TPCH Q6", 5.0)]
        .iter()
        .map(|&(name, optimized)| Fig10Row {
            name: name.to_string(),
            baseline: secs(10.0),
            optimized: secs(optimized),
            adaptive_pick: "Scan[s3-side]".to_string(),
            adaptive: secs(optimized),
        })
        .collect();
    let res = Fig10Result {
        rows,
        geo_mean_speedup: 6.7,
        geo_mean_cost_ratio: 0.7,
    };
    shapes(
        "fig10",
        res,
        fig10_tpch::check,
        &[
            ("every-query-faster", |r| r.rows[1].optimized.runtime = 10.0),
            ("geo-mean-speedup", |r| r.geo_mean_speedup = 3.0),
            ("geo-mean-cheaper", |r| r.geo_mean_cost_ratio = 1.0),
        ],
    );
}

#[test]
fn fig11_format_shapes() {
    let row = |columns, selectivity, csv, columnar| Fig11Row {
        columns,
        selectivity,
        csv: secs(csv),
        columnar: secs(columnar),
        size_ratio: 0.7,
    };
    let rows = vec![
        row(1, 0.0, 2.0, 1.0),
        row(1, 1.0, 3.0, 2.5),
        row(20, 0.0, 10.0, 1.1),
        row(20, 1.0, 3.0, 2.6),
    ];
    shapes(
        "fig11",
        rows,
        |r| fig11_parquet::check(r),
        &[
            ("columnar-never-loses", |r| r[1].columnar.runtime = 3.1),
            ("csv-pays-for-width", |r| r[2].csv.runtime = 2.9),
            ("columnar-flat-in-width", |r| r[2].columnar.runtime = 1.3),
            ("formats-converge", |r| r[3].csv.runtime = 3.2),
            ("size-ratio", |r| r[3].size_ratio = 0.97),
        ],
    );
}

#[test]
fn ablation_shapes() {
    let index = |selectivity, single, requests_single| IndexAblationRow {
        selectivity,
        single_range: secs(single),
        multi_range: secs(single / 10.0),
        in_s3: secs(single / 12.5),
        requests_single,
        requests_multi: requests_single / 100,
        requests_in_s3: requests_single / 1000,
    };
    let rows = vec![index(1e-4, 1.0, 100), index(1e-2, 100.0, 10_000)];
    shapes(
        "ablation-index",
        rows,
        |r| ablation::check_index(r),
        &[
            ("multi-range-faster", |r| r[1].multi_range.runtime = 30.0),
            ("in-s3-no-slower", |r| r[1].in_s3.runtime = 11.0),
            ("multi-range-fewer-requests", |r| r[1].requests_multi = 500),
            ("in-s3-fewer-requests", |r| r[1].requests_in_s3 = 100),
        ],
    );

    let bloom = BloomAblation {
        string_sql_bytes: 40_000,
        binary_sql_bytes: 10_000,
        max_keys_string: 1000,
        max_keys_binary: 4000,
        string_join: secs(2.0),
        binary_join: secs(2.0),
    };
    shapes(
        "ablation-bloom",
        bloom,
        ablation::check_bloom,
        &[
            ("binary-sql-denser", |r| r.binary_sql_bytes = 14_000),
            ("binary-fits-4x-keys", |r| r.max_keys_binary = 3999),
        ],
    );

    let rows: Vec<GroupByAblationRow> = [(2, 2.0, 1.0), (8, 4.0, 1.05), (32, 8.0, 1.1)]
        .iter()
        .map(|&(n_groups, case_when, native)| GroupByAblationRow {
            n_groups,
            case_when: secs(case_when),
            native: secs(native),
        })
        .collect();
    shapes(
        "ablation-groupby",
        rows,
        |r| ablation::check_groupby(r),
        &[
            ("native-never-slower", |r| r[1].native.runtime = 5.0),
            ("native-flat", |r| r[2].native.runtime = 1.3),
            ("case-when-grows", |r| r[2].case_when.runtime = 2.9),
        ],
    );

    let scan = |scan| CostBreakdown {
        scan,
        ..CostBreakdown::default()
    };
    let rows: Vec<PricingAblationRow> = [("TPCH Q1", 2.0), ("TPCH Q6", 0.25)]
        .iter()
        .map(|&(name, aware)| PricingAblationRow {
            name: name.to_string(),
            flat: scan(1.0),
            aware: scan(aware),
        })
        .collect();
    shapes(
        "ablation-pricing",
        rows,
        |r| ablation::check_pricing(r),
        &[("q6-scan-cheaper", |r| r[1].aware.scan = 1.0)],
    );
}
