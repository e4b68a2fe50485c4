//! Regenerates paper Figure 10 (operator + TPC-H suite, baseline vs
//! optimized, with the geometric-mean summary), and beside the two
//! fixed columns what `Strategy::Adaptive` picked at bench scale.
//! Usage: `fig10_tpch [scale_factor]` (default 0.01).

use pushdown_bench::experiments::fig10_tpch as fig;
use pushdown_bench::table::{cost, print_table, rt};

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    let res = fig::run(sf).expect("fig10");
    print_table(
        "Fig 10 — PushdownDB baseline vs optimized (projected to SF 10)",
        &[
            "query",
            "baseline",
            "optimized",
            "speedup",
            "baseline $",
            "optimized $",
            "adaptive ran",
            "(projected)",
        ],
        &res.rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    rt(r.baseline.runtime),
                    rt(r.optimized.runtime),
                    format!("{:.1}x", r.speedup()),
                    cost(&r.baseline.cost),
                    cost(&r.optimized.cost),
                    r.adaptive_pick.clone(),
                    format!("{} {}", rt(r.adaptive.runtime), cost(&r.adaptive.cost)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nGeo-mean speedup: {:.1}x (paper: 6.7x)   Geo-mean cost ratio: {:.2} (paper: 0.70)",
        res.geo_mean_speedup, res.geo_mean_cost_ratio
    );
    println!(
        "(The adaptive columns are information, not part of the figure: the pick was priced \
         at SF {sf}, where every candidate costs about the same, and is shown projected.)"
    );
}
