//! Run the paper's TPC-H suite (Q1, Q3, Q6, Q14, Q17, Q19) through the
//! planner under both of the paper's configurations — `Strategy::Baseline`
//! and `Strategy::Pushdown` — print the Fig-10-style comparison, and
//! beside it what `Strategy::Adaptive` chose to run.
//!
//! ```sh
//! cargo run --release --example tpch_suite [scale_factor]
//! ```

use pushdowndb::common::fmtutil;
use pushdowndb::core::{QueryOutput, Strategy};
use pushdowndb::tpch::{tpch_context, SUITE};

fn main() -> pushdowndb::common::Result<()> {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.005);
    let (ctx, t) = tpch_context(sf, 10_000)?;
    let f = 10.0 / sf;
    println!("TPC-H at SF {sf} (metrics projected to the paper's SF 10):\n");
    let mut speedups = Vec::new();
    for q in SUITE {
        let (base, _) = q.run(&ctx, &t, Strategy::Baseline)?;
        let (opt, _) = q.run(&ctx, &t, Strategy::Pushdown)?;
        // The planner priced its candidates at this scale, not at the
        // projection, so the adaptive column is information only.
        let (adaptive, explain) = q.run(&ctx, &t, Strategy::Adaptive)?;
        let secs = |out: &QueryOutput| out.metrics.scaled(f).runtime(&ctx.model);
        let (bt, ot) = (secs(&base), secs(&opt));
        speedups.push(bt / ot);
        println!(
            "{}: baseline {} -> optimized {}  ({:.1}x)   adaptive ran {} ({})   first row: {:?}",
            q.name,
            fmtutil::secs(bt),
            fmtutil::secs(ot),
            bt / ot,
            explain.kind,
            fmtutil::secs(secs(&adaptive)),
            opt.rows.first().map(|r| r.values()),
        );
    }
    println!(
        "\ngeo-mean speedup: {:.1}x (paper: 6.7x)",
        fmtutil::geo_mean(&speedups)
    );
    Ok(())
}
