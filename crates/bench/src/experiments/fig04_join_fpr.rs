//! **Figure 4** — Bloom join vs false-positive rate (paper §V-B3).
//!
//! Customer selectivity −950, orders unbounded; FPR sweeps 1e-4 … 0.5.
//! The paper's U-shape: a very low FPR needs many hash conjuncts (slow
//! storage-side scan), a high FPR lets non-joining rows through (heavy
//! transfer + server parse); the paper finds 0.01 the sweet spot.
//!
//! Expected shape, as the gates [`figure`] checks: the Bloom join at
//! FPR 1e-4 is strictly slower than at its best rate (`low-fpr-pays`,
//! for its hash count); the bytes it returns grow strictly with the rate
//! across the whole sweep (`transfer-grows`); and at its best rate it is
//! faster than filtered (`bloom-beats-filtered`) and than baseline
//! (`bloom-beats-baseline`). At bench scale the build side is a handful
//! of keys, so the runtime at the loose end stays latency- and
//! scan-bound and the full U only emerges at larger scale factors; the
//! byte series is the scale-independent form of the claim.

use crate::experiments::fig02_join_customer::listing2_sql;
use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure, Tune};
use pushdown_common::Result;
use pushdown_tpch::tpch_context;

/// The TPC-H scale factor `figure` runs at.
pub const SIZE: f64 = 0.004;

#[derive(Debug, Clone)]
pub struct Fig4Row {
    pub fpr: f64,
    pub bloom: Measure,
}

#[derive(Debug, Clone)]
pub struct Fig4Result {
    pub baseline: Measure,
    pub filtered: Measure,
    pub sweep: Vec<Fig4Row>,
}

pub fn run(scale_factor: f64) -> Result<Fig4Result> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;
    let sql = listing2_sql(-950, None);
    let run = |name, fpr| run_candidate(&ctx, &t.customer, &sql, name, fpr);
    let baseline = Measure::of(&ctx, &run("baseline", None)?, factor);
    let filtered = Measure::of(&ctx, &run("filtered", None)?, factor);
    let mut sweep = Vec::new();
    for fpr in [0.0001, 0.001, 0.01, 0.1, 0.3, 0.5] {
        let out = run("bloom", Some(Tune::Fpr(fpr)))?;
        sweep.push(Fig4Row {
            fpr,
            bloom: Measure::of(&ctx, &out, factor),
        });
    }
    Ok(Fig4Result {
        baseline,
        filtered,
        sweep,
    })
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig04",
        "Fig 4 — Bloom join runtime and cost vs false-positive rate (projected to SF 10)",
    )
}

/// Fig 4's gates on `res` (its sweep by ascending false-positive rate):
/// the first that fails is the `Err`, named.
pub fn check(res: &Fig4Result) -> Result<()> {
    let fig = new_figure();
    let runtimes: Vec<f64> = res.sweep.iter().map(|r| r.bloom.runtime).collect();
    let min = runtimes.iter().copied().fold(f64::MAX, f64::min);
    let (fpr, low) = (res.sweep[0].fpr, runtimes[0]);
    fig.gate("low-fpr-pays", low > min, || {
        format!("fpr {fpr}: bloom {low} s vs the best {min} s")
    })?;
    let bytes: Vec<u64> = res.sweep.iter().map(|r| r.bloom.bytes_returned).collect();
    fig.gate(
        "transfer-grows",
        bytes.windows(2).all(|w| w[0] < w[1]),
        || format!("bytes returned by fpr: {bytes:?}"),
    )?;
    let (filtered, baseline) = (res.filtered.runtime, res.baseline.runtime);
    fig.gate("bloom-beats-filtered", min < filtered, || {
        format!("best bloom {min} s vs filtered {filtered} s")
    })?;
    fig.gate("bloom-beats-baseline", min < baseline, || {
        format!("best bloom {min} s vs baseline {baseline} s")
    })?;
    Ok(())
}

/// Fig 4 at [`SIZE`]: the two FPR-free joins, then the Bloom sweep —
/// or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let res = run(SIZE)?;
    check(&res)?;
    let mut fig = new_figure();
    fig.row(
        "fixed",
        vec![
            ("baseline", Cell::Measure(res.baseline)),
            ("filtered", Cell::Measure(res.filtered)),
        ],
    );
    for r in res.sweep {
        fig.row(
            format!("fpr={}", r.fpr),
            vec![("bloom", Cell::Measure(r.bloom))],
        );
    }
    Ok(fig)
}
