//! **Figure 4** — Bloom join vs false-positive rate (paper §V-B3).
//!
//! Customer selectivity −950, orders unbounded; FPR sweeps 1e-4 … 0.5.
//! Expected U-shape: a very low FPR needs many hash conjuncts (slow
//! storage-side scan), a high FPR lets non-joining rows through (heavy
//! transfer + server parse); the paper finds 0.01 the sweet spot.

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

/// Fig 4 at [`SIZE`]: the two FPR-free joins, then the Bloom sweep.
pub fn figure() -> Result<Figure> {
    let res = run(SIZE)?;
    let mut fig = Figure::new(
        "fig04",
        "Fig 4 — Bloom join runtime and cost vs false-positive rate (projected to SF 10)",
    );
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
