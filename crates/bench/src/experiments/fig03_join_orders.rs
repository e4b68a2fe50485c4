//! **Figure 3** — join algorithms vs orders-table selectivity
//! (paper §V-B2).
//!
//! Customer selectivity fixed at −950, Bloom FPR 0.01; the orders date
//! bound sweeps from very selective (1992-03-01) to `None`.
//!
//! Expected shape, as the gates [`figure`] checks: filtered is slower
//! with no date bound than at 1992-03-01 (`filtered-slows`), and at
//! 1992-03-01 it is over 2× faster than baseline
//! (`filtered-beats-baseline`); the Bloom join's slowest point is under
//! 1.5× its fastest (`bloom-flat`; the paper: it "remains fairly
//! constant").

use crate::experiments::fig02_join_customer::listing2_sql;
use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure};
use pushdown_common::Result;
use pushdown_tpch::tpch_context;

/// The TPC-H scale factor `figure` runs at.
pub const SIZE: f64 = 0.004;

#[derive(Debug, Clone)]
pub struct Fig3Row {
    pub upper_orderdate: Option<&'static str>,
    pub baseline: Measure,
    pub filtered: Measure,
    pub bloom: Measure,
}

pub fn run(scale_factor: f64) -> Result<Vec<Fig3Row>> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;
    let mut out = Vec::new();
    for bound in [
        Some("1992-03-01"),
        Some("1992-06-01"),
        Some("1993-01-01"),
        Some("1994-01-01"),
        Some("1995-01-01"),
        None,
    ] {
        let sql = listing2_sql(-950, bound);
        let run = |name| run_candidate(&ctx, &t.customer, &sql, name, None);
        out.push(Fig3Row {
            upper_orderdate: bound,
            baseline: Measure::of(&ctx, &run("baseline")?, factor),
            filtered: Measure::of(&ctx, &run("filtered")?, factor),
            bloom: Measure::of(&ctx, &run("bloom")?, factor),
        });
    }
    Ok(out)
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig03",
        "Fig 3 — join runtime and cost vs orders selectivity, Bloom FPR 0.01 \
     (projected to SF 10)",
    )
}

/// Fig 3's gates on `rows` (one per `o_orderdate` bound, tightest
/// first): the first that fails is the `Err`, named.
pub fn check(rows: &[Fig3Row]) -> Result<()> {
    let fig = new_figure();
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let (tight, loose) = (first.filtered.runtime, last.filtered.runtime);
    fig.gate("filtered-slows", tight < loose, || {
        format!("filtered {tight} s at the tightest bound vs {loose} s at the loosest")
    })?;
    let baseline = first.baseline.runtime;
    fig.gate("filtered-beats-baseline", tight * 2.0 < baseline, || {
        format!("tightest bound: filtered {tight} s vs baseline {baseline} s")
    })?;
    let bloom = rows.iter().map(|r| r.bloom.runtime);
    let (min, max) = (
        bloom.clone().fold(f64::MAX, f64::min),
        bloom.fold(0.0, f64::max),
    );
    fig.gate("bloom-flat", max < 1.5 * min, || {
        format!("bloom spans {min} s .. {max} s")
    })?;
    Ok(())
}

/// Fig 3 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
        fig.row(
            format!("o_orderdate<{}", r.upper_orderdate.unwrap_or("none")),
            vec![
                ("baseline", Cell::Measure(r.baseline)),
                ("filtered", Cell::Measure(r.filtered)),
                ("bloom", Cell::Measure(r.bloom)),
            ],
        );
    }
    Ok(fig)
}
