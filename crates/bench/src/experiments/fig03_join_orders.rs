//! **Figure 3** — join algorithms vs orders-table selectivity
//! (paper §V-B2).
//!
//! Customer selectivity fixed at −950, Bloom FPR 0.01; the orders date
//! bound sweeps from very selective (1992-03-01) to `None`. Expected
//! shape: filtered ≫ baseline while the date filter is selective,
//! converging as it loosens; Bloom flat and best (or tied) throughout.

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

/// Fig 3 at [`SIZE`].
pub fn figure() -> Result<Figure> {
    let mut fig = Figure::new(
        "fig03",
        "Fig 3 — join runtime and cost vs orders selectivity, Bloom FPR 0.01 \
         (projected to SF 10)",
    );
    for r in run(SIZE)? {
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
