//! **Figure 3** — join algorithms vs orders-table selectivity
//! (paper §V-B2).
//!
//! Customer selectivity fixed at −950, Bloom FPR 0.01; the orders date
//! bound sweeps from very selective (1992-03-01) to `None`. Expected
//! shape: filtered ≫ baseline while the date filter is selective,
//! converging as it loosens; Bloom flat and best (or tied) throughout.

use crate::experiments::fig02_join_customer::listing2_sql;
use crate::{run_candidate, Measure};
use pushdown_common::Result;
use pushdown_tpch::tpch_context;

#[derive(Debug, Clone)]
pub struct Fig3Row {
    pub upper_orderdate: Option<&'static str>,
    pub baseline: Measure,
    pub filtered: Measure,
    pub bloom: Measure,
}

pub fn date_bounds() -> Vec<Option<&'static str>> {
    vec![
        Some("1992-03-01"),
        Some("1992-06-01"),
        Some("1993-01-01"),
        Some("1994-01-01"),
        Some("1995-01-01"),
        None,
    ]
}

pub fn run(scale_factor: f64) -> Result<Vec<Fig3Row>> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;
    let mut out = Vec::new();
    for bound in date_bounds() {
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
