//! **Figure 2** — join algorithms vs customer-table selectivity
//! (paper §V-B1).
//!
//! The paper's Listing 2 query (`SUM(o_totalprice)` over customer ⋈
//! orders) with `c_acctbal <= upper` swept from −950 (selective) to −450,
//! orders unfiltered, Bloom FPR 0.01. Expected shape: baseline ≈
//! filtered (both ship the whole orders table); Bloom join much faster
//! while the customer predicate is selective, degrading as it loosens.

use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure};
use pushdown_common::Result;
use pushdown_tpch::tpch_context;

/// The TPC-H scale factor `figure` runs at.
pub const SIZE: f64 = 0.004;

#[derive(Debug, Clone, Copy)]
pub struct Fig2Row {
    pub upper_acctbal: i64,
    pub baseline: Measure,
    pub filtered: Measure,
    pub bloom: Measure,
}

/// The paper's Listing 2 statement; `customer` is the FROM (build) table.
pub fn listing2_sql(upper_acctbal: i64, upper_orderdate: Option<&str>) -> String {
    let date_bound = upper_orderdate
        .map(|d| format!(" AND o_orderdate < DATE '{d}'"))
        .unwrap_or_default();
    format!(
        "SELECT SUM(o_totalprice) FROM customer JOIN orders ON c_custkey = o_custkey \
         WHERE c_acctbal <= {upper_acctbal}{date_bound}"
    )
}

/// Run at TPC-H `scale_factor`, projected to the paper's SF 10.
pub fn run(scale_factor: f64) -> Result<Vec<Fig2Row>> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;
    let mut out = Vec::new();
    for upper in [-950, -850, -750, -650, -550, -450] {
        let sql = listing2_sql(upper, None);
        let run = |name| run_candidate(&ctx, &t.customer, &sql, name, None);
        out.push(Fig2Row {
            upper_acctbal: upper,
            baseline: Measure::of(&ctx, &run("baseline")?, factor),
            filtered: Measure::of(&ctx, &run("filtered")?, factor),
            bloom: Measure::of(&ctx, &run("bloom")?, factor),
        });
    }
    Ok(out)
}

/// Fig 2 at [`SIZE`].
pub fn figure() -> Result<Figure> {
    let mut fig = Figure::new(
        "fig02",
        "Fig 2 — join runtime and cost vs customer selectivity, Bloom FPR 0.01 \
         (projected to SF 10)",
    );
    for r in run(SIZE)? {
        fig.row(
            format!("c_acctbal<={}", r.upper_acctbal),
            vec![
                ("baseline", Cell::Measure(r.baseline)),
                ("filtered", Cell::Measure(r.filtered)),
                ("bloom", Cell::Measure(r.bloom)),
            ],
        );
    }
    Ok(fig)
}
