//! **Figure 2** — join algorithms vs customer-table selectivity
//! (paper §V-B1).
//!
//! The paper's Listing 2 query (`SUM(o_totalprice)` over customer ⋈
//! orders) with `c_acctbal <= upper` swept from −950 (selective) to −450,
//! orders unfiltered, Bloom FPR 0.01.
//!
//! Expected shape, as the gates [`figure`] checks: at every bound the
//! Bloom join is faster than filtered (`bloom-beats-filtered`) and than
//! baseline (`bloom-beats-baseline`), and baseline stays under 2.5×
//! filtered (`baseline-near-filtered`; the paper: they "perform
//! similarly", both shipping the whole orders table). The Bloom join
//! degrades as the predicate loosens: its runtime at −450 is at least
//! 0.95× its runtime at −950 (`bloom-degrades`).

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

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig02",
        "Fig 2 — join runtime and cost vs customer selectivity, Bloom FPR 0.01 \
     (projected to SF 10)",
    )
}

/// Fig 2's gates on `rows` (one per `c_acctbal` bound, tightest first):
/// the first that fails is the `Err`, named.
pub fn check(rows: &[Fig2Row]) -> Result<()> {
    let fig = new_figure();
    for r in rows {
        let (baseline, filtered, bloom) = (r.baseline.runtime, r.filtered.runtime, r.bloom.runtime);
        let at = r.upper_acctbal;
        fig.gate("bloom-beats-filtered", bloom < filtered, || {
            format!("c_acctbal<={at}: bloom {bloom} s vs filtered {filtered} s")
        })?;
        fig.gate("bloom-beats-baseline", bloom < baseline, || {
            format!("c_acctbal<={at}: bloom {bloom} s vs baseline {baseline} s")
        })?;
        fig.gate("baseline-near-filtered", baseline < 2.5 * filtered, || {
            format!("c_acctbal<={at}: baseline {baseline} s vs filtered {filtered} s")
        })?;
    }
    let (first, last) = (rows[0].bloom.runtime, rows[rows.len() - 1].bloom.runtime);
    fig.gate("bloom-degrades", last >= first * 0.95, || {
        format!("bloom {last} s at the loosest bound vs {first} s at the tightest")
    })?;
    Ok(())
}

/// Fig 2 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
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
