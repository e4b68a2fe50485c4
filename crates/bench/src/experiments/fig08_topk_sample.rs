//! **Figure 8** — sampling top-K sensitivity to the sample size
//! (paper §VII-C1).
//!
//! K = 100 over the lineitem table, the `sampling` candidate's sample
//! size S (`Tune::SampleSize`) swept across four orders of magnitude. Expected shapes: sampling-phase time grows with
//! S, scanning-phase time shrinks (tighter threshold ⇒ fewer qualifying
//! rows), total bytes returned is U-shaped, and the measured optimum
//! sits near the paper's analytic `S* = sqrt(K·N/α)`.
//!
//! Projection note: extensive quantities are projected to the paper's
//! 60 M-row lineitem. Because the sample size is an absolute parameter,
//! a linearly projected run corresponds to the paper-scale experiment
//! with `S` *and* `K` magnified by the same factor — the two-phase
//! trade-off, the U-shaped traffic curve and the location of the
//! analytic optimum are all preserved.

use crate::{run_candidate, Measure, Tune};
use pushdown_common::Result;
use pushdown_core::joinplan::optimal_sample_size;
use pushdown_tpch::tpch_context;

#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    pub sample_size: usize,
    pub sampling_seconds: f64,
    pub scanning_seconds: f64,
    pub total: Measure,
    pub bytes_returned: u64,
}

#[derive(Debug, Clone)]
pub struct Fig8Result {
    pub n_rows: u64,
    pub k: usize,
    /// The paper's analytic optimum for this table.
    pub analytic_optimum: usize,
    pub sweep: Vec<Fig8Row>,
}

/// The paper's lineitem has 60 M rows (SF 10).
pub const PAPER_ROWS: f64 = 60_000_000.0;

pub fn run(scale_factor: f64, k: usize) -> Result<Fig8Result> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let n = t.lineitem.row_count;
    let factor = PAPER_ROWS / n as f64;
    let alpha = 1.0 / t.lineitem.schema.len() as f64;
    let analytic = optimal_sample_size(k, n, alpha);
    // Sweep around the optimum across ~3 orders of magnitude, clamped to
    // the table size.
    let mut sizes: Vec<usize> = [
        k * 10,
        k * 40,
        analytic / 4,
        analytic,
        analytic * 4,
        (n as usize) / 2,
    ]
    .into_iter()
    .map(|s| s.clamp(k, n as usize))
    .collect();
    sizes.sort_unstable();
    sizes.dedup();

    let sql = format!("SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT {k}");
    let mut sweep = Vec::new();
    for s in sizes {
        let out = run_candidate(
            &ctx,
            &t.lineitem,
            &sql,
            "sampling",
            Some(Tune::SampleSize(s)),
        )?;
        assert_eq!(out.rows.len(), k.min(n as usize));
        let scaled = out.metrics.scaled(factor);
        sweep.push(Fig8Row {
            sample_size: s,
            sampling_seconds: scaled.seconds_for(&ctx.model, "sampling"),
            scanning_seconds: scaled.seconds_for(&ctx.model, "scanning"),
            total: Measure::of(&ctx, &out, factor),
            bytes_returned: scaled.bytes_returned(),
        });
    }
    Ok(Fig8Result {
        n_rows: n,
        k,
        analytic_optimum: analytic,
        sweep,
    })
}
