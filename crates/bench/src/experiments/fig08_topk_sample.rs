//! **Figure 8** — sampling top-K sensitivity to the sample size
//! (paper §VII-C1).
//!
//! Top-[`K`] over the lineitem table (the paper runs K = 100), the
//! `sampling` candidate's sample size S (`Tune::SampleSize`) swept across
//! four orders of magnitude. Expected shapes: sampling-phase time grows with
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

use crate::figure::{Cell, Figure};
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
    /// The paper's analytic optimum for this table.
    pub analytic_optimum: usize,
    pub sweep: Vec<Fig8Row>,
}

/// The TPC-H scale factor `figure` runs at.
pub const SIZE: f64 = 0.004;

/// The K of the statement.
pub const K: usize = 50;

/// The paper's lineitem has 60 M rows (SF 10).
pub const PAPER_ROWS: f64 = 60_000_000.0;

pub fn run(scale_factor: f64) -> Result<Fig8Result> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let n = t.lineitem.row_count;
    let factor = PAPER_ROWS / n as f64;
    let alpha = 1.0 / t.lineitem.schema.len() as f64;
    let analytic = optimal_sample_size(K, n, alpha);
    // Sweep around the optimum across ~3 orders of magnitude, clamped to
    // the table size.
    let mut sizes: Vec<usize> = [
        K * 10,
        K * 40,
        analytic / 4,
        analytic,
        analytic * 4,
        (n as usize) / 2,
    ]
    .into_iter()
    .map(|s| s.clamp(K, n as usize))
    .collect();
    sizes.sort_unstable();
    sizes.dedup();

    let sql = format!("SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT {K}");
    let mut sweep = Vec::new();
    for s in sizes {
        let out = run_candidate(
            &ctx,
            &t.lineitem,
            &sql,
            "sampling",
            Some(Tune::SampleSize(s)),
        )?;
        assert_eq!(out.rows.len(), K.min(n as usize));
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
        analytic_optimum: analytic,
        sweep,
    })
}

/// Fig 8 at [`SIZE`]: the analytic optimum, then the sweep.
pub fn figure() -> Result<Figure> {
    let res = run(SIZE)?;
    let mut fig = Figure::new(
        "fig08",
        "Fig 8 — sampling top-K phases vs sample size S, the analytic S* first \
         (projected to 60M rows)",
    );
    fig.row(
        "analytic",
        vec![
            ("rows", Cell::Count(res.n_rows)),
            ("k", Cell::Count(K as u64)),
            ("sample", Cell::Count(res.analytic_optimum as u64)),
        ],
    );
    for r in res.sweep {
        fig.row(
            format!("sample={}", r.sample_size),
            vec![
                ("sampling", Cell::Secs(r.sampling_seconds)),
                ("scanning", Cell::Secs(r.scanning_seconds)),
                ("total", Cell::Measure(r.total)),
                ("bytes-returned", Cell::Count(r.bytes_returned)),
            ],
        );
    }
    Ok(fig)
}
