//! **Figure 9** — top-K algorithms vs K (paper §VII-C2).
//!
//! K sweeps 1 … 10⁴ (the paper: 1 … 10⁵ on a 60M-row table) over the
//! statement's `server-side` and `sampling` candidates; the sample size
//! comes from the §VII-B model, and `sampling` runs it even where the
//! catalog's tails would hand it the threshold.
//! Expected shape: both runtimes grow with K (bigger heap), sampling
//! consistently faster *and* cheaper than server-side.
//!
//! Projected to the paper's 60 M-row table with the same caveat as Fig 8.

use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure, Tune};
use pushdown_common::Result;
use pushdown_core::joinplan::sample_size;
use pushdown_tpch::tpch_context;

/// The TPC-H scale factor `figure` runs at.
pub const SIZE: f64 = 0.004;

#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    pub k: usize,
    pub server: Measure,
    pub sampling: Measure,
}

/// K values, restricted so K stays a small fraction of the table (the
/// paper's largest K is 0.17 % of its 60 M rows).
pub fn ks(max_n: u64) -> Vec<usize> {
    [1usize, 10, 100, 1_000, 10_000]
        .into_iter()
        .filter(|&k| (k as u64) * 20 <= max_n)
        .collect()
}

pub fn run(scale_factor: f64) -> Result<Vec<Fig9Row>> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = crate::experiments::fig08_topk_sample::PAPER_ROWS / t.lineitem.row_count as f64;
    let mut out = Vec::new();
    for k in ks(t.lineitem.row_count) {
        let sql = format!("SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT {k}");
        let run = |name, tune| run_candidate(&ctx, &t.lineitem, &sql, name, tune);
        let sample = Tune::SampleSize(sample_size(&t.lineitem, k));
        let (server, sampling) = (run("server-side", None)?, run("sampling", Some(sample))?);
        assert_eq!(server.rows.len(), sampling.rows.len());
        out.push(Fig9Row {
            k,
            server: Measure::of(&ctx, &server, factor),
            sampling: Measure::of(&ctx, &sampling, factor),
        });
    }
    Ok(out)
}

/// Fig 9 at [`SIZE`].
pub fn figure() -> Result<Figure> {
    let mut fig = Figure::new(
        "fig09",
        "Fig 9 — top-K runtime and cost vs K: server-side vs sampling (projected to 60M rows)",
    );
    for r in run(SIZE)? {
        fig.row(
            format!("k={}", r.k),
            vec![
                ("server", Cell::Measure(r.server)),
                ("sampling", Cell::Measure(r.sampling)),
            ],
        );
    }
    Ok(fig)
}
