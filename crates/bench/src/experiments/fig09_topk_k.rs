//! **Figure 9** — top-K algorithms vs K (paper §VII-C2).
//!
//! K sweeps 1 … 10⁴ (the paper: 1 … 10⁵ on a 60M-row table) over the
//! statement's `server-side` and `sampling` candidates; the sample size
//! comes from the §VII-B model, and `sampling` runs it even where the
//! catalog's tails would hand it the threshold.
//!
//! Expected shape, as the gates [`figure`] checks: at every K sampling
//! is faster (`sampling-faster`) *and* cheaper (`sampling-cheaper`) than
//! server-side, and both runtimes are higher at the largest K than at
//! K = 1 (`server-grows`, `sampling-grows`: a bigger heap).
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

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig09",
        "Fig 9 — top-K runtime and cost vs K: server-side vs sampling (projected to 60M rows)",
    )
}

/// Fig 9's gates on `rows` (one per K, ascending): the first that fails
/// is the `Err`, named.
pub fn check(rows: &[Fig9Row]) -> Result<()> {
    let fig = new_figure();
    for r in rows {
        let (k, sampling, server) = (r.k, r.sampling.runtime, r.server.runtime);
        fig.gate("sampling-faster", sampling < server, || {
            format!("K={k}: sampling {sampling} s vs server-side {server} s")
        })?;
        let (sampling, server) = (r.sampling.cost.total(), r.server.cost.total());
        fig.gate("sampling-cheaper", sampling < server, || {
            format!("K={k}: sampling ${sampling} vs server-side ${server}")
        })?;
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let k = last.k;
    let (a, b) = (first.server.runtime, last.server.runtime);
    fig.gate("server-grows", b > a, || {
        format!("server-side {b} s at K={k} vs {a} s at K=1")
    })?;
    let (a, b) = (first.sampling.runtime, last.sampling.runtime);
    fig.gate("sampling-grows", b > a, || {
        format!("sampling {b} s at K={k} vs {a} s at K=1")
    })?;
    Ok(())
}

/// Fig 9 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
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
