//! **Figure 8** — sampling top-K sensitivity to the sample size
//! (paper §VII-C1).
//!
//! Top-[`K`] over the lineitem table (the paper runs K = 100), the
//! `sampling` candidate's sample size S (`Tune::SampleSize`) swept across
//! four orders of magnitude.
//!
//! Expected shape, as the gates [`figure`] checks: from the smallest S
//! to the largest the sampling phase grows (`sampling-grows`) and the
//! scanning phase shrinks (`scanning-shrinks`: a tighter threshold, fewer
//! qualifying rows); the bytes returned are U-shaped, their minimum
//! strictly under both ends (`bytes-min-not-at-smallest`,
//! `bytes-min-not-at-largest`); and the total at the swept S nearest the
//! paper's analytic `S* = sqrt(K·N/α)` is within 4× of the best total
//! (`near-analytic-optimum`; the paper: "stable in a relatively wide
//! range around S*").
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

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig08",
        "Fig 8 — sampling top-K phases vs sample size S, the analytic S* first \
     (projected to 60M rows)",
    )
}

/// Fig 8's gates on `res` (its sweep by ascending sample size): the
/// first that fails is the `Err`, named.
pub fn check(res: &Fig8Result) -> Result<()> {
    let fig = new_figure();
    let s = &res.sweep;
    let (first, last) = (&s[0], &s[s.len() - 1]);
    let (small, large) = (first.sample_size, last.sample_size);
    let (a, b) = (first.sampling_seconds, last.sampling_seconds);
    fig.gate("sampling-grows", b > a, || {
        format!("sampling {b} s at S {large} vs {a} s at S {small}")
    })?;
    let (a, b) = (first.scanning_seconds, last.scanning_seconds);
    fig.gate("scanning-shrinks", b < a, || {
        format!("scanning {b} s at S {large} vs {a} s at S {small}")
    })?;
    let bytes: Vec<u64> = s.iter().map(|r| r.bytes_returned).collect();
    let min = *bytes.iter().min().expect("the sweep is not empty");
    let by_size = || format!("bytes returned by S: {bytes:?}");
    fig.gate("bytes-min-not-at-smallest", bytes[0] > min, by_size)?;
    fig.gate(
        "bytes-min-not-at-largest",
        bytes[bytes.len() - 1] > min,
        by_size,
    )?;
    let best = s.iter().map(|r| r.total.runtime).fold(f64::MAX, f64::min);
    let optimum = res.analytic_optimum;
    let nearest = s
        .iter()
        .min_by_key(|r| r.sample_size.abs_diff(optimum))
        .expect("the sweep is not empty");
    let (at, total) = (nearest.sample_size, nearest.total.runtime);
    fig.gate("near-analytic-optimum", total <= best * 4.0, || {
        format!("S {at} (S* {optimum}): total {total} s vs the best {best} s")
    })?;
    Ok(())
}

/// Fig 8 at [`SIZE`]: the analytic optimum, then the sweep — or the
/// first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let res = run(SIZE)?;
    check(&res)?;
    let mut fig = new_figure();
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
