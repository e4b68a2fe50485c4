//! **Figure 7** — group-by algorithms vs data skew (paper §VI-C2).
//!
//! The Zipf table's θ sweeps 0 (uniform) … 1.3 (59 % of rows in the top
//! four of 100 groups). Each column is the planner's candidate of that
//! name for Fig 6's query.
//!
//! Expected shape, as the gates [`figure`] checks: server-side stays
//! within ±10 % of its θ = 0 runtime at every θ (`server-flat`; it
//! ships everything regardless); hybrid never slows by more than 5 %
//! from one θ to the next (`hybrid-improves`), runs under 0.75×
//! filtered at θ = 1.3 (`hybrid-wins-at-1.3`; the paper: 31 % faster)
//! and under 1.25× filtered at θ = 0 (`hybrid-near-filtered-at-0`: no
//! populous groups worth pushing, it degenerates to filtered).

use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure};
use pushdown_common::Result;
use pushdown_core::{upload_csv_table, QueryContext};
use pushdown_s3::S3Store;
use pushdown_tpch::synthetic::zipf_group_table;

pub const PAPER_BYTES: f64 = 10e9;

/// The row count `figure` runs at.
pub const SIZE: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    pub theta: f64,
    pub server: Measure,
    pub filtered: Measure,
    pub hybrid: Measure,
}

pub fn run(n_rows: usize) -> Result<Vec<Fig7Row>> {
    let mut out = Vec::new();
    for theta in [0.0, 0.6, 0.9, 1.1, 1.3] {
        let ctx = QueryContext::new(S3Store::new());
        let (schema, rows) = zipf_group_table(n_rows, theta, 7);
        let table = upload_csv_table(&ctx.store, "bench", "zipf", &schema, &rows, n_rows / 8 + 1)?;
        let factor = PAPER_BYTES / table.total_bytes(&ctx.store) as f64;
        let sql = crate::experiments::fig06_hybrid_split::SQL;
        let run = |name| run_candidate(&ctx, &table, sql, name, None);
        let (server, filtered, hybrid) = (run("server-side")?, run("filtered")?, run("hybrid")?);
        assert_eq!(server.rows.len(), hybrid.rows.len());
        out.push(Fig7Row {
            theta,
            server: Measure::of(&ctx, &server, factor),
            filtered: Measure::of(&ctx, &filtered, factor),
            hybrid: Measure::of(&ctx, &hybrid, factor),
        });
    }
    Ok(out)
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig07",
        "Fig 7 — group-by runtime and cost vs Zipf skew (projected to 10 GB)",
    )
}

/// Fig 7's gates on `rows` (one per Zipf theta, ascending): the first
/// that fails is the `Err`, named.
pub fn check(rows: &[Fig7Row]) -> Result<()> {
    let fig = new_figure();
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let s0 = first.server.runtime;
    for r in rows {
        let (theta, server) = (r.theta, r.server.runtime);
        fig.gate("server-flat", (server / s0 - 1.0).abs() < 0.1, || {
            format!("theta {theta}: server-side {server} s vs {s0} s at theta 0")
        })?;
    }
    for w in rows.windows(2) {
        let (a, b) = (w[0].hybrid.runtime, w[1].hybrid.runtime);
        let theta = w[1].theta;
        fig.gate("hybrid-improves", b <= a * 1.05, || {
            format!("theta {theta}: hybrid {b} s vs {a} s at the theta before")
        })?;
    }
    let against_filtered = |r: &Fig7Row| {
        let (theta, hybrid, filtered) = (r.theta, r.hybrid.runtime, r.filtered.runtime);
        move || format!("theta {theta}: hybrid {hybrid} s vs filtered {filtered} s")
    };
    let (hybrid, filtered) = (last.hybrid.runtime, last.filtered.runtime);
    fig.gate(
        "hybrid-wins-at-1.3",
        hybrid < 0.75 * filtered,
        against_filtered(last),
    )?;
    let (hybrid, filtered) = (first.hybrid.runtime, first.filtered.runtime);
    fig.gate(
        "hybrid-near-filtered-at-0",
        hybrid < 1.25 * filtered,
        against_filtered(first),
    )?;
    Ok(())
}

/// Fig 7 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
        fig.row(
            format!("theta={}", r.theta),
            vec![
                ("server", Cell::Measure(r.server)),
                ("filtered", Cell::Measure(r.filtered)),
                ("hybrid", Cell::Measure(r.hybrid)),
            ],
        );
    }
    Ok(fig)
}
