//! **Figure 6** — hybrid group-by: how many groups to push to S3
//! (paper §VI-C2, Fig 6).
//!
//! Zipf-skewed table (100 groups, θ = 1.3); the statement's `hybrid`
//! candidate is forced to aggregate exactly `n` groups at S3
//! (`Tune::ForcedSplit`) while the server handles the tail, `n` sweeping
//! 1 … 12.
//!
//! Expected shape, as the gates [`figure`] checks: with every step in
//! `n` the S3-side bar grows strictly (`s3-bar-grows`, longer CASE
//! chains), the server-side bar (`server-bar-shrinks`) and the bytes
//! returned (`bytes-shrink`) shrink strictly, fewer tail rows shipped;
//! the best total is interior, strictly under the totals at `n = 1`
//! (`best-not-at-1`) and at `n = 12` (`best-not-at-12`); the paper
//! finds it around 6–8 groups.

use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure, Tune};
use pushdown_common::Result;
use pushdown_core::{upload_csv_table, QueryContext, Table};
use pushdown_s3::S3Store;
use pushdown_tpch::synthetic::zipf_group_table;

pub const PAPER_BYTES: f64 = 10e9;

/// The row count `figure` runs at.
pub const SIZE: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    pub s3_groups: usize,
    /// Modeled duration of the S3-side aggregation phase (projected).
    pub s3_seconds: f64,
    /// Modeled duration of the server-side aggregation phase (projected).
    pub server_seconds: f64,
    /// Total runtime (phases compose per the plan).
    pub total: Measure,
    pub bytes_returned: u64,
}

fn upload(ctx: &QueryContext, n_rows: usize, theta: f64) -> Result<Table> {
    let (schema, rows) = zipf_group_table(n_rows, theta, 7);
    upload_csv_table(&ctx.store, "bench", "zipf", &schema, &rows, n_rows / 8 + 1)
}

/// The figure's statement (Fig 7 runs the same one).
pub const SQL: &str = "SELECT g0, SUM(v0), SUM(v1), SUM(v2), SUM(v3) FROM zipf GROUP BY g0";

pub fn run(n_rows: usize) -> Result<Vec<Fig6Row>> {
    let ctx = QueryContext::new(S3Store::new());
    let table = upload(&ctx, n_rows, 1.3)?;
    let factor = PAPER_BYTES / table.total_bytes(&ctx.store) as f64;
    let mut out = Vec::new();
    for n in [1, 4, 6, 8, 10, 12] {
        let res = run_candidate(&ctx, &table, SQL, "hybrid", Some(Tune::ForcedSplit(n)))?;
        let scaled = res.metrics.scaled(factor);
        out.push(Fig6Row {
            s3_groups: n,
            s3_seconds: scaled.seconds_for(&ctx.model, "s3-side"),
            server_seconds: scaled.seconds_for(&ctx.model, "server-side"),
            total: Measure::of(&ctx, &res, factor),
            bytes_returned: scaled.bytes_returned(),
        });
    }
    Ok(out)
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig06",
        "Fig 6 — hybrid group-by: S3 vs server aggregation split (10 GB Zipf, θ = 1.3)",
    )
}

/// Fig 6's gates on `rows` (one per count of S3 groups, ascending): the
/// first that fails is the `Err`, named.
pub fn check(rows: &[Fig6Row]) -> Result<()> {
    let fig = new_figure();
    for w in rows.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let at = format!("{} S3 groups vs {}", b.s3_groups, a.s3_groups);
        let (x, y) = (a.s3_seconds, b.s3_seconds);
        fig.gate("s3-bar-grows", y > x, || format!("{at}: s3 {y} s vs {x} s"))?;
        let (x, y) = (a.server_seconds, b.server_seconds);
        fig.gate("server-bar-shrinks", y < x, || {
            format!("{at}: server {y} s vs {x} s")
        })?;
        let (x, y) = (a.bytes_returned, b.bytes_returned);
        fig.gate("bytes-shrink", y < x, || format!("{at}: {y} bytes vs {x}"))?;
    }
    let totals: Vec<f64> = rows.iter().map(|r| r.total.runtime).collect();
    let min = totals.iter().copied().fold(f64::MAX, f64::min);
    let (first, last) = (totals[0], totals[totals.len() - 1]);
    fig.gate("best-not-at-1", first > min, || {
        format!("total {first} s at the fewest S3 groups is the best")
    })?;
    fig.gate("best-not-at-12", last > min, || {
        format!("total {last} s at the most S3 groups is the best")
    })?;
    Ok(())
}

/// Fig 6 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
        fig.row(
            format!("s3_groups={}", r.s3_groups),
            vec![
                ("s3", Cell::Secs(r.s3_seconds)),
                ("server", Cell::Secs(r.server_seconds)),
                ("total", Cell::Measure(r.total)),
                ("bytes-returned", Cell::Count(r.bytes_returned)),
            ],
        );
    }
    Ok(fig)
}
