//! **Figure 7** — group-by algorithms vs data skew (paper §VI-C2).
//!
//! The Zipf table's θ sweeps 0 (uniform) … 1.3 (59 % of rows in the top
//! four of 100 groups). Expected shape: server-side and filtered flat in
//! θ (they ship everything regardless); hybrid ≈ filtered at low skew
//! (no populous groups worth pushing, it degenerates) and pulling ahead
//! ~30 % at θ = 1.3. Each column is the planner's candidate of that
//! name for Fig 6's query.

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

/// Fig 7 at [`SIZE`].
pub fn figure() -> Result<Figure> {
    let mut fig = Figure::new(
        "fig07",
        "Fig 7 — group-by runtime and cost vs Zipf skew (projected to 10 GB)",
    );
    for r in run(SIZE)? {
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
