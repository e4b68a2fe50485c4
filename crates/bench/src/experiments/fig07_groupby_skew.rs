//! **Figure 7** — group-by algorithms vs data skew (paper §VI-C2).
//!
//! The Zipf table's θ sweeps 0 (uniform) … 1.3 (59 % of rows in the top
//! four of 100 groups). Expected shape: server-side and filtered flat in
//! θ (they ship everything regardless); hybrid ≈ filtered at low skew
//! (no populous groups worth pushing, it degenerates) and pulling ahead
//! ~30 % at θ = 1.3. Each column is the planner's candidate of that
//! name for Fig 6's query.

use crate::{run_candidate, Measure};
use pushdown_common::Result;
use pushdown_core::{upload_csv_table, QueryContext};
use pushdown_s3::S3Store;
use pushdown_tpch::synthetic::zipf_group_table;

pub const PAPER_BYTES: f64 = 10e9;

#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    pub theta: f64,
    pub server: Measure,
    pub filtered: Measure,
    pub hybrid: Measure,
}

pub fn thetas() -> Vec<f64> {
    vec![0.0, 0.6, 0.9, 1.1, 1.3]
}

pub fn run(n_rows: usize) -> Result<Vec<Fig7Row>> {
    let mut out = Vec::new();
    for theta in thetas() {
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
