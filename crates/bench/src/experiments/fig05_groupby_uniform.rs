//! **Figure 5** — group-by algorithms vs number of (uniform) groups
//! (paper §VI-C1).
//!
//! A 20-column synthetic table (10 group columns with 2^(i+1) groups
//! each, 10 float value columns); each query aggregates four value
//! columns grouped by one column, sweeping the group count 2 … 32.
//! Expected shape: server-side and filtered flat in the group count,
//! filtered ≈ 1.6× faster (projection pushdown); S3-side best at few
//! groups, degrading past ~8–16 as the CASE-WHEN chain slows the scan.
//! Each column is the planner's candidate of that name.

use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure};
use pushdown_common::Result;
use pushdown_core::{upload_csv_table, QueryContext, Table};
use pushdown_s3::S3Store;
use pushdown_tpch::synthetic::uniform_group_table;

/// The row count `figure` runs at.
pub const SIZE: usize = 20_000;

/// The paper's table is 10 GB; measurements project to that size.
pub const PAPER_BYTES: f64 = 10e9;

#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    pub n_groups: u32,
    pub server: Measure,
    pub filtered: Measure,
    pub s3_side: Measure,
}

fn upload(ctx: &QueryContext, n_rows: usize) -> Result<Table> {
    let (schema, rows) = uniform_group_table(n_rows, 42);
    upload_csv_table(
        &ctx.store,
        "bench",
        "uniform",
        &schema,
        &rows,
        n_rows / 8 + 1,
    )
}

pub fn run(n_rows: usize) -> Result<Vec<Fig5Row>> {
    let ctx = QueryContext::new(S3Store::new());
    let table = upload(&ctx, n_rows)?;
    let factor = PAPER_BYTES / table.total_bytes(&ctx.store) as f64;
    let mut out = Vec::new();
    for (i, n_groups) in [2, 4, 8, 16, 32].into_iter().enumerate() {
        // Column g<i> holds 2^(i+1) uniform groups.
        let sql =
            format!("SELECT g{i}, SUM(v0), SUM(v1), SUM(v2), SUM(v3) FROM uniform GROUP BY g{i}");
        let run = |name| run_candidate(&ctx, &table, &sql, name, None);
        let (server, filtered, s3) = (run("server-side")?, run("filtered")?, run("s3-side")?);
        assert_eq!(server.rows.len(), n_groups as usize);
        assert_eq!(s3.rows.len(), n_groups as usize);
        out.push(Fig5Row {
            n_groups,
            server: Measure::of(&ctx, &server, factor),
            filtered: Measure::of(&ctx, &filtered, factor),
            s3_side: Measure::of(&ctx, &s3, factor),
        });
    }
    Ok(out)
}

/// Fig 5 at [`SIZE`].
pub fn figure() -> Result<Figure> {
    let mut fig = Figure::new(
        "fig05",
        "Fig 5 — group-by runtime and cost vs uniform group count (projected to 10 GB)",
    );
    for r in run(SIZE)? {
        fig.row(
            format!("groups={}", r.n_groups),
            vec![
                ("server", Cell::Measure(r.server)),
                ("filtered", Cell::Measure(r.filtered)),
                ("s3-side", Cell::Measure(r.s3_side)),
            ],
        );
    }
    Ok(fig)
}
