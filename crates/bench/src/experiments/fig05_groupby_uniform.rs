//! **Figure 5** — group-by algorithms vs number of (uniform) groups
//! (paper §VI-C1).
//!
//! A 20-column synthetic table (10 group columns with 2^(i+1) groups
//! each, 10 float value columns); each query aggregates four value
//! columns grouped by one column, sweeping the group count 2 … 32.
//! Each column is the planner's candidate of that name.
//!
//! Expected shape, as the gates [`figure`] checks: server-side and
//! filtered stay within ±10 % of their 2-group runtimes at every group
//! count (`server-flat`, `filtered-flat`), filtered faster than
//! server-side throughout (`filtered-beats-server`; the paper: 64 %,
//! projection pushdown); S3-side slows strictly with every step in the
//! group count as its CASE-WHEN chain grows (`s3-side-degrades`),
//! faster than filtered at 2 groups (`crossover-at-2`) and slower at 32
//! (`crossover-at-32`).

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

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig05",
        "Fig 5 — group-by runtime and cost vs uniform group count (projected to 10 GB)",
    )
}

/// Fig 5's gates on `rows` (one per group count, ascending): the first
/// that fails is the `Err`, named.
pub fn check(rows: &[Fig5Row]) -> Result<()> {
    let fig = new_figure();
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let (s0, f0) = (first.server.runtime, first.filtered.runtime);
    for r in rows {
        let (server, filtered, n) = (r.server.runtime, r.filtered.runtime, r.n_groups);
        fig.gate("server-flat", (server / s0 - 1.0).abs() < 0.1, || {
            format!("{n} groups: server-side {server} s vs {s0} s at the fewest")
        })?;
        fig.gate("filtered-flat", (filtered / f0 - 1.0).abs() < 0.1, || {
            format!("{n} groups: filtered {filtered} s vs {f0} s at the fewest")
        })?;
        fig.gate("filtered-beats-server", filtered < server, || {
            format!("{n} groups: filtered {filtered} s vs server-side {server} s")
        })?;
    }
    for w in rows.windows(2) {
        let (a, b) = (w[0].s3_side.runtime, w[1].s3_side.runtime);
        let (na, nb) = (w[0].n_groups, w[1].n_groups);
        fig.gate("s3-side-degrades", b > a, || {
            format!("s3-side {b} s at {nb} groups vs {a} s at {na}")
        })?;
    }
    let crossover = |r: &Fig5Row| {
        let (n, s3, filtered) = (r.n_groups, r.s3_side.runtime, r.filtered.runtime);
        move || format!("{n} groups: s3-side {s3} s vs filtered {filtered} s")
    };
    let (s3, filtered) = (first.s3_side.runtime, first.filtered.runtime);
    fig.gate("crossover-at-2", s3 < filtered, crossover(first))?;
    let (s3, filtered) = (last.s3_side.runtime, last.filtered.runtime);
    fig.gate("crossover-at-32", s3 > filtered, crossover(last))?;
    Ok(())
}

/// Fig 5 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
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
