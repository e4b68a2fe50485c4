//! **Figure 1** — filter strategies vs selectivity (paper §IV-B).
//!
//! Three strategies over a lineitem-shaped table as the predicate
//! selectivity sweeps 1e-7 … 1e-2: server-side filter (full load),
//! S3-side filter (pushdown), and the §IV-A index table. The first two
//! are the planner's `server-side` / `s3-side` candidates of the
//! statement, run by name.
//!
//! Expected shape, as the gates [`figure`] checks: at every selectivity
//! server-side is over 5× slower than S3-side (`s3-faster`; the paper's
//! "dramatic 10x"), its cost compute-dominated (`server-compute-bound`)
//! and S3-side's scan-dominated (`s3-scan-bound`). At 1e-7 indexing runs
//! within 1.5× of S3-side (`indexed-competitive`) and costs under half
//! of server-side (`indexed-cheapest`; paper: 2.7× cheaper); at 1e-2 its
//! per-row GETs make it over 5× slower than S3-side
//! (`indexed-collapses`) and over 10× its own cost at 1e-7
//! (`indexed-cost-explodes`).

use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure};
use pushdown_common::{DataType, Result, Row, Schema, Value};
use pushdown_core::algos::filter::{self, FilterQuery, RowFetch};
use pushdown_core::{build_index, upload_csv_table, QueryContext};
use pushdown_s3::S3Store;
use pushdown_sql::Expr;

/// The size `figure` runs at.
pub const SIZE: usize = 30_000;

/// The paper sweeps a 60M-row table; measurements at `n_rows` are
/// projected to that scale.
pub const PAPER_ROWS: u64 = 60_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Fig1Row {
    pub selectivity: f64,
    pub server: Measure,
    pub s3: Measure,
    pub indexed: Measure,
}

/// A lineitem-shaped synthetic table: a uniform unique key plus padding
/// bringing rows to roughly the paper's ~120 B.
fn filter_table(ctx: &QueryContext, n_rows: usize) -> Result<pushdown_core::Table> {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("pad", DataType::Str),
    ]);
    // A permutation of 0..n via multiplication by a unit mod 2^k, so the
    // key order is unrelated to storage order.
    let n = n_rows as i64;
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let k = (i.wrapping_mul(2654435761)).rem_euclid(n);
            Row::new(vec![
                Value::Int(k),
                Value::Float((i % 100_000) as f64 / 100.0),
                Value::Str(format!("{:0>88}", i)),
            ])
        })
        .collect();
    upload_csv_table(
        &ctx.store,
        "bench",
        "filterdata",
        &schema,
        &rows,
        n_rows / 16 + 1,
    )
}

/// Run the sweep at `n_rows` (projection factor `PAPER_ROWS / n_rows`).
pub fn run(n_rows: usize) -> Result<Vec<Fig1Row>> {
    let ctx = QueryContext::new(S3Store::new());
    let table = filter_table(&ctx, n_rows)?;
    let index = build_index(&ctx, &table, "k")?;
    let factor = PAPER_ROWS as f64 / n_rows as f64;

    let mut out = Vec::new();
    // The paper's x-axis.
    for s in [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
        // `k < cutoff` selects the paper-equivalent fraction; at tiny
        // fractions the local row count clamps to >= 0 naturally.
        let cutoff = (s * n_rows as f64).round() as i64;
        let q = FilterQuery {
            table: table.clone(),
            predicate: Expr::lt(Expr::col("k"), Expr::int(cutoff)),
            projection: None,
        };
        let sql = format!("SELECT * FROM filterdata WHERE k < {cutoff}");
        let server = run_candidate(&ctx, &table, &sql, "server-side", None)?;
        let s3 = run_candidate(&ctx, &table, &sql, "s3-side", None)?;
        let indexed = filter::indexed(&ctx, &index, &q, RowFetch::PerRow)?;
        assert!(server.rows.len() == s3.rows.len() && s3.rows.len() == indexed.rows.len());
        out.push(Fig1Row {
            selectivity: s,
            server: Measure::of(&ctx, &server, factor),
            s3: Measure::of(&ctx, &s3, factor),
            indexed: Measure::of(&ctx, &indexed, factor),
        });
    }
    Ok(out)
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig01",
        "Fig 1 — filter runtime and cost vs selectivity (projected to the paper's 60M-row table)",
    )
}

/// Fig 1's gates on `rows` (one per selectivity, ascending): the first
/// that fails is the `Err`, named.
pub fn check(rows: &[Fig1Row]) -> Result<()> {
    let fig = new_figure();
    for r in rows {
        let (sel, server, s3) = (r.selectivity, &r.server, &r.s3);
        let (slow, fast) = (server.runtime, s3.runtime);
        fig.gate("s3-faster", slow > 5.0 * fast, || {
            format!("selectivity {sel:e}: server-side {slow} s vs s3-side {fast} s")
        })?;
        let (compute, scan) = (server.cost.compute, server.cost.scan);
        fig.gate("server-compute-bound", compute > scan, || {
            format!("selectivity {sel:e}: server-side compute ${compute} vs scan ${scan}")
        })?;
        let (compute, scan) = (s3.cost.compute, s3.cost.scan);
        fig.gate("s3-scan-bound", scan > compute, || {
            format!("selectivity {sel:e}: s3-side scan ${scan} vs compute ${compute}")
        })?;
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let (sel, indexed, s3) = (first.selectivity, first.indexed.runtime, first.s3.runtime);
    fig.gate("indexed-competitive", indexed <= 1.5 * s3, || {
        format!("selectivity {sel:e}: indexed {indexed} s vs s3-side {s3} s")
    })?;
    let (sel, indexed, s3) = (last.selectivity, last.indexed.runtime, last.s3.runtime);
    fig.gate("indexed-collapses", indexed > 5.0 * s3, || {
        format!("selectivity {sel:e}: indexed {indexed} s vs s3-side {s3} s")
    })?;
    let (cheap, dear) = (first.indexed.cost.total(), last.indexed.cost.total());
    fig.gate("indexed-cost-explodes", dear > 10.0 * cheap, || {
        format!("indexed ${dear} at selectivity {sel:e} vs ${cheap} at the first")
    })?;
    let (sel, server) = (first.selectivity, first.server.cost.total());
    fig.gate("indexed-cheapest", cheap * 2.0 < server, || {
        format!("selectivity {sel:e}: indexed ${cheap} vs server-side ${server}")
    })?;
    Ok(())
}

/// Fig 1 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
        fig.row(
            format!("selectivity={:e}", r.selectivity),
            vec![
                ("server", Cell::Measure(r.server)),
                ("s3", Cell::Measure(r.s3)),
                ("indexed", Cell::Measure(r.indexed)),
            ],
        );
    }
    Ok(fig)
}
