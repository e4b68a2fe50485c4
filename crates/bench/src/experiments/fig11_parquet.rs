//! **Figure 11** — CSV vs columnar (Parquet-substitute) filter scans
//! (paper §IX).
//!
//! Tables of 1 / 10 / 20 float columns (100 MB per column at paper
//! scale); the query returns one filtered column with selectivity swept
//! 0 … 1.
//!
//! Expected shape, as the gates [`figure`] checks: columnar is never
//! over 1.02× CSV (`columnar-never-loses`); at selectivity 0 CSV over
//! 20 columns is over 1.5× CSV over one (`csv-pays-for-width`) while
//! columnar stays under 1.2× (`columnar-flat-in-width`: it scans one
//! chunk); at selectivity 1 over 20 columns CSV is under 1.2× columnar
//! (`formats-converge`: the response is CSV either way and transfer
//! dominates, the paper's §IX observation); and the compressed columnar
//! table is 0.5–0.95 of the CSV bytes (`size-ratio`; the paper's
//! Parquet: ~0.7).

use crate::figure::{Cell, Figure};
use crate::Measure;
use pushdown_common::{Error, Result};
use pushdown_core::scan::select_scan;
use pushdown_core::{upload_columnar_table, upload_csv_table, QueryContext};
use pushdown_format::columnar::WriterOptions;
use pushdown_s3::S3Store;
use pushdown_sql::{Expr, SelectItem, SelectStmt};
use pushdown_tpch::synthetic::wide_float_table;

/// The row count `figure` runs at.
pub const SIZE: usize = 8_000;

/// Paper: "each column contains 100 MB of randomly generated floating
/// point numbers".
pub const PAPER_BYTES_PER_COLUMN: f64 = 100e6;

#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    pub columns: usize,
    pub selectivity: f64,
    pub csv: Measure,
    pub columnar: Measure,
    /// Compressed columnar size as a fraction of the CSV size (the paper
    /// reports its Snappy Parquet at ~0.7).
    pub size_ratio: f64,
}

pub fn run(n_rows: usize) -> Result<Vec<Fig11Row>> {
    let mut out = Vec::new();
    for cols in [1, 10, 20] {
        let ctx = QueryContext::new(S3Store::new());
        let (schema, rows) = wide_float_table(n_rows, cols, 11);
        let csv_table = upload_csv_table(
            &ctx.store,
            "bench",
            "wide_csv",
            &schema,
            &rows,
            n_rows / 8 + 1,
        )?;
        let clt_table = upload_columnar_table(
            &ctx.store,
            "bench",
            "wide_clt",
            &schema,
            &rows,
            n_rows / 8 + 1,
            WriterOptions {
                rows_per_group: 16_384,
                compress: true,
            },
        )?;
        let csv_bytes = csv_table.total_bytes(&ctx.store) as f64;
        let clt_bytes = clt_table.total_bytes(&ctx.store) as f64;
        // Project by the CSV byte ratio to the paper's 100 MB/column.
        let factor = PAPER_BYTES_PER_COLUMN * cols as f64 / csv_bytes;

        for s in [0.0, 0.01, 0.1, 0.5, 1.0] {
            let stmt = SelectStmt {
                items: vec![SelectItem::Expr {
                    expr: Expr::col("c0"),
                    alias: None,
                }],
                alias: None,
                where_clause: Some(Expr::lt(Expr::col("c0"), Expr::float(s))),
                limit: None,
            };
            let a = select_scan(&ctx, &csv_table, &stmt)?;
            let b = select_scan(&ctx, &clt_table, &stmt)?;
            assert_eq!(a.rows.len(), b.rows.len());
            // One scan phase, projected.
            let measure = |stats| {
                let mut m = pushdown_core::QueryMetrics::new();
                m.push_serial("scan", stats);
                let m = m.scaled(factor);
                Measure {
                    runtime: m.runtime(&ctx.model),
                    cost: m.cost(&ctx.model, &ctx.pricing),
                    bytes_returned: m.bytes_returned(),
                }
            };
            out.push(Fig11Row {
                columns: cols,
                selectivity: s,
                csv: measure(a.stats),
                columnar: measure(b.stats),
                size_ratio: clt_bytes / csv_bytes,
            });
        }
    }
    Ok(out)
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig11",
        "Fig 11 — CSV vs ColumnarLite filter runtime and cost (projected to 100 MB/column)",
    )
}

/// Fig 11's gates on `rows`: the first that fails is the `Err`, named.
pub fn check(rows: &[Fig11Row]) -> Result<()> {
    let fig = new_figure();
    for r in rows {
        let (cols, sel) = (r.columns, r.selectivity);
        let (columnar, csv) = (r.columnar.runtime, r.csv.runtime);
        fig.gate("columnar-never-loses", columnar <= csv * 1.02, || {
            format!("{cols} columns, selectivity {sel}: columnar {columnar} s vs csv {csv} s")
        })?;
    }
    let get = |cols: usize, sel: f64| {
        rows.iter()
            .find(|r| r.columns == cols && (r.selectivity - sel).abs() < 1e-9)
            .ok_or_else(|| Error::Other(format!("fig11: no {cols}-column row at {sel}")))
    };
    let (narrow, wide) = (get(1, 0.0)?, get(20, 0.0)?);
    let (a, b) = (narrow.csv.runtime, wide.csv.runtime);
    fig.gate("csv-pays-for-width", b > 1.5 * a, || {
        format!("selectivity 0: csv {b} s over 20 columns vs {a} s over 1")
    })?;
    let (a, b) = (narrow.columnar.runtime, wide.columnar.runtime);
    fig.gate("columnar-flat-in-width", b < 1.2 * a, || {
        format!("selectivity 0: columnar {b} s over 20 columns vs {a} s over 1")
    })?;
    let r = get(20, 1.0)?;
    let (csv, columnar, ratio) = (r.csv.runtime, r.columnar.runtime, r.size_ratio);
    fig.gate("formats-converge", csv < 1.2 * columnar, || {
        format!("20 columns, selectivity 1: csv {csv} s vs columnar {columnar} s")
    })?;
    fig.gate("size-ratio", (0.5..0.95).contains(&ratio), || {
        format!("columnar / csv bytes {ratio}")
    })?;
    Ok(())
}

/// Fig 11 at [`SIZE`], or the first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let rows = run(SIZE)?;
    check(&rows)?;
    let mut fig = new_figure();
    for r in rows {
        fig.row(
            format!("columns={} selectivity={}", r.columns, r.selectivity),
            vec![
                ("csv", Cell::Measure(r.csv)),
                ("columnar", Cell::Measure(r.columnar)),
                ("size-ratio", Cell::Ratio(r.size_ratio)),
            ],
        );
    }
    Ok(fig)
}
