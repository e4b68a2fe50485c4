//! The §VI group-by experiment in miniature: a Zipf-skewed table
//! aggregated by all four algorithms — server-side, filtered, S3-side
//! (CASE-WHEN rewrite) and hybrid (populous groups at S3, tail at the
//! server).
//!
//! ```sh
//! cargo run --release --example hybrid_groupby
//! ```

use pushdowndb::common::fmtutil;
use pushdowndb::core::algos::groupby::{self, GroupByQuery, HybridOptions};
use pushdowndb::core::{upload_csv_table, QueryContext};
use pushdowndb::s3::S3Store;
use pushdowndb::sql::agg::AggFunc;
use pushdowndb::tpch::synthetic::zipf_group_table;

fn main() -> pushdowndb::common::Result<()> {
    let ctx = QueryContext::new(S3Store::new());
    let (schema, rows) = zipf_group_table(30_000, 1.3, 7);
    let table = upload_csv_table(&ctx.store, "demo", "zipf", &schema, &rows, 8_000)?;
    let factor = 10e9 / table.total_bytes(&ctx.store) as f64; // paper's 10 GB

    let q = GroupByQuery {
        table,
        group_cols: vec!["g0".into()],
        aggs: vec![
            (AggFunc::Sum, Some("v0".into())),
            (AggFunc::Count, Some("v0".into())),
        ],
        predicate: None,
    };

    let runs = [
        ("server-side", groupby::server_side(&ctx, &q)?),
        ("filtered   ", groupby::filtered(&ctx, &q)?),
        ("s3-side    ", groupby::s3_side(&ctx, &q)?),
        (
            "hybrid     ",
            groupby::hybrid(&ctx, &q, HybridOptions::default())?,
        ),
    ];
    println!("group-by over 100 zipf(θ=1.3) groups, projected to 10 GB:");
    for (name, out) in &runs {
        let m = out.metrics.scaled(factor);
        println!(
            "  {name}: {} groups, runtime {}, cost {}, wire {}",
            out.rows.len(),
            fmtutil::secs(m.runtime(&ctx.model)),
            fmtutil::dollars(m.cost(&ctx.model, &ctx.pricing).total()),
            fmtutil::bytes(m.bytes_returned()),
        );
    }
    // All four agree on the four biggest groups.
    println!("\nlargest groups (group, sum, count):");
    let mut by_count = runs[0].1.rows.clone();
    by_count.sort_by(|a, b| b[2].total_cmp(&a[2]));
    for r in by_count.iter().take(4) {
        println!("  {:?}", r.values());
    }
    Ok(())
}
