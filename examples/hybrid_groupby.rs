//! The §VI group-by experiment in miniature: a Zipf-skewed table
//! aggregated by all four algorithms — server-side, filtered, S3-side
//! (CASE-WHEN rewrite) and hybrid (populous groups at S3, tail at the
//! server). Each is the planner's candidate of that name.
//!
//! ```sh
//! cargo run --release --example hybrid_groupby
//! ```

use pushdown_bench::run_candidate;
use pushdowndb::common::fmtutil;
use pushdowndb::core::{upload_csv_table, QueryContext};
use pushdowndb::s3::S3Store;
use pushdowndb::tpch::synthetic::zipf_group_table;

fn main() -> pushdowndb::common::Result<()> {
    let ctx = QueryContext::new(S3Store::new());
    let (schema, rows) = zipf_group_table(30_000, 1.3, 7);
    let table = upload_csv_table(&ctx.store, "demo", "zipf", &schema, &rows, 8_000)?;
    let factor = 10e9 / table.total_bytes(&ctx.store) as f64; // paper's 10 GB

    let sql = "SELECT g0, SUM(v0), COUNT(v0) FROM zipf GROUP BY g0";
    let run = |name| run_candidate(&ctx, &table, sql, name, None);
    let runs = [
        ("server-side", run("server-side")?),
        ("filtered   ", run("filtered")?),
        ("s3-side    ", run("s3-side")?),
        ("hybrid     ", run("hybrid")?),
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
