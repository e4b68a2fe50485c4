//! The paper's §V join experiment in miniature: the Listing 2 query
//! (`SUM(o_totalprice)` over customer ⋈ orders) under the baseline,
//! filtered, and Bloom join algorithms, including the Bloom SQL predicate
//! actually shipped to (simulated) S3.
//!
//! ```sh
//! cargo run --release --example bloom_join
//! ```

use pushdown_bench::run_candidate;
use pushdowndb::bloom::BloomFilter;
use pushdowndb::common::fmtutil;
use pushdowndb::tpch::tpch_context;

fn main() -> pushdowndb::common::Result<()> {
    let (ctx, t) = tpch_context(0.005, 2_000)?;
    // The three algorithms are the candidates the planner lowers this
    // statement to; `customer`, the FROM table, is the build side.
    let sql = "SELECT SUM(o_totalprice) FROM customer JOIN orders ON c_custkey = o_custkey \
               WHERE c_acctbal <= -950";

    // Show what a Bloom probe predicate looks like on the wire
    // (paper Listing 1).
    let mut demo = BloomFilter::with_geometry(68, 1, 5);
    demo.insert(42);
    println!(
        "a 1-hash Bloom probe, as shipped to S3 Select:\n  {}\n",
        demo.sql_predicate("o_custkey")
    );

    let f = 10.0 / t.scale_factor; // project to the paper's SF 10
    let run = |name| run_candidate(&ctx, &t.customer, sql, name, None);
    let (base, filt, bloom) = (run("baseline")?, run("filtered")?, run("bloom")?);

    println!("join algorithms on SUM(o_totalprice), projected to SF 10:");
    for (name, out) in [
        ("baseline", &base),
        ("filtered", &filt),
        ("bloom   ", &bloom),
    ] {
        let m = out.metrics.scaled(f);
        println!(
            "  {name}: answer {:?}, runtime {}, cost {}, bytes over the wire {}",
            out.rows[0][0],
            fmtutil::secs(m.runtime(&ctx.model)),
            fmtutil::dollars(m.cost(&ctx.model, &ctx.pricing).total()),
            fmtutil::bytes(m.bytes_returned()),
        );
    }
    // A build phase, then a probe phase (§V-A2); the probe's label says
    // whether the filter applied, degraded or fell back (§V-B1).
    println!("\nbloom join phases:");
    for (label, seconds) in bloom.metrics.scaled(f).phase_seconds(&ctx.model) {
        println!("  {label}: {}", fmtutil::secs(seconds));
    }
    Ok(())
}
