//! The §VII top-K experiment in miniature: server-side heap vs the
//! two-phase sampling algorithm, including the analytic optimal sample
//! size `S* = sqrt(K·N/α)`.
//!
//! ```sh
//! cargo run --release --example topk_sampling
//! ```

use pushdowndb::common::fmtutil;
use pushdowndb::core::joinplan::sample_size;
use pushdowndb::core::planner::{run_candidate, Tune};
use pushdowndb::tpch::tpch_context;

fn main() -> pushdowndb::common::Result<()> {
    let (ctx, t) = tpch_context(0.005, 4_000)?;
    let k = 10;
    let sql = format!("SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT {k}");
    let n = t.lineitem.row_count;
    let size = sample_size(&t.lineitem, k);
    println!("lineitem: {n} rows; K = {k}; analytic optimal sample size S* = {size}");

    // The statement's two named candidates; `sampling` takes its sample of
    // S* rows even though the catalog's tails hold the threshold.
    let server = run_candidate(&ctx, &t.lineitem, &sql, "server-side", None)?;
    let sample = Some(Tune::SampleSize(size));
    let sampled = run_candidate(&ctx, &t.lineitem, &sql, "sampling", sample)?;

    println!("\ncheapest {k} lineitems by l_extendedprice (both algorithms agree):");
    for (a, b) in server.rows.iter().zip(&sampled.rows) {
        assert_eq!(a[5], b[5], "order keys must agree");
        println!("  order {:?} price {:?}", a[0], a[5]);
    }

    for (name, out) in [("server-side", &server), ("sampling  ", &sampled)] {
        println!(
            "{name}: runtime {}, wire {}",
            fmtutil::secs(out.runtime(&ctx)),
            fmtutil::bytes(out.metrics.bytes_returned()),
        );
    }
    println!(
        "\nsampling phases: {:?}",
        sampled
            .metrics
            .phase_seconds(&ctx.model)
            .iter()
            .map(|(l, s)| format!("{l}: {}", fmtutil::secs(*s)))
            .collect::<Vec<_>>()
    );
    Ok(())
}
