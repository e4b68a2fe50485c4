//! Throughput / billed $ / interconnect volume vs node count for the
//! cluster (beyond the paper).
//! Usage: `fig_cluster [scale_factor] [queries] [seed] [theta]`
//! (defaults 0.002, 24, 42, 1.0; node counts 1, 2, 4).
//!
//! Exits non-zero unless every node count returns bit-identical rows
//! and bills exactly the single-node S3 ledger, with per-node deltas
//! decomposing each run's bill (the cluster conservation law).

use pushdown_bench::experiments::fig_cluster as fig;
use pushdown_bench::table::print_table;
use pushdown_common::fmtutil;
use pushdown_common::pricing::Usage;

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.002);
    let queries: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let theta: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let res = fig::run(sf, seed, queries, theta, &[1, 2, 4]).expect("fig_cluster");
    print_table(
        &format!(
            "Fig cluster — {} Zipf(θ={}) queries (seed {}) vs node count",
            res.queries, res.theta, res.seed,
        ),
        &[
            "nodes",
            "billed $",
            "qps",
            "exchange",
            "critical path",
            "balance",
            "failed",
        ],
        &res.rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    format!("${:.6}", r.report.total_dollars),
                    format!("{:.1}", r.report.throughput_qps),
                    fmtutil::bytes(r.exchange_bytes),
                    format!("{:.3}s", r.critical_path_s),
                    format!("{:.2}", r.balance),
                    r.report.failed.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for r in &res.rows {
        println!("\nnodes={}: per-node busy / exchange / billed", r.nodes);
        for n in &r.report.node_stats {
            println!(
                "  node {}: busy {:.3}s (util {:.2})  exchange {}  {} req / {} scanned",
                n.node,
                n.busy_s,
                n.utilization,
                fmtutil::bytes(n.exchange_bytes),
                n.billed.requests,
                n.billed.select_scanned_bytes,
            );
        }
    }

    // CI gates: the cluster moves work, never rows or billable bytes.
    let reference = &res.rows[0];
    let mut ok = true;
    for r in &res.rows[1..] {
        for (a, b) in reference.report.per_query.iter().zip(&r.report.per_query) {
            if a.row_digest != b.row_digest || a.error != b.error {
                eprintln!(
                    "ERROR: query {} ({}) diverged at {} nodes",
                    a.index, a.name, r.nodes
                );
                ok = false;
            }
        }
        if r.report.sum_billed != reference.report.sum_billed {
            eprintln!(
                "ERROR: bill changed at {} nodes: {:?} vs {:?}",
                r.nodes, r.report.sum_billed, reference.report.sum_billed
            );
            ok = false;
        }
    }
    for r in &res.rows {
        let mut nodes = Usage::default();
        for n in &r.report.node_stats {
            nodes += n.billed;
        }
        if nodes != r.report.sum_billed {
            eprintln!(
                "ERROR: {} nodes: Σ node deltas {:?} != Σ query bills {:?}",
                r.nodes, nodes, r.report.sum_billed
            );
            ok = false;
        }
    }
    let multi = res.rows.iter().find(|r| r.nodes > 1);
    if let Some(m) = multi {
        if m.exchange_bytes == 0 {
            eprintln!("ERROR: multi-node run shipped no exchange bytes");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("\nAll node counts: rows bit-identical, S3 bill unchanged, ledgers conserved.");
}
