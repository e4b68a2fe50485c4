//! **Figure "cluster"** (beyond the paper; ISSUE 7) — throughput,
//! billed dollars and interconnect volume vs node count under a
//! Zipf-skewed workload.
//!
//! The paper's engine is single-node; the cluster consistent-hashes
//! partitions across N nodes and runs every partition request on its
//! owner ([`pushdown_core::Cluster`]). This experiment drives the same
//! seeded Zipf stream of planner-suite queries at a sweep of node
//! counts and reports, per count, the exact ledger bill, the
//! interconnect bytes the nodes shipped, and the per-node virtual busy
//! time (critical path + balance). Rows are bit-identical and S3 bills
//! exactly equal at every node count — the cluster moves work, never
//! billable bytes — which the `fig_cluster` binary enforces as its CI
//! gate.
//!
//! A zero-probability [`FaultPlan`] supplies the deterministic latency
//! model, so busy time and utilization depend only on (scale factor,
//! seed, node count).

use crate::workload::{generate_zipf, run_stream, WorkloadReport, WorkloadSpec};
use pushdown_common::Result;
use pushdown_core::planner::Strategy;
use pushdown_s3::FaultPlan;
use pushdown_tpch::tpch_context;

/// Outcome of one node-count point of the sweep.
#[derive(Debug, Clone)]
pub struct FigClusterRow {
    pub nodes: usize,
    pub report: WorkloadReport,
    /// Σ per-node interconnect bytes shipped.
    pub exchange_bytes: u64,
    /// Busiest node's virtual busy seconds — the critical path.
    pub critical_path_s: f64,
    /// Mean per-node utilization relative to the busiest node
    /// (1.0 = perfectly balanced cluster).
    pub balance: f64,
}

#[derive(Debug, Clone)]
pub struct FigClusterResult {
    pub rows: Vec<FigClusterRow>,
    pub queries: usize,
    pub seed: u64,
    pub theta: f64,
}

/// Sweep node counts over the same seeded Zipf stream. Each count runs
/// on a freshly generated (identical) dataset and a fresh cluster, so
/// ledgers and clocks start cold and rows stay independent.
pub fn run(
    scale_factor: f64,
    seed: u64,
    queries: usize,
    theta: f64,
    node_counts: &[usize],
) -> Result<FigClusterResult> {
    let stream = generate_zipf(seed, queries, theta);
    let spec = WorkloadSpec {
        seed,
        strategy: Strategy::Pushdown,
    };
    let mut rows = Vec::new();
    for &n in node_counts {
        let (ctx, tables) = tpch_context(scale_factor, 1_500)?;
        // Installed after data load: the virtual clocks charge query
        // traffic only, with zero fault probability.
        ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.0)));
        let ctx = ctx.with_nodes(n.max(1));
        let report = run_stream(&ctx, &tables, &spec, &stream);
        let exchange_bytes = report.node_stats.iter().map(|s| s.exchange_bytes).sum();
        let critical_path_s = report
            .node_stats
            .iter()
            .map(|s| s.busy_s)
            .fold(0.0f64, f64::max);
        let balance = if report.node_stats.is_empty() || critical_path_s == 0.0 {
            0.0
        } else {
            report.node_stats.iter().map(|s| s.utilization).sum::<f64>()
                / report.node_stats.len() as f64
        };
        rows.push(FigClusterRow {
            nodes: n.max(1),
            report,
            exchange_bytes,
            critical_path_s,
            balance,
        });
    }
    Ok(FigClusterResult {
        rows,
        queries,
        seed,
        theta,
    })
}
