//! **Figure "queueing"** (beyond the paper; ISSUE 8) — virtual-time SLO
//! latency and shedding vs offered load under open-loop arrivals.
//!
//! The closed-loop driver self-regulates to engine capacity and can
//! never show overload. Here a seeded Poisson process offers load at a
//! λ knob swept from well below to well past saturation (ρ = λ/μc from
//! [`RHOS`]), through a bounded admission queue with three tenants —
//! `gold` and `silver` with unlimited budgets and `bronze` on a tight
//! dollar budget calibrated to a few queries — into `servers` virtual
//! workers. Each load point reports p50/p99 **queue wait + service**
//! latency, shed counts by reason, per-tenant spend, and the segment
//! cache's reuse-distance admission counters.
//!
//! Capacity is self-calibrated: the same Zipf stream first runs
//! closed-loop serial on an identically configured (cold-cache)
//! context, giving the mean virtual service time s̄; capacity is
//! μc = servers / s̄ and each sweep point offers λ = ρ·μc.
//!
//! Deterministic in (scale factor, seed, servers): the driver asserts
//! tenant = Σ queries and global = Σ tenants conservation at every
//! point, and the experiment re-runs one saturated point on a fresh
//! context to prove bit-identical digests.

use crate::admission::{run_open_loop, AdmissionController, OpenLoopReport, TenantSpec};
use crate::arrivals::{poisson_arrivals, OpenLoopSpec};
use crate::workload::{generate_zipf, run_stream, WorkloadSpec};
use pushdown_cache::{CacheAdmission, CacheConfig, CacheStats};
use pushdown_common::Result;
use pushdown_core::planner::Strategy;
use pushdown_core::QueryContext;
use pushdown_tpch::{tpch_context, TpchTables};

/// Offered-load multiples of calibrated capacity: three points below
/// the knee, three past it.
pub const RHOS: &[f64] = &[0.3, 0.6, 0.9, 1.2, 1.6, 2.4];

/// Admission-queue bound (waiting jobs, not in service).
pub const QUEUE_BOUND: usize = 8;

/// Segment-cache budget as a fraction of the dataset, with
/// reuse-distance admission (window [`REUSE_WINDOW`]).
pub const CACHE_FRACTION: f64 = 0.3;
pub const REUSE_WINDOW: u64 = 64;

/// Zipf skew of the query mix.
pub const THETA: f64 = 1.0;

/// One offered-load point of the sweep.
#[derive(Debug, Clone)]
pub struct FigQueueingRow {
    /// Offered load relative to calibrated capacity (λ/μc).
    pub rho: f64,
    /// Offered arrival rate, queries per virtual second.
    pub lambda_qps: f64,
    pub report: OpenLoopReport,
    /// Deterministic digest of the run ([`OpenLoopReport::digest`]).
    pub digest: u64,
    /// Segment-cache counters at the end of the run.
    pub cache: CacheStats,
}

#[derive(Debug, Clone)]
pub struct FigQueueingResult {
    pub rows: Vec<FigQueueingRow>,
    /// Calibrated mean virtual service time (closed-loop serial).
    pub mean_service_s: f64,
    /// Calibrated capacity `servers / mean_service_s`, in qps.
    pub capacity_qps: f64,
    /// Mean per-query bill from the calibration run.
    pub mean_query_dollars: f64,
    /// The bronze tenant's budget (a few queries' worth).
    pub bronze_budget_dollars: f64,
    pub servers: usize,
    pub seed: u64,
    pub queries: usize,
    /// ρ of the saturated point re-run for the determinism check.
    pub rerun_rho: f64,
    /// Whether the re-run's digest matched bit-for-bit.
    pub rerun_digest_matches: bool,
}

/// A fresh context with the experiment's cache configuration: budget a
/// fixed fraction of the dataset, reuse-distance admission.
fn fresh_context(scale_factor: f64) -> Result<(QueryContext, TpchTables)> {
    let (ctx, tables) = tpch_context(scale_factor, 1_500)?;
    let dataset_bytes = tables
        .all()
        .iter()
        .map(|t| t.total_bytes(&ctx.store))
        .sum::<u64>();
    let budget = (dataset_bytes as f64 * CACHE_FRACTION) as u64;
    let ctx = ctx.with_cache_config(CacheConfig {
        mem_bytes: budget,
        admission: CacheAdmission::ReuseDistance {
            window: REUSE_WINDOW,
        },
        ..CacheConfig::default()
    })?;
    Ok((ctx, tables))
}

fn tenant_specs(bronze_budget: f64) -> [TenantSpec; 3] {
    [
        TenantSpec {
            name: "gold",
            budget_dollars: f64::INFINITY,
        },
        TenantSpec {
            name: "silver",
            budget_dollars: f64::INFINITY,
        },
        TenantSpec {
            name: "bronze",
            budget_dollars: bronze_budget,
        },
    ]
}

fn run_point(
    scale_factor: f64,
    seed: u64,
    queries: usize,
    servers: usize,
    bronze_budget: f64,
    lambda_qps: f64,
) -> Result<(OpenLoopReport, CacheStats)> {
    let arrivals = poisson_arrivals(&OpenLoopSpec {
        seed,
        queries,
        lambda_qps,
        tenants: 3,
        theta: THETA,
    });
    let (ctx, tables) = fresh_context(scale_factor)?;
    let adm = AdmissionController::new(
        ctx.store.global_ledger(),
        &ctx,
        &tenant_specs(bronze_budget),
        QUEUE_BOUND,
    );
    let report = run_open_loop(
        &ctx,
        &tables,
        Strategy::Adaptive,
        &arrivals,
        &adm,
        servers,
        seed,
    );
    let cache = ctx.cache().map(|c| c.stats()).unwrap_or_default();
    Ok((report, cache))
}

/// Sweep offered load over [`RHOS`]. Every point runs the same seeded
/// Zipf query mix on a freshly generated (identical) dataset, so runs
/// stay independent and cold-cache comparable.
pub fn run(
    scale_factor: f64,
    seed: u64,
    queries: usize,
    servers: usize,
) -> Result<FigQueueingResult> {
    // Calibration: closed-loop serial over the identical stream and
    // cache configuration.
    let stream = generate_zipf(seed, queries, THETA);
    let (cal_ctx, cal_tables) = fresh_context(scale_factor)?;
    let spec = WorkloadSpec {
        seed,
        queries,
        concurrency: 1,
        strategy: Strategy::Adaptive,
    };
    let cal = run_stream(&cal_ctx, &cal_tables, &spec, &stream)?;
    let mean_service_s = cal.virtual_busy_s / queries.max(1) as f64;
    let mean_query_dollars = cal.total_dollars / queries.max(1) as f64;
    let capacity_qps = servers as f64 / mean_service_s.max(1e-12);
    let bronze_budget_dollars = 3.0 * mean_query_dollars;

    let mut rows = Vec::with_capacity(RHOS.len());
    for &rho in RHOS {
        let lambda_qps = rho * capacity_qps;
        let (report, cache) = run_point(
            scale_factor,
            seed,
            queries,
            servers,
            bronze_budget_dollars,
            lambda_qps,
        )?;
        rows.push(FigQueueingRow {
            rho,
            lambda_qps,
            digest: report.digest(),
            report,
            cache,
        });
    }

    // Determinism: re-run the deepest saturated point on a fresh
    // context; the digest must match bit-for-bit.
    let last = rows.last().expect("RHOS is non-empty");
    let rerun_rho = last.rho;
    let (rerun, _) = run_point(
        scale_factor,
        seed,
        queries,
        servers,
        bronze_budget_dollars,
        last.lambda_qps,
    )?;
    let rerun_digest_matches = rerun.digest() == last.digest;

    Ok(FigQueueingResult {
        rows,
        mean_service_s,
        capacity_qps,
        mean_query_dollars,
        bronze_budget_dollars,
        servers,
        seed,
        queries,
        rerun_rho,
        rerun_digest_matches,
    })
}
