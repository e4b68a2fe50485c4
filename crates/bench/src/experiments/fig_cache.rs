//! **Figure "cache"** (beyond the paper; ISSUEs 5 + 9) — billed dollars
//! and bytes vs segment-cache tier budgets under a Zipf-skewed repeated
//! workload.
//!
//! The paper re-bills every repeated scan; the tiered caching layer
//! serves hot segments locally for $0 — from memory at `cache_read_bw`,
//! from simulated instance storage at the slower `disk_read_bw` — and
//! pushes down only the cold tail, priced by the same cost model as
//! everything else. This experiment drives the same seeded Zipf
//! (θ configurable, 1.0 by default) stream of planner-suite queries
//! against a sweep of **(mem, disk) budget pairs** — from (0, 0)
//! (disabled) up to the full dataset in either tier — and reports, per
//! point, the exact ledger bill, the per-tier hit counters, and the
//! reduction in remotely scanned bytes vs the cache-disabled run: the
//! three-way mem/disk/remote frontier. A disk tier larger than RAM
//! keeps demoted segments servable locally, so remote bytes keep
//! falling past the RAM budget — FlexPushdownDB's separable-benefit
//! result.
//!
//! Everything except wall time is deterministic in (scale factor, seed).

use crate::workload::{generate_zipf, run_stream, WorkloadReport, WorkloadSpec};
use pushdown_cache::{CacheStats, ManifestStats};
use pushdown_common::pricing::Usage;
use pushdown_common::{Result, TempDir};
use pushdown_core::planner::Strategy;
use pushdown_tpch::tpch_context;

/// Outcome of one (mem, disk) budget point of the sweep.
#[derive(Debug, Clone)]
pub struct FigCacheRow {
    /// Mem-tier budget in bytes (0 + 0 disk = cache disabled).
    pub mem_budget: u64,
    /// Disk-tier budget in bytes.
    pub disk_budget: u64,
    pub report: WorkloadReport,
    /// Remote bytes billed: Select-scanned + plain-transferred.
    pub remote_bytes: u64,
    /// Fraction of the disabled run's remote bytes this point avoided.
    pub saved_fraction: f64,
    /// Cache counters at the end of the run (zeroed when disabled).
    pub cache: CacheStats,
}

impl FigCacheRow {
    /// Bytes served from the mem tier (`hit_bytes` counts both tiers).
    pub fn mem_hit_bytes(&self) -> u64 {
        self.cache.hit_bytes - self.cache.disk_hit_bytes
    }

    /// Fraction of all locally-served + filled bytes that came from the
    /// given tier's residency (0 when the cache saw no traffic).
    fn tier_ratio(&self, tier_bytes: u64) -> f64 {
        let total = self.cache.hit_bytes + self.cache.fill_bytes;
        if total == 0 {
            0.0
        } else {
            tier_bytes as f64 / total as f64
        }
    }

    /// Mem-tier hit ratio by bytes.
    pub fn mem_hit_ratio(&self) -> f64 {
        self.tier_ratio(self.mem_hit_bytes())
    }

    /// Disk-tier hit ratio by bytes.
    pub fn disk_hit_ratio(&self) -> f64 {
        self.tier_ratio(self.cache.disk_hit_bytes)
    }
}

#[derive(Debug, Clone)]
pub struct FigCacheResult {
    pub rows: Vec<FigCacheRow>,
    pub queries: usize,
    pub seed: u64,
    pub theta: f64,
    /// Total stored bytes of the dataset (the budget sweep's yardstick).
    pub dataset_bytes: u64,
}

fn remote_bytes(u: &Usage) -> u64 {
    u.select_scanned_bytes + u.plain_bytes
}

/// Sweep `(mem_fraction, disk_fraction)` budget pairs (fractions of the
/// dataset's stored bytes) over the same seeded Zipf workload. Each
/// point runs on a freshly generated (identical) dataset so occupancy
/// starts cold and runs stay independent. The cache-**disabled**
/// reference always runs (regardless of what `points` contains), so
/// every row's `saved_fraction` compares against the true disabled
/// bill; a `(0.0, 0.0)` entry in the sweep reuses that reference
/// instead of running twice.
pub fn run(
    scale_factor: f64,
    seed: u64,
    queries: usize,
    theta: f64,
    points: &[(f64, f64)],
) -> Result<FigCacheResult> {
    let stream = generate_zipf(seed, queries, theta);
    let spec = WorkloadSpec {
        seed,
        strategy: Strategy::Adaptive,
    };
    // The disabled baseline run.
    let (base_ctx, base_tables) = tpch_context(scale_factor, 1_500)?;
    let dataset_bytes = base_tables
        .all()
        .iter()
        .map(|t| t.total_bytes(&base_ctx.store))
        .sum::<u64>();
    let baseline = run_stream(&base_ctx, &base_tables, &spec, &stream);
    let baseline_remote = remote_bytes(&baseline.sum_billed);
    let mut baseline = Some(baseline);

    let mut rows: Vec<FigCacheRow> = Vec::new();
    for &(mem_fraction, disk_fraction) in points {
        let mem_budget = (dataset_bytes as f64 * mem_fraction) as u64;
        let disk_budget = (dataset_bytes as f64 * disk_fraction) as u64;
        // Zero budgets admit nothing, so the point *is* the disabled
        // run — serve it from the reference instead of re-running.
        let (report, cache) = if mem_budget == 0 && disk_budget == 0 {
            match baseline.take() {
                Some(r) => (r, CacheStats::default()),
                None => {
                    let (ctx, tables) = tpch_context(scale_factor, 1_500)?;
                    (
                        run_stream(&ctx, &tables, &spec, &stream),
                        CacheStats::default(),
                    )
                }
            }
        } else {
            let (ctx, tables) = tpch_context(scale_factor, 1_500)?;
            let ctx = ctx.with_cache_tiers(mem_budget, disk_budget);
            let report = run_stream(&ctx, &tables, &spec, &stream);
            let cache = ctx.cache().map(|c| c.stats()).unwrap_or_default();
            (report, cache)
        };
        let remote = remote_bytes(&report.sum_billed);
        let saved_fraction = if baseline_remote > 0 {
            1.0 - remote as f64 / baseline_remote as f64
        } else {
            0.0
        };
        rows.push(FigCacheRow {
            mem_budget,
            disk_budget,
            report,
            remote_bytes: remote,
            saved_fraction,
            cache,
        });
    }
    Ok(FigCacheResult {
        rows,
        queries,
        seed,
        theta,
        dataset_bytes,
    })
}

/// Outcome of one (mem, disk) point of the **restart leg** (ISSUE 10):
/// warm a persistent cache, drop it, recover from the directory in a
/// fresh process-equivalent context, and re-run the same stream.
#[derive(Debug, Clone)]
pub struct FigRestartRow {
    pub mem_budget: u64,
    pub disk_budget: u64,
    /// The warm (second) pass before the restart.
    pub warm: WorkloadReport,
    /// The same stream replayed after recovery.
    pub restart: WorkloadReport,
    /// Remote bytes billed by the pre-restart warm pass.
    pub warm_remote: u64,
    /// Remote bytes billed by the post-recovery pass.
    pub restart_remote: u64,
    /// Segments / bytes the manifest replay brought back disk-resident.
    pub recovered_segments: u64,
    pub recovered_bytes: u64,
    /// Wall-clock seconds spent recovering (replay + checksum verify) —
    /// the only non-deterministic number in the row.
    pub recovery_wall_s: f64,
    /// Manifest shape after the whole leg (compaction bound evidence).
    pub manifest: Option<ManifestStats>,
    /// Cache counters of the first incarnation at shutdown (its final
    /// drop-commit, at most two more barriers, is not in them).
    pub warm_cache: CacheStats,
    /// Cache counters at the end of the post-recovery pass.
    pub restart_cache: CacheStats,
}

impl FigRestartRow {
    /// Disk-tier hit ratio (by bytes) of the post-recovery pass.
    pub fn restart_disk_hit_ratio(&self) -> f64 {
        let total = self.restart_cache.hit_bytes + self.restart_cache.fill_bytes;
        if total == 0 {
            0.0
        } else {
            self.restart_cache.disk_hit_bytes as f64 / total as f64
        }
    }

    /// A durability counter summed over both incarnations of the leg.
    pub fn persisted(&self, counter: fn(&CacheStats) -> u64) -> u64 {
        counter(&self.warm_cache) + counter(&self.restart_cache)
    }

    /// The group-commit bound: every barrier belongs to a commit, a
    /// compaction or an invalidation, each worth at most two.
    pub fn fsyncs_within_commit_bound(&self) -> bool {
        let events = |c: &CacheStats| c.commits + c.compactions + c.invalidations;
        self.persisted(|c| c.fsyncs) <= 2 * self.persisted(events)
    }
}

#[derive(Debug, Clone)]
pub struct FigRestartResult {
    pub rows: Vec<FigRestartRow>,
    pub queries: usize,
    pub seed: u64,
    pub theta: f64,
    pub dataset_bytes: u64,
}

/// The restart leg: for each `(mem_fraction, disk_fraction)` point,
/// warm a **persistent** tiered cache with two passes of the seeded
/// Zipf stream, drop every cache handle (a clean shutdown), rebuild the
/// context from a freshly generated (byte-identical) dataset, recover
/// the cache from the same directory — timed — and replay the stream a
/// third time. Segments that were disk-resident at shutdown, or promoted
/// to mem from the disk tier, must serve the restart pass without
/// re-billing; the recovery-time catalog probe
/// checksums every recovered segment against the regenerated objects.
pub fn run_restart(
    scale_factor: f64,
    seed: u64,
    queries: usize,
    theta: f64,
    points: &[(f64, f64)],
) -> Result<FigRestartResult> {
    let stream = generate_zipf(seed, queries, theta);
    let spec = WorkloadSpec {
        seed,
        strategy: Strategy::Adaptive,
    };
    let mut rows: Vec<FigRestartRow> = Vec::new();
    let mut dataset_bytes = 0;
    for &(mem_fraction, disk_fraction) in points {
        let tmp = TempDir::new("fig-cache-restart");
        let (ctx, tables) = tpch_context(scale_factor, 1_500)?;
        dataset_bytes = tables
            .all()
            .iter()
            .map(|t| t.total_bytes(&ctx.store))
            .sum::<u64>();
        let mem_budget = (dataset_bytes as f64 * mem_fraction) as u64;
        let disk_budget = (dataset_bytes as f64 * disk_fraction) as u64;
        let ctx = ctx
            .with_cache_tiers(mem_budget, disk_budget)
            .with_cache_dir(tmp.path())?;
        run_stream(&ctx, &tables, &spec, &stream); // cold fills
        let warm = run_stream(&ctx, &tables, &spec, &stream);
        let warm_remote = remote_bytes(&warm.sum_billed);
        let warm_cache = ctx.cache().map(|c| c.stats()).unwrap_or_default();
        // Clean shutdown: every handle to the cache goes away; only the
        // directory survives.
        ctx.store.set_cache(None);
        drop(ctx);

        // "Process restart": a fresh context over a freshly generated —
        // deterministically identical — dataset recovers the tier.
        let (ctx, tables) = tpch_context(scale_factor, 1_500)?;
        let t0 = std::time::Instant::now();
        let ctx = ctx
            .with_cache_tiers(mem_budget, disk_budget)
            .with_cache_dir(tmp.path())?;
        let recovery_wall_s = t0.elapsed().as_secs_f64();
        let cache = ctx.cache().expect("persistent cache just installed");
        let recovered = cache.stats();
        let restart = run_stream(&ctx, &tables, &spec, &stream);
        let restart_remote = remote_bytes(&restart.sum_billed);
        rows.push(FigRestartRow {
            mem_budget,
            disk_budget,
            warm,
            restart,
            warm_remote,
            restart_remote,
            recovered_segments: recovered.recovered_segments,
            recovered_bytes: recovered.recovered_bytes,
            recovery_wall_s,
            manifest: cache.manifest_stats(),
            warm_cache,
            restart_cache: cache.stats(),
        });
    }
    Ok(FigRestartResult {
        rows,
        queries,
        seed,
        theta,
        dataset_bytes,
    })
}
