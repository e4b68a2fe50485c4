//! **Figure "cache"** (beyond the paper; ISSUEs 5 + 9) — billed dollars
//! and bytes vs segment-cache tier budgets under a Zipf-skewed repeated
//! workload.
//!
//! The paper re-bills every repeated scan; the tiered caching layer
//! serves hot segments locally for $0 — from memory at `cache_read_bw`,
//! from simulated instance storage at the slower `disk_read_bw` — and
//! pushes down only the cold tail, priced by the same cost model as
//! everything else. This experiment drives the same seeded Zipf stream
//! of planner-suite queries against a sweep of **(mem, disk) budget
//! pairs** — from (0, 0) (disabled) up to the full dataset in either
//! tier — and reports, per point, the exact ledger bill, the per-tier
//! hit counters, and the reduction in remotely scanned bytes vs the
//! cache-disabled run: the three-way mem/disk/remote frontier. A disk
//! tier larger than RAM keeps demoted segments servable locally, so
//! remote bytes keep falling past the RAM budget — FlexPushdownDB's
//! separable-benefit result. A restart leg then warms a persistent
//! tier, drops it and recovers it from its directory.
//!
//! Everything is deterministic in the [`Size`]; [`figure`] runs both
//! legs at [`SIZE`] and holds their rows to seven gates, named by
//! number: a full-dataset mem budget saves at least half the remote
//! bytes (1); a disk tier larger than RAM behind the same constrained
//! mem budget cuts them by at least a fifth more (2); no budget bills
//! over 1.0001× the cache-off run (6); a full-dataset disk tier recovers
//! segments at a restart and its replay bills 0 remote bytes (3); a mem
//! tier in front of it adds no disk writes and loses nothing at the
//! restart (7); the undersized disk tier's manifest holds at most
//! `max(128, 8 × live entries)` records (4); and every fsync belongs to
//! a commit, a compaction or an invalidation (5).

use crate::figure::{Cell, Figure};
use crate::workload::{generate_zipf, run_stream, WorkloadReport, WorkloadSpec};
use pushdown_cache::{CacheStats, ManifestStats};
use pushdown_common::pricing::Usage;
use pushdown_common::{Error, Result, TempDir};
use pushdown_core::planner::Strategy;
use pushdown_tpch::tpch_context;

/// The workload both legs drive: TPC-H at `scale_factor`, and a stream
/// of `queries` Zipf(`theta`) draws from the planner suite, seeded.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub scale_factor: f64,
    pub queries: usize,
    pub seed: u64,
    pub theta: f64,
}

/// The size `figure` runs at.
pub const SIZE: Size = Size {
    scale_factor: 0.002,
    queries: 48,
    seed: 42,
    theta: 1.0,
};

/// The swept (mem_fraction, disk_fraction) grid: the cache-off point, a
/// mem-only sweep, then disk tiers stacked behind a RAM-constrained mem
/// budget.
const GRID: &[(f64, f64)] = &[
    (0.0, 0.0),
    (0.1, 0.0),
    (0.5, 0.0),
    (1.0, 0.0),
    (0.1, 0.5),
    (0.1, 1.0),
    (0.5, 1.0),
];

/// The restart leg's (mem, disk) points: a disk-only tier holding the
/// whole dataset (the zero-rebill gate), the same disk tier behind
/// constrained RAM, and an *undersized* disk tier whose constant
/// eviction churn exercises the manifest-compaction bound.
const RESTART_GRID: &[(f64, f64)] = &[(0.0, 1.0), (0.1, 1.0), (0.0, 0.25)];

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
    /// Total stored bytes of the dataset (the budget sweep's yardstick).
    pub dataset_bytes: u64,
}

fn remote_bytes(u: &Usage) -> u64 {
    u.select_scanned_bytes + u.plain_bytes
}

/// Sweep the `GRID`'s budget pairs (fractions of the dataset's stored
/// bytes) over the same seeded Zipf workload. Each point runs on a
/// freshly generated (identical) dataset so occupancy starts cold and
/// runs stay independent. The cache-**disabled** run comes first: every
/// row's `saved_fraction` compares against its bill, and it is the
/// `(0, 0)` row.
pub fn run(size: Size) -> Result<FigCacheResult> {
    let stream = generate_zipf(size.seed, size.queries, size.theta);
    let spec = WorkloadSpec {
        seed: size.seed,
        strategy: Strategy::Adaptive,
    };
    // The disabled baseline run.
    let (base_ctx, base_tables) = tpch_context(size.scale_factor, 1_500)?;
    let dataset_bytes = base_tables
        .all()
        .iter()
        .map(|t| t.total_bytes(&base_ctx.store))
        .sum::<u64>();
    let baseline = run_stream(&base_ctx, &base_tables, &spec, &stream);
    let baseline_remote = remote_bytes(&baseline.sum_billed);

    let mut rows: Vec<FigCacheRow> = Vec::new();
    for &(mem_fraction, disk_fraction) in GRID {
        let mem_budget = (dataset_bytes as f64 * mem_fraction) as u64;
        let disk_budget = (dataset_bytes as f64 * disk_fraction) as u64;
        // Zero budgets admit nothing, so the point *is* the disabled
        // run.
        let (report, cache) = if mem_budget == 0 && disk_budget == 0 {
            (baseline.clone(), CacheStats::default())
        } else {
            let (ctx, tables) = tpch_context(size.scale_factor, 1_500)?;
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
    /// Manifest shape after the whole leg (compaction bound evidence).
    pub manifest: Option<ManifestStats>,
    /// Cache counters of the first incarnation before its shutdown (what
    /// the shutdown appends and commits is not in them).
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
    pub dataset_bytes: u64,
}

/// The restart leg: for each `RESTART_GRID` point, warm a
/// **persistent** tiered cache with two passes of the seeded Zipf
/// stream, drop every cache handle (a clean shutdown), rebuild the
/// context from a freshly generated (byte-identical) dataset, recover
/// the cache from the same directory and replay the stream a third
/// time. Segments that were disk-resident at shutdown, or promoted to
/// mem from the disk tier, must serve the restart pass without
/// re-billing; the recovery-time catalog probe checksums every
/// recovered segment against the regenerated objects.
pub fn run_restart(size: Size) -> Result<FigRestartResult> {
    let stream = generate_zipf(size.seed, size.queries, size.theta);
    let spec = WorkloadSpec {
        seed: size.seed,
        strategy: Strategy::Adaptive,
    };
    let mut rows: Vec<FigRestartRow> = Vec::new();
    let mut dataset_bytes = 0;
    for &(mem_fraction, disk_fraction) in RESTART_GRID {
        let tmp = TempDir::new("fig-cache-restart");
        let (ctx, tables) = tpch_context(size.scale_factor, 1_500)?;
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
        let (ctx, tables) = tpch_context(size.scale_factor, 1_500)?;
        let ctx = ctx
            .with_cache_tiers(mem_budget, disk_budget)
            .with_cache_dir(tmp.path())?;
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
            manifest: cache.manifest_stats(),
            warm_cache,
            restart_cache: cache.stats(),
        });
    }
    Ok(FigRestartResult {
        rows,
        dataset_bytes,
    })
}

fn row(what: &str) -> Error {
    Error::Other(format!("fig-cache: no {what} row in the grid"))
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig-cache",
        "Fig cache — billed $ and bytes vs (mem, disk) tier budgets under a Zipf stream, \
         and the persistent tier across a restart",
    )
}

/// The figure's seven gates, on the rows of one run of both legs: the
/// first that fails is the `Err`, named.
fn check_gates(fig: &Figure, sweep: &FigCacheResult, restart: &FigRestartResult) -> Result<()> {
    check_sweep_gates(fig, sweep)?;
    check_restart_gates(fig, restart)
}

/// Gates 1, 2 and 6, on the budget sweep.
fn check_sweep_gates(fig: &Figure, sweep: &FigCacheResult) -> Result<()> {
    // Gate 1: a full-dataset mem budget serves the whole repeated
    // stream locally after the cold fills.
    let full_mem = sweep
        .rows
        .iter()
        .find(|r| r.mem_budget >= sweep.dataset_bytes && r.disk_budget == 0)
        .ok_or_else(|| row("full mem-budget"))?;
    fig.gate("1", full_mem.saved_fraction >= 0.5, || {
        format!(
            "a full-dataset mem budget saves {:.3} of remote bytes, under 0.5",
            full_mem.saved_fraction
        )
    })?;

    // Gate 2: stacking a disk tier larger than RAM behind the same
    // constrained mem budget keeps cutting remote bytes — demoted
    // segments stay servable locally instead of re-billing.
    let mem_only = sweep
        .rows
        .iter()
        .find(|r| r.mem_budget > 0 && r.mem_budget < sweep.dataset_bytes && r.disk_budget == 0)
        .ok_or_else(|| row("constrained mem-only"))?;
    let with_disk = sweep
        .rows
        .iter()
        .filter(|r| r.mem_budget == mem_only.mem_budget && r.disk_budget > r.mem_budget)
        .max_by_key(|r| r.disk_budget)
        .ok_or_else(|| row("disk > mem at the same mem budget"))?;
    let drop = 1.0 - with_disk.remote_bytes as f64 / mem_only.remote_bytes.max(1) as f64;
    fig.gate("2", drop >= 0.2, || {
        format!(
            "a disk tier larger than RAM cuts remote bytes {drop:.3} vs mem-only at the \
             same mem budget, under 0.2"
        )
    })?;

    // Gate 6: a cache never costs money. Rent-or-buy fills a table only
    // once what reading it remotely has cost covers the fill, so no
    // budget bills more than the cache-off run (to a hundredth of a
    // percent).
    let off = sweep
        .rows
        .iter()
        .find(|r| r.mem_budget == 0 && r.disk_budget == 0)
        .ok_or_else(|| row("cache-off"))?;
    for r in &sweep.rows {
        let ratio = r.report.total_dollars / off.report.total_dollars;
        fig.gate("6", ratio <= 1.0001, || {
            format!(
                "(mem {}, disk {}) bills ${:.9}, {:+.3}% over the cache-off ${:.9}",
                r.mem_budget,
                r.disk_budget,
                r.report.total_dollars,
                (ratio - 1.0) * 100.0,
                off.report.total_dollars,
            )
        })?;
    }
    Ok(())
}

/// Gates 3, 7, 4 and 5, on the restart leg.
fn check_restart_gates(fig: &Figure, restart: &FigRestartResult) -> Result<()> {
    // Gate 3: restart economics. With a disk tier holding the whole
    // dataset, everything disk-resident at shutdown is recovered and
    // serves the post-restart replay like the pre-restart warm pass —
    // no remote re-billing of persisted bytes.
    let full_disk = restart
        .rows
        .iter()
        .find(|r| r.mem_budget == 0 && r.disk_budget >= restart.dataset_bytes)
        .ok_or_else(|| row("full disk-budget restart"))?;
    fig.gate("3", full_disk.recovered_segments != 0, || {
        "the restart recovered no persisted segment".into()
    })?;
    fig.gate(
        "3",
        full_disk.restart_remote == full_disk.warm_remote && full_disk.restart_remote == 0,
        || {
            format!(
                "segments disk-resident at shutdown must bill 0 remote bytes after recovery \
                 (warm {} B, restart {} B)",
                full_disk.warm_remote, full_disk.restart_remote
            )
        },
    )?;

    // Gate 7: a mem tier in front of the full-dataset disk tier writes
    // nothing more to it while the stream runs and loses nothing at a
    // restart. A segment promoted to mem keeps its log copy, so demoting
    // it again appends nothing; a mem fill never demoted has none until
    // the clean shutdown appends it (`SegmentCache::persist_mem`, after
    // `warm_cache` was read). A restart recovers every segment with a
    // log copy, so the replay re-bills nothing — at `SIZE`, where every
    // segment in mem at shutdown had been demoted before, and after a
    // 16-query stream, where one had not.
    let fronted = restart
        .rows
        .iter()
        .find(|r| r.mem_budget > 0 && r.disk_budget >= restart.dataset_bytes)
        .ok_or_else(|| row("mem-fronted full disk-budget restart"))?;
    let persisted = |r: &FigRestartRow| r.persisted(|c| c.persisted_bytes);
    fig.gate(
        "7",
        fronted.restart_remote == 0 && persisted(fronted) <= persisted(full_disk),
        || {
            format!(
                "a mem tier in front must add no disk writes and, since a clean shutdown \
                 logs every segment in mem, lose nothing at a restart (restart remote {} B, \
                 persisted {} B vs the disk-only row's {} B)",
                fronted.restart_remote,
                persisted(fronted),
                persisted(full_disk)
            )
        },
    )?;

    // Gate 4: the manifest stays compact under eviction churn — dead
    // Put/Del records are garbage-collected once they outnumber live
    // state, so the undersized-disk point's manifest is bounded by its
    // live residency, not by workload length.
    let churn = restart
        .rows
        .iter()
        .find(|r| r.mem_budget == 0 && r.disk_budget < restart.dataset_bytes)
        .ok_or_else(|| row("undersized-disk restart"))?;
    let m = churn.manifest.unwrap_or_default();
    fig.gate("4", m.records <= 128.max(8 * m.live_puts), || {
        format!(
            "manifest compaction bound violated: {} records for {} live entries",
            m.records, m.live_puts
        )
    })?;

    // Gate 5: group commit. Every fsync of either incarnation belongs
    // to a commit, a compaction or an invalidation, each at most two
    // barriers — however many segments the stream persisted.
    for r in &restart.rows {
        fig.gate("5", r.fsyncs_within_commit_bound(), || {
            format!(
                "(mem {}, disk {}): {} fsyncs for {} commits + {} compactions",
                r.mem_budget,
                r.disk_budget,
                r.persisted(|c| c.fsyncs),
                r.persisted(|c| c.commits),
                r.persisted(|c| c.compactions),
            )
        })?;
    }
    Ok(())
}

/// The cache figure at [`SIZE`]: the dataset, one row per `GRID` point
/// and one per `RESTART_GRID` point — or the first of the seven
/// gates those rows fail.
pub fn figure() -> Result<Figure> {
    let sweep = run(SIZE)?;
    let restart = run_restart(SIZE)?;
    let mut fig = new_figure();
    check_gates(&fig, &sweep, &restart)?;
    fig.row(
        "dataset",
        vec![
            ("bytes", Cell::Count(sweep.dataset_bytes)),
            ("queries", Cell::Count(SIZE.queries as u64)),
            ("seed", Cell::Count(SIZE.seed)),
            ("theta", Cell::Ratio(SIZE.theta)),
        ],
    );
    for (&(mem, disk), r) in GRID.iter().zip(&sweep.rows) {
        fig.row(
            format!("sweep mem={mem} disk={disk}"),
            vec![
                ("mem-budget", Cell::Count(r.mem_budget)),
                ("disk-budget", Cell::Count(r.disk_budget)),
                ("billed", Cell::Dollars(r.report.total_dollars)),
                ("remote-bytes", Cell::Count(r.remote_bytes)),
                ("saved", Cell::Ratio(r.saved_fraction)),
                ("mem-hit-bytes", Cell::Count(r.mem_hit_bytes())),
                ("disk-hit-bytes", Cell::Count(r.cache.disk_hit_bytes)),
                ("fill-bytes", Cell::Count(r.cache.fill_bytes)),
                ("mem-hit", Cell::Ratio(r.mem_hit_ratio())),
                ("disk-hit", Cell::Ratio(r.disk_hit_ratio())),
                ("makespan", Cell::Secs(r.report.virtual_makespan_s)),
                ("failed", Cell::Count(r.report.failed as u64)),
            ],
        );
    }
    for (&(mem, disk), r) in RESTART_GRID.iter().zip(&restart.rows) {
        let m = r.manifest.unwrap_or_default();
        fig.row(
            format!("restart mem={mem} disk={disk}"),
            vec![
                ("mem-budget", Cell::Count(r.mem_budget)),
                ("disk-budget", Cell::Count(r.disk_budget)),
                ("warm", Cell::Dollars(r.warm.total_dollars)),
                ("restart", Cell::Dollars(r.restart.total_dollars)),
                ("warm-remote-bytes", Cell::Count(r.warm_remote)),
                ("restart-remote-bytes", Cell::Count(r.restart_remote)),
                ("recovered-segments", Cell::Count(r.recovered_segments)),
                ("recovered-bytes", Cell::Count(r.recovered_bytes)),
                ("restart-disk-hit", Cell::Ratio(r.restart_disk_hit_ratio())),
                ("manifest-records", Cell::Count(m.records)),
                ("manifest-live-puts", Cell::Count(m.live_puts)),
                ("manifest-bytes", Cell::Count(m.manifest_bytes)),
                ("fsyncs", Cell::Count(r.persisted(|c| c.fsyncs))),
                ("commits", Cell::Count(r.persisted(|c| c.commits))),
                ("compactions", Cell::Count(r.persisted(|c| c.compactions))),
                (
                    "persisted-bytes",
                    Cell::Count(r.persisted(|c| c.persisted_bytes)),
                ),
            ],
        );
    }
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 16-query stream leaves a segment in mem that was never demoted;
    /// the clean shutdown logs it, so the restart leg holds its gates —
    /// Gate 7's "loses nothing" among them — off the pinned size too.
    #[test]
    fn a_clean_shutdown_keeps_the_mem_tier() {
        let restart = run_restart(Size {
            queries: 16,
            ..SIZE
        })
        .unwrap();
        check_restart_gates(&new_figure(), &restart).unwrap();
    }
}
