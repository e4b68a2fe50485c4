//! Hybrid caching-tier suite (ISSUE 5; tiered + chunked in ISSUE 9).
//!
//! * **Differential** — `cached ≡ uncached`: every planner-suite query
//!   (joins included) returns identical rows with the cache cold, warm,
//!   forced, or absent; a proptest interleaves `put_object` /
//!   `delete_object` invalidation between runs and checks the cache
//!   never serves stale bytes.
//! * **Ledger conservation** — global = Σ child ledgers at 8 threads
//!   sharing one `SegmentCache`; a hit never bills a byte, and a fill
//!   never bills its bytes twice across retries.
//! * **Acceptance** — on a Zipf(θ=1.0) repeated workload whose hot set
//!   fits the budget, remotely scanned billed bytes drop ≥ 50% vs
//!   cache-disabled; the cache-aware adaptive plan's measured $ stays
//!   ≤ 1.1× min(cached-local, pushdown, remote-full) per suite query;
//!   and predicted Usage for chosen cached plans stays within the 15%
//!   calibration bound; a forced (`with_cache_reads`) Baseline plan is
//!   priced exactly as the cache reads it runs.
//! * **Tiered partial hits** (ISSUE 9) — a partially resident object
//!   bills exactly its coalesced gap bytes (never a full reload), from
//!   either tier; tier movement (demote / promote / gap fill) keeps
//!   `metrics.usage() == billed` exact; a disk tier keeps demoted
//!   segments servable; per-node cluster slices split both tier
//!   budgets and stay byte-equal to the serial bill on cold passes; a
//!   proptest pins `served-locally + billed == bytes scanned` across
//!   random tier budgets, chunk sizes, mutations and chaos seeds.
//! * **Determinism** — a cached scan's effects on the cache apply in
//!   partition order at its end, and a pipelined join's once both sides
//!   are in, build side first: an Adaptive Zipf stream over a thrashing,
//!   file-backed two-tier cache yields the same phases, bills, cache
//!   counters and residency at 1, 2 and 8 scan threads, and a forced
//!   `cached` join's probe side reads the cache as it was when the join
//!   started.

use proptest::prelude::*;
use pushdown_bench::workload::{generate_zipf, run_stream, WorkloadSpec};
use pushdowndb::cache::CacheStats;
use pushdowndb::common::perf::PhaseStats;
use pushdowndb::common::pricing::Usage;
use pushdowndb::common::{DataType, Row, Schema, TempDir, Value};
use pushdowndb::core::cost::{predict_plan, Estimators};
use pushdowndb::core::planner::{execute_sql_verbose, lower, run_candidate, Explain, PlanKind};
use pushdowndb::core::scan::cached_scan_streamed;
use pushdowndb::core::{
    execute_sql, upload_csv_table, OpReport, QueryContext, QueryMetrics, QueryOutput, Strategy,
};
use pushdowndb::sql::parse_query;
use pushdowndb::tpch::{planner_suite, tpch_context, TpchTables};

fn assert_rows_close(a: &[Row], b: &[Row], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    for (x, y) in a.iter().zip(b) {
        for (vx, vy) in x.values().iter().zip(y.values()) {
            match (vx, vy) {
                (Value::Float(fx), Value::Float(fy)) => assert!(
                    (fx - fy).abs() <= 1e-6 * (1.0 + fx.abs().max(fy.abs())),
                    "{what}: {fx} vs {fy}"
                ),
                _ => assert_eq!(vx, vy, "{what}"),
            }
        }
    }
}

fn dataset_bytes(ctx: &QueryContext, t: &TpchTables) -> u64 {
    t.all().iter().map(|t| t.total_bytes(&ctx.store)).sum()
}

/// Differential: the full planner suite (single-table families + joined
/// plans) returns identical rows with the cache absent, cold, warm, and
/// under the forced cached-local strategy.
#[test]
fn cached_equals_uncached_on_the_full_suite() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let reference: Vec<QueryOutput> = planner_suite()
        .iter()
        .map(|q| execute_sql(&ctx, (q.table)(&t), q.sql, Strategy::Adaptive).unwrap())
        .collect();
    let ctx = ctx.with_cache(64 << 20);
    let forced = ctx.clone().with_cache_reads(true);
    for (qi, q) in planner_suite().iter().enumerate() {
        let table = (q.table)(&t);
        // Cold (fills), then warm (hits), then forced cached-local.
        for pass in ["cold", "warm"] {
            let out = execute_sql(&ctx, table, q.sql, Strategy::Adaptive).unwrap();
            assert_rows_close(
                &reference[qi].rows,
                &out.rows,
                &format!("{} ({pass})", q.name),
            );
        }
        let out = execute_sql(&forced, table, q.sql, Strategy::Baseline).unwrap();
        assert_rows_close(
            &reference[qi].rows,
            &out.rows,
            &format!("{} (forced cached)", q.name),
        );
        // The fixed remote strategies stay pure even with a cache
        // installed: Baseline bills actual remote bytes.
        let base = execute_sql(&ctx, table, q.sql, Strategy::Baseline).unwrap();
        assert_rows_close(&reference[qi].rows, &base.rows, q.name);
    }
    let stats = ctx.cache().unwrap().stats();
    assert!(stats.fills > 0, "the suite must fill the cache");
    assert!(stats.hits > 0, "warm passes must hit");
}

/// Ledger conservation with the cache enabled: 8 threads × the planner
/// suite over one shared `SegmentCache`; global ledger delta equals the
/// sum of the per-query child ledgers, metrics equal ledgers per query,
/// and the billed bytes never exceed the uncached bill (hits are free).
#[test]
fn ledger_conservation_at_8_threads_sharing_one_cache() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    // Uncached reference bill, per query.
    let uncached: Vec<Usage> = planner_suite()
        .iter()
        .map(|q| {
            execute_sql(&ctx, (q.table)(&t), q.sql, Strategy::Adaptive)
                .unwrap()
                .billed
        })
        .collect();
    let ctx = ctx.with_cache(64 << 20);
    let suite = planner_suite();
    for round in 0..2 {
        let before = ctx.store.global_ledger().snapshot();
        let outputs: Vec<QueryOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let ctx = &ctx;
                    let t = &t;
                    let q = &suite[i % suite.len()];
                    scope.spawn(move || {
                        execute_sql(&ctx.scoped(), (q.table)(t), q.sql, Strategy::Adaptive).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let after = ctx.store.global_ledger().snapshot();
        let mut sum = Usage::default();
        for (i, out) in outputs.iter().enumerate() {
            sum += out.billed;
            assert_eq!(
                out.metrics.usage(),
                out.billed,
                "round {round} query {i}: metrics must equal the child ledger"
            );
            let reference = &uncached[i % suite.len()];
            assert!(
                out.billed.select_scanned_bytes + out.billed.plain_bytes
                    <= reference.select_scanned_bytes + reference.plain_bytes,
                "round {round} query {i}: a hit never bills bytes"
            );
        }
        assert_eq!(
            after,
            before + sum,
            "round {round}: global = Σ child ledgers with a shared cache"
        );
    }
    // Round 2 ran fully warm: billed bytes must have dropped.
    let s = ctx.cache().unwrap().stats();
    assert!(s.hits > 0, "{s:?}");
}

/// Acceptance: Zipf(θ=1.0) repeated workload, budget ≥ the hot set ⇒
/// total billed remotely-scanned bytes drop ≥ 50% vs cache-disabled.
#[test]
fn zipf_hot_set_cuts_billed_bytes_by_half() {
    let spec = WorkloadSpec {
        seed: 42,
        strategy: Strategy::Adaptive,
    };
    let stream = generate_zipf(spec.seed, 48, 1.0);
    let remote = |u: &Usage| u.select_scanned_bytes + u.plain_bytes;

    let (ctx_off, t_off) = tpch_context(0.002, 1_000).unwrap();
    let disabled = run_stream(&ctx_off, &t_off, &spec, &stream);
    assert_eq!(disabled.failed, 0);

    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let budget = dataset_bytes(&ctx, &t); // hot set trivially fits
    let ctx = ctx.with_cache(budget);
    let cached = run_stream(&ctx, &t, &spec, &stream);
    assert_eq!(cached.failed, 0);

    // Same answers, query for query. (Row *counts* here, not digests:
    // a float SUM accumulated locally vs merged from pushdown partials
    // differs in the last ulp, and the dedicated differential test
    // already pins value equality under a tolerance.)
    for (a, b) in disabled.per_query.iter().zip(&cached.per_query) {
        assert_eq!(a.rows, b.rows, "query {} ({})", a.index, a.name);
        assert!(a.error.is_none() && b.error.is_none(), "query {}", a.index);
    }
    let (off, on) = (remote(&disabled.sum_billed), remote(&cached.sum_billed));
    assert!(
        (on as f64) <= 0.5 * off as f64,
        "billed remote bytes {on} vs disabled {off}: expected ≥ 50% drop"
    );
    // And the bill itself never got worse.
    assert!(cached.total_dollars <= disabled.total_dollars * 1.001);
}

/// Every phase of a query, by group: label and footprint.
fn phases(metrics: &QueryMetrics) -> Vec<Vec<(String, PhaseStats)>> {
    let phase = |p: &pushdowndb::core::metrics::Phase| (p.label.clone(), p.stats);
    metrics
        .groups
        .iter()
        .map(|g| g.phases.iter().map(phase).collect())
        .collect()
}

/// What one run of [`zipf_run`] leaves: per query its plan, phases and
/// bill; the forced join's phases and bill; the cache's counters,
/// residency and rent table.
type ZipfRun = (
    Vec<(String, Vec<Vec<(String, PhaseStats)>>, Usage)>,
    (Vec<Vec<(String, PhaseStats)>>, Usage),
    CacheStats,
    u64,
    u64,
);

/// An Adaptive Zipf stream on CSV over a fresh file-backed two-tier cache
/// of `zipf_churn`'s budgets (5 % / 25 % of the data: it fills, evicts,
/// demotes and promotes), at `threads` scan threads, then the forced
/// `cached` candidate of `join-q12ish`: its build side's fills land in a
/// full cache holding probe chunks.
fn zipf_run(threads: usize) -> ZipfRun {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let bytes = dataset_bytes(&ctx, &t) as f64;
    let dir = TempDir::new("cache-determinism");
    let mut ctx = ctx
        .with_cache_tiers((bytes * 0.05) as u64, (bytes * 0.25) as u64)
        .with_cache_dir(dir.path())
        .unwrap();
    ctx.scan_threads = threads;
    let mut queries = Vec::new();
    for q in generate_zipf(42, 36, 1.0) {
        let qctx = ctx.scoped_with_salt(q.index as u64);
        let table = (q.query.table)(&t);
        let (out, explain) =
            execute_sql_verbose(&qctx, table, q.query.sql, Strategy::Adaptive).unwrap();
        assert_eq!(out.metrics.usage(), out.billed, "query {}", q.index);
        queries.push((explain.kind.to_string(), phases(&out.metrics), out.billed));
    }
    // Fill the mem tier with `lineitem`, so that the join's build side
    // (`orders`, filling too) would push probe chunks down a tier if its
    // fills were applied before the probe side read.
    cached_scan_streamed(&ctx.scoped(), &t.lineitem, |_| Ok(())).unwrap();
    let cache = ctx.cache().unwrap();
    // Both sides of the join read the cache as it is now: the probe
    // side's `lineitem` reads what `occupancy` reports before the join.
    let at_start =
        t.lineitem
            .partitions(&ctx.store)
            .iter()
            .fold(PhaseStats::default(), |mut sum, key| {
                let size = ctx.store.object_size(&t.lineitem.bucket, key).unwrap();
                let layout = |len| t.lineitem.cache_layout(key, len, ctx.cache_chunk_bytes);
                let occ = cache.occupancy(&t.lineitem.bucket, key, size, layout);
                sum.cache_bytes += occ.mem_bytes;
                sum.disk_bytes += occ.disk_bytes;
                sum.plain_bytes += occ.gap_bytes;
                sum
            });
    assert!(
        at_start.cache_bytes > 0 && at_start.disk_bytes > 0,
        "{at_start:?}"
    );
    let evictions = cache.stats().evictions;
    let join = planner_suite()
        .into_iter()
        .find(|q| q.name == "join-q12ish")
        .unwrap();
    let out = run_candidate(&ctx, (join.table)(&t), join.sql, "cached", None).unwrap();
    assert_eq!(out.metrics.usage(), out.billed);
    let join_phases = phases(&out.metrics);
    assert_eq!(
        join_phases.len(),
        1,
        "a cached join is one group: {join_phases:?}"
    );
    let probe = join_phases[0]
        .iter()
        .find(|(label, _)| label.starts_with("cached load lineitem"))
        .map(|(_, stats)| *stats)
        .unwrap();
    let read = (probe.cache_bytes, probe.disk_bytes, probe.plain_bytes);
    let want = (
        at_start.cache_bytes,
        at_start.disk_bytes,
        at_start.plain_bytes,
    );
    assert_eq!(
        read, want,
        "the probe side read the cache as at the join's start"
    );
    assert!(
        cache.stats().evictions > evictions,
        "the join's fills evict"
    );
    let stats = cache.stats();
    let digest = cache.residency_digest();
    (
        queries,
        (join_phases, out.billed),
        stats,
        digest,
        cache.rent_digest(),
    )
}

/// Determinism: what cached scans do to the cache — fills, eviction
/// order, tier placement, persistence — follows the plan and the
/// partition order, never which worker finished first.
#[test]
fn cache_effects_do_not_depend_on_scan_threads() {
    let one = zipf_run(1);
    let hits = one.2.hits;
    assert!(
        one.2.demotions > 0 && one.2.promotions > 0 && one.2.disk_evictions > 0 && hits > 0,
        "the stream fills, evicts, demotes and promotes: {:?}",
        one.2
    );
    for threads in [2, 8] {
        let other = zipf_run(threads);
        for (i, (a, b)) in one.0.iter().zip(&other.0).enumerate() {
            assert_eq!(a, b, "query {i} at {threads} threads");
        }
        assert_eq!(one.1, other.1, "the forced join at {threads} threads");
        assert_eq!(one.2, other.2, "cache stats at {threads} threads");
        assert_eq!(one.3, other.3, "residency at {threads} threads");
        assert_eq!(one.4, other.4, "rent at {threads} threads");
    }
}

/// Every operator label of an executed plan, depth first.
fn labels(op: &OpReport, out: &mut Vec<String>) {
    out.push(op.label.clone());
    op.children.iter().for_each(|c| labels(c, out));
}

/// Whether the plan that ran read `table` through the segment cache.
fn filled(ex: &Explain, table: &str) -> bool {
    let mut all = Vec::new();
    labels(ex.operators.as_ref().expect("every plan reports"), &mut all);
    all.iter()
        .any(|l| l.starts_with(&format!("CachedScan[{table}]")))
}

/// Rent-or-buy, a table larger than the cache: under `zipf_churn`'s
/// budgets (5 % / 25 % of the data) a fill of `lineitem` could not stay,
/// so it earns no rent and no plan is credited for filling it — every
/// `topk-100` runs the pushed `sampling` plan, and no plan that runs
/// reads `lineitem` through the cache.
#[test]
fn a_table_larger_than_the_cache_never_earns_credit() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let bytes = dataset_bytes(&ctx, &t) as f64;
    let ctx = ctx.with_cache_tiers((bytes * 0.05) as u64, (bytes * 0.25) as u64);
    assert!(t.lineitem.total_bytes(&ctx.store) as f64 > bytes * 0.30);
    let cache = ctx.cache().unwrap();
    let parts = t.lineitem.partitions(&ctx.store);
    let mut topks = 0;
    for q in generate_zipf(42, 36, 1.0) {
        let qctx = ctx.scoped_with_salt(q.index as u64);
        let table = (q.query.table)(&t);
        let (_, ex) = execute_sql_verbose(&qctx, table, q.query.sql, Strategy::Adaptive).unwrap();
        if q.query.name == "topk-100" {
            topks += 1;
            assert_eq!(
                ex.kind,
                PlanKind::TopK { sampling: true },
                "query {}",
                q.index
            );
        }
        assert!(
            !filled(&ex, "lineitem"),
            "query {} filled lineitem",
            q.index
        );
        for key in &parts {
            assert_eq!(
                cache.rent(&t.lineitem.bucket, key),
                0.0,
                "query {}",
                q.index
            );
        }
    }
    assert!(topks > 0, "the stream runs topk-100");
    assert!(cache.stats().fills > 0, "the tables that fit are filled");
    let resident = parts.iter().filter(|k| {
        let size = ctx.store.object_size(&t.lineitem.bucket, k).unwrap();
        let layout = |len| t.lineitem.cache_layout(k, len, ctx.cache_chunk_bytes);
        cache
            .occupancy(&t.lineitem.bucket, k, size, layout)
            .gap_bytes
            < size
    });
    assert_eq!(
        resident.count(),
        0,
        "lineitem was never read through the cache"
    );
}

/// Rent-or-buy, a table that fits: on the hot-set stream (the cache holds
/// the whole dataset) `lineitem` is read remotely while it is cheaper to,
/// accruing rent, and the first query whose credit covers the fill's
/// premium over the cheapest plan buys it — no later than the third
/// query that reads it.
#[test]
fn a_table_that_fits_is_bought_once_its_rent_covers_the_premium() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let budget = dataset_bytes(&ctx, &t);
    let ctx = ctx.with_cache(budget);
    let mut reads = 0;
    for q in generate_zipf(42, 48, 1.0) {
        let table = (q.query.table)(&t);
        let qctx = ctx.scoped_with_salt(q.index as u64);
        let (_, ex) = execute_sql_verbose(&qctx, table, q.query.sql, Strategy::Adaptive).unwrap();
        if !q.query.sql.contains("lineitem") {
            continue;
        }
        reads += 1;
        if filled(&ex, "lineitem") {
            let chosen = ex.candidates.iter().find(|c| c.chosen).unwrap();
            let cheapest = ex
                .candidates
                .iter()
                .map(|c| c.dollars)
                .fold(f64::MAX, f64::min);
            assert!(
                chosen.dollars - chosen.credit <= cheapest,
                "query {}: the credit covers the premium: {:?}",
                q.index,
                ex.candidates
            );
            assert!(reads <= 3, "lineitem bought by its read number {reads}");
            return;
        }
    }
    panic!("lineitem was never filled in {reads} reads");
}

/// Rent accrues on the partitions of a table read remotely at a loss,
/// split by their bytes, is what a plan filling them is credited, goes
/// to zero when they are filled, and is never negative.
#[test]
fn rent_resets_on_fill_and_never_goes_negative() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let budget = dataset_bytes(&ctx, &t);
    let ctx = ctx.with_cache(budget);
    let cache = ctx.cache().unwrap();
    let parts = t.lineitem.partitions(&ctx.store);
    let rents = || -> Vec<f64> {
        let rent = |k: &String| cache.rent(&t.lineitem.bucket, k);
        parts.iter().map(rent).collect()
    };
    let sql = "SELECT l_orderkey, l_extendedprice FROM lineitem \
               WHERE l_shipdate < DATE '1993-01-01'";
    let (_, ex) = execute_sql_verbose(&ctx, &t.lineitem, sql, Strategy::Adaptive).unwrap();
    assert_eq!(ex.kind, PlanKind::Filter { pushdown: true });
    let accrued = rents();
    assert!(accrued.iter().all(|r| *r > 0.0), "{accrued:?}");
    // Split by bytes: rent per byte is one number.
    let size = |k: &String| ctx.store.object_size(&t.lineitem.bucket, k).unwrap() as f64;
    let per_byte: Vec<f64> = parts
        .iter()
        .zip(&accrued)
        .map(|(k, r)| r / size(k))
        .collect();
    assert!(per_byte
        .iter()
        .all(|r| (r / per_byte[0] - 1.0).abs() < 1e-9));
    // The cold cached plan is credited with all of it, and EXPLAIN says
    // so.
    let (out, ex) = execute_sql_verbose(&ctx, &t.lineitem, sql, Strategy::Adaptive).unwrap();
    let cached = ex
        .candidates
        .iter()
        .find(|c| c.algorithm == "cached-local")
        .unwrap();
    assert_eq!(cached.credit, accrued.iter().sum::<f64>());
    assert!(ex.report(&out, &ctx).contains("credit $"));
    // A fill buys the table: nothing is owed, nothing is credited.
    cached_scan_streamed(&ctx.scoped(), &t.lineitem, |_| Ok(())).unwrap();
    assert!(rents().iter().all(|r| *r == 0.0), "{:?}", rents());
    let (out, ex) = execute_sql_verbose(&ctx, &t.lineitem, sql, Strategy::Adaptive).unwrap();
    assert!(ex.candidates.iter().all(|c| c.credit == 0.0));
    assert!(!ex.report(&out, &ctx).contains("credit"));
    for q in generate_zipf(7, 27, 1.0) {
        let table = (q.query.table)(&t);
        execute_sql(&ctx, table, q.query.sql, Strategy::Adaptive).unwrap();
        for table in t.all() {
            for key in table.partitions(&ctx.store) {
                let rent = cache.rent(&table.bucket, &key);
                assert!(rent >= 0.0, "{key}: {rent}");
            }
        }
    }
}

/// Acceptance: with a warm cache, the adaptive plan's *measured* dollars
/// are ≤ 1.1 × min(cached-local, pushdown, remote-full) on every
/// planner-suite query.
#[test]
fn cache_aware_adaptive_tracks_the_cheapest_tier() {
    let (ctx, t) = tpch_context(0.005, 1_500).unwrap();
    let budget = dataset_bytes(&ctx, &t);
    let ctx = ctx.with_cache(budget);
    let forced_cached = ctx.clone().with_cache_reads(true);
    for q in planner_suite() {
        let table = (q.table)(&t);
        // Warm the cache for this query's table(s).
        execute_sql(&forced_cached, table, q.sql, Strategy::Baseline).unwrap();
        let cost = |o: &QueryOutput| o.metrics.cost(&ctx.model, &ctx.pricing).total();
        let remote_full = cost(&execute_sql(&ctx, table, q.sql, Strategy::Baseline).unwrap());
        let pushdown = cost(&execute_sql(&ctx, table, q.sql, Strategy::Pushdown).unwrap());
        let cached = cost(&execute_sql(&forced_cached, table, q.sql, Strategy::Baseline).unwrap());
        let adaptive = cost(&execute_sql(&ctx, table, q.sql, Strategy::Adaptive).unwrap());
        let min = remote_full.min(pushdown).min(cached);
        assert!(
            adaptive <= min * 1.10,
            "{}: adaptive ${adaptive:.6} vs min(cached ${cached:.6}, pushdown \
             ${pushdown:.6}, remote ${remote_full:.6})",
            q.name
        );
    }
}

/// Calibration: when the adaptive planner picks a cached plan, its
/// predicted `Usage` lands within 15% of the measured child ledger
/// (512-byte absolute floor), exactly like the uncached bound.
#[test]
fn cached_plan_predictions_stay_calibrated() {
    let (ctx, t) = tpch_context(0.005, 1_500).unwrap();
    let budget = dataset_bytes(&ctx, &t);
    let ctx = ctx.with_cache(budget);
    let mut cached_plans = 0;
    for q in planner_suite() {
        let table = (q.table)(&t);
        // Warm pass, then the measured pass.
        execute_sql(&ctx, table, q.sql, Strategy::Adaptive).unwrap();
        let (out, explain) = execute_sql_verbose(&ctx, table, q.sql, Strategy::Adaptive).unwrap();
        let chosen = explain
            .candidates
            .iter()
            .find(|c| c.chosen)
            .expect("adaptive marks a chosen candidate");
        if !chosen.algorithm.starts_with("cached") {
            continue;
        }
        cached_plans += 1;
        let predicted = explain.predicted.as_ref().unwrap().usage();
        let measured = out.billed;
        let check = |pred: u64, meas: u64, what: &str| {
            let slack = (0.15 * meas as f64).max(512.0);
            assert!(
                (pred as f64 - meas as f64).abs() <= slack,
                "{} [{}]: predicted {pred} vs measured {meas} (slack {slack:.0})",
                q.name,
                what
            );
        };
        check(predicted.requests, measured.requests, "requests");
        check(
            predicted.select_scanned_bytes,
            measured.select_scanned_bytes,
            "scanned",
        );
        check(
            predicted.select_returned_bytes,
            measured.select_returned_bytes,
            "returned",
        );
        check(predicted.plain_bytes, measured.plain_bytes, "plain");
        // Metrics and ledger agree exactly on cached plans too.
        assert_eq!(out.metrics.usage(), out.billed, "{}", q.name);
    }
    assert!(
        cached_plans >= 3,
        "a warm full-dataset cache should win several suite queries, got {cached_plans}"
    );
}

/// Under `with_cache_reads` the lowering writes a cache read where it
/// would write a plain GET, so the pricer prices what runs: on a warm
/// cache the Baseline candidate of every suite shape predicts exactly
/// the bytes each cache tier served, the gap bytes it fetched and the
/// requests its run reports (they used to be priced as GETs).
#[test]
fn forced_cache_reads_are_priced_as_they_run() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let budget = dataset_bytes(&ctx, &t);
    let forced = ctx.with_cache(budget).with_cache_reads(true);
    let totals = |m: &QueryMetrics| {
        let mut s = PhaseStats::default();
        m.groups
            .iter()
            .flat_map(|g| &g.phases)
            .for_each(|p| s.merge(&p.stats));
        (s.plain_bytes, s.cache_bytes, s.disk_bytes, s.requests)
    };
    for q in planner_suite() {
        let table = (q.table)(&t);
        execute_sql(&forced, table, q.sql, Strategy::Baseline).unwrap();
        let (_, candidates) = lower(&forced, table, &parse_query(q.sql).unwrap()).unwrap();
        let baseline = |n: &&str| matches!(*n, "baseline" | "server-side");
        let (name, plan) = candidates.iter().find(|(n, _)| baseline(n)).unwrap();
        let predicted = predict_plan(&Estimators::new(&forced, [plan]), plan).unwrap();
        let out = run_candidate(&forced, table, q.sql, name, None).unwrap();
        let (want, got) = (totals(&out.metrics), totals(&predicted.metrics));
        assert_eq!(got, want, "{} `{name}`: (plain, mem, disk, req)", q.name);
        assert!(want.1 > 0, "{}: the warm cache served the run", q.name);
    }
}

/// EXPLAIN surfaces the cache: candidates list the cached plan, and the
/// operator tree reports the hit/fill byte split per cache-serving node.
#[test]
fn explain_reports_cache_candidates_and_hit_fill_bytes() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let budget = dataset_bytes(&ctx, &t);
    let ctx = ctx.with_cache(budget);
    let sql = "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority";
    // Warm, then explain.
    execute_sql(&ctx, &t.orders, sql, Strategy::Adaptive).unwrap();
    let (out, ex) = execute_sql_verbose(&ctx, &t.orders, sql, Strategy::Adaptive).unwrap();
    let names: Vec<&str> = ex.candidates.iter().map(|c| c.algorithm).collect();
    assert!(names.contains(&"cached-local"), "{names:?}");
    let report = ex.report(&out, &ctx);
    assert!(report.contains("cache:"), "{report}");
    assert!(report.contains("B hit"), "{report}");
    // Joined shape: the candidate space includes the all-cached and the
    // mixed build-cached plans, and a warm cached join renders CachedScan
    // nodes with their partition hit counts.
    let jsql = "SELECT l_shipmode, COUNT(*) AS n FROM orders \
                JOIN lineitem ON o_orderkey = l_orderkey \
                GROUP BY l_shipmode ORDER BY l_shipmode";
    execute_sql(&ctx, &t.orders, jsql, Strategy::Adaptive).unwrap();
    let (jout, jex) = execute_sql_verbose(&ctx, &t.orders, jsql, Strategy::Adaptive).unwrap();
    let names: Vec<&str> = jex.candidates.iter().map(|c| c.algorithm).collect();
    assert!(names.contains(&"cached"), "{names:?}");
    assert!(names.contains(&"cached-build"), "{names:?}");
    let jreport = jex.report(&jout, &ctx);
    let cached_join = matches!(
        jex.kind,
        pushdowndb::core::planner::PlanKind::Join {
            algorithm: "cached"
        } | pushdowndb::core::planner::PlanKind::Join {
            algorithm: "cached-build"
        }
    );
    if cached_join {
        assert!(jreport.contains("CachedScan["), "{jreport}");
        assert!(jreport.contains("partitions hit"), "{jreport}");
    }
}

/// Chaos during fills: with a fault plan installed, cached scans retry
/// fills under the uniform policy — the answer matches the fault-free
/// run, bytes bill once, retried attempts bill extra requests.
#[test]
fn chaos_faults_during_fills_bill_bytes_once() {
    use pushdowndb::common::RetryPolicy;
    use pushdowndb::s3::FaultPlan;
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let ctx = ctx
        .with_retry(RetryPolicy::with_attempts(12))
        .with_cache(64 << 20);
    let forced = ctx.clone().with_cache_reads(true);
    let q = planner_suite()
        .into_iter()
        .find(|q| q.name == "groupby-uniform")
        .unwrap();
    let clean = execute_sql(&forced, (q.table)(&t), q.sql, Strategy::Baseline).unwrap();
    // Fresh cold cache + chaos: every partition fill retries through the
    // fault plan.
    let ctx = ctx.with_cache(64 << 20);
    let forced = ctx.clone().with_cache_reads(true);
    ctx.store.set_fault_plan(Some(FaultPlan::new(1, 0.45)));
    let chaotic = execute_sql(
        &forced.scoped_with_salt(1),
        (q.table)(&t),
        q.sql,
        Strategy::Baseline,
    )
    .unwrap();
    assert_rows_close(&clean.rows, &chaotic.rows, "chaotic fills");
    assert_eq!(
        chaotic.billed.plain_bytes, clean.billed.plain_bytes,
        "fill bytes bill once across retries"
    );
    assert!(
        chaotic.billed.requests > clean.billed.requests,
        "retried fill attempts are extra requests ({} vs {})",
        chaotic.billed.requests,
        clean.billed.requests
    );
    // Warm after the chaotic fill: hits are free even under chaos.
    let warm = execute_sql(
        &forced.scoped_with_salt(2),
        (q.table)(&t),
        q.sql,
        Strategy::Baseline,
    )
    .unwrap();
    ctx.store.set_fault_plan(None);
    assert_rows_close(&clean.rows, &warm.rows, "warm under chaos");
    assert_eq!(warm.billed.plain_bytes, 0, "hits bill no bytes");
    assert_eq!(warm.billed.requests, 0, "hits bill no requests");
}

/// Differential proptest: arbitrary data, interleaved re-uploads
/// (put_object over live partitions) and partition deletes — the
/// cached run must match the uncached ground truth after every
/// mutation, i.e. invalidation never lets the cache serve stale bytes.
#[derive(Debug, Clone)]
enum Step {
    Query(usize),
    Rewrite(u64),
    DeleteTail,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_matches_uncached_across_mutations(
        n in 40usize..160,
        per_part in 10usize..40,
        budget_kb in 1u64..64,
        steps in proptest::collection::vec(0u8..8, 4..14),
    ) {
        let make_rows = |version: u64, n: usize| -> Vec<Row> {
            (0..n)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i as i64),
                        Value::Int(((i as u64).wrapping_mul(7 + version) % 100) as i64),
                        Value::Str(format!("s{}", (i as u64 + version) % 5)),
                    ])
                })
                .collect()
        };
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("s", DataType::Str),
        ]);
        let queries = [
            "SELECT k, v FROM t WHERE v < 40",
            "SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s",
            "SELECT SUM(v), COUNT(*) FROM t",
            "SELECT * FROM t ORDER BY k DESC LIMIT 7",
        ];
        let store = pushdowndb::s3::S3Store::new();
        let mut table = upload_csv_table(&store, "b", "t", &schema, &make_rows(0, n), per_part).unwrap();
        let ctx = QueryContext::new(store.clone()).with_cache(budget_kb << 10);
        let cached_ctx = ctx.clone().with_cache_reads(true);
        // Decode the step stream: 0..=4 → run query (idx % 4), 5..=6 →
        // rewrite the table in place, 7 → delete the last partition.
        for (si, s) in steps.iter().enumerate() {
            let step = match *s {
                0..=4 => Step::Query(*s as usize % queries.len()),
                5 | 6 => Step::Rewrite(si as u64 + 1),
                _ => Step::DeleteTail,
            };
            match step {
                Step::Query(qi) => {
                    let sql = queries[qi];
                    let truth = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
                    let cached = execute_sql(&cached_ctx, &table, sql, Strategy::Baseline).unwrap();
                    let adaptive = execute_sql(&ctx, &table, sql, Strategy::Adaptive).unwrap();
                    prop_assert_eq!(&truth.rows, &cached.rows, "step {} {}", si, sql);
                    prop_assert_eq!(&truth.rows, &adaptive.rows, "step {} {}", si, sql);
                }
                Step::Rewrite(version) => {
                    table = upload_csv_table(
                        &store, "b", "t", &schema, &make_rows(version, n), per_part,
                    ).unwrap();
                }
                Step::DeleteTail => {
                    let parts = table.partitions(&store);
                    if parts.len() > 1 {
                        store.delete_object("b", parts.last().unwrap());
                        // The catalog row count is stale after a raw
                        // delete; shrink it so LIMIT sizing stays within
                        // the live data.
                        table.row_count = table.row_count.saturating_sub(per_part as u64);
                    }
                }
            }
        }
    }
}

/// Tiered partial hits (ISSUE 9): an object with only alternating
/// chunks resident serves the cached chunks from their tier and bills
/// exactly the coalesced gap bytes — one range GET per gap run, never a
/// full reload — from the mem tier and from the disk tier alike.
#[test]
fn partial_hit_scans_bill_exactly_the_gap_bytes() {
    use pushdowndb::cache::SegmentKey;
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows: Vec<Row> = (0..400i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int((i * 7) % 100)]))
        .collect();
    let sql = "SELECT k, v FROM t WHERE v < 50";
    const CHUNK: u64 = 256;
    for (mem, disk) in [(1u64 << 20, 0u64), (0, 1 << 20)] {
        let store = pushdowndb::s3::S3Store::new();
        let table = upload_csv_table(&store, "b", "t", &schema, &rows, 400).unwrap();
        let truth = execute_sql(
            &QueryContext::new(store.clone()),
            &table,
            sql,
            Strategy::Baseline,
        )
        .unwrap();

        let ctx = QueryContext::new(store.clone())
            .with_cache_tiers(mem, disk)
            .with_cache_chunk_bytes(CHUNK);
        let forced = ctx.clone().with_cache_reads(true);
        let key = table.partitions(&store)[0].clone();
        let len = store.object_size("b", &key).unwrap();
        let data = store.get_object("b", &key).unwrap();
        assert!(len > 4 * CHUNK, "need a multi-chunk object, got {len} B");

        // Insert the even chunks by hand (the same fixed-block layout
        // the CSV scan derives); the odd chunks are the gaps, and the
        // alternation makes every gap its own coalesced run.
        let cache = ctx.cache().unwrap();
        let epoch = cache.begin_fill(&SegmentKey::whole("b", &key));
        let chunks: Vec<(u64, u64)> = (0..len)
            .step_by(CHUNK as usize)
            .map(|f| (f, (f + CHUNK).min(len)))
            .collect();
        let (mut local, mut gaps, mut gap_runs) = (0u64, 0u64, 0u64);
        for (i, &(first, last)) in chunks.iter().enumerate() {
            if i % 2 == 0 {
                cache.insert(
                    SegmentKey::chunk("b", &key, (first, last)),
                    data.slice(first as usize..last as usize),
                    epoch,
                );
                local += last - first;
            } else {
                gaps += last - first;
                gap_runs += 1;
            }
        }
        let occ = cache.occupancy("b", &key, len, |len| table.cache_layout(&key, len, CHUNK));
        assert_eq!(occ.gap_bytes, gaps, "occupancy agrees with the inserts");
        assert_eq!(occ.gap_requests, gap_runs);
        assert_eq!(occ.mem_bytes + occ.disk_bytes, local);

        let before = cache.stats();
        let out = execute_sql(&forced, &table, sql, Strategy::Baseline).unwrap();
        assert_rows_close(&truth.rows, &out.rows, "partial-hit rows");
        assert_eq!(
            out.billed.plain_bytes, gaps,
            "mem {mem} disk {disk}: bill exactly the gap bytes"
        );
        assert_eq!(
            out.billed.requests, gap_runs,
            "mem {mem} disk {disk}: one range GET per coalesced gap run"
        );
        assert_eq!(out.metrics.usage(), out.billed);
        let after = cache.stats();
        assert_eq!(
            after.hit_bytes - before.hit_bytes,
            local,
            "cached chunks serve locally"
        );
        if mem == 0 {
            assert_eq!(
                after.disk_hit_bytes - before.disk_hit_bytes,
                local,
                "zero mem budget: partial hits serve in place from disk"
            );
        }

        // The gap fill completed the object: the next pass is free.
        let warm = execute_sql(&forced, &table, sql, Strategy::Baseline).unwrap();
        assert_rows_close(&truth.rows, &warm.rows, "warm rows");
        assert_eq!(
            warm.billed.requests + warm.billed.plain_bytes,
            0,
            "fully resident after the gap fill: nothing billed"
        );
    }
}

/// Chaos on the gap-fill path: with a fault plan installed mid-scan,
/// the coalesced gap GETs retry under the uniform policy — rows match
/// the clean run, gap *bytes* bill exactly once, retried attempts bill
/// extra *requests*, and metrics stay equal to the ledger.
#[test]
fn chaos_retried_gap_fills_bill_gap_bytes_once() {
    use pushdowndb::cache::SegmentKey;
    use pushdowndb::common::RetryPolicy;
    use pushdowndb::s3::FaultPlan;
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows: Vec<Row> = (0..400i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int((i * 3) % 100)]))
        .collect();
    let sql = "SELECT SUM(v), COUNT(*) FROM t";
    const CHUNK: u64 = 256;
    let store = pushdowndb::s3::S3Store::new();
    let table = upload_csv_table(&store, "b", "t", &schema, &rows, 400).unwrap();
    let truth = execute_sql(
        &QueryContext::new(store.clone()),
        &table,
        sql,
        Strategy::Baseline,
    )
    .unwrap();

    let ctx = QueryContext::new(store.clone())
        .with_retry(RetryPolicy::with_attempts(12))
        .with_cache_tiers(1 << 20, 1 << 20)
        .with_cache_chunk_bytes(CHUNK);
    let forced = ctx.clone().with_cache_reads(true);
    let key = table.partitions(&store)[0].clone();
    let len = store.object_size("b", &key).unwrap();
    let data = store.get_object("b", &key).unwrap();
    let cache = ctx.cache().unwrap();
    let epoch = cache.begin_fill(&SegmentKey::whole("b", &key));
    let chunks: Vec<(u64, u64)> = (0..len)
        .step_by(CHUNK as usize)
        .map(|f| (f, (f + CHUNK).min(len)))
        .collect();
    let (mut gaps, mut gap_runs) = (0u64, 0u64);
    for (i, &(first, last)) in chunks.iter().enumerate() {
        if i % 2 == 0 {
            cache.insert(
                SegmentKey::chunk("b", &key, (first, last)),
                data.slice(first as usize..last as usize),
                epoch,
            );
        } else {
            gaps += last - first;
            gap_runs += 1;
        }
    }
    store.set_fault_plan(Some(FaultPlan::new(3, 0.45)));
    let out = execute_sql(&forced.scoped_with_salt(1), &table, sql, Strategy::Baseline).unwrap();
    store.set_fault_plan(None);
    assert_rows_close(&truth.rows, &out.rows, "chaotic gap fill");
    assert_eq!(
        out.billed.plain_bytes, gaps,
        "retried gap fills bill their bytes exactly once"
    );
    assert!(
        out.billed.requests > gap_runs,
        "seed 3 salt 1 must retry at least one gap GET ({} vs {gap_runs} runs)",
        out.billed.requests
    );
    assert_eq!(
        out.metrics.usage(),
        out.billed,
        "metrics == ledger under chaos"
    );
}

/// Tier movement: with a mem tier holding ⅛ of the table, repeated
/// scans demote on eviction and promote on hit; metrics equal the
/// billed ledger on every pass, and a disk tier behind the same mem
/// budget keeps the demoted segments servable — warm passes bill
/// nothing, where mem-only keeps re-billing the evicted ⅞.
#[test]
fn disk_tier_keeps_demoted_segments_servable() {
    let q = planner_suite()
        .into_iter()
        .find(|q| q.name == "groupby-uniform")
        .unwrap();
    let run = |disk_factor: u64| {
        let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
        let table = (q.table)(&t);
        let bytes = table.total_bytes(&ctx.store);
        let ctx = ctx
            .with_cache_tiers(bytes / 8, bytes * disk_factor)
            .with_cache_chunk_bytes(4096)
            .with_cache_reads(true);
        let mut last = 0;
        for pass in 0..3 {
            let out = execute_sql(&ctx, table, q.sql, Strategy::Baseline).unwrap();
            assert_eq!(
                out.metrics.usage(),
                out.billed,
                "disk×{disk_factor} pass {pass}: metrics == ledger through tier movement"
            );
            last = out.billed.plain_bytes;
        }
        (last, ctx.cache().unwrap().stats())
    };
    let (mem_only_remote, mem_stats) = run(0);
    let (tiered_remote, tier_stats) = run(4);
    assert!(
        mem_stats.evictions > 0,
        "a ⅛ mem budget must churn: {mem_stats:?}"
    );
    assert!(
        mem_only_remote > 0,
        "mem-only keeps re-billing evicted segments"
    );
    assert_eq!(
        tiered_remote, 0,
        "mem + disk hold the table: warm passes bill nothing ({tier_stats:?})"
    );
    assert!(
        tier_stats.demotions > 0 && tier_stats.promotions > 0 && tier_stats.disk_hits > 0,
        "the warm passes must exercise demote + disk-hit + promote: {tier_stats:?}"
    );
}

/// Per-node tier slices (ISSUE 9): a cluster with a tiered cache bills
/// byte-for-byte the serial uncached ledger on the cold pass at 1, 2
/// and 4 nodes (read-through creates no extra billable bytes), serves
/// the warm pass entirely from the node slices, and conserves the
/// global ledger as Σ per-query bills.
#[test]
fn cluster_tiered_slices_bill_byte_equal_and_serve_warm() {
    let sql = "SELECT l_shipmode, COUNT(*) AS n FROM orders \
               JOIN lineitem ON o_orderkey = l_orderkey \
               GROUP BY l_shipmode ORDER BY l_shipmode";
    let (sctx, st) = tpch_context(0.002, 1_000).unwrap();
    let serial = execute_sql(&sctx, &st.orders, sql, Strategy::Baseline).unwrap();
    for n in [1usize, 2, 4] {
        let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
        let total = dataset_bytes(&ctx, &t);
        // Install the tiered cache *before* attaching the cluster so
        // every node slices both budgets (mem/4/n + 4·total/n each).
        let ctx = ctx
            .with_cache_tiers(total / 4, total * 4)
            .with_cache_chunk_bytes(4096)
            .with_nodes(n)
            .with_cache_reads(true);
        let before = ctx.store.global_ledger().snapshot();
        let cold = execute_sql(&ctx, &t.orders, sql, Strategy::Baseline).unwrap();
        let warm = execute_sql(&ctx, &t.orders, sql, Strategy::Baseline).unwrap();
        let after = ctx.store.global_ledger().snapshot();
        assert_eq!(cold.rows, serial.rows, "{n} nodes: cold rows");
        assert_eq!(
            cold.billed, serial.billed,
            "{n} nodes: the cold read-through bills exactly the serial uncached ledger"
        );
        assert_eq!(cold.metrics.usage(), cold.billed, "{n} nodes: cold metrics");
        assert_eq!(warm.rows, serial.rows, "{n} nodes: warm rows");
        assert_eq!(
            warm.billed.requests + warm.billed.plain_bytes,
            0,
            "{n} nodes: the warm pass serves fully from the node slices"
        );
        assert_eq!(warm.metrics.usage(), warm.billed, "{n} nodes: warm metrics");
        assert_eq!(
            after,
            before + cold.billed + warm.billed,
            "{n} nodes: global = Σ children with per-node tier slices"
        );
    }
}

// Differential proptest over the tiered chunked path: random tier
// budgets (zero included), chunk sizes, rewrite/delete interleavings
// and pinned chaos seeds retrying gap fills mid-scan. Every cached run
// matches the cold ground truth row-for-row, and conservation holds
// exactly: locally served bytes + billed gap bytes == bytes scanned —
// a hit never bills, a gap never bills twice, even across retries.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tiered_partial_hits_match_cold_across_mutations(
        n in 60usize..160,
        per_part in 12usize..40,
        mem_kb in 0u64..8,
        disk_kb in 0u64..16,
        chunk in 64u64..512,
        chaos_seed in 0u64..4,
        steps in proptest::collection::vec(0u8..10, 4..12),
    ) {
        use pushdowndb::common::RetryPolicy;
        use pushdowndb::s3::FaultPlan;
        let make_rows = |version: u64, n: usize| -> Vec<Row> {
            (0..n)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i as i64),
                        Value::Int(((i as u64).wrapping_mul(11 + version) % 100) as i64),
                        Value::Str(format!("s{}", (i as u64 + version) % 5)),
                    ])
                })
                .collect()
        };
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("s", DataType::Str),
        ]);
        let queries = [
            "SELECT k, v FROM t WHERE v < 40",
            "SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s",
            "SELECT SUM(v), COUNT(*) FROM t",
            "SELECT * FROM t ORDER BY k DESC LIMIT 7",
        ];
        let store = pushdowndb::s3::S3Store::new();
        let mut table = upload_csv_table(&store, "b", "t", &schema, &make_rows(0, n), per_part).unwrap();
        let ctx = QueryContext::new(store.clone())
            .with_retry(RetryPolicy::with_attempts(12))
            .with_cache_tiers(mem_kb << 10, disk_kb << 10)
            .with_cache_chunk_bytes(chunk);
        let cached_ctx = ctx.clone().with_cache_reads(true);
        let cache = ctx.cache().unwrap();
        // Decode the step stream: 0..=3 → clean query, 4..=6 → query
        // under a pinned-seed fault plan (gap fills retry mid-scan),
        // 7 | 8 → rewrite the table in place, 9 → delete the tail.
        for (si, s) in steps.iter().enumerate() {
            match *s {
                0..=6 => {
                    let chaotic = *s >= 4;
                    let sql = queries[*s as usize % queries.len()];
                    let truth = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
                    let scanned: u64 = table
                        .partitions(&store)
                        .iter()
                        .map(|k| store.object_size("b", k).unwrap())
                        .sum();
                    if chaotic {
                        store.set_fault_plan(Some(FaultPlan::new(chaos_seed, 0.35)));
                    }
                    let before = cache.stats();
                    let out = execute_sql(
                        &cached_ctx.scoped_with_salt(si as u64),
                        &table,
                        sql,
                        Strategy::Baseline,
                    )
                    .unwrap();
                    store.set_fault_plan(None);
                    let after = cache.stats();
                    prop_assert_eq!(&truth.rows, &out.rows, "step {} {}", si, sql);
                    let local = after.hit_bytes - before.hit_bytes;
                    prop_assert_eq!(
                        out.billed.plain_bytes + local,
                        scanned,
                        "step {} {}: served-locally + billed == scanned (chaos {})",
                        si, sql, chaotic
                    );
                    prop_assert_eq!(
                        out.metrics.usage(),
                        out.billed,
                        "step {} {}: metrics == ledger",
                        si, sql
                    );
                }
                7 | 8 => {
                    table = upload_csv_table(
                        &store, "b", "t", &schema, &make_rows(si as u64 + 1, n), per_part,
                    ).unwrap();
                }
                _ => {
                    let parts = table.partitions(&store);
                    if parts.len() > 1 {
                        store.delete_object("b", parts.last().unwrap());
                        table.row_count = table.row_count.saturating_sub(per_part as u64);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// ColumnarLite: column-chunk segments
// ---------------------------------------------------------------------

mod column_chunks {
    use super::*;
    use pushdowndb::cache::SegmentKey;
    use pushdowndb::core::scan::{scan_rows, ScanFragment, ScanSource, ScanSummary};
    use pushdowndb::core::{upload_columnar_table, Table};
    use pushdowndb::format::columnar::{encode_columnar, ColumnarReader, WriterOptions};
    use pushdowndb::s3::S3Store;
    use pushdowndb::sql::bind::Binder;
    use pushdowndb::sql::parse_expr;
    use pushdowndb::tpch::TpchGen;

    const OPTIONS: WriterOptions = WriterOptions {
        rows_per_group: 25,
        compress: true,
    };

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
        ])
    }

    fn rows(version: i64) -> Vec<Row> {
        (0..600)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Float((i * 7 + version) as f64 / 4.0),
                    Value::Str(format!("name-{}", (i + version) % 9)),
                    Value::Date(9000 + (i % 50) as i32),
                ])
            })
            .collect()
    }

    /// Six partitions of four row groups of four column chunks.
    fn table(store: &S3Store) -> Table {
        upload_columnar_table(store, "b", "t", &schema(), &rows(0), 100, OPTIONS).unwrap()
    }

    /// The columns the scans below decode: `k` for the predicate, `v`
    /// and `d` for the output.
    const NEEDED: [usize; 3] = [0, 1, 3];

    fn fragment(t: &Table) -> ScanFragment {
        let pred = parse_expr("k % 3 = 0").unwrap();
        let pred = Binder::new(&t.schema).bind_expr(&pred).unwrap();
        ScanFragment::columns(t, Some(pred), &[3, 1])
    }

    fn cached_scan(ctx: &QueryContext, t: &Table) -> (Vec<Row>, ScanSummary, Usage) {
        let ctx = ctx.scoped();
        let (rows, summary) = scan_rows(&ctx, t, ScanSource::Cached, &fragment(t)).unwrap();
        assert_eq!(
            summary.stats.requests,
            ctx.billed().requests,
            "usage == billed"
        );
        assert_eq!(summary.stats.plain_bytes, ctx.billed().plain_bytes);
        (rows, summary, ctx.billed())
    }

    /// Per partition: its key, bytes, segment layout and the segments
    /// the scans above need.
    type Layout = (String, bytes::Bytes, Vec<(u64, u64)>, Vec<(u64, u64)>);

    fn layouts(store: &S3Store, t: &Table) -> Vec<Layout> {
        let layout = |key: String| {
            let data = store.raw_object("b", &key).unwrap();
            let reader = ColumnarReader::open(data.clone()).unwrap();
            let (all, needed) = (reader.chunk_extents(), reader.extents_of(&NEEDED));
            (key, data, all, needed)
        };
        t.partitions(store).into_iter().map(layout).collect()
    }

    fn len(ranges: &[(u64, u64)]) -> u64 {
        ranges.iter().map(|(first, last)| last - first).sum()
    }

    /// Make every segment of every partition resident but those `gone`
    /// names (by partition index).
    fn resident_but(ctx: &QueryContext, parts: &[Layout], gone: &[(usize, (u64, u64))]) {
        let cache = ctx.cache().unwrap();
        for (p, (key, data, all, _)) in parts.iter().enumerate() {
            let epoch = cache.begin_fill(&SegmentKey::whole("b", key));
            for &range in all.iter().filter(|r| !gone.contains(&(p, **r))) {
                let bytes = data.slice(range.0 as usize..range.1 as usize);
                cache.insert(SegmentKey::chunk("b", key, range), bytes, epoch);
            }
        }
    }

    /// A warm projected scan is served the footers and the chunks of the
    /// columns it decodes — from memory, no request — and returns what
    /// the cache-off and cold scans return.
    #[test]
    fn a_warm_projected_scan_reads_the_footer_and_its_chunks_only() {
        let off = {
            let store = S3Store::new();
            let t = table(&store);
            let ctx = QueryContext::new(store);
            scan_rows(&ctx, &t, ScanSource::Cached, &fragment(&t))
                .unwrap()
                .0
        };
        let store = S3Store::new();
        let t = table(&store);
        let ctx = QueryContext::new(store.clone()).with_cache(1 << 24);
        let (cold, filled, _) = cached_scan(&ctx, &t);
        assert_eq!(filled.fill_parts, 6);
        let (warm, served, billed) = cached_scan(&ctx, &t);
        assert_eq!((cold.len(), &cold), (200, &off));
        assert_eq!(warm, off);
        let needed: u64 = layouts(&store, &t).iter().map(|l| len(&l.3)).sum();
        let s = served.stats;
        assert_eq!((s.cache_bytes, s.cl_parse_bytes), (needed, needed));
        assert_eq!((s.requests, s.plain_bytes, s.disk_bytes), (0, 0, 0));
        assert_eq!(billed, Usage::default());
        assert_eq!(served.hit_parts, 6);
        assert!(needed < t.total_bytes(&store), "{needed} B read");
    }

    /// With needed chunks missing, each partition missing any makes one
    /// range GET spanning them — the chunks between riding along — billed
    /// once; with a footer missing, that partition is read as before
    /// segments were named: every chunk looked up, the footer the one
    /// gap. Rows never change.
    #[test]
    fn missing_chunks_cost_one_range_get_and_a_missing_footer_falls_back() {
        let store = S3Store::new();
        let t = table(&store);
        let parts = layouts(&store, &t);
        let want = {
            let ctx = QueryContext::new(store.with_cache_override(None));
            scan_rows(&ctx, &t, ScanSource::Plain, &fragment(&t))
                .unwrap()
                .0
        };
        // Partition 0 misses its first and last needed data chunks,
        // partition 2 one in the middle.
        let (n0, n2) = (&parts[0].3, &parts[2].3);
        let gone = [(0, n0[0]), (0, n0[n0.len() - 2]), (2, n2[3])];
        let ctx = QueryContext::new(store.clone()).with_cache(1 << 24);
        resident_but(&ctx, &parts, &gone);
        let (rows, summary, billed) = cached_scan(&ctx, &t);
        assert_eq!(rows, want);
        let span = n0[n0.len() - 2].1 - n0[0].0;
        let s = summary.stats;
        assert_eq!(
            (s.requests, billed.requests),
            (2, 2),
            "one GET per partition"
        );
        assert_eq!(s.plain_bytes, span + len(&[n2[3]]), "billed once");
        assert!(span > len(&[n0[0], n0[n0.len() - 2]]), "chunks ride along");
        assert_eq!((summary.hit_parts, summary.fill_parts), (4, 2));
        // What rode along filled: the next read is all hits.
        let (again, warm, _) = cached_scan(&ctx, &t);
        assert_eq!(again, want);
        assert_eq!((warm.stats.requests, warm.hit_parts), (0, 6));

        // Partition 1's footer gone.
        let ctx = QueryContext::new(store.clone()).with_cache(1 << 24);
        let footer = *parts[1].2.last().unwrap();
        resident_but(&ctx, &parts, &[(1, footer)]);
        let (rows, summary, _) = cached_scan(&ctx, &t);
        assert_eq!(rows, want);
        let s = summary.stats;
        let others: u64 = (parts.iter().enumerate())
            .filter(|(p, _)| *p != 1)
            .map(|(_, l)| len(&l.3))
            .sum();
        assert_eq!((s.requests, s.plain_bytes), (1, len(&[footer])));
        assert_eq!(
            s.cache_bytes + s.plain_bytes,
            others + parts[1].1.len() as u64
        );
    }

    /// A partition rewritten between two warm reads is read anew.
    #[test]
    fn a_rewrite_between_warm_reads_returns_the_new_rows() {
        let store = S3Store::new();
        let t = table(&store);
        let ctx = QueryContext::new(store.clone()).with_cache(1 << 24);
        let uncached = |store: &S3Store| {
            let ctx = QueryContext::new(store.with_cache_override(None));
            scan_rows(&ctx, &t, ScanSource::Plain, &fragment(&t))
                .unwrap()
                .0
        };
        cached_scan(&ctx, &t);
        let (before, _, _) = cached_scan(&ctx, &t);
        assert_eq!(before, uncached(&store));
        let key = &t.partitions(&store)[2];
        store.put_object(
            "b",
            key,
            encode_columnar(&schema(), &rows(5)[..100], OPTIONS),
        );
        let now = uncached(&store);
        assert_ne!(now, before);
        let (after, summary, _) = cached_scan(&ctx, &t);
        assert_eq!(after, now);
        assert_eq!(summary.fill_parts, 1, "the rewritten partition is cold");
        let (again, summary, _) = cached_scan(&ctx, &t);
        assert_eq!((again, summary.hit_parts), (now, 6));
    }

    /// Partition 2 rewritten behind the catalog, which keeps the extents
    /// the loader wrote for it: re-encoded rows at another row-group size
    /// (another length, other extents); rows the same length long with
    /// the footer moved; and the same length and footer start with the
    /// column chunks moved. Each with what it checks.
    fn rewrites(old: &bytes::Bytes) -> Vec<(&'static str, Vec<u8>)> {
        let other_groups = WriterOptions {
            rows_per_group: 40,
            ..OPTIONS
        };
        let regrouped = encode_columnar(&schema(), &rows(5)[200..300], other_groups);
        // A longer maximum string grows the footer by three bytes; five
        // repeated floats shrink the data by as many.
        let mut shifted = rows(0)[200..300].to_vec();
        for (i, row) in shifted.iter_mut().enumerate().take(6) {
            let mut values = row.values().to_vec();
            match i {
                0 => values[2] = Value::Str("name-8~~~".into()),
                _ => values[1] = Value::Float(0.5),
            }
            *row = Row::new(values);
        }
        let footer_moved = encode_columnar(&schema(), &shifted, OPTIONS);
        let chunks_moved = encode_columnar(&schema(), &rows(9)[200..300], OPTIONS);
        let extents = |b: &[u8]| {
            let reader = ColumnarReader::open(bytes::Bytes::copy_from_slice(b)).unwrap();
            reader.chunk_extents()
        };
        let (was, footer) = (extents(old), |e: &[(u64, u64)]| e.last().unwrap().0);
        assert_ne!(regrouped.len(), old.len());
        assert_eq!(footer_moved.len(), old.len());
        assert_ne!(footer(&extents(&footer_moved)), footer(&was));
        assert_eq!(chunks_moved.len(), old.len());
        assert_eq!(footer(&extents(&chunks_moved)), footer(&was));
        assert_ne!(extents(&chunks_moved), was);
        vec![
            ("regrouped", regrouped),
            ("footer moved", footer_moved),
            ("chunks moved", chunks_moved),
        ]
    }

    /// Extents the catalog wrote down for an object since rewritten never
    /// decode stale bytes: the store holds a layout to the object's
    /// current length, and a read of named segments to the footer it
    /// finds. A cached scan, cold then warm, returns the new rows under
    /// Baseline and Adaptive, billing what its metrics say.
    #[test]
    fn stale_catalog_extents_never_decode_stale_bytes() {
        let sql = "SELECT d, v FROM t WHERE k % 3 = 0";
        let original = {
            let store = S3Store::new();
            let t = table(&store);
            store.raw_object("b", &t.partitions(&store)[2]).unwrap()
        };
        for (what, rewritten) in rewrites(&original) {
            for strategy in [Strategy::Baseline, Strategy::Adaptive] {
                let store = S3Store::new();
                let t = table(&store);
                let ctx = QueryContext::new(store.clone())
                    .with_cache(1 << 24)
                    .with_cache_reads(true);
                execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
                let key = &t.partitions(&store)[2];
                store.put_object("b", key, rewritten.clone());
                let plain = ctx.clone().with_cache_reads(false);
                let want = execute_sql_verbose(&plain, &t, sql, Strategy::Baseline)
                    .unwrap()
                    .0
                    .rows;
                for pass in ["cold", "warm"] {
                    let context = format!("{what}, {strategy:?}, {pass}");
                    let (out, _) = execute_sql_verbose(&ctx, &t, sql, strategy).unwrap();
                    assert_eq!(out.rows, want, "{context}");
                    assert_eq!(out.metrics.usage(), out.billed, "{context}");
                    if (strategy, pass) == (Strategy::Baseline, "warm") {
                        assert_eq!(out.billed, Usage::default(), "{context}: served locally");
                    }
                }
            }
        }
    }

    /// `orders`, `customer` and `lineitem` as ColumnarLite (a bucket of
    /// their own), beside the CSV rest of a TPC-H context.
    fn columnar_tpch() -> (QueryContext, TpchTables) {
        let (ctx, csv) = tpch_context(0.002, 1_000).unwrap();
        let gen = TpchGen::new(0.002);
        let (cs, customers) = gen.customers();
        let (os, orders) = gen.orders();
        let (ls, lineitems) = gen.lineitems(&orders);
        let options = WriterOptions::default();
        let upload = |name: &str, schema: &Schema, rows: &[Row]| {
            upload_columnar_table(&ctx.store, "tpch-cl", name, schema, rows, 1_000, options)
                .unwrap()
        };
        let t = TpchTables {
            customer: upload("customer", &cs, &customers),
            orders: upload("orders", &os, &orders),
            lineitem: upload("lineitem", &ls, &lineitems),
            ..csv
        };
        t.register(&ctx.catalog);
        (ctx, t)
    }

    /// An Adaptive Zipf stream over ColumnarLite and a two-tier cache of
    /// `zipf_fit`'s budgets (25 % / 100 % of the data), at `threads` scan
    /// threads: per query its plan, phases and bill, then the cache's
    /// counters and residency.
    fn columnar_zipf(threads: usize) -> (Vec<(String, String, Usage)>, CacheStats, u64) {
        let (ctx, t) = columnar_tpch();
        let bytes = dataset_bytes(&ctx, &t) as f64;
        let mut ctx = ctx.with_cache_tiers((bytes * 0.25) as u64, bytes as u64);
        ctx.scan_threads = threads;
        let mut queries = Vec::new();
        for q in generate_zipf(42, 36, 1.0) {
            let qctx = ctx.scoped_with_salt(q.index as u64);
            let table = (q.query.table)(&t);
            let (out, explain) =
                execute_sql_verbose(&qctx, table, q.query.sql, Strategy::Adaptive).unwrap();
            assert_eq!(out.metrics.usage(), out.billed, "query {}", q.index);
            let phases = format!("{:?}", phases(&out.metrics));
            queries.push((explain.kind.to_string(), phases, out.billed));
        }
        let cache = ctx.cache().unwrap();
        (queries, cache.stats(), cache.residency_digest())
    }

    /// Determinism over column-chunk segments: what a ColumnarLite Zipf
    /// stream does to the cache does not depend on the pool width.
    #[test]
    fn a_columnar_zipf_stream_leaves_the_same_residency_at_any_pool_width() {
        let one = columnar_zipf(1);
        assert!(one.1.hits > 0 && one.1.promotions > 0, "{:?}", one.1);
        for threads in [2, 8] {
            let other = columnar_zipf(threads);
            assert_eq!(one.0, other.0, "queries at {threads} threads");
            assert_eq!(one.1, other.1, "cache stats at {threads} threads");
            assert_eq!(one.2, other.2, "residency at {threads} threads");
        }
    }
}
