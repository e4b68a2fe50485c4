//! Persistent disk-tier suite (ISSUE 10).
//!
//! * **Restart economics** — a query suite warmed into a persistent
//!   disk tier survives a cache drop: a fresh context recovering from
//!   the same directory serves the repeat run with **zero** remote
//!   requests and bytes, and `occupancy` reports the recovered chunks
//!   disk-resident along the layouts the catalog gives them.
//! * **Crash recovery** (proptest) — a random workload prefix, each
//!   read committed like a scan, with a seeded kill at the Nth fsync
//!   (or, when the workload issues fewer barriers, death at drop
//!   without the final commit), then recovery with the store-content
//!   catalog probe: no stale-epoch chunk is ever served (differential
//!   vs the tracked ground truth), `served-locally + billed == bytes
//!   scanned` stays exact before and after the crash, and the same seed
//!   reproduces the same surviving residency byte-for-byte.
//! * **Group commit** — file-resident entries a crash tore degrade to
//!   misses, and concurrent committers charge every persisted byte and
//!   barrier exactly once between them.
//! * **Each segment written once** — a promoted segment keeps its log
//!   copy: repeat passes over a warm mem + disk cache append nothing,
//!   a segment in mem at shutdown is recovered and serves without
//!   re-billing, a crash makes a demotion keep its bytes in RAM, and a
//!   rewrite between a promotion and a demotion never lets the old copy
//!   serve.
//! * **Hygiene** — every test routes its files through a self-cleaning
//!   [`TempDir`] and asserts nothing is left behind on drop.

use bytes::Bytes;
use proptest::prelude::*;
use pushdowndb::cache::{CacheConfig, CacheTier, KillPlan, SegmentCache, SegmentKey};
use pushdowndb::common::pricing::Pricing;
use pushdowndb::common::{DataType, RetryPolicy, Row, Schema, TempDir, Value};
use pushdowndb::core::{execute_sql, upload_csv_table, QueryContext, Strategy};
use pushdowndb::s3::{FaultPlan, S3Store};
use std::sync::atomic::{AtomicU32, Ordering};

fn rows(n: usize) -> Vec<Row> {
    (0..n as i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int((i * 7) % 100)]))
        .collect()
}

fn schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
}

/// A persistent context over `store` with `mem_bytes` of mem in front of
/// a disk tier that holds everything.
fn tiered_ctx(store: &S3Store, dir: &std::path::Path, mem_bytes: u64) -> QueryContext {
    QueryContext::new(store.clone())
        .with_cache_tiers(mem_bytes, 1 << 30)
        .with_cache_chunk_bytes(256)
        .with_cache_dir(dir)
        .unwrap()
        .with_cache_reads(true)
}

/// Restart economics end to end: warm a disk-only persistent cache
/// through the forced cached-local path, drop the cache handle (a
/// clean shutdown), recover a fresh context from the same directory on
/// the same store, and the repeat run bills zero remote requests and
/// bytes — the segments and their epochs came back from the manifest,
/// and the catalog still lays the objects out as they were cached.
/// Occupancy confirms the recovered residency is disk-tier.
#[test]
fn recovered_disk_tier_serves_without_rebilling() {
    let tmp = TempDir::new("persist-restart");
    let store = S3Store::new();
    let table = upload_csv_table(&store, "b", "t", &schema(), &rows(400), 100).unwrap();
    let sql = "SELECT k, v FROM t WHERE v < 50";

    let ctx = tiered_ctx(&store, tmp.path(), 0);
    let cold = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    let warm = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    assert_eq!(cold.rows, warm.rows);
    assert_eq!(
        warm.billed.requests + warm.billed.plain_bytes,
        0,
        "pre-restart warm pass must serve fully from the disk tier"
    );
    let persisted = ctx.cache().unwrap().stats();
    assert!(persisted.fsyncs > 0, "persistence must have synced");
    assert!(persisted.persisted_bytes > 0);

    // Clean shutdown: drop every handle to the cache.
    store.set_cache(None);
    drop(ctx);

    // Restart: a fresh context recovers the tier from the directory.
    let ctx = tiered_ctx(&store, tmp.path(), 0);
    let cache = ctx.cache().unwrap();
    let stats = cache.stats();
    assert!(
        stats.recovered_segments > 0,
        "restart must recover segments"
    );
    assert_eq!(
        stats.disk_used_bytes, stats.recovered_bytes,
        "everything resident after restart came from the manifest"
    );
    assert_eq!(stats.used_bytes, 0, "mem tier starts cold");

    // Occupancy: every partition is fully disk-resident, chunk by chunk.
    for part in table.partitions(&store) {
        let len = store.object_size("b", &part).unwrap();
        let occ = cache.occupancy("b", &part, len, |len| {
            table.cache_layout(&part, len, ctx.cache_chunk_bytes)
        });
        assert!(occ.trailer_resident, "{part}: its last chunk recovered");
        assert_eq!(occ.disk_bytes, len, "{part}: fully disk-resident");
        assert_eq!(occ.gap_bytes, 0, "{part}: no remote gap after recovery");
    }

    let restart = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    assert_eq!(
        restart.rows, cold.rows,
        "recovered bytes are the same bytes"
    );
    assert_eq!(
        restart.billed.requests + restart.billed.plain_bytes,
        0,
        "the recovered warm run must bill zero remote requests and bytes"
    );

    let path = tmp.path().to_path_buf();
    store.set_cache(None);
    drop(ctx);
    drop(cache);
    drop(tmp);
    assert!(
        !path.exists(),
        "temp dir left stray files at {}",
        path.display()
    );
}

/// Once every segment has reached the disk tier, a pass that only
/// promotes and demotes writes nothing: the promoted segments' copies
/// stay live in the segment log, so demoting them again is a flip of
/// their tier, and a scan's commit has nothing to sync.
#[test]
fn repeat_passes_over_a_warm_mem_and_disk_cache_persist_nothing() {
    let tmp = TempDir::new("persist-repeat");
    let store = S3Store::new();
    let table = upload_csv_table(&store, "b", "t", &schema(), &rows(400), 100).unwrap();
    let sql = "SELECT k, v FROM t WHERE v < 50";
    // A quarter of the table in mem: every pass promotes and demotes.
    let ctx = tiered_ctx(&store, tmp.path(), table.total_bytes(&store) / 4);
    let cold = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    let cache = ctx.cache().unwrap();
    let (warm, persisted) = (cache.stats(), cache.persist_counters());
    for pass in 0..3 {
        let out = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
        assert_eq!(out.rows, cold.rows, "pass {pass}");
        assert_eq!(out.billed.requests + out.billed.plain_bytes, 0);
    }
    let after = cache.stats();
    assert!(
        after.promotions > warm.promotions && after.demotions > warm.demotions,
        "the passes moved segments between tiers: {warm:?} → {after:?}"
    );
    assert_eq!(
        cache.persist_counters(),
        persisted,
        "tier moves of segments the log holds append and sync nothing"
    );
    store.set_cache(None);
    drop((ctx, cache));
}

/// A segment a disk hit promoted to mem keeps its log copy, so a
/// restart recovers it (into the disk tier, mem cold) and the replay
/// serves it without re-billing: only mem segments that never reached
/// the disk tier, and so were never written, are fetched again.
#[test]
fn a_promoted_segment_survives_a_clean_restart() {
    let tmp = TempDir::new("persist-promoted");
    let store = S3Store::new();
    let table = upload_csv_table(&store, "b", "t", &schema(), &rows(400), 100).unwrap();
    let mem_bytes = table.total_bytes(&store) / 4;
    let sql = "SELECT k, v FROM t WHERE v < 50";
    let ctx = tiered_ctx(&store, tmp.path(), mem_bytes);
    let cold = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    let cache = ctx.cache().unwrap();
    let part = &table.partitions(&store)[0];
    let len = store.object_size("b", part).unwrap();
    let first = table.cache_layout(part, len, ctx.cache_chunk_bytes)[0];
    let promoted = SegmentKey::chunk("b", part, first);
    let (_, tier) = cache.get_tiered(&promoted).unwrap();
    let (len, now) = cache.peek_tier(&promoted).unwrap();
    assert_eq!(
        (tier, now),
        (CacheTier::Disk, CacheTier::Mem),
        "a disk hit promotes"
    );
    let shutdown = cache.stats();
    store.set_cache(None);
    drop((ctx, cache));

    let ctx = tiered_ctx(&store, tmp.path(), mem_bytes);
    let cache = ctx.cache().unwrap();
    let stats = cache.stats();
    assert_eq!(stats.used_bytes, 0, "mem tier starts cold");
    assert!(stats.recovered_bytes >= shutdown.disk_used_bytes + len);
    assert_eq!(cache.peek_tier(&promoted), Some((len, CacheTier::Disk)));
    let restart = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    assert_eq!(restart.rows, cold.rows);
    assert!(
        restart.billed.plain_bytes <= shutdown.used_bytes - len,
        "re-billed {} B: more than the mem segments never written",
        restart.billed.plain_bytes
    );
    store.set_cache(None);
    drop((ctx, cache));
}

/// After a crash the log's copies cannot be trusted: a promoted segment
/// whose copy the crash tore, demoted afterwards, keeps its bytes in RAM
/// (as a failed persist does) instead of flipping onto the torn copy,
/// and keeps serving the right bytes.
#[test]
fn after_a_crash_demoting_a_promoted_segment_keeps_its_bytes_in_ram() {
    let tmp = TempDir::new("persist-crash-demote");
    let cache = SegmentCache::open(
        &CacheConfig {
            mem_bytes: 200,
            disk_bytes: 1 << 20,
            dir: Some(tmp.path().to_path_buf()),
        },
        Pricing::default(),
        Some(KillPlan::after(1, 4)),
        None,
    )
    .unwrap();
    let skey = |name: &str| SegmentKey::whole("b", name);
    let body = |name: &str, len: usize| Bytes::from(vec![name.as_bytes()[0]; len]);
    let fill = |name: &str, len: usize| {
        let epoch = cache.begin_fill(&skey(name));
        assert!(cache.insert(skey(name), body(name, len), epoch));
    };
    // x, then a, demote into the log; a disk hit promotes a, whose copy
    // stays live behind x's in the log.
    for name in ["x", "a", "b", "c"] {
        fill(name, 100);
    }
    assert_eq!(cache.get_tiered(&skey("a")).unwrap().1, CacheTier::Disk);
    assert_eq!(cache.peek_tier(&skey("a")), Some((100, CacheTier::Mem)));
    cache.commit();
    assert!(cache.crashed(), "the commit's first barrier was the kill");
    assert_eq!(
        cache.get(&skey("x")),
        None,
        "seed 4 tears x, and a behind it"
    );
    // Three small fills, each worth more per byte than a, demote c and
    // then a.
    for name in ["d", "e", "f"] {
        fill(name, 40);
    }
    assert_eq!(cache.peek_tier(&skey("a")), Some((100, CacheTier::Disk)));
    assert_eq!(
        cache.get(&skey("a")),
        Some(body("a", 100)),
        "served from RAM"
    );
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "only x was lost");
    drop(cache);
}

/// A rewrite between a promotion and a demotion kills the promoted
/// segment's log copy with its epoch: the new version's segments, filled
/// into mem and demoted later, are appended afresh, so no pass — nor a
/// restart — ever serves the old copy.
#[test]
fn a_rewrite_between_promotion_and_demotion_never_serves_the_old_copy() {
    let tmp = TempDir::new("persist-rewrite");
    let store = S3Store::new();
    let old = upload_csv_table(&store, "b", "t", &schema(), &rows(400), 100).unwrap();
    let mem_bytes = old.total_bytes(&store) / 2;
    let sql = "SELECT k, v FROM t WHERE v < 50";
    let ctx = tiered_ctx(&store, tmp.path(), mem_bytes);
    let stale = execute_sql(&ctx, &old, sql, Strategy::Baseline)
        .unwrap()
        .rows;
    execute_sql(&ctx, &old, sql, Strategy::Baseline).unwrap();
    let cache = ctx.cache().unwrap();
    assert!(cache.stats().promotions > 0 && cache.stats().used_bytes > 0);
    // The same keys, other rows (v shifted by one).
    let new_rows: Vec<Row> = (0..400i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int((i * 7 + 1) % 100)]))
        .collect();
    let table = upload_csv_table(&store, "b", "t", &schema(), &new_rows, 100).unwrap();
    assert_eq!(table.partitions(&store), old.partitions(&store));
    let plain = QueryContext::new(store.clone());
    let want = execute_sql(&plain, &table, sql, Strategy::Baseline)
        .unwrap()
        .rows;
    assert_ne!(want, stale, "the rewrite changed the answer");
    for pass in 0..3 {
        let out = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
        assert_eq!(out.rows, want, "pass {pass}");
    }
    assert!(cache.stats().demotions > 0);
    store.set_cache(None);
    drop((ctx, cache));
    let ctx = tiered_ctx(&store, tmp.path(), mem_bytes);
    let restart = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
    assert_eq!(restart.rows, want, "after a restart");
    store.set_cache(None);
}

/// A crash loses whatever no commit covered, including the bytes of
/// entries the cache already counts file-resident: the kill fires at the
/// first barrier of the commit, the segment log is cut to a torn prefix,
/// and the next lookup of each vanished segment degrades to a miss (the
/// entry leaves the tier) instead of serving short or corrupt bytes. A
/// refill then lands RAM-resident, durability being frozen.
#[test]
fn file_entries_whose_bytes_a_crash_tore_degrade_to_misses() {
    let tmp = TempDir::new("persist-torn");
    let cache = SegmentCache::open(
        &CacheConfig {
            disk_bytes: 1 << 20,
            dir: Some(tmp.path().to_path_buf()),
            ..CacheConfig::default()
        },
        Pricing::default(),
        Some(KillPlan::after(1, 0xC0FFEE)),
        None,
    )
    .unwrap();
    let skey = |i: usize| SegmentKey::whole("b", &format!("k{i}"));
    let body = |i: usize| Bytes::from(vec![i as u8 + 1; 500]);
    for i in 0..4 {
        let epoch = cache.begin_fill(&skey(i));
        assert!(cache.insert(skey(i), body(i), epoch));
    }
    // Un-committed yet served from the file, checksum-verified.
    assert_eq!(cache.persist_counters().1, 0);
    assert_eq!(cache.get(&skey(3)), Some(body(3)));
    assert_eq!(cache.stats().disk_used_bytes, 2000);
    cache.commit();
    assert!(cache.crashed(), "the commit's first barrier was the kill");
    let served: Vec<bool> = (0..4).map(|i| cache.get(&skey(i)).is_some()).collect();
    let lost = served.iter().filter(|hit| !**hit).count();
    assert!(
        lost > 0,
        "seed 0xC0FFEE tears the log inside the four fills"
    );
    assert!(
        served.windows(2).all(|w| w[0] || !w[1]),
        "a torn log keeps a prefix: {served:?}"
    );
    let stats = cache.stats();
    assert_eq!(stats.misses, lost as u64, "each vanished entry is one miss");
    assert_eq!(stats.disk_used_bytes, 2000 - 500 * lost as u64);
    for (i, &hit) in served.iter().enumerate() {
        if hit {
            assert_eq!(cache.get(&skey(i)), Some(body(i)));
        } else {
            assert!(cache.peek(&skey(i)).is_none(), "k{i} left the tier");
            let epoch = cache.begin_fill(&skey(i));
            assert!(cache.insert(skey(i), body(i), epoch));
            assert_eq!(cache.get(&skey(i)), Some(body(i)), "served from RAM");
        }
    }
    drop(cache);
    // Recovery sees at most what the torn prefix kept whole.
    let recovered = SegmentCache::open(
        &CacheConfig {
            disk_bytes: 1 << 20,
            dir: Some(tmp.path().to_path_buf()),
            ..CacheConfig::default()
        },
        Pricing::default(),
        None,
        None,
    )
    .unwrap();
    assert!(recovered.stats().recovered_segments <= (4 - lost) as u64);
    drop(recovered);
}

/// Pinned regression: `S3Store` used to charge persistence from the
/// delta of the cache's *global* counters around each read, so two
/// threads reading at once each charged the other's appends too. Two
/// scans now fill and commit concurrently (a barrier lines the commits
/// up) and every persisted byte and fsync is charged exactly once: the
/// commit receipts, and the virtual seconds charged beyond the GETs, sum
/// to the `persist_counters` delta.
#[test]
fn concurrent_committers_charge_each_byte_and_fsync_once() {
    let tmp = TempDir::new("persist-receipts");
    let store = S3Store::new();
    for t in 0..2 {
        for i in 0..8 {
            store.put_object("b", &format!("t{t}-{i}"), vec![(t * 8 + i) as u8; 1000]);
        }
    }
    let cache = SegmentCache::open(
        &CacheConfig {
            disk_bytes: 1 << 20,
            dir: Some(tmp.path().to_path_buf()),
            ..CacheConfig::default()
        },
        Pricing::default(),
        None,
        None,
    )
    .unwrap();
    store.set_cache(Some(cache.clone()));
    let plan = FaultPlan::new(0, 0.0);
    store.set_fault_plan(Some(plan));
    let policy = RetryPolicy::with_attempts(1);
    let layout_of = |data: &Bytes| {
        vec![
            (0, data.len() as u64 / 2),
            (data.len() as u64 / 2, data.len() as u64),
        ]
    };
    let gate = std::sync::Barrier::new(2);
    let persist_s: f64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let (store, gate) = (store.scoped(), &gate);
                s.spawn(move || {
                    for i in 0..8 {
                        store
                            .get_object_chunked_cached_with(
                                "b",
                                &format!("t{t}-{i}"),
                                &policy,
                                layout_of,
                            )
                            .unwrap();
                    }
                    let read_s = store.virtual_time_s();
                    assert!((read_s - 8.0 * plan.request_seconds(0, 1000)).abs() < 1e-6);
                    gate.wait();
                    store.commit_cache();
                    store.virtual_time_s() - read_s
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let (bytes, fsyncs) = cache.persist_counters();
    assert!(bytes > 16_000, "32 chunk fills were appended");
    assert_eq!(fsyncs, 2, "the two commits share one pair of barriers");
    let expect = bytes as f64 / plan.latency.disk_write_bw + 2.0 * plan.latency.fsync_latency;
    assert!(
        (persist_s - expect).abs() < 1e-6,
        "charged {persist_s} s for {expect} s of persistence"
    );
    // Receipts at the cache level: two racing fill+commit loops.
    let receipts: Vec<(u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u8)
            .map(|t| {
                let cache = &cache;
                s.spawn(move || {
                    let mut sum = (0, 0);
                    for i in 0..50u8 {
                        let skey = SegmentKey::whole("r", &format!("{t}-{i}"));
                        let epoch = cache.begin_fill(&skey);
                        assert!(cache.insert(skey, Bytes::from(vec![i; 64]), epoch));
                        let (b, f) = cache.commit();
                        sum = (sum.0 + b, sum.1 + f);
                    }
                    sum
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let (bytes1, fsyncs1) = cache.persist_counters();
    assert_eq!(receipts[0].0 + receipts[1].0, bytes1 - bytes);
    assert_eq!(receipts[0].1 + receipts[1].1, fsyncs1 - fsyncs);
    assert!(fsyncs1 - fsyncs <= 200, "at most two barriers per commit");
    store.set_fault_plan(None);
    store.set_cache(None);
    drop(cache);
}

/// One deterministic crash scenario: seed objects, run a workload of
/// chunked cached reads and rewrites through a persistent cache armed
/// with a seeded kill point, then "restart" by recovering from the
/// directory with the store-content catalog probe. Returns the
/// recovered cache's residency digest and whether the kill fired at a
/// barrier mid-workload (otherwise the store died at drop).
///
/// Checks along the way: every read (before the crash, after the crash
/// while durability is frozen, and after recovery) returns exactly the
/// tracked ground-truth bytes; `mem + disk + gap == len` per read; the
/// ledger bills exactly the gap bytes.
fn crash_scenario(
    dir: &std::path::Path,
    n_objects: usize,
    obj_len: usize,
    kill_seed: u64,
    steps: &[u8],
) -> Result<(u64, bool), TestCaseError> {
    const CHUNK: usize = 256;
    let content = |oi: usize, version: u64| -> Vec<u8> {
        (0..obj_len)
            .map(|i| {
                (i as u64)
                    .wrapping_mul(31)
                    .wrapping_add(oi as u64 ^ (version * 97)) as u8
            })
            .collect()
    };
    let key = |oi: usize| format!("o{oi}");
    let layout_of = |data: &Bytes| -> Vec<(u64, u64)> {
        (0..data.len())
            .step_by(CHUNK)
            .map(|lo| (lo as u64, data.len().min(lo + CHUNK) as u64))
            .collect()
    };
    let policy = RetryPolicy::with_attempts(1);

    let store = S3Store::new();
    let mut mirror: Vec<Vec<u8>> = Vec::new();
    for oi in 0..n_objects {
        let c = content(oi, 0);
        store.put_object("b", &key(oi), c.clone());
        mirror.push(c);
    }
    let cache = SegmentCache::open(
        &CacheConfig {
            mem_bytes: obj_len as u64 / 2,
            disk_bytes: 64 << 20,
            dir: Some(dir.to_path_buf()),
        },
        Pricing::default(),
        Some(KillPlan::seeded(kill_seed, KILL_HORIZON)),
        None,
    )
    .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
    store.set_cache(Some(cache));

    let check_read = |oi: usize, mirror: &[Vec<u8>]| -> Result<(), TestCaseError> {
        let before = store.global_ledger().snapshot();
        let out = store
            .get_object_chunked_cached_with("b", &key(oi), &policy, layout_of)
            .map_err(|e| TestCaseError::fail(format!("read o{oi}: {e}")))?;
        // Every read is committed the way a scan commits its own.
        store.commit_cache();
        let after = store.global_ledger().snapshot();
        prop_assert_eq!(
            &out.data[..],
            &mirror[oi][..],
            "object {} must never serve stale bytes",
            oi
        );
        let len = mirror[oi].len() as u64;
        prop_assert_eq!(
            out.mem_bytes + out.disk_bytes + out.gap_bytes,
            len,
            "conservation: served-locally + billed == bytes scanned"
        );
        prop_assert_eq!(
            after.plain_bytes - before.plain_bytes,
            out.gap_bytes,
            "the ledger bills exactly the gap bytes"
        );
        Ok(())
    };

    let mut version = vec![0u64; n_objects];
    for &s in steps {
        let oi = (s as usize) % n_objects;
        if s >= 6 {
            version[oi] += 1;
            let c = content(oi, version[oi]);
            store.put_object("b", &key(oi), c.clone());
            mirror[oi] = c;
        } else {
            check_read(oi, &mirror)?;
        }
    }

    // Restart: recover against the live store content. Rewrites that
    // raced the crash (or happened while the cache was down) are vetted
    // by the catalog probe's checksum, not trusted from the manifest.
    // Dropping the armed cache is itself the crash if no barrier was.
    let fired = store.cache().is_some_and(|c| c.crashed());
    store.set_cache(None);
    let probe = {
        let store = store.clone();
        move |b: &str, k: &str, r: (u64, u64)| store.object_range_digest(b, k, r)
    };
    let recovered = SegmentCache::open(
        &CacheConfig {
            mem_bytes: obj_len as u64 / 2,
            disk_bytes: 64 << 20,
            dir: Some(dir.to_path_buf()),
        },
        Pricing::default(),
        None,
        Some(&probe),
    )
    .map_err(|e| TestCaseError::fail(format!("recover: {e}")))?;
    let digest = recovered.residency_digest();
    store.set_cache(Some(recovered));
    for oi in 0..n_objects {
        check_read(oi, &mirror)?;
    }
    Ok((digest, fired))
}

/// Kill horizon of the crash proptest: about the barriers a mid-length
/// workload issues now that a read or a rewrite costs at most two.
const KILL_HORIZON: u64 = 8;
const CRASH_CASES: u32 = 6;
static CRASH_CASES_RUN: AtomicU32 = AtomicU32::new(0);
static CRASH_KILLS_FIRED: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CRASH_CASES))]

    /// Crash-recovery proptest: random workload prefix, seeded kill at
    /// a random fsync, recover, and (a) no stale-epoch chunk is served,
    /// (b) conservation and billing stay exact, (c) the same seed
    /// leaves the same surviving residency byte-for-byte. The horizon
    /// must keep mid-workload kills common: at least half the cases.
    #[test]
    fn seeded_crashes_recover_soundly_and_deterministically(
        n_objects in 2usize..5,
        obj_len in 600usize..2000,
        kill_seed in 0u64..1000,
        steps in proptest::collection::vec(0u8..9, 4..14),
    ) {
        let a = TempDir::new("persist-crash-a");
        let b = TempDir::new("persist-crash-b");
        let (da, fired) = crash_scenario(a.path(), n_objects, obj_len, kill_seed, &steps)?;
        let (db, _) = crash_scenario(b.path(), n_objects, obj_len, kill_seed, &steps)?;
        prop_assert_eq!(da, db, "same seed must leave the same surviving residency");
        let fired = CRASH_KILLS_FIRED.fetch_add(u32::from(fired), Ordering::Relaxed) + u32::from(fired);
        if CRASH_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == CRASH_CASES {
            prop_assert!(
                2 * fired >= CRASH_CASES,
                "the kill fired mid-workload in only {}/{} cases",
                fired,
                CRASH_CASES
            );
        }
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        drop(b);
        prop_assert!(!pa.exists(), "temp dir left stray files at {}", pa.display());
        prop_assert!(!pb.exists());
    }
}
