//! # pushdown-cache
//!
//! The local caching tier of the hybrid execution model (FlexPushdownDB,
//! VLDB'21, adapted to this engine): a concurrency-safe, **sharded**,
//! **two-tier** segment cache that the planner prices *with the same
//! cost model* as pushdown and remote scans, so "serve the hot segments
//! locally for $0 and push down only the cold tail" falls out of the
//! ordinary argmin-dollar plan choice instead of being a bolt-on memo
//! table.
//!
//! # Segments and chunk layouts
//!
//! A segment is one contiguous byte range of one object —
//! `(bucket, key, range)` ([`SegmentKey`]). The read-through path caches
//! at **chunk granularity**: ColumnarLite row-group extents or fixed CSV
//! block ranges, derived by the store on the first (cold) read and
//! recorded in the cache as the object's **layout**
//! ([`SegmentCache::record_layout`]). With a layout on file, a later
//! scan serves the chunks it holds locally and fetches only the gaps —
//! [`SegmentCache::occupancy`] reports exactly that split (including how
//! many coalesced range GETs the gaps would cost), which is what the
//! cost estimator prices. Whole-object callers still use
//! [`FULL_OBJECT`] / [`SegmentKey::whole`]; both granularities coexist.
//!
//! # Two tiers
//!
//! The cache holds a **mem** tier (read at the perf model's
//! `cache_read_bw`) in front of a **disk** tier (the paper's r4.8xlarge
//! instance storage, read at `disk_read_bw`), each with its own byte
//! budget:
//!
//! ```text
//!   fill ──▶ [ mem tier ] ──evict──▶ [ disk tier ] ──evict──▶ dropped
//!                ▲                        │
//!                └──────── promote ───────┘  (on disk hit)
//! ```
//!
//! * **Demote-on-evict** — a segment evicted from mem moves to the disk
//!   tier (keeping its hit count) instead of being dropped, as long as
//!   it fits the disk budget.
//! * **Promote-on-hit** — a disk hit is served (billed as local disk
//!   bytes by the perf model) and the segment moves back up to mem.
//! * Fills land in mem; a fill larger than the whole mem budget is
//!   admitted straight to disk when it fits there.
//!
//! Both tiers run the same dollars-saved-per-byte eviction and share the
//! object epochs, so invalidation clears a key from *both* tiers at
//! once.
//!
//! # Cost-aware eviction
//!
//! Eviction is a **weighted LFU** ordered by *dollars saved per byte*
//! under the cache's [`Pricing`], not raw recency: one cached access
//! avoids one billed GET request and avoids the segment's bytes being
//! re-scanned by S3 Select, so a segment's weight is
//!
//! ```text
//! weight = hits × (scan_$_per_byte + request_$ / len)
//! ```
//!
//! — small, frequently re-scanned segments outrank big rarely-touched
//! ones, and raising the Select scan price makes *every* cached byte
//! proportionally more precious. Ties evict the oldest insertion (a
//! demotion counts as a fresh insertion into the disk tier), so eviction
//! order is deterministic in each tier.
//!
//! # Invalidation & epochs
//!
//! Writers (the store crate's `put_object`/`delete_object`) call
//! [`SegmentCache::invalidate`], which removes every segment of the
//! object from both tiers, drops its recorded layout, *and* bumps the
//! object's **epoch**. Fills are epoch-tagged: a read-through fill
//! records the epoch *before* issuing its GET
//! ([`SegmentCache::begin_fill`]) and the insert is discarded if the
//! epoch moved in between — an in-flight query racing a writer can never
//! publish stale bytes into the cache, while the bytes it already holds
//! stay consistent for the remainder of its own scan (exactly the
//! snapshot a cache-less scan would have seen). Tier movement needs no
//! epoch check: promotions and demotions happen under the segment's
//! shard lock, the same lock invalidation takes.
//!
//! # Workload-driven admission
//!
//! Eviction protects value already in the cache; **admission** decides
//! whether a fill deserves to displace it. Under
//! [`CacheAdmission::ReuseDistance`] the cache tracks an approximate
//! per-**segment** reuse distance (fill-attempt ticks between successive
//! fill attempts of the same segment, kept in a small per-shard *ghost*
//! table that remembers segments no longer resident): a fill that would
//! force eviction is admitted only if the segment was last attempted
//! within the policy's window — a one-off table scan streams through
//! **read-around** (the caller still gets the bytes; they just are not
//! cached) instead of churning the hot tail, while anything touched
//! twice under open-loop traffic is admitted on its second appearance.
//! Ghosts key on the full segment (range included), so one hot chunk of
//! a large object never vouches for its never-reused sibling chunks.
//! Fills that fit without eviction are always admitted (read-around only
//! protects *occupied* budget). The default policy,
//! [`CacheAdmission::AdmitAll`], preserves the original always-admit
//! behavior.

use bytes::Bytes;
use parking_lot::Mutex;
use pushdown_common::mix::fnv1a;
use pushdown_common::pricing::Pricing;
use pushdown_common::Result;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub mod store;

pub use store::{KillPlan, ManifestStats};

use store::DiskStore;

/// Current length + content digest of one object range, as reported by
/// the catalog during recovery — `None` when the object is gone or the
/// range no longer fits it. Ranges use the cache's `[first, last)`
/// convention with [`FULL_OBJECT`] standing for the whole object.
pub type CatalogProbe<'a> = &'a dyn Fn(&str, &str, (u64, u64)) -> Option<(u64, u64)>;

const GB: f64 = 1_000_000_000.0;

/// Shard count. A power of two; small enough that whole-cache scans
/// (eviction, statistics) stay cheap, large enough that concurrent
/// queries filling different tables rarely contend on one lock.
const SHARDS: usize = 16;

/// The byte range standing for "the whole object" on the coarse
/// read-through path.
pub const FULL_OBJECT: (u64, u64) = (0, u64::MAX);

/// Ghost entries per shard before stale ones (outside every plausible
/// reuse window) are pruned. Bounds the admission metadata regardless of
/// how many distinct segments stream through.
const GHOSTS_PER_SHARD: usize = 1024;

/// Fill-admission policy (see the module docs' *Workload-driven
/// admission* section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheAdmission {
    /// Admit every fill that fits the budget (the classic read-through
    /// behavior, and the default).
    #[default]
    AdmitAll,
    /// Admit a fill that would force eviction only when the same segment
    /// was already fill-attempted within the last `window` fill attempts
    /// (approximate reuse distance). First touches of a full cache go
    /// read-around; fills that fit without eviction always admit.
    ReuseDistance {
        /// Maximum reuse distance, in store-wide fill-attempt ticks.
        window: u64,
    },
}

/// Identity of one cached segment: a contiguous byte range of an object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SegmentKey {
    pub bucket: String,
    pub key: String,
    /// `[first, last)` byte range; [`FULL_OBJECT`] for whole objects.
    pub range: (u64, u64),
}

impl SegmentKey {
    pub fn whole(bucket: &str, key: &str) -> SegmentKey {
        SegmentKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
            range: FULL_OBJECT,
        }
    }

    /// One chunk of an object, `[first, last)`.
    pub fn chunk(bucket: &str, key: &str, range: (u64, u64)) -> SegmentKey {
        SegmentKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
            range,
        }
    }
}

/// Which tier holds (or served) a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-memory tier, read at the perf model's `cache_read_bw`.
    Mem,
    /// Simulated instance-storage tier, read at `disk_read_bw`.
    Disk,
}

/// Where an entry's bytes actually live. Mem-tier entries are always
/// `Ram`; disk-tier entries are `File` when the cache owns a persistent
/// [`store::DiskStore`] (the segment file holds the bytes and serving a
/// hit reads them back) and `Ram` otherwise — including the post-crash
/// fallback, where durability is frozen but the cache keeps working.
enum Payload {
    Ram(Bytes),
    File,
}

struct Entry {
    payload: Payload,
    /// Segment length in bytes (cached here so `File` entries never
    /// touch the disk store for occupancy/eviction accounting).
    len: u64,
    /// Accesses since insertion (the fill counts as the first). Survives
    /// demotion — dollars-saved value moves down with the bytes.
    hits: u64,
    /// Insertion order, for deterministic eviction tie-breaks. Demotion
    /// assigns a fresh seq (it is an insertion into the disk tier).
    seq: u64,
}

impl Entry {
    fn ram(data: Bytes, hits: u64, seq: u64) -> Entry {
        Entry {
            len: data.len() as u64,
            payload: Payload::Ram(data),
            hits,
            seq,
        }
    }

    /// Dollars a future access saves per cached byte: the avoided Select
    /// scan of these bytes plus the avoided GET request, normalized by
    /// segment size, times how often the segment is actually hit.
    fn weight(&self, pricing: &Pricing) -> f64 {
        let len = (self.len as f64).max(1.0);
        let per_access = pricing.scan_per_gb / GB + pricing.per_1k_requests / 1000.0 / len;
        self.hits as f64 * per_access
    }
}

#[derive(Default)]
struct Shard {
    mem: HashMap<SegmentKey, Entry>,
    disk: HashMap<SegmentKey, Entry>,
    /// Object-hash → epoch; bumped by every invalidation of the object.
    epochs: HashMap<u64, u64>,
    /// Segment → fill-attempt tick of its last fill attempt. The
    /// admission policy's reuse-distance memory; survives the segment's
    /// eviction (that is the point — a ghost is how a *non-resident*
    /// segment proves it is hot enough to admit). Keyed per segment, so
    /// sibling chunks of one object earn admission independently.
    ghosts: HashMap<SegmentKey, u64>,
    /// Object-hash → recorded chunk layout: sorted `[first, last)`
    /// ranges covering the object. Dropped on invalidation alongside the
    /// segments.
    layouts: HashMap<u64, Arc<[(u64, u64)]>>,
}

impl Shard {
    fn tier(&self, t: CacheTier) -> &HashMap<SegmentKey, Entry> {
        match t {
            CacheTier::Mem => &self.mem,
            CacheTier::Disk => &self.disk,
        }
    }

    fn tier_mut(&mut self, t: CacheTier) -> &mut HashMap<SegmentKey, Entry> {
        match t {
            CacheTier::Mem => &mut self.mem,
            CacheTier::Disk => &mut self.disk,
        }
    }
}

fn object_hash(bucket: &str, key: &str) -> u64 {
    fnv1a(
        bucket
            .bytes()
            .chain(std::iter::once(b'\0'))
            .chain(key.bytes()),
    )
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    hit_bytes: AtomicU64,
    disk_hits: AtomicU64,
    disk_hit_bytes: AtomicU64,
    fills: AtomicU64,
    fill_bytes: AtomicU64,
    evictions: AtomicU64,
    demotions: AtomicU64,
    promotions: AtomicU64,
    disk_evictions: AtomicU64,
    invalidations: AtomicU64,
    stale_fills: AtomicU64,
    read_arounds: AtomicU64,
    recovered_segments: AtomicU64,
    recovered_bytes: AtomicU64,
}

/// Point-in-time cache observability (EXPLAIN's cache line, the
/// `fig_cache` experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Segment lookups served from either tier.
    pub hits: u64,
    pub misses: u64,
    /// Bytes served locally (both tiers) instead of from the store.
    pub hit_bytes: u64,
    /// The subset of `hits` served from the disk tier (each also
    /// promotes the segment back to mem when it fits).
    pub disk_hits: u64,
    /// The subset of `hit_bytes` served from the disk tier.
    pub disk_hit_bytes: u64,
    /// Read-through fills admitted into the cache.
    pub fills: u64,
    pub fill_bytes: u64,
    /// Mem-tier evictions (each either demotes to disk or drops).
    pub evictions: u64,
    /// Mem-tier evictions that moved the segment into the disk tier.
    pub demotions: u64,
    /// Disk hits that moved the segment back up into the mem tier.
    pub promotions: u64,
    /// Disk-tier evictions — the bytes actually left the cache.
    pub disk_evictions: u64,
    pub invalidations: u64,
    /// Fills discarded because the object changed mid-flight (epoch
    /// moved between [`SegmentCache::begin_fill`] and the insert).
    pub stale_fills: u64,
    /// Fills the admission policy declined (read-around): the fill would
    /// have forced eviction and the segment had no recent reuse.
    pub read_arounds: u64,
    /// Mem-tier occupancy.
    pub used_bytes: u64,
    /// Mem-tier budget.
    pub budget_bytes: u64,
    /// Mem-tier resident segment count.
    pub segments: u64,
    pub disk_used_bytes: u64,
    pub disk_budget_bytes: u64,
    pub disk_segments: u64,
    /// Disk-tier segments rebuilt from the manifest at
    /// [`SegmentCache::recover`] (zero for non-persistent caches).
    pub recovered_segments: u64,
    /// Bytes those recovered segments serve without re-billing.
    pub recovered_bytes: u64,
    /// Bytes appended to the persistent store (segment payloads plus
    /// manifest records).
    pub persisted_bytes: u64,
    /// Fsync barriers the durability protocol issued.
    pub fsyncs: u64,
    /// Group commits that issued at least one barrier (scan-end, drop
    /// and invalidation commits alike; at most two barriers each).
    pub commits: u64,
    /// Manifest compactions (two barriers each).
    pub compactions: u64,
}

/// What a partial-hit read of one object would serve from each tier
/// right now — the cost estimator's view ([`SegmentCache::occupancy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectOccupancy {
    /// Bytes resident in the mem tier.
    pub mem_bytes: u64,
    /// Bytes resident in the disk tier.
    pub disk_bytes: u64,
    /// Bytes that would be fetched remotely.
    pub gap_bytes: u64,
    /// Range GETs those gaps cost after coalescing adjacent missing
    /// chunks into one request.
    pub gap_requests: u64,
    /// Whether a chunk layout is recorded. Without one the whole object
    /// is a single gap — the cold read-through that fills it also learns
    /// the layout.
    pub layout_known: bool,
}

struct TierState {
    budget: u64,
    used: AtomicU64,
}

impl TierState {
    fn new(budget: u64) -> TierState {
        TierState {
            budget,
            used: AtomicU64::new(0),
        }
    }
}

struct Inner {
    shards: Vec<Mutex<Shard>>,
    mem: TierState,
    disk: TierState,
    pricing: Pricing,
    admission: CacheAdmission,
    seq: AtomicU64,
    /// Store-wide fill-attempt tick — the reuse-distance policy's unit
    /// of "time".
    fill_ticks: AtomicU64,
    counters: Counters,
    /// File-backed byte store behind the disk tier; `None` keeps the
    /// pre-persistence in-RAM simulation (and zero persist cost).
    disk_store: Option<DiskStore>,
}

impl Inner {
    fn tier(&self, t: CacheTier) -> &TierState {
        match t {
            CacheTier::Mem => &self.mem,
            CacheTier::Disk => &self.disk,
        }
    }
}

/// Handle to one shared segment cache. Cloning shares the cache (`Arc`
/// inside), exactly like the store and ledgers it sits between.
#[derive(Clone)]
pub struct SegmentCache {
    inner: Arc<Inner>,
}

impl SegmentCache {
    /// A mem-only cache holding at most `budget_bytes` of segment data,
    /// weighting eviction by dollars-saved-per-byte under `pricing`. A
    /// zero budget admits nothing (a convenient "disabled"
    /// configuration). Equivalent to [`SegmentCache::tiered`] with a
    /// zero disk budget: mem evictions drop instead of demoting.
    pub fn new(budget_bytes: u64, pricing: Pricing) -> SegmentCache {
        Self::tiered_with_admission(budget_bytes, 0, pricing, CacheAdmission::AdmitAll)
    }

    /// [`SegmentCache::new`] with an explicit fill-admission policy.
    pub fn with_admission(
        budget_bytes: u64,
        pricing: Pricing,
        admission: CacheAdmission,
    ) -> SegmentCache {
        Self::tiered_with_admission(budget_bytes, 0, pricing, admission)
    }

    /// A two-tier cache: `mem_budget_bytes` of fast segments in front of
    /// `disk_budget_bytes` of simulated instance storage (see the module
    /// docs' *Two tiers* section).
    pub fn tiered(mem_budget_bytes: u64, disk_budget_bytes: u64, pricing: Pricing) -> SegmentCache {
        Self::tiered_with_admission(
            mem_budget_bytes,
            disk_budget_bytes,
            pricing,
            CacheAdmission::AdmitAll,
        )
    }

    /// [`SegmentCache::tiered`] with an explicit fill-admission policy.
    pub fn tiered_with_admission(
        mem_budget_bytes: u64,
        disk_budget_bytes: u64,
        pricing: Pricing,
        admission: CacheAdmission,
    ) -> SegmentCache {
        SegmentCache {
            inner: Arc::new(Inner {
                shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
                mem: TierState::new(mem_budget_bytes),
                disk: TierState::new(disk_budget_bytes),
                pricing,
                admission,
                seq: AtomicU64::new(0),
                fill_ticks: AtomicU64::new(0),
                counters: Counters::default(),
                disk_store: None,
            }),
        }
    }

    /// A persistent tiered cache rooted at `dir`: the disk tier's bytes
    /// live in a segment log guarded by an epoch manifest (see the
    /// [`store`] module docs for the layout and the group-commit
    /// protocol), and whatever a previous incarnation left durable is
    /// recovered — mem tier cold, disk tier warm. Equivalent to
    /// [`SegmentCache::recover_with`] with default admission, no crash
    /// injection, and no catalog check.
    pub fn recover(
        dir: impl AsRef<Path>,
        mem_budget_bytes: u64,
        disk_budget_bytes: u64,
        pricing: Pricing,
    ) -> Result<SegmentCache> {
        Self::recover_with(
            dir,
            mem_budget_bytes,
            disk_budget_bytes,
            pricing,
            CacheAdmission::AdmitAll,
            None,
            None,
        )
    }

    /// [`SegmentCache::recover`] with every knob exposed.
    ///
    /// Recovery replays the manifest (tolerating a torn tail), drops
    /// records whose checksum or object epoch no longer holds, then:
    ///
    /// * applies `catalog` when given — a segment survives only if the
    ///   probe reports the *current* object content at its range hashing
    ///   to the recorded checksum, so bytes rewritten while the cache
    ///   was down can never be served (recorded layouts likewise must
    ///   match the current object length);
    /// * enforces `disk_budget_bytes` deterministically, dropping the
    ///   oldest recovered segments first;
    /// * rebuilds reuse-distance ghosts for every recovered-resident
    ///   segment, so a warm disk tier is not churned by read-around
    ///   declines after restart;
    /// * compacts the manifest when dead records outnumber live state.
    ///
    /// `kill` arms the deterministic crash hook: the store dies at the
    /// Nth fsync — or, if that never comes, when the last handle drops —
    /// losing a seeded torn suffix of everything not yet committed.
    /// After a mid-run kill durability is frozen while the in-RAM cache
    /// keeps serving — exactly what a crashed process leaves on disk for
    /// the next recovery to replay.
    pub fn recover_with(
        dir: impl AsRef<Path>,
        mem_budget_bytes: u64,
        disk_budget_bytes: u64,
        pricing: Pricing,
        admission: CacheAdmission,
        kill: Option<KillPlan>,
        catalog: Option<CatalogProbe<'_>>,
    ) -> Result<SegmentCache> {
        let (disk_store, recovery) = DiskStore::open(dir.as_ref(), kill)?;
        let cache = SegmentCache {
            inner: Arc::new(Inner {
                shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
                mem: TierState::new(mem_budget_bytes),
                disk: TierState::new(disk_budget_bytes),
                pricing,
                admission,
                seq: AtomicU64::new(0),
                fill_ticks: AtomicU64::new(0),
                counters: Counters::default(),
                disk_store: Some(disk_store),
            }),
        };
        let ds = cache.inner.disk_store.as_ref().expect("just installed");

        // Catalog check: byte-equality with the live object, not just
        // epoch bookkeeping — rewrites that happened while the cache was
        // down never logged an epoch bump, so content is the arbiter.
        let mut kept: Vec<store::RecoveredSegment> = Vec::with_capacity(recovery.segments.len());
        for seg in recovery.segments {
            let ok = match catalog {
                Some(probe) => probe(&seg.key.bucket, &seg.key.key, seg.key.range)
                    .map(|(_, digest)| digest == seg.crc)
                    .unwrap_or(false),
                None => true,
            };
            if ok {
                kept.push(seg);
            } else {
                ds.del(&seg.key);
            }
        }

        // Budget: keep the newest recovered segments that fit.
        let mut total: u64 = kept.iter().map(|s| s.len).sum();
        let mut start = 0usize;
        while total > disk_budget_bytes && start < kept.len() {
            total -= kept[start].len;
            ds.del(&kept[start].key);
            start += 1;
        }
        let kept = &kept[start..];

        // Rebuild residency: disk tier warm (hits reset to 1, seqs in
        // replay order), mem tier cold, epochs and layouts seeded from
        // the manifest so post-restart fills and invalidations stay
        // consistent with what is durable.
        for (h, epoch) in recovery.epochs.iter() {
            let shard = &cache.inner.shards[*h as usize % SHARDS];
            shard.lock().epochs.insert(*h, *epoch);
        }
        for (bucket, key, _, chunks) in recovery.layouts.iter() {
            let ok = match catalog {
                Some(probe) => probe(bucket, key, FULL_OBJECT)
                    .map(|(len, _)| chunks.last().map(|c| c.1) == Some(len))
                    .unwrap_or(false),
                None => true,
            };
            if ok {
                let h = object_hash(bucket, key);
                let mut shard = cache.shard_of(bucket, key).lock();
                shard.layouts.insert(h, chunks.clone().into());
            }
        }
        let c = &cache.inner.counters;
        for seg in kept {
            // The store's replay already filtered stale epochs; a kept
            // segment's epoch always matches the recovered epoch table.
            debug_assert_eq!(
                seg.epoch,
                *recovery
                    .epochs
                    .get(&object_hash(&seg.key.bucket, &seg.key.key))
                    .unwrap_or(&0)
            );
            let seq = cache.inner.seq.fetch_add(1, Ordering::Relaxed);
            let mut shard = cache.shard_of(&seg.key.bucket, &seg.key.key).lock();
            shard.disk.insert(
                seg.key.clone(),
                Entry {
                    payload: Payload::File,
                    len: seg.len,
                    hits: 1,
                    seq,
                },
            );
            if matches!(cache.inner.admission, CacheAdmission::ReuseDistance { .. }) {
                // Recovered residents earned admission in a past life;
                // seed their ghosts at tick 0 so an invalidate + refill
                // is not declined as a first touch.
                shard.ghosts.insert(seg.key.clone(), 0);
            }
            cache.inner.disk.used.fetch_add(seg.len, Ordering::Relaxed);
            c.recovered_segments.fetch_add(1, Ordering::Relaxed);
            c.recovered_bytes.fetch_add(seg.len, Ordering::Relaxed);
        }
        Ok(cache)
    }

    /// The directory backing the disk tier, for persistent caches. The
    /// cluster uses it to derive per-node subdirectories.
    pub fn persist_dir(&self) -> Option<PathBuf> {
        self.inner
            .disk_store
            .as_ref()
            .map(|d| d.dir().to_path_buf())
    }

    /// Whether the disk tier is file-backed.
    pub fn is_persistent(&self) -> bool {
        self.inner.disk_store.is_some()
    }

    /// Whether the crash-injection hook has fired (durability frozen).
    pub fn crashed(&self) -> bool {
        self.inner
            .disk_store
            .as_ref()
            .map(|d| d.crashed())
            .unwrap_or(false)
    }

    /// `(bytes appended, fsyncs issued)` by the durability protocol so
    /// far: a monotonic total of every appended byte and every barrier,
    /// whoever was charged for them. Always `(0, 0)` for non-persistent
    /// caches.
    pub fn persist_counters(&self) -> (u64, u64) {
        self.inner
            .disk_store
            .as_ref()
            .map(|d| d.persist_counters())
            .unwrap_or((0, 0))
    }

    /// The persistent tier's commit point: make everything appended
    /// since the last commit durable with at most two fsync barriers
    /// (segment log, then manifest) and return the receipt `(bytes,
    /// fsyncs)` of what no earlier receipt reported, for the caller to
    /// charge at `disk_write_bw` / `fsync_latency`. Concurrent callers
    /// split the work without double-counting: Σ receipts equals the
    /// [`SegmentCache::persist_counters`] delta. Dropping the last
    /// handle commits too. `(0, 0)` for non-persistent caches.
    pub fn commit(&self) -> (u64, u64) {
        self.inner
            .disk_store
            .as_ref()
            .map(|d| d.commit())
            .unwrap_or((0, 0))
    }

    /// Manifest size accounting for persistent caches — the CI gate
    /// asserts `records` stays bounded by live state under churn.
    pub fn manifest_stats(&self) -> Option<ManifestStats> {
        self.inner.disk_store.as_ref().map(|d| d.manifest_stats())
    }

    /// Order-independent digest of exactly what is resident right now:
    /// every segment's key, tier, length and content checksum folded
    /// with fnv1a. Two caches with byte-identical residency digest
    /// equal — the crash-recovery determinism tests compare this.
    pub fn residency_digest(&self) -> u64 {
        let mut rows: Vec<String> = Vec::new();
        for shard in self.inner.shards.iter() {
            let shard = shard.lock();
            for (tier_tag, map) in [(0u8, &shard.mem), (1u8, &shard.disk)] {
                for (k, e) in map.iter() {
                    let crc = match &e.payload {
                        Payload::Ram(b) => fnv1a(b.iter().copied()),
                        Payload::File => self
                            .inner
                            .disk_store
                            .as_ref()
                            .and_then(|d| d.crc_of(k))
                            .unwrap_or(0),
                    };
                    rows.push(format!(
                        "{}\0{}\0{}..{}\0{}\0{}\0{}",
                        k.bucket, k.key, k.range.0, k.range.1, tier_tag, e.len, crc
                    ));
                }
            }
        }
        rows.sort();
        fnv1a(rows.join("\n").into_bytes())
    }

    /// The fill-admission policy this cache runs under.
    pub fn admission(&self) -> CacheAdmission {
        self.inner.admission
    }

    /// Mem-tier budget.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.mem.budget
    }

    /// Disk-tier budget (zero for a mem-only cache).
    pub fn disk_budget_bytes(&self) -> u64 {
        self.inner.disk.budget
    }

    /// Mem-tier occupancy.
    pub fn used_bytes(&self) -> u64 {
        self.inner.mem.used.load(Ordering::Relaxed)
    }

    /// Disk-tier occupancy.
    pub fn disk_used_bytes(&self) -> u64 {
        self.inner.disk.used.load(Ordering::Relaxed)
    }

    fn shard_of(&self, bucket: &str, key: &str) -> &Mutex<Shard> {
        let h = object_hash(bucket, key) as usize;
        &self.inner.shards[h % SHARDS]
    }

    /// Look up one segment — any byte range, whole-object callers pass
    /// [`SegmentKey::whole`] — counting a hit or a miss. Hits bump the
    /// LFU counter. Equivalent to [`SegmentCache::get_tiered`] with the
    /// serving tier discarded.
    pub fn get(&self, skey: &SegmentKey) -> Option<Bytes> {
        self.get_tiered(skey).map(|(data, _)| data)
    }

    /// Look up one segment, reporting which tier served it so the caller
    /// can charge `cache_read_bw` vs `disk_read_bw`. A disk hit promotes
    /// the segment back into the mem tier (unless it is bigger than the
    /// whole mem budget), which may demote colder mem segments down.
    pub fn get_tiered(&self, skey: &SegmentKey) -> Option<(Bytes, CacheTier)> {
        let c = &self.inner.counters;
        let promoted;
        {
            let mut shard = self.shard_of(&skey.bucket, &skey.key).lock();
            if let Some(e) = shard.mem.get_mut(skey) {
                e.hits += 1;
                let Payload::Ram(data) = &e.payload else {
                    unreachable!("mem-tier entries always hold their bytes");
                };
                c.hits.fetch_add(1, Ordering::Relaxed);
                c.hit_bytes.fetch_add(e.len, Ordering::Relaxed);
                return Some((data.clone(), CacheTier::Mem));
            }
            if !shard.disk.contains_key(skey) {
                c.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // Materialize the disk entry's bytes: RAM copies clone, file
            // copies read the segment file back (checksum-verified). A
            // failed read means the durable copy is gone — degrade to a
            // miss rather than serve corrupt bytes.
            let data = {
                let e = shard.disk.get(skey).expect("probed above");
                match &e.payload {
                    Payload::Ram(b) => b.clone(),
                    Payload::File => {
                        match self.inner.disk_store.as_ref().and_then(|d| d.read(skey)) {
                            Some(b) => b,
                            None => {
                                let e = shard.disk.remove(skey).expect("probed above");
                                self.inner.disk.used.fetch_sub(e.len, Ordering::Relaxed);
                                if let Some(ds) = self.inner.disk_store.as_ref() {
                                    ds.del(skey);
                                }
                                c.misses.fetch_add(1, Ordering::Relaxed);
                                return None;
                            }
                        }
                    }
                }
            };
            let e = shard.disk.get_mut(skey).expect("probed above");
            e.hits += 1;
            let len = e.len;
            c.hits.fetch_add(1, Ordering::Relaxed);
            c.hit_bytes.fetch_add(len, Ordering::Relaxed);
            c.disk_hits.fetch_add(1, Ordering::Relaxed);
            c.disk_hit_bytes.fetch_add(len, Ordering::Relaxed);
            if len > self.inner.mem.budget {
                // Too big to ever live in mem — serve in place.
                return Some((data, CacheTier::Disk));
            }
            // Promote under the same shard lock invalidation takes, so
            // the moved entry can never be a stale resurrection. The
            // bytes move up to RAM; the durable copy is released.
            let mut entry = shard.disk.remove(skey).expect("probed above");
            self.inner.disk.used.fetch_sub(len, Ordering::Relaxed);
            if matches!(entry.payload, Payload::File) {
                if let Some(ds) = self.inner.disk_store.as_ref() {
                    ds.del(skey);
                }
            }
            entry.payload = Payload::Ram(data.clone());
            entry.seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
            shard.mem.insert(skey.clone(), entry);
            self.inner.mem.used.fetch_add(len, Ordering::Relaxed);
            c.promotions.fetch_add(1, Ordering::Relaxed);
            promoted = data;
        }
        // Lock released: trim mem, demoting colder segments back down.
        self.evict_tier_to_budget(CacheTier::Mem);
        Some((promoted, CacheTier::Disk))
    }

    /// Non-mutating occupancy probe for the cost estimator: the cached
    /// size of one segment, if present in either tier. Does not count as
    /// an access and does not perturb eviction order or tier placement.
    pub fn peek(&self, skey: &SegmentKey) -> Option<u64> {
        self.peek_tier(skey).map(|(len, _)| len)
    }

    /// [`SegmentCache::peek`] plus which tier holds the segment.
    pub fn peek_tier(&self, skey: &SegmentKey) -> Option<(u64, CacheTier)> {
        let shard = self.shard_of(&skey.bucket, &skey.key).lock();
        if let Some(e) = shard.mem.get(skey) {
            return Some((e.len, CacheTier::Mem));
        }
        shard.disk.get(skey).map(|e| (e.len, CacheTier::Disk))
    }

    /// The segment's object epoch — call *before* issuing the fill GET
    /// and pass the value to [`SegmentCache::insert`], which discards
    /// the fill if a writer invalidated the object in between. Epochs
    /// are per *object*: every range of `bucket/key` shares one.
    pub fn begin_fill(&self, skey: &SegmentKey) -> u64 {
        let h = object_hash(&skey.bucket, &skey.key);
        *self
            .shard_of(&skey.bucket, &skey.key)
            .lock()
            .epochs
            .get(&h)
            .unwrap_or(&0)
    }

    /// Record the chunk layout of `bucket/key` as observed at `epoch`:
    /// sorted, contiguous `[first, last)` ranges covering the object.
    /// The store's read-through path derives these from the format
    /// (ColumnarLite row-group extents, fixed CSV blocks) on a cold read
    /// and every later partial-hit read reuses them. Returns whether the
    /// layout was recorded (false: a writer invalidated the object since
    /// [`SegmentCache::begin_fill`] returned `epoch`).
    pub fn record_layout(
        &self,
        bucket: &str,
        key: &str,
        epoch: u64,
        chunks: Vec<(u64, u64)>,
    ) -> bool {
        let h = object_hash(bucket, key);
        let mut shard = self.shard_of(bucket, key).lock();
        if *shard.epochs.get(&h).unwrap_or(&0) != epoch {
            return false;
        }
        // Persist the layout (once per distinct value) so a restart
        // keeps partial-hit scans chunk-granular instead of reloading
        // whole objects.
        let changed = shard
            .layouts
            .get(&h)
            .map(|prev| prev.as_ref() != chunks.as_slice())
            .unwrap_or(true);
        if changed {
            if let Some(ds) = self.inner.disk_store.as_ref() {
                ds.log_layout(bucket, key, epoch, &chunks);
            }
        }
        shard.layouts.insert(h, chunks.into());
        true
    }

    /// The recorded chunk layout of `bucket/key`, if a cold read has
    /// learned it (and no writer has invalidated it since).
    pub fn layout(&self, bucket: &str, key: &str) -> Option<Arc<[(u64, u64)]>> {
        let h = object_hash(bucket, key);
        self.shard_of(bucket, key).lock().layouts.get(&h).cloned()
    }

    /// What a partial-hit read of `bucket/key` (whose current size is
    /// `object_len`) would serve from each tier right now, and what the
    /// gaps would bill. Non-perturbing, like [`SegmentCache::peek`].
    pub fn occupancy(&self, bucket: &str, key: &str, object_len: u64) -> ObjectOccupancy {
        let h = object_hash(bucket, key);
        let shard = self.shard_of(bucket, key).lock();
        // A whole-object segment (the coarse read-through path) serves
        // everything from its tier, layout or not.
        let whole = SegmentKey::whole(bucket, key);
        if let Some(e) = shard.mem.get(&whole) {
            return ObjectOccupancy {
                mem_bytes: e.len,
                layout_known: true,
                ..Default::default()
            };
        }
        if let Some(e) = shard.disk.get(&whole) {
            return ObjectOccupancy {
                disk_bytes: e.len,
                layout_known: true,
                ..Default::default()
            };
        }
        let Some(layout) = shard.layouts.get(&h) else {
            return ObjectOccupancy {
                gap_bytes: object_len,
                gap_requests: 1,
                layout_known: false,
                ..Default::default()
            };
        };
        let mut occ = ObjectOccupancy {
            layout_known: true,
            ..Default::default()
        };
        let mut in_gap = false;
        for &range in layout.iter() {
            let len = range.1 - range.0;
            let skey = SegmentKey::chunk(bucket, key, range);
            if shard.mem.contains_key(&skey) {
                occ.mem_bytes += len;
                in_gap = false;
            } else if shard.disk.contains_key(&skey) {
                occ.disk_bytes += len;
                in_gap = false;
            } else {
                occ.gap_bytes += len;
                if !in_gap {
                    occ.gap_requests += 1;
                }
                in_gap = true;
            }
        }
        occ
    }

    /// Admit a fill of one segment observed at `epoch`. Returns whether
    /// the segment was stored (false: stale epoch, declined by
    /// admission, or larger than both tier budgets). Fills land in the
    /// mem tier — or straight in the disk tier when they are bigger than
    /// the whole mem budget — and evict minimum-weight segments (mem
    /// evictions demoting downward) until the fill fits.
    pub fn insert(&self, skey: SegmentKey, data: Bytes, epoch: u64) -> bool {
        let len = data.len() as u64;
        let c = &self.inner.counters;
        let target = if len <= self.inner.mem.budget {
            CacheTier::Mem
        } else if len <= self.inner.disk.budget {
            CacheTier::Disk
        } else {
            return false;
        };
        {
            let h = object_hash(&skey.bucket, &skey.key);
            let mut shard = self.shard_of(&skey.bucket, &skey.key).lock();
            if *shard.epochs.get(&h).unwrap_or(&0) != epoch {
                c.stale_fills.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if let CacheAdmission::ReuseDistance { window } = self.inner.admission {
                let tick = self.inner.fill_ticks.fetch_add(1, Ordering::Relaxed);
                let reused = shard
                    .ghosts
                    .get(&skey)
                    .is_some_and(|&last| tick.saturating_sub(last) <= window);
                shard.ghosts.insert(skey.clone(), tick);
                if shard.ghosts.len() > GHOSTS_PER_SHARD {
                    shard
                        .ghosts
                        .retain(|_, &mut last| tick.saturating_sub(last) <= window);
                }
                // Replacements and fills that fit spare budget always
                // admit; only eviction-forcing first touches go around.
                let resident = shard.tier(target).get(&skey).map(|e| e.len).unwrap_or(0);
                let tier = self.inner.tier(target);
                let would_evict = tier.used.load(Ordering::Relaxed) - resident + len > tier.budget;
                if would_evict && !reused {
                    c.read_arounds.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
            let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
            // One key never holds bytes in both tiers: drop any copy
            // left in the other tier by a concurrent fill + demotion.
            let other = match target {
                CacheTier::Mem => CacheTier::Disk,
                CacheTier::Disk => CacheTier::Mem,
            };
            if let Some(old) = shard.tier_mut(other).remove(&skey) {
                self.inner
                    .tier(other)
                    .used
                    .fetch_sub(old.len, Ordering::Relaxed);
                if matches!((other, &old.payload), (CacheTier::Disk, Payload::File)) {
                    if let Some(ds) = self.inner.disk_store.as_ref() {
                        ds.del(&skey);
                    }
                }
            }
            // Straight-to-disk fills reach the segment log before the
            // entry goes live (durable at the next commit); a failed
            // persist (I/O error or post-crash) falls back to a
            // RAM-resident disk entry, so the cache keeps working with
            // durability degraded rather than dropping the fill.
            let entry = match (target, self.inner.disk_store.as_ref()) {
                (CacheTier::Disk, Some(ds)) if ds.put(&skey, &data, epoch) => Entry {
                    payload: Payload::File,
                    len,
                    hits: 1,
                    seq,
                },
                _ => Entry::ram(data, 1, seq),
            };
            let old = shard.tier_mut(target).insert(skey, entry);
            let old_len = old.map(|e| e.len).unwrap_or(0);
            let tier = self.inner.tier(target);
            tier.used.fetch_add(len, Ordering::Relaxed);
            tier.used.fetch_sub(old_len, Ordering::Relaxed);
            c.fills.fetch_add(1, Ordering::Relaxed);
            c.fill_bytes.fetch_add(len, Ordering::Relaxed);
        }
        self.evict_tier_to_budget(target);
        true
    }

    /// Evict minimum-weight (dollars-saved-per-byte × hits) segments
    /// from one tier until its usage fits its budget. Deterministic:
    /// ties break toward the oldest insertion. Mem evictions **demote**
    /// the segment into the disk tier (when it fits that budget) instead
    /// of dropping it; disk evictions drop for real. One pass collects
    /// candidates in ascending weight order and evicts enough of them to
    /// cover the overshoot, so a large over-budget insert costs one
    /// cache traversal, not one per evicted segment; the outer loop only
    /// re-runs if concurrent inserts pushed usage back over the budget
    /// mid-eviction.
    fn evict_tier_to_budget(&self, tier: CacheTier) {
        let st = self.inner.tier(tier);
        let c = &self.inner.counters;
        let mut demoted_any = false;
        while st.used.load(Ordering::Relaxed) > st.budget {
            let overshoot = st.used.load(Ordering::Relaxed) - st.budget;
            // Candidates in one pass, one shard lock at a time.
            let mut candidates: Vec<(f64, u64, usize, SegmentKey)> = Vec::new();
            for (i, shard) in self.inner.shards.iter().enumerate() {
                let shard = shard.lock();
                for (k, e) in shard.tier(tier).iter() {
                    candidates.push((e.weight(&self.inner.pricing), e.seq, i, k.clone()));
                }
            }
            if candidates.is_empty() {
                break; // nothing left to evict
            }
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
            let mut freed = 0u64;
            for (_, _, i, key) in candidates {
                if freed >= overshoot {
                    break;
                }
                let mut shard = self.inner.shards[i].lock();
                let Some(mut e) = shard.tier_mut(tier).remove(&key) else {
                    continue; // vanished concurrently
                };
                let len = e.len;
                freed += len;
                st.used.fetch_sub(len, Ordering::Relaxed);
                match tier {
                    CacheTier::Mem => {
                        c.evictions.fetch_add(1, Ordering::Relaxed);
                        if len <= self.inner.disk.budget {
                            // Demote under the same shard lock: keeps
                            // the hit count, takes a fresh seq. With a
                            // persistent store the bytes move into the
                            // segment log (durable at the next commit);
                            // a failed persist keeps them in RAM with
                            // durability degraded.
                            e.seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
                            if let (Payload::Ram(data), Some(ds)) =
                                (&e.payload, self.inner.disk_store.as_ref())
                            {
                                let epoch = *shard
                                    .epochs
                                    .get(&object_hash(&key.bucket, &key.key))
                                    .unwrap_or(&0);
                                if ds.put(&key, data, epoch) {
                                    e.payload = Payload::File;
                                }
                            }
                            if let Some(old) = shard.disk.insert(key, e) {
                                self.inner.disk.used.fetch_sub(old.len, Ordering::Relaxed);
                            }
                            self.inner.disk.used.fetch_add(len, Ordering::Relaxed);
                            c.demotions.fetch_add(1, Ordering::Relaxed);
                            demoted_any = true;
                        }
                    }
                    CacheTier::Disk => {
                        c.disk_evictions.fetch_add(1, Ordering::Relaxed);
                        if matches!(e.payload, Payload::File) {
                            if let Some(ds) = self.inner.disk_store.as_ref() {
                                ds.del(&key);
                            }
                        }
                    }
                }
            }
            if freed == 0 {
                break; // every candidate vanished concurrently
            }
        }
        // Demotions may have pushed the disk tier over its own budget.
        if demoted_any {
            self.evict_tier_to_budget(CacheTier::Disk);
        }
    }

    /// Drop every segment of `bucket/key` from both tiers, forget its
    /// chunk layout, and bump its epoch, so in-flight fills of the old
    /// bytes are discarded on arrival.
    pub fn invalidate(&self, bucket: &str, key: &str) {
        let h = object_hash(bucket, key);
        let mut shard = self.shard_of(bucket, key).lock();
        let epoch = {
            let e = shard.epochs.entry(h).or_insert(0);
            *e += 1;
            *e
        };
        shard.layouts.remove(&h);
        for tier in [CacheTier::Mem, CacheTier::Disk] {
            let doomed: Vec<SegmentKey> = shard
                .tier(tier)
                .keys()
                .filter(|k| k.bucket == bucket && k.key == key)
                .cloned()
                .collect();
            let mut freed = 0u64;
            for k in doomed {
                if let Some(e) = shard.tier_mut(tier).remove(&k) {
                    freed += e.len;
                }
            }
            if freed > 0 {
                self.inner
                    .tier(tier)
                    .used
                    .fetch_sub(freed, Ordering::Relaxed);
            }
        }
        // Make the bump durable (one Epoch record, committed before
        // this returns) so a recovery can never resurrect the dropped
        // segments; logged while the shard lock pins out concurrent
        // fills of the old epoch.
        if let Some(ds) = self.inner.disk_store.as_ref() {
            ds.bump_epoch(bucket, key, epoch);
        }
        self.inner
            .counters
            .invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        let c = &self.inner.counters;
        let (persisted_bytes, fsyncs) = self.persist_counters();
        let (commits, compactions) = self
            .inner
            .disk_store
            .as_ref()
            .map(|d| d.commit_counters())
            .unwrap_or((0, 0));
        let (mut segments, mut disk_segments) = (0u64, 0u64);
        for s in self.inner.shards.iter() {
            let s = s.lock();
            segments += s.mem.len() as u64;
            disk_segments += s.disk.len() as u64;
        }
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            hit_bytes: c.hit_bytes.load(Ordering::Relaxed),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            disk_hit_bytes: c.disk_hit_bytes.load(Ordering::Relaxed),
            fills: c.fills.load(Ordering::Relaxed),
            fill_bytes: c.fill_bytes.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            demotions: c.demotions.load(Ordering::Relaxed),
            promotions: c.promotions.load(Ordering::Relaxed),
            disk_evictions: c.disk_evictions.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            stale_fills: c.stale_fills.load(Ordering::Relaxed),
            read_arounds: c.read_arounds.load(Ordering::Relaxed),
            used_bytes: self.used_bytes(),
            budget_bytes: self.inner.mem.budget,
            segments,
            disk_used_bytes: self.disk_used_bytes(),
            disk_budget_bytes: self.inner.disk.budget,
            disk_segments,
            recovered_segments: c.recovered_segments.load(Ordering::Relaxed),
            recovered_bytes: c.recovered_bytes.load(Ordering::Relaxed),
            persisted_bytes,
            fsyncs,
            commits,
            compactions,
        }
    }
}

impl std::fmt::Debug for SegmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SegmentCache")
            .field("used_bytes", &s.used_bytes)
            .field("budget_bytes", &s.budget_bytes)
            .field("disk_used_bytes", &s.disk_used_bytes)
            .field("disk_budget_bytes", &s.disk_budget_bytes)
            .field("segments", &s.segments)
            .field("disk_segments", &s.disk_segments)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(budget: u64) -> SegmentCache {
        SegmentCache::new(budget, Pricing::us_east())
    }

    fn whole(key: &str) -> SegmentKey {
        SegmentKey::whole("b", key)
    }

    fn fill(c: &SegmentCache, key: &str, len: usize) -> bool {
        let skey = whole(key);
        let epoch = c.begin_fill(&skey);
        c.insert(skey, Bytes::from(vec![0u8; len]), epoch)
    }

    #[test]
    fn fill_then_hit_round_trip() {
        let c = cache(1000);
        assert!(c.get(&whole("k")).is_none(), "cold cache misses");
        assert!(fill(&c, "k", 100));
        let got = c.get(&whole("k")).expect("hit after fill");
        assert_eq!(got.len(), 100);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 1, 1));
        assert_eq!(s.hit_bytes, 100);
        assert_eq!(s.fill_bytes, 100);
        assert_eq!(s.used_bytes, 100);
        assert_eq!(s.segments, 1);
    }

    #[test]
    fn peek_does_not_count_or_touch() {
        let c = cache(1000);
        assert!(c.peek(&whole("k")).is_none());
        fill(&c, "k", 64);
        assert_eq!(c.peek(&whole("k")), Some(64));
        let s = c.stats();
        assert_eq!(s.hits, 0, "peek never counts as an access");
        assert_eq!(s.misses, 0, "peek never counts as a miss");
    }

    #[test]
    fn oversized_segments_and_zero_budget_are_rejected() {
        let c = cache(10);
        assert!(!fill(&c, "big", 11));
        assert_eq!(c.stats().segments, 0);
        let off = cache(0);
        assert!(!fill(&off, "k", 1));
        assert_eq!(off.used_bytes(), 0);
    }

    #[test]
    fn eviction_is_weighted_lfu_by_dollars_saved_per_byte() {
        let c = cache(250);
        fill(&c, "hot", 100);
        fill(&c, "cold", 100);
        // Make `hot` measurably more valuable per byte.
        for _ in 0..5 {
            c.get(&whole("hot")).unwrap();
        }
        // A third fill forces one eviction; `cold` has the lowest
        // hits × $/byte weight.
        fill(&c, "new", 100);
        assert!(c.peek(&whole("hot")).is_some(), "hot survives");
        assert!(c.peek(&whole("cold")).is_none(), "cold evicted");
        assert!(c.peek(&whole("new")).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.used_bytes() <= 250);
    }

    #[test]
    fn eviction_ties_break_toward_oldest() {
        let c = cache(250);
        fill(&c, "a", 100); // same size, same hits=1 ⇒ same weight
        fill(&c, "b2", 100);
        fill(&c, "c", 100);
        assert!(c.peek(&whole("a")).is_none(), "oldest evicted on a tie");
        assert!(c.peek(&whole("b2")).is_some());
        assert!(c.peek(&whole("c")).is_some());
    }

    #[test]
    fn smaller_segments_weigh_more_per_byte() {
        // Equal hit counts: the small segment's avoided *request* dollars
        // spread over fewer bytes, so the big one evicts first.
        let c = cache(1100);
        fill(&c, "small", 100);
        fill(&c, "big", 1000);
        fill(&c, "tiny", 50); // overflow by 50 ⇒ one eviction
        assert!(c.peek(&whole("big")).is_none(), "big segment evicted");
        assert!(c.peek(&whole("small")).is_some());
        assert!(c.peek(&whole("tiny")).is_some());
    }

    #[test]
    fn invalidation_removes_and_outdates_in_flight_fills() {
        let c = cache(1000);
        fill(&c, "k", 100);
        assert!(c.peek(&whole("k")).is_some());
        // A fill begun before the invalidation must be discarded.
        let epoch = c.begin_fill(&whole("k"));
        c.invalidate("b", "k");
        assert!(c.peek(&whole("k")).is_none(), "segments dropped");
        assert!(
            !c.insert(whole("k"), Bytes::from_static(b"stale"), epoch),
            "stale fill rejected"
        );
        assert!(c.peek(&whole("k")).is_none());
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.stale_fills, 1);
        assert_eq!(s.used_bytes, 0);
        // A fresh fill under the new epoch is admitted.
        assert!(fill(&c, "k", 10));
        assert_eq!(c.peek(&whole("k")), Some(10));
    }

    #[test]
    fn replacing_a_segment_does_not_leak_budget() {
        let c = cache(1000);
        fill(&c, "k", 400);
        fill(&c, "k", 300); // same key, new bytes
        assert_eq!(c.used_bytes(), 300);
        assert_eq!(c.stats().segments, 1);
    }

    #[test]
    fn clones_share_state_and_concurrent_use_is_safe() {
        let c = cache(100_000);
        let c2 = c.clone();
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let key = format!("k-{t}-{i}");
                        let sk = SegmentKey::whole("b", &key);
                        let e = c.begin_fill(&sk);
                        c.insert(sk, Bytes::from(vec![0u8; 16]), e);
                        assert!(c.get(&SegmentKey::whole("b", &key)).is_some());
                    }
                });
            }
        });
        let s = c2.stats();
        assert_eq!(s.fills, 200);
        assert_eq!(s.hits, 200);
        assert!(s.used_bytes <= 100_000);
    }

    fn reuse_cache(budget: u64, window: u64) -> SegmentCache {
        SegmentCache::with_admission(
            budget,
            Pricing::us_east(),
            CacheAdmission::ReuseDistance { window },
        )
    }

    #[test]
    fn reuse_distance_admits_freely_while_budget_is_spare() {
        let c = reuse_cache(1000, 8);
        // Nothing to evict yet: first touches admit like AdmitAll.
        assert!(fill(&c, "a", 400));
        assert!(fill(&c, "b", 400));
        assert_eq!(c.stats().read_arounds, 0);
        assert_eq!(c.stats().segments, 2);
    }

    #[test]
    fn one_off_scans_go_read_around_instead_of_churning_the_hot_tail() {
        let c = reuse_cache(1000, 8);
        fill(&c, "hot", 500);
        fill(&c, "warm", 500);
        for _ in 0..3 {
            c.get(&whole("hot")).unwrap();
        }
        // A full cache + a never-seen segment: declined — under AdmitAll
        // this fill would have evicted `warm` only to be evicted itself
        // by the next such one-off (churn with zero hit value).
        assert!(!fill(&c, "oneoff", 500), "first touch reads around");
        assert!(c.peek(&whole("hot")).is_some());
        assert!(c.peek(&whole("warm")).is_some());
        let s = c.stats();
        assert_eq!(s.read_arounds, 1);
        assert_eq!(s.evictions, 0);
        // The same segment attempted again within the window proves
        // reuse and is admitted — displacing the coldest resident
        // (`warm`, equal weight but older), never the hot tail.
        assert!(fill(&c, "oneoff", 500), "second touch admits");
        assert!(c.peek(&whole("oneoff")).is_some());
        assert!(c.peek(&whole("hot")).is_some(), "hot tail intact");
        assert!(c.peek(&whole("warm")).is_none());
        assert_eq!(c.stats().read_arounds, 1);
    }

    #[test]
    fn reuse_outside_the_window_does_not_count() {
        let c = reuse_cache(100, 2);
        fill(&c, "keep", 100);
        assert!(!fill(&c, "x", 100), "x: first touch");
        // Three other fill attempts push x's ghost out of the window.
        for k in ["p", "q", "r"] {
            assert!(!fill(&c, k, 100));
        }
        assert!(!fill(&c, "x", 100), "x's reuse distance exceeds window");
        // Attempted again immediately (distance 1 ≤ window): admitted.
        assert!(fill(&c, "x", 100));
    }

    #[test]
    fn replacing_a_resident_segment_is_not_read_around() {
        // A same-key refill displaces only itself — admission must not
        // count the bytes it replaces as an eviction.
        let c = reuse_cache(100, 4);
        fill(&c, "k", 100);
        assert!(fill(&c, "k", 100), "replacement admits");
        assert_eq!(c.stats().read_arounds, 0);
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn admit_all_remains_the_default() {
        let c = cache(1000);
        assert_eq!(c.admission(), CacheAdmission::AdmitAll);
        assert_eq!(
            reuse_cache(10, 3).admission(),
            CacheAdmission::ReuseDistance { window: 3 }
        );
    }

    #[test]
    fn raising_the_scan_price_raises_every_weight() {
        let pricey = Pricing {
            scan_per_gb: 0.2,
            ..Pricing::us_east()
        };
        let e = Entry::ram(Bytes::from(vec![0u8; 1000]), 3, 0);
        assert!(e.weight(&pricey) > e.weight(&Pricing::us_east()));
    }

    // ------------------------------------------------------------------
    // Two-tier behavior.
    // ------------------------------------------------------------------

    fn tiered(mem: u64, disk: u64) -> SegmentCache {
        SegmentCache::tiered(mem, disk, Pricing::us_east())
    }

    #[test]
    fn mem_eviction_demotes_to_disk_and_a_disk_hit_promotes_back() {
        let c = tiered(100, 1000);
        fill(&c, "a", 100);
        fill(&c, "b", 100); // evicts a → disk
        assert_eq!(c.peek_tier(&whole("a")), Some((100, CacheTier::Disk)));
        assert_eq!(c.peek_tier(&whole("b")), Some((100, CacheTier::Mem)));
        let s = c.stats();
        assert_eq!((s.evictions, s.demotions, s.disk_evictions), (1, 1, 0));
        assert_eq!((s.used_bytes, s.disk_used_bytes), (100, 100));
        // A disk hit serves the bytes and moves them back up, pushing b
        // down in turn.
        let (data, tier) = c.get_tiered(&whole("a")).expect("disk hit");
        assert_eq!((data.len(), tier), (100, CacheTier::Disk));
        assert_eq!(c.peek_tier(&whole("a")), Some((100, CacheTier::Mem)));
        assert_eq!(c.peek_tier(&whole("b")), Some((100, CacheTier::Disk)));
        let s = c.stats();
        assert_eq!((s.disk_hits, s.disk_hit_bytes), (1, 100));
        assert_eq!(s.promotions, 1);
        assert_eq!(s.hits, 1, "a disk hit is still a hit");
        assert_eq!((s.used_bytes, s.disk_used_bytes), (100, 100));
    }

    #[test]
    fn mem_only_cache_drops_evictions_exactly_as_before() {
        let c = cache(100); // disk budget 0
        fill(&c, "a", 100);
        fill(&c, "b", 100);
        assert!(c.peek(&whole("a")).is_none(), "no disk tier to demote to");
        let s = c.stats();
        assert_eq!((s.evictions, s.demotions), (1, 0));
        assert_eq!(s.disk_used_bytes, 0);
    }

    #[test]
    fn disk_tier_evicts_lowest_weight_for_real_when_full() {
        let c = tiered(100, 200);
        fill(&c, "a", 100); // → mem
        fill(&c, "b", 100); // a → disk
        fill(&c, "c", 100); // b → disk
        fill(&c, "d", 100); // c → disk; disk over budget → a dropped (oldest demotion, equal weight)
        assert!(c.peek(&whole("a")).is_none(), "a fell off the bottom");
        assert_eq!(c.peek_tier(&whole("b")), Some((100, CacheTier::Disk)));
        assert_eq!(c.peek_tier(&whole("c")), Some((100, CacheTier::Disk)));
        assert_eq!(c.peek_tier(&whole("d")), Some((100, CacheTier::Mem)));
        let s = c.stats();
        assert_eq!(s.disk_evictions, 1);
        assert_eq!(s.demotions, 3);
        assert!(s.disk_used_bytes <= 200);
    }

    #[test]
    fn fills_bigger_than_mem_go_straight_to_disk() {
        let c = tiered(100, 1000);
        assert!(fill(&c, "big", 500));
        assert_eq!(c.peek_tier(&whole("big")), Some((500, CacheTier::Disk)));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.disk_used_bytes(), 500);
        // Served in place — never promoted into a tier it cannot fit.
        let (_, tier) = c.get_tiered(&whole("big")).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(c.stats().promotions, 0);
        // Bigger than both budgets: rejected outright.
        assert!(!fill(&c, "huge", 2000));
    }

    #[test]
    fn invalidation_clears_both_tiers_and_the_layout() {
        let c = tiered(100, 1000);
        fill(&c, "a", 100);
        fill(&c, "b", 100); // a → disk
        let e = c.begin_fill(&whole("a"));
        assert!(c.record_layout("b", "a", e, vec![(0, 100)]));
        c.invalidate("b", "a");
        assert!(c.peek(&whole("a")).is_none());
        assert!(c.layout("b", "a").is_none());
        assert_eq!(c.disk_used_bytes(), 0);
        assert_eq!(c.peek_tier(&whole("b")), Some((100, CacheTier::Mem)));
    }

    #[test]
    fn stale_layouts_are_not_recorded() {
        let c = tiered(100, 0);
        let e = c.begin_fill(&whole("k"));
        c.invalidate("b", "k");
        assert!(!c.record_layout("b", "k", e, vec![(0, 10)]));
        assert!(c.layout("b", "k").is_none());
    }

    fn chunk_fill(c: &SegmentCache, key: &str, range: (u64, u64)) -> bool {
        let skey = SegmentKey::chunk("b", key, range);
        let epoch = c.begin_fill(&skey);
        let len = (range.1 - range.0) as usize;
        c.insert(skey, Bytes::from(vec![0u8; len]), epoch)
    }

    #[test]
    fn occupancy_reports_per_tier_bytes_and_coalesced_gap_requests() {
        let c = tiered(200, 200);
        // Unknown layout: the whole object is one gap.
        let occ = c.occupancy("b", "k", 500);
        assert_eq!((occ.gap_bytes, occ.gap_requests), (500, 1));
        assert!(!occ.layout_known);
        // Five 100-byte chunks; cache chunks 0 and 3.
        let e = c.begin_fill(&whole("k"));
        let layout: Vec<(u64, u64)> = (0..5).map(|i| (i * 100, (i + 1) * 100)).collect();
        assert!(c.record_layout("b", "k", e, layout));
        assert!(chunk_fill(&c, "k", (0, 100)));
        assert!(chunk_fill(&c, "k", (300, 400)));
        let occ = c.occupancy("b", "k", 500);
        assert!(occ.layout_known);
        assert_eq!(occ.mem_bytes, 200);
        assert_eq!(occ.gap_bytes, 300);
        // Chunks 1+2 coalesce into one GET; chunk 4 is its own.
        assert_eq!(occ.gap_requests, 2);
        // Demote chunk (0,100) by filling past the mem budget: the
        // occupancy moves between tiers but the gaps are unchanged.
        assert!(chunk_fill(&c, "k", (100, 200)));
        let occ = c.occupancy("b", "k", 500);
        assert_eq!(occ.mem_bytes + occ.disk_bytes, 300);
        assert!(occ.disk_bytes > 0, "something was demoted");
        assert_eq!((occ.gap_bytes, occ.gap_requests), (200, 2));
    }

    #[test]
    fn occupancy_counts_a_whole_object_segment_as_fully_resident() {
        let c = tiered(1000, 0);
        fill(&c, "k", 400);
        let occ = c.occupancy("b", "k", 400);
        assert_eq!(occ.mem_bytes, 400);
        assert_eq!((occ.gap_bytes, occ.gap_requests), (0, 0));
        assert!(occ.layout_known);
    }

    #[test]
    fn reuse_ghosts_key_per_segment_not_per_object() {
        // Satellite regression: one hot chunk of an object must not
        // vouch admission for its never-reused sibling chunks.
        let c = SegmentCache::tiered_with_admission(
            200,
            0,
            Pricing::us_east(),
            CacheAdmission::ReuseDistance { window: 16 },
        );
        // Fill the budget with two other segments, so admitting one
        // chunk evicts exactly one of them and the cache stays full.
        assert!(fill(&c, "r1", 100));
        assert!(fill(&c, "r2", 100));
        // Chunk (0,100) of `t` proves reuse: first touch reads around,
        // second admits.
        assert!(!chunk_fill(&c, "t", (0, 100)), "first touch reads around");
        assert!(chunk_fill(&c, "t", (0, 100)), "second touch admits");
        // Its sibling chunk (100,200) has never been attempted — the hot
        // sibling must not admit it.
        assert!(
            !chunk_fill(&c, "t", (100, 200)),
            "never-reused sibling chunk reads around"
        );
        let s = c.stats();
        assert_eq!(s.read_arounds, 2);
        assert!(c.peek(&SegmentKey::chunk("b", "t", (0, 100))).is_some());
        assert!(c.peek(&SegmentKey::chunk("b", "t", (100, 200))).is_none());
    }

    #[test]
    fn hit_counts_survive_promotion_and_demotion() {
        let c = tiered(100, 200);
        fill(&c, "b", 100);
        fill(&c, "c", 100); // b (older, equal weight) → disk
                            // Disk hit: b promoted back with 2 accesses, c demoted.
        c.get(&whole("b")).unwrap();
        assert_eq!(c.peek_tier(&whole("b")), Some((100, CacheTier::Mem)));
        assert_eq!(c.peek_tier(&whole("c")), Some((100, CacheTier::Disk)));
        // A fresh fill must displace itself (1 access), not the
        // twice-accessed b. If promotion or demotion had reset b's hit
        // count, the equal-weight tie would have demoted b here.
        fill(&c, "d", 100);
        assert_eq!(c.peek_tier(&whole("b")), Some((100, CacheTier::Mem)));
        assert_eq!(c.peek_tier(&whole("d")), Some((100, CacheTier::Disk)));
    }
}
