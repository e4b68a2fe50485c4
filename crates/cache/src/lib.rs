//! # pushdown-cache
//!
//! The local caching tier of the hybrid execution model (FlexPushdownDB,
//! VLDB'21, adapted to this engine): a concurrency-safe, **two-tier**
//! segment cache that the planner prices *with the same cost model* as
//! pushdown and remote scans, so "serve the hot segments locally for $0
//! and push down only the cold tail" falls out of the ordinary
//! argmin-dollar plan choice instead of being a bolt-on memo table.
//!
//! # One table, one lock
//!
//! Residency is one `HashMap<SegmentKey, Entry>` beside the object
//! epochs, the objects' rents, the per-tier byte totals and the
//! counters, all plain fields behind **one mutex**. The tier is an attribute of
//! the entry, and so is where its bytes live:
//! `Entry.bytes` is `Some` for bytes held in RAM and `None` for bytes in
//! the segment log of a file-backed cache ([`CacheConfig::dir`]). Every
//! public operation is one critical section: a lookup is one probe, a
//! promotion or demotion flips `tier` (and `bytes`) in place, and an
//! insert, the evictions it forces, the demotions those cause and the
//! disk evictions *those* cause all happen before the lock is released —
//! no thread ever observes a tier over budget, a segment in two tiers,
//! or a counter that disagrees with the table. The segment log has its
//! own mutex, always taken second. One lock is enough: the busiest
//! cached benchmark workload makes ~6 000 tier moves a second over ~200
//! resident segments, three orders of magnitude under what an
//! uncontended mutex serves, and the file-backed tier was serialized by
//! the log's mutex all along.
//!
//! # Reads, then effects: one mutation path
//!
//! A lookup comes in two halves. [`SegmentCache::read`] reports what a
//! segment's lookup sees — its bytes and tier, or a miss — as an
//! [`Access`], and changes nothing. [`SegmentCache::apply`] takes an
//! ordered log of accesses — hits with their promotions, fills with their
//! epochs and the evictions they force, accrued rent — and applies it in
//! one critical section. That is the only way the table changes
//! (invalidation aside): [`SegmentCache::get_tiered`] and
//! [`SegmentCache::insert`] are a read and an apply of one access under
//! one lock, and applying a log in
//! one call leaves exactly what applying its accesses one by one does.
//! A reader that works on many threads at once — a scan's partition
//! workers — only reads, keeps each partition's log, and has the logs
//! applied in partition order once the scan is done (the store crate's
//! `read_object_chunked_cached_with` is that read half). So eviction
//! order and tier placement follow the order of the work, not the order
//! in which threads happened to finish it.
//!
//! # Segments and chunk layouts
//!
//! A segment is one contiguous byte range of one object —
//! `(bucket, key, range)` ([`SegmentKey`]). The read-through path caches
//! at **chunk granularity**, along the object's **chunk layout**: sorted
//! ranges covering it, ColumnarLite column-chunk extents (the footer a
//! segment of its own) or fixed CSV blocks. The cache does not keep
//! layouts: they are fixed when the object is written, so the reader
//! hands one in with every call — the engine takes it from its catalog
//! — and [`normalize_chunk_layout`] collapses one that does not cover the
//! object's current length to a single whole-object chunk. A scan serves
//! the chunks it finds locally and fetches only the gaps;
//! [`SegmentCache::occupancy`] reports exactly that split (including how
//! many coalesced range GETs the gaps would cost), which is what the cost
//! estimator prices.
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
//!
//!   segment log: one Put when a segment first reaches the disk tier,
//!   kept through promote and demote, one Del when it leaves the cache
//! ```
//!
//! * **Demote-on-evict** — a segment evicted from mem moves to the disk
//!   tier (keeping its hit count) instead of being dropped, as long as
//!   it fits the disk budget.
//! * **Promote-on-hit** — a disk hit is served (billed as local disk
//!   bytes by the perf model) and the segment moves back up to mem.
//! * Every fill that fits a tier is admitted: it lands in mem, or
//!   straight in disk when it is larger than the whole mem budget and
//!   fits there, and evicts down to budget.
//!
//! Both tiers run the same dollars-saved-per-byte eviction, and the two
//! backings of the disk tier are one behaviour: a file-backed cache
//! makes every decision a RAM-backed one makes (`tests/cache_model.rs`
//! drives both against one reference model). It only decides what
//! reaches the segment log, and writes each segment there once: a
//! promoted segment keeps its log copy, so demoting it again drops its
//! RAM bytes and flips its tier with no I/O, and only a segment without
//! a live copy is appended. The log thus holds the disk tier plus at
//! most `mem_bytes` of promoted copies, and a restart recovers both
//! (disk-tier, mem cold). When a persist fails, or after a crash, bytes
//! stay in RAM, so the cache keeps working with durability degraded.
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
//! tier move counts as a fresh insertion into that tier), so eviction
//! order is deterministic in each tier.
//!
//! # Rent
//!
//! Beside residency, under the same lock, the cache keeps a **rent** per
//! object: the dollars that reading it remotely has left on the table so
//! far (`State::rents`). The planner's ski rental over cache fills
//! (rent-or-buy; Karlin et al., Algorithmica 1988) accrues it — an
//! [`Access::Rent`] applied at a query's commit point, after the query
//! ran a plan that read the object remotely where a plan reading it from
//! the cache would have been cheaper — and credits a candidate that
//! would fill the object with it ([`SegmentCache::rent`]). Applying a
//! fill zeroes the object's rent: the fill is the purchase. Rent is
//! never negative, and it is soft state: a recovered cache starts with
//! none.
//!
//! # Invalidation & epochs
//!
//! Writers (the store crate's `put_object`/`delete_object`, which reach
//! every cache attached to the store) call [`SegmentCache::invalidate`],
//! which removes every segment of the object from both tiers *and*
//! bumps the object's **epoch**. Fills are
//! epoch-tagged: a read-through fill records the epoch *before* issuing
//! its GET ([`SegmentCache::begin_fill`]) and the fill is discarded if
//! the epoch moved before it is applied — an in-flight query racing a writer can
//! never publish stale bytes into the cache, while the bytes it already
//! holds stay consistent for the remainder of its own scan (exactly the
//! snapshot a cache-less scan would have seen). A hit applied after the
//! object's epoch moved counts as served but no longer touches the
//! segment (whatever is resident now is another version's). Tier
//! movement needs no other epoch check: it happens under the lock
//! invalidation takes.

use bytes::Bytes;
use parking_lot::Mutex;
use pushdown_common::mix::fnv1a;
use pushdown_common::pricing::Pricing;
use pushdown_common::Result;
use std::cmp::Reverse;
use std::collections::hash_map::Entry as Slot;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Weak};

pub mod store;

pub use store::{KillPlan, ManifestStats};

use store::DiskStore;

/// Current length + content digest of one object range, as reported by
/// the catalog during recovery — `None` when the object is gone or the
/// range no longer fits it. Ranges use the cache's `[first, last)`
/// convention with [`FULL_OBJECT`] standing for the whole object.
pub type CatalogProbe<'a> = &'a dyn Fn(&str, &str, (u64, u64)) -> Option<(u64, u64)>;

const GB: f64 = 1_000_000_000.0;

/// The byte range standing for "the whole object".
pub const FULL_OBJECT: (u64, u64) = (0, u64::MAX);

/// Everything that configures a cache ([`SegmentCache::open`]): two tier
/// budgets and where the disk tier keeps its bytes. There is no admission
/// setting — every fill that fits a tier is admitted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Mem-tier budget. Zero admits nothing into mem.
    pub mem_bytes: u64,
    /// Disk-tier budget. Zero means mem evictions drop instead of
    /// demoting.
    pub disk_bytes: u64,
    /// `Some`: the disk tier's bytes live in a segment log under this
    /// directory and survive restarts (see the [`store`] module docs).
    /// `None`: the disk tier is simulated in RAM and persists nothing.
    pub dir: Option<PathBuf>,
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
        SegmentKey::chunk(bucket, key, FULL_OBJECT)
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

/// One entry of an access log: what a lookup saw ([`SegmentCache::read`]),
/// a fill or accrued rent — and so what [`SegmentCache::apply`] does to
/// the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// A lookup served `data` from `tier` while the object was at
    /// `epoch`. Applied: counted as a hit; if the segment is still the
    /// one read, its access count rises and, on the disk tier, it is
    /// promoted to mem (which may demote colder segments).
    Hit {
        key: SegmentKey,
        tier: CacheTier,
        data: Bytes,
        epoch: u64,
    },
    /// A lookup found nothing — or found a segment whose durable copy
    /// did not read back (`lost`), which the apply drops while its bytes
    /// are still only in the segment log.
    Miss { key: SegmentKey, lost: bool },
    /// A read-through fill of `data`, fetched after
    /// [`SegmentCache::begin_fill`] returned `epoch`. Applied: admitted
    /// like [`SegmentCache::insert`], evicting down to budget.
    Fill {
        key: SegmentKey,
        data: Bytes,
        epoch: u64,
    },
    /// `dollars` of rent accrued by `bucket/key` (see the module docs);
    /// a negative amount adds nothing.
    Rent {
        bucket: String,
        key: String,
        dollars: f64,
    },
}

impl Access {
    /// The bytes a lookup served and the tier that held them; `None` for
    /// a miss, a fill or rent.
    pub fn served(&self) -> Option<(Bytes, CacheTier)> {
        match self {
            Access::Hit { tier, data, .. } => Some((data.clone(), *tier)),
            _ => None,
        }
    }
}

struct Entry {
    tier: CacheTier,
    /// The segment's bytes, or `None` when they live only in the segment
    /// log (serving a hit reads them back). Only disk-tier entries of a
    /// file-backed cache are `None`, and only while persisting works: a
    /// failed persist, or any persist after a crash, leaves the bytes
    /// here, so the cache keeps working with durability degraded.
    /// Whether the log holds a copy is the store's one record (its live
    /// `Put`s): a promoted segment is `Some` and keeps its copy there.
    bytes: Option<Bytes>,
    len: u64,
    /// Accesses since insertion (the fill counts as the first). Survives
    /// tier moves — dollars-saved value moves with the bytes.
    hits: u64,
    /// Insertion order, for deterministic eviction tie-breaks. A tier
    /// move assigns a fresh seq (it is an insertion into that tier).
    seq: u64,
}

impl Entry {
    /// Dollars a future access saves per cached byte: the avoided Select
    /// scan of these bytes plus the avoided GET request, normalized by
    /// segment size, times how often the segment is actually hit.
    fn weight(&self, pricing: &Pricing) -> f64 {
        let len = (self.len as f64).max(1.0);
        let per_access = pricing.scan_per_gb / GB + pricing.per_1k_requests / 1000.0 / len;
        self.hits as f64 * per_access
    }
}

/// Take the next value of a counter.
fn bump(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter - 1
}

fn object_hash(bucket: &str, key: &str) -> u64 {
    fnv1a(
        bucket
            .bytes()
            .chain(std::iter::once(b'\0'))
            .chain(key.bytes()),
    )
}

/// Point-in-time cache observability (EXPLAIN's cache line, the cache
/// figure's per-tier cells).
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
    /// Always 0: every fill that fits a tier is admitted. Kept for the
    /// frozen benchmark, which reports it.
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
    /// Segments rebuilt from the manifest, into the disk tier, when the
    /// cache was opened (zero for caches without a directory).
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
    /// Whether the layout's last chunk — a trailer such as ColumnarLite's
    /// footer — is resident: what lets a read ask for only the segments
    /// the trailer names instead of every chunk.
    pub trailer_resident: bool,
}

/// Sanity-check a chunk layout against the object's current length:
/// sorted, non-empty ranges covering `[0, len)` contiguously. Anything
/// else — a buggy layout, or extents written down for another version of
/// the object — collapses to one whole-object chunk, so a wrong layout
/// degrades to the coarse path rather than a torn read.
pub fn normalize_chunk_layout(mut chunks: Vec<(u64, u64)>, len: u64) -> Vec<(u64, u64)> {
    if len == 0 {
        return Vec::new();
    }
    chunks.retain(|&(first, last)| last > first);
    chunks.sort_unstable();
    let contiguous = chunks.first().is_some_and(|c| c.0 == 0)
        && chunks.last().is_some_and(|c| c.1 == len)
        && chunks.windows(2).all(|w| w[0].1 == w[1].0);
    if contiguous {
        chunks
    } else {
        vec![(0, len)]
    }
}

/// Everything the cache knows, behind [`Inner::state`]'s one lock.
#[derive(Default)]
struct State {
    /// The residency table: every cached segment, whichever tier.
    entries: HashMap<SegmentKey, Entry>,
    /// Object-hash → epoch; bumped by every invalidation of the object.
    epochs: HashMap<u64, u64>,
    /// Object-hash → rent in dollars (absent: none), reset by a fill.
    rents: HashMap<u64, f64>,
    /// Resident bytes per tier, indexed by `CacheTier as usize`.
    used: [u64; 2],
    seq: u64,
    /// The event counters; [`SegmentCache::stats`] fills in the rest.
    stats: CacheStats,
}

impl State {
    fn epoch(&self, bucket: &str, key: &str) -> u64 {
        *self.epochs.get(&object_hash(bucket, key)).unwrap_or(&0)
    }

    /// Rebuild residency from what the store replayed: every live `Put`
    /// — the disk tier at shutdown and the mem segments promoted from it
    /// — comes back disk-tier (hits reset to 1, seqs in replay order),
    /// trimmed to the disk budget oldest `Put` first; mem stays cold.
    /// Epochs are seeded from the manifest so later fills and
    /// invalidations stay consistent with what is durable.
    fn restore(
        &mut self,
        recovery: store::Recovery,
        ds: &DiskStore,
        disk_bytes: u64,
        catalog: Option<CatalogProbe<'_>>,
    ) {
        // Catalog check: byte-equality with the live object, not just
        // epoch bookkeeping — rewrites that happened while the cache was
        // down never logged an epoch bump, so content is the arbiter.
        let mut kept = recovery.segments;
        kept.retain(|seg| {
            let current = catalog.is_none_or(|probe| {
                probe(&seg.key.bucket, &seg.key.key, seg.key.range)
                    .is_some_and(|(_, digest)| digest == seg.crc)
            });
            if !current {
                ds.del(&seg.key);
            }
            current
        });
        // Budget: drop the oldest `Put`s until the rest fit.
        let mut total: u64 = kept.iter().map(|s| s.len).sum();
        let mut start = 0;
        while total > disk_bytes && start < kept.len() {
            total -= kept[start].len;
            ds.del(&kept[start].key);
            start += 1;
        }
        self.epochs = recovery.epochs;
        for seg in kept.drain(start..) {
            // The store's replay already filtered stale epochs.
            debug_assert_eq!(seg.epoch, self.epoch(&seg.key.bucket, &seg.key.key));
            self.used[CacheTier::Disk as usize] += seg.len;
            self.stats.recovered_segments += 1;
            self.stats.recovered_bytes += seg.len;
            let entry = Entry {
                tier: CacheTier::Disk,
                bytes: None,
                len: seg.len,
                hits: 1,
                seq: bump(&mut self.seq),
            };
            self.entries.insert(seg.key, entry);
        }
    }
}

struct Inner {
    config: CacheConfig,
    pricing: Pricing,
    state: Mutex<State>,
    /// The segment log behind the disk tier when `config.dir` is set.
    /// Lock order: `state`, then the store's own mutex.
    disk_store: Option<DiskStore>,
}

impl Drop for Inner {
    /// The last handle dropped is a clean shutdown as well
    /// ([`SegmentCache::persist_mem`]) — unless a kill plan is armed:
    /// then the drop is the crash, as the segment log's own drop takes it.
    fn drop(&mut self) {
        if self.disk_store.as_ref().is_some_and(|d| !d.armed()) {
            self.persist_mem();
        }
    }
}

impl Inner {
    /// [`SegmentCache::persist_mem`].
    fn persist_mem(&self) {
        let Some(ds) = self.disk_store.as_ref().filter(|d| !d.crashed()) else {
            return;
        };
        let st = self.state.lock();
        let mut unlogged: Vec<(&SegmentKey, &Entry)> = (st.entries.iter())
            .filter(|(k, e)| e.tier == CacheTier::Mem && !ds.holds(k, st.epoch(&k.bucket, &k.key)))
            .collect();
        unlogged.sort_unstable_by_key(|(_, e)| e.seq);
        let mut appended = false;
        for (key, e) in unlogged {
            let data = e.bytes.as_ref().expect("a mem segment holds its bytes");
            appended |= ds.put(key, data, st.epoch(&key.bucket, &key.key));
        }
        if appended {
            ds.commit();
        }
    }

    fn budget(&self, tier: CacheTier) -> u64 {
        match tier {
            CacheTier::Mem => self.config.mem_bytes,
            CacheTier::Disk => self.config.disk_bytes,
        }
    }

    /// `key` left the cache: the segment log releases its copy (no-op
    /// when it holds none, or for a cache without a log).
    fn forget(&self, key: &SegmentKey) {
        if let Some(ds) = &self.disk_store {
            ds.del(key);
        }
    }

    /// Evict minimum-weight (dollars-saved-per-byte × hits) segments
    /// from one tier until its usage fits its budget. Deterministic:
    /// ties break toward the oldest insertion. Mem evictions **demote**
    /// the segment into the disk tier (when it fits that budget at all)
    /// instead of dropping it — and then trim the disk tier in turn;
    /// disk evictions drop for real. Runs inside the caller's critical
    /// section, so no other thread ever sees a tier over budget.
    fn evict_to_budget(&self, st: &mut State, tier: CacheTier) {
        let overshoot = st.used[tier as usize].saturating_sub(self.budget(tier));
        if overshoot == 0 {
            return;
        }
        // The victims are the tier's lightest segments, the oldest first
        // on equal weight, until the overshoot is freed. A fill usually
        // evicts one or two of hundreds, so they are popped off a heap
        // rather than the whole tier sorted.
        let tiered: Vec<(&SegmentKey, &Entry)> = (st.entries.iter())
            .filter(|(_, e)| e.tier == tier)
            .collect();
        let rank = |e: &Entry| {
            // `f64::total_cmp`'s order as an integer key.
            let bits = e.weight(&self.pricing).to_bits() as i64;
            (bits ^ (((bits >> 63) as u64) >> 1) as i64, e.seq)
        };
        let mut lightest: BinaryHeap<Reverse<((i64, u64), usize)>> = (tiered.iter().enumerate())
            .map(|(i, (_, e))| Reverse((rank(e), i)))
            .collect();
        let mut freed = 0;
        let mut victims: Vec<SegmentKey> = Vec::new();
        while freed < overshoot {
            let Some(Reverse((_, i))) = lightest.pop() else {
                break;
            };
            let (key, entry) = tiered[i];
            freed += entry.len;
            victims.push(key.clone());
        }
        let mut demoted = false;
        for key in victims {
            let epoch = st.epoch(&key.bucket, &key.key);
            let Slot::Occupied(mut slot) = st.entries.entry(key) else {
                unreachable!("victims were listed under this lock");
            };
            let len = slot.get().len;
            st.used[tier as usize] -= len;
            match tier {
                CacheTier::Disk => st.stats.disk_evictions += 1,
                CacheTier::Mem => st.stats.evictions += 1,
            }
            // Disk evictions drop, and so do mem evictions too big for
            // the disk tier.
            if tier == CacheTier::Disk || len > self.config.disk_bytes {
                self.forget(slot.key());
                slot.remove();
                continue;
            }
            // Demote in place: keeps the hit count, takes a fresh seq.
            // With a segment log the RAM bytes go once the log holds
            // them: a copy still live since the segment's promotion is
            // kept (no I/O), else they are appended (durable at the next
            // commit). After a crash, or when the append fails, they
            // stay in RAM.
            let persisted = match (&self.disk_store, &slot.get().bytes) {
                (Some(ds), Some(data)) => {
                    ds.holds(slot.key(), epoch) || ds.put(slot.key(), data, epoch)
                }
                _ => false,
            };
            let e = slot.get_mut();
            if persisted {
                e.bytes = None;
            }
            e.tier = CacheTier::Disk;
            e.seq = bump(&mut st.seq);
            st.used[CacheTier::Disk as usize] += len;
            st.stats.demotions += 1;
            demoted = true;
        }
        if demoted {
            self.evict_to_budget(st, CacheTier::Disk);
        }
    }

    /// What a lookup of `skey` sees, changing nothing.
    fn read(&self, st: &State, skey: &SegmentKey) -> Access {
        let Some(e) = st.entries.get(skey) else {
            return Access::Miss {
                key: skey.clone(),
                lost: false,
            };
        };
        // Bytes in the segment log are read back checksum-verified. A
        // failed read means the durable copy is gone — a miss rather than
        // corrupt bytes.
        let stored = match &e.bytes {
            Some(data) => Some(data.clone()),
            None => self.disk_store.as_ref().and_then(|d| d.read(skey)),
        };
        match stored {
            Some(data) => Access::Hit {
                key: skey.clone(),
                tier: e.tier,
                data,
                epoch: st.epoch(&skey.bucket, &skey.key),
            },
            None => Access::Miss {
                key: skey.clone(),
                lost: true,
            },
        }
    }

    /// Apply one access inside the caller's critical section: the one
    /// place the residency table changes (invalidation aside). Returns
    /// whether it took effect: a hit was served, a fill stored, rent
    /// added.
    fn apply(&self, st: &mut State, access: Access) -> bool {
        match access {
            Access::Hit {
                key,
                tier,
                data,
                epoch,
            } => {
                self.hit(st, &key, tier, data, epoch);
                true
            }
            Access::Miss { key, lost } => {
                self.miss(st, &key, lost);
                false
            }
            Access::Fill { key, data, epoch } => self.fill(st, key, data, epoch),
            Access::Rent {
                bucket,
                key,
                dollars,
            } => {
                let accrued = dollars > 0.0;
                if accrued {
                    *st.rents.entry(object_hash(&bucket, &key)).or_default() += dollars;
                }
                accrued
            }
        }
    }

    fn hit(&self, st: &mut State, key: &SegmentKey, served: CacheTier, data: Bytes, epoch: u64) {
        let len = data.len() as u64;
        st.stats.hits += 1;
        st.stats.hit_bytes += len;
        if served == CacheTier::Disk {
            st.stats.disk_hits += 1;
            st.stats.disk_hit_bytes += len;
        }
        // Since the read, a writer may have replaced the object; then
        // whatever is resident is another version's and stays untouched.
        if st.epoch(&key.bucket, &key.key) != epoch {
            return;
        }
        let Some(e) = st.entries.get_mut(key) else {
            return;
        };
        e.hits += 1;
        // Too big to ever live in mem: served in place.
        if e.tier == CacheTier::Mem || e.len > self.config.mem_bytes {
            return;
        }
        // Promote in place: the bytes move up to RAM and the segment log
        // keeps its copy, so a later demotion writes nothing.
        e.bytes = Some(data);
        e.tier = CacheTier::Mem;
        e.seq = bump(&mut st.seq);
        st.used[CacheTier::Disk as usize] -= e.len;
        st.used[CacheTier::Mem as usize] += e.len;
        st.stats.promotions += 1;
        self.evict_to_budget(st, CacheTier::Mem);
    }

    fn miss(&self, st: &mut State, key: &SegmentKey, lost: bool) {
        st.stats.misses += 1;
        // A segment whose durable copy did not read back leaves the cache
        // (unless its bytes have come back to RAM since).
        let in_log = st.entries.get(key).is_some_and(|e| e.bytes.is_none());
        if lost && in_log {
            let e = st.entries.remove(key).expect("checked above");
            st.used[e.tier as usize] -= e.len;
            self.forget(key);
        }
    }

    fn fill(&self, st: &mut State, skey: SegmentKey, data: Bytes, epoch: u64) -> bool {
        let len = data.len() as u64;
        let target = if len <= self.config.mem_bytes {
            CacheTier::Mem
        } else if len <= self.config.disk_bytes {
            CacheTier::Disk
        } else {
            return false;
        };
        if st.epoch(&skey.bucket, &skey.key) != epoch {
            st.stats.stale_fills += 1;
            return false;
        }
        // Straight-to-disk fills reach the segment log before the entry
        // goes live (durable at the next commit). A refill replaces the
        // segment wherever it was, and the log keeps a copy of it only if
        // this fill just put one there.
        let bytes = match (target, &self.disk_store) {
            (CacheTier::Disk, Some(ds)) if ds.put(&skey, &data, epoch) => None,
            _ => {
                self.forget(&skey);
                Some(data)
            }
        };
        let entry = Entry {
            tier: target,
            bytes,
            len,
            hits: 1,
            seq: bump(&mut st.seq),
        };
        st.rents.remove(&object_hash(&skey.bucket, &skey.key));
        if let Some(old) = st.entries.insert(skey, entry) {
            st.used[old.tier as usize] -= old.len;
        }
        st.used[target as usize] += len;
        st.stats.fills += 1;
        st.stats.fill_bytes += len;
        self.evict_to_budget(st, target);
        true
    }
}

/// Handle to one shared segment cache. Cloning shares the cache (`Arc`
/// inside), exactly like the store and ledgers it sits between.
#[derive(Clone)]
pub struct SegmentCache {
    inner: Arc<Inner>,
}

/// A handle that does not keep the cache alive
/// ([`SegmentCache::downgrade`]): how a store remembers every cache that
/// reads its objects without outliving a dropped cluster's slices. Two
/// handles are equal when they name the same cache.
#[derive(Clone)]
pub struct WeakSegmentCache(Weak<Inner>);

impl WeakSegmentCache {
    /// The cache, unless every [`SegmentCache`] handle is gone.
    pub fn upgrade(&self) -> Option<SegmentCache> {
        self.0.upgrade().map(|inner| SegmentCache { inner })
    }
}

impl PartialEq for WeakSegmentCache {
    fn eq(&self, other: &Self) -> bool {
        Weak::ptr_eq(&self.0, &other.0)
    }
}

impl SegmentCache {
    /// Open a cache: the one construction path. Without `config.dir`
    /// this cannot fail and the cache starts empty. With it, the disk
    /// tier's bytes live in a segment log guarded by an epoch manifest
    /// (see the [`store`] module docs for the layout and the
    /// group-commit protocol), and whatever a previous incarnation left
    /// durable is recovered into the disk tier, mem cold: its disk tier
    /// and the mem segments promoted from it, whose log copies outlive
    /// the promotion.
    ///
    /// Recovery replays the manifest (tolerating a torn tail), drops
    /// records whose checksum or object epoch no longer holds, then:
    ///
    /// * applies `catalog` when given — a segment survives only if the
    ///   probe reports the *current* object content at its range hashing
    ///   to the recorded checksum, so bytes rewritten while the cache
    ///   was down can never be served;
    /// * enforces `config.disk_bytes` deterministically, dropping the
    ///   segments of the oldest `Put` records first;
    /// * compacts the manifest when dead records outnumber live state.
    ///
    /// `kill` arms the deterministic crash hook: the store dies at the
    /// Nth fsync — or, if that never comes, when the last handle drops —
    /// losing a seeded torn suffix of everything not yet committed.
    /// After a mid-run kill durability is frozen while the in-RAM cache
    /// keeps serving — exactly what a crashed process leaves on disk for
    /// the next recovery to replay.
    pub fn open(
        config: &CacheConfig,
        pricing: Pricing,
        kill: Option<KillPlan>,
        catalog: Option<CatalogProbe<'_>>,
    ) -> Result<SegmentCache> {
        let mut state = State::default();
        let disk_store = match &config.dir {
            Some(dir) => {
                let (ds, recovery) = DiskStore::open(dir, kill)?;
                state.restore(recovery, &ds, config.disk_bytes, catalog);
                Some(ds)
            }
            None => None,
        };
        Ok(SegmentCache {
            inner: Arc::new(Inner {
                config: config.clone(),
                pricing,
                state: Mutex::new(state),
                disk_store,
            }),
        })
    }

    /// A two-tier cache with no directory.
    pub fn tiered(mem_budget_bytes: u64, disk_budget_bytes: u64, pricing: Pricing) -> SegmentCache {
        let config = CacheConfig {
            mem_bytes: mem_budget_bytes,
            disk_bytes: disk_budget_bytes,
            ..CacheConfig::default()
        };
        Self::open(&config, pricing, None, None).expect("a cache without a directory opens no file")
    }

    /// What the cache was opened with.
    pub fn config(&self) -> &CacheConfig {
        &self.inner.config
    }

    /// A handle that does not keep the cache alive.
    pub fn downgrade(&self) -> WeakSegmentCache {
        WeakSegmentCache(Arc::downgrade(&self.inner))
    }

    /// Whether the crash-injection hook has fired (durability frozen).
    pub fn crashed(&self) -> bool {
        self.inner.disk_store.as_ref().is_some_and(|d| d.crashed())
    }

    /// `(bytes appended, fsyncs issued)` by the durability protocol so
    /// far: a monotonic total of every appended byte and every barrier,
    /// whoever was charged for them. Always `(0, 0)` without a
    /// directory.
    pub fn persist_counters(&self) -> (u64, u64) {
        self.inner
            .disk_store
            .as_ref()
            .map_or((0, 0), |d| d.persist_counters())
    }

    /// The persistent tier's commit point: make everything appended
    /// since the last commit durable with at most two fsync barriers
    /// (segment log, then manifest) and return the receipt `(bytes,
    /// fsyncs)` of what no earlier receipt reported, for the caller to
    /// charge at `disk_write_bw` / `fsync_latency`. Concurrent callers
    /// split the work without double-counting: Σ receipts equals the
    /// [`SegmentCache::persist_counters`] delta. Dropping the last
    /// handle commits too. `(0, 0)` without a directory.
    pub fn commit(&self) -> (u64, u64) {
        self.inner
            .disk_store
            .as_ref()
            .map_or((0, 0), |d| d.commit())
    }

    /// A clean shutdown's last writes: append to the segment log every
    /// mem segment it holds no live copy of — a fill never demoted — in
    /// insertion order, and commit once, so a restart recovers the mem
    /// tier too (into the disk tier, like a promoted segment). The
    /// segments stay resident, each now with its log copy. Appends
    /// nothing and commits nothing when every mem segment has a copy,
    /// after a crash, and without a directory. Dropping the last handle
    /// does the same, unless a kill plan is armed.
    pub fn persist_mem(&self) {
        self.inner.persist_mem();
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
        let st = self.inner.state.lock();
        let mut rows: Vec<String> = st
            .entries
            .iter()
            .map(|(k, e)| {
                let crc = match (&e.bytes, &self.inner.disk_store) {
                    (Some(b), _) => fnv1a(b.iter().copied()),
                    (None, ds) => ds.as_ref().and_then(|d| d.crc_of(k)).unwrap_or(0),
                };
                format!(
                    "{}\0{}\0{}..{}\0{}\0{}\0{}",
                    k.bucket, k.key, k.range.0, k.range.1, e.tier as u8, e.len, crc
                )
            })
            .collect();
        rows.sort();
        fnv1a(rows.join("\n").into_bytes())
    }

    /// Order-independent digest of the rent table: every object's rent,
    /// by its bits — the determinism tests compare this.
    pub fn rent_digest(&self) -> u64 {
        let st = self.inner.state.lock();
        let mut rows: Vec<(u64, u64)> = st.rents.iter().map(|(h, r)| (*h, r.to_bits())).collect();
        rows.sort_unstable();
        fnv1a(
            rows.iter()
                .flat_map(|(h, r)| h.to_le_bytes().into_iter().chain(r.to_le_bytes())),
        )
    }

    /// The rent `bucket/key` has accrued since it was last filled, in
    /// dollars: zero for an object never read remotely at a loss.
    pub fn rent(&self, bucket: &str, key: &str) -> f64 {
        let st = self.inner.state.lock();
        st.rents
            .get(&object_hash(bucket, key))
            .copied()
            .unwrap_or(0.0)
    }

    /// Look up one segment — any byte range, whole-object callers pass
    /// [`SegmentKey::whole`] — counting a hit or a miss. Hits bump the
    /// LFU counter. Equivalent to [`SegmentCache::get_tiered`] with the
    /// serving tier discarded.
    pub fn get(&self, skey: &SegmentKey) -> Option<Bytes> {
        self.get_tiered(skey).map(|(data, _)| data)
    }

    /// Look up one segment, reporting which tier served it so the caller
    /// can charge `cache_read_bw` vs `disk_read_bw`: a [`SegmentCache::read`]
    /// and the [`SegmentCache::apply`] of what it saw, in one critical
    /// section. A disk hit promotes the segment back into the mem tier
    /// (unless it is bigger than the whole mem budget), which may demote
    /// colder mem segments down.
    pub fn get_tiered(&self, skey: &SegmentKey) -> Option<(Bytes, CacheTier)> {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        let access = inner.read(&st, skey);
        let served = access.served();
        inner.apply(&mut st, access);
        served
    }

    /// What a lookup of one segment sees — its bytes and tier, or a miss
    /// — without counting it, touching its access count or moving it
    /// between tiers. Apply the returned access
    /// ([`SegmentCache::apply`]) to have the lookup count.
    pub fn read(&self, skey: &SegmentKey) -> Access {
        let st = self.inner.state.lock();
        self.inner.read(&st, skey)
    }

    /// Apply an ordered access log in one critical section: hits count
    /// and promote, fills are admitted (or discarded as stale), evict
    /// down to budget and zero their object's rent, rent accrues — the
    /// first two exactly as [`SegmentCache::get_tiered`] and
    /// [`SegmentCache::insert`] do them, in log order. Returns, per
    /// access, whether it took effect (a hit served, a fill stored, rent
    /// added).
    pub fn apply(&self, log: impl IntoIterator<Item = Access>) -> Vec<bool> {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        log.into_iter().map(|a| inner.apply(&mut st, a)).collect()
    }

    /// Non-mutating occupancy probe for the cost estimator: the cached
    /// size of one segment, if present in either tier. Does not count as
    /// an access and does not perturb eviction order or tier placement.
    pub fn peek(&self, skey: &SegmentKey) -> Option<u64> {
        self.peek_tier(skey).map(|(len, _)| len)
    }

    /// [`SegmentCache::peek`] plus which tier holds the segment.
    pub fn peek_tier(&self, skey: &SegmentKey) -> Option<(u64, CacheTier)> {
        let st = self.inner.state.lock();
        st.entries.get(skey).map(|e| (e.len, e.tier))
    }

    /// The segment's object epoch — call *before* issuing the fill GET
    /// and pass the value to [`SegmentCache::insert`] (or an
    /// [`Access::Fill`]), which discards the fill if a writer invalidated
    /// the object in between. Epochs
    /// are per *object*: every range of `bucket/key` shares one.
    pub fn begin_fill(&self, skey: &SegmentKey) -> u64 {
        self.inner.state.lock().epoch(&skey.bucket, &skey.key)
    }

    /// Whether `epoch` is still the current epoch of `bucket/key` — the
    /// check a fill begun at `epoch` would pass. The cache keeps no chunk
    /// layouts (a reader hands one to every call that needs it, see the
    /// module docs), so `chunks` is not kept; the name stays for callers
    /// that recorded the layout of a read they were about to make.
    pub fn record_layout(
        &self,
        bucket: &str,
        key: &str,
        epoch: u64,
        _chunks: Vec<(u64, u64)>,
    ) -> bool {
        self.inner.state.lock().epoch(bucket, key) == epoch
    }

    fn apply_one(&self, access: Access) -> bool {
        let inner = &*self.inner;
        inner.apply(&mut inner.state.lock(), access)
    }

    /// What a partial-hit read of `bucket/key` (whose current size is
    /// `object_len`) along the chunk layout `layout_of(object_len)`
    /// ([`normalize_chunk_layout`]d) would serve from each tier right now,
    /// and what the gaps would bill. Non-perturbing, like
    /// [`SegmentCache::peek`].
    pub fn occupancy(
        &self,
        bucket: &str,
        key: &str,
        object_len: u64,
        layout_of: impl FnOnce(u64) -> Vec<(u64, u64)>,
    ) -> ObjectOccupancy {
        let layout = normalize_chunk_layout(layout_of(object_len), object_len);
        let st = self.inner.state.lock();
        let mut occ = ObjectOccupancy::default();
        let mut in_gap = false;
        let mut skey = SegmentKey::chunk(bucket, key, FULL_OBJECT);
        for &range in &layout {
            skey.range = range;
            let len = range.1 - range.0;
            let tier = st.entries.get(&skey).map(|e| e.tier);
            match tier {
                Some(CacheTier::Mem) => occ.mem_bytes += len,
                Some(CacheTier::Disk) => occ.disk_bytes += len,
                None => {
                    occ.gap_bytes += len;
                    occ.gap_requests += u64::from(!in_gap);
                }
            }
            in_gap = tier.is_none();
        }
        occ.trailer_resident = !in_gap && !layout.is_empty();
        occ
    }

    /// Admit a fill of one segment observed at `epoch`. Returns whether
    /// the segment was stored (false: stale epoch, or larger than both
    /// tier budgets). Every other fill is admitted: it lands in the mem
    /// tier — or straight in the disk tier when it is bigger than the
    /// whole mem budget — and evicts minimum-weight segments (mem
    /// evictions demoting downward) until the fill fits, before the
    /// lock is released. The apply of one [`Access::Fill`].
    pub fn insert(&self, skey: SegmentKey, data: Bytes, epoch: u64) -> bool {
        self.apply_one(Access::Fill {
            key: skey,
            data,
            epoch,
        })
    }

    /// Drop every segment of `bucket/key` from both tiers and bump its
    /// epoch, so in-flight fills of the old bytes are discarded on
    /// arrival.
    pub fn invalidate(&self, bucket: &str, key: &str) {
        let h = object_hash(bucket, key);
        let mut guard = self.inner.state.lock();
        let st = &mut *guard;
        let epoch = st.epochs.entry(h).or_insert(0);
        *epoch += 1;
        st.entries.retain(|k, e| {
            let doomed = k.bucket == bucket && k.key == key;
            if doomed {
                st.used[e.tier as usize] -= e.len;
            }
            !doomed
        });
        // Make the bump durable (one Epoch record, committed before
        // this returns) so a recovery can never resurrect the dropped
        // segments; logged while the lock pins out concurrent fills of
        // the old epoch.
        if let Some(ds) = &self.inner.disk_store {
            ds.bump_epoch(bucket, key, *epoch);
        }
        st.stats.invalidations += 1;
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = &*self.inner;
        let (persisted_bytes, fsyncs) = self.persist_counters();
        let (commits, compactions) = inner
            .disk_store
            .as_ref()
            .map_or((0, 0), |d| d.commit_counters());
        let st = inner.state.lock();
        let disk_segments = st
            .entries
            .values()
            .filter(|e| e.tier == CacheTier::Disk)
            .count() as u64;
        CacheStats {
            used_bytes: st.used[CacheTier::Mem as usize],
            budget_bytes: inner.config.mem_bytes,
            segments: st.entries.len() as u64 - disk_segments,
            disk_used_bytes: st.used[CacheTier::Disk as usize],
            disk_budget_bytes: inner.config.disk_bytes,
            disk_segments,
            persisted_bytes,
            fsyncs,
            commits,
            compactions,
            ..st.stats
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
        SegmentCache::tiered(budget, 0, Pricing::us_east())
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

    fn rent(c: &SegmentCache, key: &str, dollars: f64) -> bool {
        let bucket = "b".to_string();
        let key = key.to_string();
        c.apply([Access::Rent {
            bucket,
            key,
            dollars,
        }])[0]
    }

    #[test]
    fn rent_accrues_never_goes_negative_and_a_fill_zeroes_it() {
        let c = cache(1000);
        assert_eq!(c.rent("b", "k"), 0.0);
        assert!(rent(&c, "k", 0.25));
        assert!(rent(&c, "k", 0.5));
        assert!(!rent(&c, "k", -2.0), "a negative amount adds nothing");
        assert!(!rent(&c, "k", 0.0));
        assert_eq!(c.rent("b", "k"), 0.75);
        assert!(rent(&c, "other", 1.0));
        let before = c.rent_digest();
        // A stale fill buys nothing; an admitted one zeroes the rent of
        // its object only.
        let epoch = c.begin_fill(&whole("k"));
        c.invalidate("b", "k");
        assert!(!c.insert(whole("k"), Bytes::from(vec![0u8; 10]), epoch));
        assert_eq!(c.rent("b", "k"), 0.75);
        assert_eq!(c.rent_digest(), before);
        assert!(fill(&c, "k", 10));
        assert_eq!(c.rent("b", "k"), 0.0);
        assert_eq!(c.rent("b", "other"), 1.0);
        assert_ne!(c.rent_digest(), before);
        // A hit is no purchase.
        assert!(rent(&c, "k", 0.1));
        c.get(&whole("k")).unwrap();
        assert_eq!(c.rent("b", "k"), 0.1);
    }

    #[test]
    fn oversized_segments_and_zero_budget_are_rejected() {
        let c = cache(10);
        assert!(!fill(&c, "big", 11));
        assert_eq!(c.stats().segments, 0);
        let off = cache(0);
        assert!(!fill(&off, "k", 1));
        assert_eq!(off.stats().used_bytes, 0);
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
        assert!(c.stats().used_bytes <= 250);
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
        assert_eq!(c.stats().used_bytes, 300);
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

    #[test]
    fn raising_the_scan_price_raises_every_weight() {
        let pricey = Pricing {
            scan_per_gb: 0.2,
            ..Pricing::us_east()
        };
        let e = Entry {
            tier: CacheTier::Mem,
            bytes: None,
            len: 1000,
            hits: 3,
            seq: 0,
        };
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
        assert_eq!(c.stats().used_bytes, 0);
        assert_eq!(c.stats().disk_used_bytes, 500);
        // Served in place — never promoted into a tier it cannot fit.
        let (_, tier) = c.get_tiered(&whole("big")).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(c.stats().promotions, 0);
        // Bigger than both budgets: rejected outright.
        assert!(!fill(&c, "huge", 2000));
    }

    #[test]
    fn invalidation_clears_both_tiers() {
        let c = tiered(100, 1000);
        fill(&c, "a", 100);
        fill(&c, "b", 100); // a → disk
        c.invalidate("b", "a");
        assert!(c.peek(&whole("a")).is_none());
        assert_eq!(c.stats().disk_used_bytes, 0);
        assert_eq!(c.peek_tier(&whole("b")), Some((100, CacheTier::Mem)));
    }

    #[test]
    fn stale_layouts_are_not_recorded() {
        let c = tiered(100, 0);
        let e = c.begin_fill(&whole("k"));
        assert!(c.record_layout("b", "k", e, vec![(0, 10)]));
        c.invalidate("b", "k");
        assert!(!c.record_layout("b", "k", e, vec![(0, 10)]));
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
        // Five 100-byte chunks, none resident: the whole object is one gap.
        let layout: Vec<(u64, u64)> = (0..5).map(|i| (i * 100, (i + 1) * 100)).collect();
        let occ = |c: &SegmentCache| c.occupancy("b", "k", 500, |_| layout.clone());
        assert_eq!((occ(&c).gap_bytes, occ(&c).gap_requests), (500, 1));
        assert!(!occ(&c).trailer_resident);
        // Cache chunks 0 and 3.
        assert!(chunk_fill(&c, "k", (0, 100)));
        assert!(chunk_fill(&c, "k", (300, 400)));
        assert_eq!(occ(&c).mem_bytes, 200);
        assert_eq!(occ(&c).gap_bytes, 300);
        // Chunks 1+2 coalesce into one GET; chunk 4 is its own.
        assert_eq!(occ(&c).gap_requests, 2);
        assert!(!occ(&c).trailer_resident);
        // Demote chunk (0,100) by filling past the mem budget: the
        // occupancy moves between tiers but the gaps are unchanged.
        assert!(chunk_fill(&c, "k", (100, 200)));
        assert_eq!(occ(&c).mem_bytes + occ(&c).disk_bytes, 300);
        assert!(occ(&c).disk_bytes > 0, "something was demoted");
        assert_eq!((occ(&c).gap_bytes, occ(&c).gap_requests), (200, 2));
        assert!(chunk_fill(&c, "k", (400, 500)));
        assert!(occ(&c).trailer_resident, "the last chunk is resident");
        // A layout that does not cover the object is one whole chunk.
        let stale = c.occupancy("b", "k", 600, |_| layout.clone());
        assert_eq!((stale.gap_bytes, stale.gap_requests), (600, 1));
    }

    #[test]
    fn degenerate_layouts_collapse_to_one_whole_chunk() {
        assert_eq!(normalize_chunk_layout(vec![], 10), vec![(0, 10)]);
        assert_eq!(normalize_chunk_layout(vec![(0, 4)], 10), vec![(0, 10)]);
        assert_eq!(
            normalize_chunk_layout(vec![(0, 4), (6, 10)], 10),
            vec![(0, 10)],
            "a hole in the layout is not trusted"
        );
        assert_eq!(
            normalize_chunk_layout(vec![(4, 10), (0, 4), (4, 4)], 10),
            vec![(0, 4), (4, 10)],
            "unsorted input is sorted, empty ranges dropped"
        );
        assert!(normalize_chunk_layout(vec![], 0).is_empty());
    }

    #[test]
    fn a_read_changes_nothing_until_its_access_is_applied() {
        let c = tiered(100, 1000);
        fill(&c, "a", 100);
        fill(&c, "b", 100); // a → disk
        let before = (c.stats(), c.residency_digest());
        let hit = c.read(&whole("a"));
        let served = hit.served().map(|(data, tier)| (data.len(), tier));
        assert_eq!(served, Some((100, CacheTier::Disk)));
        let miss = c.read(&whole("z"));
        assert!(miss.served().is_none());
        assert_eq!(
            (c.stats(), c.residency_digest()),
            before,
            "reads touch nothing"
        );
        // Applied, the hit counts and promotes, and the miss counts.
        assert_eq!(c.apply([hit, miss]), vec![true, false]);
        let s = c.stats();
        assert_eq!((s.hits, s.disk_hits, s.misses, s.promotions), (1, 1, 1, 1));
        assert_eq!(c.peek_tier(&whole("a")), Some((100, CacheTier::Mem)));
    }

    #[test]
    fn a_hit_applied_after_a_rewrite_leaves_the_new_version_alone() {
        let c = tiered(100, 1000);
        fill(&c, "a", 100);
        fill(&c, "b", 100); // a → disk
        let stale = c.read(&whole("a"));
        c.invalidate("b", "a");
        fill(&c, "a", 50); // the new version: b → disk
        fill(&c, "c", 50);
        fill(&c, "d", 50); // equal weights, a is the oldest: a → disk
        assert_eq!(c.peek_tier(&whole("a")), Some((50, CacheTier::Disk)));
        assert_eq!(c.apply([stale]), vec![true], "the read did serve bytes");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().promotions, 0, "another version is not promoted");
        assert_eq!(c.peek_tier(&whole("a")), Some((50, CacheTier::Disk)));
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
