//! # pushdown-s3
//!
//! A simulated S3 object store.
//!
//! The paper's experiments run against AWS S3; this crate substitutes an
//! in-process, thread-safe object store exposing the same *narrow* API the
//! DBMS actually uses:
//!
//! * whole-object `GET` ([`S3Store::get_object`]),
//! * byte-range `GET` ([`S3Store::get_object_range`]) — one range per
//!   request, exactly the S3 limitation the paper's Suggestion 1 (§X)
//!   complains about,
//! * `PUT` for data loading ([`S3Store::put_object`]),
//! * listing by prefix ([`S3Store::list_objects`]) for partitioned tables.
//!
//! # Scoped accounting
//!
//! Every client-visible request is metered with AWS-bill semantics: plain
//! GETs count a request plus transferred bytes (free in-region, but
//! tracked); the S3 Select engine (crate `pushdown-select`) reads object
//! bytes through [`S3Store::raw_object`], which is *storage-internal* and
//! deliberately unmetered — Select traffic is billed by that engine as
//! scanned/returned bytes instead.
//!
//! A store handle bills the ledger of its **scope**. The root handle's
//! scope is the store-global ledger; [`S3Store::scoped`] derives a handle
//! whose ledger is a [`CostLedger::child`] of the current scope, so every
//! addition rolls up atomically into the global bill while the scope keeps
//! its own exact per-query figure. Scopes also carry a **virtual clock**
//! (request latency, byte transfer time and retry backoff in simulated
//! seconds, [`S3Store::virtual_time_s`]) and an independent fault stream.
//!
//! # Deterministic chaos
//!
//! Fault injection is a seeded per-request policy ([`FaultPlan`]), not a
//! countdown: whether a request faults is a **pure function** of
//! `(plan.seed, scope salt, object key, per-key request ordinal)`. The
//! per-key ordinal counts requests a scope has issued against that key, so
//! fault sites do not depend on thread interleaving — the same seed
//! produces the same faults whether a query runs alone or among dozens
//! (concurrent requests within a scope always target distinct keys; only
//! retries and sequential re-reads revisit one). A chaos failure printed
//! as `seed=S salt=A key=K ordinal=N` is reproducible by re-running with
//! the same plan and scope salt.
//!
//! Transient faults are retried under the workspace-wide
//! [`RetryPolicy`] — uniformly for whole-object GETs, range GETs,
//! multi-range GETs, and (in `pushdown-select`) Select requests. Every
//! attempt bills one request; backoff advances the virtual clock only.

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use pushdown_cache::{
    normalize_chunk_layout, Access, CacheTier, SegmentCache, SegmentKey, WeakSegmentCache,
};
use pushdown_common::mix::{fnv1a, splitmix64};
use pushdown_common::perf::PerfParams;
use pushdown_common::{CostLedger, Error, Result, RetryPolicy};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic fault + latency model applied to every request.
///
/// * `seed` / `fault_prob` — request `(key, ordinal)` under scope salt `a`
///   faults iff `mix(seed, a, key, ordinal)` maps below `fault_prob`
///   (see [`FaultPlan::faults`]); faults surface as retryable
///   [`Error::ServiceFault`]s *before* any byte is scanned or returned.
/// * `latency` — per-request virtual latency derived from the bytes a
///   request scans and moves: `request_latency + scanned/s3_scan_bw +
///   wire_bytes/net_bw`, charged to the scope's virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Chaos seed. Same seed ⇒ same fault sites, regardless of threading.
    pub seed: u64,
    /// Probability in `[0, 1]` that any single request attempt faults.
    pub fault_prob: f64,
    /// Bandwidth/latency constants the virtual clock charges with.
    pub latency: PerfParams,
}

impl FaultPlan {
    /// A plan with the default latency model.
    pub fn new(seed: u64, fault_prob: f64) -> Self {
        FaultPlan {
            seed,
            fault_prob,
            latency: PerfParams::default(),
        }
    }

    /// Pure fault function: does request number `ordinal` against
    /// `key_hash` fault under scope `salt`? Deterministic for any thread
    /// interleaving — nothing here reads mutable state.
    pub fn faults(&self, salt: u64, key_hash: u64, ordinal: u64) -> bool {
        if self.fault_prob <= 0.0 {
            return false;
        }
        if self.fault_prob >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed
                ^ salt.rotate_left(17)
                ^ key_hash.rotate_left(31)
                ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Map to [0,1) with 53-bit precision.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.fault_prob
    }

    /// Virtual seconds one request costs given the bytes it scanned
    /// storage-side and the bytes it put on the wire.
    pub fn request_seconds(&self, scanned: u64, wire: u64) -> f64 {
        self.latency.request_latency
            + scanned as f64 / self.latency.s3_scan_bw
            + wire as f64 / self.latency.net_bw
    }
}

fn key_hash(bucket: &str, key: &str) -> u64 {
    fnv1a(
        bucket
            .bytes()
            .chain(std::iter::once(b'/'))
            .chain(key.bytes()),
    )
}

/// A value returned by a retrying request helper, carrying how many
/// attempts (= billed requests) it took.
#[derive(Debug, Clone)]
pub struct Retried<T> {
    pub value: T,
    /// Total attempts made, including the successful one (≥ 1).
    pub attempts: u32,
}

/// Result of a chunk-granular read through the two-tier segment cache
/// ([`S3Store::read_object_chunked_cached_with`]): the object's bytes the
/// read returned — the whole object, or the segments it was asked for —
/// plus how much of them each tier served and what the gaps billed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedFetch {
    /// The whole object, chunks reassembled in order — empty when the
    /// read returned only the segments it was asked for (`segments`).
    pub data: Bytes,
    /// On a read of named segments, what it returned: `(offset, bytes)`
    /// runs in object order, uncopied — each resident segment served, and
    /// the one gap GET with every segment riding along in it. Empty when
    /// `data` holds the whole object.
    pub segments: Vec<(u64, Bytes)>,
    /// GET attempts billed (gap fetches, retries included; 0 when fully
    /// cached).
    pub attempts: u32,
    /// Bytes served from the mem tier (read at `cache_read_bw`).
    pub mem_bytes: u64,
    /// Bytes served from the disk tier (read at `disk_read_bw`).
    pub disk_bytes: u64,
    /// Bytes fetched remotely — exactly what the read billed as plain
    /// transfer.
    pub gap_bytes: u64,
    /// Successful coalesced gap GETs (adjacent missing chunks merge into
    /// one range request; retries are counted in `attempts`, not here).
    pub gap_gets: u32,
    /// Whether the object was served entirely from the cache.
    pub hit: bool,
}

/// A shareable virtual-clock handle: simulated seconds accumulated by
/// request latency, byte transfer and retry backoff.
///
/// Every [`S3Store`] scope owns one internally; this public wrapper lets a
/// *cluster node* own a clock that outlives any single scope. A scope made
/// by [`S3Store::scoped_with_peer`] uplinks into the peer clock, so the
/// node observes the virtual time of every query fragment it executes,
/// exactly as a node ledger observes their bills.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated virtual seconds.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// One accounting scope: a ledger, a virtual clock, and a fault stream.
struct Scope {
    ledger: CostLedger,
    /// Salt mixed into the fault function — lets a workload give every
    /// query an independent fault stream from one plan seed.
    salt: u64,
    /// Virtual nanoseconds accumulated by requests/transfers/backoff.
    clock_ns: Arc<AtomicU64>,
    /// Ancestor clocks (nearest parent first). Like the ledger, every
    /// advance rolls up the chain, so a query scope observes the time its
    /// inner algorithm scopes spend.
    clock_uplinks: Vec<Arc<AtomicU64>>,
    /// Per-key request ordinals (key hash → requests issued so far).
    seq: Mutex<HashMap<u64, u64>>,
}

impl Scope {
    fn root(ledger: CostLedger, salt: u64) -> Scope {
        Scope {
            ledger,
            salt,
            clock_ns: Arc::new(AtomicU64::new(0)),
            clock_uplinks: Vec::new(),
            seq: Mutex::new(HashMap::new()),
        }
    }

    fn child(&self, salt: u64) -> Scope {
        let mut clock_uplinks = Vec::with_capacity(self.clock_uplinks.len() + 1);
        clock_uplinks.push(Arc::clone(&self.clock_ns));
        clock_uplinks.extend(self.clock_uplinks.iter().cloned());
        Scope {
            ledger: self.ledger.child(),
            salt,
            clock_ns: Arc::new(AtomicU64::new(0)),
            clock_uplinks,
            seq: Mutex::new(HashMap::new()),
        }
    }

    /// A child scope that also rolls up into `peer` — the ledger becomes a
    /// [`CostLedger::joint_child`] of the scope ledger and the peer ledger,
    /// and the peer clock joins the clock uplinks (deduplicated, like the
    /// ledger's ancestor set). This is how cluster-node scopes make both
    /// the per-query and the per-node decompositions exact.
    fn child_with_peer(&self, salt: u64, peer: &CostLedger, peer_clock: &VirtualClock) -> Scope {
        let mut clock_uplinks = Vec::with_capacity(self.clock_uplinks.len() + 2);
        clock_uplinks.push(Arc::clone(&self.clock_ns));
        clock_uplinks.extend(self.clock_uplinks.iter().cloned());
        if !clock_uplinks.iter().any(|u| Arc::ptr_eq(u, &peer_clock.ns)) {
            clock_uplinks.push(Arc::clone(&peer_clock.ns));
        }
        Scope {
            ledger: self.ledger.joint_child(peer),
            salt,
            clock_ns: Arc::new(AtomicU64::new(0)),
            clock_uplinks,
            seq: Mutex::new(HashMap::new()),
        }
    }

    fn next_ordinal(&self, key_hash: u64) -> u64 {
        let mut seq = self.seq.lock();
        let slot = seq.entry(key_hash).or_insert(0);
        let ordinal = *slot;
        *slot += 1;
        ordinal
    }

    fn advance(&self, seconds: f64) {
        if seconds > 0.0 {
            let ns = (seconds * 1e9) as u64;
            self.clock_ns.fetch_add(ns, Ordering::Relaxed);
            for up in &self.clock_uplinks {
                up.fetch_add(ns, Ordering::Relaxed);
            }
        }
    }
}

/// Handle to the simulated store. Cloning shares the underlying state
/// *and* the accounting scope; [`S3Store::scoped`] derives a handle with
/// a fresh child scope.
#[derive(Clone)]
pub struct S3Store {
    inner: Arc<Inner>,
    scope: Arc<Scope>,
    /// Per-handle cache override: when set, the read-through path and
    /// [`S3Store::cache`] use this cache instead of the store-wide one.
    /// Cluster nodes use it to own disjoint segment caches over shared
    /// objects. Preserved by every `scoped*` constructor.
    cache_override: Option<SegmentCache>,
}

struct Inner {
    /// bucket → key → object bytes. BTreeMap gives ordered, deterministic
    /// listings.
    buckets: RwLock<BTreeMap<String, BTreeMap<String, Bytes>>>,
    /// The store-global ledger every scope rolls up into.
    ledger: CostLedger,
    /// Seeded fault/latency policy (None = no faults, zero latency).
    fault_plan: RwLock<Option<FaultPlan>>,
    /// Optional local segment cache behind the read-through path
    /// ([`S3Store::read_object_chunked_cached_with`]).
    cache: RwLock<Option<SegmentCache>>,
    /// Every cache that has read this store's objects — the store-wide
    /// one and each per-handle override, once each — for `put_object`
    /// and `delete_object` to invalidate. Weak, so a dropped cluster's
    /// slices are not kept alive.
    attached: Mutex<Vec<WeakSegmentCache>>,
}

impl Default for S3Store {
    fn default() -> Self {
        let ledger = CostLedger::new();
        S3Store {
            inner: Arc::new(Inner {
                buckets: RwLock::new(BTreeMap::new()),
                ledger: ledger.clone(),
                fault_plan: RwLock::new(None),
                cache: RwLock::new(None),
                attached: Mutex::new(Vec::new()),
            }),
            scope: Arc::new(Scope::root(ledger, 0)),
            cache_override: None,
        }
    }
}

impl S3Store {
    pub fn new() -> Self {
        Self::default()
    }

    /// The ledger this handle bills to: the store-global ledger for the
    /// root handle, a per-scope child for handles made by
    /// [`S3Store::scoped`].
    pub fn ledger(&self) -> &CostLedger {
        &self.scope.ledger
    }

    /// The store-global ledger (sum of every scope, always).
    pub fn global_ledger(&self) -> &CostLedger {
        &self.inner.ledger
    }

    /// A handle onto the same objects whose billing goes to a fresh
    /// [`CostLedger::child`] of this handle's ledger, with its own virtual
    /// clock and fault stream. The scope salt is inherited; see
    /// [`S3Store::scoped_with_salt`] to change it.
    pub fn scoped(&self) -> S3Store {
        self.scoped_with_salt(self.scope.salt)
    }

    /// [`S3Store::scoped`] with an explicit fault-stream salt — give every
    /// query of a workload its own salt and one [`FaultPlan`] seed yields
    /// per-query-independent, reproducible fault streams.
    pub fn scoped_with_salt(&self, salt: u64) -> S3Store {
        S3Store {
            inner: Arc::clone(&self.inner),
            scope: Arc::new(self.scope.child(salt)),
            cache_override: self.cache_override.clone(),
        }
    }

    /// A scoped handle that bills **two** parents: this handle's scope
    /// chain *and* `peer_ledger` (with any shared ancestors counted once —
    /// see [`CostLedger::joint_child`]), whose virtual time also rolls up
    /// into `peer_clock`. Cluster nodes use this so that every query
    /// fragment a node executes lands in the per-query ledger **and** the
    /// per-node ledger, making Σ query = Σ node = global exact.
    pub fn scoped_with_peer(
        &self,
        salt: u64,
        peer_ledger: &CostLedger,
        peer_clock: &VirtualClock,
    ) -> S3Store {
        S3Store {
            inner: Arc::clone(&self.inner),
            scope: Arc::new(self.scope.child_with_peer(salt, peer_ledger, peer_clock)),
            cache_override: self.cache_override.clone(),
        }
    }

    /// This handle with a per-handle segment cache overriding the
    /// store-wide one (`None` clears a previous override). Cluster nodes
    /// use it to own disjoint caches over the same objects; the accounting
    /// scope is shared with `self`, only the cache differs. Writers
    /// through any handle of this store invalidate the override too.
    pub fn with_cache_override(&self, cache: Option<SegmentCache>) -> S3Store {
        self.attach(cache.as_ref());
        S3Store {
            inner: Arc::clone(&self.inner),
            scope: Arc::clone(&self.scope),
            cache_override: cache,
        }
    }

    /// This scope's fault-stream salt.
    pub fn scope_salt(&self) -> u64 {
        self.scope.salt
    }

    /// Install (or clear) the store-wide fault/latency plan.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.fault_plan.write() = plan;
    }

    /// The currently installed fault/latency plan.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        *self.inner.fault_plan.read()
    }

    /// Install (or remove) the local segment cache behind
    /// [`S3Store::read_object_chunked_cached_with`]. Store-wide: every scope
    /// shares it, exactly like the objects themselves. The cache it
    /// replaces shuts down cleanly, even while other handles keep it: a
    /// persistent one logs the mem segments it has no copy of
    /// ([`SegmentCache::persist_mem`]), so a restart loses none.
    pub fn set_cache(&self, cache: Option<SegmentCache>) {
        self.attach(cache.as_ref());
        let old = std::mem::replace(&mut *self.inner.cache.write(), cache);
        if let Some(old) = old {
            old.persist_mem();
        }
    }

    /// Remember `cache` for invalidation. Attaching the same cache again
    /// (every cluster query re-attaches its node slices) changes nothing.
    fn attach(&self, cache: Option<&SegmentCache>) {
        let Some(weak) = cache.map(SegmentCache::downgrade) else {
            return;
        };
        let mut attached = self.inner.attached.lock();
        if !attached.contains(&weak) {
            attached.retain(|w| w.upgrade().is_some());
            attached.push(weak);
        }
    }

    /// A handle to the segment cache this handle reads through, if any
    /// (cloning shares): the per-handle override when one is set
    /// ([`S3Store::with_cache_override`]), the store-wide cache otherwise.
    pub fn cache(&self) -> Option<SegmentCache> {
        if self.cache_override.is_some() {
            return self.cache_override.clone();
        }
        self.inner.cache.read().clone()
    }

    /// Virtual seconds this scope has accumulated: per-request latency,
    /// byte transfer time and retry backoff under the installed plan's
    /// latency model. Like the ledger, child scopes roll their time up
    /// the chain, so a query scope sees the time its inner algorithm
    /// scopes spend. Zero when no plan is installed.
    pub fn virtual_time_s(&self) -> f64 {
        self.scope.clock_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Begin one billable request against `bucket/key`: bill the scope's
    /// ledger, charge base request latency, and evaluate the deterministic
    /// fault function. The request is billed even when it faults — AWS
    /// bills failed GETs too, and retried attempts must show up as extra
    /// requests.
    pub fn begin_request(&self, bucket: &str, key: &str) -> Result<()> {
        self.scope.ledger.add_request();
        let kh = key_hash(bucket, key);
        let ordinal = self.scope.next_ordinal(kh);
        if let Some(plan) = self.fault_plan() {
            self.scope.advance(plan.latency.request_latency);
            if plan.faults(self.scope.salt, kh, ordinal) {
                return Err(Error::ServiceFault(format!(
                    "injected fault: service unavailable, retry \
                     (seed={} salt={} key=s3://{bucket}/{key} ordinal={ordinal})",
                    plan.seed, self.scope.salt,
                )));
            }
        }
        Ok(())
    }

    /// Meter Select traffic on this scope's ledger and charge its virtual
    /// transfer time. Called by the `pushdown-select` engine, which runs
    /// *inside* the storage service and bills scan/return bytes instead of
    /// plain transfer.
    pub fn bill_select(&self, scanned: u64, returned: u64) {
        self.scope.ledger.add_select_scanned(scanned);
        self.scope.ledger.add_select_returned(returned);
        if let Some(plan) = self.fault_plan() {
            self.scope
                .advance(plan.request_seconds(scanned, returned) - plan.latency.request_latency);
        }
    }

    fn bill_plain(&self, bytes: u64) {
        self.scope.ledger.add_plain_bytes(bytes);
        if let Some(plan) = self.fault_plan() {
            self.scope
                .advance(plan.request_seconds(0, bytes) - plan.latency.request_latency);
        }
    }

    /// Run `op` under the uniform bounded-backoff policy: retryable faults
    /// are retried up to `policy.max_attempts` total attempts, each backoff
    /// advancing the virtual clock; non-retryable errors surface at once.
    /// Every attempt bills whatever `op` bills (for request ops: one
    /// request each).
    pub fn with_retry<T>(
        &self,
        policy: &RetryPolicy,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<Retried<T>> {
        let attempts_cap = policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts_cap {
            if attempt > 0 {
                self.scope.advance(policy.backoff_before(attempt));
            }
            match op() {
                Ok(value) => {
                    return Ok(Retried {
                        value,
                        attempts: attempt + 1,
                    })
                }
                Err(e) if e.is_retryable() => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| Error::Other("retry loop with zero attempts".into())))
    }

    /// Create a bucket (idempotent).
    pub fn create_bucket(&self, bucket: &str) {
        self.inner
            .buckets
            .write()
            .entry(bucket.to_string())
            .or_default();
    }

    /// Store an object, replacing any previous version. PUTs are not
    /// metered: the paper bills only GET requests (§II-B) and data loading
    /// happens outside query execution. Overlapping cached segments are
    /// invalidated (epoch-tagged, so an in-flight fill of the old bytes
    /// can never re-publish them).
    pub fn put_object(&self, bucket: &str, key: &str, data: impl Into<Bytes>) {
        {
            let mut buckets = self.inner.buckets.write();
            buckets
                .entry(bucket.to_string())
                .or_default()
                .insert(key.to_string(), data.into());
        }
        self.invalidate_caches(bucket, key);
    }

    /// Delete an object. Returns whether it existed. Cached segments of
    /// the object are invalidated like [`S3Store::put_object`] does.
    pub fn delete_object(&self, bucket: &str, key: &str) -> bool {
        let existed = {
            let mut buckets = self.inner.buckets.write();
            buckets
                .get_mut(bucket)
                .map(|b| b.remove(key).is_some())
                .unwrap_or(false)
        };
        if existed {
            self.invalidate_caches(bucket, key);
        }
        existed
    }

    /// Invalidate an object in every cache that reads this store: the
    /// store-wide cache and every override handed to any handle (a
    /// cluster's node slices), whichever handle the writer used. The
    /// list lock is released first — an invalidation may fsync.
    fn invalidate_caches(&self, bucket: &str, key: &str) {
        let caches: Vec<SegmentCache> = {
            let attached = self.inner.attached.lock();
            attached.iter().filter_map(|w| w.upgrade()).collect()
        };
        for cache in caches {
            cache.invalidate(bucket, key);
        }
    }

    fn lookup(&self, bucket: &str, key: &str) -> Result<Bytes> {
        let buckets = self.inner.buckets.read();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| Error::NoSuchKey(format!("bucket `{bucket}`")))?;
        b.get(key)
            .cloned()
            .ok_or_else(|| Error::NoSuchKey(format!("s3://{bucket}/{key}")))
    }

    /// Whole-object GET: bills one request and the object's bytes as plain
    /// transfer.
    pub fn get_object(&self, bucket: &str, key: &str) -> Result<Bytes> {
        self.begin_request(bucket, key)?;
        let data = self.lookup(bucket, key)?;
        self.bill_plain(data.len() as u64);
        Ok(data)
    }

    /// Byte-range GET (`first..=last`, HTTP semantics). Like S3, a range
    /// starting past the end is an error, and `last` is clamped to the
    /// object size. **One contiguous range per request** — the indexing
    /// algorithm of paper §IV-A must therefore issue one request per
    /// selected row, which is exactly the bottleneck Fig 1 exhibits and
    /// Suggestion 1 (§X) proposes lifting.
    pub fn get_object_range(
        &self,
        bucket: &str,
        key: &str,
        first: u64,
        last: u64,
    ) -> Result<Bytes> {
        Ok(self
            .get_object_ranges(bucket, key, &[(first, last)])?
            .swap_remove(0))
    }

    /// A single GET carrying any number of byte ranges. One request is
    /// billed regardless of the range count, with the ranges' bytes as
    /// plain transfer; ranges follow the same `first..=last` semantics as
    /// [`S3Store::get_object_range`]. With one range it is that call,
    /// billed alike — the stock §IV-A row fetch. With more it is the
    /// **extension of paper §X, Suggestion 1**: HTTP multipart range
    /// requests, which AWS S3 does not allow, at exactly the cost the
    /// paper argues S3 should offer the §IV-A index algorithm.
    pub fn get_object_ranges(
        &self,
        bucket: &str,
        key: &str,
        ranges: &[(u64, u64)],
    ) -> Result<Vec<Bytes>> {
        self.begin_request(bucket, key)?;
        let data = self.lookup(bucket, key)?;
        let len = data.len() as u64;
        let mut out = Vec::with_capacity(ranges.len());
        let mut billed = 0u64;
        for &(first, last) in ranges {
            if first >= len {
                return Err(Error::InvalidRange(format!(
                    "range {first}-{last} outside object of {len} bytes"
                )));
            }
            if last < first {
                return Err(Error::InvalidRange(format!(
                    "range {first}-{last} is inverted"
                )));
            }
            let end = (last + 1).min(len);
            let slice = data.slice(first as usize..end as usize);
            billed += slice.len() as u64;
            out.push(slice);
        }
        self.bill_plain(billed);
        Ok(out)
    }

    /// Whole-object GET under the uniform retry policy. The attempt count
    /// equals the requests billed for it.
    pub fn get_object_with(
        &self,
        bucket: &str,
        key: &str,
        policy: &RetryPolicy,
    ) -> Result<Retried<Bytes>> {
        self.with_retry(policy, || self.get_object(bucket, key))
    }

    /// Byte-range GET under the uniform retry policy.
    pub fn get_object_range_with(
        &self,
        bucket: &str,
        key: &str,
        first: u64,
        last: u64,
        policy: &RetryPolicy,
    ) -> Result<Retried<Bytes>> {
        self.with_retry(policy, || self.get_object_range(bucket, key, first, last))
    }

    /// Multi-range GET under the uniform retry policy: the indexed
    /// filter's row fetch, one range per call on stock S3 and many under
    /// §X Suggestion 1.
    pub fn get_object_ranges_with(
        &self,
        bucket: &str,
        key: &str,
        ranges: &[(u64, u64)],
        policy: &RetryPolicy,
    ) -> Result<Retried<Vec<Bytes>>> {
        self.with_retry(policy, || self.get_object_ranges(bucket, key, ranges))
    }

    /// Chunk-granular read **through the two-tier segment cache** under
    /// the uniform retry policy: [`S3Store::read_object_chunked_cached_with`]
    /// and the immediate [`SegmentCache::apply`] of the access log it
    /// kept, so the read's hits and fills take effect before this
    /// returns.
    ///
    /// The engine never calls this: a scan reads through the read half and
    /// applies its partitions' logs at its commit point. It stays as a
    /// shim for callers outside the engine, the frozen benchmark among
    /// them, and the store's tests hold it equal to the read half plus one
    /// apply. Its `layout_of` derives the layout from the object's bytes,
    /// so it is handed the current bytes through the store's unmetered
    /// lookup — the only reason that lookup is here.
    ///
    /// What a persistent disk tier appends along the way (fills,
    /// demotions, promotions) is write-behind: it becomes durable, and is
    /// charged to a virtual clock, at [`S3Store::commit_cache`].
    pub fn get_object_chunked_cached_with(
        &self,
        bucket: &str,
        key: &str,
        policy: &RetryPolicy,
        layout_of: impl Fn(&Bytes) -> Vec<(u64, u64)>,
    ) -> Result<ChunkedFetch> {
        let current = self.lookup(bucket, key).ok();
        let (fetched, log) = self.read_object_chunked_cached_with(
            bucket,
            key,
            policy,
            |_| current.as_ref().map(&layout_of).unwrap_or_default(),
            |_, _| None,
        )?;
        if let Some(cache) = self.cache() {
            cache.apply(log);
        }
        Ok(fetched)
    }

    /// The read path of the tiered caching layer, and the one way the
    /// engine reads cached bytes. `layout_of(object length)` gives the
    /// object's chunk layout (ColumnarLite chunk extents, fixed CSV
    /// blocks: the store stays format-agnostic), held to the current
    /// length by [`normalize_chunk_layout`]. The cache is only read
    /// ([`SegmentCache::read`]). What the read did to it — each chunk's
    /// hit or miss, each fill with its epoch — comes back as an ordered
    /// access log for the caller to [`SegmentCache::apply`] when it
    /// chooses (a scan applies its partitions' logs in partition order
    /// once every partition is read).
    ///
    /// * **Named segments** — when the layout's last segment (a trailer
    ///   such as ColumnarLite's footer) is resident and
    ///   `wanted_of(its offset, its bytes)` names the segments the caller
    ///   needs, each of them a range of the layout — the check that the
    ///   trailer and the layout describe the same object; one that is not
    ///   makes this an every-chunk read — only those are looked up.
    ///   Resident ones are served from their tier; the missing ones are
    ///   fetched by **one** retried range GET spanning them, every
    ///   segment in between riding along and logged as a fill, so the
    ///   read never makes more requests than the every-chunk read below.
    ///   What it returned comes back, uncopied, in `segments`.
    /// * **Every chunk** — otherwise (`wanted_of` answers `None`, the
    ///   trailer is not resident), each chunk of the layout is looked up:
    ///   mem-tier hits advance the virtual clock at `cache_read_bw`,
    ///   disk-tier hits at `disk_read_bw` (and promote once applied), and
    ///   **only the gaps** are fetched — adjacent missing chunks coalesce
    ///   into one range GET, each coalesced gap its own retried request
    ///   (every attempt billed as a request, its bytes once), logged as
    ///   fills chunk by chunk. A cold read is this read with every chunk
    ///   missing: one range GET of the whole object, billed and clocked
    ///   as a whole GET, filling every chunk. The chunks come back
    ///   reassembled in `data`.
    /// * **Torn read** — if a writer moved the object's epoch while the
    ///   read was mixing cached and fetched ranges (or the object was
    ///   gone when the read began), the partial result is discarded and
    ///   one honest whole-object retried GET (billed, not cached) restores
    ///   snapshot consistency: callers always see bytes a cache-less scan
    ///   could have seen, whole, in `data` — or its error. The fills
    ///   logged before carry the old epoch, so applying them stores
    ///   nothing.
    /// * **No cache installed** — plain [`S3Store::get_object_with`] and
    ///   an empty log.
    pub fn read_object_chunked_cached_with(
        &self,
        bucket: &str,
        key: &str,
        policy: &RetryPolicy,
        layout_of: impl FnOnce(u64) -> Vec<(u64, u64)>,
        wanted_of: impl Fn(u64, &Bytes) -> Option<Vec<(u64, u64)>>,
    ) -> Result<(ChunkedFetch, Vec<Access>)> {
        let Some(cache) = self.cache() else {
            let fetched = self.get_object_with(bucket, key, policy)?;
            let fetched = ChunkedFetch {
                gap_bytes: fetched.value.len() as u64,
                data: fetched.value,
                segments: Vec::new(),
                attempts: fetched.attempts,
                mem_bytes: 0,
                disk_bytes: 0,
                gap_gets: 1,
                hit: false,
            };
            return Ok((fetched, Vec::new()));
        };
        let whole = SegmentKey::whole(bucket, key);
        let epoch = cache.begin_fill(&whole);
        let len = self.object_size(bucket, key);
        let layout = match len {
            Ok(len) => normalize_chunk_layout(layout_of(len), len),
            Err(_) => Vec::new(),
        };
        let mut log = Vec::new();
        let chunk = |i: usize| SegmentKey::chunk(bucket, key, layout[i]);
        // Named segments: the trailer is resident and names the chunks
        // the caller wants (by index into the layout, the trailer's own
        // included); its lookup is kept. Else every chunk is wanted.
        let last = layout.len().checked_sub(1);
        let named = last.and_then(|t| {
            let access = cache.read(&chunk(t));
            let (trailer, _) = access.served()?;
            let wanted = wanted_of(layout[t].0, &trailer)?;
            let mut picked: Vec<usize> = (wanted.iter())
                .map(|r| layout.binary_search(r).ok())
                .collect::<Option<_>>()?;
            picked.push(t);
            picked.sort_unstable();
            picked.dedup();
            Some((picked, access))
        });
        let spans = named.is_some();
        let (picked, mut trailer) = match named {
            Some((picked, access)) => (picked, Some(access)),
            None => ((0..layout.len()).collect(), None),
        };
        let mut looked = Vec::with_capacity(picked.len());
        for i in picked {
            let access = match trailer.take_if(|_| Some(i) == last) {
                Some(access) => access,
                None => cache.read(&chunk(i)),
            };
            looked.push((i, access));
        }
        // The gap GETs: one spanning every missing chunk of a named read;
        // else adjacent missing chunks (the layout is contiguous, so
        // index-adjacent means byte-adjacent) coalesce into one each.
        let missing: Vec<usize> = (looked.iter())
            .filter(|(_, access)| access.served().is_none())
            .map(|&(i, _)| i)
            .collect();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &i in &missing {
            match runs.last_mut() {
                Some(run) if spans || run.1 + 1 == i => run.1 = i,
                _ => runs.push((i, i)),
            }
        }
        let in_run = |i: usize| runs.iter().any(|&(lo, hi)| lo <= i && i <= hi);
        // Serve what is resident — a resident chunk inside a gap GET rides
        // along in it instead.
        let mut segments: Vec<(u64, Bytes)> = Vec::new();
        let (mut mem_bytes, mut disk_bytes) = (0u64, 0u64);
        for (i, access) in looked {
            match access.served() {
                Some(_) if spans && in_run(i) => continue,
                Some((data, CacheTier::Mem)) => {
                    mem_bytes += data.len() as u64;
                    segments.push((layout[i].0, data));
                }
                Some((data, CacheTier::Disk)) => {
                    disk_bytes += data.len() as u64;
                    segments.push((layout[i].0, data));
                }
                None => {}
            }
            log.push(access);
        }
        self.advance_local_read(mem_bytes, disk_bytes);
        let (mut attempts, mut gap_bytes, mut gap_gets) = (0u32, 0u64, 0u32);
        let mut torn = len.is_err();
        for &(lo, hi) in &runs {
            let first = layout[lo].0;
            let last = layout[hi].1 - 1;
            let fetched = self.get_object_range_with(bucket, key, first, last, policy);
            if let Ok(got) = &fetched {
                attempts += got.attempts;
                gap_bytes += got.value.len() as u64;
            }
            match fetched {
                Ok(fetched) if fetched.value.len() as u64 == last + 1 - first => {
                    gap_gets += 1;
                    for &(cf, cl) in &layout[lo..=hi] {
                        let slice = fetched
                            .value
                            .slice((cf - first) as usize..(cl - first) as usize);
                        log.push(Access::Fill {
                            key: SegmentKey::chunk(bucket, key, (cf, cl)),
                            data: slice,
                            epoch,
                        });
                    }
                    segments.push((first, fetched.value));
                }
                outcome => {
                    // A replaced/deleted object can shrink under the
                    // layout; only an epoch move excuses that (handled
                    // below as a torn read).
                    if cache.begin_fill(&whole) == epoch {
                        return Err(outcome.err().unwrap_or_else(|| {
                            Error::InvalidRange(format!("s3://{bucket}/{key} shrank mid-read"))
                        }));
                    }
                    torn = true;
                    break;
                }
            }
        }
        if torn || cache.begin_fill(&whole) != epoch {
            // A writer raced this read (or the object was gone when it
            // began): the assembled mix of cached and fetched ranges may
            // span two object versions. Discard it and reload the current
            // version whole — billed, uncached.
            let fetched = self.get_object_with(bucket, key, policy)?;
            attempts += fetched.attempts;
            gap_gets += 1;
            gap_bytes += fetched.value.len() as u64;
            let fetched = ChunkedFetch {
                data: fetched.value,
                segments: Vec::new(),
                attempts,
                mem_bytes,
                disk_bytes,
                gap_bytes,
                gap_gets,
                hit: false,
            };
            return Ok((fetched, log));
        }
        segments.sort_unstable_by_key(|&(at, _)| at);
        let data = match (spans, segments.len()) {
            (true, _) | (false, 0) => Bytes::new(),
            (false, 1) => segments.pop().expect("len checked").1,
            (false, _) => {
                let total: usize = segments.iter().map(|(_, p)| p.len()).sum();
                let mut out = Vec::with_capacity(total);
                for (_, p) in segments.drain(..) {
                    out.extend_from_slice(&p);
                }
                Bytes::from(out)
            }
        };
        let fetched = ChunkedFetch {
            data,
            segments,
            attempts,
            mem_bytes,
            disk_bytes,
            gap_bytes,
            gap_gets,
            hit: missing.is_empty(),
        };
        Ok((fetched, log))
    }

    /// Advance the virtual clock by the local read time of a partial hit:
    /// mem-tier bytes at `cache_read_bw`, disk-tier bytes at
    /// `disk_read_bw` (only under an installed fault plan, like every
    /// other clock charge).
    fn advance_local_read(&self, mem_bytes: u64, disk_bytes: u64) {
        if mem_bytes == 0 && disk_bytes == 0 {
            return;
        }
        if let Some(plan) = self.fault_plan() {
            self.scope.advance(
                mem_bytes as f64 / plan.latency.cache_read_bw
                    + disk_bytes as f64 / plan.latency.disk_read_bw,
            );
        }
    }

    /// The cache's commit point, called once at the end of every cached
    /// scan: make whatever the persistent disk tier appended durable (at
    /// most two fsync barriers, see [`SegmentCache::commit`]) and charge
    /// this scope's virtual clock for the commit's receipt — appended
    /// bytes at `disk_write_bw` plus `fsync_latency` per barrier (only
    /// under an installed fault plan, like every other clock charge).
    /// The receipt reports each byte and barrier to exactly one caller,
    /// so concurrent scans never charge the same work twice. A no-op
    /// without a cache or with a RAM-only one.
    pub fn commit_cache(&self) {
        let Some(cache) = self.cache() else { return };
        let (bytes, fsyncs) = cache.commit();
        if let Some(plan) = self.fault_plan() {
            self.scope.advance(
                bytes as f64 / plan.latency.disk_write_bw
                    + fsyncs as f64 * plan.latency.fsync_latency,
            );
        }
    }

    /// Object size without transferring it (HEAD; not billed as a GET).
    pub fn object_size(&self, bucket: &str, key: &str) -> Result<u64> {
        Ok(self.lookup(bucket, key)?.len() as u64)
    }

    /// Storage-internal, unmetered catalog probe used by cache recovery:
    /// returns `(object_len, fnv1a(range bytes))` for the live object, or
    /// `None` if the object is gone or the range falls outside it. The
    /// whole-object sentinel range `(0, u64::MAX)` digests the full
    /// object. Recovery compares the digest against each recovered
    /// segment's stored checksum, so a chunk persisted before a crash can
    /// never be served after the underlying object was rewritten — even
    /// when the rewrite happened while the cache was down and no epoch
    /// bump was ever logged.
    pub fn object_range_digest(
        &self,
        bucket: &str,
        key: &str,
        range: (u64, u64),
    ) -> Option<(u64, u64)> {
        let data = self.lookup(bucket, key).ok()?;
        let len = data.len() as u64;
        let (first, last) = range;
        let last = if range == (0, u64::MAX) { len } else { last };
        if first > last || last > len {
            return None;
        }
        let digest =
            pushdown_common::mix::fnv1a(data[first as usize..last as usize].iter().copied());
        Some((len, digest))
    }

    /// Keys in a bucket with the given prefix, in lexicographic order.
    /// Partitioned tables are stored as `prefix/part-00000.csv`, ... and
    /// discovered through this.
    pub fn list_objects(&self, bucket: &str, prefix: &str) -> Vec<String> {
        let buckets = self.inner.buckets.read();
        buckets
            .get(bucket)
            .map(|b| {
                b.keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total size of all objects with the given prefix.
    pub fn total_size(&self, bucket: &str, prefix: &str) -> u64 {
        let buckets = self.inner.buckets.read();
        buckets
            .get(bucket)
            .map(|b| {
                b.iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(_, v)| v.len() as u64)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Storage-internal, unmetered read used by the S3 Select engine (it
    /// runs *inside* the storage service; its consumption is billed as
    /// scan/return bytes by that engine, not as plain transfer).
    pub fn raw_object(&self, bucket: &str, key: &str) -> Result<Bytes> {
        self.lookup(bucket, key)
    }
}

impl std::fmt::Debug for S3Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buckets = self.inner.buckets.read();
        let mut d = f.debug_struct("S3Store");
        for (name, objs) in buckets.iter() {
            d.field(name, &format!("{} objects", objs.len()));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(key: &str, data: &str) -> S3Store {
        let s = S3Store::new();
        s.create_bucket("tpch");
        s.put_object("tpch", key, data.as_bytes().to_vec());
        s
    }

    #[test]
    fn put_get_round_trip() {
        let s = store_with("hello.csv", "a,b\n1,2\n");
        let got = s.get_object("tpch", "hello.csv").unwrap();
        assert_eq!(&got[..], b"a,b\n1,2\n");
        let u = s.ledger().snapshot();
        assert_eq!(u.requests, 1);
        assert_eq!(u.plain_bytes, 8);
        assert_eq!(u.select_scanned_bytes, 0);
    }

    #[test]
    fn missing_objects_and_buckets() {
        let s = store_with("x", "data");
        assert_eq!(s.get_object("tpch", "y").unwrap_err().code(), "NoSuchKey");
        assert_eq!(s.get_object("nope", "x").unwrap_err().code(), "NoSuchKey");
        assert!(s.object_size("tpch", "y").is_err());
        assert_eq!(s.object_size("tpch", "x").unwrap(), 4);
    }

    #[test]
    fn range_get_http_semantics() {
        let s = store_with("obj", "0123456789");
        assert_eq!(
            &s.get_object_range("tpch", "obj", 2, 4).unwrap()[..],
            b"234"
        );
        // Last clamps to object end.
        assert_eq!(
            &s.get_object_range("tpch", "obj", 8, 100).unwrap()[..],
            b"89"
        );
        // Start past end is an error.
        assert_eq!(
            s.get_object_range("tpch", "obj", 10, 12)
                .unwrap_err()
                .code(),
            "InvalidRange"
        );
        // Inverted range is an error.
        assert_eq!(
            s.get_object_range("tpch", "obj", 5, 2).unwrap_err().code(),
            "InvalidRange"
        );
    }

    #[test]
    fn multi_range_get_is_one_request() {
        let s = store_with("obj", "0123456789");
        let scope = s.scoped();
        let parts = scope
            .get_object_ranges("tpch", "obj", &[(0, 1), (4, 6), (9, 9)])
            .unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(&parts[0][..], b"01");
        assert_eq!(&parts[1][..], b"456");
        assert_eq!(&parts[2][..], b"9");
        let u = scope.ledger().snapshot();
        assert_eq!(u.requests, 1, "suggestion 1: one request, many ranges");
        assert_eq!(u.plain_bytes, 6);
        // Bad ranges are still rejected.
        assert!(scope
            .get_object_ranges("tpch", "obj", &[(0, 1), (99, 100)])
            .is_err());
    }

    #[test]
    fn range_get_bills_only_returned_bytes() {
        let s = store_with("obj", "0123456789");
        let scope = s.scoped();
        scope.get_object_range("tpch", "obj", 0, 2).unwrap();
        let u = scope.ledger().snapshot();
        assert_eq!(u.plain_bytes, 3);
        assert_eq!(u.requests, 1);
    }

    #[test]
    fn raw_object_is_unmetered() {
        let s = store_with("obj", "0123456789");
        let scope = s.scoped();
        let _ = scope.raw_object("tpch", "obj").unwrap();
        assert_eq!(scope.ledger().snapshot().requests, 0);
        assert_eq!(scope.ledger().snapshot().plain_bytes, 0);
    }

    #[test]
    fn listing_is_ordered_and_prefix_filtered() {
        let s = S3Store::new();
        s.put_object("b", "t/part-2.csv", "x");
        s.put_object("b", "t/part-1.csv", "xy");
        s.put_object("b", "u/part-1.csv", "z");
        assert_eq!(
            s.list_objects("b", "t/"),
            vec!["t/part-1.csv".to_string(), "t/part-2.csv".to_string()]
        );
        assert_eq!(s.total_size("b", "t/"), 3);
        assert_eq!(s.list_objects("missing", ""), Vec::<String>::new());
    }

    #[test]
    fn delete() {
        let s = store_with("obj", "x");
        assert!(s.delete_object("tpch", "obj"));
        assert!(!s.delete_object("tpch", "obj"));
        assert!(s.object_size("tpch", "obj").is_err());
    }

    #[test]
    fn scoped_ledgers_roll_up_into_the_global_bill() {
        let s = store_with("obj", "payload");
        let q1 = s.scoped();
        let q2 = s.scoped();
        q1.get_object("tpch", "obj").unwrap();
        q2.get_object("tpch", "obj").unwrap();
        q2.get_object("tpch", "obj").unwrap();
        assert_eq!(q1.ledger().snapshot().requests, 1);
        assert_eq!(q2.ledger().snapshot().requests, 2);
        // Global = sum of children (plus nothing billed at the root here).
        let global = s.global_ledger().snapshot();
        assert_eq!(global.requests, 3);
        assert_eq!(global.plain_bytes, 21);
        // The root handle's billing ledger *is* the global one.
        assert_eq!(s.ledger().snapshot(), global);
    }

    #[test]
    fn fault_plan_is_a_pure_function_of_seed_key_ordinal() {
        let plan = FaultPlan::new(42, 0.3);
        let kh = key_hash("b", "k");
        let sites: Vec<bool> = (0..64).map(|o| plan.faults(0, kh, o)).collect();
        // Deterministic: identical on re-evaluation.
        let again: Vec<bool> = (0..64).map(|o| plan.faults(0, kh, o)).collect();
        assert_eq!(sites, again);
        // Roughly the requested rate (loose bound; it is a hash, not luck).
        let rate = sites.iter().filter(|f| **f).count();
        assert!((5..35).contains(&rate), "rate {rate}/64 for prob 0.3");
        // Different seeds / salts / keys give different streams.
        let plan2 = FaultPlan::new(43, 0.3);
        assert_ne!(
            sites,
            (0..64).map(|o| plan2.faults(0, kh, o)).collect::<Vec<_>>()
        );
        assert_ne!(
            sites,
            (0..64).map(|o| plan.faults(1, kh, o)).collect::<Vec<_>>()
        );
        // Extremes.
        assert!(!FaultPlan::new(7, 0.0).faults(0, kh, 0));
        assert!(FaultPlan::new(7, 1.0).faults(0, kh, 0));
    }

    #[test]
    fn fault_injection_and_retry() {
        let s = store_with("obj", "payload");
        // prob 1.0: every attempt faults; retries exhaust.
        s.set_fault_plan(Some(FaultPlan::new(1, 1.0)));
        let err = s.get_object("tpch", "obj").unwrap_err();
        assert_eq!(err.code(), "ServiceFault");
        assert!(err.to_string().contains("seed=1"), "{err}");
        assert!(s
            .get_object_with("tpch", "obj", &RetryPolicy::with_attempts(3))
            .is_err());
        // A moderate probability: some scope ordinal faults, and the retry
        // loop absorbs it (attempt count says how many requests it cost).
        s.set_fault_plan(Some(FaultPlan::new(9, 0.4)));
        let scope = s.scoped();
        let got = scope
            .get_object_with("tpch", "obj", &RetryPolicy::with_attempts(16))
            .unwrap();
        assert_eq!(&got.value[..], b"payload");
        assert_eq!(
            scope.ledger().snapshot().requests,
            u64::from(got.attempts),
            "every attempt bills one request"
        );
        s.set_fault_plan(None);
        // Non-retryable errors are not retried.
        assert_eq!(
            s.get_object_with("tpch", "missing", &RetryPolicy::with_attempts(3))
                .unwrap_err()
                .code(),
            "NoSuchKey"
        );
    }

    #[test]
    fn same_seed_same_fault_sites_across_runs() {
        let run = |salt: u64| -> (Vec<bool>, u64) {
            let s = store_with("obj", "x".repeat(64).as_str());
            s.set_fault_plan(Some(FaultPlan::new(77, 0.35)));
            let scope = s.scoped_with_salt(salt);
            let outcomes: Vec<bool> = (0..32)
                .map(|_| scope.get_object("tpch", "obj").is_ok())
                .collect();
            (outcomes, scope.ledger().snapshot().requests)
        };
        let (a, ra) = run(5);
        let (b, rb) = run(5);
        assert_eq!(a, b, "same seed+salt ⇒ same fault sites");
        assert_eq!(ra, rb);
        let (c, _) = run(6);
        assert_ne!(a, c, "different salt ⇒ different stream");
    }

    #[test]
    fn faulted_requests_still_bill_the_request() {
        let s = store_with("obj", "x");
        let scope = s.scoped();
        s.set_fault_plan(Some(FaultPlan::new(0, 1.0)));
        let _ = scope.get_object("tpch", "obj");
        assert_eq!(scope.ledger().snapshot().requests, 1);
        assert_eq!(scope.ledger().snapshot().plain_bytes, 0);
    }

    #[test]
    fn virtual_clock_charges_latency_transfer_and_backoff() {
        let s = store_with("obj", &"x".repeat(1000));
        let plan = FaultPlan::new(3, 0.0);
        s.set_fault_plan(Some(plan));
        let scope = s.scoped();
        scope.get_object("tpch", "obj").unwrap();
        let expect = plan.request_seconds(0, 1000);
        let got = scope.virtual_time_s();
        assert!(
            (got - expect).abs() < 1e-9,
            "clock {got} vs modeled {expect}"
        );
        // Backoff advances the clock too; with prob 1.0 every attempt
        // faults, so a 3-attempt retry pays two backoffs + 3 latencies.
        s.set_fault_plan(Some(FaultPlan::new(3, 1.0)));
        let scope2 = s.scoped();
        let policy = RetryPolicy::default();
        let _ = scope2.get_object_with("tpch", "obj", &policy);
        let want = 3.0 * plan.latency.request_latency
            + policy.backoff_before(1)
            + policy.backoff_before(2);
        assert!((scope2.virtual_time_s() - want).abs() < 1e-9);
        // Sibling scopes do not share clocks...
        assert!((scope.virtual_time_s() - expect).abs() < 1e-9);
        // ...but every scope rolls its time up into its ancestors (the
        // root here), mirroring the ledger: a query scope observes the
        // time its inner algorithm scopes spend.
        assert!((s.virtual_time_s() - (expect + want)).abs() < 1e-9);
        s.set_fault_plan(Some(plan)); // prob 0, default latency model
        let parent = s.scoped();
        let nested = parent.scoped();
        nested.get_object("tpch", "obj").unwrap();
        assert!(nested.virtual_time_s() > 0.0);
        assert!((parent.virtual_time_s() - nested.virtual_time_s()).abs() < 1e-12);
        // No plan ⇒ clock stays put.
        s.set_fault_plan(None);
        let scope3 = s.scoped();
        scope3.get_object("tpch", "obj").unwrap();
        assert_eq!(scope3.virtual_time_s(), 0.0);
    }

    #[test]
    fn range_and_multirange_gets_retry_under_the_uniform_policy() {
        let s = store_with("obj", "0123456789");
        s.set_fault_plan(Some(FaultPlan::new(11, 0.45)));
        let policy = RetryPolicy::with_attempts(20);
        let scope = s.scoped();
        let r = scope
            .get_object_range_with("tpch", "obj", 2, 4, &policy)
            .unwrap();
        assert_eq!(&r.value[..], b"234");
        let m = scope
            .get_object_ranges_with("tpch", "obj", &[(0, 0), (9, 9)], &policy)
            .unwrap();
        assert_eq!(m.value.len(), 2);
        // Requests billed = total attempts across both calls.
        assert_eq!(
            scope.ledger().snapshot().requests,
            u64::from(r.attempts + m.attempts)
        );
        s.set_fault_plan(None);
    }

    /// Fixed 4-byte blocks — the chunk layout the chunked-path tests use.
    fn blocks4(len: u64) -> Vec<(u64, u64)> {
        (0..len)
            .step_by(4)
            .map(|first| (first, (first + 4).min(len)))
            .collect()
    }

    fn us_east() -> pushdown_common::pricing::Pricing {
        pushdown_common::pricing::Pricing::us_east()
    }

    /// The two entry points of a chunked cached read of `tpch/obj`: the
    /// shim that applies the access log on the spot, and the read half
    /// followed by one apply of its log.
    #[derive(Debug, Clone, Copy)]
    enum Via {
        Shim,
        ReadThenApply,
    }

    impl Via {
        fn read(self, s: &S3Store, policy: &RetryPolicy) -> Result<ChunkedFetch> {
            self.read_along(s, policy, blocks4, false)
        }

        /// A read along the layout `layout_of(object length)`; `writes`
        /// says that `layout_of` writes the object, so the read half is
        /// not alone with the cache.
        fn read_along(
            self,
            s: &S3Store,
            policy: &RetryPolicy,
            layout_of: impl Fn(u64) -> Vec<(u64, u64)>,
            writes: bool,
        ) -> Result<ChunkedFetch> {
            if let Via::Shim = self {
                return s.get_object_chunked_cached_with("tpch", "obj", policy, |d| {
                    layout_of(d.len() as u64)
                });
            }
            let cache = s.cache();
            let state = || cache.as_ref().map(|c| (c.stats(), c.residency_digest()));
            let before = state();
            let (fetched, log) =
                s.read_object_chunked_cached_with("tpch", "obj", policy, layout_of, |_, _| None)?;
            assert!(writes || state() == before, "the read half changes nothing");
            if let Some(cache) = &cache {
                cache.apply(log);
            }
            Ok(fetched)
        }
    }

    /// What a scenario leaves behind: the global bill, and the stats and
    /// residency of the store's cache.
    type Settled = (
        pushdown_common::pricing::Usage,
        Option<(pushdown_cache::CacheStats, u64)>,
    );

    fn settled(s: &S3Store) -> Settled {
        let cache = s.cache().map(|c| (c.stats(), c.residency_digest()));
        (s.global_ledger().snapshot(), cache)
    }

    /// Run `scenario` through both entry points: its own checks hold on
    /// each, and the two agree on every fetch and on what they leave.
    fn on_both_paths(scenario: impl Fn(Via) -> (Vec<ChunkedFetch>, Settled)) {
        let shim = scenario(Via::Shim);
        assert_eq!(scenario(Via::ReadThenApply), shim);
    }

    #[test]
    fn chunked_cold_read_is_one_range_get_filling_every_chunk() {
        on_both_paths(|via| {
            let s = store_with("obj", "0123456789");
            s.set_cache(Some(SegmentCache::tiered(1 << 20, 0, us_east())));
            let policy = RetryPolicy::default();
            let scope = s.scoped();
            let cold = via.read(&scope, &policy).unwrap();
            assert!(!cold.hit);
            assert_eq!(&cold.data[..], b"0123456789");
            assert_eq!((cold.attempts, cold.gap_gets), (1, 1));
            assert_eq!(cold.gap_bytes, 10, "cold read bills the whole object");
            let u = scope.ledger().snapshot();
            assert_eq!((u.requests, u.plain_bytes), (1, 10));
            // Every block missed, and each is now its own segment.
            let stats = s.cache().unwrap().stats();
            assert_eq!((stats.misses, stats.fills, stats.segments), (3, 3, 3));
            // Fully warm: bit-identical bytes, nothing billed.
            let warm = via.read(&scope, &policy).unwrap();
            assert!(warm.hit);
            assert_eq!(&warm.data[..], b"0123456789");
            assert_eq!((warm.attempts, warm.gap_bytes), (0, 0));
            assert_eq!(warm.mem_bytes, 10);
            assert_eq!(scope.ledger().snapshot(), u, "warm read bills nothing");
            (vec![cold, warm], settled(&s))
        });
    }

    #[test]
    fn writes_invalidate_cached_chunks_and_their_layout() {
        on_both_paths(|via| {
            let s = store_with("obj", "0123456789");
            let cache = SegmentCache::tiered(1 << 20, 0, us_east());
            s.set_cache(Some(cache.clone()));
            let policy = RetryPolicy::default();
            let first = via.read(&s, &policy).unwrap();
            assert_eq!(cache.stats().segments, 3);
            // Overwrite: the cache must never serve the old bytes again.
            s.put_object("tpch", "obj", "new!");
            assert_eq!(cache.stats().segments, 0, "every chunk dropped");
            let got = via.read(&s, &policy).unwrap();
            assert!(!got.hit);
            assert_eq!(&got.data[..], b"new!");
            assert_eq!(cache.stats().segments, 1, "laid out by its own length");
            // Delete invalidates too.
            s.delete_object("tpch", "obj");
            assert_eq!(cache.stats().segments, 0);
            assert!(via.read(&s, &policy).is_err());
            (vec![first, got], settled(&s))
        });
    }

    #[test]
    fn partial_hits_bill_exactly_the_gap_bytes_and_coalesce_adjacent_gaps() {
        on_both_paths(|via| {
            let s = store_with("obj", "0123456789");
            let policy = RetryPolicy::default();
            // Partial state built directly: chunk (8,10) resident, the two adjacent chunks (0,4) and (4,8) missing —
            // the refetch must coalesce them into ONE range GET billing
            // exactly 8 bytes.
            let c2 = SegmentCache::tiered(1 << 20, 0, us_east());
            let e = c2.begin_fill(&SegmentKey::whole("tpch", "obj"));
            assert!(c2.insert(
                SegmentKey::chunk("tpch", "obj", (8, 10)),
                Bytes::from_static(b"89"),
                e
            ));
            s.set_cache(Some(c2.clone()));
            let scope = s.scoped();
            let partial = via.read(&scope, &policy).unwrap();
            assert!(!partial.hit);
            assert_eq!(&partial.data[..], b"0123456789", "rows bit-identical");
            assert_eq!(partial.mem_bytes, 2, "chunk (8,10) served locally");
            assert_eq!(partial.gap_bytes, 8, "exactly the gap bytes fetched");
            assert_eq!(partial.gap_gets, 1, "adjacent gaps coalesce into one GET");
            let u = scope.ledger().snapshot();
            assert_eq!((u.requests, u.plain_bytes), (1, 8), "bills = gaps only");
            // Both gap chunks were filled back in: next read is free.
            let warm = via.read(&scope, &policy).unwrap();
            assert!(warm.hit);
            assert_eq!(scope.ledger().snapshot(), u);
            (vec![partial, warm], settled(&s))
        });
    }

    /// A warm read whose trailer names the chunks it wants looks up only
    /// those, fetches the missing ones in one GET spanning them (the
    /// chunks between riding along, filled) and hands back the segments
    /// uncopied; with the trailer gone, or no chunks named, it reads
    /// every chunk as before.
    #[test]
    fn chunked_reads_of_named_segments_fetch_their_gaps_in_one_get() {
        let s = store_with("obj", "0123456789abcdef");
        let cache = SegmentCache::tiered(1 << 20, 0, us_east());
        s.set_cache(Some(cache.clone()));
        let policy = RetryPolicy::default();
        let wanted = |at: u64, trailer: &Bytes| {
            assert_eq!((at, &trailer[..]), (12, &b"cdef"[..]));
            Some(vec![(0, 4), (8, 12)])
        };
        let read = |scope: &S3Store| {
            let (fetched, log) = scope
                .read_object_chunked_cached_with("tpch", "obj", &policy, blocks4, wanted)
                .unwrap();
            cache.apply(log.clone());
            (fetched, log)
        };
        let (cold, _) = read(&s.scoped());
        assert_eq!(&cold.data[..], b"0123456789abcdef", "a cold read is whole");
        assert!(cold.segments.is_empty());
        let scope = s.scoped();
        let (warm, log) = read(&scope);
        assert!(warm.hit && warm.data.is_empty());
        let got: Vec<(u64, &[u8])> = warm.segments.iter().map(|(at, b)| (*at, &b[..])).collect();
        assert_eq!(got, [(0, &b"0123"[..]), (8, b"89ab"), (12, b"cdef")]);
        assert_eq!((warm.mem_bytes, warm.attempts), (12, 0));
        assert_eq!(log.len(), 3, "only the named chunks are looked up");
        assert_eq!(scope.ledger().snapshot().requests, 0);

        // The chunks at 0 and 8 gone, 4 resident: one GET spans 0..12.
        let fresh = SegmentCache::tiered(1 << 20, 0, us_east());
        let epoch = fresh.begin_fill(&SegmentKey::whole("tpch", "obj"));
        let data = s.raw_object("tpch", "obj").unwrap();
        for range in [(4, 8), (12, 16)] {
            let bytes = data.slice(range.0 as usize..range.1 as usize);
            fresh.insert(SegmentKey::chunk("tpch", "obj", range), bytes, epoch);
        }
        s.set_cache(Some(fresh.clone()));
        let scope = s.scoped();
        let (fetched, log) = scope
            .read_object_chunked_cached_with("tpch", "obj", &policy, blocks4, wanted)
            .unwrap();
        let got: Vec<(u64, &[u8])> = fetched
            .segments
            .iter()
            .map(|(at, b)| (*at, &b[..]))
            .collect();
        assert_eq!(got, [(0, &b"0123456789ab"[..]), (12, b"cdef")]);
        assert_eq!(
            (fetched.attempts, fetched.gap_gets, fetched.gap_bytes),
            (1, 1, 12)
        );
        assert_eq!((fetched.mem_bytes, fetched.hit), (4, false));
        let u = scope.ledger().snapshot();
        assert_eq!((u.requests, u.plain_bytes), (1, 12), "billed once");
        let fills = log
            .iter()
            .filter(|a| matches!(a, Access::Fill { .. }))
            .count();
        assert_eq!(fills, 3, "the chunk at 4 rides along and fills");

        // No trailer resident: every chunk is looked up, the object comes
        // back whole.
        let bare = SegmentCache::tiered(1 << 20, 0, us_east());
        let epoch = bare.begin_fill(&SegmentKey::whole("tpch", "obj"));
        bare.insert(
            SegmentKey::chunk("tpch", "obj", (4, 8)),
            data.slice(4..8),
            epoch,
        );
        s.set_cache(Some(bare));
        let (fetched, _) = s
            .read_object_chunked_cached_with("tpch", "obj", &policy, blocks4, wanted)
            .unwrap();
        assert_eq!(&fetched.data[..], b"0123456789abcdef");
        assert!(fetched.segments.is_empty());
        assert_eq!(
            (fetched.gap_gets, fetched.gap_bytes),
            (2, 12),
            "two gap runs"
        );
    }

    #[test]
    fn chunked_partial_hits_serve_each_tier_at_its_own_clock_rate() {
        on_both_paths(|via| {
            let s = store_with("obj", &"x".repeat(12));
            // Mem fits one 4-byte chunk; the other two demote to disk.
            let cache = SegmentCache::tiered(4, 64, us_east());
            s.set_cache(Some(cache.clone()));
            let plan = FaultPlan::new(0, 0.0);
            s.set_fault_plan(Some(plan));
            let policy = RetryPolicy::default();
            let cold = s.scoped();
            let first = via.read(&cold, &policy).unwrap();
            assert_eq!(cache.stats().demotions, 2);
            let scope = s.scoped();
            let warm = via.read(&scope, &policy).unwrap();
            assert!(warm.hit);
            assert_eq!(warm.mem_bytes + warm.disk_bytes, 12);
            assert!(warm.disk_bytes > 0, "some chunks served from disk");
            let expect = warm.mem_bytes as f64 / plan.latency.cache_read_bw
                + warm.disk_bytes as f64 / plan.latency.disk_read_bw;
            assert!(
                (scope.virtual_time_s() - expect).abs() < 1e-12,
                "clock {} vs per-tier local read {expect}",
                scope.virtual_time_s()
            );
            assert_eq!(scope.ledger().snapshot().requests, 0, "hits bill nothing");
            assert!(
                scope.virtual_time_s() < cold.virtual_time_s(),
                "local beats remote"
            );
            s.set_fault_plan(None);
            (vec![first, warm], settled(&s))
        });
    }

    #[test]
    fn chunked_gap_fills_retry_under_chaos_and_bill_bytes_once() {
        on_both_paths(|via| {
            let s = store_with("obj", "0123456789abcdef");
            let warm_cache = SegmentCache::tiered(1 << 20, 0, us_east());
            let e = warm_cache.begin_fill(&SegmentKey::whole("tpch", "obj"));
            // Chunks 0 and 2 resident: two non-adjacent gaps ⇒ two range
            // GETs.
            for (range, data) in [((0, 4), b"0123"), ((8, 12), b"89ab")] {
                let chunk = SegmentKey::chunk("tpch", "obj", range);
                assert!(warm_cache.insert(chunk, Bytes::from_static(data), e));
            }
            s.set_cache(Some(warm_cache));
            s.set_fault_plan(Some(FaultPlan::new(9, 0.4)));
            let scope = s.scoped();
            let policy = RetryPolicy::with_attempts(16);
            let got = via.read(&scope, &policy).unwrap();
            assert_eq!(&got.data[..], b"0123456789abcdef");
            assert_eq!(got.gap_gets, 2, "two non-adjacent gaps");
            assert_eq!(got.gap_bytes, 8);
            assert!(got.attempts >= 2);
            let u = scope.ledger().snapshot();
            assert_eq!(u.requests, u64::from(got.attempts), "every attempt billed");
            assert_eq!(u.plain_bytes, 8, "gap bytes billed once across retries");
            // The hit after a chaotic fill is free: no request, no ordinal.
            let hit = via.read(&scope, &policy).unwrap();
            assert!(hit.hit);
            assert_eq!(scope.ledger().snapshot(), u);
            s.set_fault_plan(None);
            (vec![got, hit], settled(&s))
        });
    }

    #[test]
    fn chunked_reads_fall_back_to_a_whole_reload_when_a_writer_races() {
        on_both_paths(|via| {
            let s = store_with("obj", "0123456789");
            let cache = SegmentCache::tiered(1 << 20, 0, us_east());
            let e = cache.begin_fill(&SegmentKey::whole("tpch", "obj"));
            assert!(cache.insert(
                SegmentKey::chunk("tpch", "obj", (0, 4)),
                Bytes::from_static(b"0123"),
                e
            ));
            s.set_cache(Some(cache.clone()));
            // A writer replaces the object once the read has its epoch
            // and has laid out the old length: the gap GET against the
            // shrunken object comes back short, the epoch mismatch is
            // detected, and the read degrades to one clean whole-object
            // reload.
            let raced = std::cell::Cell::new(false);
            let racing = |len: u64| {
                if !raced.replace(true) {
                    s.put_object("tpch", "obj", "XY");
                }
                blocks4(len)
            };
            let policy = RetryPolicy::default();
            let scope = s.scoped();
            let got = via.read_along(&scope, &policy, racing, true).unwrap();
            assert_eq!(&got.data[..], b"XY", "the current version, never a mix");
            assert!(!got.hit);
            let u = scope.ledger().snapshot();
            assert_eq!(
                (u.requests, u.plain_bytes),
                (u64::from(got.attempts), got.gap_bytes),
                "the short GET and the reload, both billed and both counted"
            );
            assert_eq!(cache.stats().segments, 0, "nothing of either version kept");
            s.delete_object("tpch", "obj");
            assert!(via.read(&s.scoped(), &policy).is_err());
            (vec![got], settled(&s))
        });
    }

    #[test]
    fn commit_cache_charges_the_receipt_once() {
        on_both_paths(|via| {
            let tmp = pushdown_common::TempDir::new("s3-commit");
            let s = store_with("obj", &"x".repeat(12));
            let config = pushdown_cache::CacheConfig {
                disk_bytes: 64,
                dir: Some(tmp.path().to_path_buf()),
                ..Default::default()
            };
            let cache = SegmentCache::open(&config, us_east(), None, None).unwrap();
            s.set_cache(Some(cache.clone()));
            let plan = FaultPlan::new(0, 0.0);
            s.set_fault_plan(Some(plan));
            let scope = s.scoped();
            let got = via.read(&scope, &RetryPolicy::default()).unwrap();
            // Three chunk fills are appended, none synced yet, and the
            // read itself charged only the GET.
            let (bytes, fsyncs) = cache.persist_counters();
            assert!(bytes > 12);
            assert_eq!(fsyncs, 0, "write-behind: no barrier before the commit");
            let read_s = scope.virtual_time_s();
            assert!((read_s - plan.request_seconds(0, 12)).abs() < 1e-9);
            scope.commit_cache();
            assert_eq!(cache.persist_counters(), (bytes, 2), "one group commit");
            // The commit is one advance of the clock, which counts whole
            // nanoseconds: compare in those.
            let expect =
                bytes as f64 / plan.latency.disk_write_bw + 2.0 * plan.latency.fsync_latency;
            let charged_ns = |scope: &S3Store| ((scope.virtual_time_s() - read_s) * 1e9).round();
            assert_eq!(charged_ns(&scope), (expect * 1e9).trunc());
            // Nothing pending: a second commit is free, on any scope.
            let other = s.scoped();
            other.commit_cache();
            scope.commit_cache();
            assert_eq!(cache.persist_counters(), (bytes, 2));
            assert_eq!(other.virtual_time_s(), 0.0);
            assert_eq!(charged_ns(&scope), (expect * 1e9).trunc());
            s.set_fault_plan(None);
            let left = settled(&s);
            s.set_cache(None);
            (vec![got], left)
        });
    }

    #[test]
    fn chunked_reads_without_a_cache_degrade_to_plain_gets() {
        on_both_paths(|via| {
            let s = store_with("obj", "0123456789");
            let scope = s.scoped();
            let got = via.read(&scope, &RetryPolicy::default()).unwrap();
            assert!(!got.hit);
            assert_eq!(&got.data[..], b"0123456789");
            assert_eq!(got.gap_bytes, 10);
            assert_eq!(scope.ledger().snapshot().requests, 1);
            (vec![got], settled(&s))
        });
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let s = S3Store::new();
        s.create_bucket("b");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        s.put_object("b", &format!("k-{t}-{i}"), vec![0u8; 16]);
                        let _ = s.get_object("b", &format!("k-{t}-{i}"));
                    }
                });
            }
        });
        assert_eq!(s.list_objects("b", "k-").len(), 200);
        assert_eq!(s.ledger().snapshot().requests, 200);
    }
}
