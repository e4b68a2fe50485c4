//! Model check of the segment cache (ROADMAP E-4, the part that needs
//! no crash injection).
//!
//! * **Sequential** — seeded random sequences (splitmix64, the
//!   `FaultPlan` discipline: one seed replays one sequence) of
//!   `begin_fill` / `insert` / `get_tiered` / `peek_tier` / `invalidate`
//!   / `occupancy` / `commit` over 12 segments of 3
//!   objects, budgets drawn from {0, tight, roomy} per tier, against
//!   [`Model`] — a single-threaded restatement of the documented policy
//!   (every fill that fits a tier admitted, weighted LFU by dollars
//!   saved per byte, oldest-`seq` tie-break, demote-on-evict,
//!   promote-on-hit, straight-to-disk for fills larger than mem, rent
//!   that `Rent` accesses add and an admitted fill zeroes). After every
//!   operation the returned value, every non-persist field of `stats()`,
//!   the per-tier resident key set and every object's rent agree, and
//!   `used ≤ budget` holds for both tiers.
//! * **One behaviour, two backings** — every sequence drives a
//!   RAM-backed and a file-backed cache side by side; both must match
//!   the model step for step, Σ `commit()` receipts must equal
//!   `persist_counters()`, and after a clean drop + `recover` the cache
//!   holds exactly the model's durable copies, disk-tier, with mem cold.
//! * **Each segment written once** — the model knows which segments the
//!   segment log holds a copy of (put by a demotion or a straight-to-disk
//!   fill, kept through promotion, released when the segment leaves) and
//!   so which log records (`Put`, `Del`) a step appends. A step
//!   that appends none — a promotion, or a demotion of a segment whose
//!   copy is still live — leaves the file-backed caches' persist
//!   counters where they were, and one that appends some moves them.
//! * **Reads, then effects** — `read` steps change nothing and add their
//!   access to a pending log, as do unapplied fills and rent; an
//!   `apply` step applies the log in one call, other steps interleaved
//!   since (so a logged hit may find its segment moved, gone or of a
//!   newer epoch). The model applies it one access after the other, and
//!   a third, file-backed cache applies every log an access per call:
//!   same outcomes, same state, same commit receipts.
//! * **Concurrent** — 8 threads drive the public API for a fixed
//!   operation count, scan-like read-then-apply batches included; the
//!   end state keeps the budgets, `used` == Σ resident lengths, no key
//!   in two tiers, hits + misses == lookups, and no lookup was ever
//!   served bytes older than the epoch it read first.

use bytes::Bytes;
use pushdowndb::cache::{
    Access, CacheConfig, CacheStats, CacheTier, ObjectOccupancy, SegmentCache, SegmentKey,
};
use pushdowndb::common::mix::splitmix64;
use pushdowndb::common::pricing::Pricing;
use pushdowndb::common::TempDir;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const BUCKET: &str = "b";
const OBJECTS: usize = 3;
/// Chunk lengths of every object. The last one is larger than the tight
/// mem budget (straight-to-disk) and fits the tight disk budget.
const CHUNK_LENS: [u64; 4] = [40, 100, 160, 350];
/// {0, tight, roomy}: tight holds a few chunks, roomy the whole universe
/// (3 × 650 bytes).
const MEM_BUDGETS: [u64; 3] = [0, 300, 4096];
const DISK_BUDGETS: [u64; 3] = [0, 500, 4096];
const SEEDS_PER_CONFIG: u64 = 8;
const OPS_PER_SEQUENCE: usize = 300;

fn pricing() -> Pricing {
    Pricing::us_east()
}

fn open(config: &CacheConfig) -> SegmentCache {
    SegmentCache::open(config, pricing(), None, None).expect("cache opens")
}

fn object(o: usize) -> String {
    format!("o{o}")
}

/// The chunk layout every object shares: contiguous `[first, last)`.
fn layout() -> Vec<(u64, u64)> {
    let mut first = 0;
    CHUNK_LENS
        .iter()
        .map(|len| {
            first += len;
            (first - len, first)
        })
        .collect()
}

fn universe() -> Vec<SegmentKey> {
    (0..OBJECTS)
        .flat_map(|o| {
            layout()
                .into_iter()
                .map(move |range| SegmentKey::chunk(BUCKET, &object(o), range))
        })
        .collect()
}

/// A segment's bytes as read at `epoch`: the epoch (so a served hit
/// names the object version it came from), then a key-derived fill.
fn body(key: &SegmentKey, epoch: u64) -> Bytes {
    let len = (key.range.1 - key.range.0) as usize;
    let mut data = vec![(splitmix64(key.range.0) ^ key.key.len() as u64) as u8; len];
    data[..8].copy_from_slice(&epoch.to_le_bytes());
    Bytes::from(data)
}

fn epoch_of(data: &Bytes) -> u64 {
    u64::from_le_bytes(data[..8].try_into().expect("bodies carry their epoch"))
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Skewed toward low indexes, so some segments run hot.
    fn skewed(&mut self, n: usize) -> usize {
        self.below(n).min(self.below(n))
    }
}

// ---------------------------------------------------------------------
// The reference model.
// ---------------------------------------------------------------------

struct Resident {
    tier: CacheTier,
    data: Bytes,
    hits: u64,
    seq: u64,
    /// The order of the segment log's live `Put` of this segment, when a
    /// file-backed cache holds a copy of it.
    copy: Option<u64>,
}

/// The documented cache policy, single-threaded and as plain as it
/// gets: one map, sums instead of running totals, a sort per eviction.
#[derive(Default)]
struct Model {
    config: CacheConfig,
    resident: HashMap<SegmentKey, Resident>,
    epochs: HashMap<String, u64>,
    /// Rent per object: what `Rent` accesses added since its last fill.
    rents: HashMap<String, f64>,
    seq: u64,
    /// `Put` records appended so far, the next one's order (the store
    /// counts them the same way).
    puts: u64,
    /// Log records a file-backed cache has appended so far: `Put`s and
    /// `Del`s (an invalidation's `Epoch` record aside).
    writes: u64,
    /// Demotions that wrote nothing, the segment's copy being live.
    flips: u64,
    /// The event counters; occupancy fields are filled in by `stats`.
    counters: CacheStats,
}

impl Model {
    fn new(config: &CacheConfig) -> Model {
        Model {
            config: config.clone(),
            ..Model::default()
        }
    }

    fn budget(&self, tier: CacheTier) -> u64 {
        match tier {
            CacheTier::Mem => self.config.mem_bytes,
            CacheTier::Disk => self.config.disk_bytes,
        }
    }

    fn in_tier(&self, tier: CacheTier) -> impl Iterator<Item = (&SegmentKey, &Resident)> {
        self.resident.iter().filter(move |(_, r)| r.tier == tier)
    }

    fn used(&self, tier: CacheTier) -> u64 {
        self.in_tier(tier).map(|(_, r)| r.data.len() as u64).sum()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// A `Put` of a segment's bytes: the order of the new copy.
    fn put(&mut self) -> Option<u64> {
        self.puts += 1;
        self.writes += 1;
        Some(self.puts - 1)
    }

    /// A segment left the cache: its copy, if the log holds one, goes
    /// with a `Del`.
    fn release(&mut self, gone: &Resident) {
        self.writes += u64::from(gone.copy.is_some());
    }

    fn begin_fill(&self, object: &str) -> u64 {
        *self.epochs.get(object).unwrap_or(&0)
    }

    /// Dollars a future access saves per cached byte, times the hits.
    fn weight(r: &Resident) -> f64 {
        let p = pricing();
        let len = (r.data.len() as f64).max(1.0);
        r.hits as f64 * (p.scan_per_gb / 1_000_000_000.0 + p.per_1k_requests / 1000.0 / len)
    }

    /// Evict minimum-weight segments (oldest first on ties) until `tier`
    /// fits: mem victims demote when they fit the disk budget at all —
    /// putting their bytes in the log unless a copy is live there —
    /// and disk victims leave the cache.
    fn evict(&mut self, tier: CacheTier) {
        let overshoot = self.used(tier).saturating_sub(self.budget(tier));
        let mut order: Vec<(f64, u64, SegmentKey)> = self
            .in_tier(tier)
            .map(|(k, r)| (Self::weight(r), r.seq, k.clone()))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut freed, mut demoted) = (0, false);
        for (_, _, key) in order {
            if freed >= overshoot {
                break;
            }
            let len = self.resident[&key].data.len() as u64;
            freed += len;
            if tier == CacheTier::Disk {
                self.counters.disk_evictions += 1;
                let gone = self.resident.remove(&key).expect("listed above");
                self.release(&gone);
                continue;
            }
            self.counters.evictions += 1;
            if len <= self.config.disk_bytes {
                let seq = self.next_seq();
                let copy = match self.resident[&key].copy {
                    Some(order) => {
                        self.flips += 1;
                        Some(order)
                    }
                    None => self.put(),
                };
                let r = self.resident.get_mut(&key).expect("listed above");
                (r.tier, r.seq, r.copy) = (CacheTier::Disk, seq, copy);
                self.counters.demotions += 1;
                demoted = true;
            } else {
                let gone = self.resident.remove(&key).expect("listed above");
                self.release(&gone);
            }
        }
        if demoted {
            self.evict(CacheTier::Disk);
        }
    }

    fn insert(&mut self, key: &SegmentKey, data: Bytes, epoch: u64) -> bool {
        let len = data.len() as u64;
        let target = if len <= self.config.mem_bytes {
            CacheTier::Mem
        } else if len <= self.config.disk_bytes {
            CacheTier::Disk
        } else {
            return false;
        };
        if self.begin_fill(&key.key) != epoch {
            self.counters.stale_fills += 1;
            return false;
        }
        let seq = self.next_seq();
        // A straight-to-disk fill puts its bytes in the log; one held in
        // RAM releases the copy of the segment it replaces.
        let copy = match target {
            CacheTier::Mem => None,
            CacheTier::Disk => self.put(),
        };
        let fill = Resident {
            tier: target,
            data,
            hits: 1,
            seq,
            copy,
        };
        if let Some(old) = self.resident.insert(key.clone(), fill) {
            if target == CacheTier::Mem {
                self.release(&old);
            }
        }
        self.rents.remove(&key.key);
        self.counters.fills += 1;
        self.counters.fill_bytes += len;
        self.evict(target);
        true
    }

    fn get_tiered(&mut self, key: &SegmentKey) -> Option<(Bytes, CacheTier)> {
        let access = self.read(key);
        let served = access.served();
        self.apply(access);
        served
    }

    /// What a lookup sees; changes nothing.
    fn read(&self, key: &SegmentKey) -> Access {
        match self.resident.get(key) {
            Some(r) => Access::Hit {
                key: key.clone(),
                tier: r.tier,
                data: r.data.clone(),
                epoch: self.begin_fill(&key.key),
            },
            None => Access::Miss {
                key: key.clone(),
                lost: false,
            },
        }
    }

    /// One access of a log, as the documented policy applies it.
    fn apply(&mut self, access: Access) -> bool {
        match access {
            Access::Hit {
                key,
                tier,
                data,
                epoch,
            } => {
                let len = data.len() as u64;
                self.counters.hits += 1;
                self.counters.hit_bytes += len;
                if tier == CacheTier::Disk {
                    self.counters.disk_hits += 1;
                    self.counters.disk_hit_bytes += len;
                }
                // A hit of an older version touches nothing resident.
                let current = self.begin_fill(&key.key) == epoch;
                let mem_budget = self.config.mem_bytes;
                let seq = self.seq;
                let Some(r) = self.resident.get_mut(&key).filter(|_| current) else {
                    return true;
                };
                r.hits += 1;
                if r.tier == CacheTier::Disk && len <= mem_budget {
                    (r.tier, r.seq) = (CacheTier::Mem, seq);
                    self.seq += 1;
                    self.counters.promotions += 1;
                    self.evict(CacheTier::Mem);
                }
                true
            }
            Access::Miss { .. } => {
                self.counters.misses += 1;
                false
            }
            Access::Fill { key, data, epoch } => self.insert(&key, data, epoch),
            Access::Rent { key, dollars, .. } => {
                if dollars > 0.0 {
                    *self.rents.entry(key).or_default() += dollars;
                }
                dollars > 0.0
            }
        }
    }

    fn peek_tier(&self, key: &SegmentKey) -> Option<(u64, CacheTier)> {
        self.resident
            .get(key)
            .map(|r| (r.data.len() as u64, r.tier))
    }

    fn invalidate(&mut self, object: &str) {
        *self.epochs.entry(object.to_string()).or_insert(0) += 1;
        self.resident.retain(|k, _| k.key != object);
        self.counters.invalidations += 1;
    }

    fn occupancy(&self, object: &str) -> ObjectOccupancy {
        let mut occ = ObjectOccupancy::default();
        let mut in_gap = false;
        for range in layout() {
            let len = range.1 - range.0;
            let tier = self
                .peek_tier(&SegmentKey::chunk(BUCKET, object, range))
                .map(|(_, tier)| tier);
            match tier {
                Some(CacheTier::Mem) => occ.mem_bytes += len,
                Some(CacheTier::Disk) => occ.disk_bytes += len,
                None => {
                    occ.gap_bytes += len;
                    // Adjacent missing chunks coalesce into one GET.
                    occ.gap_requests += u64::from(!in_gap);
                }
            }
            in_gap = tier.is_none();
        }
        occ.trailer_resident = !in_gap;
        occ
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            used_bytes: self.used(CacheTier::Mem),
            budget_bytes: self.config.mem_bytes,
            segments: self.in_tier(CacheTier::Mem).count() as u64,
            disk_used_bytes: self.used(CacheTier::Disk),
            disk_budget_bytes: self.config.disk_bytes,
            disk_segments: self.in_tier(CacheTier::Disk).count() as u64,
            ..self.counters
        }
    }
}

// ---------------------------------------------------------------------
// Driving the model and the caches with the same steps.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    BeginFill(SegmentKey),
    Insert(SegmentKey, Bytes, u64),
    Get(SegmentKey),
    Peek(SegmentKey),
    Invalidate(String),
    Occupancy(String),
    Commit,
    /// A side-effect-free lookup; its access joins the pending log.
    Read(SegmentKey),
    /// A fill or rent joins the pending log unapplied.
    Log(Access),
    /// The pending log, applied in one call.
    Apply(Vec<Access>),
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Epoch(u64),
    Admitted(bool),
    Served(Option<(Bytes, CacheTier)>),
    Peeked(Option<(u64, CacheTier)>),
    Occupancy(ObjectOccupancy),
    Read(Access),
    Applied(Vec<bool>),
    Done,
}

fn object_len() -> u64 {
    CHUNK_LENS.iter().sum()
}

fn apply_model(m: &mut Model, step: &Step) -> Outcome {
    match step {
        Step::BeginFill(k) => Outcome::Epoch(m.begin_fill(&k.key)),
        Step::Insert(k, data, epoch) => Outcome::Admitted(m.insert(k, data.clone(), *epoch)),
        Step::Get(k) => Outcome::Served(m.get_tiered(k)),
        Step::Peek(k) => Outcome::Peeked(m.peek_tier(k)),
        Step::Invalidate(o) => {
            m.invalidate(o);
            Outcome::Done
        }
        Step::Occupancy(o) => Outcome::Occupancy(m.occupancy(o)),
        Step::Commit | Step::Log(_) => Outcome::Done,
        Step::Read(k) => Outcome::Read(m.read(k)),
        // One access after the other.
        Step::Apply(log) => Outcome::Applied(log.iter().map(|a| m.apply(a.clone())).collect()),
    }
}

/// Apply one step through the public API, adding a commit's receipt to
/// `receipts`; `one_by_one` applies a log one access per call.
fn apply_cache(
    c: &SegmentCache,
    step: &Step,
    receipts: &mut (u64, u64),
    one_by_one: bool,
) -> Outcome {
    match step {
        Step::BeginFill(k) => Outcome::Epoch(c.begin_fill(k)),
        Step::Insert(k, data, epoch) => {
            Outcome::Admitted(c.insert(k.clone(), data.clone(), *epoch))
        }
        Step::Get(k) => Outcome::Served(c.get_tiered(k)),
        Step::Peek(k) => Outcome::Peeked(c.peek_tier(k)),
        Step::Invalidate(o) => {
            c.invalidate(BUCKET, o);
            Outcome::Done
        }
        Step::Occupancy(o) => {
            Outcome::Occupancy(c.occupancy(BUCKET, o, object_len(), |_| layout()))
        }
        Step::Commit => {
            let (bytes, fsyncs) = c.commit();
            receipts.0 += bytes;
            receipts.1 += fsyncs;
            Outcome::Done
        }
        Step::Read(k) => Outcome::Read(c.read(k)),
        Step::Log(_) => Outcome::Done,
        Step::Apply(log) if one_by_one => {
            Outcome::Applied(log.iter().flat_map(|a| c.apply([a.clone()])).collect())
        }
        Step::Apply(log) => Outcome::Applied(c.apply(log.clone())),
    }
}

/// Draw the next step. `pending[i]` is the epoch an earlier `BeginFill`
/// of segment `i` returned and no `Insert` has used yet — with
/// invalidations in between, that is how stale fills arise. `log` is the
/// access log read and filled so far and not yet applied; with other
/// steps in between, its hits can find their segments moved or gone.
fn draw(
    rng: &mut Rng,
    keys: &[SegmentKey],
    pending: &[Option<u64>],
    log: &[Access],
    m: &Model,
) -> Step {
    let i = rng.skewed(keys.len());
    let key = keys[i].clone();
    let epoch = pending[i].unwrap_or_else(|| m.begin_fill(&key.key));
    match rng.below(114) {
        0..=7 => Step::BeginFill(key),
        8..=39 => Step::Insert(key.clone(), body(&key, epoch), epoch),
        40..=69 => Step::Get(key),
        70..=75 => Step::Peek(key),
        76..=80 => Step::Invalidate(key.key),
        81..=87 => Step::Occupancy(key.key),
        88..=93 => Step::Commit,
        94..=101 => Step::Read(key),
        102..=105 => Step::Log(Access::Fill {
            data: body(&key, epoch),
            key,
            epoch,
        }),
        // Quarter-dollar steps, negative ones included: sums are exact in
        // any order.
        106..=107 => Step::Log(Access::Rent {
            bucket: BUCKET.to_string(),
            key: key.key,
            dollars: rng.below(5) as f64 * 0.25 - 0.25,
        }),
        _ => Step::Apply(log.to_vec()),
    }
}

/// Every non-persist field of `stats()`, the per-tier resident key set
/// and the budgets agree with the model.
fn assert_same_state(c: &SegmentCache, m: &Model, keys: &[SegmentKey], context: &str) {
    let stats = CacheStats {
        persisted_bytes: 0,
        fsyncs: 0,
        commits: 0,
        compactions: 0,
        ..c.stats()
    };
    assert_eq!(stats, m.stats(), "{context}: stats");
    assert!(stats.used_bytes <= stats.budget_bytes, "{context}: mem");
    assert!(
        stats.disk_used_bytes <= stats.disk_budget_bytes,
        "{context}: disk"
    );
    for k in keys {
        assert_eq!(
            c.peek_tier(k),
            m.peek_tier(k),
            "{context}: residency of {k:?}"
        );
        let rent = m.rents.get(&k.key).copied().unwrap_or(0.0);
        assert_eq!(c.rent(BUCKET, &k.key), rent, "{context}: rent of {k:?}");
        assert!(rent >= 0.0, "{context}: rent is never negative");
    }
}

/// Drive one seeded sequence; returns how many of its steps demoted a
/// segment by a flip of its tier and appended nothing.
fn run_sequence(config: &CacheConfig, seed: u64) -> u64 {
    let keys = universe();
    let tmp = TempDir::new("cache-model");
    let file_config = CacheConfig {
        dir: Some(tmp.path().to_path_buf()),
        ..config.clone()
    };
    let tmp_single = TempDir::new("cache-model-single");
    let single_config = CacheConfig {
        dir: Some(tmp_single.path().to_path_buf()),
        ..config.clone()
    };
    let mut model = Model::new(config);
    // The two backings are one behaviour: both follow the model. And a
    // log applied in one call is its accesses applied one by one: the
    // third cache applies every log an access at a time.
    let mut subjects = [
        ("ram", open(config), (0, 0), false),
        ("file", open(&file_config), (0, 0), false),
        ("file, one by one", open(&single_config), (0, 0), true),
    ];
    let mut rng = Rng(seed);
    let mut pending: Vec<Option<u64>> = vec![None; keys.len()];
    let mut log: Vec<Access> = Vec::new();
    let mut flip_only_steps = 0;
    for n in 0..OPS_PER_SEQUENCE {
        let step = draw(&mut rng, &keys, &pending, &log, &model);
        let (writes, flips) = (model.writes, model.flips);
        let want = apply_model(&mut model, &step);
        let wrote = model.writes > writes;
        // Commits sync what earlier steps appended; an invalidation's
        // `Epoch` record depends on what the log has held since its last
        // compaction, which the model does not follow.
        let checked = !matches!(step, Step::Commit | Step::Invalidate(_));
        flip_only_steps += u64::from(checked && !wrote && model.flips > flips);
        for (backing, cache, receipts, one_by_one) in subjects.iter_mut() {
            let context = format!("{config:?} seed {seed} op {n} {step:?} ({backing})");
            let persisted = cache.persist_counters();
            assert_eq!(
                apply_cache(cache, &step, receipts, *one_by_one),
                want,
                "{context}"
            );
            assert_same_state(cache, &model, &keys, &context);
            if checked && *backing != "ram" {
                assert_eq!(
                    cache.persist_counters() != persisted,
                    wrote,
                    "{context}: the log is appended to exactly when the model writes a record"
                );
            }
        }
        let [_, (_, _, batched, _), (_, _, single, _)] = &subjects;
        assert_eq!(batched, single, "{config:?} seed {seed} op {n}: receipts");
        match (&step, &want) {
            (Step::Log(access), _) => log.push(access.clone()),
            (Step::Read(_), Outcome::Read(access)) => log.push(access.clone()),
            (Step::Apply(_), _) => log.clear(),
            _ => {}
        }
        match (&step, &want) {
            (Step::BeginFill(k), Outcome::Epoch(e)) => {
                pending[keys.iter().position(|x| x == k).expect("drawn from keys")] = Some(*e)
            }
            (Step::Insert(k, ..), _) => {
                pending[keys.iter().position(|x| x == k).expect("drawn from keys")] = None
            }
            _ => {}
        }
    }

    let [(_, ram, ram_receipts, _), (_, file, mut file_receipts, _), (_, single, mut single_receipts, _)] =
        subjects;
    assert_eq!(ram_receipts, (0, 0), "a RAM-backed cache persists nothing");
    assert_eq!(ram.persist_counters(), (0, 0));
    // Every appended byte and every barrier is on exactly one receipt.
    apply_cache(&file, &Step::Commit, &mut file_receipts, false);
    apply_cache(&single, &Step::Commit, &mut single_receipts, true);
    assert_eq!(file_receipts, single_receipts, "{config:?} seed {seed}");
    assert_eq!(
        file_receipts,
        file.persist_counters(),
        "{config:?} seed {seed}: Σ receipts"
    );

    // A clean shutdown loses nothing: every live copy comes back — the
    // disk tier's and those of the mem segments promoted from it —
    // disk-tier, trimmed to the disk budget oldest `Put` first, and mem
    // stays cold.
    drop(file);
    let recovered = open(&file_config);
    let mut copies: Vec<(u64, &SegmentKey, &Bytes)> = (model.resident.iter())
        .filter_map(|(k, r)| r.copy.map(|order| (order, k, &r.data)))
        .collect();
    copies.sort_by_key(|(order, ..)| *order);
    let mut total: u64 = copies.iter().map(|(_, _, data)| data.len() as u64).sum();
    let mut oldest_kept = 0;
    while total > config.disk_bytes {
        total -= copies[oldest_kept].2.len() as u64;
        oldest_kept += 1;
    }
    let kept: HashMap<&SegmentKey, &Bytes> = (copies[oldest_kept..].iter())
        .map(|(_, k, data)| (*k, *data))
        .collect();
    for k in &keys {
        let want = kept.get(k).map(|data| (data.len() as u64, CacheTier::Disk));
        assert_eq!(
            recovered.peek_tier(k),
            want,
            "{config:?} seed {seed}: {k:?}"
        );
    }
    let stats = recovered.stats();
    assert_eq!(stats.recovered_segments, kept.len() as u64);
    assert_eq!(stats.used_bytes, 0, "{config:?} seed {seed}: mem is cold");
    for (k, data) in kept {
        assert_eq!(
            recovered.get(k).as_ref(),
            Some(data),
            "{config:?} seed {seed}"
        );
    }
    flip_only_steps
}

#[test]
fn random_sequences_match_the_reference_model_on_both_backings() {
    let (mut case, mut flip_only_steps) = (0, 0);
    for mem_bytes in MEM_BUDGETS {
        for disk_bytes in DISK_BUDGETS {
            let config = CacheConfig {
                mem_bytes,
                disk_bytes,
                dir: None,
            };
            for _ in 0..SEEDS_PER_CONFIG {
                case += 1;
                flip_only_steps += run_sequence(&config, splitmix64(case));
            }
        }
    }
    assert!(
        flip_only_steps > 0,
        "no step demoted a segment whose copy was live"
    );
}

/// 8 threads, a fixed operation count each, arbitrary interleavings:
/// the end state keeps every invariant a single thread sees, and no
/// lookup is served bytes older than the epoch it read beforehand.
fn run_concurrent(config: &CacheConfig) {
    const THREADS: u64 = 8;
    const OPS_PER_THREAD: usize = 600;
    let keys = universe();
    let cache = open(config);
    let start = Barrier::new(THREADS as usize);
    let (lookups, served_bytes, admitted) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, keys, start) = (&cache, &keys, &start);
            let (lookups, served_bytes, admitted) = (&lookups, &served_bytes, &admitted);
            s.spawn(move || {
                let mut rng = Rng(splitmix64(0xC0FFEE ^ t));
                start.wait();
                for _ in 0..OPS_PER_THREAD {
                    let key = &keys[rng.skewed(keys.len())];
                    match rng.below(105) {
                        0..=39 => {
                            let epoch = cache.begin_fill(key);
                            let stored = cache.insert(key.clone(), body(key, epoch), epoch);
                            admitted.fetch_add(u64::from(stored), Ordering::Relaxed);
                        }
                        40..=84 => {
                            let floor = cache.begin_fill(key);
                            lookups.fetch_add(1, Ordering::Relaxed);
                            if let Some((data, _)) = cache.get_tiered(key) {
                                assert_eq!(data.len() as u64, key.range.1 - key.range.0);
                                assert!(epoch_of(&data) >= floor, "stale bytes served");
                                served_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                            }
                        }
                        85..=89 => cache.invalidate(BUCKET, &key.key),
                        90..=92 => {
                            let occ = cache.occupancy(BUCKET, &key.key, object_len(), |_| layout());
                            assert_eq!(
                                occ.mem_bytes + occ.disk_bytes + occ.gap_bytes,
                                object_len()
                            );
                        }
                        93..=94 => {
                            cache.commit();
                        }
                        _ => {
                            // A scan's way: read a few segments and fill
                            // the misses, touching nothing, then apply the
                            // log in one call.
                            let mut log = Vec::new();
                            for _ in 0..3 {
                                let key = &keys[rng.skewed(keys.len())];
                                let floor = cache.begin_fill(key);
                                let access = cache.read(key);
                                match access.served() {
                                    Some((data, _)) => {
                                        assert!(epoch_of(&data) >= floor, "stale bytes read");
                                        served_bytes
                                            .fetch_add(data.len() as u64, Ordering::Relaxed);
                                        log.push(access);
                                    }
                                    None => {
                                        log.push(access);
                                        let data = body(key, floor);
                                        let (key, epoch) = (key.clone(), floor);
                                        log.push(Access::Fill { key, data, epoch });
                                    }
                                }
                                lookups.fetch_add(1, Ordering::Relaxed);
                            }
                            let fills = log.iter().map(|a| matches!(a, Access::Fill { .. }));
                            let fills: Vec<bool> = fills.collect();
                            let applied = cache.apply(log);
                            let stored = applied.iter().zip(&fills).filter(|(a, f)| **a && **f);
                            admitted.fetch_add(stored.count() as u64, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert!(stats.used_bytes <= stats.budget_bytes, "{stats:?}");
    assert!(
        stats.disk_used_bytes <= stats.disk_budget_bytes,
        "{stats:?}"
    );
    // `used` == Σ resident lengths, tier by tier; the segment counts
    // matching too means no key is counted in both tiers.
    let mut resident = [(0, 0); 2];
    for (len, tier) in keys.iter().filter_map(|k| cache.peek_tier(k)) {
        resident[tier as usize].0 += len;
        resident[tier as usize].1 += 1;
    }
    assert_eq!(resident[0], (stats.used_bytes, stats.segments), "{stats:?}");
    assert_eq!(
        resident[1],
        (stats.disk_used_bytes, stats.disk_segments),
        "{stats:?}"
    );
    assert_eq!(stats.hits + stats.misses, lookups.into_inner(), "{stats:?}");
    assert_eq!(stats.hit_bytes, served_bytes.into_inner(), "{stats:?}");
    assert_eq!(stats.fills, admitted.into_inner(), "{stats:?}");
}

#[test]
fn eight_threads_leave_every_invariant_standing() {
    let tmp = TempDir::new("cache-model-threads");
    let config = CacheConfig {
        mem_bytes: MEM_BUDGETS[1],
        disk_bytes: DISK_BUDGETS[1],
        dir: None,
    };
    run_concurrent(&config);
    run_concurrent(&CacheConfig {
        dir: Some(tmp.path().to_path_buf()),
        ..config
    });
}
