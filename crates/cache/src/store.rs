//! File-backed byte store behind the disk cache tier.
//!
//! The mem tier of [`crate::SegmentCache`] is RAM and dies with the
//! process — that is its nature. The disk tier exists to *survive*
//! restarts, so this module gives it a real on-disk layout:
//!
//! ```text
//! <dir>/
//!   MANIFEST      record log: which segment lives where, at which
//!                 object epoch, with which checksum
//!   seg-g0.dat    the segment log: one append-only file of segment
//!                 bytes (generation suffix bumps on compaction)
//! ```
//!
//! **Durability protocol: write-behind with group commit.** Persisting
//! a segment appends its bytes to the segment log and a `Put` record to
//! the manifest. A segment is persisted once, when it first reaches the
//! disk tier: its `Put` stays live while a disk hit promotes it to mem
//! and an eviction demotes it back, and a `Del` is appended only when it
//! leaves the cache. Appends go straight to the files (`write_all`, no user-space
//! buffer), so the same handles read them back at once, but nothing is
//! fsynced until a **commit**: one `sync_data` on the segment log, *then*
//! one on the manifest, covering everything appended since the last
//! commit — at most two barriers however many segments and dels are
//! pending. Commit points are fixed by the code: the end of
//! each cached scan ([`crate::SegmentCache::commit`]), an invalidation
//! (its `Epoch` record is durable before the call returns), compaction,
//! and the drop of the store (a clean shutdown loses nothing). The
//! barrier order plus the per-record epoch and fnv1a checksum make every
//! crash state recoverable: a `Put` is only *committed* once the bytes
//! it points at are durable, and a record that reached the disk ahead of
//! its bytes fails the checksum (or, from a superseded epoch, the epoch
//! filter) at recovery instead of resurrecting torn or stale data.
//!
//! **Recovery** (`DiskStore::open`) replays the manifest, tolerating a
//! torn tail (parsing stops at the first bad frame and the file is
//! truncated there), counts a well-framed record it does not know — the
//! `Layout` records (tag 4) of manifests written while the cache kept
//! chunk layouts among them — as dropped, folds records newest-wins,
//! verifies every surviving `Put` against the segment log bytes, and deletes stray
//! files: older generations, a crashed compaction's output, and the
//! per-shard `seg-NN-gN.dat` files of the version-1 layout (whose
//! manifest is discarded, not migrated). The [`crate::SegmentCache`]
//! layer on top then applies its own catalog check and budget trim to
//! every live `Put` — the disk tier at shutdown and the mem segments
//! promoted from it.
//!
//! **Compaction.** Dead records (superseded puts, dels, stale epochs,
//! unknown records) accumulate; once they outnumber live state `COMPACT_FACTOR`-fold
//! (past a fixed floor), the store rewrites live bytes into the
//! next-generation segment log and replaces the manifest via
//! write-to-temp + atomic rename — two barriers, and itself a commit. A
//! crash mid-compaction leaves the old manifest as the commit point.
//!
//! **Crash injection.** A [`KillPlan`] kills the store at the Nth fsync
//! with the same `splitmix64` discipline as the fault plan. A crash
//! loses what no barrier covered, in *both* files: each keeps its
//! durable length plus a seeded torn prefix of its un-synced bytes,
//! every file is frozen, and all later mutations become no-ops (the
//! in-RAM cache above keeps serving, and file-resident entries whose
//! bytes vanished degrade to misses; only durability stops, exactly like
//! a crashed process whose page cache evaporated). A plan still armed
//! when the store drops makes the drop itself the crash: the process
//! dies without its final commit. Recovery after a kill is deterministic
//! per seed.

use crate::SegmentKey;
use bytes::Bytes;
use parking_lot::Mutex;
use pushdown_common::mix::{fnv1a, splitmix64};
use pushdown_common::{Error, Result};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 4] = b"PDBM";
/// Version 2: one segment log per generation (version 1 sharded it).
const VERSION: u32 = 2;
/// Manifest header: magic + version.
const HEADER_LEN: usize = 8;

/// Record tags in the manifest payload.
const TAG_PUT: u8 = 1;
const TAG_DEL: u8 = 2;
const TAG_EPOCH: u8 = 3;

/// Compaction floor: manifests shorter than this never compact.
const COMPACT_MIN_RECORDS: u64 = 64;
/// Compact when total records exceed this multiple of live state.
const COMPACT_FACTOR: u64 = 4;

/// Deterministic crash injection: the store dies at the `kill_at`-th
/// fsync (1-based), each file keeping a `splitmix64(seed, ordinal,
/// file)`-sized torn prefix of its un-synced bytes. A plan whose fsync
/// never comes fires when the store drops instead (the process dies
/// without its final commit; `kill_at = u64::MAX` asks for exactly
/// that). Same discipline as `FaultPlan` — one seed replays one crash
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    pub seed: u64,
    /// Which fsync (1-based, counted store-wide) fails to complete.
    pub kill_at: u64,
}

impl KillPlan {
    /// Kill at exactly the `kill_at`-th fsync.
    pub fn after(kill_at: u64, seed: u64) -> KillPlan {
        KillPlan { seed, kill_at }
    }

    /// Derive the kill point from the seed: uniform in `[1, horizon]`.
    pub fn seeded(seed: u64, horizon: u64) -> KillPlan {
        KillPlan {
            seed,
            kill_at: 1 + splitmix64(seed) % horizon.max(1),
        }
    }

    /// How many of `file`'s `pending` un-synced bytes survive the crash.
    fn torn_len(&self, ordinal: u64, file: u64, pending: u64) -> u64 {
        splitmix64(self.seed ^ ordinal.rotate_left(17) ^ file.rotate_left(41)) % (pending + 1)
    }
}

/// Manifest size accounting, for the compaction bound the CI gate
/// asserts ([`crate::SegmentCache::manifest_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManifestStats {
    /// Records currently in the manifest file (live + dead).
    pub records: u64,
    /// `Put` records that still name resident segments: the disk tier's
    /// and those of segments promoted from it to mem.
    pub live_puts: u64,
    /// Manifest file length in bytes.
    pub manifest_bytes: u64,
}

/// One live `Put` record, as folded from the manifest.
#[derive(Debug, Clone, Copy)]
struct PutRec {
    gen: u32,
    offset: u64,
    len: u64,
    crc: u64,
    epoch: u64,
    /// Replay order — recovery's deterministic eviction/seq order.
    order: u64,
}

/// A segment the manifest proved durable, handed up to the cache layer
/// (in replay order) to rebuild residency.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredSegment {
    pub key: SegmentKey,
    pub len: u64,
    pub epoch: u64,
    pub crc: u64,
}

/// Everything recovery replayed out of one directory.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    /// Checksum-verified resident segments, oldest first.
    pub segments: Vec<RecoveredSegment>,
    /// Object-hash → durable epoch.
    pub epochs: HashMap<u64, u64>,
    /// Records discarded as unknown, superseded, or stale-epoch.
    pub dropped: u64,
}

/// One append-only file and how much of it a barrier has covered.
struct Log {
    file: File,
    len: u64,
    durable: u64,
}

impl Log {
    fn open(path: &Path, truncate: bool) -> std::io::Result<Log> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Log {
            file,
            len,
            durable: len,
        })
    }

    /// Append at the logical end (a failed earlier append may have left
    /// bytes past it), returning the offset written at. No fsync.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<u64> {
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(bytes)?;
        let offset = self.len;
        self.len += bytes.len() as u64;
        Ok(offset)
    }

    /// A segment's bytes, if they are all there and match its checksum.
    fn read_checked(&mut self, rec: &PutRec) -> Option<Vec<u8>> {
        self.file.seek(SeekFrom::Start(rec.offset)).ok()?;
        let mut buf = vec![0u8; usize::try_from(rec.len).ok()?];
        self.file.read_exact(&mut buf).ok()?;
        (fnv1a(buf.iter().copied()) == rec.crc).then_some(buf)
    }
}

struct DiskInner {
    manifest: Log,
    /// The current generation's segment log.
    data: Log,
    gen: u32,
    live: HashMap<SegmentKey, PutRec>,
    /// Object-hash → newest durable epoch.
    epochs: HashMap<u64, u64>,
    /// Objects with any durable record since the last compaction — an
    /// invalidation only needs an `Epoch` record if the manifest could
    /// otherwise resurrect the object.
    logged: HashSet<u64>,
    /// Records in the manifest file (live + dead), compaction's trigger.
    records: u64,
    next_order: u64,
    kill: Option<KillPlan>,
    fsync_ordinal: u64,
    crashed: bool,
    /// `(bytes appended, fsyncs issued)` no commit receipt has reported
    /// yet — what the next [`DiskStore::commit`] caller is charged.
    unbilled: (u64, u64),
    /// Commits that issued at least one barrier, and compactions.
    commits: u64,
    compactions: u64,
}

/// The file-backed store one persistent [`crate::SegmentCache`] owns.
/// All methods take `&self`; a single mutex serializes file mutation
/// (the cache's own lock, always taken first, is the outer layer).
pub(crate) struct DiskStore {
    dir: PathBuf,
    inner: Mutex<DiskInner>,
    /// Every byte appended (segments + manifest records), ever.
    persisted_bytes: AtomicU64,
    /// Every fsync barrier issued, ever.
    fsyncs: AtomicU64,
    /// Persists that failed (I/O error or post-crash) and fell back to
    /// RAM-only residency.
    persist_errors: AtomicU64,
}

// --- manifest record encoding (manual little-endian, no serde) -------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u16()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).ok()
    }
}

enum Record {
    Put {
        key: SegmentKey,
        rec: PutRec,
    },
    Del {
        key: SegmentKey,
    },
    Epoch {
        bucket: String,
        key: String,
        epoch: u64,
    },
}

fn encode_put(key: &SegmentKey, rec: &PutRec) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + key.bucket.len() + key.key.len());
    p.push(TAG_PUT);
    put_u32(&mut p, rec.gen);
    put_u64(&mut p, rec.offset);
    put_u64(&mut p, rec.len);
    put_u64(&mut p, rec.crc);
    put_u64(&mut p, rec.epoch);
    put_u64(&mut p, key.range.0);
    put_u64(&mut p, key.range.1);
    put_str(&mut p, &key.bucket);
    put_str(&mut p, &key.key);
    p
}

fn encode_del(key: &SegmentKey) -> Vec<u8> {
    let mut p = Vec::with_capacity(24 + key.bucket.len() + key.key.len());
    p.push(TAG_DEL);
    put_u64(&mut p, key.range.0);
    put_u64(&mut p, key.range.1);
    put_str(&mut p, &key.bucket);
    put_str(&mut p, &key.key);
    p
}

fn encode_epoch(bucket: &str, key: &str, epoch: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(16 + bucket.len() + key.len());
    p.push(TAG_EPOCH);
    put_u64(&mut p, epoch);
    put_str(&mut p, bucket);
    put_str(&mut p, key);
    p
}

fn decode_record(payload: &[u8], order: u64) -> Option<Record> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    match c.u8()? {
        TAG_PUT => {
            let gen = c.u32()?;
            let offset = c.u64()?;
            let len = c.u64()?;
            let crc = c.u64()?;
            let epoch = c.u64()?;
            let range = (c.u64()?, c.u64()?);
            let bucket = c.str()?;
            let key = c.str()?;
            Some(Record::Put {
                key: SegmentKey::chunk(&bucket, &key, range),
                rec: PutRec {
                    gen,
                    offset,
                    len,
                    crc,
                    epoch,
                    order,
                },
            })
        }
        TAG_DEL => {
            let range = (c.u64()?, c.u64()?);
            let bucket = c.str()?;
            let key = c.str()?;
            Some(Record::Del {
                key: SegmentKey::chunk(&bucket, &key, range),
            })
        }
        TAG_EPOCH => {
            let epoch = c.u64()?;
            let bucket = c.str()?;
            let key = c.str()?;
            Some(Record::Epoch { bucket, key, epoch })
        }
        _ => None,
    }
}

/// `[u32 len][u64 fnv1a(payload)][payload]`
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(12 + payload.len());
    put_u32(&mut f, payload.len() as u32);
    put_u64(&mut f, fnv1a(payload.iter().copied()));
    f.extend_from_slice(payload);
    f
}

fn seg_file_name(gen: u32) -> String {
    format!("seg-g{gen}.dat")
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Other(format!("cache persist: {what} {}: {e}", path.display()))
}

impl DiskStore {
    /// Open (or create) the store at `dir`, replaying whatever durable
    /// state a previous incarnation left. Returns the store plus the
    /// checksum-verified recovery contents; the cache layer applies its
    /// catalog check and budget on top. Compacts on open when the
    /// replayed manifest is past the garbage threshold.
    pub(crate) fn open(dir: &Path, kill: Option<KillPlan>) -> Result<(DiskStore, Recovery)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        let mpath = dir.join("MANIFEST");
        let mut recovery = Recovery::default();
        let mut live: HashMap<SegmentKey, PutRec> = HashMap::new();
        let mut epochs: HashMap<u64, u64> = HashMap::new();
        let mut gen = 0u32;
        let mut records = 0u64;
        let mut next_order = 0u64;

        // Phase 1: replay the manifest, stopping at the first torn frame.
        // A missing, foreign or other-version manifest starts fresh.
        let mut valid_len = HEADER_LEN as u64;
        let raw = std::fs::read(&mpath).unwrap_or_default();
        let fresh = raw.len() < HEADER_LEN
            || &raw[..4] != MAGIC
            || raw[4..HEADER_LEN] != VERSION.to_le_bytes();
        if !fresh {
            let mut pos = HEADER_LEN;
            while let Some(hdr) = raw.get(pos..pos + 12) {
                let plen = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
                let crc = u64::from_le_bytes(hdr[4..12].try_into().unwrap());
                let Some(payload) = raw.get(pos + 12..pos + 12 + plen) else {
                    break; // torn tail
                };
                if fnv1a(payload.iter().copied()) != crc {
                    break; // torn or corrupt frame — stop replay here
                }
                let order = next_order;
                next_order += 1;
                match decode_record(payload, order) {
                    Some(Record::Put { key, rec }) => {
                        gen = gen.max(rec.gen);
                        live.insert(key, rec);
                    }
                    Some(Record::Del { key }) => {
                        live.remove(&key);
                    }
                    Some(Record::Epoch { bucket, key, epoch }) => {
                        let h = crate::object_hash(&bucket, &key);
                        epochs.insert(h, epoch);
                    }
                    None => {
                        // Structurally valid frame, unknown contents (a
                        // `Layout` record among them): count it dropped
                        // but keep replaying.
                        recovery.dropped += 1;
                    }
                }
                records += 1;
                pos += 12 + plen;
                valid_len = pos as u64;
            }
        }

        // Phase 2: truncate the torn manifest tail (or write a fresh
        // header) so future appends extend a well-formed log.
        let mut manifest = Log::open(&mpath, false).map_err(|e| io_err("open", &mpath, e))?;
        if fresh {
            manifest
                .file
                .set_len(0)
                .and_then(|()| manifest.file.write_all(MAGIC))
                .and_then(|()| manifest.file.write_all(&VERSION.to_le_bytes()))
                .and_then(|()| manifest.file.sync_data())
                .map_err(|e| io_err("init", &mpath, e))?;
        } else {
            manifest
                .file
                .set_len(valid_len)
                .map_err(|e| io_err("truncate", &mpath, e))?;
        }
        (manifest.len, manifest.durable) = (valid_len, valid_len);

        // Phase 3: open the current generation's segment log, deleting
        // stray files (older generations, a crashed compaction's output,
        // the version-1 per-shard files).
        let current = seg_file_name(gen);
        let spath = dir.join(&current);
        let mut data = Log::open(&spath, false).map_err(|e| io_err("open", &spath, e))?;
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let stray_seg = name.starts_with("seg-") && name.ends_with(".dat") && name != current;
            if stray_seg || name == "MANIFEST.tmp" {
                let _ = std::fs::remove_file(entry.path());
            }
        }

        // Phase 4: keep the Puts whose epoch is still current and whose
        // bytes are all in the log and match the checksum. A committed
        // Put implies durable bytes (barrier order); a record that got to
        // disk ahead of its bytes, or of a superseded epoch, dies here.
        let mut ordered: Vec<(SegmentKey, PutRec)> = live.drain().collect();
        ordered.sort_by_key(|(_, r)| r.order);
        let before = ordered.len() as u64;
        ordered.retain(|(key, rec)| {
            let h = crate::object_hash(&key.bucket, &key.key);
            rec.epoch == *epochs.get(&h).unwrap_or(&0)
                && rec.gen == gen
                && data.read_checked(rec).is_some()
        });
        recovery.dropped += before - ordered.len() as u64;

        recovery.epochs = epochs.clone();
        recovery.segments = ordered
            .iter()
            .map(|(key, rec)| RecoveredSegment {
                key: key.clone(),
                len: rec.len,
                epoch: rec.epoch,
                crc: rec.crc,
            })
            .collect();

        // Only epochs that still guard something durable need keeping in
        // the in-memory view (the others occupy manifest records until
        // the next compaction).
        let logged: HashSet<u64> = ordered
            .iter()
            .map(|(k, _)| crate::object_hash(&k.bucket, &k.key))
            .collect();
        epochs.retain(|h, _| logged.contains(h));

        let store = DiskStore {
            dir: dir.to_path_buf(),
            inner: Mutex::new(DiskInner {
                manifest,
                data,
                gen,
                live: ordered.into_iter().collect(),
                epochs,
                logged,
                records,
                next_order,
                kill,
                fsync_ordinal: 0,
                crashed: false,
                unbilled: (0, 0),
                commits: 0,
                compactions: 0,
            }),
            persisted_bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
        };
        store.maybe_compact(&mut store.inner.lock());
        Ok((store, recovery))
    }

    /// `(bytes appended, fsyncs issued)` since the store opened: a
    /// monotonic total of every appended byte and every barrier.
    pub(crate) fn persist_counters(&self) -> (u64, u64) {
        (
            self.persisted_bytes.load(Ordering::Relaxed),
            self.fsyncs.load(Ordering::Relaxed),
        )
    }

    /// `(commits that issued a barrier, compactions)` so far.
    pub(crate) fn commit_counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.commits, inner.compactions)
    }

    /// Whether the crash hook has fired (durability is frozen).
    pub(crate) fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    pub(crate) fn manifest_stats(&self) -> ManifestStats {
        let inner = self.inner.lock();
        ManifestStats {
            records: inner.records,
            live_puts: inner.live.len() as u64,
            manifest_bytes: inner.manifest.len,
        }
    }

    /// The stored checksum of a live segment (recovery's residency
    /// digest uses it instead of re-reading the file).
    pub(crate) fn crc_of(&self, key: &SegmentKey) -> Option<u64> {
        self.inner.lock().live.get(key).map(|r| r.crc)
    }

    fn persist_error(&self) -> bool {
        self.persist_errors.fetch_add(1, Ordering::Relaxed);
        false
    }

    fn note_appended(&self, inner: &mut DiskInner, bytes: u64) {
        self.persisted_bytes.fetch_add(bytes, Ordering::Relaxed);
        inner.unbilled.0 += bytes;
    }

    /// Account one fsync barrier and fire the kill plan if it is the
    /// killing one. Returns whether the caller may go on to sync.
    fn begin_barrier(&self, inner: &mut DiskInner) -> bool {
        if inner.crashed {
            return false;
        }
        inner.fsync_ordinal += 1;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        inner.unbilled.1 += 1;
        if inner.kill.is_some_and(|k| k.kill_at == inner.fsync_ordinal) {
            inner.crash();
        }
        !inner.crashed
    }

    /// One barrier on a log with un-synced bytes (none: nothing to do).
    fn sync_log(&self, inner: &mut DiskInner, log: fn(&mut DiskInner) -> &mut Log) -> bool {
        if log(inner).len == log(inner).durable {
            return true;
        }
        if !self.begin_barrier(inner) {
            return false;
        }
        let log = log(inner);
        match log.file.sync_data() {
            Ok(()) => {
                log.durable = log.len;
                true
            }
            Err(_) => self.persist_error(),
        }
    }

    /// The group commit: segment log first, then the manifest whose
    /// records reference it — at most two barriers for everything
    /// pending. Returns whether all of it is now durable.
    fn commit_locked(&self, inner: &mut DiskInner) -> bool {
        let before = inner.fsync_ordinal;
        let ok = self.sync_log(inner, |i| &mut i.data) && self.sync_log(inner, |i| &mut i.manifest);
        inner.commits += u64::from(inner.fsync_ordinal > before);
        ok
    }

    /// Commit everything appended since the last commit and return the
    /// receipt `(bytes, fsyncs)`: every appended byte and issued barrier
    /// no earlier receipt reported (those of invalidations and
    /// compactions since then included), so concurrent committers charge
    /// each byte and barrier exactly once between them.
    pub(crate) fn commit(&self) -> (u64, u64) {
        let mut inner = self.inner.lock();
        self.commit_locked(&mut inner);
        std::mem::take(&mut inner.unbilled)
    }

    fn append_manifest(&self, inner: &mut DiskInner, payload: &[u8]) -> bool {
        if inner.crashed {
            return false;
        }
        let framed = frame(payload);
        if inner.manifest.append(&framed).is_err() {
            return self.persist_error();
        }
        inner.records += 1;
        self.note_appended(inner, framed.len() as u64);
        true
    }

    /// Bring the manifest's epoch for `bucket/key` up to `epoch` ahead of
    /// a record that carries it. The cache's epoch runs ahead of the
    /// manifest's whenever an invalidation found nothing durable to kill
    /// (no `Epoch` record is logged then) or a compaction collected an
    /// epoch that guarded nothing; without this record recovery would
    /// take the newer `Put` for a stale one and drop it.
    fn catch_up_epoch(&self, inner: &mut DiskInner, bucket: &str, key: &str, epoch: u64) -> bool {
        let h = crate::object_hash(bucket, key);
        if inner.epochs.get(&h).copied().unwrap_or(0) >= epoch {
            return true;
        }
        let logged = self.append_manifest(inner, &encode_epoch(bucket, key, epoch));
        if logged {
            inner.epochs.insert(h, epoch);
        }
        logged
    }

    /// Persist one segment: append its bytes to the segment log and its
    /// `Put` to the manifest, both durable at the next commit. Returns
    /// whether the store now holds the segment (callers fall back to
    /// RAM-only residency when it does not).
    pub(crate) fn put(&self, key: &SegmentKey, data: &Bytes, epoch: u64) -> bool {
        let mut inner = self.inner.lock();
        if inner.crashed || !self.catch_up_epoch(&mut inner, &key.bucket, &key.key, epoch) {
            return self.persist_error();
        }
        let Ok(offset) = inner.data.append(data) else {
            return self.persist_error();
        };
        self.note_appended(&mut inner, data.len() as u64);
        let rec = PutRec {
            gen: inner.gen,
            offset,
            len: data.len() as u64,
            crc: fnv1a(data.iter().copied()),
            epoch,
            order: inner.next_order,
        };
        inner.next_order += 1;
        if !self.append_manifest(&mut inner, &encode_put(key, &rec)) {
            // Bytes are in the log but unreferenced — harmless garbage
            // the next compaction reclaims.
            return false;
        }
        inner
            .logged
            .insert(crate::object_hash(&key.bucket, &key.key));
        inner.live.insert(key.clone(), rec);
        self.maybe_compact(&mut inner);
        true
    }

    /// Read a live segment's bytes back (committed or not), verifying
    /// the checksum.
    pub(crate) fn read(&self, key: &SegmentKey) -> Option<Bytes> {
        let mut inner = self.inner.lock();
        let rec = *inner.live.get(key)?;
        inner.data.read_checked(&rec).map(Bytes::from)
    }

    /// Whether the log holds a live copy of `key` at `epoch` that later
    /// commits can still make durable (never after a crash).
    pub(crate) fn holds(&self, key: &SegmentKey, epoch: u64) -> bool {
        let inner = self.inner.lock();
        !inner.crashed && inner.live.get(key).is_some_and(|r| r.epoch == epoch)
    }

    /// The segment left the cache (an eviction, a lost copy, a refill
    /// held in RAM): append a `Del` record so recovery does not
    /// resurrect it. A no-op when no copy is live.
    pub(crate) fn del(&self, key: &SegmentKey) {
        let mut inner = self.inner.lock();
        if inner.live.contains_key(key) && self.append_manifest(&mut inner, &encode_del(key)) {
            inner.live.remove(key);
            self.maybe_compact(&mut inner);
        }
    }

    /// The object was invalidated: drop its durable segments and log the
    /// new epoch (only when the manifest holds
    /// records the bump must kill — otherwise there is nothing a
    /// recovery could resurrect). Synchronous: the `Epoch` record, and
    /// with it everything pending, is committed before this returns.
    pub(crate) fn bump_epoch(&self, bucket: &str, key: &str, epoch: u64) {
        let h = crate::object_hash(bucket, key);
        let mut inner = self.inner.lock();
        if inner.logged.contains(&h)
            && self.append_manifest(&mut inner, &encode_epoch(bucket, key, epoch))
        {
            inner.epochs.insert(h, epoch);
            inner
                .live
                .retain(|k, _| !(k.bucket == bucket && k.key == key));
            self.commit_locked(&mut inner);
            self.maybe_compact(&mut inner);
        }
    }

    fn maybe_compact(&self, inner: &mut DiskInner) {
        let live = inner.live.len() as u64 + inner.epochs.len() as u64;
        if inner.records > COMPACT_MIN_RECORDS
            && inner.records > COMPACT_FACTOR * live.max(1)
            && !inner.crashed
            && self.compact_locked(inner).is_err()
        {
            self.persist_error();
        }
    }

    /// Rewrite live segment bytes into the next-generation log and
    /// replace the manifest with exactly the live records, committing
    /// via write-to-temp + atomic rename. A crash or I/O error at any
    /// point leaves the old manifest (and the log it references) intact.
    fn compact_locked(&self, inner: &mut DiskInner) -> std::io::Result<()> {
        let gen = inner.gen + 1;
        let mut data = Log::open(&self.dir.join(seg_file_name(gen)), true)?;
        let mut live: Vec<(SegmentKey, PutRec)> =
            inner.live.iter().map(|(k, r)| (k.clone(), *r)).collect();
        live.sort_by_key(|(_, r)| r.order);
        // An unreadable segment is dropped, not carried over: the cache
        // above degrades it to a miss on its next read.
        live.retain_mut(|(_, rec)| {
            let copied = inner.data.read_checked(rec).map(|buf| data.append(&buf));
            match copied {
                Some(Ok(offset)) => {
                    (rec.gen, rec.offset) = (gen, offset);
                    self.note_appended(inner, rec.len);
                    true
                }
                _ => self.persist_error(),
            }
        });
        // Rebuild the manifest: epoch records first (so replay filters
        // puts against them regardless of order), then live puts in
        // replay order. The bucket/key for an epoch record comes from
        // whichever live put still names the object; epochs guarding
        // nothing durable are garbage-collected.
        let names: HashMap<u64, (&str, &str)> = live
            .iter()
            .map(|(k, _)| (crate::object_hash(&k.bucket, &k.key), (&*k.bucket, &*k.key)))
            .collect();
        let mut epochs: Vec<(u64, u64)> = inner
            .epochs
            .iter()
            .filter(|(h, _)| names.contains_key(h))
            .map(|(h, e)| (*h, *e))
            .collect();
        epochs.sort_unstable();
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for (h, e) in &epochs {
            let (b, k) = names[h];
            buf.extend_from_slice(&frame(&encode_epoch(b, k, *e)));
        }
        for (key, rec) in live.iter() {
            buf.extend_from_slice(&frame(&encode_put(key, rec)));
        }
        let records = (epochs.len() + live.len()) as u64;
        let logged: HashSet<u64> = names.into_keys().collect();
        let (tmp, mpath) = (self.dir.join("MANIFEST.tmp"), self.dir.join("MANIFEST"));
        let mut manifest = Log::open(&tmp, true)?;
        manifest.append(&buf)?;
        self.note_appended(inner, buf.len() as u64);
        // Same barrier order as the steady state: the rewritten log
        // before the manifest that references it. A kill at either
        // leaves the old files, cut like any other crash, as the truth.
        for log in [&mut data, &mut manifest] {
            if !self.begin_barrier(inner) {
                return Ok(());
            }
            log.file.sync_data()?;
            log.durable = log.len;
        }
        std::fs::rename(&tmp, &mpath)?; // commit point
        let _ = std::fs::remove_file(self.dir.join(seg_file_name(inner.gen)));
        inner.logged = logged;
        inner.live = live.into_iter().collect();
        inner.epochs = epochs.into_iter().collect();
        (inner.manifest, inner.data, inner.gen) = (manifest, data, gen);
        inner.records = records;
        inner.compactions += 1;
        Ok(())
    }
}

impl DiskInner {
    /// The process "dies" here: each file keeps its durable prefix plus
    /// a seeded torn prefix of whatever no barrier had covered yet — the
    /// file being synced and the other one alike — and durability
    /// freezes.
    fn crash(&mut self) {
        let Some(kill) = self.kill else { return };
        for (tag, log) in [(0, &self.manifest), (1, &self.data)] {
            let torn = kill.torn_len(self.fsync_ordinal, tag, log.len - log.durable);
            let _ = log.file.set_len(log.durable + torn);
        }
        self.crashed = true;
    }
}

impl Drop for DiskStore {
    /// A clean shutdown loses nothing: the drop is a commit. Under a
    /// kill plan that has not fired it is the crash instead — the
    /// process dies without its final commit.
    fn drop(&mut self) {
        let mut inner = self.inner.lock();
        if inner.kill.is_some() && !inner.crashed {
            inner.fsync_ordinal += 1;
            inner.crash();
        }
        self.commit_locked(&mut inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::TempDir;

    fn k(name: &str) -> SegmentKey {
        SegmentKey::whole("b", name)
    }

    fn bytes(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn put_read_del_roundtrip_and_recovery() {
        let tmp = TempDir::new("store-rt");
        {
            let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
            assert!(rec.segments.is_empty());
            assert!(store.put(&k("a"), &bytes(100, 1), 0));
            assert!(store.put(&k("b"), &bytes(50, 2), 0));
            assert_eq!(store.read(&k("a")).unwrap(), bytes(100, 1));
            store.del(&k("b"));
        }
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(rec.segments.len(), 1);
        assert_eq!(rec.segments[0].key, k("a"));
        assert_eq!(rec.segments[0].len, 100);
        assert_eq!(store.read(&k("a")).unwrap(), bytes(100, 1));
        assert!(store.read(&k("b")).is_none());
    }

    #[test]
    fn epoch_bump_kills_stale_puts_at_recovery() {
        let tmp = TempDir::new("store-epoch");
        {
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            assert!(store.put(&k("a"), &bytes(10, 1), 0));
            store.bump_epoch("b", "a", 1);
            // Refill at the new epoch survives; the old one must not.
            assert!(store.put(&k("a"), &bytes(10, 9), 1));
        }
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(rec.segments.len(), 1);
        assert_eq!(rec.segments[0].epoch, 1);
        assert_eq!(store.read(&k("a")).unwrap(), bytes(10, 9));
    }

    /// Pinned regression: an invalidation that finds nothing durable
    /// logs no `Epoch` record, so the next fill carries an epoch the
    /// manifest has not seen; recovery used to drop it as stale.
    #[test]
    fn records_ahead_of_the_manifest_epoch_survive_recovery() {
        let tmp = TempDir::new("store-ahead");
        {
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            store.bump_epoch("b", "a", 1); // nothing logged: a no-op
            assert!(store.put(&k("a"), &bytes(10, 9), 1));
        }
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(rec.segments.len(), 1);
        assert_eq!(rec.segments[0].epoch, 1);
        assert_eq!(store.read(&k("a")).unwrap(), bytes(10, 9));
    }

    #[test]
    fn torn_manifest_tail_is_tolerated_and_truncated() {
        let tmp = TempDir::new("store-torn");
        {
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            assert!(store.put(&k("a"), &bytes(20, 3), 0));
            assert!(store.put(&k("b"), &bytes(20, 4), 0));
        }
        // Tear the tail: chop the last 5 bytes off the manifest.
        let mpath = tmp.path().join("MANIFEST");
        let len = std::fs::metadata(&mpath).unwrap().len();
        let f = OpenOptions::new().write(true).open(&mpath).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        // One of the two records was torn; exactly one segment survives.
        assert_eq!(rec.segments.len(), 1);
        let survivor = rec.segments[0].key.clone();
        assert!(store.read(&survivor).is_some());
        // The manifest was truncated to the valid prefix: appending a
        // new put and re-recovering yields both.
        assert!(store.put(&k("c"), &bytes(7, 5), 0));
        drop(store);
        let (_, rec2) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(rec2.segments.len(), 2);
    }

    #[test]
    fn torn_segment_bytes_fail_checksum_and_are_dropped() {
        let tmp = TempDir::new("store-crc");
        let spath = tmp.path().join(seg_file_name(0));
        {
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            assert!(store.put(&k("a"), &bytes(64, 6), 0));
        }
        // Corrupt one byte of the segment payload.
        let mut raw = std::fs::read(&spath).unwrap();
        raw[10] ^= 0xFF;
        std::fs::write(&spath, &raw).unwrap();
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert!(rec.segments.is_empty());
        assert_eq!(rec.dropped, 1);
        assert!(store.read(&k("a")).is_none());
    }

    /// A manifest written while the cache kept chunk layouts holds
    /// `Layout` records (tag 4): `[tag][epoch][count][(first, last)…]
    /// [bucket][key]`. Replay counts one dropped and recovers the puts
    /// around it; the next compaction leaves it out.
    #[test]
    fn layout_records_of_an_older_manifest_are_dropped_then_compacted_away() {
        let tmp = TempDir::new("store-layout");
        {
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            assert!(store.put(&k("a"), &bytes(10, 1), 0));
            let mut layout = vec![4u8];
            put_u64(&mut layout, 0);
            put_u32(&mut layout, 2);
            for bound in [0, 4, 4, 10] {
                put_u64(&mut layout, bound);
            }
            put_str(&mut layout, "b");
            put_str(&mut layout, "a");
            assert!(store.append_manifest(&mut store.inner.lock(), &layout));
            assert!(store.put(&k("c"), &bytes(20, 2), 0));
        }
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(names(&rec).len(), 2, "both puts recover");
        assert_eq!(rec.dropped, 1, "the layout record");
        assert_eq!(store.manifest_stats().records, 3);
        store.compact_locked(&mut store.inner.lock()).unwrap();
        let stats = store.manifest_stats();
        assert_eq!((stats.records, stats.live_puts), (2, 2));
        drop(store);
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!((names(&rec).len(), rec.dropped), (2, 0));
        assert_eq!(store.read(&k("a")).unwrap(), bytes(10, 1));
        assert_eq!(store.read(&k("c")).unwrap(), bytes(20, 2));
    }

    fn names(rec: &Recovery) -> Vec<String> {
        let mut names: Vec<String> = rec
            .segments
            .iter()
            .map(|s| format!("{}:{}:{}", s.key.key, s.len, s.crc))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_commit_is_at_most_two_barriers_however_much_is_pending() {
        let tmp = TempDir::new("store-group");
        let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
        for i in 0..6u8 {
            assert!(store.put(&k(&format!("o{i}")), &bytes(50, i), 0));
        }
        store.del(&k("o1"));
        store.del(&k("o4"));
        let (appended, fsyncs) = store.persist_counters();
        assert!(appended > 6 * 50);
        assert_eq!(fsyncs, 0, "write-behind: appends issue no barrier");
        assert_eq!(store.commit(), (appended, 2), "segment log, then manifest");
        assert_eq!(store.persist_counters(), (appended, 2));
        // Nothing pending: no barrier, empty receipt.
        assert_eq!(store.commit(), (0, 0));
        assert_eq!(store.persist_counters(), (appended, 2));
        // Manifest-only work (a del) needs the manifest barrier alone.
        store.del(&k("o2"));
        assert_eq!(store.commit().1, 1);
        assert_eq!(store.commit_counters(), (2, 0));
    }

    #[test]
    fn uncommitted_segments_read_back_checksum_verified() {
        let tmp = TempDir::new("store-pending");
        let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
        assert!(store.put(&k("a"), &bytes(64, 6), 0));
        assert!(store.put(&k("b"), &bytes(32, 7), 0));
        assert_eq!(store.persist_counters().1, 0, "nothing committed yet");
        assert_eq!(store.read(&k("a")).unwrap(), bytes(64, 6));
        assert_eq!(store.read(&k("b")).unwrap(), bytes(32, 7));
        // Flip one byte of `a` behind the store's back: the read must
        // notice, committed or not.
        let spath = tmp.path().join(seg_file_name(0));
        let mut raw = std::fs::read(&spath).unwrap();
        raw[10] ^= 0xFF;
        std::fs::write(&spath, &raw).unwrap();
        assert!(store.read(&k("a")).is_none());
        assert_eq!(store.read(&k("b")).unwrap(), bytes(32, 7));
    }

    #[test]
    fn the_killing_fsync_tears_every_file_with_unsynced_bytes() {
        let tmp = TempDir::new("store-tear");
        let kill = KillPlan::after(3, 0xBEEF);
        let (store, _) = DiskStore::open(tmp.path(), Some(kill)).unwrap();
        assert!(store.put(&k("a"), &bytes(100, 1), 0));
        store.commit(); // barriers 1 and 2
        let file_len = |name: &str| std::fs::metadata(tmp.path().join(name)).unwrap().len();
        let (manifest0, data0) = (file_len("MANIFEST"), file_len(&seg_file_name(0)));
        assert!(store.put(&k("b"), &bytes(200, 2), 0));
        store.del(&k("a"));
        let (manifest1, data1) = (file_len("MANIFEST"), file_len(&seg_file_name(0)));
        // Barrier 3 syncs the segment log, yet the crash also costs the
        // manifest its pending records: each file keeps its own seeded
        // torn prefix of what no barrier had covered.
        store.commit();
        assert!(store.crashed());
        let manifest_torn = kill.torn_len(3, 0, manifest1 - manifest0);
        let data_torn = kill.torn_len(3, 1, data1 - data0);
        assert!(manifest_torn < manifest1 - manifest0 && data_torn < 200);
        assert_eq!(file_len("MANIFEST"), manifest0 + manifest_torn);
        assert_eq!(file_len(&seg_file_name(0)), data0 + data_torn);
        // Frozen: later mutations are refused, and a live entry whose
        // bytes vanished no longer reads.
        assert!(!store.put(&k("c"), &bytes(10, 3), 0));
        assert!(store.read(&k("b")).is_none());
        drop(store);
        let (_, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(rec.segments.len(), 1, "the previous commit's residency");
        assert_eq!(rec.segments[0].key, k("a"));
    }

    /// Commit `o0..o3`, then leave a tail un-committed — put `n0`, del
    /// `o1`, put `n1`, put `n2` — and die at drop under `seed`.
    fn crash_with_uncommitted_tail(dir: &Path, seed: u64) -> Vec<String> {
        let (store, _) = DiskStore::open(dir, Some(KillPlan::after(u64::MAX, seed))).unwrap();
        for i in 0..4u8 {
            assert!(store.put(&k(&format!("o{i}")), &bytes(40 + i as usize, i), 0));
        }
        assert_eq!(store.commit().1, 2);
        assert!(store.put(&k("n0"), &bytes(300, 0x10), 0));
        store.del(&k("o1"));
        assert!(store.put(&k("n1"), &bytes(300, 0x11), 0));
        assert!(store.put(&k("n2"), &bytes(300, 0x12), 0));
        assert!(!store.crashed());
        drop(store); // the kill is still armed: no drop-commit runs
        let (store, rec) = DiskStore::open(dir, None).unwrap();
        for seg in &rec.segments {
            assert!(store.read(&seg.key).is_some(), "recovered ⇒ readable");
        }
        names(&rec)
    }

    #[test]
    fn a_crash_before_commit_recovers_the_previous_commit() {
        let committed = {
            let tmp = TempDir::new("store-clean");
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            for i in 0..4u8 {
                assert!(store.put(&k(&format!("o{i}")), &bytes(40 + i as usize, i), 0));
            }
            drop(store);
            names(&DiskStore::open(tmp.path(), None).unwrap().1)
        };
        let mut exact = 0;
        for seed in 0..16u64 {
            let (a, b) = (TempDir::new("store-c-a"), TempDir::new("store-c-b"));
            let got = crash_with_uncommitted_tail(a.path(), seed);
            assert_eq!(
                got,
                crash_with_uncommitted_tail(b.path(), seed),
                "seed {seed} not deterministic"
            );
            // The previous commit survives whole, except that a torn
            // prefix of the tail may have reached the disk: records
            // replay in order, so `o1` can only be gone if `n0`'s record
            // (appended before the del) made it too, and the tail's puts
            // survive as a prefix of their append order.
            let tail: Vec<&String> = got.iter().filter(|n| n.starts_with('n')).collect();
            let rest: Vec<String> = got.iter().filter(|n| n.starts_with('o')).cloned().collect();
            let without_o1: Vec<String> = committed
                .iter()
                .filter(|n| !n.starts_with("o1:"))
                .cloned()
                .collect();
            assert!(
                rest == committed || rest == without_o1,
                "seed {seed}: {got:?}"
            );
            for (i, n) in tail.iter().enumerate() {
                assert!(n.starts_with(&format!("n{i}:300:")), "seed {seed}: {got:?}");
            }
            exact += usize::from(got == committed);
        }
        assert!(
            (1..16).contains(&exact),
            "{exact}/16 crashes lost the whole tail"
        );
    }

    #[test]
    fn a_put_record_ahead_of_its_bytes_is_dropped_by_the_checksum() {
        let tmp = TempDir::new("store-ahead");
        let spath = tmp.path().join(seg_file_name(0));
        {
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            assert!(store.put(&k("a"), &bytes(100, 1), 0));
            assert!(store.put(&k("b"), &bytes(100, 2), 0));
        }
        // The manifest's `Put b` is durable; cut the log mid-`b`, as a
        // crash that wrote the manifest back first would.
        let f = OpenOptions::new().write(true).open(&spath).unwrap();
        f.set_len(130).unwrap();
        drop(f);
        {
            let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
            assert_eq!(names(&rec).len(), 1);
            assert_eq!(rec.segments[0].key, k("a"));
            assert_eq!(rec.dropped, 1);
            assert!(store.read(&k("b")).is_none());
            // This incarnation appends different bytes over `b`'s range.
            assert!(store.put(&k("c"), &bytes(100, 3), 0));
        }
        // `Put b` is still in the manifest and its range is whole again,
        // but holds `c`'s bytes: the checksum keeps dropping it.
        assert_eq!(std::fs::metadata(&spath).unwrap().len(), 230);
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(rec.dropped, 1);
        let keys: Vec<&str> = rec.segments.iter().map(|s| &*s.key.key).collect();
        assert_eq!(keys, ["a", "c"]);
        assert!(store.read(&k("b")).is_none());
        assert_eq!(store.read(&k("c")).unwrap(), bytes(100, 3));
    }

    #[test]
    fn kill_plan_freezes_durability_deterministically() {
        // Sweep every kill point of a fixed op sequence twice (its four
        // barriers, then death at drop): the recovered segment set must
        // be identical run to run.
        for kill_at in 1..=5u64 {
            let mut digests = Vec::new();
            for _ in 0..2 {
                let tmp = TempDir::new("store-kill");
                let (store, _) =
                    DiskStore::open(tmp.path(), Some(KillPlan::after(kill_at, 0xDEAD + kill_at)))
                        .unwrap();
                for i in 0..5u8 {
                    store.put(&k(&format!("o{i}")), &bytes(30 + i as usize, i), 0);
                }
                store.bump_epoch("b", "o1", 1);
                store.del(&k("o2"));
                store.commit();
                assert_eq!(store.crashed(), kill_at <= 3);
                drop(store);
                let (_, rec) = DiskStore::open(tmp.path(), None).unwrap();
                digests.push(names(&rec).join(","));
            }
            assert_eq!(
                digests[0], digests[1],
                "kill_at={kill_at} not deterministic"
            );
        }
    }

    #[test]
    fn strays_of_the_sharded_layout_are_deleted_and_its_manifest_discarded() {
        let tmp = TempDir::new("store-v1");
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&frame(&encode_del(&k("x"))));
        std::fs::write(tmp.path().join("MANIFEST"), &v1).unwrap();
        std::fs::write(tmp.path().join("seg-03-g0.dat"), b"old shard bytes").unwrap();
        std::fs::write(tmp.path().join("seg-g7.dat"), b"old generation").unwrap();
        std::fs::write(tmp.path().join("MANIFEST.tmp"), b"crashed compaction").unwrap();
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert!(rec.segments.is_empty());
        assert_eq!(store.manifest_stats().records, 0);
        let mut left: Vec<String> = std::fs::read_dir(tmp.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["MANIFEST", "seg-g0.dat"]);
    }

    #[test]
    fn kill_never_resurrects_a_stale_epoch() {
        // At every kill point: write o@e0, invalidate, write o@e1. The
        // recovered store must never return the e0 bytes.
        for kill_at in 1..=10u64 {
            let tmp = TempDir::new("store-stale");
            let (store, _) =
                DiskStore::open(tmp.path(), Some(KillPlan::after(kill_at, 7 * kill_at))).unwrap();
            store.put(&k("o"), &bytes(40, 0xAA), 0);
            store.bump_epoch("b", "o", 1);
            store.put(&k("o"), &bytes(40, 0xBB), 1);
            drop(store);
            let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
            for seg in &rec.segments {
                let data = store.read(&seg.key).expect("verified segment readable");
                assert_ne!(
                    &data[..],
                    &bytes(40, 0xAA)[..],
                    "kill_at={kill_at} resurrected stale epoch-0 bytes"
                );
            }
        }
    }

    #[test]
    fn compaction_bounds_manifest_and_preserves_live_state() {
        let tmp = TempDir::new("store-compact");
        let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
        // Churn: repeatedly overwrite the same few keys, creating far
        // more dead records than live ones.
        for round in 0..200u64 {
            for i in 0..3u8 {
                let key = k(&format!("hot{i}"));
                store.put(&key, &bytes(16, (round % 251) as u8), 0);
            }
        }
        let stats = store.manifest_stats();
        assert_eq!(stats.live_puts, 3);
        assert!(
            stats.records <= COMPACT_MIN_RECORDS + COMPACT_FACTOR * (stats.live_puts + 4),
            "manifest not bounded: {stats:?}"
        );
        for i in 0..3u8 {
            let data = store.read(&k(&format!("hot{i}"))).unwrap();
            assert_eq!(data, bytes(16, 199)); // the last round's fill (round 199)
        }
        drop(store);
        // And the compacted state recovers.
        let (store, rec) = DiskStore::open(tmp.path(), None).unwrap();
        assert_eq!(rec.segments.len(), 3);
        for i in 0..3u8 {
            assert!(store.read(&k(&format!("hot{i}"))).is_some());
        }
    }

    #[test]
    fn temp_dirs_leave_no_stray_files() {
        let tmp = TempDir::new("store-clean");
        let path = tmp.path().to_path_buf();
        {
            let (store, _) = DiskStore::open(tmp.path(), None).unwrap();
            assert!(store.put(&k("a"), &bytes(10, 1), 0));
        }
        drop(tmp);
        assert!(!path.exists(), "stray files left at {}", path.display());
    }
}
