//! Table scans: one scan, [`scan`], with three sources ([`ScanSource`])
//! for the bytes of each partition — the paper's two ways of getting
//! them out of S3, and FlexPushdownDB's third, the local cache:
//!
//! * **GET** — the whole partition crosses the wire (the *baseline*
//!   path: billed as plain transfer, which is free in-region, plus
//!   compute time to parse) and is deserialized on the compute node;
//! * **cache** — the same bytes read through the segment cache, hits
//!   served locally and only the gaps fetched;
//! * **Select** — a `SELECT` statement shipped to the storage engine for
//!   the partition (the *pushdown* path: bytes scanned and returned are
//!   billed; the response parses slower per byte, but there are fewer of
//!   them), whole or cut short to a sample ([`ScanLimit`]).
//!
//! A sample is a Select scan cut short ([`ScanLimit`]), every partition
//! it asks given a `LIMIT` of its own; `scan_partials` runs a grouping
//! operator's statement, every partition answering with its partials,
//! which `Partials` merges.
//!
//! # Streaming execution
//!
//! One producer runs each partition, whatever its source, on the
//! process's one pool of partition workers (`core::pool`: at most
//! `scan_threads` jobs per scan, on long-lived threads every query
//! shares), and the scan delivers rows downstream as fixed-capacity
//! [`RowBatch`]es **in partition order**, so results stay deterministic.
//! Each in-flight partition feeds a small bounded queue; a job blocks
//! once its queue fills. While a scan's jobs are stalled behind other
//! scans' — none has a thread and no thread is free — its consumer
//! produces the next unclaimed partition itself, straight into its
//! sink. GET and cache reads decode
//! incrementally (CSV a constant batch of records at a time, columnar
//! row-group-by-row-group) and emit batches of at most `batch_rows`
//! rows, capping the peak resident rows of each running job at
//! `O((queue depth + 1) × batch_rows)` regardless of table size —
//! process-wide, pool size × (queue depth + 1) × `batch_rows`, however
//! many queries run. A Select source decodes each partition's
//! *response* before batching, so its bound is one response per running
//! job — the billed returned subset, not the table.
//!
//! # Placement
//!
//! Every request a scan makes — a GET, a Select statement, an aggregate
//! or sample share, a CASE-WHEN statement's — goes through one fan-out
//! over the table's partitions, and that fan-out is where a cluster
//! lives. Under an active cluster scope of more than one node (a
//! [`QueryContext::scoped`] context with a cluster attached),
//! partition *i* runs on the context of the
//! node owning it ([`crate::cluster::Cluster::assign`]): that node's
//! ledger, clock, cache slice and fault stream, one context per node per
//! scan. Workers still claim partitions in index order and the consumer
//! still drains them in index order, so rows are bit-identical to the
//! serial scan at any node count; what a node's partitions emit is
//! metered as its exchange volume, and the summary reports each node's
//! footprint ([`ScanSummary::nodes`]). A [`ScanLimit::Prefix`] sample
//! takes no pool job: its consumer produces the partitions itself, one
//! after the other, each on its owner's context, and the scan reports
//! as one phase; its rows are metered as exchange all the same. Off a
//! cluster, every partition runs on the scan's context and nothing is
//! metered per node.
//!
//! # Worker-side fragments
//!
//! The scan takes the leaf's statement — a projection (or `*`) and a
//! `WHERE`, as [`crate::plan`] builds it — and, for a GET or cache read,
//! optionally the `ORDER BY … LIMIT k` of the sort above it; or, for a
//! grouping operator above it, that operator's grouped statement
//! (`scan_partials`), which every source folds into one partial row
//! per group per partition: the engine wherever it runs the grouped
//! statement (`plan::grouped_leaf` decides), else the worker — for a GET
//! or cache read, and for a Select leaf that returned rows. A Select source ships the statement; a GET or cache read runs
//! the **same statement through the same executor**, the Select
//! engine's ([`pushdown_select::Executor`]), **inside the worker that
//! decoded the partition**: only the columns the statement references
//! are decoded (CSV fields typed straight into column vectors,
//! ColumnarLite chunks read into them), the `WHERE` runs as a selection
//! vector, rows are built for the survivors only — or, under a top-K
//! reducer, for the candidates entering a partition's heap — and only
//! those cross the partition queue. Rows, float bits and the first error are therefore
//! the ones the Select leaf returns. The local read prunes no row group:
//! the pricer prices it whole. What the statement's `WHERE` charges
//! (one unit per row it sees) is summed per worker
//! ([`ScanSummary::op_stats`]), the reducer's (`log2 K` per candidate)
//! is reported apart ([`ScanSummary::reduce_stats`]) and so are the rows
//! folded into partials, per node ([`ScanSummary::folded`]); all counts
//! are `u64`, so the totals are the ones consumer-side operators would
//! have charged. **Ordering guarantee:** the consumer drains partitions
//! in index order and a worker emits a partition's survivors in storage
//! order, so the sink sees exactly the subsequence of the table a
//! consumer-side filter would have kept, whatever `scan_threads` and
//! `batch_rows` are, and ties stay put. (The top-K reducer emits each
//! partition's best K in storage order too, so `ORDER BY … LIMIT k`
//! breaks its ties the way a stable sort of the whole table would.)
//! Aggregates follow the **partial-per-partition rule**: a partition's
//! rows fold in row order into its partials, and the partials merge in
//! partition order, so a float sum is the sum of the partitions' sums
//! whichever source folded them.
//!
//! The older closure-taking entry points ([`plain_scan_streamed`],
//! [`cached_scan_streamed`], [`plain_scan`]) are forwarding shims over
//! [`scan`] of `SELECT *`, kept for callers that want every row and as
//! the oracle the fragment tests compare against.

use crate::catalog::Table;
use crate::cluster::Cluster;
use crate::context::QueryContext;
use crate::ops;
use crate::pool;
use pushdown_cache::{Access, WeakSegmentCache};
use pushdown_common::perf::PhaseStats;
use pushdown_common::row::{BatchBuilder, RowBatch};
use pushdown_common::{Error, Result, Row, Schema, Value};
use pushdown_format::columnar::ColumnarReader;
use pushdown_s3::S3Store;
use pushdown_select::{Executor, InputFormat, Object, Work};
use pushdown_sql::agg::{AggFunc, TopKAccumulator};
use pushdown_sql::ast::{ExtendedSelect, SelectItem, SelectStmt};
use pushdown_sql::bind::{Binder, BoundSelect};
use pushdown_sql::Expr;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};

/// Result of a fully materialized scan: rows, their schema, and the
/// phase footprint.
#[derive(Debug, Clone)]
pub struct ScanResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub stats: PhaseStats,
    /// `stats` per node the partitions ran on ([`ScanSummary::nodes`]).
    pub nodes: Vec<(usize, PhaseStats)>,
}

/// What a streamed scan reports once every batch has been consumed.
///
/// On a cache-aware scan mem-tier hit bytes land in `stats.cache_bytes`,
/// disk-tier hit bytes in `stats.disk_bytes`, and gap-fill bytes in
/// `stats.plain_bytes` (a fill *is* a billed plain GET — on a partial
/// hit, exactly the gap ranges are billed).
#[derive(Debug, Clone, Default)]
pub struct ScanSummary {
    /// Schema of the delivered batches.
    pub schema: Schema,
    /// Fetch and decode footprint.
    pub stats: PhaseStats,
    /// CPU units the statement's `WHERE` charged inside the workers;
    /// zero for Select scans.
    pub op_stats: PhaseStats,
    /// CPU units its top-K reducer charged there — the work of the
    /// `ORDER BY … LIMIT` above the scan, done below it.
    pub reduce_stats: PhaseStats,
    /// Per node the partitions ran on, by id, the rows its workers folded
    /// into partials (`scan_partials`) — the input rows of the grouping
    /// operator above the scan; zero for a scan of rows.
    pub folded: Vec<(usize, u64)>,
    /// Partitions served entirely from the local segment cache (either
    /// tier, no remote bytes).
    pub hit_parts: u64,
    /// Partitions that fetched at least one gap range from the store
    /// (billed fills; a partial hit counts here, not in `hit_parts`).
    pub fill_parts: u64,
    /// Per node the partitions ran on, by id, what its partitions spent —
    /// their share of `stats` and `op_stats`, and in `exchange_bytes` the
    /// rows they shipped; empty when the scan ran on one context (no
    /// cluster of more than one node).
    pub nodes: Vec<(usize, PhaseStats)>,
}

/// Full batches buffered per in-flight partition before its job blocks.
/// Small on purpose: memory is bounded by `(PARTITION_QUEUE_DEPTH + 1) ×
/// batch_rows` rows per running job, pool size times that per process.
const PARTITION_QUEUE_DEPTH: usize = 2;

enum PartMsg<T> {
    Item(T),
    /// Terminates one partition's stream, carrying its phase footprint.
    Done(Result<PhaseStats>),
}

/// Handed to partition producers to push items downstream: into the
/// partition's queue, or, when the consumer produces the partition
/// itself, straight to the consumer. Sending blocks while the queue is
/// full; a consumer that aborts the scan drops every receiver, which
/// wakes all blocked senders with a disconnection error.
pub struct Emitter<'a, T> {
    to: Downstream<'a, T>,
}

enum Downstream<'a, T> {
    Queue(&'a SyncSender<PartMsg<T>>),
    Consumer(RefCell<&'a mut dyn FnMut(T) -> Result<()>>),
}

/// `msg` into a partition's queue.
fn send<T>(tx: &SyncSender<PartMsg<T>>, msg: PartMsg<T>) -> Result<()> {
    tx.send(msg)
        .map_err(|_| Error::Other("scan cancelled by consumer".into()))
}

impl<T> Emitter<'_, T> {
    pub fn emit(&self, item: T) -> Result<()> {
        match &self.to {
            Downstream::Queue(tx) => send(tx, PartMsg::Item(item)),
            Downstream::Consumer(consume) => (consume.borrow_mut())(item),
        }
    }
}

/// Where the partitions of one scan run: each on the context of the node
/// owning it ([`Cluster::assign`]) when the scan's context spreads over a
/// cluster ([`QueryContext::spread`]), else all on the scan's own context.
/// The node contexts — the node's ledger joint with the query's, its
/// clock, cache slice and fault stream — are built once per scan.
pub(crate) struct Placement<'a> {
    keys: Vec<String>,
    /// Every node a partition runs on, by id, with its context.
    nodes: Vec<(usize, Cow<'a, QueryContext>)>,
    /// Per partition, its node's index in `nodes`.
    slot: Vec<usize>,
    /// The cluster the partitions spread over, if they do.
    cluster: Option<&'a Cluster>,
    /// The most pool jobs the scan runs (`scan_threads`); none for a
    /// sequence, whose consumer produces every partition itself.
    threads: usize,
}

/// One partition as a worker runs it: its index in the placement, its
/// key, the context of the node it runs on and that node's index among
/// the placement's nodes.
pub(crate) struct Part<'p> {
    pub index: usize,
    pub key: &'p str,
    pub ctx: &'p QueryContext,
    pub node: usize,
}

impl<'a> Placement<'a> {
    /// Place `keys`, partitions of `table`, on their nodes.
    pub(crate) fn new(ctx: &'a QueryContext, table: &Table, keys: Vec<String>) -> Self {
        let threads = ctx.scan_threads.max(1);
        let Some(cluster) = ctx.spread() else {
            let slot = vec![0; keys.len()];
            let nodes = vec![(0, Cow::Borrowed(ctx))];
            return Placement {
                keys,
                nodes,
                slot,
                cluster: None,
                threads,
            };
        };
        let owners: Vec<usize> = keys
            .iter()
            .map(|k| cluster.assign(&table.bucket, k))
            .collect();
        let mut ids = owners.clone();
        ids.sort_unstable();
        ids.dedup();
        let slot = owners
            .iter()
            .map(|o| ids.binary_search(o).expect("every owner is listed"))
            .collect();
        let nodes = ids
            .into_iter()
            .map(|k| (k, Cow::Owned(ctx.node_exec(k))))
            .collect();
        Placement {
            keys,
            nodes,
            slot,
            cluster: Some(cluster),
            threads,
        }
    }

    fn part(&self, index: usize) -> Part<'_> {
        let node = self.slot[index];
        Part {
            index,
            key: &self.keys[index],
            ctx: &self.nodes[node].1,
            node,
        }
    }

    /// Whether the partitions spread over a cluster: then what they emit
    /// is shipped to the node consuming the scan and metered as exchange.
    fn ships(&self) -> bool {
        self.cluster.is_some()
    }

    /// `spent` (one footprint per node, in placement order) by node id,
    /// each node's shipped bytes added to its cluster counter; empty when
    /// the scan ran on one context.
    fn per_node(&self, spent: &[PhaseStats]) -> Vec<(usize, PhaseStats)> {
        let Some(cluster) = self.cluster else {
            return Vec::new();
        };
        self.nodes
            .iter()
            .zip(spent)
            .map(|((k, _), stats)| {
                let shipped = &cluster.node(*k).exchange_bytes;
                shipped.fetch_add(stats.exchange_bytes, Ordering::Relaxed);
                (*k, *stats)
            })
            .collect()
    }
}

/// Every footprint of `spent`, merged.
fn total(spent: &[PhaseStats]) -> PhaseStats {
    let mut stats = PhaseStats::default();
    spent.iter().for_each(|s| stats.merge(s));
    stats
}

/// Run `produce` over every partition of `place` on at most
/// `scan_threads` jobs of the process's partition worker pool
/// ([`crate::pool`]), each partition on its node's context, and feed
/// everything it emits to `consume` — on the calling thread — **in
/// partition order**, merging the per-partition [`PhaseStats`] the
/// producers return per node (in placement order).
///
/// Jobs claim partitions in index order and push into one bounded
/// queue per partition; the consumer drains queues in index order, so
/// output order is deterministic — at any node count — while decode work
/// overlaps across partitions. A consumer that reaches a partition no job
/// has claimed while its jobs are stalled — queued behind other scans'
/// with every pool thread busy ([`pool::Jobs::stalled`]) — claims it and
/// produces it itself, straight into `consume`, rather than wait. (When
/// a thread is free it leaves production to the jobs: a third producer
/// beside them costs a single query more than it gains.) A placement of
/// no thread is a sequence: the consumer produces every partition, and
/// no job runs. A consumer error cancels outstanding producers; so does
/// a producer error, which the consumer reports when it reaches that
/// partition: indices are claimed in order and a claimed index is never
/// abandoned, so every earlier partition runs to its `Done`. The scan
/// returns once every job has ended, re-raising a producer's panic.
fn stream_partitions<T, P, C>(
    place: &Placement<'_>,
    produce: P,
    mut consume: C,
) -> Result<Vec<PhaseStats>>
where
    T: Send,
    P: Fn(Part<'_>, &Emitter<'_, T>) -> Result<PhaseStats> + Sync,
    C: FnMut(T) -> Result<()>,
{
    let parts = place.keys.len();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..parts)
        .map(|_| {
            let (tx, rx) = sync_channel(PARTITION_QUEUE_DEPTH);
            (Mutex::new(Some(tx)), rx)
        })
        .unzip();
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let job = || loop {
        // Cancellation is checked *before* claiming: a claimed index
        // always runs and ends its queue with `Done`, so the consumer
        // never waits on a partition nobody produces.
        if cancelled.load(Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= parts {
            break;
        }
        // The job owns its partition's sender, so a producer that panics
        // disconnects the queue instead of leaving the consumer waiting
        // on it. (The lock only guards this `take`, so a poisoned one
        // still holds a valid slot.)
        let slot = senders[i].lock().unwrap_or_else(|e| e.into_inner()).take();
        let Some(tx) = slot else { break };
        let emitter = Emitter {
            to: Downstream::Queue(&tx),
        };
        let result = produce(place.part(i), &emitter);
        let failed = result.is_err();
        // Best-effort: if the consumer aborted, this queue's receiver is
        // gone and the send simply errors.
        let _ = send(&tx, PartMsg::Done(result));
        if failed {
            cancelled.store(true, Ordering::Relaxed);
            break;
        }
    };
    let workers = place.threads.min(parts);
    let (next, cancelled, produce) = (&next, &cancelled, &produce);
    pool::scope(workers, &job, move |jobs| {
        // However the consumer leaves — done, failed or unwinding — jobs
        // stop claiming partitions, and every receiver is dropped, so
        // producers blocked on full queues wake with a disconnection
        // error and the jobs end.
        let _stop = Cancel(cancelled);
        let mut spent = vec![PhaseStats::default(); place.nodes.len()];
        for (i, rx) in receivers.into_iter().enumerate() {
            let ours = (workers == 0 || jobs.stalled())
                && next
                    .compare_exchange(i, i + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            let stats = if ours {
                let to = Downstream::Consumer(RefCell::new(&mut consume));
                produce(place.part(i), &Emitter { to })?
            } else {
                drain(rx, &mut consume)?
            };
            spent[place.slot[i]].merge(&stats);
        }
        Ok(spent)
    })
}

/// Sets its flag when dropped.
struct Cancel<'a>(&'a AtomicBool);

impl Drop for Cancel<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// One partition's queue, its items to `consume`: its footprint.
fn drain<T>(
    rx: Receiver<PartMsg<T>>,
    consume: &mut impl FnMut(T) -> Result<()>,
) -> Result<PhaseStats> {
    loop {
        match rx.recv() {
            Ok(PartMsg::Item(item)) => consume(item)?,
            Ok(PartMsg::Done(done)) => return done,
            Err(_) => return Err(Error::Other("partition worker exited unexpectedly".into())),
        }
    }
}

fn partition_keys(ctx: &QueryContext, table: &Table) -> Result<Vec<String>> {
    let keys = table.partitions(&ctx.store);
    if keys.is_empty() {
        return Err(Error::NoSuchKey(format!(
            "table `{}` has no partitions under s3://{}/{}/",
            table.name, table.bucket, table.prefix
        )));
    }
    Ok(keys)
}

/// Serialized size of one row on the interconnect: its CSV encoding
/// (field texts, separators, newline) — deterministic and identical to
/// what the row costs as returned Select bytes.
pub(crate) fn row_exchange_bytes(row: &Row) -> u64 {
    let vals = row.values();
    let fields: u64 = vals.iter().map(|v| v.to_csv_field().len() as u64).sum();
    fields + vals.len().saturating_sub(1) as u64 + 1
}

/// Where [`scan`] reads each partition's rows from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanSource {
    /// One whole-object GET per partition. (Under
    /// [`QueryContext::with_cache_reads`] the lowering writes
    /// [`ScanSource::Cached`] where it would write this.)
    Plain,
    /// Read every partition **through** the store's tiered segment cache
    /// at chunk granularity, along the layout the catalog gives it
    /// ([`Table::cache_layout`]). Resident chunks are served locally
    /// (nothing billed, the virtual clock advances at each tier's read
    /// bandwidth); only the gaps are fetched, adjacent gaps coalesced into
    /// single range GETs under the uniform [`pushdown_common::RetryPolicy`],
    /// billed exactly once (every attempt a request, the bytes once) like
    /// any plain GET — a cold partition is one range GET of all of it,
    /// filling every chunk. A ColumnarLite partition whose footer segment
    /// is resident reads only the footer and the chunks of the columns
    /// the statement references, what it misses of them in one range GET. The
    /// workers only read the cache
    /// ([`pushdown_s3::S3Store::read_object_chunked_cached_with`]): what
    /// each partition did to it — hits, misses, promotions, fills, the
    /// evictions they force — is applied once the last partition is read,
    /// partition by partition in index order, so cache state
    /// never depends on which worker finished first; then a persistent
    /// disk tier is committed once ([`pushdown_s3::S3Store::commit_cache`]).
    /// Under a pipelined hash join the join applies them instead, once
    /// its other side is in too ([`crate::plan`]).
    Cached,
    /// Ship the scan's statement to the storage engine for every
    /// partition: the bytes scanned and returned are billed, and the
    /// response rows are the partition's survivors, already projected —
    /// whole, or cut short to a sample ([`ScanLimit`]).
    Select(Option<ScanLimit>),
}

/// Run one partition's bytes through the Select engine's executor
/// ([`Executor::scan`]) in the calling thread: `bound` (the leaf's
/// statement, bound against `table.schema`) reduced through `best` if
/// given, its rows pushed to `emit` in batches of at most
/// `ctx.batch_rows`. The bytes come as `(offset, bytes)` runs: a CSV
/// partition whole, one run from offset 0; a ColumnarLite one whole, or
/// its footer and the chunks the statement references
/// ([`ColumnarReader::open_parts`]). Nothing is pruned: the pricer prices
/// a local read whole. Returns the rows decoded and what the executor's
/// operators did.
fn decode_partition(
    parts: Vec<(u64, bytes::Bytes)>,
    table: &Table,
    ctx: &QueryContext,
    bound: &BoundSelect,
    best: Option<(&[(usize, bool)], usize)>,
    emit: impl FnMut(RowBatch) -> Result<()>,
) -> Result<(u64, Work)> {
    match table.format {
        InputFormat::Csv => {
            let [(0, data)] = &parts[..] else {
                return Err(Error::Other("a CSV partition is decoded whole".into()));
            };
            run_fragment(Object::Csv(data, &table.schema), bound, ctx, best, emit)
        }
        InputFormat::Columnar => {
            let reader = ColumnarReader::open_parts(parts)?;
            run_fragment(Object::Columnar(&reader), bound, ctx, best, emit)
        }
    }
}

/// [`Executor::scan`] of `object` under `bound`, reduced through `best`
/// if given, its rows pushed to `emit` in batches of at most
/// `ctx.batch_rows`: the rows decoded, and what the operators did.
fn run_fragment(
    object: Object<'_>,
    bound: &BoundSelect,
    ctx: &QueryContext,
    best: Option<(&[(usize, bool)], usize)>,
    mut emit: impl FnMut(RowBatch) -> Result<()>,
) -> Result<(u64, Work)> {
    let mut batch = BatchBuilder::new(bound.output_schema.clone(), ctx.batch_rows.max(1));
    let best = best.map(|(keys, k)| TopKAccumulator::new(keys, k));
    let mut push = |row| match batch.push(row) {
        Some(full) => emit(full),
        None => Ok(()),
    };
    let mut exec = Executor::new(bound, best, &mut push);
    let scanned = exec.scan(object, &[])?;
    let work = exec.finish()?;
    batch.finish().map_or(Ok(()), emit)?;
    Ok((scanned.rows, work))
}

/// The segments a warm cached read of a ColumnarLite partition needs, as
/// its footer segment (at offset `at`) names them: the footer and the
/// chunks of the columns `needed` ([`ColumnarReader::extents_of`]) —
/// which the store then checks against the layout it read along. `None`
/// — every segment — for CSV, whose decoder wants every block, and for a
/// footer that does not parse (the layout's last chunk is not this
/// object's footer).
fn wanted_chunks(
    table: &Table,
    needed: &[usize],
    at: u64,
    footer: &bytes::Bytes,
) -> Option<Vec<(u64, u64)>> {
    match table.format {
        InputFormat::Columnar => ColumnarReader::open_parts(vec![(at, footer.clone())])
            .ok()
            .map(|r| r.extents_of(needed)),
        InputFormat::Csv => None,
    }
}

/// The scan: read every partition of `table` from `source` and hand
/// `sink` the rows `stmt` — a projection (or `*`) and a `WHERE`, as
/// [`crate::plan`]'s scan leaves build it — returns, in table order (see
/// the module docs for the ordering guarantee). One producer serves every
/// source: a Select source ships `stmt` to the storage engine for every
/// partition — a sample ([`ScanSource::Select`] with a limit) for the
/// partitions it asks, each with a `LIMIT` of its own in place of
/// `stmt`'s; a GET or cache read runs the same statement through the
/// Select engine's executor **inside the worker that decoded the
/// partition**, each partition's rows reduced to their `k` best by
/// `best`'s `(output column, ascending)` keys if given (a Select source
/// takes none). Either way the rows leave the worker in batches,
/// metered as the exchange volume of the node they ran on. Peak
/// resident rows are bounded by the worker pool, not the table. Results
/// are byte-for-byte the same with the cache hot, partially warm, cold,
/// or absent.
pub fn scan(
    ctx: &QueryContext,
    table: &Table,
    source: ScanSource,
    stmt: &SelectStmt,
    best: Option<(&[(usize, bool)], usize)>,
    sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    if best.is_some() && matches!(source, ScanSource::Select(_)) {
        return Err(Error::Other("a Select scan takes no top-K reducer".into()));
    }
    scan_fragment(ctx, table, source, stmt, Fragment::Rows(best), sink)
}

/// The scan of a grouping operator's input, folded where it is read
/// ([`Partials`]): every partition's partial rows, in partition order —
/// one per group its rows of `leaf` (the leaf's statement: its
/// projection and `WHERE`) hold, a scalar aggregate's one even over no
/// row. A GET or cache read runs the grouped statement through the
/// Select engine's executor in the worker that decodes the partition; a
/// Select source ships it, `pushed`, where the engine runs it — a scalar
/// aggregate, or a `GROUP BY` under §X's native extension
/// (`plan::grouped_leaf`'s rule) — or else ships `leaf` and folds the
/// response in the worker that received it. Rows
/// the workers fold are counted per node ([`ScanSummary::folded`]); what
/// the engine folds is its own.
pub(crate) fn scan_partials(
    ctx: &QueryContext,
    table: &Table,
    source: ScanSource,
    leaf: &SelectStmt,
    partials: &Partials,
    pushed: bool,
) -> Result<(Vec<Row>, ScanSummary)> {
    let mut rows = Vec::new();
    let fragment = Fragment::Partials(partials, pushed);
    let summary = scan_fragment(ctx, table, source, leaf, fragment, |batch| {
        rows.extend(batch.rows);
        Ok(())
    })?;
    Ok((rows, summary))
}

/// What a scan's workers make of the rows its statement returns.
#[derive(Clone, Copy)]
enum Fragment<'a> {
    /// Hand them on, reduced to a partition's `k` best by the keys if
    /// given.
    Rows(Option<(&'a [(usize, bool)], usize)>),
    /// Fold them into partials — the engine, where `true`.
    Partials(&'a Partials, bool),
}

/// [`scan`] and `scan_partials`: every partition of `table`, from a GET,
/// a cache read or a Select — whole, or cut short to a sample —, run as
/// `fragment` says.
fn scan_fragment(
    ctx: &QueryContext,
    table: &Table,
    source: ScanSource,
    stmt: &SelectStmt,
    fragment: Fragment<'_>,
    mut sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    let local = matches!(source, ScanSource::Plain | ScanSource::Cached);
    let best = match fragment {
        Fragment::Rows(best) => best,
        Fragment::Partials(..) => None,
    };
    // What the workers run, bound once: a GET or cache read's statement,
    // grouped when it folds; the fold of a Select response, bound against
    // the rows the response carries.
    let bind = |schema: &Schema, stmt: &ExtendedSelect| {
        Binder::new(schema).bind_grouped(&stmt.select, &stmt.group_by)
    };
    let binder = Binder::new(&table.schema);
    let (bound, fold) = match fragment {
        Fragment::Rows(_) if local => (Some(binder.bind_select(stmt)?), None),
        Fragment::Partials(p, _) if local => (Some(bind(&table.schema, &p.grouped(stmt))?), None),
        Fragment::Partials(p, false) => {
            let response = binder.bind_select(stmt)?.output_schema;
            (None, Some(bind(&response, &p.stmt)?))
        }
        _ => (None, None),
    };
    // What a Select source ships: the statement, or the grouped one the
    // engine folds. A sample's is rendered without a `LIMIT`, and each
    // partition it asks gets its own (`SelectStmt` renders `LIMIT` last).
    let pushed = matches!(fragment, Fragment::Partials(_, true));
    let limit = match source {
        ScanSource::Select(limit) => limit,
        _ => None,
    };
    let sql = match fragment {
        Fragment::Partials(p, true) => p.grouped(stmt).to_string(),
        _ if limit.is_some() => SelectStmt {
            limit: None,
            ..stmt.clone()
        }
        .to_string(),
        _ => stmt.to_string(),
    };
    let needed = bound.as_ref().map(BoundSelect::referenced_columns);
    let mut keys = partition_keys(ctx, table)?;
    // A striped sample asks only the partitions with a share, each for
    // it; a prefix asks one partition after the other for the rows still
    // missing, the first even for none, as its response carries the
    // schema, and no partition once the sample is full.
    let mut shares = Vec::new();
    if let Some(ScanLimit::Striped(n)) = limit {
        let parts = keys.len();
        (keys, shares) = (keys.into_iter().enumerate())
            .map(|(i, key)| (key, striped_share(n, parts, i)))
            .filter(|&(_, share)| share > 0)
            .unzip();
    }
    let missing = AtomicUsize::new(match limit {
        Some(ScanLimit::Prefix(n)) => n,
        _ => 0,
    });
    let sequence = matches!(limit, Some(ScanLimit::Prefix(_)));
    let mut place = Placement::new(ctx, table, keys);
    if sequence {
        place.threads = 0;
    }
    let cached = source == ScanSource::Cached;
    // Rows from a Select source have the schema its responses declare;
    // decoded or folded rows, the statement's.
    let responded: OnceLock<Schema> = OnceLock::new();
    let hit_parts = AtomicU64::new(0);
    let fill_parts = AtomicU64::new(0);
    let cpu = |units: u64| PhaseStats {
        server_cpu_units: units,
        ..Default::default()
    };
    // Per node, what the statement's `WHERE` charged and the rows folded
    // into partials; what the reducer charged, the `ORDER BY … LIMIT`
    // above's to report.
    let op_units: Vec<AtomicU64> = place.nodes.iter().map(|_| AtomicU64::new(0)).collect();
    let folded: Vec<AtomicU64> = place.nodes.iter().map(|_| AtomicU64::new(0)).collect();
    let reduce_units = AtomicU64::new(0);
    // Per partition, what its cached read did to the cache, unapplied.
    let logs: Vec<OnceLock<Vec<Access>>> = place.keys.iter().map(|_| OnceLock::new()).collect();
    let spent = stream_partitions(
        &place,
        |part, emitter| {
            // What the partition's rows weigh on the interconnect, when
            // they ship off their node.
            let mut shipped = 0;
            let mut emit = |batch: RowBatch| {
                if place.ships() {
                    shipped += batch.rows.iter().map(row_exchange_bytes).sum::<u64>();
                }
                emitter.emit(batch)
            };
            let Some(bound) = &bound else {
                let asked = match limit {
                    None => None,
                    Some(ScanLimit::Striped(_)) => Some(shares[part.index]),
                    Some(ScanLimit::Prefix(_)) => match missing.load(Ordering::Relaxed) {
                        0 if part.index > 0 => return Ok(PhaseStats::default()),
                        n => Some(n),
                    },
                };
                let sql = match asked {
                    Some(n) => Cow::Owned(format!("{sql} LIMIT {n}")),
                    None => Cow::Borrowed(sql.as_str()),
                };
                let (bucket, schema) = (&table.bucket, &table.schema);
                let resp =
                    (part.ctx.engine).select(bucket, part.key, &sql, schema, table.format)?;
                // What a prefix still misses (only a prefix reads it).
                let returned = resp.stats.records_returned as usize;
                let _ = missing.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    Some(n.saturating_sub(returned))
                });
                let mut stats = PhaseStats::default();
                accumulate_response(&mut stats, &resp);
                match &fold {
                    // The response's rows, folded into the partition's
                    // partials.
                    Some(fold) => {
                        let response = Object::Response(&resp.data, &resp.output_schema);
                        let (_, work) = run_fragment(response, fold, ctx, None, &mut emit)?;
                        folded[part.node].fetch_add(work.folded, Ordering::Relaxed);
                    }
                    None => {
                        let _ = responded.set(resp.output_schema.clone());
                        let rows = resp.rows()?;
                        let batches = RowBatch::chunks(&resp.output_schema, rows, ctx.batch_rows);
                        batches.into_iter().try_for_each(&mut emit)?;
                    }
                }
                if pushed {
                    // The engine's partials: merging one is a unit, on the
                    // node that returned it. Like a worker's partials,
                    // they ship from that node as exchange.
                    stats.server_cpu_units += resp.stats.records_returned;
                }
                stats.exchange_bytes = shipped;
                return Ok(stats);
            };
            let store = &part.ctx.store;
            // Every retried attempt billed a request; meter them all so
            // metrics agree with the ledger even under injected faults.
            let (parts, mut stats) = if cached {
                let (fetched, log) = store.read_object_chunked_cached_with(
                    &table.bucket,
                    part.key,
                    ctx.engine.retry(),
                    |len| table.cache_layout(part.key, len, ctx.cache_chunk_bytes),
                    |at, footer| wanted_chunks(table, needed.as_deref()?, at, footer),
                )?;
                logs[part.index].set(log).expect("a partition is read once");
                let counter = if fetched.hit { &hit_parts } else { &fill_parts };
                counter.fetch_add(1, Ordering::Relaxed);
                let stats = PhaseStats {
                    requests: u64::from(fetched.attempts),
                    plain_bytes: fetched.gap_bytes,
                    cache_bytes: fetched.mem_bytes,
                    disk_bytes: fetched.disk_bytes,
                    ..Default::default()
                };
                let parts = match fetched.segments.is_empty() {
                    true => vec![(0, fetched.data)],
                    false => fetched.segments,
                };
                (parts, stats)
            } else {
                let fetched = store.get_object_with(&table.bucket, part.key, ctx.engine.retry())?;
                let stats = PhaseStats {
                    requests: u64::from(fetched.attempts),
                    plain_bytes: fetched.value.len() as u64,
                    ..Default::default()
                };
                (vec![(0, fetched.value)], stats)
            };
            // ColumnarLite bytes ingest at their own parse rate
            // ([`pushdown_common::perf::PerfParams::parse_cl_bw`]): every
            // byte the read handed the decoder — the whole object from a
            // GET or a cold cache, the footer and the chunks the statement
            // references from a warm one — which is also what moved.
            if table.format == InputFormat::Columnar {
                stats.cl_parse_bytes = parts.iter().map(|(_, b)| b.len() as u64).sum();
            }
            let (rows, work) = decode_partition(parts, table, ctx, bound, best, &mut emit)?;
            stats.exchange_bytes = shipped;
            stats.server_cpu_units += rows;
            op_units[part.node].fetch_add(work.filtered, Ordering::Relaxed);
            folded[part.node].fetch_add(work.folded, Ordering::Relaxed);
            reduce_units.fetch_add(work.reduced, Ordering::Relaxed);
            Ok(stats)
        },
        &mut sink,
    );
    // A cached scan is the cache's commit point: every partition has been
    // read, so each node's slice now receives its partitions' access logs
    // in partition order, and whatever they append becomes durable (and
    // is charged to that node's clock) in one group commit — or, under a
    // pipelined join, the join does both once its other side is in. A
    // failed scan's logs are dropped: how far its workers got is timing.
    if cached {
        let effects = match &spent {
            Ok(_) => logs
                .into_iter()
                .zip(&place.slot)
                .map(|(log, &n)| {
                    let store = place.nodes[n].1.store.clone();
                    (store, log.into_inner().unwrap_or_default())
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        settle(ctx, effects);
    }
    let spent = spent?;
    let op_units: Vec<u64> = op_units.into_iter().map(AtomicU64::into_inner).collect();
    let worked: Vec<PhaseStats> = spent
        .iter()
        .zip(&op_units)
        .map(|(s, &units)| {
            let mut s = *s;
            s.merge(&cpu(units));
            s
        })
        .collect();
    let ids = place.nodes.iter().map(|(k, _)| *k);
    let folded = ids.zip(folded.into_iter().map(AtomicU64::into_inner));
    Ok(ScanSummary {
        schema: match bound {
            Some(bound) => bound.output_schema,
            None => responded.into_inner().unwrap_or_default(),
        },
        stats: total(&spent),
        op_stats: cpu(op_units.iter().sum()),
        reduce_stats: cpu(reduce_units.into_inner()),
        folded: folded.collect(),
        hit_parts: hit_parts.into_inner(),
        fill_parts: fill_parts.into_inner(),
        // A sequence reports as one phase, wherever its partitions ran.
        nodes: match place.per_node(&worked) {
            _ if sequence => Vec::new(),
            nodes => nodes,
        },
    })
}

/// Cache effects read but not yet applied, in the order they are to
/// apply: per cached partition read, the store handle of the node that
/// read it (whose cache the effects belong to) and its access log. A
/// pipelined hash join gives each of its sides one
/// ([`QueryContext::deferring`]) so that both sides read the cache as it
/// was when the join started, and then applies them build side first.
#[derive(Clone, Default)]
pub(crate) struct CacheEffects(Arc<Mutex<Vec<Effect>>>);

/// One partition's cache effects: the store handle whose cache they
/// belong to, and the access log.
pub(crate) type Effect = (S3Store, Vec<Access>);

impl CacheEffects {
    /// Everything held so far, in order.
    pub(crate) fn take(&self) -> Vec<Effect> {
        std::mem::take(&mut self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Apply `effects` in order and commit every cache they touched once
/// ([`pushdown_s3::S3Store::commit_cache`]) — unless `ctx` is one side of
/// a pipelined join, which then holds them behind what it already holds.
pub(crate) fn settle(ctx: &QueryContext, effects: Vec<Effect>) {
    if let Some(held) = &ctx.deferred {
        held.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(effects);
        return;
    }
    let mut committed: Vec<(WeakSegmentCache, S3Store)> = Vec::new();
    for (store, log) in effects {
        let Some(cache) = store.cache() else { continue };
        cache.apply(log);
        let weak = cache.downgrade();
        if !committed.iter().any(|(w, _)| *w == weak) {
            committed.push((weak, store));
        }
    }
    committed.iter().for_each(|(_, store)| store.commit_cache());
}

/// Every row of `table` as batches, in partition order: [`scan`] of
/// `SELECT *`.
pub fn plain_scan_streamed(
    ctx: &QueryContext,
    table: &Table,
    on_batch: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    scan(ctx, table, ScanSource::Plain, &star(), None, on_batch)
}

/// [`plain_scan_streamed`] through the segment cache
/// ([`ScanSource::Cached`]).
pub fn cached_scan_streamed(
    ctx: &QueryContext,
    table: &Table,
    on_batch: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    scan(ctx, table, ScanSource::Cached, &star(), None, on_batch)
}

/// `SELECT *`: every row, every column.
fn star() -> SelectStmt {
    crate::plan::scan_stmt(&None, &None)
}

/// [`scan`] collecting the rows `stmt` returns.
pub fn scan_rows(
    ctx: &QueryContext,
    table: &Table,
    source: ScanSource,
    stmt: &SelectStmt,
) -> Result<(Vec<Row>, ScanSummary)> {
    let mut rows = Vec::new();
    let summary = scan(ctx, table, source, stmt, None, |batch| {
        rows.extend(batch.rows);
        Ok(())
    })?;
    Ok((rows, summary))
}

/// Baseline path: load whole partitions over the wire and parse locally.
/// Every row, collected: [`scan_rows`] of `SELECT *`.
pub fn plain_scan(ctx: &QueryContext, table: &Table) -> Result<ScanResult> {
    let (rows, summary) = scan_rows(ctx, table, ScanSource::Plain, &star())?;
    Ok(ScanResult {
        schema: summary.schema,
        rows,
        stats: summary.stats,
        nodes: summary.nodes,
    })
}

pub(crate) fn accumulate_response(stats: &mut PhaseStats, resp: &pushdown_select::SelectResponse) {
    // attempts ≥ 1; each billed one ledger request (retries included).
    stats.requests += u64::from(resp.stats.attempts.max(1));
    stats.s3_scanned_bytes += resp.stats.bytes_scanned;
    stats.select_returned_bytes += resp.stats.bytes_returned;
    stats.server_cpu_units += resp.stats.records_returned;
    stats.expr_terms = stats.expr_terms.max(resp.stats.expr_terms);
}

/// How a pushed scan is cut short — the two sampling scans. Either way
/// every queried partition gets a `LIMIT` of its own, so the scan, and
/// its bill, stop with the sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanLimit {
    /// The table's first `n` matching rows *in storage order*: the scan's
    /// consumer queries partitions one after the other, each for the rows
    /// still missing, until the limit is met (§VI-B's "first 1 % of
    /// data"). A prefix, not a sample — the most biased subset possible
    /// on sorted input.
    Prefix(usize),
    /// `n` rows **striped across partitions**: partition `i` of `P` gets
    /// the share `⌊(i+1)·n/P⌋ − ⌊i·n/P⌋` (shares telescope to exactly
    /// `n`), so every partition contributes proportionally and the bias
    /// is bounded by the per-partition storage order (§VII-A's sampling
    /// phase). Shares run concurrently on the worker pool.
    Striped(usize),
}

/// Partition `i`'s share of a [`ScanLimit::Striped`] sample of `n` rows
/// over `parts` partitions.
pub(crate) fn striped_share(n: usize, parts: usize, i: usize) -> usize {
    let n = n.max(1);
    (i + 1) * n / parts - i * n / parts
}

/// Pushdown path: run `stmt` against every partition via S3 Select and
/// collect the answer — an aggregate statement's one row, its partials
/// merged (`Partials::merge`), else the streamed rows, a statement's
/// own `LIMIT` as a [`ScanLimit::Prefix`].
pub fn select_scan(ctx: &QueryContext, table: &Table, stmt: &SelectStmt) -> Result<ScanResult> {
    if stmt.is_aggregate() {
        let partials = Partials::of(stmt)?;
        let source = ScanSource::Select(None);
        let (rows, summary) = scan_partials(ctx, table, source, stmt, &partials, true)?;
        return Ok(ScanResult {
            schema: Binder::new(&table.schema).bind_select(stmt)?.output_schema,
            rows: partials.merge(rows, &mut PhaseStats::default())?,
            stats: summary.stats,
            nodes: summary.nodes,
        });
    }
    let limit = stmt.limit.map(|n| ScanLimit::Prefix(n as usize));
    let (rows, summary) = scan_rows(ctx, table, ScanSource::Select(limit), stmt)?;
    Ok(ScanResult {
        schema: summary.schema,
        rows,
        stats: summary.stats,
        nodes: summary.nodes,
    })
}

/// A grouping operator as the partitions of the scan under it run it
/// (`scan_partials`): one grouped statement — the group keys, then each
/// aggregate's partial values, `AVG` as a `SUM` and a `COUNT` because
/// averages do not merge — that every partition answers with one partial
/// row per group, and how those rows meet: in partition order, in one
/// group table ([`ops::merge_group_rows`]), finished into `group keys ++
/// one value per aggregate` rows in key order. Every source folds a
/// partition the same way, in row order, so the answer's bits do not
/// depend on where the rows were folded.
pub(crate) struct Partials {
    /// The grouping columns, then the partial aggregates, over no `WHERE`
    /// (the leaf's is added).
    stmt: ExtendedSelect,
    /// Per partial aggregate, its function.
    funcs: Vec<AggFunc>,
    /// Per aggregate asked for, where its first partial value sits in a
    /// partial row, and whether it is an `AVG`.
    outputs: Vec<(usize, bool)>,
}

impl Partials {
    /// `aggs` — each a function and its argument (`None`: `COUNT(*)`) —
    /// per group of the columns `group_by`.
    pub(crate) fn new(
        group_by: &[String],
        aggs: impl IntoIterator<Item = (AggFunc, Option<Expr>)>,
    ) -> Partials {
        let column = |c: &String| SelectItem::Expr {
            expr: Expr::col(c.clone()),
            alias: None,
        };
        let mut items: Vec<SelectItem> = group_by.iter().map(column).collect();
        let (mut funcs, mut outputs) = (Vec::new(), Vec::new());
        for (func, arg) in aggs {
            outputs.push((items.len(), func == AggFunc::Avg));
            let shipped = match func {
                AggFunc::Avg => vec![AggFunc::Sum, AggFunc::Count],
                f => vec![f],
            };
            for func in shipped {
                let arg = arg.clone();
                items.push(SelectItem::Agg {
                    func,
                    arg,
                    alias: None,
                });
                funcs.push(func);
            }
        }
        let select = SelectStmt {
            items,
            alias: None,
            where_clause: None,
            limit: None,
        };
        let group_by = group_by.to_vec();
        let stmt = ExtendedSelect { select, group_by };
        Partials {
            stmt,
            funcs,
            outputs,
        }
    }

    /// The aggregates of a scalar statement pushed whole: its every item
    /// must be one.
    pub(crate) fn of(stmt: &SelectStmt) -> Result<Partials> {
        let aggs = stmt.items.iter().map(|item| match item {
            SelectItem::Agg { func, arg, .. } => Ok((*func, arg.clone())),
            other => Err(Error::Bind(format!(
                "aggregate scan cannot contain scalar item `{other}`"
            ))),
        });
        Ok(Partials::new(&[], aggs.collect::<Result<Vec<_>>>()?))
    }

    /// The grouped statement over the rows `leaf`'s `WHERE` keeps.
    pub(crate) fn grouped(&self, leaf: &SelectStmt) -> ExtendedSelect {
        let mut stmt = self.stmt.clone();
        stmt.select.where_clause = leaf.where_clause.clone();
        stmt.select.alias = leaf.alias.clone();
        stmt
    }

    /// The grouping columns a partial row leads with.
    pub(crate) fn group_by(&self) -> &[String] {
        &self.stmt.group_by
    }

    /// The partial values a partial row carries after its group key.
    pub(crate) fn values(&self) -> usize {
        self.funcs.len()
    }

    /// `rows`, partial rows in partition order, merged — a partial COUNT
    /// by summing, every other partial by its own function — at a unit
    /// per partial row charged into `stats`, and finished: one row per
    /// group, in key order.
    pub(crate) fn merge(&self, rows: Vec<Row>, stats: &mut PhaseStats) -> Result<Vec<Row>> {
        let width = self.stmt.group_by.len();
        let merged = ops::merge_group_rows(vec![rows], width, &self.funcs, stats)?;
        let finish = |row: Row| {
            let mut values = row.values()[..width].to_vec();
            for &(at, avg) in &self.outputs {
                values.push(match avg {
                    // A partition's `AVG` ships as `SUM`, `COUNT`.
                    true => match row[at + 1].as_i64()? {
                        0 => Value::Null,
                        n => Value::Float(row[at].as_f64()? / n as f64),
                    },
                    false => row[at].clone(),
                });
            }
            Ok(Row::new(values))
        };
        merged.into_iter().map(finish).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{upload_columnar_table, upload_csv_table};
    use pushdown_common::DataType;
    use pushdown_format::columnar::WriterOptions;
    use pushdown_s3::S3Store;
    use pushdown_sql::parse_select;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)])
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::Float(i as f64 / 2.0)]))
            .collect()
    }

    fn ctx_with_table(n: usize, per_part: usize) -> (QueryContext, Table) {
        let store = S3Store::new();
        let t = upload_csv_table(&store, "b", "t", &schema(), &rows(n), per_part).unwrap();
        (QueryContext::new(store), t)
    }

    #[test]
    fn plain_scan_reads_everything_in_order() {
        let (ctx, t) = ctx_with_table(500, 100);
        let r = plain_scan(&ctx, &t).unwrap();
        assert_eq!(r.rows, rows(500));
        assert_eq!(r.stats.requests, 5);
        assert_eq!(r.stats.plain_bytes, t.total_bytes(&ctx.store));
        assert_eq!(r.stats.s3_scanned_bytes, 0);
    }

    #[test]
    fn streamed_scan_batches_are_bounded_ordered_and_complete() {
        let (mut ctx, t) = ctx_with_table(1000, 170);
        ctx.batch_rows = 64;
        let mut seen = Vec::new();
        let mut max_batch = 0;
        let summary = plain_scan_streamed(&ctx, &t, |batch| {
            assert!(!batch.is_empty());
            max_batch = max_batch.max(batch.len());
            seen.extend(batch.rows);
            Ok(())
        })
        .unwrap();
        // Batches respect the capacity, arrive in partition order, and
        // concatenate to exactly the materialized result.
        assert!(max_batch <= 64);
        assert_eq!(seen, rows(1000));
        let materialized = plain_scan(&ctx, &t).unwrap();
        assert_eq!(summary.stats, materialized.stats);
        assert_eq!(summary.schema, materialized.schema);
    }

    #[test]
    fn streamed_scan_matches_across_batch_sizes_and_threads() {
        let (ctx, t) = ctx_with_table(700, 90);
        let want = plain_scan(&ctx, &t).unwrap();
        for (batch_rows, threads) in [(1, 1), (7, 2), (256, 8), (100_000, 3)] {
            let mut ctx2 = ctx.clone();
            ctx2.batch_rows = batch_rows;
            ctx2.scan_threads = threads;
            let got = plain_scan(&ctx2, &t).unwrap();
            assert_eq!(got.rows, want.rows, "batch {batch_rows} threads {threads}");
            assert_eq!(got.stats, want.stats);
        }
    }

    #[test]
    fn streamed_select_scan_matches_materialized() {
        let (mut ctx, t) = ctx_with_table(900, 128);
        ctx.batch_rows = 50;
        let stmt = parse_select("SELECT k FROM S3Object WHERE k % 3 = 0").unwrap();
        let mut streamed = Vec::new();
        let summary = scan(&ctx, &t, ScanSource::Select(None), &stmt, None, |batch| {
            assert!(batch.len() <= 50);
            streamed.extend(batch.rows);
            Ok(())
        })
        .unwrap();
        let materialized = select_scan(&ctx, &t, &stmt).unwrap();
        assert_eq!(streamed, materialized.rows);
        assert_eq!(summary.stats, materialized.stats);
    }

    #[test]
    fn streamed_scan_consumer_errors_cancel_cleanly() {
        let (mut ctx, t) = ctx_with_table(5000, 100);
        ctx.batch_rows = 32;
        let mut batches = 0;
        let err = plain_scan_streamed(&ctx, &t, |_| {
            batches += 1;
            if batches == 3 {
                Err(Error::Other("stop".into()))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), Error::Other("stop".into()).to_string());
    }

    #[test]
    fn a_panicking_worker_disconnects_its_queue_instead_of_hanging_the_consumer() {
        let (mut ctx, t) = ctx_with_table(500, 100);
        ctx.scan_threads = 2;
        let place = Placement::new(&ctx, &t, partition_keys(&ctx, &t).unwrap());
        // The consumer sees partition 2's queue disconnect and bails out;
        // the scope then re-raises the worker's panic. Before workers
        // owned their senders the consumer waited on that queue forever.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_partitions::<(), _, _>(
                &place,
                |part, _| {
                    assert!(!part.key.ends_with("00002.csv"), "worker bug");
                    Ok(PhaseStats::default())
                },
                |_| Ok(()),
            )
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn partitions_failing_on_every_worker_never_strand_the_consumer() {
        // Every partition fails at once on 8 workers, over and over. A
        // worker that claimed an index and then backed out on seeing the
        // cancel flag left that queue's sender alive, and the consumer
        // waited on it forever (one scan in a few ten thousand). A claimed
        // index must always end its queue.
        let (mut ctx, t) = ctx_with_table(64, 1);
        ctx.scan_threads = 8;
        assert_eq!(partition_keys(&ctx, &t).unwrap().len(), 64);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let place = Placement::new(&ctx, &t, partition_keys(&ctx, &t).unwrap());
            for _ in 0..20_000 {
                let err = stream_partitions::<(), _, _>(
                    &place,
                    |_, _| Err(Error::Eval("division by zero".into())),
                    |_| Ok(()),
                )
                .unwrap_err();
                assert_eq!(err.code(), "EvalError");
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a failing scan hung (or panicked) instead of returning its error");
    }

    #[test]
    fn streamed_columnar_scan_preserves_rows() {
        let store = S3Store::new();
        let t = upload_columnar_table(
            &store,
            "b",
            "t",
            &schema(),
            &rows(600),
            150,
            WriterOptions {
                rows_per_group: 47,
                compress: true,
            },
        )
        .unwrap();
        let mut ctx = QueryContext::new(store);
        ctx.batch_rows = 33;
        let mut seen = Vec::new();
        plain_scan_streamed(&ctx, &t, |batch| {
            assert!(batch.len() <= 33);
            seen.extend(batch.rows);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, rows(600));
    }

    #[test]
    fn select_scan_filters_across_partitions() {
        let (ctx, t) = ctx_with_table(500, 100);
        let stmt = parse_select("SELECT k FROM S3Object WHERE k % 100 = 0").unwrap();
        let r = select_scan(&ctx, &t, &stmt).unwrap();
        assert_eq!(
            r.rows,
            vec![
                Row::new(vec![Value::Int(0)]),
                Row::new(vec![Value::Int(100)]),
                Row::new(vec![Value::Int(200)]),
                Row::new(vec![Value::Int(300)]),
                Row::new(vec![Value::Int(400)]),
            ]
        );
        assert_eq!(r.stats.requests, 5);
        assert_eq!(r.stats.s3_scanned_bytes, t.total_bytes(&ctx.store));
        assert!(r.stats.select_returned_bytes < 100);
        assert_eq!(r.stats.plain_bytes, 0);
    }

    #[test]
    fn select_scan_aggregates_merge_across_partitions() {
        let (ctx, t) = ctx_with_table(1000, 170);
        let stmt = parse_select(
            "SELECT SUM(v), COUNT(*), MIN(k), MAX(k), AVG(v) FROM S3Object WHERE k >= 10",
        )
        .unwrap();
        let r = select_scan(&ctx, &t, &stmt).unwrap();
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        let expect_sum: f64 = (10..1000).map(|i| i as f64 / 2.0).sum();
        assert!((row[0].as_f64().unwrap() - expect_sum).abs() < 1e-6);
        assert_eq!(row[1], Value::Int(990));
        assert_eq!(row[2], Value::Int(10));
        assert_eq!(row[3], Value::Int(999));
        assert!((row[4].as_f64().unwrap() - expect_sum / 990.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_of_empty_match_is_null_and_zero() {
        let (ctx, t) = ctx_with_table(100, 30);
        let stmt = parse_select("SELECT SUM(v), COUNT(*) FROM S3Object WHERE k > 10000").unwrap();
        let r = select_scan(&ctx, &t, &stmt).unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
        assert_eq!(r.rows[0][1], Value::Int(0));
    }

    /// `ctx` as a sample may run it: on one pool job, on eight, and
    /// spread over four nodes; each scoped, so it bills one query.
    fn sample_contexts(ctx: &QueryContext) -> Vec<(&'static str, QueryContext)> {
        let threads = |n| {
            let mut ctx = ctx.clone();
            ctx.scan_threads = n;
            ctx.scoped()
        };
        let nodes = ctx.clone().with_nodes(4).scoped();
        vec![
            ("1 thread", threads(1)),
            ("8 threads", threads(8)),
            ("4 nodes", nodes),
        ]
    }

    /// What `stats` metered, as a bill.
    fn usage(stats: &PhaseStats) -> pushdown_common::pricing::Usage {
        pushdown_common::pricing::Usage {
            requests: stats.requests,
            select_scanned_bytes: stats.s3_scanned_bytes,
            select_returned_bytes: stats.select_returned_bytes,
            plain_bytes: stats.plain_bytes,
        }
    }

    /// A prefix is a sequence at any pool size and node count: the first
    /// rows in order, from the partitions holding them and no other.
    #[test]
    fn limited_scan_stops_early_and_bills_less() {
        let (ctx, t) = ctx_with_table(1000, 100);
        let stmt = parse_select("SELECT k FROM S3Object LIMIT 150").unwrap();
        for (name, ctx) in sample_contexts(&ctx) {
            let r = select_scan(&ctx, &t, &stmt).unwrap();
            let want: Vec<Row> = (0..150).map(|k| Row::new(vec![Value::Int(k)])).collect();
            assert_eq!(r.rows, want, "{name}: the first 150 rows in order");
            // Only two partitions touched (100 + 50).
            assert_eq!(r.stats.requests, 2, "{name}");
            assert!(r.stats.s3_scanned_bytes < t.total_bytes(&ctx.store) / 3);
            assert_eq!(usage(&r.stats), ctx.billed(), "{name}: usage == billed");
            assert!(r.nodes.is_empty(), "{name}: a prefix is one phase");
        }
    }

    #[test]
    fn limit_zero_asks_one_partition_for_the_schema() {
        let (ctx, t) = ctx_with_table(500, 100);
        let stmt = parse_select("SELECT k FROM S3Object LIMIT 0").unwrap();
        // The schema an empty answer of the same statement carries.
        let none = parse_select("SELECT k FROM S3Object WHERE k < 0 LIMIT 5").unwrap();
        let schema = select_scan(&ctx, &t, &none).unwrap().schema;
        for (name, ctx) in sample_contexts(&ctx) {
            let r = select_scan(&ctx, &t, &stmt).unwrap();
            assert!(r.rows.is_empty(), "{name}");
            assert_eq!(r.stats.requests, 1, "{name}");
            assert_eq!(usage(&r.stats), ctx.billed(), "{name}: usage == billed");
            assert_eq!(r.schema, schema, "{name}");
        }
    }

    /// A striped sample of fewer rows than there are partitions asks only
    /// the partitions with a share — the 4th, 7th and 10th of ten for
    /// three rows — each for its first row.
    #[test]
    fn a_small_striped_sample_asks_only_the_partitions_with_a_share() {
        let (ctx, t) = ctx_with_table(1000, 100);
        let stmt = parse_select("SELECT k FROM S3Object").unwrap();
        let source = ScanSource::Select(Some(ScanLimit::Striped(3)));
        for (name, ctx) in sample_contexts(&ctx) {
            let (rows, summary) = scan_rows(&ctx, &t, source, &stmt).unwrap();
            let want: Vec<Row> = [300, 600, 900]
                .map(|k| Row::new(vec![Value::Int(k)]))
                .into();
            assert_eq!(rows, want, "{name}");
            assert_eq!(summary.stats.requests, 3, "{name}");
            assert_eq!(
                usage(&summary.stats),
                ctx.billed(),
                "{name}: usage == billed"
            );
        }
    }

    #[test]
    fn scan_survives_transient_faults() {
        let (ctx, t) = ctx_with_table(100, 50);
        ctx.store
            .set_fault_plan(Some(pushdown_s3::FaultPlan::new(5, 0.4)));
        let ctx = ctx.with_retry(pushdown_common::RetryPolicy::with_attempts(16));
        let r = plain_scan(&ctx, &t).unwrap();
        assert_eq!(r.rows.len(), 100);
        // Retried attempts are metered as extra requests (2 partitions).
        assert!(r.stats.requests >= 2);
        assert_eq!(r.stats.requests, ctx.billed().requests);
    }

    /// One context has one retry policy: with every attempt faulting, a
    /// GET leaf, a cached leaf and a Select leaf on the same unscoped
    /// context each bill exactly the policy's attempts.
    #[test]
    fn every_leaf_retries_under_the_one_policy() {
        let (ctx, t) = ctx_with_table(10, 100);
        let ctx = ctx
            .with_cache(1 << 20)
            .with_retry(pushdown_common::RetryPolicy::with_attempts(3));
        ctx.store
            .set_fault_plan(Some(pushdown_s3::FaultPlan::new(1, 1.0)));
        for source in [
            ScanSource::Plain,
            ScanSource::Cached,
            ScanSource::Select(None),
        ] {
            let before = ctx.billed().requests;
            let err = scan(&ctx, &t, source, &star(), None, |_| Ok(())).unwrap_err();
            assert!(err.is_retryable(), "{source:?}: {err}");
            assert_eq!(ctx.billed().requests - before, 3, "{source:?}");
        }
    }

    #[test]
    fn missing_table_errors() {
        let store = S3Store::new();
        let ctx = QueryContext::new(store);
        let ghost = Table {
            name: "ghost".into(),
            bucket: "b".into(),
            prefix: "ghost".into(),
            schema: schema(),
            format: InputFormat::Csv,
            row_count: 0,
            stats: None,
        };
        assert!(plain_scan(&ctx, &ghost).is_err());
    }

    #[test]
    fn expr_terms_propagate_to_stats() {
        let (ctx, t) = ctx_with_table(100, 100);
        let stmt =
            parse_select("SELECT k FROM S3Object WHERE k > 1 AND k < 50 AND v > 0.5").unwrap();
        let r = select_scan(&ctx, &t, &stmt).unwrap();
        assert_eq!(r.stats.expr_terms, 3);
    }
}
