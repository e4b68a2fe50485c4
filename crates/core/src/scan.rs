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
//! [`select_scan_streamed`] and [`select_scan`] take a statement rather
//! than a fragment and run its samples; [`select_scan_aggregate`] merges
//! the partitions' aggregates instead of streaming rows.
//!
//! # Streaming execution
//!
//! One producer runs each partition on a bounded worker pool, whatever
//! its source, and the scan delivers rows downstream as fixed-capacity
//! [`RowBatch`]es **in partition order**, so results stay deterministic.
//! Each in-flight partition feeds a small bounded queue; workers block
//! once their queue fills. GET and cache reads decode incrementally (CSV
//! `batch_rows` records at a time, columnar row-group-by-row-group),
//! capping their peak resident rows at `O(scan_threads × queue depth ×
//! batch_rows)` regardless of table size. A Select source decodes each
//! partition's *response* before batching, so its bound is
//! `O(scan_threads × response rows)` — the billed returned subset, not
//! the table.
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
//! sends its requests one after the other, each to its partition's
//! owner. Off a cluster, every partition runs on the scan's context and
//! nothing is metered per node.
//!
//! # Worker-side fragments
//!
//! The scan takes a [`ScanFragment`] — the leaf operator's bound
//! predicate, its output expressions, optionally a K-bounded reducer;
//! from a Select source, the statement that asks storage for the same
//! rows ([`ScanFragment::pushed`]) — and a GET or cache read evaluates
//! it **inside the worker that decoded the rows**: a
//! rejected row is dropped by the thread that allocated it, a projecting
//! fragment decodes only the columns it references (CSV fields are typed
//! straight into column vectors, ColumnarLite chunks are read into them,
//! and both run the same compiled predicate), and only survivors,
//! already projected, cross the partition queue. What the
//! fragment charges is summed per worker ([`ScanSummary::op_stats`]);
//! all counts are `u64`, so the total is the one a consumer-side
//! operator would have charged. **Ordering guarantee:** the consumer
//! drains partitions in index order and a worker emits a partition's
//! survivors in storage order, so the sink sees exactly the subsequence
//! of the table a consumer-side filter would have kept, whatever
//! `scan_threads` and `batch_rows` are — float sums, group first-seen
//! order and ties stay put. (The top-K reducer emits each partition's
//! best K in storage order too, so `ORDER BY … LIMIT k` breaks its ties
//! the way a stable sort of the whole table would.)
//!
//! The older closure-taking entry points ([`plain_scan_streamed`],
//! [`cached_scan_streamed`], [`plain_scan`]) are forwarding shims over
//! [`scan`] with an identity fragment, kept for callers that want every
//! row and as the oracle the fragment tests compare against.

use crate::catalog::Table;
use crate::cluster::Cluster;
use crate::context::QueryContext;
pub use crate::fragment::ScanFragment;
use crate::ops;
use pushdown_cache::{Access, WeakSegmentCache};
use pushdown_common::perf::PhaseStats;
use pushdown_common::row::RowBatch;
use pushdown_common::{DataType, Error, Field, Result, Row, Schema, Value};
use pushdown_format::columnar::ColumnarReader;
use pushdown_format::csv::CsvReader;
use pushdown_s3::S3Store;
use pushdown_select::InputFormat;
use pushdown_sql::agg::AggFunc;
use pushdown_sql::ast::{ExtendedSelect, SelectItem, SelectStmt};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
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
    /// CPU units the [`ScanFragment`]'s predicate charged inside the
    /// workers; zero for Select scans.
    pub op_stats: PhaseStats,
    /// CPU units its top-K reducer charged there — the work of the
    /// `ORDER BY … LIMIT` above the scan, done below it.
    pub reduce_stats: PhaseStats,
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

/// Full batches buffered per in-flight partition before its worker
/// blocks. Small on purpose: memory is bounded by
/// `scan_threads × (PARTITION_QUEUE_DEPTH + 1) × batch_rows` rows.
const PARTITION_QUEUE_DEPTH: usize = 2;

enum PartMsg<T> {
    Item(T),
    /// Terminates one partition's stream, carrying its phase footprint.
    Done(Result<PhaseStats>),
}

/// Handed to partition producers to push items downstream. Sending
/// blocks while the partition's queue is full; a consumer that aborts
/// the scan drops every receiver, which wakes all blocked senders with
/// a disconnection error.
pub struct Emitter<'a, T> {
    tx: &'a SyncSender<PartMsg<T>>,
}

impl<T> Emitter<'_, T> {
    fn send(&self, msg: PartMsg<T>) -> Result<()> {
        self.tx
            .send(msg)
            .map_err(|_| Error::Other("scan cancelled by consumer".into()))
    }

    pub fn emit(&self, item: T) -> Result<()> {
        self.send(PartMsg::Item(item))
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
        let threads = ctx.scan_threads;
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

    /// Every partition of `table`, placed.
    pub(crate) fn of(ctx: &'a QueryContext, table: &Table) -> Result<Self> {
        Ok(Placement::new(ctx, table, partition_keys(ctx, table)?))
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

/// Run `produce` over every partition of `place` on `scan_threads`
/// workers, each on its node's context, and feed everything it emits to
/// `consume` **in partition order**, merging the per-partition
/// [`PhaseStats`] the producers return per node (in placement order).
///
/// Workers claim partitions in index order and push into one bounded
/// queue per partition; the consumer drains queues in index order, so
/// output order is deterministic — at any node count — while decode work
/// overlaps across partitions. A consumer error cancels outstanding
/// producers; so does a producer error, which the consumer reports when
/// it reaches that partition: indices are claimed in order and a claimed
/// index is never abandoned, so every earlier partition runs to its
/// `Done`.
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
    let threads = place.threads.clamp(1, parts.max(1));
    let (senders, mut receivers): (Vec<_>, Vec<_>) = (0..parts)
        .map(|_| {
            let (tx, rx) = sync_channel(PARTITION_QUEUE_DEPTH);
            (Mutex::new(Some(tx)), rx)
        })
        .unzip();
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let mut outcome: Result<Vec<PhaseStats>> = Ok(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Cancellation is checked *before* claiming: a claimed
                // index always runs and ends its queue with `Done`, so the
                // consumer never waits on a partition nobody produces.
                if cancelled.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= parts {
                    break;
                }
                // The worker owns its partition's sender, so a worker that
                // dies disconnects the queue instead of leaving the
                // consumer waiting on it. (The lock only guards this
                // `take`, so a poisoned one still holds a valid slot.)
                let slot = senders[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                let Some(tx) = slot else { break };
                let emitter = Emitter { tx: &tx };
                let result = produce(place.part(i), &emitter);
                let failed = result.is_err();
                // Best-effort: if the consumer aborted, this queue's
                // receiver is gone and the send simply errors.
                let _ = emitter.send(PartMsg::Done(result));
                if failed {
                    cancelled.store(true, Ordering::Relaxed);
                    break;
                }
            });
        }

        let mut spent = vec![PhaseStats::default(); place.nodes.len()];
        'partitions: for (i, rx) in receivers.iter().enumerate() {
            loop {
                match rx.recv() {
                    Ok(PartMsg::Item(item)) => {
                        if let Err(e) = consume(item) {
                            outcome = Err(e);
                            break 'partitions;
                        }
                    }
                    Ok(PartMsg::Done(Ok(part_stats))) => {
                        spent[place.slot[i]].merge(&part_stats);
                        break;
                    }
                    Ok(PartMsg::Done(Err(e))) => {
                        outcome = Err(e);
                        break 'partitions;
                    }
                    Err(_) => {
                        outcome = Err(Error::Other("partition worker exited unexpectedly".into()));
                        break 'partitions;
                    }
                }
            }
        }
        if outcome.is_ok() {
            outcome = Ok(spent);
        } else {
            // Abort: stop workers claiming new partitions, and drop every
            // receiver so producers blocked on full queues wake with a
            // disconnection error and the scope can join.
            cancelled.store(true, Ordering::Relaxed);
            receivers.clear();
        }
    });
    outcome
}

/// Run `f` once per partition of `place` on the worker pool, each on its
/// node's context, returning results in partition order (the
/// non-streaming fan-out used by aggregate scans and striped samples).
fn for_each_partition<T, F>(place: &Placement<'_>, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Part<'_>) -> Result<T> + Sync,
{
    let mut out = Vec::with_capacity(place.keys.len());
    stream_partitions(
        place,
        |part, emitter| {
            emitter.emit(f(part)?)?;
            Ok(PhaseStats::default())
        },
        |item| {
            out.push(item);
            Ok(())
        },
    )?;
    Ok(out)
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
    /// the fragment decodes, what it misses of them in one range GET. The
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
    /// Ship the fragment's Select statement ([`ScanFragment::pushed`]) to
    /// the storage engine for every partition: the bytes scanned and
    /// returned are billed, and the response rows are the partition's
    /// survivors, already projected — whole, or cut short to a sample
    /// ([`ScanLimit`]).
    Select(Option<ScanLimit>),
}

/// Decode one partition's bytes incrementally into typed column vectors
/// — CSV a batch of records at a time, ColumnarLite row group by row
/// group, only the columns `fragment` needs — and evaluate `fragment` on
/// them in the calling thread, pushing survivors to `emit` in batches of
/// at most `ctx.batch_rows`. (A CSV fragment that wants whole rows is
/// handed the decoded rows instead.) The bytes come as `(offset, bytes)`
/// runs: a CSV partition whole, one run from offset 0; a ColumnarLite one
/// whole, or its footer and the chunks `fragment` decodes
/// ([`ColumnarReader::open_parts`]). Returns the number of rows decoded
/// and the CPU units the fragment's predicate and reducer charged.
fn decode_partition(
    parts: Vec<(u64, bytes::Bytes)>,
    table: &Table,
    ctx: &QueryContext,
    fragment: &ScanFragment,
    emit: impl FnMut(RowBatch) -> Result<()>,
) -> Result<(u64, (u64, u64))> {
    let mut out = fragment.outbox(ctx.batch_rows, emit);
    let mut decoded = 0u64;
    match table.format {
        InputFormat::Csv => {
            let [(0, data)] = &parts[..] else {
                return Err(Error::Other("a CSV partition is decoded whole".into()));
            };
            let mut reader =
                CsvReader::with_header(data, table.schema.clone()).project(fragment.needed());
            if fragment.projects() {
                // The referenced fields go straight into typed column
                // vectors, the evaluator ColumnarLite row groups get.
                while let Some(batch) = reader.read_columns(ctx.batch_rows) {
                    let batch = batch?;
                    decoded += batch.len() as u64;
                    out.offer_columnar(&batch)?;
                }
            } else {
                // A whole-row fragment ships the decoded row itself.
                for record in reader {
                    decoded += 1;
                    out.offer(record?.row)?;
                }
            }
        }
        InputFormat::Columnar => {
            let reader = ColumnarReader::open_parts(parts)?;
            for g in 0..reader.num_row_groups() {
                // Rows are materialized for survivors only.
                let group = reader.read_group_batch_projected(g, fragment.needed())?;
                decoded += group.len() as u64;
                out.offer_columnar(&group)?;
            }
        }
    }
    Ok((decoded, out.finish()?))
}

/// The segments a warm cached read of a ColumnarLite partition needs, as
/// its footer segment (at offset `at`) names them: the footer and the
/// chunks of the columns `fragment` decodes
/// ([`ColumnarReader::extents_of`]) — which the store then checks against
/// the layout it read along. `None` — every segment — for CSV, whose
/// decoder wants every block, and for a footer that does not parse (the
/// layout's last chunk is not this object's footer).
fn wanted_chunks(
    table: &Table,
    fragment: &ScanFragment,
    at: u64,
    footer: &bytes::Bytes,
) -> Option<Vec<(u64, u64)>> {
    match table.format {
        InputFormat::Columnar => ColumnarReader::open_parts(vec![(at, footer.clone())])
            .ok()
            .map(|r| r.extents_of(fragment.needed())),
        InputFormat::Csv => None,
    }
}

/// The scan: read every partition of `table` from `source` and hand
/// `sink` the surviving, already projected rows in table order (see the
/// module docs for the ordering guarantee). One producer serves every
/// source: a GET or cache read decodes the partition incrementally and
/// runs `fragment` on the rows **inside the worker that decoded them**; a
/// Select source asks the storage engine for the partition's survivors
/// instead, and a sampled one ([`ScanSource::Select`] with a limit) runs
/// as [`select_scan_streamed`]. Either way the rows leave the worker in
/// batches, metered as the exchange volume of the node they ran on. Peak
/// resident rows are bounded by the worker pool, not the table. Results
/// are byte-for-byte the same with the cache hot, partially warm, cold,
/// or absent.
pub fn scan(
    ctx: &QueryContext,
    table: &Table,
    source: ScanSource,
    fragment: &ScanFragment,
    mut sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    let stmt = match source {
        ScanSource::Select(Some(limit)) => {
            return select_scan_streamed(ctx, table, fragment.statement()?, Some(limit), sink)
        }
        ScanSource::Select(None) => Some(fragment.statement()?),
        ScanSource::Plain | ScanSource::Cached => None,
    };
    let place = Placement::of(ctx, table)?;
    let cached = source == ScanSource::Cached;
    // Rows from a Select source have the schema its responses declare;
    // decoded rows, the fragment's.
    let responded: OnceLock<Schema> = OnceLock::new();
    let hit_parts = AtomicU64::new(0);
    let fill_parts = AtomicU64::new(0);
    let cpu = |units: u64| PhaseStats {
        server_cpu_units: units,
        ..Default::default()
    };
    // What the fragment's predicate charged, per node; what its reducer
    // charged, the `ORDER BY … LIMIT` above's to report.
    let op_units: Vec<AtomicU64> = place.nodes.iter().map(|_| AtomicU64::new(0)).collect();
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
            if let Some(stmt) = stmt {
                let (bucket, schema) = (&table.bucket, &table.schema);
                let engine = &part.ctx.engine;
                let resp = engine.select_stmt(bucket, part.key, stmt, schema, table.format)?;
                let _ = responded.set(resp.output_schema.clone());
                let batches = RowBatch::chunks(&resp.output_schema, resp.rows()?, ctx.batch_rows);
                batches.into_iter().try_for_each(&mut emit)?;
                let mut stats = PhaseStats::default();
                accumulate_response(&mut stats, &resp);
                stats.exchange_bytes = shipped;
                return Ok(stats);
            }
            let store = &part.ctx.store;
            // Every retried attempt billed a request; meter them all so
            // metrics agree with the ledger even under injected faults.
            let (parts, mut stats) = if cached {
                let (fetched, log) = store.read_object_chunked_cached_with(
                    &table.bucket,
                    part.key,
                    &ctx.retry,
                    |len| table.cache_layout(part.key, len, ctx.cache_chunk_bytes),
                    |at, footer| wanted_chunks(table, fragment, at, footer),
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
                let fetched = store.get_object_with(&table.bucket, part.key, &ctx.retry)?;
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
            // GET or a cold cache, the footer and the chunks the fragment
            // decodes from a warm one — which is also what moved.
            if table.format == InputFormat::Columnar {
                stats.cl_parse_bytes = parts.iter().map(|(_, b)| b.len() as u64).sum();
            }
            let (rows, (charged, reduced)) =
                decode_partition(parts, table, ctx, fragment, &mut emit)?;
            stats.exchange_bytes = shipped;
            stats.server_cpu_units += rows;
            op_units[part.node].fetch_add(charged, Ordering::Relaxed);
            reduce_units.fetch_add(reduced, Ordering::Relaxed);
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
    Ok(ScanSummary {
        schema: responded
            .into_inner()
            .unwrap_or_else(|| fragment.schema().clone()),
        stats: total(&spent),
        op_stats: cpu(op_units.iter().sum()),
        reduce_stats: cpu(reduce_units.into_inner()),
        hit_parts: hit_parts.into_inner(),
        fill_parts: fill_parts.into_inner(),
        nodes: place.per_node(&worked),
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

/// Every row of `table` as batches, in partition order: [`scan`] with
/// the identity fragment.
pub fn plain_scan_streamed(
    ctx: &QueryContext,
    table: &Table,
    on_batch: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    let identity = ScanFragment::new(table, None, None);
    scan(ctx, table, ScanSource::Plain, &identity, on_batch)
}

/// [`plain_scan_streamed`] through the segment cache
/// ([`ScanSource::Cached`]).
pub fn cached_scan_streamed(
    ctx: &QueryContext,
    table: &Table,
    on_batch: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    let identity = ScanFragment::new(table, None, None);
    scan(ctx, table, ScanSource::Cached, &identity, on_batch)
}

/// [`scan`] collecting the survivors.
pub fn scan_rows(
    ctx: &QueryContext,
    table: &Table,
    source: ScanSource,
    fragment: &ScanFragment,
) -> Result<(Vec<Row>, ScanSummary)> {
    let mut rows = Vec::new();
    let summary = scan(ctx, table, source, fragment, |batch| {
        rows.extend(batch.rows);
        Ok(())
    })?;
    Ok((rows, summary))
}

/// Baseline path: load whole partitions over the wire and parse locally.
/// Every row, collected: [`scan_rows`] with the identity fragment.
pub fn plain_scan(ctx: &QueryContext, table: &Table) -> Result<ScanResult> {
    let identity = ScanFragment::new(table, None, None);
    let (rows, summary) = scan_rows(ctx, table, ScanSource::Plain, &identity)?;
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
    /// The table's first `n` matching rows *in storage order*: partitions
    /// are queried one after the other until the limit is met (§VI-B's
    /// "first 1 % of data"). A prefix, not a sample — the most biased
    /// subset possible on sorted input.
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

/// Pushdown path, streaming: run the scalar statement `stmt` against
/// every partition via S3 Select and deliver response rows as batches in
/// partition order.
///
/// * Without a `limit` this is [`scan`] from [`ScanSource::Select`]: the
///   partitions stream with full parallelism, each worker materializing
///   its partition's *response* rows before batching, so peak residency
///   follows the billed returned subset (small under pushdown), not the
///   table.
/// * A [`ScanLimit`] bounds the output, so the sample's responses are
///   collected and then batched.
///
/// Aggregate statements merge instead: [`select_scan_aggregate`].
pub fn select_scan_streamed(
    ctx: &QueryContext,
    table: &Table,
    stmt: &SelectStmt,
    limit: Option<ScanLimit>,
    mut on_batch: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    let Some(limit) = limit else {
        let pushed = ScanFragment::pushed(table, stmt.clone());
        return scan(ctx, table, ScanSource::Select(None), &pushed, on_batch);
    };
    let mut keys = partition_keys(ctx, table)?;
    // A striped sample asks only the partitions with a share.
    let mut shares = Vec::new();
    if let ScanLimit::Striped(n) = limit {
        let parts = keys.len();
        (keys, shares) = (keys.into_iter().enumerate())
            .map(|(i, key)| (key, striped_share(n, parts, i)))
            .filter(|&(_, share)| share > 0)
            .unzip();
    }
    let place = Placement::new(ctx, table, keys);
    let select = |part: &Part<'_>, n: usize| {
        let limited = SelectStmt {
            limit: Some(n as u64),
            ..stmt.clone()
        };
        let (bucket, schema) = (&table.bucket, &table.schema);
        (part.ctx.engine).select_stmt(bucket, part.key, &limited, schema, table.format)
    };
    let responses = match limit {
        ScanLimit::Prefix(n) => {
            // The first partition is always asked: its response carries
            // the schema, even of `LIMIT 0`.
            let mut responses = Vec::new();
            let mut room = n;
            for i in 0..place.keys.len() {
                if room == 0 && !responses.is_empty() {
                    break;
                }
                let resp = select(&place.part(i), room)?;
                room = room.saturating_sub(resp.stats.records_returned as usize);
                responses.push(resp);
            }
            responses
        }
        ScanLimit::Striped(_) => {
            for_each_partition(&place, |part| select(&part, shares[part.index]))?
        }
    };
    let mut spent = vec![PhaseStats::default(); place.nodes.len()];
    let mut schema = None;
    for (i, resp) in responses.into_iter().enumerate() {
        accumulate_response(&mut spent[place.slot[i]], &resp);
        let schema = schema.get_or_insert_with(|| resp.output_schema.clone());
        for batch in RowBatch::chunks(schema, resp.rows()?, ctx.batch_rows) {
            on_batch(batch)?;
        }
    }
    let schema =
        schema.ok_or_else(|| Error::Other(format!("an empty sample of `{}`", table.name)))?;
    // A prefix asks one partition after the other, each on its node: a
    // sequence, which reports as one phase wherever it ran.
    let nodes = match limit {
        ScanLimit::Prefix(_) => Vec::new(),
        ScanLimit::Striped(_) => place.per_node(&spent),
    };
    Ok(ScanSummary {
        schema,
        stats: total(&spent),
        nodes,
        ..Default::default()
    })
}

/// Pushdown path: run `stmt` against every partition via S3 Select and
/// collect the answer — an aggregate statement's merged row
/// ([`select_scan_aggregate`]), else the streamed rows, a statement's own
/// `LIMIT` as a [`ScanLimit::Prefix`].
pub fn select_scan(ctx: &QueryContext, table: &Table, stmt: &SelectStmt) -> Result<ScanResult> {
    if stmt.is_aggregate() {
        return select_scan_aggregate(ctx, table, stmt, &[]);
    }
    let limit = stmt.limit.map(|n| ScanLimit::Prefix(n as usize));
    let mut rows = Vec::new();
    let summary = select_scan_streamed(ctx, table, stmt, limit, |batch| {
        rows.extend(batch.rows);
        Ok(())
    })?;
    Ok(ScanResult {
        schema: summary.schema,
        rows,
        stats: summary.stats,
        nodes: summary.nodes,
    })
}

/// Pushed aggregation: every partition answers `stmt`'s aggregates — per
/// group of `group_by`, under the engine's §X native `GROUP BY` extension,
/// when there are grouping columns — and the per-partition partials merge
/// on the compute node through [`ops::merge_group_rows`] (a scalar
/// statement is the one group of zero columns). `AVG` ships as `SUM` +
/// `COUNT`, because per-partition averages do not merge. Rows are
/// `group values ++ one value per aggregate of stmt`, sorted by group.
pub fn select_scan_aggregate(
    ctx: &QueryContext,
    table: &Table,
    stmt: &SelectStmt,
    group_by: &[String],
) -> Result<ScanResult> {
    let width = group_by.len();
    let mut items: Vec<SelectItem> = group_by
        .iter()
        .map(|c| SelectItem::Expr {
            expr: pushdown_sql::Expr::col(c.clone()),
            alias: None,
        })
        .collect();
    // Per aggregate of `stmt`: its function, its name and the first of
    // its partial columns; per partial column: the function it merges by.
    let mut outputs: Vec<(AggFunc, String, usize)> = Vec::new();
    let mut partials: Vec<AggFunc> = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Agg { func, arg, alias } => {
                let name = alias.clone().unwrap_or_else(|| format!("_{}", i + 1));
                outputs.push((*func, name, width + partials.len()));
                let shipped: &[AggFunc] = match func {
                    AggFunc::Avg => &[AggFunc::Sum, AggFunc::Count],
                    other => std::slice::from_ref(other),
                };
                for (j, f) in shipped.iter().enumerate() {
                    items.push(SelectItem::Agg {
                        func: *f,
                        arg: arg.clone(),
                        alias: alias.clone().filter(|_| j == 0),
                    });
                    partials.push(*f);
                }
            }
            // A grouped statement's scalar items are its grouping
            // columns, shipped above.
            SelectItem::Expr { .. } if width > 0 => {}
            other => {
                return Err(Error::Bind(format!(
                    "aggregate scan cannot contain scalar item `{other}`"
                )))
            }
        }
    }
    let grouped = ExtendedSelect {
        select: SelectStmt {
            items,
            alias: stmt.alias.clone(),
            where_clause: stmt.where_clause.clone(),
            limit: None,
        },
        group_by: group_by.to_vec(),
    };
    let place = Placement::of(ctx, table)?;
    let responses = for_each_partition(&place, |part| {
        part.ctx.engine.select_grouped(
            &table.bucket,
            part.key,
            &grouped,
            &table.schema,
            table.format,
        )
    })?;
    let mut spent = vec![PhaseStats::default(); place.nodes.len()];
    let mut rows: Vec<Row> = Vec::new();
    let mut part_schema = None;
    for (i, resp) in responses.into_iter().enumerate() {
        let node = &mut spent[place.slot[i]];
        accumulate_response(node, &resp);
        part_schema.get_or_insert_with(|| resp.output_schema.clone());
        let partials = resp.rows()?;
        // Merging a partial row is one unit — what `ops::merge_group_rows`
        // charges — on the node that returned it.
        node.server_cpu_units += partials.len() as u64;
        rows.extend(partials);
    }
    let part_schema = part_schema.expect("at least one partition");
    let merged = ops::merge_group_rows(vec![rows], width, &partials, &mut PhaseStats::default())?;
    let mut fields: Vec<Field> = (0..width).map(|g| part_schema.field(g).clone()).collect();
    for (func, name, col) in &outputs {
        let dtype = match func {
            AggFunc::Avg => DataType::Float,
            _ => part_schema.dtype_of(*col),
        };
        fields.push(Field::new(name.clone(), dtype));
    }
    let finished = |row: &Row| {
        let mut values = row.values()[..width].to_vec();
        for (func, _, col) in &outputs {
            values.push(match (func, &row[*col]) {
                (AggFunc::Avg, Value::Null) => Value::Null,
                (AggFunc::Avg, sum) => match row[col + 1].as_i64()? {
                    0 => Value::Null,
                    n => Value::Float(sum.as_f64()? / n as f64),
                },
                (_, merged) => merged.clone(),
            });
        }
        Ok(Row::new(values))
    };
    Ok(ScanResult {
        schema: Schema::new(fields),
        rows: merged.iter().map(finished).collect::<Result<_>>()?,
        stats: total(&spent),
        nodes: place.per_node(&spent),
    })
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
        let summary = select_scan_streamed(&ctx, &t, &stmt, None, |batch| {
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
        let place = Placement::of(&ctx, &t).unwrap();
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
            let place = Placement::of(&ctx, &t).unwrap();
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

    #[test]
    fn limited_scan_stops_early_and_bills_less() {
        let (ctx, t) = ctx_with_table(1000, 100);
        let stmt = parse_select("SELECT k FROM S3Object LIMIT 150").unwrap();
        let r = select_scan(&ctx, &t, &stmt).unwrap();
        assert_eq!(r.rows.len(), 150);
        // First 150 rows in order.
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[149][0], Value::Int(149));
        // Only two partitions touched (100 + 50).
        assert_eq!(r.stats.requests, 2);
        assert!(r.stats.s3_scanned_bytes < t.total_bytes(&ctx.store) / 3);
    }

    #[test]
    fn limit_zero_asks_one_partition_for_the_schema() {
        let (ctx, t) = ctx_with_table(500, 100);
        let stmt = parse_select("SELECT k FROM S3Object LIMIT 0").unwrap();
        let r = select_scan(&ctx, &t, &stmt).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.stats.requests, 1);
        let usage = pushdown_common::pricing::Usage {
            requests: r.stats.requests,
            select_scanned_bytes: r.stats.s3_scanned_bytes,
            select_returned_bytes: r.stats.select_returned_bytes,
            plain_bytes: r.stats.plain_bytes,
        };
        assert_eq!(usage, ctx.billed());
        // The schema an empty answer of the same statement carries.
        let none = parse_select("SELECT k FROM S3Object WHERE k < 0 LIMIT 5").unwrap();
        assert_eq!(r.schema, select_scan(&ctx, &t, &none).unwrap().schema);
    }

    #[test]
    fn scan_survives_transient_faults() {
        let (mut ctx, t) = ctx_with_table(100, 50);
        ctx.store
            .set_fault_plan(Some(pushdown_s3::FaultPlan::new(5, 0.4)));
        ctx.retry = pushdown_common::RetryPolicy::with_attempts(16);
        let r = plain_scan(&ctx, &t).unwrap();
        assert_eq!(r.rows.len(), 100);
        // Retried attempts are metered as extra requests (2 partitions).
        assert!(r.stats.requests >= 2);
        assert_eq!(r.stats.requests, ctx.billed().requests);
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
