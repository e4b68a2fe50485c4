//! Table scans: the two ways PushdownDB gets bytes out of S3.
//!
//! * [`scan`] — GET every partition, plainly or through the segment
//!   cache ([`ScanSource`]), and deserialize on the compute node (the
//!   *baseline* path: all bytes cross the wire; billed as plain transfer,
//!   which is free in-region, plus compute time to parse).
//! * [`select_scan`] / [`select_scan_streamed`] — ship a `SELECT`
//!   statement to the storage engine for every partition (the *pushdown*
//!   path: bytes scanned and returned are billed; the response parses
//!   slower per byte, but there are fewer of them).
//!
//! # Streaming execution
//!
//! Both scans run partitions concurrently on a bounded worker pool and
//! deliver rows downstream as fixed-capacity [`RowBatch`]es **in
//! partition order**, so results stay deterministic. Each in-flight
//! partition feeds a small bounded queue; workers block once their queue
//! fills. Plain scans decode incrementally (CSV `batch_rows` records at
//! a time, columnar row-group-by-row-group), capping their peak resident
//! rows at `O(scan_threads × queue depth × batch_rows)` regardless of
//! table size. Select scans decode each partition's *response* before
//! batching, so their bound is `O(scan_threads × response rows)` — the
//! billed returned subset, not the table.
//!
//! # Worker-side fragments
//!
//! A local scan takes a [`ScanFragment`] — the leaf operator's bound
//! predicate, its output expressions, optionally a K-bounded reducer —
//! and evaluates it **inside the worker that decoded the rows**: a
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
//! best K unordered; the K best of a multiset do not depend on order.)
//!
//! The older closure-taking entry points ([`plain_scan_streamed`],
//! [`cached_scan_streamed`], [`plain_scan`]) are forwarding shims over [`scan`] with an identity fragment, kept
//! for callers that want every row and as the oracle the fragment tests
//! compare against.
//!
//! Aggregate statements are re-written per partition and merged on the
//! compute node — `AVG` is decomposed into `SUM`+`COUNT` because
//! per-partition averages do not merge.

use crate::catalog::Table;
use crate::context::QueryContext;
pub use crate::fragment::ScanFragment;
use pushdown_common::perf::PhaseStats;
use pushdown_common::row::RowBatch;
use pushdown_common::{Error, Result, Row, Schema, Value};
use pushdown_format::columnar::ColumnarReader;
use pushdown_format::csv::CsvReader;
use pushdown_select::InputFormat;
use pushdown_sql::agg::AggFunc;
use pushdown_sql::ast::{SelectItem, SelectStmt};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Mutex, OnceLock};

/// Result of a fully materialized scan: rows, their schema, and the
/// phase footprint.
#[derive(Debug, Clone)]
pub struct ScanResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub stats: PhaseStats,
}

/// What a streamed scan reports once every batch has been consumed.
///
/// On a cache-aware scan mem-tier hit bytes land in `stats.cache_bytes`,
/// disk-tier hit bytes in `stats.disk_bytes`, and gap-fill bytes in
/// `stats.plain_bytes` (a fill *is* a billed plain GET — on a partial
/// hit, exactly the gap ranges are billed).
#[derive(Debug, Clone)]
pub struct ScanSummary {
    /// Schema of the delivered batches.
    pub schema: Schema,
    /// Fetch and decode footprint.
    pub stats: PhaseStats,
    /// CPU units the [`ScanFragment`] charged inside the workers (its
    /// predicate and reducer); zero for Select scans.
    pub op_stats: PhaseStats,
    /// Partitions served entirely from the local segment cache (either
    /// tier, no remote bytes).
    pub hit_parts: u64,
    /// Partitions that fetched at least one gap range from the store
    /// (billed fills; a partial hit counts here, not in `hit_parts`).
    pub fill_parts: u64,
}

impl ScanSummary {
    fn new(schema: Schema, stats: PhaseStats) -> Self {
        ScanSummary {
            schema,
            stats,
            op_stats: PhaseStats::default(),
            hit_parts: 0,
            fill_parts: 0,
        }
    }
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

/// Run `produce` over every partition on `ctx.scan_threads` workers and
/// feed everything it emits to `consume` **in partition order**, merging
/// the per-partition [`PhaseStats`] the producers return.
///
/// Workers claim partitions in index order and push into one bounded
/// queue per partition; the consumer drains queues in index order, so
/// output order is deterministic while decode work overlaps across
/// partitions. A consumer error cancels outstanding producers; so does
/// a producer error, which the consumer reports when it reaches that
/// partition: indices are claimed in order and a claimed index is never
/// abandoned, so every earlier partition runs to its `Done`.
fn stream_partitions<T, P, C>(
    ctx: &QueryContext,
    keys: &[String],
    produce: P,
    mut consume: C,
) -> Result<PhaseStats>
where
    T: Send,
    P: Fn(&str, &Emitter<'_, T>) -> Result<PhaseStats> + Sync,
    C: FnMut(T) -> Result<()>,
{
    let threads = ctx.scan_threads.clamp(1, keys.len().max(1));
    let (senders, mut receivers): (Vec<_>, Vec<_>) = keys
        .iter()
        .map(|_| {
            let (tx, rx) = sync_channel(PARTITION_QUEUE_DEPTH);
            (Mutex::new(Some(tx)), rx)
        })
        .unzip();
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let mut outcome: Result<PhaseStats> = Ok(PhaseStats::default());

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
                if i >= keys.len() {
                    break;
                }
                // The worker owns its partition's sender, so a worker that
                // dies disconnects the queue instead of leaving the
                // consumer waiting on it. (The lock only guards this
                // `take`, so a poisoned one still holds a valid slot.)
                let slot = senders[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                let Some(tx) = slot else { break };
                let emitter = Emitter { tx: &tx };
                let result = produce(&keys[i], &emitter);
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

        let mut stats = PhaseStats::default();
        'partitions: for rx in &receivers {
            loop {
                match rx.recv() {
                    Ok(PartMsg::Item(item)) => {
                        if let Err(e) = consume(item) {
                            outcome = Err(e);
                            break 'partitions;
                        }
                    }
                    Ok(PartMsg::Done(Ok(part_stats))) => {
                        stats.merge(&part_stats);
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
            outcome = Ok(stats);
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

/// Run `f` once per partition on the worker pool, returning results in
/// partition order (the non-streaming fan-out used by aggregate scans).
fn for_each_partition<T, F>(ctx: &QueryContext, table: &Table, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&str) -> Result<T> + Sync,
{
    let keys = partition_keys(ctx, table)?;
    let mut out = Vec::with_capacity(keys.len());
    stream_partitions(
        ctx,
        &keys,
        |key, emitter| {
            emitter.emit(f(key)?)?;
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
    let mut keys = table.partitions(&ctx.store);
    if keys.is_empty() {
        return Err(Error::NoSuchKey(format!(
            "table `{}` has no partitions under s3://{}/{}/",
            table.name, table.bucket, table.prefix
        )));
    }
    // A partition filter (set by the scattered Gather path) narrows the
    // scan to its keys, preserving global listing order. The filter keys
    // come from the same listing, so the intersection is never empty.
    if let Some(filter) = &ctx.partition_filter {
        keys.retain(|k| filter.iter().any(|f| f == k));
        if keys.is_empty() {
            return Err(Error::NoSuchKey(format!(
                "partition filter matches no partition of table `{}`",
                table.name
            )));
        }
    }
    Ok(keys)
}

/// Where [`scan`] reads partition bytes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanSource {
    /// One whole-object GET per partition — unless the context has
    /// `cache_reads` set **and** the store carries a
    /// [`pushdown_cache::SegmentCache`], in which case the scan reads
    /// through the cache like [`ScanSource::Cached`]. This is how the
    /// top-K leaf's `cached-local` variant reuses the server-side
    /// algorithm unchanged (the other families' `cached-local` candidates
    /// are [`crate::plan::PlanOp::CachedScan`] leaves), and how a caller
    /// warms the cache with any baseline plan
    /// ([`QueryContext::with_cache_reads`]).
    Plain,
    /// Read every partition **through** the store's tiered segment cache
    /// at chunk granularity. Resident chunks are served locally (nothing
    /// billed, the virtual clock advances at each tier's read bandwidth);
    /// only the gaps are fetched, adjacent gaps coalesced into single
    /// range GETs under the uniform [`pushdown_common::RetryPolicy`],
    /// billed exactly once (every attempt a request, the bytes once) like
    /// any plain GET. A persistent disk tier is committed once, when the
    /// last partition is done ([`pushdown_s3::S3Store::commit_cache`]).
    Cached,
}

/// Decode one partition's bytes incrementally — CSV a batch of records
/// at a time, ColumnarLite row group by row group, only the columns
/// `fragment` needs — and evaluate `fragment` on them in the calling
/// thread, pushing survivors to `emit` in batches of at most
/// `ctx.batch_rows`.
/// Returns the number of rows decoded and the CPU units the fragment
/// charged.
pub(crate) fn decode_partition(
    data: bytes::Bytes,
    table: &Table,
    ctx: &QueryContext,
    fragment: &ScanFragment,
    emit: impl FnMut(RowBatch) -> Result<()>,
) -> Result<(u64, u64)> {
    let mut out = fragment.outbox(ctx.batch_rows, emit);
    let mut decoded = 0u64;
    match table.format {
        InputFormat::Csv | InputFormat::CsvNoHeader => {
            let reader = if table.format == InputFormat::Csv {
                CsvReader::with_header(&data, table.schema.clone())
            } else {
                CsvReader::without_header(&data, table.schema.clone())
            };
            let mut reader = reader.project(fragment.needed());
            if ctx.columnar_exec && fragment.projects() {
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
            let reader = ColumnarReader::open(data)?;
            for g in 0..reader.num_row_groups() {
                if ctx.columnar_exec {
                    // Straight into typed column vectors; rows are
                    // materialized for survivors only.
                    let group = reader.read_group_batch_projected(g, fragment.needed())?;
                    decoded += group.len() as u64;
                    out.offer_columnar(&group)?;
                } else {
                    for row in reader.read_rows_projected(g, fragment.needed())? {
                        decoded += 1;
                        out.offer(row)?;
                    }
                }
            }
        }
    }
    Ok((decoded, out.finish()?))
}

/// Chunk layout used to cache one partition's bytes: ColumnarLite files
/// split at row-group extents (plus the footer as its own hot segment);
/// everything else splits into fixed blocks of
/// [`QueryContext::cache_chunk_bytes`]. An unreadable ColumnarLite file
/// caches as one whole-object chunk — the coarse path, never a wrong
/// layout.
pub(crate) fn chunk_layout(
    table: &Table,
    chunk_bytes: u64,
    data: &bytes::Bytes,
) -> Vec<(u64, u64)> {
    let len = data.len() as u64;
    match table.format {
        InputFormat::Columnar => ColumnarReader::open(data.clone())
            .map(|r| r.row_group_extents())
            .unwrap_or_else(|_| vec![(0, len)]),
        InputFormat::Csv | InputFormat::CsvNoHeader => {
            let step = chunk_bytes.max(1);
            (0..len)
                .step_by(step as usize)
                .map(|first| (first, (first + step).min(len)))
                .collect()
        }
    }
}

/// The local scan: fetch every partition of `table` from `source`,
/// decode it incrementally and run `fragment` on the rows **inside the
/// worker that decoded them**; `sink` receives the surviving, already
/// projected rows in table order (see the module docs for the ordering
/// guarantee). Peak resident rows are bounded by the worker pool, not
/// the table. Results are byte-for-byte the same with the cache hot,
/// partially warm, cold, or absent.
pub fn scan(
    ctx: &QueryContext,
    table: &Table,
    source: ScanSource,
    fragment: &ScanFragment,
    mut sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    let keys = partition_keys(ctx, table)?;
    let cached = source == ScanSource::Cached || (ctx.cache_reads && ctx.store.cache().is_some());
    let hit_parts = AtomicU64::new(0);
    let fill_parts = AtomicU64::new(0);
    let op_units = AtomicU64::new(0);
    let stats = stream_partitions(
        ctx,
        &keys,
        |key, emitter| {
            // Every retried attempt billed a request; meter them all so
            // metrics agree with the ledger even under injected faults.
            let (data, mut part) = if cached {
                let fetched = ctx.store.get_object_chunked_cached_with(
                    &table.bucket,
                    key,
                    &ctx.retry,
                    |data| chunk_layout(table, ctx.cache_chunk_bytes, data),
                )?;
                let counter = if fetched.hit { &hit_parts } else { &fill_parts };
                counter.fetch_add(1, Ordering::Relaxed);
                let part = PhaseStats {
                    requests: u64::from(fetched.attempts),
                    plain_bytes: fetched.gap_bytes,
                    cache_bytes: fetched.mem_bytes,
                    disk_bytes: fetched.disk_bytes,
                    ..Default::default()
                };
                (fetched.data, part)
            } else {
                let fetched = ctx.store.get_object_with(&table.bucket, key, &ctx.retry)?;
                let part = PhaseStats {
                    requests: u64::from(fetched.attempts),
                    plain_bytes: fetched.value.len() as u64,
                    ..Default::default()
                };
                (fetched.value, part)
            };
            // ColumnarLite bytes ingest at their own parse rate
            // ([`pushdown_common::perf::PerfParams::parse_cl_bw`]). Keyed
            // on the table format, not on the execution path or on what
            // the fragment decodes, so every mode reports identical stats.
            if table.format == InputFormat::Columnar {
                part.cl_parse_bytes = data.len() as u64;
            }
            let (rows, charged) =
                decode_partition(data, table, ctx, fragment, |batch| emitter.emit(batch))?;
            part.server_cpu_units += rows;
            op_units.fetch_add(charged, Ordering::Relaxed);
            Ok(part)
        },
        &mut sink,
    );
    // A cached scan is the cache's commit point, failed or not: whatever
    // its fills, demotions and promotions appended becomes durable (and
    // is charged to this scope's clock) in one group commit.
    if cached {
        ctx.store.commit_cache();
    }
    Ok(ScanSummary {
        schema: fragment.schema().clone(),
        stats: stats?,
        op_stats: PhaseStats {
            server_cpu_units: op_units.into_inner(),
            ..Default::default()
        },
        hit_parts: hit_parts.into_inner(),
        fill_parts: fill_parts.into_inner(),
    })
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
    })
}

/// How a per-partition aggregate column folds into the final answer.
enum MergeKind {
    Sum,
    Count,
    Min,
    Max,
    /// `AVG` decomposed: positions of its SUM and COUNT columns in the
    /// per-partition result.
    Avg {
        sum_col: usize,
        count_col: usize,
    },
}

fn accumulate_response(stats: &mut PhaseStats, resp: &pushdown_select::SelectResponse) {
    // attempts ≥ 1; each billed one ledger request (retries included).
    stats.requests += u64::from(resp.stats.attempts.max(1));
    stats.s3_scanned_bytes += resp.stats.bytes_scanned;
    stats.select_returned_bytes += resp.stats.bytes_returned;
    stats.server_cpu_units += resp.stats.records_returned;
    stats.expr_terms = stats.expr_terms.max(resp.stats.expr_terms);
}

/// Pushdown path, streaming: run `stmt` against every partition via S3
/// Select and deliver response rows as batches in partition order.
///
/// * Scalar statements stream with full partition parallelism. Each
///   worker materializes its partition's *response* rows before
///   batching, so peak residency follows the billed returned subset
///   (small under pushdown), not the table.
/// * `LIMIT` statements query partitions *sequentially* and stop early
///   (the sampling phases of §VI-B and §VII-A rely on the scan — and its
///   bill — stopping with the limit), streaming each response.
/// * Aggregate statements produce their single merged row as one batch.
pub fn select_scan_streamed(
    ctx: &QueryContext,
    table: &Table,
    stmt: &SelectStmt,
    mut on_batch: impl FnMut(RowBatch) -> Result<()>,
) -> Result<ScanSummary> {
    if stmt.is_aggregate() || stmt.limit.is_some() {
        // Both shapes produce bounded output (one row, or ≤ LIMIT rows):
        // materialize via the dedicated paths and re-batch.
        let scan = select_scan(ctx, table, stmt)?;
        for batch in RowBatch::chunks(&scan.schema, scan.rows, ctx.batch_rows) {
            on_batch(batch)?;
        }
        return Ok(ScanSummary::new(scan.schema, scan.stats));
    }

    let keys = partition_keys(ctx, table)?;
    let schema_slot: OnceLock<Schema> = OnceLock::new();
    let stats = stream_partitions(
        ctx,
        &keys,
        |key, emitter| {
            let resp =
                ctx.engine
                    .select_stmt(&table.bucket, key, stmt, &table.schema, table.format)?;
            let mut part = PhaseStats::default();
            accumulate_response(&mut part, &resp);
            let _ = schema_slot.set(resp.output_schema.clone());
            let rows = resp.rows()?;
            for batch in RowBatch::chunks(&resp.output_schema, rows, ctx.batch_rows) {
                emitter.emit(batch)?;
            }
            Ok(part)
        },
        &mut on_batch,
    )?;
    let schema = schema_slot
        .into_inner()
        .expect("at least one partition responded");
    Ok(ScanSummary::new(schema, stats))
}

/// Pushdown path: run `stmt` against every partition via S3 Select and
/// merge the responses. Collecting wrapper over the streaming scans.
pub fn select_scan(ctx: &QueryContext, table: &Table, stmt: &SelectStmt) -> Result<ScanResult> {
    if stmt.is_aggregate() {
        select_scan_aggregate(ctx, table, stmt)
    } else if stmt.limit.is_some() {
        select_scan_limited(ctx, table, stmt)
    } else {
        let mut rows = Vec::new();
        let summary = select_scan_streamed(ctx, table, stmt, |batch| {
            rows.extend(batch.rows);
            Ok(())
        })?;
        Ok(ScanResult {
            schema: summary.schema,
            rows,
            stats: summary.stats,
        })
    }
}

fn select_scan_limited(ctx: &QueryContext, table: &Table, stmt: &SelectStmt) -> Result<ScanResult> {
    let limit = stmt.limit.expect("limited scan") as usize;
    let mut stats = PhaseStats::default();
    let mut rows = Vec::new();
    let mut schema = None;
    for key in table.partitions(&ctx.store) {
        let remaining = limit - rows.len();
        if remaining == 0 {
            break;
        }
        let mut part_stmt = stmt.clone();
        part_stmt.limit = Some(remaining as u64);
        let resp =
            ctx.engine
                .select_stmt(&table.bucket, &key, &part_stmt, &table.schema, table.format)?;
        accumulate_response(&mut stats, &resp);
        if schema.is_none() {
            schema = Some(resp.output_schema.clone());
        }
        rows.extend(resp.rows()?);
    }
    let schema = schema
        .ok_or_else(|| Error::NoSuchKey(format!("table `{}` has no partitions", table.name)))?;
    Ok(ScanResult {
        schema,
        rows,
        stats,
    })
}

/// Run a `LIMIT`-bounded statement with the limit **striped across
/// partitions** (per-partition shares) instead of taking a prefix of the
/// table.
///
/// A plain `LIMIT n` scan ([`select_scan`]) queries partitions in order
/// and stops early, so it returns the table's first `n` rows *in storage
/// order* — a prefix, not a sample. Phases that treat the result as a
/// sample (the §VII-A top-K sampling phase, statistics probes) degrade
/// badly on sorted input: the prefix is the most biased subset possible.
/// This scan gives partition `i` the share `⌊(i+1)·n/P⌋ − ⌊i·n/P⌋`
/// (shares telescope to exactly `n`), so
/// every partition contributes proportionally and the worst-case bias is
/// bounded by the per-partition storage order. Shares run concurrently
/// on the worker pool; rows return in partition order (deterministic).
pub fn select_scan_striped_limit(
    ctx: &QueryContext,
    table: &Table,
    stmt: &SelectStmt,
    limit: usize,
) -> Result<ScanResult> {
    let keys = partition_keys(ctx, table)?;
    let parts = keys.len();
    let limit = limit.max(1);
    let share_of = |key: &str| -> u64 {
        let i = keys
            .iter()
            .position(|k| k == key)
            .expect("key comes from the same partition listing");
        ((i + 1) * limit / parts - i * limit / parts) as u64
    };
    let responses = for_each_partition(ctx, table, |key| {
        let share = share_of(key);
        if share == 0 {
            return Ok(None);
        }
        let mut part_stmt = stmt.clone();
        part_stmt.limit = Some(share);
        ctx.engine
            .select_stmt(&table.bucket, key, &part_stmt, &table.schema, table.format)
            .map(Some)
    })?;
    let mut stats = PhaseStats::default();
    let mut rows = Vec::new();
    let mut schema = None;
    for resp in responses.into_iter().flatten() {
        accumulate_response(&mut stats, &resp);
        if schema.is_none() {
            schema = Some(resp.output_schema.clone());
        }
        rows.extend(resp.rows()?);
    }
    let schema = schema
        .ok_or_else(|| Error::NoSuchKey(format!("table `{}` has no partitions", table.name)))?;
    Ok(ScanResult {
        schema,
        rows,
        stats,
    })
}

fn select_scan_aggregate(
    ctx: &QueryContext,
    table: &Table,
    stmt: &SelectStmt,
) -> Result<ScanResult> {
    // Rewrite: one partition-level item list, plus merge instructions that
    // map partition columns back to the original items.
    let mut part_items: Vec<SelectItem> = Vec::new();
    let mut merges: Vec<MergeKind> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Agg { func, arg, alias } => match func {
                AggFunc::Sum => {
                    merges.push(MergeKind::Sum);
                    part_items.push(item.clone());
                }
                AggFunc::Count => {
                    merges.push(MergeKind::Count);
                    part_items.push(item.clone());
                }
                AggFunc::Min => {
                    merges.push(MergeKind::Min);
                    part_items.push(item.clone());
                }
                AggFunc::Max => {
                    merges.push(MergeKind::Max);
                    part_items.push(item.clone());
                }
                AggFunc::Avg => {
                    let sum_col = part_items.len();
                    part_items.push(SelectItem::Agg {
                        func: AggFunc::Sum,
                        arg: arg.clone(),
                        alias: alias.clone(),
                    });
                    part_items.push(SelectItem::Agg {
                        func: AggFunc::Count,
                        arg: arg.clone(),
                        alias: None,
                    });
                    merges.push(MergeKind::Avg {
                        sum_col,
                        count_col: sum_col + 1,
                    });
                }
            },
            other => {
                return Err(Error::Bind(format!(
                    "aggregate scan cannot contain scalar item `{other}`"
                )))
            }
        }
    }
    let part_stmt = SelectStmt {
        items: part_items,
        alias: stmt.alias.clone(),
        where_clause: stmt.where_clause.clone(),
        limit: None,
    };

    let responses = for_each_partition(ctx, table, |key| {
        ctx.engine
            .select_stmt(&table.bucket, key, &part_stmt, &table.schema, table.format)
    })?;

    let mut stats = PhaseStats::default();
    let mut partials: Vec<Row> = Vec::new();
    let mut part_schema = None;
    for resp in responses {
        accumulate_response(&mut stats, &resp);
        if part_schema.is_none() {
            part_schema = Some(resp.output_schema.clone());
        }
        partials.extend(resp.rows()?);
    }
    let part_schema = part_schema.expect("at least one partition");

    // Merge partition rows according to the merge plan.
    let mut out: Vec<Value> = Vec::with_capacity(stmt.items.len());
    let mut col_of_item: Vec<usize> = Vec::new();
    {
        let mut c = 0;
        for m in &merges {
            col_of_item.push(c);
            c += match m {
                MergeKind::Avg { .. } => 2,
                _ => 1,
            };
        }
    }
    for (m, &col) in merges.iter().zip(&col_of_item) {
        let column = |idx: usize| partials.iter().map(move |r| r[idx].clone());
        let merged = match m {
            MergeKind::Sum | MergeKind::Count => {
                let mut acc = AggFunc::Sum.accumulator();
                for v in column(col) {
                    acc.update(&v)?;
                }
                match (m, acc.finish()) {
                    // COUNT of zero partitions/nulls is 0, not NULL.
                    (MergeKind::Count, Value::Null) => Value::Int(0),
                    (_, v) => v,
                }
            }
            MergeKind::Min => {
                let mut acc = AggFunc::Min.accumulator();
                for v in column(col) {
                    acc.update(&v)?;
                }
                acc.finish()
            }
            MergeKind::Max => {
                let mut acc = AggFunc::Max.accumulator();
                for v in column(col) {
                    acc.update(&v)?;
                }
                acc.finish()
            }
            MergeKind::Avg { sum_col, count_col } => {
                let mut total = 0.0;
                let mut n: i64 = 0;
                for r in &partials {
                    if !r[*sum_col].is_null() {
                        total += r[*sum_col].as_f64()?;
                    }
                    n += r[*count_col].as_i64()?;
                }
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(total / n as f64)
                }
            }
        };
        out.push(merged);
    }
    stats.server_cpu_units += partials.len() as u64;

    // Output schema: named like the original statement's items.
    let fields: Vec<pushdown_common::Field> = stmt
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let SelectItem::Agg { func, alias, .. } = item else {
                unreachable!()
            };
            let name = alias.clone().unwrap_or_else(|| format!("_{}", i + 1));
            let dtype = match func {
                AggFunc::Count => pushdown_common::DataType::Int,
                AggFunc::Avg => pushdown_common::DataType::Float,
                _ => {
                    // Take the partition schema's type for the first column
                    // of this item.
                    part_schema.dtype_of(col_of_item[i])
                }
            };
            pushdown_common::Field::new(name, dtype)
        })
        .collect();

    Ok(ScanResult {
        schema: Schema::new(fields),
        rows: vec![Row::new(out)],
        stats,
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
        let summary = select_scan_streamed(&ctx, &t, &stmt, |batch| {
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
        let keys = partition_keys(&ctx, &t).unwrap();
        // The consumer sees partition 2's queue disconnect and bails out;
        // the scope then re-raises the worker's panic. Before workers
        // owned their senders the consumer waited on that queue forever.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_partitions::<(), _, _>(
                &ctx,
                &keys,
                |key, _| {
                    assert!(!key.ends_with("00002.csv"), "worker bug");
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
        let keys = partition_keys(&ctx, &t).unwrap();
        assert_eq!(keys.len(), 64);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                let err = stream_partitions::<(), _, _>(
                    &ctx,
                    &keys,
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
