//! Analytical cost estimation for cost-based strategy selection.
//!
//! The paper takes the algorithm choice as an input — "dynamically
//! determining which optimization to use is orthogonal to and beyond the
//! scope of this paper" (§VIII) — yet every figure shows the winner
//! flipping with selectivity, group count and K. This module closes that
//! loop with **one walker**: [`predict_plan`] prices every node of a
//! candidate plan — scan leaves by their source, GET, cache or Select
//! (samples included, on a cluster split per node as the partition
//! fan-out runs them), joins, local operators, and the staged
//! operators (§V-A2 Bloom join, §VII threshold, §VI CASE-WHEN and hybrid
//! split): each of those prices its first child, then its second with
//! the *estimated* outcome of the predicate it will write (the fraction
//! of rows kept, the terms added) handed down to the pushed scans below
//! — straight from catalog statistics
//! ([`crate::catalog::TableStats`]). The planner calls it once per
//! candidate and once for the plan it runs; nothing else prices.
//!
//! Predictions are expressed as a [`QueryMetrics`] — the *same* structure
//! measurements use — so predicted runtime and dollars come from the
//! *same* [`PerfModel`](pushdown_common::perf::PerfModel) and
//! [`Pricing`](pushdown_common::pricing::Pricing) that score real
//! executions. A prediction and a measurement can disagree only because
//! the *footprint* was estimated imperfectly, never because they were
//! priced by different models — nor because they counted phases
//! differently: the walk estimates each node's own footprint (and what
//! the executor decides at run time: the Bloom filter §V-B1 plans, whether
//! a hybrid split finds populous groups) and hands it with its children's
//! outcomes to the one composition layer the executor fills with
//! measurements (`shape`), which applies the phase rule
//! ([`QueryMetrics::stack`]), names every phase and builds the same
//! [`OpReport`] tree execution returns. Only a threshold's rescan, which
//! no estimate foresees, is the executor's alone.
//!
//! What the walks of one query share is an [`Estimators`]: one
//! [`Estimator`] per distinct table — the partition listing, the stored
//! byte total and the row width taken once, under the store's read lock
//! and, on a cluster, the owner of every partition and its size — handed
//! to every candidate's walk. Cache occupancy is *not* part of the
//! snapshot: a cached leaf is priced from the live segment cache (the
//! owning node's slice, on a cluster) each time it is walked — unless
//! the snapshot was taken [as if one table were
//! resident](Estimators::as_if_resident), which is how the planner's
//! rent-or-buy rule prices what a fill of that table would save later:
//! that table's partitions then occupy the mem tier up to its budget and
//! the disk tier for the rest, an input to the same cached-leaf pricing.
//! The same snapshot reads the rent the segment cache keeps per
//! partition object, and accrues more.

use crate::catalog::{ColumnStats, Table, TableStats};
use crate::context::QueryContext;
use crate::metrics::QueryMetrics;
use crate::plan::{
    case_when_chunk, counted_aggs, finished_by, hybrid_leaf, populous, threshold_predicate,
    OpReport, Order, PlanNode, PlanOp, HYBRID_MAX_S3_GROUPS, HYBRID_MIN_SHARE,
};
use crate::scan::{striped_share, ScanLimit, ScanSource};
use crate::shape::{compose, Outcome, Own};
use pushdown_bloom::BloomPlan;
use pushdown_cache::{Access, ObjectOccupancy, SegmentCache};
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Result, Schema, Value};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::ast::BinOp;
use pushdown_sql::{Expr, SelectItem, SelectStmt};

/// Selectivity assumed for predicate shapes the estimator cannot reason
/// about (arbitrary expressions, LIKE over unknown data, ...).
const DEFAULT_SELECTIVITY: f64 = 0.33;

/// Mean CSV width assumed for one aggregate output value (`SUM(...)`
/// renders as a float of roughly this many characters plus separator).
const AGG_VALUE_WIDTH: f64 = 11.0;

/// Cost estimator over one table: its catalog snapshot, and the
/// footprint arithmetic of everything that scans it.
#[derive(Clone)]
pub struct Estimator<'a> {
    ctx: &'a QueryContext,
    table: &'a Table,
    /// Partition keys, listed once at construction — the estimator's
    /// catalog snapshot. Per-segment pricing iterates this snapshot, so
    /// a partition deleted underneath a live estimator surfaces as an
    /// explicit error instead of a silently mispriced plan.
    partition_keys: Vec<String>,
    /// Partition count (a layout constant; per-partition fan-out).
    parts: u64,
    /// Total stored bytes of the table.
    bytes: f64,
    /// Row count (≥ 1 internally to keep ratios finite).
    rows: f64,
    /// Mean stored CSV row width.
    row_bytes: f64,
    /// Per partition, the node owning it and its stored size — read once,
    /// when the context spreads over a cluster; empty otherwise.
    owners: Vec<(usize, u64)>,
    /// Price a cached read of this table as if the table were resident
    /// ([`Estimators::as_if_resident`]), not from live occupancy.
    resident: bool,
}

impl<'a> Estimator<'a> {
    pub fn new(ctx: &'a QueryContext, table: &'a Table) -> Self {
        let partition_keys = table.partitions(&ctx.store);
        let owners = ctx.spread().map_or_else(Vec::new, |cluster| {
            let owner = |k: &String| cluster.assign(&table.bucket, k);
            let size = |k: &String| ctx.store.object_size(&table.bucket, k).unwrap_or(0);
            partition_keys.iter().map(|k| (owner(k), size(k))).collect()
        });
        let parts = partition_keys.len().max(1) as u64;
        let bytes = table.total_bytes(&ctx.store) as f64;
        let rows = (table.row_count.max(1)) as f64;
        let row_bytes = table
            .stats
            .as_ref()
            .map(|s| s.avg_row_bytes())
            .unwrap_or(bytes / rows)
            .max(2.0);
        Estimator {
            ctx,
            table,
            partition_keys,
            parts,
            bytes,
            rows,
            row_bytes,
            owners,
            resident: false,
        }
    }

    fn stats(&self) -> Option<&TableStats> {
        self.table.stats.as_deref()
    }

    /// Mean CSV width of one column (falls back to an even split of the
    /// row width when no statistics are attached).
    fn col_width(&self, name: &str) -> f64 {
        let fallback = self.row_bytes / self.table.schema.len().max(1) as f64;
        let Ok(idx) = self.table.schema.resolve(name) else {
            return fallback;
        };
        self.stats()
            .and_then(|s| s.column(idx))
            .map(|c| c.avg_width)
            .unwrap_or(fallback)
    }

    /// Mean CSV width of an output row over the given columns (fields +
    /// separators + newline) — what one returned record bills.
    fn out_row_bytes<S: AsRef<str>>(&self, cols: &[S]) -> f64 {
        let widths: f64 = cols.iter().map(|c| self.col_width(c.as_ref())).sum();
        widths + cols.len().saturating_sub(1) as f64 + 1.0
    }

    /// Mean CSV width of the rows a scan leaf emits: the projected
    /// columns', every column's for `*`.
    fn projected_row_bytes(&self, projection: &Option<Vec<String>>) -> f64 {
        match projection {
            Some(cols) => self.out_row_bytes(cols),
            None => self.out_row_bytes(&self.table.schema.names()),
        }
    }

    /// Distinct-value estimate for one column.
    fn ndv(&self, name: &str) -> f64 {
        let idx = match self.table.schema.resolve(name) {
            Ok(i) => i,
            Err(_) => return self.rows,
        };
        self.stats()
            .and_then(|s| s.column(idx))
            .map(|c| (c.ndv as f64).max(1.0))
            .unwrap_or(self.rows)
    }

    /// Predicate selectivity against this table's statistics.
    pub fn selectivity(&self, pred: Option<&Expr>) -> f64 {
        match pred {
            None => 1.0,
            Some(p) => selectivity(p, &self.table.schema, self.stats()),
        }
    }

    /// ColumnarLite parse accounting for `bytes` of this table — keyed
    /// on the stored format, exactly like the scan paths, so predicted
    /// phases price parse bandwidth the same way executed ones report it.
    fn cl_bytes(&self, bytes: u64) -> u64 {
        if self.table.format == pushdown_select::InputFormat::Columnar {
            bytes
        } else {
            0
        }
    }

    /// Baseline load phase: GET every partition, decode every row.
    fn plain_load(&self, extra_cpu: f64) -> PhaseStats {
        PhaseStats {
            requests: self.parts,
            plain_bytes: self.bytes as u64,
            cl_parse_bytes: self.cl_bytes(self.bytes as u64),
            server_cpu_units: (self.rows + extra_cpu) as u64,
            ..Default::default()
        }
    }

    /// Cached-local load phase: read partitions through the tiered
    /// segment cache, priced **per segment per tier** from live
    /// occupancy (or the occupancy assumed [as if the table were
    /// resident](Estimators::as_if_resident)) — mem-resident chunks cost a
    /// `cache_read_bw` local scan (`cache_bytes`; zero billable),
    /// disk-resident chunks a slower `disk_read_bw` scan (`disk_bytes`;
    /// zero billable), and only the gaps bill, as one coalesced range GET
    /// per gap run, along the layout the catalog gives each partition
    /// ([`Table::cache_layout`]). A partition whose footer is resident
    /// reads `reads`' share of that occupancy: a ColumnarLite leaf the
    /// footer and the chunks of the columns it decodes, in at most one gap
    /// GET ([`CachedReads`]). A fully cold partition is one gap the size
    /// of the object — exactly the [`Estimator::plain_load`] price, so
    /// Adaptive's tie-break still warms the cache — and so is every
    /// partition when the store has no cache installed (a cached read then
    /// *is* a plain load). A partition in the estimator's
    /// snapshot whose object has vanished is an error — pricing it as
    /// zero bytes would make the cached plan look arbitrarily cheap.
    fn cached_load(&self, extra_cpu: f64, mut reads: CachedReads) -> Result<PhaseStats> {
        let Some(cache) = self.ctx.store.cache() else {
            return Ok(self.plain_load(extra_cpu));
        };
        let mut stats = PhaseStats::default();
        let mut mem_left = cache.config().mem_bytes;
        for key in &self.partition_keys {
            let size = self.ctx.store.object_size(&self.table.bucket, key)?;
            reads.add(&self.occupancy(&cache, key, size, &mut mem_left));
        }
        reads.price_since(&CachedReads::default(), &mut stats);
        stats.cl_parse_bytes =
            self.cl_bytes(stats.plain_bytes + stats.cache_bytes + stats.disk_bytes);
        stats.server_cpu_units = (self.rows + extra_cpu) as u64;
        Ok(stats)
    }

    /// How a cached read of this table by a leaf decoding the columns
    /// `predicate` and `projection` reference (every column for `*`)
    /// reads a partition whose footer is resident: the share of its bytes
    /// the footers and those columns' chunks make up, from the load-time
    /// segment statistics ([`crate::catalog::SegmentBytes`]) — or, for a
    /// table without them, every chunk.
    fn cached_reads(
        &self,
        predicate: &Option<Expr>,
        projection: &Option<Vec<String>>,
    ) -> CachedReads {
        let schema = &self.table.schema;
        let needed = || -> Option<Vec<usize>> {
            let Some(cols) = projection else {
                return Some((0..schema.len()).collect());
            };
            let mut names = cols.clone();
            if let Some(p) = predicate {
                p.referenced_columns(&mut names);
            }
            let resolved = names.iter().map(|c| schema.resolve(c).ok());
            let mut needed = resolved.collect::<Option<Vec<usize>>>()?;
            needed.sort_unstable();
            needed.dedup();
            Some(needed)
        };
        let segments = self.stats().and_then(|s| s.segments.as_ref());
        let bytes = segments.zip(needed()).map(|(s, cols)| s.read_by(&cols));
        CachedReads {
            share: bytes.map(|b| (b as f64 / self.bytes.max(1.0)).min(1.0)),
            ..CachedReads::default()
        }
    }

    /// What a cached read of partition `key` (`size` bytes) finds in
    /// `cache`: its live occupancy — or, priced as if the table were
    /// resident, its bytes in the mem tier while `mem_left` of the mem
    /// budget lasts and in the disk tier after.
    fn occupancy(
        &self,
        cache: &SegmentCache,
        key: &str,
        size: u64,
        mem_left: &mut u64,
    ) -> ObjectOccupancy {
        if !self.resident {
            return self.live_occupancy(cache, key, size);
        }
        let mem_bytes = size.min(*mem_left);
        *mem_left -= mem_bytes;
        ObjectOccupancy {
            mem_bytes,
            disk_bytes: size - mem_bytes,
            trailer_resident: true,
            ..Default::default()
        }
    }

    /// What `cache` holds of partition `key` (`size` bytes) right now,
    /// along the layout the scan reads it by.
    fn live_occupancy(&self, cache: &SegmentCache, key: &str, size: u64) -> ObjectOccupancy {
        let chunk_bytes = self.ctx.cache_chunk_bytes;
        cache.occupancy(&self.table.bucket, key, size, |len| {
            self.table.cache_layout(key, len, chunk_bytes)
        })
    }

    /// Every partition as the segment cache sees it ([`Slot`]).
    fn slots(&self) -> Result<Vec<Slot<'_>>> {
        let mut slots = Vec::with_capacity(self.partition_keys.len());
        for (i, key) in self.partition_keys.iter().enumerate() {
            let (size, node, cache) = match self.ctx.spread() {
                Some(cluster) => {
                    let (node, size) = self.owners[i];
                    (size, node, cluster.node(node).cache.clone())
                }
                None => {
                    let size = self.ctx.store.object_size(&self.table.bucket, key)?;
                    (size, 0, self.ctx.store.cache())
                }
            };
            let key = key.as_str();
            slots.push(Slot {
                key,
                size,
                node,
                cache,
            });
        }
        Ok(slots)
    }

    /// The partitions a fill of this table could keep: on each node, the
    /// partitions it owns when together they fit its cache's whole
    /// budget, mem and disk.
    fn keepable(&self) -> Result<Vec<Slot<'_>>> {
        let mut slots = self.slots()?;
        let mut owned: Vec<u64> = Vec::new();
        for s in &slots {
            owned.resize(owned.len().max(s.node + 1), 0);
            owned[s.node] += s.size;
        }
        slots.retain(|s| {
            let budget = |c: &SegmentCache| c.config().mem_bytes + c.config().disk_bytes;
            s.cache.as_ref().is_some_and(|c| owned[s.node] <= budget(c))
        });
        Ok(slots)
    }

    /// Select phase scanning the whole table and returning `ret_rows`
    /// records of `ret_row_bytes` each.
    fn select_full_scan(&self, ret_rows: f64, ret_row_bytes: f64, terms: u32) -> PhaseStats {
        let ret_rows = ret_rows.min(self.rows).max(0.0);
        PhaseStats {
            requests: self.parts,
            s3_scanned_bytes: self.bytes as u64,
            select_returned_bytes: (ret_rows * ret_row_bytes) as u64,
            server_cpu_units: ret_rows as u64,
            expr_terms: terms,
            ..Default::default()
        }
    }

    /// `full`, the footprint of a leaf reading the partitions `asked`
    /// picks (by index), split across the nodes owning them as the
    /// partition fan-out runs it ([`crate::scan`]): per node its byte share
    /// of `full` and one request per owned partition — a cached leaf's
    /// bytes priced instead against the owning node's slice, per segment
    /// per tier — and, for a leaf whose rows cross to the operator above
    /// (`shipped`), that share of them as exchange. Empty when the context
    /// runs on one node.
    fn per_node(
        &self,
        full: PhaseStats,
        shipped: Option<Card>,
        mut cached: Option<CachedReads>,
        asked: impl Fn(usize) -> bool,
    ) -> Vec<(usize, PhaseStats)> {
        let Some(cluster) = self.ctx.spread() else {
            return Vec::new();
        };
        let asked: Vec<(usize, &String, u64)> = (self.owners.iter().zip(&self.partition_keys))
            .enumerate()
            .filter(|(i, _)| asked(*i))
            .map(|(_, (&(node, size), key))| (node, key, size))
            .collect();
        let total_bytes: u64 = asked.iter().map(|(_, _, size)| size).sum();
        let mut ids: Vec<usize> = asked.iter().map(|(node, ..)| *node).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|k| {
                let owned: Vec<_> = asked.iter().filter(|(node, ..)| *node == k).collect();
                let owned_bytes: u64 = owned.iter().map(|(_, _, size)| size).sum();
                let frac = if total_bytes > 0 {
                    owned_bytes as f64 / total_bytes as f64
                } else {
                    0.0
                };
                let mut stats = full.scaled(frac);
                stats.requests = owned.len() as u64;
                if let Some(reads) = &mut cached {
                    // Chunks resident in the owning node's slice are free
                    // local reads (per tier); only the gaps bill, as range
                    // GETs. A fully cold partition prices as one GET of
                    // all of it.
                    let before = *reads;
                    let slice = &cluster.node(k).cache;
                    let mut mem_left = slice.as_ref().map_or(0, |c| c.config().mem_bytes);
                    for (_, key, size) in &owned {
                        reads.add(&match slice {
                            Some(c) => self.occupancy(c, key, *size, &mut mem_left),
                            None => ObjectOccupancy {
                                gap_bytes: *size,
                                gap_requests: 1,
                                ..Default::default()
                            },
                        });
                    }
                    reads.price_since(&before, &mut stats);
                    stats.cl_parse_bytes =
                        self.cl_bytes(stats.plain_bytes + stats.cache_bytes + stats.disk_bytes);
                }
                if let Some(card) = shipped {
                    stats.exchange_bytes = (card.rows * frac * card.row_bytes) as u64;
                }
                (k, stats)
            })
            .collect()
    }

    /// The pushed CASE-WHEN aggregation of `groups` groups: `aggs`
    /// aggregates per group, in statements chunked under the SQL size
    /// limit exactly as the executor chunks them ([`case_when_chunk`]).
    fn case_when_statements(&self, group_cols: &[String], aggs: usize, groups: f64) -> PhaseStats {
        let key_bytes: f64 = group_cols.iter().map(|c| self.col_width(c) + 24.0).sum();
        let chunk = case_when_chunk(self.ctx, aggs, key_bytes) as f64;
        let statements = (groups / chunk).ceil().max(1.0);
        let per_stmt_groups = (groups / statements).ceil();
        PhaseStats {
            requests: (statements * self.parts as f64) as u64,
            s3_scanned_bytes: (statements * self.bytes) as u64,
            select_returned_bytes: (statements
                * self.parts as f64
                * (per_stmt_groups * aggs as f64 * AGG_VALUE_WIDTH + 1.0))
                as u64,
            server_cpu_units: (statements * self.parts as f64) as u64,
            // Each (group, aggregate) item contributes a CASE arm plus the
            // group-equality comparison(s).
            expr_terms: (per_stmt_groups * aggs as f64 * (2.0 + group_cols.len() as f64)) as u32,
            ..Default::default()
        }
    }
}

/// One partition as the segment cache sees it: its key, its stored size,
/// and the cache that would hold it with the node that cache belongs to
/// — the owning node's slice on a cluster, the store's cache (node 0)
/// otherwise.
struct Slot<'e> {
    key: &'e str,
    size: u64,
    node: usize,
    cache: Option<SegmentCache>,
}

/// What cached reads of some partitions come to, summed as they are
/// priced. A partition whose footer is resident is read at `share` of
/// its occupancy per tier, its gap in one range GET — a ColumnarLite
/// leaf's footer and chunks ([`Estimator::cached_reads`]); any other, or
/// any with no share, is read whole, one GET per gap run (a cold
/// partition: one GET of all of it).
#[derive(Debug, Clone, Copy, Default)]
struct CachedReads {
    share: Option<f64>,
    requests: u64,
    mem: f64,
    disk: f64,
    gap: f64,
}

impl CachedReads {
    /// Add the read of a partition that finds `occ`.
    fn add(&mut self, occ: &ObjectOccupancy) {
        let (share, requests) = match self.share {
            Some(share) if occ.trailer_resident => (share, occ.gap_requests.min(1)),
            _ => (1.0, occ.gap_requests),
        };
        self.requests += requests;
        self.mem += occ.mem_bytes as f64 * share;
        self.disk += occ.disk_bytes as f64 * share;
        self.gap += occ.gap_bytes as f64 * share;
    }

    /// Write what the reads added since `before` (the same sums, fewer
    /// partitions in them) into `stats`' requests and per-tier bytes.
    /// Each tier's sum is rounded as a whole, so the shares of a table
    /// split by node add up to what the table reads, and a warm table's
    /// reads come out at exactly the bytes its footers and needed chunks
    /// hold.
    fn price_since(&self, before: &CachedReads, stats: &mut PhaseStats) {
        let bytes = |r: &CachedReads| [r.mem, r.disk, r.gap].map(|b| b.round() as u64);
        let ([mem, disk, gap], [mem0, disk0, gap0]) = (bytes(self), bytes(before));
        stats.requests = self.requests - before.requests;
        stats.cache_bytes = mem - mem0;
        stats.disk_bytes = disk - disk0;
        stats.plain_bytes = gap - gap0;
    }
}

/// The estimators one query's pricing walks share: one [`Estimator`] per
/// distinct table under its candidate plans, built once.
#[derive(Clone)]
pub struct Estimators<'a> {
    ctx: &'a QueryContext,
    tables: Vec<Estimator<'a>>,
}

impl<'a> Estimators<'a> {
    /// Snapshot every table a leaf of `plans` reads.
    pub fn new(ctx: &'a QueryContext, plans: impl IntoIterator<Item = &'a PlanNode>) -> Self {
        let mut ests = Estimators {
            ctx,
            tables: Vec::new(),
        };
        for (table, _) in plans.into_iter().flat_map(PlanNode::reads) {
            if ests.find(table).is_none() {
                ests.tables.push(Estimator::new(ctx, table));
            }
        }
        ests
    }

    fn find(&self, table: &Table) -> Option<&Estimator<'a>> {
        self.tables.iter().find(|e| e.table.same(table))
    }

    /// The estimator of a table some leaf of the snapshotted plans reads.
    fn of(&self, table: &Table) -> &Estimator<'a> {
        self.find(table)
            .expect("every leaf's table was snapshotted with the query's plans")
    }

    /// The same snapshot, pricing a cached read of `table` as if the
    /// table were resident: per cache, its partitions fill the mem tier
    /// up to the mem budget and the disk tier for the rest, whatever
    /// the cache holds now. Every other table still prices from live
    /// occupancy.
    pub fn as_if_resident(&self, table: &Table) -> Estimators<'a> {
        let mut ests = self.clone();
        if let Some(e) = ests.tables.iter_mut().find(|e| e.table.same(table)) {
            e.resident = true;
        }
        ests
    }

    /// Whether a fill of `table` could stay: on some node (the one node,
    /// serially) the partitions of it that node owns fit its cache's whole
    /// budget, mem and disk. False without a cache.
    ///
    /// # Errors
    ///
    /// A partition in the snapshot has vanished.
    pub(crate) fn keeps(&self, table: &Table) -> Result<bool> {
        Ok(!self.of(table).keepable()?.is_empty())
    }

    /// The rent accrued by the partitions of `table` a cached read would
    /// fill — those with bytes not resident in the cache that would hold
    /// them: what a candidate filling them is credited
    /// ([`pushdown_cache::SegmentCache::rent`]).
    ///
    /// # Errors
    ///
    /// A partition in the snapshot has vanished.
    pub(crate) fn credit(&self, table: &Table) -> Result<f64> {
        let est = self.of(table);
        let mut rent = 0.0;
        for Slot {
            key, size, cache, ..
        } in est.slots()?
        {
            let Some(cache) = cache else { continue };
            if est.live_occupancy(&cache, key, size).gap_bytes > 0 {
                rent += cache.rent(&table.bucket, key);
            }
        }
        Ok(rent)
    }

    /// Accrue `dollars` of rent on the partitions of `table` a fill could
    /// keep ([`Estimators::keeps`]), split by their bytes, each through
    /// its cache's ordered apply path.
    ///
    /// # Errors
    ///
    /// A partition in the snapshot has vanished.
    pub(crate) fn accrue_rent(&self, table: &Table, dollars: f64) -> Result<()> {
        let keep = self.of(table).keepable()?;
        let total: u64 = keep.iter().map(|s| s.size).sum();
        for Slot {
            key, size, cache, ..
        } in keep
        {
            let access = Access::Rent {
                bucket: table.bucket.clone(),
                key: key.to_string(),
                dollars: dollars * size as f64 / total.max(1) as f64,
            };
            cache.expect("a kept partition has a cache").apply([access]);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// whole-plan pricing (the physical-plan IR)
// ---------------------------------------------------------------------

/// Prediction for a whole physical plan: a [`QueryMetrics`] whose group
/// structure is what execution will record — priced by the *same*
/// `PerfModel`/`Pricing` as measurements, like every other estimate in
/// this module — and the per-operator report tree execution will
/// return, each node's predicted footprint its `actual`, which the
/// planner zips against the executed one ([`crate::plan::annotate`]).
#[derive(Debug, Clone)]
pub struct PlanPrediction {
    pub metrics: QueryMetrics,
    pub report: OpReport,
}

/// Estimated cardinality flowing out of a node.
#[derive(Debug, Clone, Copy)]
struct Card {
    rows: f64,
    row_bytes: f64,
}

/// Price a whole physical plan by summing per-operator [`PhaseStats`]:
/// scan leaves from per-table statistics, joins by key-containment,
/// group-bys by NDV products, local operators by their CPU charge,
/// staged operators by the estimated outcome of the SQL they write. `ests` must hold
/// the plan's tables ([`Estimators::new`] over the query's candidates).
///
/// # Errors
///
/// A partition listed in a table's snapshot has vanished from under a
/// cached leaf, or a staged operator has no pushed scan under its first
/// child.
pub fn predict_plan(ests: &Estimators<'_>, node: &PlanNode) -> Result<PlanPrediction> {
    let (Outcome { metrics, report }, _) = predict_node(ests, node, WHOLE)?;
    Ok(PlanPrediction { metrics, report })
}

/// The estimator of whichever snapshotted table carries column `name`.
fn owner<'e, 'a>(ests: &'e Estimators<'a>, name: &str) -> Option<&'e Estimator<'a>> {
    ests.tables
        .iter()
        .find(|e| e.table.schema.index_of(name).is_some())
}

/// NDV of `name` in whichever leaf table carries it (row count when no
/// statistics are attached; 1 when the column is unknown).
fn col_ndv(ests: &Estimators<'_>, name: &str) -> f64 {
    owner(ests, name).map_or(1.0, |e| e.ndv(name))
}

/// Mean CSV width of `name` in its leaf table (a generic value width for
/// computed expressions).
fn col_width_in(ests: &Estimators<'_>, name: &str) -> f64 {
    owner(ests, name)
        .and_then(|e| e.stats()?.column(e.table.schema.index_of(name)?))
        .map_or(AGG_VALUE_WIDTH, |c| c.avg_width)
}

/// Join output cardinality under key containment: `|L ⋈ R| ≈
/// |L|·|R| / max(ndv(lk), ndv(rk))`, with each NDV capped by its side's
/// row estimate.
fn join_out_rows(ests: &Estimators<'_>, l_rows: f64, r_rows: f64, lk: &str, rk: &str) -> f64 {
    let nl = col_ndv(ests, lk).min(l_rows.max(1.0));
    let nr = col_ndv(ests, rk).min(r_rows.max(1.0));
    (l_rows * r_rows / nl.max(nr).max(1.0)).max(0.0)
}

fn cpu_phase(units: f64) -> PhaseStats {
    PhaseStats {
        server_cpu_units: units.max(0.0) as u64,
        ..Default::default()
    }
}

/// A grouping operator's finish, priced ([`Order::priced`]): its CPU
/// merges into `stats`, and `card` keeps the rows the order hands on.
fn finish_groups(order: &Option<Order>, stats: &mut PhaseStats, card: &mut Card) {
    if let Some(order) = order {
        let (work, rows) = order.priced(card.rows);
        stats.merge(&cpu_phase(work));
        card.rows = rows;
    }
}

impl Estimator<'_> {
    /// Predicted footprint of one scan leaf reading from `source`, what
    /// it emits, and its footprint per node it runs on
    /// ([`Estimator::per_node`]).
    ///
    /// * A GET is a plain load that evaluates the predicate on every row.
    /// * A cache read is the same load priced per segment per tier
    ///   ([`Estimator::cached_load`]; on a cluster, each node's share
    ///   against its own slice): cached partitions are free, the cold
    ///   tail bills as read-through fills, and with no cache installed it
    ///   is exactly a GET. A snapshot gone stale mid-prediction is an
    ///   error, never a partition priced at zero.
    /// * A whole Select scan reads the table storage-side and returns
    ///   `inj.keep × selectivity` of its rows at the projection's width,
    ///   `inj.terms` added to the shipped predicate's term count (the
    ///   Bloom probe's hash terms).
    /// * A sample of `n` rows reads until it has them — `n / selectivity`
    ///   rows — and stops. A prefix touches partitions one after the
    ///   other until the sample fills, one phase; a striped sample asks
    ///   every partition with a share for it.
    fn scan(
        &self,
        predicate: &Option<Expr>,
        projection: &Option<Vec<String>>,
        source: ScanSource,
        inj: Injected,
    ) -> Result<(PhaseStats, Card, Nodes)> {
        let sel = self.selectivity(predicate.as_ref());
        let terms = predicate.as_ref().map_or(0, Expr::term_count);
        let width = self.projected_row_bytes(projection);
        let limit = match source {
            ScanSource::Plain | ScanSource::Cached => {
                let extra = if predicate.is_some() { self.rows } else { 0.0 };
                // A local leaf's rows are priced like a pushed
                // projection's, the whole row for `*`.
                let row_bytes = projection.as_ref().map_or(self.row_bytes, |_| width);
                let card = Card {
                    rows: sel * self.rows,
                    row_bytes,
                };
                let plain = self.plain_load(extra);
                let reads = (source == ScanSource::Cached)
                    .then(|| self.cached_reads(predicate, projection));
                let nodes = self.per_node(plain, Some(card), reads, |_| true);
                let stats = match reads {
                    Some(reads) if nodes.is_empty() => self.cached_load(extra, reads)?,
                    _ => plain,
                };
                return Ok((stats, card, nodes));
            }
            ScanSource::Select(None) => {
                let rows = sel * inj.keep * self.rows;
                let stats = self.select_full_scan(rows, width, terms + inj.terms);
                let card = Card {
                    rows,
                    row_bytes: width,
                };
                let nodes = self.per_node(stats, Some(card), None, |_| true);
                return Ok((stats, card, nodes));
            }
            ScanSource::Select(Some(limit)) => limit,
        };
        let (ScanLimit::Prefix(n) | ScanLimit::Striped(n)) = limit;
        let scanned_rows = (n as f64 / sel.max(1e-6)).min(self.rows);
        let card = Card {
            rows: n as f64,
            row_bytes: width,
        };
        let mut stats = PhaseStats {
            s3_scanned_bytes: (scanned_rows * self.row_bytes).min(self.bytes) as u64,
            select_returned_bytes: (card.rows * card.row_bytes) as u64,
            server_cpu_units: n as u64,
            expr_terms: terms,
            ..Default::default()
        };
        let nodes = match limit {
            ScanLimit::Prefix(_) => {
                let rows_per_part = (self.rows / self.parts as f64).max(1.0);
                stats.requests = (scanned_rows / rows_per_part).ceil().max(1.0) as u64;
                Vec::new()
            }
            ScanLimit::Striped(_) => {
                stats.requests = self.parts.min(n as u64);
                let parts = self.partition_keys.len();
                self.per_node(stats, None, None, |i| striped_share(n, parts, i) > 0)
            }
        };
        Ok((stats, card, nodes))
    }

    /// Predicted footprint of a pushed aggregate leaf: a full
    /// storage-side scan that returns one partial row per partition —
    /// per group, under §X's native `GROUP BY`.
    fn pushdown_aggregate(&self, stmt: &SelectStmt, group_by: &[String]) -> (PhaseStats, Card) {
        let is_agg = |i: &&SelectItem| matches!(i, SelectItem::Agg { .. });
        let aggs = stmt.items.iter().filter(is_agg).count() as f64;
        if !group_by.is_empty() {
            let groups = group_by.iter().map(|c| self.ndv(c)).product::<f64>();
            let groups = groups.min(self.rows).max(1.0);
            // Columns the statement touches: groups ∪ aggregate inputs.
            let mut refs = group_by.to_vec();
            for item in &stmt.items {
                if let SelectItem::Agg { arg: Some(a), .. } = item {
                    a.referenced_columns(&mut refs);
                }
            }
            let mut needed: Vec<String> = Vec::new();
            for c in refs {
                if !needed.iter().any(|x| x.eq_ignore_ascii_case(&c)) {
                    needed.push(c);
                }
            }
            let partials = self.parts as f64 * groups;
            let terms = stmt.where_clause.as_ref().map_or(0, Expr::term_count);
            let mut phase = self.select_full_scan(
                partials.min(self.rows),
                self.out_row_bytes(&needed),
                terms + group_by.len() as u32,
            );
            phase.server_cpu_units += partials as u64;
            let card = Card {
                rows: groups,
                row_bytes: self.out_row_bytes(group_by) + aggs * AGG_VALUE_WIDTH,
            };
            return (phase, card);
        }
        // AVG decomposes into SUM+COUNT per partition on the pushed path.
        let pushed_vals: f64 = stmt
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Agg {
                    func: AggFunc::Avg, ..
                } => 2.0,
                _ => 1.0,
            })
            .sum();
        let mut phase = self.select_full_scan(0.0, 0.0, stmt.term_count());
        // One partial row per partition: `pushed_vals` values wide.
        phase.select_returned_bytes =
            (self.parts as f64 * (pushed_vals * AGG_VALUE_WIDTH + 1.0)) as u64;
        phase.server_cpu_units = self.parts;
        let card = Card {
            rows: 1.0,
            row_bytes: stmt.items.len() as f64 * AGG_VALUE_WIDTH,
        };
        (phase, card)
    }
}

/// What the predicate a staged operator writes at run time is estimated
/// to do to the pushed scans under its second child: the fraction of the
/// otherwise matching rows it keeps, and the terms it adds to their
/// Select predicates.
#[derive(Debug, Clone, Copy)]
struct Injected {
    keep: f64,
    terms: u32,
}

/// No injected predicate: the scans run as lowered.
const WHOLE: Injected = Injected {
    keep: 1.0,
    terms: 0,
};

/// A subtree's predicted outcome, and the rows it hands on.
type Predicted = (Outcome, Card);

/// A leaf's footprint per node it runs on ([`Estimator::per_node`]).
type Nodes = Vec<(usize, PhaseStats)>;

/// One node of the walk. `inj` is what a staged operator above estimated
/// of its run-time predicate; it reaches every pushed scan below. The
/// node's estimated footprint and its children's outcomes compose as the
/// executor's measured ones do ([`compose`]).
fn predict_node(ests: &Estimators<'_>, node: &PlanNode, inj: Injected) -> Result<Predicted> {
    let walk = |i: usize, inj: Injected| predict_node(ests, &node.children[i], inj);
    let (own, children, card) = match &node.op {
        PlanOp::Scan {
            table,
            predicate,
            projection,
            source,
        } => {
            let (stats, card, nodes) = ests.of(table).scan(predicate, projection, *source, inj)?;
            (Own::Leaf(stats, nodes), Vec::new(), card)
        }
        PlanOp::PushdownAggregate {
            table,
            stmt,
            group_by,
            order,
        } => {
            let est = ests.of(table);
            let (mut stats, mut card) = est.pushdown_aggregate(stmt, group_by);
            finish_groups(order, &mut stats, &mut card);
            let nodes = est.per_node(stats, None, None, |_| true);
            (Own::Leaf(stats, nodes), Vec::new(), card)
        }
        PlanOp::HashJoin {
            build_key,
            probe_key,
        }
        | PlanOp::BloomJoin {
            build_key,
            probe_key,
            ..
        } => {
            let (build, bc) = walk(0, inj)?;
            // A Bloom join's probe scans gain the filter at the rate the
            // SQL limit leaves it (§V-B1), or none on a fallback:
            // containment says a `keep` fraction of otherwise matching
            // rows survives the storage-side filter.
            let (probe_inj, planned) = match &node.op {
                PlanOp::BloomJoin { fpr, .. } => {
                    let build_keys = bc.rows.min(col_ndv(ests, build_key));
                    let match_frac = (build_keys / col_ndv(ests, probe_key).max(1.0)).min(1.0);
                    let keys = (build_keys as usize).max(1);
                    let planned = crate::plan::bloom_builder(ests.ctx).plan(keys, *fpr, probe_key);
                    let bloom = match planned {
                        BloomPlan::AsRequested { fpr } | BloomPlan::Degraded { fpr, .. } => {
                            Injected {
                                keep: (match_frac + fpr * (1.0 - match_frac)).min(1.0),
                                terms: (1.0 / fpr).log2().ceil().max(1.0) as u32,
                            }
                        }
                        BloomPlan::Fallback => WHOLE,
                    };
                    (bloom, Some(planned))
                }
                _ => (inj, None),
            };
            let (probe, pc) = walk(1, probe_inj)?;
            let rows = join_out_rows(ests, bc.rows, pc.rows, build_key, probe_key);
            let row_bytes = bc.row_bytes + pc.row_bytes;
            let own = Own::Join(cpu_phase(bc.rows + pc.rows + rows), planned);
            (own, vec![build, probe], Card { rows, row_bytes })
        }
        PlanOp::LocalFilter { predicate } => {
            let sel = selectivity(predicate, &node.children[0].schema, None);
            let (child, cc) = walk(0, inj)?;
            let card = Card {
                rows: sel * cc.rows,
                ..cc
            };
            (Own::Stats(cpu_phase(cc.rows)), vec![child], card)
        }
        PlanOp::Project { exprs } => {
            let width: f64 = exprs
                .iter()
                .map(|e| match e {
                    Expr::Column(name) => col_width_in(ests, name),
                    _ => AGG_VALUE_WIDTH,
                })
                .sum::<f64>()
                + exprs.len() as f64;
            let (child, cc) = walk(0, inj)?;
            let card = Card {
                rows: cc.rows,
                row_bytes: width,
            };
            (Own::Stats(cpu_phase(cc.rows)), vec![child], card)
        }
        PlanOp::GroupBy {
            group_width,
            aggs,
            order,
        } => {
            let (child, cc) = walk(0, inj)?;
            // Group count: NDV product over the group keys — the
            // expressions of the Project the planner places below, or,
            // where the input already delivers what the group-by consumes
            // and there is none, its leading columns.
            let input = &node.children[0];
            let groups = match &input.op {
                PlanOp::Project { exprs } => exprs[..*group_width]
                    .iter()
                    .map(|e| match e {
                        Expr::Column(name) => col_ndv(ests, name),
                        _ => cc.rows.sqrt().max(1.0),
                    })
                    .product::<f64>(),
                _ => input.schema.names()[..*group_width]
                    .iter()
                    .map(|name| col_ndv(ests, name))
                    .product(),
            }
            .min(cc.rows)
            .max(1.0);
            let mut card = Card {
                rows: groups,
                row_bytes: cc.row_bytes + aggs.len() as f64 * AGG_VALUE_WIDTH,
            };
            let work = cc.rows + groups;
            let mut stats = cpu_phase(work);
            let Some(cluster) = ests.ctx.spread() else {
                finish_groups(order, &mut stats, &mut card);
                return Ok((
                    compose(ests.ctx, node, Own::Stats(stats), vec![child])?,
                    card,
                ));
            };
            // On a cluster, as the executor runs it: the rows shuffle to
            // their group's node — the expected cross-node share of their
            // serialized volume — every node aggregates its share side by
            // side, then the groups merge back into key order.
            let n = cluster.n() as f64;
            let shuffled = cc.rows * cc.row_bytes * (n - 1.0) / n;
            let share = PhaseStats {
                exchange_bytes: (shuffled / n) as u64,
                ..cpu_phase(work / n)
            };
            let mut merge = cpu_phase(groups * groups.log2().max(1.0));
            finish_groups(order, &mut merge, &mut card);
            stats.exchange_bytes = shuffled as u64;
            stats.merge(&merge);
            let own = Own::Partitioned(stats, vec![share; cluster.n()], merge);
            (own, vec![child], card)
        }
        PlanOp::Aggregate { aggs } => {
            let (child, cc) = walk(0, inj)?;
            let card = Card {
                rows: 1.0,
                row_bytes: aggs.len() as f64 * AGG_VALUE_WIDTH,
            };
            let own = Own::Stats(cpu_phase(cc.rows * aggs.len().max(1) as f64));
            (own, vec![child], card)
        }
        PlanOp::Sort(order) => {
            let (child, cc) = walk(0, inj)?;
            let (work, rows) = order.priced(cc.rows);
            (
                Own::Stats(cpu_phase(work)),
                vec![child],
                Card { rows, ..cc },
            )
        }
        PlanOp::Limit { n } => {
            let (child, cc) = walk(0, inj)?;
            let card = Card {
                rows: cc.rows.min(*n as f64),
                ..cc
            };
            (Own::Stats(PhaseStats::default()), vec![child], card)
        }
        PlanOp::Threshold {
            column,
            asc,
            k,
            catalog,
        } => {
            let scan_node = node.children.last().expect("a threshold has a scan");
            let (table, ..) = scan_node.pushdown_leaf()?;
            let rows = ests.of(table).rows;
            let (mut own, mut children) = (PhaseStats::default(), Vec::new());
            let threshold = match catalog {
                // The catalog's tails count the rows at or before `t`.
                Some(t) => {
                    let through = table.rows_through(column, *asc, t);
                    // Written for the table without its statistics, as the
                    // executor writes it.
                    let mut blind = table.clone();
                    blind.stats = None;
                    let pred = threshold_predicate(&blind, column, *asc, t);
                    Injected {
                        keep: through.map_or(1.0, |n| (n as f64 / rows).min(1.0)),
                        terms: pred.map_or(0, |p| p.term_count()),
                    }
                }
                None => {
                    let (sample, sc) = walk(0, inj)?;
                    let (s, k) = (sc.rows, *k as f64);
                    own = cpu_phase(s);
                    children.push(sample);
                    // Threshold = K-th order statistic of the sample ⇒ the
                    // scan matches ≈ K/(S+1) of the table (plus the K
                    // themselves).
                    Injected {
                        keep: ((rows * k / (s + 1.0) + k) / rows).min(1.0),
                        terms: 1,
                    }
                }
            };
            let (scan, card) = predict_node(ests, scan_node, threshold)?;
            children.push(scan);
            (Own::Threshold(own, false), children, card)
        }
        PlanOp::CaseWhen { aggs, order } => {
            let (table, _, group_cols) = node.children[0].pushdown_leaf()?;
            let (distinct, dc) = walk(0, inj)?;
            let est = ests.of(table);
            let mut stats = est.case_when_statements(group_cols, aggs.len(), dc.rows);
            let mut card = Card {
                rows: dc.rows,
                row_bytes: est.out_row_bytes(group_cols) + aggs.len() as f64 * AGG_VALUE_WIDTH,
            };
            finish_groups(order, &mut stats, &mut card);
            (Own::Stats(stats), vec![distinct], card)
        }
        PlanOp::HybridSplit {
            aggs,
            dictionary,
            force,
            order,
        } => {
            let (table, _, group_cols) = hybrid_leaf(node)?;
            let tail_node = node.children.last().expect("a hybrid split has a tail");
            let est = ests.of(table);
            // The sample and the split, unless the catalog decides it.
            let (mut own, mut children) = (PhaseStats::default(), Vec::new());
            if dictionary.is_none() {
                let (sample, sc) = walk(0, inj)?;
                own = cpu_phase(sc.rows);
                children.push(sample);
            }
            let groups = group_cols.iter().map(|c| est.ndv(c)).product::<f64>();
            let groups = groups.min(est.rows).max(1.0);
            // How many groups go to S3 and what share of the rows they
            // hold: the dictionary says; a sample is priced under a
            // uniform-share assumption — every group holds ~1/G of it, so
            // either all of the top `HYBRID_MAX_S3_GROUPS` qualify or none
            // does.
            let (n_big, share) = match dictionary {
                Some(counts) => {
                    let big = populous(counts.clone(), *force);
                    let rows: u64 = big.iter().map(|(_, n)| n).sum();
                    (big.len() as f64, rows as f64 / est.rows)
                }
                None => {
                    let n_big = match force {
                        Some(n) => (*n as f64).min(groups),
                        None if 1.0 / groups >= HYBRID_MIN_SHARE => {
                            groups.min(HYBRID_MAX_S3_GROUPS as f64)
                        }
                        None => 0.0,
                    };
                    (n_big, n_big / groups)
                }
            };
            if n_big == 0.0 {
                let (tail, card) = predict_node(ests, &finished_by(tail_node, order), WHOLE)?;
                children.push(tail);
                (Own::Split(own, None), children, card)
            } else {
                let not_in = Injected {
                    keep: (1.0 - share).max(0.0),
                    terms: n_big as u32 + 1,
                };
                let (tail, mut card) = predict_node(ests, tail_node, not_in)?;
                children.push(tail);
                // Groups listed by the catalog count their rows too.
                let pushed = dictionary
                    .as_ref()
                    .map_or(aggs.len(), |_| counted_aggs(aggs).0.len());
                let mut s3 = est.case_when_statements(group_cols, pushed, n_big);
                card.rows = groups;
                finish_groups(order, &mut s3, &mut card);
                (Own::Split(own, Some(s3)), children, card)
            }
        }
    };
    Ok((compose(ests.ctx, node, own, children)?, card))
}

// ---------------------------------------------------------------------
// selectivity estimation
// ---------------------------------------------------------------------

/// Estimate the fraction of rows satisfying `pred`, using per-column
/// statistics where available. Conjunctions multiply (independence),
/// disjunctions use inclusion–exclusion, comparisons against literals
/// assume a uniform distribution over `[min, max]`, equality uses
/// `1/NDV`. Shapes outside the model fall back to a default
/// (`DEFAULT_SELECTIVITY`, 0.33).
pub fn selectivity(pred: &Expr, schema: &Schema, stats: Option<&TableStats>) -> f64 {
    let s = sel_inner(pred, schema, stats);
    s.clamp(0.0, 1.0)
}

fn sel_inner(pred: &Expr, schema: &Schema, stats: Option<&TableStats>) -> f64 {
    match pred {
        Expr::Literal(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Literal(Value::Null) => 0.0,
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => match range_pairs(pred, schema, stats) {
            Some(s) => s,
            None => sel_inner(left, schema, stats) * sel_inner(right, schema, stats),
        },
        Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        } => {
            let a = sel_inner(left, schema, stats);
            let b = sel_inner(right, schema, stats);
            a + b - a * b
        }
        Expr::Binary { .. } => match pred.column_vs_literal() {
            Some((c, op, v)) => cmp_sel(c, op, v, schema, stats),
            None => DEFAULT_SELECTIVITY,
        },
        Expr::Unary {
            op: pushdown_sql::ast::UnOp::Not,
            expr,
        } => 1.0 - sel_inner(expr, schema, stats),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let s = match (&**expr, &**low, &**high) {
                (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) => {
                    let a = cmp_sel(c, BinOp::GtEq, lo, schema, stats);
                    let b = cmp_sel(c, BinOp::LtEq, hi, schema, stats);
                    (a + b - 1.0).max(0.0)
                }
                _ => DEFAULT_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let s = match &**expr {
                Expr::Column(c) => list
                    .iter()
                    .map(|e| match e {
                        Expr::Literal(v) => cmp_sel(c, BinOp::Eq, v, schema, stats),
                        _ => DEFAULT_SELECTIVITY / list.len() as f64,
                    })
                    .sum::<f64>()
                    .min(1.0),
                _ => DEFAULT_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::IsNull { expr, negated } => {
            let frac = match &**expr {
                Expr::Column(c) => column_stats(c, schema, stats)
                    .map(|cs| cs.null_fraction)
                    .unwrap_or(0.05),
                _ => 0.05,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        Expr::Like { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// One conjunct bounding a column with statistics from below (`true`) or
/// above against a numeric literal, and its selectivity: a range bound
/// [`cmp_sel`] interpolates.
fn range_bound<'e>(
    conjunct: &'e Expr,
    schema: &Schema,
    stats: Option<&TableStats>,
) -> Option<(&'e str, bool, f64)> {
    let (col, op, lit) = conjunct.column_vs_literal()?;
    let lower = match op {
        BinOp::Gt | BinOp::GtEq => true,
        BinOp::Lt | BinOp::LtEq => false,
        _ => return None,
    };
    let cs = column_stats(col, schema, stats)?;
    numeric(&cs.min).and(numeric(&cs.max)).and(numeric(lit))?;
    Some((col, lower, cmp_sel(col, op, lit, schema, stats)))
}

/// Selectivity of an AND chain holding a lower and an upper bound on the
/// same column: each such pair selects a range, priced as `BETWEEN` is —
/// `(a + b − 1).max(0)`, not `a · b` —, every other conjunct multiplies.
/// `None` when the chain pairs no bounds (it is priced conjunct by
/// conjunct, as before).
fn range_pairs(pred: &Expr, schema: &Schema, stats: Option<&TableStats>) -> Option<f64> {
    let mut open = Vec::<(&str, bool, f64)>::new();
    let (mut s, mut paired) = (1.0, false);
    for c in pred.conjuncts() {
        let Some((col, lower, b)) = range_bound(c, schema, stats) else {
            s *= sel_inner(c, schema, stats);
            continue;
        };
        let opposite = |o: &(&str, bool, f64)| o.0.eq_ignore_ascii_case(col) && o.1 != lower;
        let opposite = open.iter().position(opposite);
        match opposite {
            Some(i) => {
                s *= (open.swap_remove(i).2 + b - 1.0).max(0.0);
                paired = true;
            }
            None => open.push((col, lower, b)),
        }
    }
    paired.then(|| open.iter().fold(s, |s, o| s * o.2))
}

fn column_stats<'s>(
    name: &str,
    schema: &Schema,
    stats: Option<&'s TableStats>,
) -> Option<&'s ColumnStats> {
    let idx = schema.resolve(name).ok()?;
    stats?.column(idx)
}

/// Numeric view of a value for range interpolation (dates count as
/// day numbers, matching their comparison order).
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Date(d) => Some(*d as f64),
        _ => None,
    }
}

/// Selectivity of `col op literal`.
fn cmp_sel(col: &str, op: BinOp, lit: &Value, schema: &Schema, stats: Option<&TableStats>) -> f64 {
    let Some(cs) = column_stats(col, schema, stats) else {
        return match op {
            BinOp::Eq => 0.05,
            BinOp::NotEq => 0.95,
            _ => DEFAULT_SELECTIVITY,
        };
    };
    let non_null = 1.0 - cs.null_fraction;
    match op {
        BinOp::Eq => non_null / (cs.ndv.max(1) as f64),
        BinOp::NotEq => non_null * (1.0 - 1.0 / (cs.ndv.max(1) as f64)),
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let (Some(lo), Some(hi), Some(x)) = (numeric(&cs.min), numeric(&cs.max), numeric(lit))
            else {
                // Non-numeric range (strings): fall back.
                return non_null * DEFAULT_SELECTIVITY;
            };
            if hi <= lo {
                // Single-valued column: compare directly.
                let matched = match op {
                    BinOp::Lt => lo < x,
                    BinOp::LtEq => lo <= x,
                    BinOp::Gt => lo > x,
                    BinOp::GtEq => lo >= x,
                    _ => unreachable!(),
                };
                return if matched { non_null } else { 0.0 };
            }
            let frac = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
            let below = match op {
                BinOp::Lt | BinOp::LtEq => frac,
                _ => 1.0 - frac,
            };
            non_null * below
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use pushdown_common::{DataType, Row};
    use pushdown_s3::S3Store;
    use pushdown_sql::parse_expr;

    /// Uniform table: k = 0..n (unique), v = k % 100 (100 distinct),
    /// s = one of 4 strings, plus a NULL-heavy column.
    fn setup(n: i64) -> (QueryContext, Table) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("s", DataType::Str),
            ("maybe", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Float((i % 100) as f64),
                    Value::Str(format!("tag-{}", i % 4)),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 10)
                    },
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 250).unwrap();
        (QueryContext::new(store), t)
    }

    fn sel(t: &Table, pred: &str) -> f64 {
        selectivity(&parse_expr(pred).unwrap(), &t.schema, t.stats.as_deref())
    }

    #[test]
    fn selectivity_from_statistics() {
        let (_, t) = setup(1000);
        // Uniform range interpolation.
        assert!((sel(&t, "k < 500") - 0.5).abs() < 0.05);
        assert!((sel(&t, "k >= 900") - 0.1).abs() < 0.05);
        assert!(
            (sel(&t, "500 > k") - 0.5).abs() < 0.05,
            "flipped operand order"
        );
        // Equality via NDV.
        assert!((sel(&t, "k = 7") - 0.001).abs() < 1e-4);
        assert!((sel(&t, "s = 'tag-1'") - 0.25).abs() < 0.01);
        // Conjunction multiplies; disjunction via inclusion-exclusion.
        assert!((sel(&t, "k < 500 AND v < 50") - 0.25).abs() < 0.05);
        assert!((sel(&t, "k < 500 OR k >= 500") - 0.75).abs() < 0.06);
        // BETWEEN and IN.
        assert!((sel(&t, "k BETWEEN 100 AND 299") - 0.2).abs() < 0.05);
        assert!((sel(&t, "v IN (1, 2, 3)") - 0.03).abs() < 0.01);
        // NULL fraction.
        assert!((sel(&t, "maybe IS NULL") - 0.2).abs() < 0.01);
        assert!((sel(&t, "maybe IS NOT NULL") - 0.8).abs() < 0.01);
        // Out-of-range literals clamp.
        assert_eq!(sel(&t, "k < -5"), 0.0);
        assert!((sel(&t, "k >= -5") - 1.0).abs() < 1e-9);
    }

    /// A lower and an upper bound on one column in one AND chain select a
    /// range, as `BETWEEN` does; they used to multiply as if independent
    /// (`k >= 100 AND k < 300` priced at 0.9 · 0.3 = 0.27).
    #[test]
    fn range_pairs_price_like_between() {
        let (_, t) = setup(1000);
        let between = sel(&t, "k BETWEEN 100 AND 299");
        assert!((sel(&t, "k >= 100 AND k < 300") - between).abs() < 0.01);
        assert!((sel(&t, "300 > k AND k >= 100") - between).abs() < 0.01);
        // Other conjuncts still multiply, wherever they sit in the chain.
        let with_v = sel(&t, "v < 50 AND k >= 100 AND s = 'tag-1' AND k < 300");
        assert!((with_v - 0.2 * 0.5 * 0.25).abs() < 0.01, "{with_v}");
        // Disjoint bounds select nothing; two bounds on different columns
        // or in one direction are not a range.
        assert_eq!(sel(&t, "k >= 600 AND k < 300"), 0.0);
        assert!((sel(&t, "k < 500 AND v < 50") - 0.25).abs() < 0.05);
        assert!((sel(&t, "k >= 100 AND k >= 500") - 0.45).abs() < 0.05);
        // Without statistics nothing pairs: DEFAULT² stays DEFAULT².
        let mut bare = t.clone();
        bare.stats = None;
        let d = DEFAULT_SELECTIVITY;
        assert_eq!(sel(&bare, "k >= 100 AND k < 300"), d * d);
    }

    #[test]
    fn selectivity_defaults_without_statistics() {
        let (_, mut t) = setup(100);
        t.stats = None;
        assert_eq!(sel(&t, "k < 50"), DEFAULT_SELECTIVITY);
        assert_eq!(sel(&t, "k = 5"), 0.05);
    }

    /// Lower `sql` the way the planner does and price every candidate
    /// with the one walker, over one snapshot.
    fn priced(ctx: &QueryContext, t: &Table, sql: &str) -> Vec<(&'static str, PlanPrediction)> {
        let spec = pushdown_sql::parse_query(sql).unwrap();
        let (_, candidates) = crate::planner::lower(ctx, t, &spec).unwrap();
        let ests = Estimators::new(ctx, candidates.iter().map(|(_, plan)| plan));
        candidates
            .iter()
            .map(|(name, plan)| (*name, predict_plan(&ests, plan).unwrap()))
            .collect()
    }

    fn names(cands: &[(&'static str, PlanPrediction)]) -> Vec<&'static str> {
        cands.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn filter_candidates_have_the_right_shapes() {
        let (ctx, t) = setup(1000);
        let cands = priced(&ctx, &t, "SELECT k FROM t WHERE k < 10");
        assert_eq!(cands.len(), 2);
        let usage = |name: &str| {
            let (_, p) = cands.iter().find(|(n, _)| *n == name).unwrap();
            p.metrics.usage()
        };
        let (server, s3) = (usage("server-side"), usage("s3-side"));
        let bytes = t.total_bytes(&ctx.store);
        // Server loads everything as plain bytes; S3 scans everything and
        // returns only the matches.
        assert_eq!(server.plain_bytes, bytes);
        assert_eq!(server.select_scanned_bytes, 0);
        assert_eq!(s3.select_scanned_bytes, bytes);
        assert!(s3.select_returned_bytes < bytes / 20);
    }

    #[test]
    fn stale_partition_snapshot_errors_instead_of_pricing_zero() {
        let (ctx, t) = setup(1000);
        let ctx = ctx.with_cache(1 << 30);
        let spec = pushdown_sql::parse_query("SELECT * FROM t WHERE k < 10").unwrap();
        let (_, candidates) = crate::planner::lower(&ctx, &t, &spec).unwrap();
        let ests = Estimators::new(&ctx, candidates.iter().map(|(_, plan)| plan));
        // Sanity: with the snapshot intact the cached candidate exists
        // and prices.
        let (name, cached) = &candidates[0];
        assert_eq!(*name, "cached-local");
        predict_plan(&ests, cached).unwrap();

        // Delete a partition out from under the estimator's snapshot.
        // Pricing must fail loudly — the old path priced the vanished
        // object as 0 bytes, making cached-local look arbitrarily cheap.
        let victim = t.partitions(&ctx.store)[0].clone();
        assert!(ctx.store.delete_object(&t.bucket, &victim));
        let err = predict_plan(&ests, cached).unwrap_err();
        assert!(
            err.to_string().contains(&victim),
            "error should name the missing partition: {err}"
        );
    }

    #[test]
    fn groupby_candidates_respect_applicability() {
        let (ctx, t) = setup(1000);
        let one = "SELECT s, SUM(v) FROM t GROUP BY s";
        assert_eq!(
            names(&priced(&ctx, &t, one)),
            vec!["server-side", "filtered", "s3-side", "hybrid"]
        );
        // Multi-column grouping: hybrid is not applicable.
        let two = "SELECT s, maybe, SUM(v) FROM t GROUP BY s, maybe";
        assert!(!names(&priced(&ctx, &t, two)).contains(&"hybrid"));
        // No aggregate, no CASE-WHEN statement to push.
        assert_eq!(
            names(&priced(&ctx, &t, "SELECT s FROM t GROUP BY s")),
            vec!["server-side", "filtered"]
        );
        // The §X native variant joins only under the extended engine.
        let mut ext = ctx.clone();
        ext.engine = ext
            .engine
            .clone()
            .with_extensions(pushdown_select::EngineExtensions {
                native_group_by: true,
                ..Default::default()
            });
        assert!(names(&priced(&ext, &t, one)).contains(&"s3-native"));
    }

    #[test]
    fn join_candidates_gate_bloom_on_integer_keys() {
        let (ctx, t) = setup(500);
        let schema = Schema::from_pairs(&[("k2", DataType::Int), ("s2", DataType::Str)]);
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("tag-{}", i % 4))]))
            .collect();
        let u = upload_csv_table(&ctx.store, "b", "u", &schema, &rows, 25).unwrap();
        let ctx = ctx.with_tables([u]);
        let names = |on: &str| -> Vec<&'static str> {
            let sql = format!("SELECT k, s2 FROM t JOIN u ON {on} WHERE v < 10");
            let spec = pushdown_sql::parse_query(&sql).unwrap();
            let lowered = crate::joinplan::lower_candidates(&ctx, &t, &spec).unwrap();
            lowered.into_iter().map(|(name, _)| name).collect()
        };
        let unfiltered = vec!["baseline", "filtered", "build-push", "probe-push"];
        let mut with_bloom = unfiltered.clone();
        with_bloom.push("bloom");
        assert_eq!(names("k = k2"), with_bloom);
        assert_eq!(names("s = s2"), unfiltered, "no bloom over string keys");
        // Mixed keys: the probe predicate CASTs the *probe* key to INT,
        // so an integer build side is not enough.
        assert_eq!(
            names("k = s2"),
            unfiltered,
            "no bloom when only the build key is an integer"
        );
    }

    /// A Bloom probe is priced at the rate §V-B1 leaves it under the SQL
    /// limit — degraded, or no filter at all — and named for it, as the
    /// executor names it: 50 build keys against 500 probe rows, a tenth of
    /// which match.
    #[test]
    fn bloom_probe_is_priced_at_the_rate_the_sql_limit_leaves() {
        let (ctx, t) = setup(500);
        let schema = Schema::from_pairs(&[("k2", DataType::Int)]);
        let rows: Vec<Row> = (0..50).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let u = upload_csv_table(&ctx.store, "b", "u", &schema, &rows, 25).unwrap();
        let mut ctx = ctx.with_tables([t]);
        let sql = "SELECT k2, v FROM u JOIN t ON k2 = k";
        // The phase whose scan — `select t`, `bloom probe … t` — reads `t`.
        let of_t = |m: &QueryMetrics| {
            let mut phases = m.groups.iter().flat_map(|g| &g.phases);
            let scans_t = |p: &&crate::metrics::Phase| {
                p.label
                    .split(" + ")
                    .next()
                    .is_some_and(|scan| scan.ends_with(" t"))
            };
            phases.find(scans_t).expect("a phase scans t").clone()
        };
        let probe = |ctx: &QueryContext, name: &str| {
            let cands = priced(ctx, &u, sql);
            let (_, plan) = cands.iter().find(|(n, _)| *n == name).unwrap();
            of_t(&plan.metrics)
        };
        let executed = |ctx: &QueryContext| {
            let out = crate::planner::run_candidate(ctx, &u, sql, "bloom", None).unwrap();
            of_t(&out.metrics).label
        };
        let keep = |p: &crate::metrics::Phase| p.stats.select_returned_bytes as f64;
        let unfiltered = probe(&ctx, "filtered");
        // 0.01 fits: seven hash terms, a tenth of the rows and 1 % of
        // the rest come back.
        let requested = probe(&ctx, "bloom");
        assert!(
            requested.label.starts_with("bloom probe t"),
            "{}",
            requested.label
        );
        assert_eq!(requested.stats.expr_terms, 7);
        let ratio = keep(&requested) / keep(&unfiltered);
        assert!((ratio - (0.1 + 0.01 * 0.9)).abs() < 0.01, "{ratio}");
        // 0.01 does not fit, 0.04 does: five terms, 4 % of the rest.
        ctx.bloom.max_sql_bytes = 2_500;
        let degraded = probe(&ctx, "bloom");
        assert!(
            degraded.label.contains("degraded to 0.04"),
            "{}",
            degraded.label
        );
        assert_eq!(executed(&ctx), degraded.label);
        assert_eq!(degraded.stats.expr_terms, 5);
        let ratio = keep(&degraded) / keep(&unfiltered);
        assert!((ratio - (0.1 + 0.04 * 0.9)).abs() < 0.01, "{ratio}");
        // Nothing fits: the probe is the filtered join's scan.
        ctx.bloom.max_sql_bytes = 100;
        let fallback = probe(&ctx, "bloom");
        assert!(
            fallback.label.starts_with("fallback probe"),
            "{}",
            fallback.label
        );
        assert_eq!(executed(&ctx), fallback.label);
        assert_eq!(fallback.stats.expr_terms, 0);
        assert_eq!(keep(&fallback), keep(&unfiltered));
    }

    #[test]
    fn cheapest_is_the_argmin_by_dollars() {
        use crate::planner::{execute_sql_verbose, Strategy};
        let (ctx, t) = setup(1000);
        let sql = "SELECT * FROM t WHERE k < 10";
        let (_, explain) = execute_sql_verbose(&ctx, &t, sql, Strategy::Adaptive).unwrap();
        let priced = priced(&ctx, &t, sql);
        assert_eq!(explain.candidates.len(), priced.len());
        let chosen = explain.candidates.iter().find(|c| c.chosen).unwrap();
        for (c, (name, p)) in explain.candidates.iter().zip(&priced) {
            assert_eq!(c.algorithm, *name);
            assert_eq!(
                c.dollars,
                p.metrics.cost(&ctx.model, &ctx.pricing).total(),
                "the planner weighs what the walker priced"
            );
            assert!(chosen.dollars <= c.dollars, "{name} beats the chosen one");
        }
    }

    /// A threshold the catalog's tails hold is priced as its scan alone,
    /// returning the rows at or before it; without tails, a sample phase
    /// and then the scan.
    #[test]
    fn topk_candidates_price_the_threshold_where_it_comes_from() {
        let (ctx, t) = setup(2000);
        let sampling = |t: &Table| {
            let cands = priced(&ctx, t, "SELECT * FROM t ORDER BY v LIMIT 10");
            assert_eq!(cands.len(), 2);
            cands.into_iter().find(|(n, _)| *n == "sampling").unwrap().1
        };
        let bytes = t.total_bytes(&ctx.store);
        let catalog = sampling(&t);
        assert_eq!(catalog.metrics.groups.len(), 1, "the scan alone");
        // `v <= 0.0` holds 1 % of the rows.
        assert!(catalog.metrics.usage().select_returned_bytes < bytes / 50);
        let mut stats = (**t.stats.as_ref().unwrap()).clone();
        stats.columns.iter_mut().for_each(|c| c.tails = None);
        let sampled = sampling(&t.clone().with_stats(stats));
        assert_eq!(sampled.metrics.groups.len(), 2, "sample + scan phases");
        // The scanning phase scans the table but returns only ~K/S of it.
        assert!(sampled.metrics.usage().select_returned_bytes < bytes / 4);
    }
}
