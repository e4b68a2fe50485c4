//! The physical-plan IR: a small tree of vectorized operators over
//! [`Row`]s, built by the planner ([`crate::planner`]) and driven by the
//! one executor in this module ([`execute`]).
//!
//! Leaves are per-table scans, one operator, [`PlanOp::Scan`], whose
//! source ([`ScanSource`]) is a field: a Select source ships the
//! predicate and projection to the storage engine, a GET or cache source
//! reads whole partitions and filters and projects inside the worker
//! that decoded the rows, so a leaf delivers the columns the plan needs
//! and no others, whichever way its bytes arrive. One function runs a
//! leaf ([`crate::scan::scan`], which serves every source from one
//! partition producer). Interior operators
//! compose them into multi-table queries: hash equi-joins (with an
//! optional Bloom runtime filter injected into the probe scan, paper
//! §V-A2), residual filters, projections, hash aggregation, multi-key
//! sort and limit. A single-table statement is a join of one table — a
//! bare scan leaf under the same stack — so the paper's §IV filter,
//! §VIII-Q6 scalar aggregate and §VI server-side / filtered group-by are
//! trees of these operators and nothing else. A grouping operator
//! directly over a scan leaf is a **grouped leaf** (`grouped_leaf`): it
//! hands the leaf one grouped statement, every partition folds its rows
//! into partials where they are read — in the engine when the engine
//! runs the grouped statement (a scalar aggregate over a whole Select
//! leaf, or a `GROUP BY` under §X's native extension), in the worker
//! otherwise — and one merge meets them in partition order, so every
//! candidate of a statement returns the same bits.
//!
//! **Staged operators.** The paper's §V-A2 Bloom join, §VII sampling
//! top-K and §VI S3-side / hybrid group-by are one shape: *phase 2's
//! Select statement is written from phase 1's rows*. The rule, stated
//! once: **a staged operator runs its first child to the end, writes SQL
//! from those rows into its second child, and runs that.**
//! [`PlanOp::BloomJoin`] writes the build side's keys into a Bloom
//! predicate, [`PlanOp::Threshold`] a sample's K-th value into `c <= t`,
//! [`PlanOp::HybridSplit`] a sample's populous groups into `g NOT IN (…)`
//! — all three through the one [`push_predicate`], which ANDs the
//! expression into every Select-source scan under the second child. (A
//! hybrid split whose grouping column has a catalog dictionary knows its
//! populous groups before it runs, and a threshold over a column whose
//! catalog tails hold the K-th value knows `t`: neither has a sample
//! child, and each writes the same predicate into its one child — a split
//! whose dictionary covers its column only when a row count says the
//! pushed groups missed rows.)
//! [`PlanOp::CaseWhen`] (and the hybrid split, for its populous groups)
//! writes whole statements instead: the chunked
//! `SUM(CASE WHEN g = v THEN x END)` aggregates of paper Listing 4, each
//! run as a pushed scalar aggregate. Which of these trees a query admits,
//! which one a strategy prefers and what each costs is planning
//! ([`crate::joinplan`] lowers them, [`crate::cost`] prices them node by
//! node); *every* query runs through the one executor here.
//!
//! # Execution
//!
//! The executor is **push-based**: an operator runs its child with a
//! sink, and the child pushes [`RowBatch`]es into it as it produces
//! them. A scan leaf hands that sink to the scan itself, so rows travel
//! from the partition workers through filter, projection and the probe
//! side of a join into the first operator that has to hold state,
//! without a `Vec<Row>` in between. What **breaks the pipeline**, and
//! what it keeps:
//!
//! * a join's build side — it is drained into the join table before the
//!   first probe row meets it (the build rows stay; the joined rows never
//!   do). A **pipelined** hash join (`hash_join_sides`) runs its probe
//!   child on a thread of its own while the build side loads, queueing
//!   the probe's batches until the table is whole and then joining them
//!   as they come, so the two scans overlap and the join streams over the
//!   probe's scan. Under a segment cache both sides read the cache as it
//!   was when the join started and the join applies their cache effects
//!   once both are in, build side first, each in partition order. Any
//!   other join runs its children one after the other, each scan on at
//!   most `scan_threads` jobs of the shared worker pool; the model still prices
//!   a hash join's two single-group sides as loading side by side
//!   ([`QueryMetrics::join_sides`]), which is what the planner priced;
//! * group-by and scalar aggregation — accumulators only; a grouping
//!   operator's ORDER BY runs over its finished groups, inside it
//!   ([`Order`]). Over a scan it is handed no rows, only each
//!   partition's partials, which it merges. Over a join it is not handed
//!   joined rows at all: the
//!   probe hands it each match as its (build row, probe row) pair and it
//!   reads its keys and arguments off whichever side holds them, through
//!   at most a Project that computes one, per match, into a reused row
//!   (`Matches`);
//! * sort — every input row, or with a `LIMIT k` a bounded heap of `k`
//!   (ORDER BY has to see them all, it need not keep them all);
//! * the staged group-bys — their results, which they hand on in
//!   batches; the top-K threshold — its scan's rows, until it knows
//!   there are K of them.
//!
//! The breakers are also where the **phases** of the reported
//! [`QueryMetrics`] end: a phase is a pipeline between breakers. A
//! streaming operator (residual filter, project, the probe side and own
//! CPU of a join) charges the phase of the scan that feeds it — a
//! pipelined join's probe side's, beside its build side's load — a
//! breaker charges it and closes it, and the operator above a breaker, a
//! join's two concurrent loads or a scan leaf's per-node phases opens the
//! next one — the rule is [`QueryMetrics::stack`]'s. No operator here
//! applies it, names a phase or picks how its children's phases go
//! together: it measures what it did itself and hands that, with its
//! children's outcomes and what only its run decided (the Bloom filter
//! it built, whether a hybrid split found populous groups and whether a
//! covering one's row count sent it to its tail, whether a threshold
//! rescanned), to the one composition layer (`shape`), which
//! the pricer fills with estimates ([`crate::cost::predict_plan`]).
//! `Limit` charges nothing and reports no phase.
//!
//! `Limit` passes rows until it is full and then **keeps draining** its
//! child: a scan that stopped at the limit would fetch, and bill, less
//! than the plan the optimizer priced and the serial engine ran, so the
//! rows past the limit are dropped on arrival instead.
//!
//! Execution reports per-operator [`PhaseStats`] in an [`OpReport`]
//! tree; [`crate::cost::predict_plan`] returns the same tree, built by
//! the same layer from catalog statistics, and the planner pairs the two
//! ([`annotate`]) so `EXPLAIN` can show predicted-vs-actual per node. Every operator charges what
//! [`crate::ops`] charges for the same rows however they are batched,
//! so rows, reports, metrics and bills do not depend on `batch_rows` or
//! `scan_threads`.
//!
//! **On a cluster** the tree is the same: the scan fan-out runs every
//! partition on the node owning it ([`crate::scan`]), a scan leaf reports
//! one phase per busy node in one parallel group, each node an
//! `Exchange[…]` child of its report, and a [`PlanOp::GroupBy`] runs
//! partitioned — its input shuffled by group key to one partial group-by
//! per node: over a scan the partitions' partial rows, which the owning
//! node merges in partition order, so the answer is the serial one.

use crate::catalog::Table;
use crate::cluster::Cluster;
use crate::context::QueryContext;
use crate::metrics::{QueryMetrics, Sides};
use crate::ops;
use crate::output::QueryOutput;
use crate::scan::{
    row_exchange_bytes, scan, scan_partials, settle, CacheEffects, Partials, ScanLimit, ScanSource,
    ScanSummary,
};
use crate::shape::{compose, Outcome, Own};
use pushdown_bloom::{BloomBuilder, BloomPlan, Encoding};
use pushdown_common::perf::{PerfModel, PhaseStats};
use pushdown_common::row::RowBatch;
use pushdown_common::{DataType, Error, Result, Row, Schema, Value};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::bind::Binder;
use pushdown_sql::eval::eval;
use pushdown_sql::{Expr, SelectItem, SelectStmt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// One node of a physical plan: an operator, its inputs, and the output
/// schema the planner computed while lowering.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub op: PlanOp,
    pub children: Vec<PlanNode>,
    /// Output schema (lowering-time; execution re-derives and agrees).
    pub schema: Schema,
}

/// The operator vocabulary of the plan IR.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Leaf: every partition of `table` read from `source` through
    /// `predicate` + `projection` (`None` = `*`); only the projected
    /// columns of the survivors leave the scan, whichever way its bytes
    /// arrive ([`ScanSource`]). A plain GET ships every byte as free
    /// plain transfer and a cache read serves its hits locally (misses
    /// are read-through fills billed once); both decode locally, applying
    /// the predicate and projection inside the worker that decoded the
    /// rows, and ColumnarLite decodes no other column. A Select source
    /// pushes the two into the statement it ships, billed by the bytes
    /// scanned and returned, and with a [`ScanLimit`] is cut short to a
    /// sample of the table.
    Scan {
        table: Table,
        predicate: Option<Expr>,
        projection: Option<Vec<String>>,
        source: ScanSource,
    },
    /// Hash inner equi-join: children `[build, probe]`, output rows are
    /// `build ++ probe`. The build child is drained into the join table,
    /// then the probe child streams through it: one CPU unit per build
    /// row and per probe row, and one per joined row it builds. Under a
    /// [`PlanOp::GroupBy`] or [`PlanOp::Aggregate`] (with at most a
    /// [`PlanOp::Project`] between them) it builds none: each match goes
    /// to the grouping operator in place, as its (build row, probe row)
    /// pair (`Matches`).
    HashJoin {
        build_key: String,
        probe_key: String,
    },
    /// Staged hash join: the pushed scans of the probe child are
    /// additionally filtered by a Bloom filter built from the build
    /// side's keys and shipped inside their Select predicate (paper
    /// §V-A2). Build and probe are serial by construction; the
    /// false-positive rate degrades, and then the probe falls back to an
    /// unfiltered one, when no filter fits the SQL limit (§V-B1) — the
    /// probe phase's label says which. Under the engine's §X `bitwise`
    /// extension the filter ships in its hex / `BIT_AT` encoding, four
    /// filter bits per SQL character instead of one. It hands on its
    /// matches as [`PlanOp::HashJoin`] does, in place to a grouping
    /// operator above it.
    BloomJoin {
        build_key: String,
        probe_key: String,
        fpr: f64,
    },
    /// Residual predicate spanning tables, evaluated locally.
    LocalFilter { predicate: Expr },
    /// Compute one expression per output column (names carried by the
    /// node schema), one CPU unit per row. The lowering places one only
    /// where it computes something or reorders a scan's columns: a
    /// grouping operator over a join reads bare columns off the join's
    /// matches itself. A Project between a grouping operator and a join
    /// evaluates its expressions per match into one reused row — the
    /// same unit, no joined row under it.
    Project { exprs: Vec<Expr> },
    /// Hash aggregation: input columns `keys` are the group key;
    /// aggregate *i* consumes input column `aggs[i].1` (`None` =
    /// `COUNT(*)`) — over a join, positions in its `build ++ probe` row,
    /// read off each match in place. One CPU unit per input row (per
    /// match, over a join) and one per group. Directly over a scan leaf
    /// (or a Project over one) the partition workers fold its input rows
    /// into partials, one per group per partition, and it merges them at
    /// a unit each (`grouped_leaf`). On a cluster its input shuffles to
    /// one partial group-by per node: a scan's partials, or a join's
    /// matches as the keys-and-arguments row the shuffle moves, one unit
    /// to build it (`Matches::Narrow`). Over a whole Select leaf on an
    /// engine with §X's native `GROUP BY` the engine folds instead, and
    /// the operator charges only the merge, which it does not shuffle.
    /// Output sorted by group key (deterministic) — which is
    /// what makes an ORDER BY on an ascending prefix of the group key
    /// free: the lowering stacks no sort for it, a LIMIT at most. Any
    /// other ORDER BY is the `order` the operator applies to its finished
    /// groups, inside its own breaker ([`Order`]). So are the other
    /// grouping operators' — [`PlanOp::CaseWhen`] and
    /// [`PlanOp::HybridSplit`] —, which emit group-key order too.
    GroupBy {
        keys: Vec<usize>,
        aggs: Vec<(AggFunc, Option<usize>)>,
        order: Option<Order>,
    },
    /// Scalar aggregation: one output row, even over empty input;
    /// `aggs.len()` CPU units (at least one) per input row. Over a join
    /// it reads its arguments off each match in place, as
    /// [`PlanOp::GroupBy`] does; over a scan leaf it merges a partial row
    /// per partition, at a unit each, as a group-by does — over a whole
    /// Select leaf the engine's partial rows: the statement is pushed
    /// whole (§VIII Q6).
    Aggregate { aggs: Vec<(AggFunc, Option<usize>)> },
    /// `ORDER BY … [LIMIT k]` over anything but a grouping operator
    /// ([`Order`]). With a limit it is a bounded heap fed as rows arrive,
    /// never holding more than `limit` of them; directly over a scan leaf
    /// from a GET or cache source the heap runs inside the partition
    /// workers, which hand on their `limit` best each.
    Sort(Order),
    /// Plain truncation (LIMIT without ORDER BY).
    Limit { n: usize },
    /// Staged §VII sampling top-K, under a `Sort` limited to `k`: children
    /// `[sample, scan]`, or just `[scan]` when the threshold comes from
    /// the catalog. The sample's `k`-th value of `column` in query order —
    /// or `catalog`, the one the load-time tails hold ([`Table::kth`]) —
    /// becomes the scan's threshold predicate: `column <= t` ascending,
    /// with `OR column IS NULL` where the column can hold NULLs (they sort
    /// first), `column >= t` descending, with the NaN rows named where a
    /// FLOAT column can hold them (they sort last) — so the scan returns
    /// a superset of the `k` best rows, in table order. A `catalog`
    /// threshold names the NULL and NaN rows whatever the statistics say,
    /// so every row it leaves out ranks after every row it returns even
    /// when the rows have changed since load; if fewer than `k` come back,
    /// they have, and the scan runs again without a threshold, a phase of
    /// its own.
    Threshold {
        column: String,
        asc: bool,
        k: usize,
        catalog: Option<Value>,
    },
    /// §VI-A S3-side group-by: the child's rows are the distinct groups
    /// (a `GroupBy` without aggregates over a pushed scan of the grouping
    /// columns), and every (group, aggregate) pair becomes one
    /// `agg(CASE WHEN g = v THEN x END)` item of pushed scalar-aggregate
    /// statements (paper Listing 4), chunked under the SQL size limit.
    /// `aggs` pair a function with its input column (`None` = `COUNT(*)`).
    CaseWhen {
        aggs: Vec<(AggFunc, Option<String>)>,
        order: Option<Order>,
    },
    /// Staged §VI-B hybrid group-by: children `[sample, tail]`, or just
    /// `[tail]` when the split comes from the catalog. The populous groups
    /// — the largest by row count holding at least 2 % of the counted
    /// rows, at most 8 — are aggregated by S3 like [`PlanOp::CaseWhen`]'s
    /// while the tail — the query's `filtered` group-by, with `g NOT IN
    /// (populous)` pushed into its scan — aggregates the long tail
    /// locally (in the engine, on one with §X's native `GROUP BY`:
    /// `grouped_leaf`), in parallel (paper Listing 5). The groups are counted in a
    /// prefix sample of the grouping column, or read off `dictionary` —
    /// its load-time row counts ([`crate::catalog::Table::dictionary`])
    /// — with no sample phase at all. A listed group need not have a row
    /// in this query (its WHERE emptied it, or it has gone since load), so
    /// that way every pushed group also counts its rows and an empty one
    /// yields no row; a group the list misses is in the tail. A
    /// dictionary that *covers* the column — every listed group pushed,
    /// and exact statistics saw no NULL in it (`covers`) — leaves the
    /// tail nothing to do: the split runs the pushed pass alone, its first
    /// statement also counting the rows the WHERE keeps (`COUNT(*)`). If
    /// the groups' counts add up to that, the answer is whole; if not, the
    /// rows have changed since load and the tail runs after the pass, its
    /// predicate asking for the NULL rows whatever the statistics say.
    /// With no populous group the tail runs unchanged, `order` as its
    /// finish. `force` pushes exactly that many groups, the largest,
    /// whatever their share (Fig 6's sweep).
    HybridSplit {
        aggs: Vec<(AggFunc, Option<String>)>,
        dictionary: Option<Vec<(Value, u64)>>,
        force: Option<usize>,
        order: Option<Order>,
    },
}

/// Minimum counted share for the hybrid group-by to count a group as
/// populous, and the cap on groups it pushes to S3.
pub(crate) const HYBRID_MIN_SHARE: f64 = 0.02;
pub(crate) const HYBRID_MAX_S3_GROUPS: usize = 8;

/// The groups a hybrid split pushes to S3, with their counts, from
/// per-group row counts — a sample's or the catalog dictionary's: largest
/// count first, ties in [`Value::total_cmp`] order; with `force` the top
/// `force` whatever their share, else the ones holding at least
/// [`HYBRID_MIN_SHARE`] of the counted rows, at most
/// [`HYBRID_MAX_S3_GROUPS`] of them.
pub(crate) fn populous(mut counts: Vec<(Value, u64)>, force: Option<usize>) -> Vec<(Value, u64)> {
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    let least = HYBRID_MIN_SHARE * total.max(1) as f64;
    counts.retain(|&(_, n)| force.is_some() || n as f64 >= least);
    counts.truncate(force.unwrap_or(HYBRID_MAX_S3_GROUPS));
    counts
}

/// `ORDER BY keys [LIMIT limit]`: `(column, ascending)` keys, major
/// first, in [`Value::total_cmp`] order (NULL keys first ascending, last
/// descending). Its answer is the stable sort truncated to the limit,
/// ties in input order, whichever operator applies it — a
/// [`PlanOp::Sort`], or a grouping operator finishing its groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub keys: Vec<(usize, bool)>,
    pub limit: Option<usize>,
}

impl Order {
    /// `rows` ordered and cut to the limit, the work charged into
    /// `work`: the stable sort, or with a limit the K-heap
    /// ([`ops::TopKAccumulator`]).
    pub(crate) fn apply(&self, rows: Vec<Row>, work: &mut PhaseStats) -> Vec<Row> {
        match self.limit {
            None => ops::sort_rows_by_keys(rows, &self.keys, work),
            Some(k) => {
                let mut heap = ops::TopKAccumulator::new(&self.keys, k);
                heap.push_rows(rows, work);
                heap.finish(work)
            }
        }
    }

    /// What [`Order::apply`] is priced at over an estimated `rows` input
    /// rows: its CPU units, and the rows it hands on.
    pub(crate) fn priced(&self, rows: f64) -> (f64, f64) {
        let n = rows.max(1.0);
        match self.limit {
            None => (ops::sort_units(rows.round() as u64) as f64, n),
            // A K-heap: every row is a candidate, K leave sorted.
            Some(k) => {
                let log_k = (k.max(2) as f64).log2().ceil();
                (rows * log_k + k as f64, n.min(k as f64))
            }
        }
    }

    fn label(&self) -> String {
        match self.limit {
            Some(k) => format!("TopK[{} keys, limit {k}]", self.keys.len()),
            None => format!("Sort[{} keys]", self.keys.len()),
        }
    }
}

/// A grouping operator's finished groups under its `order`, if it has
/// one.
fn finish_groups(order: &Option<Order>, rows: Vec<Row>, work: &mut PhaseStats) -> Vec<Row> {
    match order {
        Some(order) => order.apply(rows, work),
        None => rows,
    }
}

impl PlanOp {
    /// The ORDER BY slot of a grouping operator, `None` for any other
    /// operator.
    pub(crate) fn order_mut(&mut self) -> Option<&mut Option<Order>> {
        match self {
            PlanOp::GroupBy { order, .. }
            | PlanOp::CaseWhen { order, .. }
            | PlanOp::HybridSplit { order, .. } => Some(order),
            _ => None,
        }
    }

    /// The ORDER BY a grouping operator finishes its groups with.
    pub(crate) fn order(&self) -> Option<&Order> {
        match self {
            PlanOp::GroupBy { order, .. }
            | PlanOp::CaseWhen { order, .. }
            | PlanOp::HybridSplit { order, .. } => order.as_ref(),
            _ => None,
        }
    }
}

/// `tree` with `order` as the finish of its root grouping operator: how
/// a hybrid split that pushes no group runs its tail.
pub(crate) fn finished_by(tree: &PlanNode, order: &Option<Order>) -> PlanNode {
    let mut tree = tree.clone();
    if let Some(slot) = tree.op.order_mut() {
        slot.clone_from(order);
    }
    tree
}

impl PlanNode {
    pub fn new(op: PlanOp, children: Vec<PlanNode>, schema: Schema) -> PlanNode {
        PlanNode {
            op,
            children,
            schema,
        }
    }

    /// Display label of this operator (used by `Explain::report`); a
    /// grouping operator's label names its finishing order after a `+`.
    pub fn label(&self) -> String {
        let base = match &self.op {
            PlanOp::Scan { table, source, .. } => {
                let t = &table.name;
                match source {
                    ScanSource::Plain => format!("LocalScan[{t}]"),
                    ScanSource::Cached => format!("CachedScan[{t}]"),
                    ScanSource::Select(None) => format!("PushdownScan[{t}]"),
                    ScanSource::Select(Some(ScanLimit::Prefix(n))) => {
                        format!("PushdownScan[{t}, first {n}]")
                    }
                    ScanSource::Select(Some(ScanLimit::Striped(n))) => {
                        format!("PushdownScan[{t}, striped {n}]")
                    }
                }
            }
            PlanOp::HashJoin {
                build_key,
                probe_key,
            } => {
                let name = if self.children.iter().all(PlanNode::scans_pushed) {
                    "FilteredJoin"
                } else {
                    "HashJoin"
                };
                format!("{name}[{build_key} = {probe_key}]")
            }
            PlanOp::BloomJoin {
                build_key,
                probe_key,
                fpr,
            } => format!("BloomJoin[{build_key} = {probe_key}, fpr {fpr}]"),
            PlanOp::LocalFilter { predicate } => format!("Filter[{predicate}]"),
            PlanOp::Project { exprs } => format!("Project[{} exprs]", exprs.len()),
            PlanOp::GroupBy { keys, aggs, .. } => {
                format!("GroupBy[{} keys, {} aggs]", keys.len(), aggs.len())
            }
            PlanOp::Aggregate { aggs } => format!("Aggregate[{} aggs]", aggs.len()),
            PlanOp::Sort(order) => order.label(),
            PlanOp::Limit { n } => format!("Limit[{n}]"),
            // Without a sample child the threshold is the catalog's.
            PlanOp::Threshold { column, k, .. } => match self.children.len() {
                1 => format!("Threshold[{column}, {k}th, catalog tails]"),
                _ => format!("Threshold[{column}, {k}th]"),
            },
            PlanOp::CaseWhen { aggs, .. } => format!("CaseWhen[{} aggs]", aggs.len()),
            PlanOp::HybridSplit {
                aggs, dictionary, ..
            } => match dictionary {
                None => format!("HybridSplit[{} aggs]", aggs.len()),
                Some(d) => format!(
                    "HybridSplit[{} aggs, dictionary of {}]",
                    aggs.len(),
                    d.len()
                ),
            },
        };
        match self.op.order() {
            Some(order) => format!("{base} + {}", order.label()),
            None => base,
        }
    }

    /// The table this node scans, if it is a scan leaf.
    pub(crate) fn scan_table(&self) -> Option<&Table> {
        match &self.op {
            PlanOp::Scan { table, .. } => Some(table),
            _ => None,
        }
    }

    /// Every table a leaf of this tree reads, with whether that leaf
    /// reads it through the segment cache, in walk order.
    pub(crate) fn reads(&self) -> Vec<(&Table, bool)> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            if let Some(table) = node.scan_table() {
                let cached = matches!(
                    node.op,
                    PlanOp::Scan {
                        source: ScanSource::Cached,
                        ..
                    }
                );
                out.push((table, cached));
            }
            stack.extend(node.children.iter().rev());
        }
        out
    }

    /// The pushed scan a staged operator writes its SQL against: the
    /// Select-source [`PlanOp::Scan`] at the bottom of this node's
    /// first-child chain — its table, predicate and projected columns.
    pub(crate) fn pushdown_leaf(&self) -> Result<(&Table, &Option<Expr>, &[String])> {
        match (&self.op, self.children.first()) {
            (
                PlanOp::Scan {
                    table,
                    predicate,
                    projection,
                    source: ScanSource::Select(_),
                },
                _,
            ) => Ok((table, predicate, projection.as_deref().unwrap_or_default())),
            (_, Some(child)) => child.pushdown_leaf(),
            (_, None) => Err(Error::Other(format!(
                "{} is no pushed scan to write SQL against",
                self.label()
            ))),
        }
    }

    /// True when every scan leaf below (and including) this node pushes
    /// into S3 Select.
    fn scans_pushed(&self) -> bool {
        match &self.op {
            PlanOp::Scan { source, .. } => matches!(source, ScanSource::Select(_)),
            _ => self.children.iter().all(PlanNode::scans_pushed),
        }
    }
}

/// Per-operator execution record: what one node actually cost, with the
/// planner's prediction attached when available.
#[derive(Debug, Clone)]
pub struct OpReport {
    pub label: String,
    /// Predicted footprint of this operator (from
    /// [`crate::cost::predict_plan`]); `None` when the planner had no
    /// per-node prediction.
    pub predicted: Option<PhaseStats>,
    /// Measured footprint of this operator alone (children excluded).
    pub actual: PhaseStats,
    pub children: Vec<OpReport>,
}

impl OpReport {
    /// Indented operator tree with predicted-vs-actual seconds per node.
    pub fn render(&self, model: &PerfModel) -> String {
        let mut out = String::new();
        self.render_into(model, 1, &mut out);
        out
    }

    fn render_into(&self, model: &PerfModel, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let indent = "  ".repeat(depth);
        let actual = model.phase_seconds(&self.actual);
        // Cache-serving nodes show their local-vs-remote byte split
        // (mem/disk hit bytes come from the segment cache tiers; on a
        // cached scan, the plain bytes are the billed gap fills).
        let cache = if self.actual.cache_bytes > 0
            || self.actual.disk_bytes > 0
            || self.label.starts_with("CachedScan")
        {
            format!(
                "  [cache: {} B mem hit, {} B disk hit, {} B filled]",
                self.actual.cache_bytes, self.actual.disk_bytes, self.actual.plain_bytes
            )
        } else {
            String::new()
        };
        match &self.predicted {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "{indent}{}  predicted {:.2}s vs actual {actual:.2}s{cache}",
                    self.label,
                    model.phase_seconds(p),
                );
            }
            None => {
                let _ = writeln!(out, "{indent}{}  actual {actual:.2}s{cache}", self.label);
            }
        }
        for c in &self.children {
            c.render_into(model, depth + 1, out);
        }
    }
}

/// What executing a plan produced: rows, schema, the phase-structured
/// metrics (identical in shape to the prediction's), and the per-node
/// report tree.
#[derive(Debug, Clone)]
pub struct Executed {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub metrics: QueryMetrics,
    pub report: OpReport,
}

impl Executed {
    /// Convert into a [`QueryOutput`] (the caller's scope fills `billed`).
    pub fn into_output(self) -> QueryOutput {
        QueryOutput {
            schema: self.schema,
            rows: self.rows,
            metrics: self.metrics,
            billed: Default::default(),
        }
    }
}

/// Build the Select statement a scan leaf ships: projection columns (or
/// `*`) plus the pushed predicate.
pub(crate) fn scan_stmt(projection: &Option<Vec<String>>, predicate: &Option<Expr>) -> SelectStmt {
    let items = match projection {
        None => vec![SelectItem::Wildcard],
        Some(cols) => cols
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::col(c.clone()),
                alias: None,
            })
            .collect(),
    };
    SelectStmt {
        items,
        alias: None,
        where_clause: predicate.clone(),
        limit: None,
    }
}

/// How a staged operator writes its run-time predicate into its second
/// child: `expr` is ANDed into every Select-source [`PlanOp::Scan`]
/// under `tree`, through whatever operators sit above them.
pub fn push_predicate(tree: &PlanNode, expr: &Expr) -> PlanNode {
    fn push(node: &mut PlanNode, expr: &Expr) {
        if let PlanOp::Scan {
            predicate,
            source: ScanSource::Select(_),
            ..
        } = &mut node.op
        {
            *predicate = Some(match predicate.take() {
                Some(p) => Expr::and(p, expr.clone()),
                None => expr.clone(),
            });
        }
        node.children.iter_mut().for_each(|c| push(c, expr));
    }
    let mut tree = tree.clone();
    push(&mut tree, expr);
    tree
}

/// The builder a Bloom join plans its filter with over `probe`, its
/// probe side, and the encoding the engine takes the filter in: sized to
/// the SQL limit the engine enforces on a whole statement, less the
/// longest statement a Select leaf of `probe` sends without the filter,
/// so a filter that would not fit degrades or falls back (§V-B1) instead
/// of being rejected. The builder plans against the filter's exact
/// rendered length in that encoding — §X Suggestion 3's hex / `BIT_AT`
/// one under the engine's `bitwise` extension, four filter bits per SQL
/// character, else the paper's `'0'` / `'1'` string.
pub(crate) fn bloom_builder(ctx: &QueryContext, probe: &PlanNode) -> (BloomBuilder, Encoding) {
    /// The longest statement a Select leaf under `node` sends, with room
    /// for the ` WHERE ` or the ` AND ` and parentheses that join a
    /// filter onto it.
    fn longest_stmt(node: &PlanNode) -> usize {
        let own = match &node.op {
            PlanOp::Scan {
                predicate,
                projection,
                source: ScanSource::Select(_),
                ..
            } => scan_stmt(projection, predicate).to_string().len() + " AND ()()".len(),
            _ => 0,
        };
        node.children.iter().map(longest_stmt).fold(own, usize::max)
    }
    let limit = ctx.engine.limits().max_sql_bytes;
    let builder = BloomBuilder {
        max_sql_bytes: limit.saturating_sub(longest_stmt(probe)),
        ..BloomBuilder::default()
    };
    let encoding = match ctx.engine.extensions().bitwise {
        true => Encoding::Hex,
        false => Encoding::Bits,
    };
    (builder, encoding)
}

/// Attach the predicted report's per-node stats to the executed one.
/// The two trees have the same shape by construction: one plan, one
/// composition layer.
pub fn annotate(report: &mut OpReport, predicted: &OpReport) {
    report.predicted = Some(predicted.actual);
    for (r, p) in report.children.iter_mut().zip(&predicted.children) {
        annotate(r, p);
    }
}

/// Execute a physical plan against the context's store and collect its
/// rows: the executor (`run`) with a collecting sink. Every operator
/// reports its own [`PhaseStats`]; billable traffic comes from the scan
/// leaves and from the CASE-WHEN statements [`PlanOp::CaseWhen`] and
/// [`PlanOp::HybridSplit`] ship themselves, all metered, so the summed
/// metrics agree exactly with the scope's cost ledger.
pub fn execute(ctx: &QueryContext, node: &PlanNode) -> Result<Executed> {
    let mut rows = Vec::new();
    let ran = run(ctx, node, &mut |batch| {
        rows.extend(batch.rows);
        Ok(())
    })?;
    Ok(Executed {
        schema: ran.schema,
        rows,
        metrics: ran.outcome.metrics,
        report: ran.outcome.report,
    })
}

/// Where an operator pushes its output batches.
type Sink<'a> = &'a mut dyn FnMut(RowBatch) -> Result<()>;

/// What [`run`] reports once a subtree has pushed its last batch: the
/// schema of its rows, and its phases and report.
struct Ran {
    schema: Schema,
    outcome: Outcome,
}

/// `node`'s run over its children's: its outcome composed ([`compose`])
/// from what it did itself and theirs, its rows of the schema they give
/// it — a join's, build then probe columns; a filter's, sort's, limit's
/// or staged operator's, its last child's — or else of `node.schema`.
fn composed(ctx: &QueryContext, node: &PlanNode, own: Own, children: Vec<Ran>) -> Result<Ran> {
    let schema = match (&node.op, children.as_slice()) {
        (PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. }, [build, probe]) => {
            build.schema.join(&probe.schema)
        }
        (
            PlanOp::LocalFilter { .. }
            | PlanOp::Sort(_)
            | PlanOp::Limit { .. }
            | PlanOp::Threshold { .. }
            | PlanOp::HybridSplit { .. },
            [.., last],
        ) => last.schema.clone(),
        _ => node.schema.clone(),
    };
    let children = children.into_iter().map(|c| c.outcome).collect();
    let outcome = compose(ctx, node, own, children)?;
    Ok(Ran { schema, outcome })
}

/// Push `rows` into `sink` in batches of at most `ctx.batch_rows`.
fn emit(ctx: &QueryContext, schema: &Schema, rows: Vec<Row>, sink: Sink<'_>) -> Result<()> {
    RowBatch::chunks(schema, rows, ctx.batch_rows)
        .into_iter()
        .try_for_each(sink)
}

/// The executor (see the module docs): run `node`, pushing its output
/// into `sink` batch by batch, in order. Operators bind against their
/// children's lowering-time schemas, so a pipeline is wired before its
/// first row arrives.
fn run(ctx: &QueryContext, node: &PlanNode, sink: Sink<'_>) -> Result<Ran> {
    match &node.op {
        PlanOp::Scan { .. } => scan_leaf(ctx, node, None, sink),
        PlanOp::GroupBy { .. } | PlanOp::Aggregate { .. } => run_grouping(ctx, node, sink),
        PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. } => run_join(ctx, node, Emit::Rows(sink)),
        PlanOp::LocalFilter { predicate } => {
            let child = &node.children[0];
            let bound = Binder::new(&child.schema).bind_expr(predicate)?;
            let mut local = PhaseStats::default();
            let ran = run(ctx, child, &mut |mut batch| {
                batch.rows = ops::filter_rows(batch.rows, &bound, &mut local)?;
                forward(batch, sink)
            })?;
            composed(ctx, node, Own::Stats(local), vec![ran])
        }
        PlanOp::Project { exprs } => {
            let child = &node.children[0];
            let binder = Binder::new(&child.schema);
            let bound: Vec<_> = exprs
                .iter()
                .map(|e| binder.bind_expr(e))
                .collect::<Result<_>>()?;
            let mut local = PhaseStats::default();
            let ran = run(ctx, child, &mut |batch| {
                let rows = ops::map_rows(&batch.rows, &bound, &mut local)?;
                forward(RowBatch::new(node.schema.clone(), rows), sink)
            })?;
            composed(ctx, node, Own::Stats(local), vec![ran])
        }
        PlanOp::Sort(order) => {
            let child = &node.children[0];
            let keys = &order.keys;
            let mut local = PhaseStats::default();
            let (ran, rows) = match order.limit {
                None => {
                    let mut rows = Vec::new();
                    let ran = run(ctx, child, &mut |batch| {
                        rows.extend(batch.rows);
                        Ok(())
                    })?;
                    (ran, order.apply(rows, &mut local))
                }
                Some(k) => {
                    let mut heap = ops::TopKAccumulator::new(keys, k);
                    let ran = match child.op {
                        // A decoding leaf's workers reduce their partitions
                        // — this operator's work, charged for every row
                        // offered — and their candidates arrive in table
                        // order.
                        PlanOp::Scan {
                            source: ScanSource::Plain | ScanSource::Cached,
                            ..
                        } => {
                            let best = Best {
                                keys,
                                k,
                                work: &mut local,
                            };
                            scan_leaf(ctx, child, Some(best), &mut |batch| {
                                heap.absorb(batch.rows);
                                Ok(())
                            })?
                        }
                        _ => run(ctx, child, &mut |batch| {
                            heap.push_rows(batch.rows, &mut local);
                            Ok(())
                        })?,
                    };
                    (ran, heap.finish(&mut local))
                }
            };
            emit(ctx, &ran.schema, rows, sink)?;
            composed(ctx, node, Own::Stats(local), vec![ran])
        }
        PlanOp::Limit { n } => {
            // The child runs to its end — a scan that stopped at the
            // limit would bill less than the plan was priced at — and the
            // rows past the limit are dropped here.
            let mut room = *n;
            let ran = run(ctx, &node.children[0], &mut |mut batch| {
                batch.rows.truncate(room);
                room -= batch.len();
                forward(batch, sink)
            })?;
            composed(ctx, node, Own::Stats(PhaseStats::default()), vec![ran])
        }
        PlanOp::Threshold {
            column,
            asc,
            k,
            catalog,
        } => {
            let scan_node = node.children.last().expect("a threshold has a scan");
            let (table, ..) = scan_node.pushdown_leaf()?;
            let (mut own, mut children) = (PhaseStats::default(), Vec::new());
            let kth = match catalog {
                Some(t) => Some(t.clone()),
                None => {
                    let mut sampled: Vec<Value> = Vec::new();
                    children.push(run(ctx, &node.children[0], &mut |batch| {
                        sampled.extend(batch.rows.iter().map(|r| r[0].clone()));
                        Ok(())
                    })?);
                    own.server_cpu_units = sampled.len() as u64;
                    sampled.sort_by(|a, b| if *asc { a.total_cmp(b) } else { b.total_cmp(a) });
                    // A sample of fewer than K rows is the whole table: no
                    // threshold.
                    k.checked_sub(1).and_then(|i| sampled.into_iter().nth(i))
                }
            };
            // A catalog threshold is written for the table without its
            // statistics (see `threshold_predicate`).
            let mut written = table.clone();
            written.stats = written.stats.filter(|_| catalog.is_none());
            let pred = kth.and_then(|t| threshold_predicate(&written, column, *asc, &t));
            let bounded = pred.is_some();
            let mut rows = Vec::new();
            let scan = run_pushed(ctx, scan_node, pred, &mut |batch| {
                rows.extend(batch.rows);
                Ok(())
            })?;
            children.push(scan);
            // A sample holds K rows at or before its K-th value, so the
            // table does too; the catalog's count may have gone stale.
            let rescanned = bounded && rows.len() < *k;
            if rescanned {
                children.push(run(ctx, scan_node, sink)?);
            } else {
                emit(ctx, &node.schema, rows, sink)?;
            }
            composed(ctx, node, Own::Threshold(own, rescanned), children)
        }
        PlanOp::CaseWhen { aggs, order } => {
            let child = &node.children[0];
            let (table, predicate, group_cols) = child.pushdown_leaf()?;
            // The distinct groups, sorted: only they are kept.
            let mut groups: Vec<Vec<Value>> = Vec::new();
            let ran = run(ctx, child, &mut |batch| {
                groups.extend(batch.rows.iter().map(|r| r.values().to_vec()));
                Ok(())
            })?;
            let pass =
                case_when_aggregate(ctx, table, predicate, group_cols, aggs, &groups, false)?;
            let mut stats = pass.stats;
            let rows = finish_groups(order, pass.rows, &mut stats);
            emit(ctx, &node.schema, rows, sink)?;
            composed(ctx, node, Own::Stats(stats), vec![ran])
        }
        PlanOp::HybridSplit {
            aggs,
            dictionary,
            force,
            order,
        } => {
            let tail_node = node.children.last().expect("a hybrid split has a tail");
            let (table, predicate, group_cols) = hybrid_leaf(node)?;
            // Phase 1, unless the catalog counted the groups: their
            // frequencies in the sample. NULL keys are never "populous":
            // their rows stay in the tail.
            let (mut own, mut children) = (PhaseStats::default(), Vec::new());
            let counts = match dictionary {
                Some(counts) => counts.clone(),
                None => {
                    let mut freq: HashMap<Value, u64> = HashMap::new();
                    children.push(run(ctx, &node.children[0], &mut |batch| {
                        own.server_cpu_units += batch.len() as u64;
                        for r in batch.rows.iter().filter(|r| !r[0].is_null()) {
                            *freq.entry(r[0].clone()).or_insert(0) += 1;
                        }
                        Ok(())
                    })?);
                    freq.into_iter().collect()
                }
            };
            let big: Vec<Value> = populous(counts, *force)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            if big.is_empty() {
                // No populous group: the tail is the whole query, the
                // order its finish.
                children.push(run(ctx, &finished_by(tail_node, order), sink)?);
                return composed(ctx, node, Own::Split(own, None), children);
            }
            let keys: Vec<Vec<Value>> = big.iter().map(|v| vec![v.clone()]).collect();
            let column = &group_cols[0];
            if covers(table, column, dictionary, big.len()) {
                // One pass: the listed groups' aggregation, which also
                // counts the rows the WHERE keeps. If the groups' counts
                // add up to it every row has a listed group and the tail
                // is empty; if not, the rows have changed since load and
                // the tail runs after the pass, its predicate written for
                // the table without its statistics (a NULL written since
                // load is asked for by name).
                let pass = listed_case_when_aggregate(
                    ctx, table, predicate, group_cols, aggs, &keys, true,
                )?;
                let mut rows = pass.rows;
                let short = pass.kept != Some(pass.counted);
                if short {
                    let mut blind = table.clone();
                    blind.stats = None;
                    let pred = tail_predicate(&blind, column, &big);
                    children.push(run_pushed(ctx, tail_node, Some(pred), &mut |batch| {
                        rows.extend(batch.rows);
                        Ok(())
                    })?);
                }
                rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
                let mut finish = PhaseStats::default();
                emit(
                    ctx,
                    &node.schema,
                    finish_groups(order, rows, &mut finish),
                    sink,
                )?;
                let own = Own::Covered(pass.stats, pass.nodes, finish, short);
                return composed(ctx, node, own, children);
            }
            // Phase 2, two concurrent requests (paper Listing 5). Q1: the
            // pushed CASE-WHEN aggregation of the populous groups.
            let pass = match dictionary {
                None => case_when_aggregate(ctx, table, predicate, group_cols, aggs, &keys, false)?,
                Some(_) => listed_case_when_aggregate(
                    ctx, table, predicate, group_cols, aggs, &keys, false,
                )?,
            };
            let (mut rows, mut s3) = (pass.rows, pass.stats);
            // Q2: the long tail (group NOT IN populous), aggregated
            // locally.
            let tail_pred = tail_predicate(table, column, &big);
            let tail = run_pushed(ctx, tail_node, Some(tail_pred), &mut |batch| {
                rows.extend(batch.rows);
                Ok(())
            })?;
            // Populous and tail groups are disjoint: concatenate and sort.
            // The order finishes them where the populous groups arrived,
            // beside the tail.
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            emit(ctx, &node.schema, finish_groups(order, rows, &mut s3), sink)?;
            children.push(tail);
            composed(ctx, node, Own::Split(own, Some(s3)), children)
        }
    }
}

/// A grouping operator that folds where the partitions of the scan
/// under it are read — a [`PlanOp::GroupBy`] or [`PlanOp::Aggregate`]
/// directly over a scan leaf (or over the [`PlanOp::Project`] between
/// them) — as the scan runs it ([`scan_partials`]): the leaf's table,
/// source and statement (its projection and `WHERE`), the partials every
/// partition answers with, the scan and Project nodes it reports over,
/// and whether the engine folds them (`engine`) rather than the workers.
pub(crate) struct GroupedLeaf<'a> {
    pub table: &'a Table,
    pub source: ScanSource,
    pub stmt: SelectStmt,
    pub partials: Partials,
    pub scan: &'a PlanNode,
    pub project: Option<&'a PlanNode>,
    pub engine: bool,
}

/// `node` as a [`GroupedLeaf`], if it is one: a grouping operator over a
/// whole scan whose group keys are plain columns. **Where it folds** is
/// decided here and nowhere else: in the engine whenever the engine runs
/// the grouped statement — over a whole Select leaf, always for a scalar
/// aggregate (§VIII Q6), and for a `GROUP BY` when the engine has §X's
/// native extension (Suggestion 4) — and in the partition workers
/// otherwise. The executor ([`run_grouped_leaf`]) and the pricer
/// ([`crate::cost::predict_plan`]) both ask it.
pub(crate) fn grouped_leaf<'a>(
    ctx: &QueryContext,
    node: &'a PlanNode,
) -> Result<Option<GroupedLeaf<'a>>> {
    let (keys, aggs) = match &node.op {
        PlanOp::GroupBy { keys, aggs, .. } => (&keys[..], aggs),
        PlanOp::Aggregate { aggs } => (&[][..], aggs),
        _ => return Ok(None),
    };
    let child = &node.children[0];
    let (project, scan) = match &child.op {
        PlanOp::Project { exprs } => (Some((child, exprs)), &child.children[0]),
        _ => (None, child),
    };
    let PlanOp::Scan {
        table,
        predicate,
        projection,
        source: source @ (ScanSource::Plain | ScanSource::Cached | ScanSource::Select(None)),
    } = &scan.op
    else {
        return Ok(None);
    };
    // The operator's input column `c`.
    let input = |c: usize| match project {
        Some((_, exprs)) => exprs[c].clone(),
        None => Expr::col(scan.schema.field(c).name.clone()),
    };
    let keys = keys.iter().map(|&k| match input(k) {
        Expr::Column(c) => Some(c),
        _ => None,
    });
    let Some(group_by) = keys.collect::<Option<Vec<_>>>() else {
        return Ok(None);
    };
    let aggs = aggs.iter().map(|&(f, c)| (f, c.map(input)));
    let engine = *source == ScanSource::Select(None)
        && (group_by.is_empty() || ctx.engine.extensions().native_group_by);
    Ok(Some(GroupedLeaf {
        table,
        source: *source,
        stmt: scan_stmt(projection, predicate),
        partials: Partials::new(&group_by, aggs),
        scan,
        project: project.map(|(p, _)| p),
        engine,
    }))
}

/// A grouping operator ([`PlanOp::GroupBy`] or [`PlanOp::Aggregate`]): a
/// grouped leaf's partials merged ([`run_grouped_leaf`]), or else its
/// input folded as it arrives — a join's matches in place ([`fold`]) —
/// into one group table, a scalar aggregate's one row there even over no
/// input; on a cluster a group-by's input partitioned by key
/// ([`run_partitioned_group_by`]).
fn run_grouping(ctx: &QueryContext, node: &PlanNode, sink: Sink<'_>) -> Result<Ran> {
    if let Some(leaf) = grouped_leaf(ctx, node)? {
        return run_grouped_leaf(ctx, node, leaf, sink);
    }
    let (keys, aggs, per_row, grouped) = match &node.op {
        PlanOp::GroupBy { keys, aggs, .. } => (&keys[..], aggs, 1, true),
        PlanOp::Aggregate { aggs } => (&[][..], aggs, aggs.len().max(1) as u64, false),
        _ => return Err(Error::Other(format!("{} groups nothing", node.label()))),
    };
    let order = node.op.order().cloned();
    if let Some(cluster) = ctx.spread().filter(|_| grouped) {
        return run_partitioned_group_by(ctx, node, keys, aggs, &order, cluster, sink);
    }
    let mut acc = ops::GroupByAccumulator::new(keys.to_vec(), aggs.clone());
    let (mut local, mut ungrouped) = (PhaseStats::default(), PhaseStats::default());
    let ran = fold(ctx, node, per_row, &mut local, &mut |input| {
        acc.update(input)
    })?;
    // A group-by charges a unit per group; a scalar aggregate, none, and
    // has its one row even over no input.
    let mut rows = acc.finish(if grouped { &mut local } else { &mut ungrouped });
    if rows.is_empty() && !grouped {
        rows.push(Row::new(
            aggs.iter().map(|(f, _)| f.accumulator().finish()).collect(),
        ));
    }
    let rows = finish_groups(&order, rows, &mut local);
    emit(ctx, &node.schema, rows, sink)?;
    composed(ctx, node, Own::Stats(local), vec![ran])
}

/// A grouped leaf ([`GroupedLeaf`]): every partition's partial rows, in
/// partition order, met in one merge ([`Partials::merge`], a unit per
/// partial) — on a cluster, a worker-folded group-by's shuffled by group
/// key to the node owning the group, which merges them in the same order,
/// so the answer is the serial one bit for bit — and finished by the
/// operator's order. What each fold charges is its own: where the
/// workers folded, the operator charges its units per row they folded (a
/// group-by one, a scalar aggregate one per aggregate) on the nodes that
/// folded them, the merge, and a group-by one more per group, while a
/// Project between the operator and the scan is evaluated in the workers
/// and charges its unit per row there; where the engine folded, its
/// partitions charged a unit per partial returned and per partial merged,
/// the Project was the engine's, and the finish joins the leaf's phase —
/// on a cluster, the first node's (`Own::Folded`).
fn run_grouped_leaf(
    ctx: &QueryContext,
    node: &PlanNode,
    leaf: GroupedLeaf<'_>,
    sink: Sink<'_>,
) -> Result<Ran> {
    let GroupedLeaf {
        table,
        source,
        stmt,
        partials,
        scan,
        project,
        engine,
    } = leaf;
    let (rows, mut summary) = scan_partials(ctx, table, source, &stmt, &partials, engine)?;
    let per_row = match &node.op {
        PlanOp::Aggregate { aggs } => aggs.len().max(1) as u64,
        _ => 1,
    };
    let by_node = std::mem::take(&mut summary.folded);
    let folded: u64 = by_node.iter().map(|(_, n)| n).sum();
    let cpu = |units| PhaseStats {
        server_cpu_units: units,
        ..Default::default()
    };
    let owned = |stats| match engine {
        true => Own::Folded(stats),
        false => Own::Stats(stats),
    };
    let mut local = cpu(per_row * folded);
    let (order, grouped) = (
        node.op.order().cloned(),
        matches!(node.op, PlanOp::GroupBy { .. }) && !engine,
    );
    let mut children = vec![leaf_ran(ctx, scan, summary)?];
    if let Some(project) = project {
        children = vec![composed(ctx, project, owned(cpu(folded)), children)?];
    }
    let (rows, own) = match ctx.spread().filter(|_| grouped) {
        Some(cluster) => {
            let mut shares = vec![PhaseStats::default(); cluster.n()];
            for (k, n) in by_node {
                shares[k].server_cpu_units += per_row * n;
            }
            let merge = |bucket, st: &mut PhaseStats| {
                let groups = partials.merge(bucket, st)?;
                st.server_cpu_units += groups.len() as u64;
                Ok(groups)
            };
            let keys: Vec<usize> = (0..partials.group_by().len()).collect();
            shuffled(cluster, rows, &keys, merge, shares, &order)?
        }
        None => {
            // The engine's partitions charged its merge.
            let mut charged = PhaseStats::default();
            let rows = partials.merge(rows, if engine { &mut charged } else { &mut local })?;
            local.server_cpu_units += if grouped { rows.len() as u64 } else { 0 };
            let rows = finish_groups(&order, rows, &mut local);
            (rows, owned(local))
        }
    };
    emit(ctx, &node.schema, rows, sink)?;
    composed(ctx, node, own, children)
}

/// Pass a transformed batch on, unless the operator emptied it.
fn forward(batch: RowBatch, sink: Sink<'_>) -> Result<()> {
    if batch.is_empty() {
        Ok(())
    } else {
        sink(batch)
    }
}

/// How a join hands its matches to the operator above it — the executor
/// and the pricer ([`crate::cost::predict_plan`]) charge alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Matches {
    /// As `build ++ probe` rows, one CPU unit per row built.
    Rows,
    /// In place, to a grouping operator that folds them: no row, no unit.
    Folded,
    /// As the keys-and-arguments row a partitioned group-by shuffles,
    /// one unit per row built.
    Narrow,
}

/// The join grouping operator `node` folds ([`PlanOp::GroupBy`] or
/// [`PlanOp::Aggregate`] directly over a hash or Bloom join, or over a
/// [`PlanOp::Project`] over one), and that Project, if there is one.
pub(crate) fn folded_join(node: &PlanNode) -> Option<(&PlanNode, Option<&PlanNode>)> {
    if !matches!(node.op, PlanOp::GroupBy { .. } | PlanOp::Aggregate { .. }) {
        return None;
    }
    let child = &node.children[0];
    let (join, project) = match child.op {
        PlanOp::Project { .. } => (&child.children[0], Some(child)),
        _ => (child, None),
    };
    matches!(join.op, PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. }).then_some((join, project))
}

/// How the join under grouping operator `node` hands it its matches, if
/// the operator folds them ([`folded_join`]): in place, except to a
/// group-by partitioned over a cluster, whose shuffle moves a row per
/// match — the keys-and-arguments row, which the join builds, or the
/// Project between them where there is one.
pub(crate) fn join_matches(ctx: &QueryContext, node: &PlanNode) -> Option<Matches> {
    let (_, project) = folded_join(node)?;
    let shuffled = matches!(node.op, PlanOp::GroupBy { .. }) && ctx.spread().is_some();
    Some(match project {
        None if shuffled => Matches::Narrow,
        _ => Matches::Folded,
    })
}

/// Where a join hands its matches ([`Matches`]).
enum Emit<'s> {
    /// Joined rows, into the parent's sink.
    Rows(Sink<'s>),
    /// Each match in place, to a grouping operator's visitor; `true` when
    /// the visitor builds a row of it, which the join is charged
    /// ([`Matches::Narrow`]).
    Matches(&'s mut dyn FnMut(&Row, &Row) -> Result<()>, bool),
}

/// A hash or Bloom join: its two children run into the join table and
/// through it, its matches handed on as `emit` says.
fn run_join(ctx: &QueryContext, node: &PlanNode, mut emit: Emit<'_>) -> Result<Ran> {
    let emit = &mut emit;
    match &node.op {
        PlanOp::HashJoin {
            build_key,
            probe_key,
        } => {
            let (build_node, probe_node) = (&node.children[0], &node.children[1]);
            let mut join = Join::new(node, build_key, probe_key)?;
            let sides = hash_join_sides(ctx, node);
            let (build, probe) = if sides == Sides::Pipelined {
                run_pipelined(ctx, node, &mut join, emit)?
            } else {
                // Build, then probe: each scan on its own jobs of the
                // worker pool.
                let build = run(ctx, build_node, &mut |batch| join.build(batch))?;
                let probe = run(ctx, probe_node, &mut |batch| join.probe(batch, emit))?;
                (build, probe)
            };
            let own = Own::Join(join.local, None);
            composed(ctx, node, own, vec![build, probe])
        }
        PlanOp::BloomJoin {
            build_key,
            probe_key,
            fpr,
        } => {
            let (build_node, probe_node) = (&node.children[0], &node.children[1]);
            let mut join = Join::new(node, build_key, probe_key)?;
            let bk = join.build_key;
            if build_node.schema.dtype_of(bk) != DataType::Int {
                return Err(Error::Bind(format!(
                    "Bloom join requires an integer join key, `{build_key}` is {}",
                    build_node.schema.dtype_of(bk)
                )));
            }
            let mut keys = Vec::new();
            let build = run(ctx, build_node, &mut |batch| {
                for r in &batch.rows {
                    match &r[bk] {
                        Value::Null => {}
                        v => keys.push(v.as_i64()?),
                    }
                }
                join.build(batch)
            })?;
            // §V-B1: degrade or fall back when the filter cannot fit the
            // SQL size limit; either way the build side already loaded,
            // so the two scans stay serial.
            let (builder, encoding) = bloom_builder(ctx, probe_node);
            let (bloom_pred, planned) = match builder
                .build_encoded(&keys, *fpr, probe_key, encoding)
            {
                Some((filter, planned)) => (Some(filter.predicate(probe_key, encoding)), planned),
                None => (None, BloomPlan::Fallback),
            };
            let probe = run_pushed(ctx, probe_node, bloom_pred, &mut |batch| {
                join.probe(batch, emit)
            })?;
            let own = Own::Join(join.local, Some(planned));
            composed(ctx, node, own, vec![build, probe])
        }
        _ => Err(Error::Other(format!("{} is no join", node.label()))),
    }
}

/// Run grouping operator `node`'s input, handing `each` every input row
/// and charging `local` `per_row` units for it: its child's rows — or,
/// where it folds a join ([`folded_join`]), each match in place, read as
/// its `build ++ probe` row without building it; through a Project
/// between them, evaluated into one reused row, charged as the Project.
fn fold(
    ctx: &QueryContext,
    node: &PlanNode,
    per_row: u64,
    local: &mut PhaseStats,
    each: &mut dyn FnMut(ops::Input<'_>) -> Result<()>,
) -> Result<Ran> {
    let Some((join, project)) = folded_join(node) else {
        return run(ctx, &node.children[0], &mut |batch| {
            local.server_cpu_units += per_row * batch.len() as u64;
            let mut rows = batch.rows.iter();
            rows.try_for_each(|r| each(ops::Input::row(r)))
        });
    };
    let narrow = join_matches(ctx, node) == Some(Matches::Narrow);
    let Some(project) = project else {
        let mut visit = |l: &Row, r: &Row| {
            local.server_cpu_units += per_row;
            each(ops::Input::pair(l, r))
        };
        return run_join(ctx, join, Emit::Matches(&mut visit, narrow));
    };
    let PlanOp::Project { exprs } = &project.op else {
        unreachable!("folded_join returns a Project")
    };
    // The expressions read the columns they name off a row as wide as
    // the joined one, which holds those columns only.
    let binder = Binder::new(&join.schema);
    let bound: Vec<_> = exprs
        .iter()
        .map(|e| binder.bind_expr(e))
        .collect::<Result<_>>()?;
    let mut names = Vec::new();
    exprs.iter().for_each(|e| e.referenced_columns(&mut names));
    let read = names
        .iter()
        .map(|c| join.schema.resolve(c))
        .collect::<Result<Vec<_>>>()?;
    let mut input = Row::new(vec![Value::Null; join.schema.len()]);
    let mut output = Row::new(Vec::with_capacity(exprs.len()));
    let mut projected = PhaseStats::default();
    let mut visit = |l: &Row, r: &Row| {
        let pair = ops::Input::pair(l, r);
        for &c in &read {
            input.0[c] = pair.get(c).clone();
        }
        output.0.clear();
        for e in &bound {
            output.0.push(eval(e, &input)?);
        }
        projected.server_cpu_units += 1;
        local.server_cpu_units += per_row;
        each(ops::Input::row(&output))
    };
    let joined = run_join(ctx, join, Emit::Matches(&mut visit, narrow))?;
    composed(ctx, project, Own::Stats(projected), vec![joined])
}

/// The `ORDER BY keys LIMIT k` a [`PlanOp::Sort`] hands down to the GET
/// or cache scan leaf directly below it, and where the sort reports its
/// work — the reducer's counterpart of a grouping operator's
/// [`Partials`], which a grouped leaf hands down to every source
/// (`grouped_leaf`).
struct Best<'a> {
    keys: &'a [(usize, bool)],
    k: usize,
    work: &'a mut PhaseStats,
}

/// A scan leaf, from whichever source: `predicate` + `projection` are
/// one statement ([`scan_stmt`]), which a Select source ships and a GET
/// or cache read runs through the Select engine's executor inside the
/// partition workers that decode — with the sort above's reducer, if it
/// handed one down (`best`): each worker hands on its partition's `k`
/// best rows only, and what that cost is the sort's to report.
fn scan_leaf(
    ctx: &QueryContext,
    node: &PlanNode,
    best: Option<Best<'_>>,
    sink: Sink<'_>,
) -> Result<Ran> {
    let PlanOp::Scan {
        table,
        predicate,
        projection,
        source,
    } = &node.op
    else {
        return Err(Error::Other(format!("{} is no scan leaf", node.label())));
    };
    let best_keys = best.as_ref().map(|best| (best.keys, best.k));
    let stmt = scan_stmt(projection, predicate);
    let summary = scan(ctx, table, *source, &stmt, best_keys, sink)?;
    if let Some(best) = best {
        best.work.merge(&summary.reduce_stats);
    }
    leaf_ran(ctx, node, summary)
}

/// What scan leaf `node` reports of the scan it ran: its footprint (the
/// statement's `WHERE` included) over one phase, or one per node it ran
/// on, and the rows' schema. The EXPLAIN tree reports a cached leaf's
/// hit/miss/fill split.
fn leaf_ran(ctx: &QueryContext, node: &PlanNode, summary: ScanSummary) -> Result<Ran> {
    let mut stats = summary.stats;
    stats.merge(&summary.op_stats);
    let own = Own::Leaf(stats, summary.nodes);
    let mut ran = composed(ctx, node, own, Vec::new())?;
    ran.schema = summary.schema;
    if let PlanOp::Scan {
        source: ScanSource::Cached,
        ..
    } = node.op
    {
        let hits = summary.hit_parts;
        let parts = hits + summary.fill_parts;
        let label = &mut ran.outcome.report.label;
        *label = format!("{label} ({hits}/{parts} partitions hit)");
    }
    Ok(ran)
}

/// Run a staged operator's second child with the predicate it wrote (if
/// it wrote one) pushed into the scans below.
fn run_pushed(
    ctx: &QueryContext,
    tree: &PlanNode,
    predicate: Option<Expr>,
    sink: Sink<'_>,
) -> Result<Ran> {
    match predicate {
        Some(p) => run(ctx, &push_predicate(tree, &p), sink),
        None => run(ctx, tree, sink),
    }
}

/// The scan predicate a K-th value `t` of `column` makes: the rows at or
/// before `t` in query order. NULL keys sort first ascending and last
/// descending ([`Value::total_cmp`]): ascending they are asked for by
/// name wherever the column can hold one, and are all there is to ask
/// for when `t` itself is NULL; descending a NULL `t` bounds nothing.
/// NaN sorts after every number, yet `<=` and `>=` hold for it nowhere:
/// descending the NaN rows are asked for by CSV text ([`group_key`])
/// wherever a FLOAT column can hold one, and are all there is to ask for
/// when `t` is NaN; ascending a NaN `t` bounds nothing. Where a column
/// can hold either, `table`'s statistics say — a threshold the catalog
/// answered passes the table without them: the executor checks it
/// against a row count only, which a NULL or a NaN written since load
/// would pass unseen.
pub(crate) fn threshold_predicate(table: &Table, col: &str, asc: bool, t: &Value) -> Option<Expr> {
    let c = || Expr::col(col.to_string());
    let is_null = || Expr::IsNull {
        expr: Box::new(c()),
        negated: false,
    };
    let is_nan = || {
        let (operand, literal) = group_key(table, col);
        Expr::eq(operand, literal(&Value::Float(f64::NAN)))
    };
    let lit = Expr::Literal(t.clone());
    match t {
        Value::Null => asc.then(is_null),
        Value::Float(f) if f.is_nan() => (!asc).then(is_nan),
        _ if asc && table.may_be_null(col) => Some(Expr::or(Expr::lt_eq(c(), lit), is_null())),
        _ if asc => Some(Expr::lt_eq(c(), lit)),
        _ if table.may_be_nan(col) => Some(Expr::or(Expr::gt_eq(c(), lit), is_nan())),
        _ => Some(Expr::gt_eq(c(), lit)),
    }
}

/// How many groups one CASE-WHEN statement may hold under the engine's
/// SQL size limit, its own text `fixed` bytes ([`case_when_fixed`]) and
/// every group adding at most `group` ([`case_when_group`]) — the
/// chunking of [`case_when_aggregate`], which the pricer reads too.
pub(crate) fn case_when_chunk(ctx: &QueryContext, fixed: usize, group: usize) -> usize {
    let budget = ctx.engine.limits().max_sql_bytes.saturating_sub(fixed);
    (budget / group.max(1)).max(1)
}

/// The text a CASE-WHEN statement ships whatever its groups: `SELECT`,
/// `FROM`, the `WHERE` and, with `kept`, the `COUNT(*)` of the rows it
/// keeps — less one joint, which [`case_when_group`] counts per group.
pub(crate) fn case_when_fixed(predicate: &Option<Expr>, kept: bool) -> usize {
    let filter = predicate
        .as_ref()
        .map_or(0, |w| " WHERE ".len() + w.to_string().len());
    let count = if kept { "COUNT(*), ".len() } else { 0 };
    "SELECT ".len() + " FROM S3Object".len() - ", ".len() + filter + count
}

/// The text the group `key` adds to a CASE-WHEN statement of `aggs`
/// ([`case_when_stmt`]): its items as the engine receives them — an
/// `AVG` as a `SUM` and a `COUNT` ([`Partials`]), each repeating the
/// group's equality and naming its own column — each with a joint.
pub(crate) fn case_when_group(
    table: &Table,
    group_cols: &[String],
    aggs: &[(AggFunc, Option<String>)],
    key: &[Value],
) -> Result<usize> {
    let stmt = case_when_stmt(table, &None, group_cols, aggs, &[key.to_vec()]);
    let shipped = Partials::of(&stmt)?.grouped(&stmt).select.items;
    Ok(shipped
        .iter()
        .map(|i| i.to_string().len() + ", ".len())
        .sum())
}

/// A group-key column of `table` as a pushed statement compares it, and
/// how it writes one of its values: a FLOAT column by its CSV text,
/// because SQL's `=` cannot single out the groups the total order keeps
/// apart — NaN equals nothing, `-0.0` equals `0.0` —; any other column
/// by value.
fn group_key(table: &Table, column: &str) -> (Expr, fn(&Value) -> Expr) {
    let (expr, dtype) = (Box::new(Expr::col(column.to_string())), DataType::Str);
    match table
        .schema
        .resolve(column)
        .map(|i| table.schema.dtype_of(i))
    {
        Ok(DataType::Float) => (Expr::Cast { expr, dtype }, |v| Expr::str(v.to_csv_field())),
        _ => (*expr, |v| Expr::Literal(v.clone())),
    }
}

/// Predicate selecting the rows of one (possibly multi-column) group:
/// equality per key part ([`group_key`]), `IS NULL` for a NULL part
/// (`c = NULL` is never true).
fn group_eq(table: &Table, group_cols: &[String], key: &[Value]) -> Expr {
    let conj: Vec<Expr> = group_cols
        .iter()
        .zip(key)
        .map(|(c, v)| match v {
            Value::Null => Expr::IsNull {
                expr: Box::new(Expr::col(c.clone())),
                negated: false,
            },
            v => {
                let (operand, literal) = group_key(table, c);
                Expr::eq(operand, literal(v))
            }
        })
        .collect();
    Expr::conjunction(conj).expect("non-empty group columns")
}

/// What the pushed CASE-WHEN statements of a staged group-by returned.
struct CaseWhenPass {
    /// One `group key ++ aggregate values` row per group.
    rows: Vec<Row>,
    /// The statements' summed footprint, and on a cluster each busy
    /// node's share of it, by id.
    stats: PhaseStats,
    nodes: Vec<(usize, PhaseStats)>,
    /// The rows the groups counted, where the statements counted them
    /// ([`listed_case_when_aggregate`]), and the rows the WHERE keeps,
    /// where the first statement counted those too.
    counted: u64,
    kept: Option<u64>,
}

/// The pushed CASE-WHEN aggregation of `groups` (paper Listing 4): one
/// `agg(CASE WHEN g = v THEN x END)` item per (group, aggregate), in
/// pushed scalar-aggregate statements chunked under the SQL size limit,
/// each statement's one merged row reshaped into `group key ++ aggregate
/// values` rows. With `kept`, the first statement ends in a `COUNT(*)`
/// of the rows its WHERE keeps.
fn case_when_aggregate(
    ctx: &QueryContext,
    table: &Table,
    predicate: &Option<Expr>,
    group_cols: &[String],
    aggs: &[(AggFunc, Option<String>)],
    groups: &[Vec<Value>],
    kept: bool,
) -> Result<CaseWhenPass> {
    let mut pass = CaseWhenPass {
        rows: Vec::new(),
        stats: PhaseStats::default(),
        nodes: Vec::new(),
        counted: 0,
        kept: None,
    };
    if groups.is_empty() {
        return Ok(pass);
    }
    // Chunked at the widest group, so no statement passes the limit.
    let widths = groups
        .iter()
        .map(|key| case_when_group(table, group_cols, aggs, key));
    let widest = widths.collect::<Result<Vec<_>>>()?.into_iter().max();
    let chunk = case_when_chunk(ctx, case_when_fixed(predicate, kept), widest.unwrap_or(0));
    for (i, batch) in groups.chunks(chunk).enumerate() {
        let mut stmt = case_when_stmt(table, predicate, group_cols, aggs, batch);
        let count_kept = kept && i == 0;
        if count_kept {
            stmt.items.push(SelectItem::Agg {
                func: AggFunc::Count,
                arg: None,
                alias: None,
            });
        }
        // One pushed scalar aggregate: a partial row per partition.
        let partials = Partials::of(&stmt)?;
        let source = ScanSource::Select(None);
        let (rows, scan) = scan_partials(ctx, table, source, &stmt, &partials, true)?;
        let rows = partials.merge(rows, &mut PhaseStats::default())?;
        pass.stats.merge(&scan.stats);
        for (k, share) in scan.nodes {
            match pass.nodes.iter_mut().find(|(id, _)| *id == k) {
                Some((_, total)) => total.merge(&share),
                None => pass.nodes.push((k, share)),
            }
        }
        let mut values = rows[0].values();
        if count_kept {
            let (last, rest) = values.split_last().expect("the COUNT(*) item");
            pass.kept = Some(last.as_i64()? as u64);
            values = rest;
        }
        for (key, aggregates) in batch.iter().zip(values.chunks(aggs.len())) {
            let row = key.iter().chain(aggregates).cloned().collect();
            pass.rows.push(Row::new(row));
        }
    }
    Ok(pass)
}

/// One pushed CASE-WHEN statement of [`case_when_aggregate`]: an
/// `agg(CASE WHEN g = v THEN x END)` item per (group of `batch`,
/// aggregate), filtered by `predicate`.
pub(crate) fn case_when_stmt(
    table: &Table,
    predicate: &Option<Expr>,
    group_cols: &[String],
    aggs: &[(AggFunc, Option<String>)],
    batch: &[Vec<Value>],
) -> SelectStmt {
    let mut items = Vec::with_capacity(batch.len() * aggs.len());
    for key in batch {
        let eq = group_eq(table, group_cols, key);
        for (f, c) in aggs {
            // CASE WHEN g = v THEN x END — the ELSE-less NULL arm is
            // skipped by every aggregate, and so is a NULL `x`:
            // COUNT(x) counts what it counts server-side. Only
            // COUNT(*) counts the group's rows, as `THEN 1`.
            let arg = Expr::Case {
                branches: vec![(eq.clone(), c.clone().map_or(Expr::int(1), Expr::col))],
                else_expr: None,
            };
            items.push(SelectItem::Agg {
                func: *f,
                arg: Some(arg),
                alias: None,
            });
        }
    }
    SelectStmt {
        items,
        alias: None,
        where_clause: predicate.clone(),
        limit: None,
    }
}

/// `aggs` with a row count among them, and where it is: the statement's
/// own `COUNT(*)` — pushed, `COUNT(CASE WHEN g = v THEN 1 END)` — or one
/// added after the others.
pub(crate) fn counted_aggs(
    aggs: &[(AggFunc, Option<String>)],
) -> (Vec<(AggFunc, Option<String>)>, usize) {
    let star = (AggFunc::Count, None);
    match aggs.iter().position(|a| *a == star) {
        Some(at) => (aggs.to_vec(), at),
        None => ([aggs, &[star]].concat(), aggs.len()),
    }
}

/// [`case_when_aggregate`] of groups listed before the query ran — the
/// hybrid split's catalog dictionary —, which need not have a row in it:
/// each statement also counts its groups' rows ([`counted_aggs`]), a
/// group that counts none yields no row, and the pass says how many rows
/// they counted.
fn listed_case_when_aggregate(
    ctx: &QueryContext,
    table: &Table,
    predicate: &Option<Expr>,
    group_cols: &[String],
    aggs: &[(AggFunc, Option<String>)],
    groups: &[Vec<Value>],
    kept: bool,
) -> Result<CaseWhenPass> {
    let (counted, at) = counted_aggs(aggs);
    let mut pass = case_when_aggregate(ctx, table, predicate, group_cols, &counted, groups, kept)?;
    let (count, width) = (group_cols.len() + at, group_cols.len() + aggs.len());
    let mut rows = Vec::with_capacity(pass.rows.len());
    for mut r in pass.rows {
        match r[count].as_i64()? {
            0 => continue,
            n => pass.counted += n as u64,
        }
        r.0.truncate(width);
        rows.push(r);
    }
    pass.rows = rows;
    Ok(pass)
}

/// Whether a hybrid split pushing `pushed` groups off `dictionary`
/// covers its grouping column `column` of `table`: it pushes every group
/// the dictionary lists, and exact statistics saw no NULL in the column.
/// Then the pushed pass should hold every row, and the tail is run only
/// when a row count says the rows have changed since load.
pub(crate) fn covers(
    table: &Table,
    column: &str,
    dictionary: &Option<Vec<(Value, u64)>>,
    pushed: usize,
) -> bool {
    dictionary.as_ref().is_some_and(|d| d.len() == pushed) && !table.may_be_null(column)
}

/// The predicate a hybrid split writes into its tail: the rows of
/// `column` whose group it did not push. `g NOT IN (…)` is never true
/// for a NULL `g`, so the NULL-key rows — a tail group like any other —
/// are asked for by name wherever `table` says the column can hold one.
fn tail_predicate(table: &Table, column: &str, pushed: &[Value]) -> Expr {
    let (operand, literal) = group_key(table, column);
    let not_in = Expr::InList {
        expr: Box::new(operand),
        list: pushed.iter().map(literal).collect(),
        negated: true,
    };
    if !table.may_be_null(column) {
        return not_in;
    }
    let is_null = Expr::IsNull {
        expr: Box::new(Expr::col(column.to_string())),
        negated: false,
    };
    Expr::or(not_in, is_null)
}

/// The table, predicate and grouping column a hybrid split writes its SQL
/// against: its first child's pushed scan — the sample, or the tail when
/// the catalog decides the split — delivers the grouping column first.
pub(crate) fn hybrid_leaf(node: &PlanNode) -> Result<(&Table, &Option<Expr>, &[String])> {
    let (table, predicate, cols) = node.children[0].pushdown_leaf()?;
    let group = cols
        .get(..1)
        .ok_or_else(|| Error::Other("a hybrid split's scan projects no column".into()))?;
    Ok((table, predicate, group))
}

/// How a hash join's two children run — the executor and the pricer
/// ([`crate::cost::predict_plan`]) ask alike. On the single-node engine a
/// join **pipelines** when its build side is one scan under streaming
/// operators and its probe side a pipeline (the same, or a pipelined
/// join) over other tables: two scans of one table would race for its
/// objects' fault ordinals, which must not depend on timing. Under a
/// segment cache too: both sides only read the cache while they run and
/// the join applies what they did to it once both are in, build side
/// first ([`run_pipelined`]), so fill and eviction order do not depend
/// on timing either. A join over a pipelined join runs build, then
/// probe; the rest are priced as two concurrent loads.
pub(crate) fn hash_join_sides(ctx: &QueryContext, node: &PlanNode) -> Sides {
    fn pipelines(node: &PlanNode) -> bool {
        matches!(node.op, PlanOp::HashJoin { .. }) && pipeline_tables(node, true).is_some()
    }
    fn holds_pipelined(node: &PlanNode) -> bool {
        pipelines(node) || node.children.iter().any(holds_pipelined)
    }
    if ctx.cluster.is_some() {
        Sides::Concurrent
    } else if pipelines(node) {
        Sides::Pipelined
    } else if node.children.iter().any(holds_pipelined) {
        Sides::Serial
    } else {
        Sides::Concurrent
    }
}

/// The tables a pipeline reads, if `node` is one: a scan under streaming
/// operators, or (with `joins`) a hash join whose build side is such a
/// scan and whose probe side a pipeline over other tables.
fn pipeline_tables(node: &PlanNode, joins: bool) -> Option<Vec<&Table>> {
    match &node.op {
        PlanOp::Scan { table, .. } => Some(vec![table]),
        PlanOp::LocalFilter { .. } | PlanOp::Project { .. } => {
            pipeline_tables(&node.children[0], joins)
        }
        PlanOp::HashJoin { .. } if joins => {
            let build = pipeline_tables(&node.children[0], false)?;
            let mut tables = pipeline_tables(&node.children[1], true)?;
            let same = |a: &Table, b: &Table| a.bucket == b.bucket && a.name == b.name;
            let shared = build.iter().any(|b| tables.iter().any(|t| same(b, t)));
            (!shared).then(|| {
                tables.extend(build);
                tables
            })
        }
        _ => None,
    }
}

/// A pipelined hash join's two children ([`hash_join_sides`]): the probe
/// child runs on a thread of its own while the build child fills the
/// join table here; its batches queue until the table is whole and are
/// then probed in the order the probe side produced them. An error on
/// either side stops the other, and the build side's is the one
/// reported, as a serial join would.
///
/// Under a segment cache both sides read the cache as it was when the
/// join started: their cached scans hold what they did to it
/// ([`crate::scan::CacheEffects`]), and once both sides are in the join
/// applies the build side's, then the probe side's, each in partition
/// order — or, as one side of a pipelined join itself, hands them on, so
/// a chain of joins applies them in plan order. A failed join applies
/// none.
fn run_pipelined(
    ctx: &QueryContext,
    node: &PlanNode,
    join: &mut Join,
    emit: &mut Emit<'_>,
) -> Result<(Ran, Ran)> {
    let (build_node, probe_node) = (&node.children[0], &node.children[1]);
    let sides = [CacheEffects::default(), CacheEffects::default()];
    let (build_ctx, probe_ctx) = (ctx.deferring(&sides[0]), ctx.deferring(&sides[1]));
    let stopped = || Error::Other("the hash join stopped reading its probe side".into());
    let abandoned = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel();
    let ran = std::thread::scope(|s| {
        let (abandoned, probe_ctx) = (&abandoned, &probe_ctx);
        let probe = s.spawn(move || {
            run(probe_ctx, probe_node, &mut |batch| {
                if abandoned.load(Ordering::Relaxed) {
                    return Err(stopped());
                }
                tx.send(batch).map_err(|_| stopped())
            })
        });
        let build = run(&build_ctx, build_node, &mut |batch| join.build(batch)).and_then(|build| {
            rx.iter().try_for_each(|batch| join.probe(batch, emit))?;
            Ok(build)
        });
        if build.is_err() {
            abandoned.store(true, Ordering::Relaxed);
        }
        drop(rx);
        let probe = probe
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Ok((build?, probe?))
    })?;
    settle(ctx, sides.iter().flat_map(CacheEffects::take).collect());
    Ok(ran)
}

/// The state of one hash join while its children run: the build table,
/// the resolved keys and the join's own CPU footprint.
struct Join {
    table: ops::HashJoinBuild,
    build_key: usize,
    probe_key: usize,
    schema: Schema,
    local: PhaseStats,
}

impl Join {
    fn new(node: &PlanNode, build_key: &str, probe_key: &str) -> Result<Join> {
        let (build, probe) = (&node.children[0].schema, &node.children[1].schema);
        let build_key = build.resolve(build_key)?;
        Ok(Join {
            table: ops::HashJoinBuild::new(build_key),
            build_key,
            probe_key: probe.resolve(probe_key)?,
            schema: build.join(probe),
            local: PhaseStats::default(),
        })
    }

    fn build(&mut self, batch: RowBatch) -> Result<()> {
        self.table.add_batch(batch.rows, &mut self.local);
        Ok(())
    }

    fn probe(&mut self, batch: RowBatch, emit: &mut Emit<'_>) -> Result<()> {
        let (table, key, local) = (&self.table, self.probe_key, &mut self.local);
        match emit {
            Emit::Rows(sink) => {
                let rows = table.probe_batch(&batch.rows, key, local);
                forward(RowBatch::new(self.schema.clone(), rows), &mut **sink)
            }
            Emit::Matches(visit, narrow) => {
                let mut matched = 0;
                table.probe_each(&batch.rows, key, local, |l, r| {
                    matched += 1;
                    visit(l, r)
                })?;
                if *narrow {
                    local.server_cpu_units += matched;
                }
                Ok(())
            }
        }
    }
}

/// Deterministic hash route of a row to one of `n` repartition buckets,
/// keyed on the CSV encodings of its key columns.
fn route_row(row: &Row, keys: &[usize], n: usize) -> usize {
    let text = keys
        .iter()
        .map(|&c| row[c].to_csv_field())
        .collect::<Vec<_>>()
        .join("\x1f");
    (pushdown_common::mix::splitmix64(pushdown_common::mix::fnv1a(text.bytes())) % n as u64)
        as usize
}

/// The row a partitioned group-by shuffles per input row: its key
/// columns, then each other column its aggregates read, in the order they
/// first read it — the columns of that row, and the aggregates re-pointed
/// at it.
pub(crate) fn narrow_row(
    keys: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
) -> (Vec<usize>, Vec<(AggFunc, Option<usize>)>) {
    let mut cols = keys.to_vec();
    let aggs = aggs
        .iter()
        .map(|&(f, c)| {
            let at = c.map(|c| {
                cols.iter().position(|&x| x == c).unwrap_or_else(|| {
                    cols.push(c);
                    cols.len() - 1
                })
            });
            (f, at)
        })
        .collect();
    (cols, aggs)
}

/// A group-by on a cluster of `n` nodes over anything but a scan leaf
/// ([`run_grouped_leaf`] shuffles a scan's partials instead): the
/// child's rows, shuffled by group key ([`shuffled`]), aggregated per node
/// — each group lives wholly in one bucket with its rows in their order,
/// so aggregate values and the sorted output are bit-identical to the
/// serial operator's. Over a join ([`folded_join`]) each match shuffles as
/// the row of its keys and arguments ([`narrow_row`]), never the joined
/// one.
fn run_partitioned_group_by(
    ctx: &QueryContext,
    node: &PlanNode,
    keys: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
    order: &Option<Order>,
    cluster: &Cluster,
    sink: Sink<'_>,
) -> Result<Ran> {
    let (narrow, narrow_aggs) = narrow_row(keys, aggs);
    let folds = folded_join(node).is_some();
    let (group_cols, aggs) = match folds {
        true => ((0..keys.len()).collect(), narrow_aggs.as_slice()),
        false => (keys.to_vec(), aggs),
    };
    let mut rows = Vec::new();
    let child = match folds {
        true => fold(ctx, node, 0, &mut PhaseStats::default(), &mut |input| {
            rows.push(Row::new(
                narrow.iter().map(|&c| input.get(c).clone()).collect(),
            ));
            Ok(())
        })?,
        false => run(ctx, &node.children[0], &mut |batch| {
            rows.extend(batch.rows);
            Ok(())
        })?,
    };
    let group =
        |bucket: Vec<Row>, st: &mut PhaseStats| ops::hash_group_by(&bucket, &group_cols, aggs, st);
    let shares = vec![PhaseStats::default(); cluster.n()];
    let (rows, own) = shuffled(cluster, rows, &group_cols, group, shares, order)?;
    emit(ctx, &node.schema, rows, sink)?;
    composed(ctx, node, own, vec![child])
}

/// A partitioned group-by's shuffle: `rows` hashed on their group
/// columns `route` into one bucket per node of `cluster`, in their
/// order, each bucket aggregated by `group` on a thread of its own —
/// node `k`'s work, charged to its share beside what `shares` says it
/// did before the shuffle — into rows that lead with the group columns,
/// and the groups merged back by re-sorting on them: the merge is the
/// operator's finish, so its `order`, if it has one, runs there. Each
/// node meters what it receives of the all-to-all shuffle (the expected
/// cross-node share under uniformly spread producers) as exchange.
fn shuffled(
    cluster: &Cluster,
    rows: Vec<Row>,
    route: &[usize],
    group: impl Fn(Vec<Row>, &mut PhaseStats) -> Result<Vec<Row>> + Sync,
    mut shares: Vec<PhaseStats>,
    order: &Option<Order>,
) -> Result<(Vec<Row>, Own)> {
    let n = cluster.n();
    let mut buckets: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
    let mut bucket_bytes = vec![0u64; n];
    for row in rows {
        let t = route_row(&row, route, n);
        bucket_bytes[t] += row_exchange_bytes(&row);
        buckets[t].push(row);
    }
    let group = &group;
    let results: Vec<Result<Vec<Row>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (buckets.into_iter().zip(shares.iter_mut()))
            .map(|(bucket, share)| s.spawn(move || group(bucket, share)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("group-by node thread panicked"))
            .collect()
    });
    let (mut groups, mut actual) = (Vec::new(), PhaseStats::default());
    for (k, result) in results.into_iter().enumerate() {
        groups.extend(result?);
        let received = bucket_bytes[k] - bucket_bytes[k] / n as u64;
        shares[k].exchange_bytes += received;
        let shipped = &cluster.node(k).exchange_bytes;
        shipped.fetch_add(received, std::sync::atomic::Ordering::Relaxed);
        actual.merge(&shares[k]);
    }
    let mut merge_stats = PhaseStats::default();
    let sort_keys: Vec<(usize, bool)> = (0..route.len()).map(|i| (i, true)).collect();
    let rows = ops::sort_rows_by_keys(groups, &sort_keys, &mut merge_stats);
    let rows = finish_groups(order, rows, &mut merge_stats);
    actual.merge(&merge_stats);
    Ok((rows, Own::Partitioned(actual, shares, merge_stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use crate::planner::run_candidate;
    use pushdown_s3::S3Store;

    /// A name a statement does not lower to is an error — it used to run
    /// as `server-side`. Every algorithm is a candidate tree of IR
    /// operators, so the names a statement has are exactly its
    /// candidates': no other family's, none for a variant that does not
    /// apply.
    #[test]
    fn unknown_variants_are_errors_not_server_side() {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::new(vec![Value::Int(i % 5), Value::Float(i as f64)]))
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 20).unwrap();
        let ctx = QueryContext::new(store).with_cache(1 << 20);
        let group_by = "SELECT g, SUM(v) FROM t GROUP BY g";
        let top_k = "SELECT * FROM t ORDER BY v LIMIT 3";
        let run = |sql: &str, name: &str| run_candidate(&ctx, &t, sql, name, None);
        // Both families have the two local variants…
        for name in ["server-side", "cached-local"] {
            run(group_by, name).unwrap();
            run(top_k, name).unwrap();
        }
        // …and neither has these: a name no family knows, the join
        // family's name.
        for name in ["bogus", "", "baseline"] {
            for sql in [group_by, top_k] {
                let err = run(sql, name).unwrap_err();
                assert_eq!(err.code(), "BindError", "{name}: {err}");
                assert!(err.to_string().contains(name), "{err}");
            }
        }
        // Each family's pushed variants are its own.
        for name in ["filtered", "hybrid", "s3-side"] {
            run(group_by, name).unwrap();
            assert_eq!(run(top_k, name).unwrap_err().code(), "BindError");
        }
        run(top_k, "sampling").unwrap();
        assert_eq!(run(group_by, "sampling").unwrap_err().code(), "BindError");
    }

    /// The one injection point: every pushed scan under the tree gets the
    /// predicate ANDed in, and nothing else changes; the tree then runs
    /// through the partition fan-out, every partition on its owning node.
    #[test]
    fn push_predicate_reaches_every_pushed_scan_through_the_fan_out() {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::new(vec![Value::Int(i % 5), Value::Float(i as f64)]))
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 10).unwrap();
        let ctx = QueryContext::new(store).with_nodes(4);
        let spec = pushdown_sql::parse_query("SELECT g, SUM(v) FROM t WHERE v > 3 GROUP BY g");
        let candidates = crate::joinplan::lower_candidates(&ctx, &t, &spec.unwrap()).unwrap();
        let (_, filtered) = candidates.iter().find(|(n, _)| *n == "filtered").unwrap();
        let extra = pushdown_sql::parse_expr("g <> 2").unwrap();
        fn predicates(node: &PlanNode, out: &mut Vec<String>) {
            if let PlanOp::Scan {
                predicate,
                source: ScanSource::Select(_),
                ..
            } = &node.op
            {
                out.push(predicate.as_ref().map_or(String::new(), Expr::to_string));
            }
            node.children.iter().for_each(|c| predicates(c, out));
        }
        let (mut before, mut after) = (Vec::new(), Vec::new());
        let pushed = push_predicate(filtered, &extra);
        predicates(filtered, &mut before);
        predicates(&pushed, &mut after);
        assert!(!before.is_empty());
        assert_eq!(after.len(), before.len());
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(*a, format!("{b} AND {extra}"));
        }
        // The answer is the statement's with the predicate in its WHERE,
        // and more than one node ran its partitions.
        let ran = execute(&ctx.scoped(), &pushed).unwrap();
        let cluster = ctx.cluster.as_ref().unwrap();
        let busy = cluster
            .snapshots()
            .into_iter()
            .filter(|n| n.usage.requests > 0);
        assert!(busy.count() > 1);
        let sql = "SELECT g, SUM(v) FROM t WHERE v > 3 AND g <> 2 GROUP BY g";
        let want = run_candidate(&ctx, &t, sql, "server-side", None).unwrap();
        assert_eq!(ran.rows, want.rows);
    }
}
