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
//! partition producer), and one writes what it reports (`leaf`) for
//! the executor and the pricer alike. Interior operators
//! compose them into multi-table queries: hash equi-joins (with an
//! optional Bloom runtime filter injected into the probe scan, paper
//! §V-A2), residual filters, projections, hash aggregation, multi-key
//! sort and limit. A single-table statement is a join of one table — a
//! bare scan leaf under the same stack — so the paper's §IV filter,
//! §VIII-Q6 scalar aggregate ([`PlanOp::PushdownAggregate`] is its pushed
//! leaf) and §VI server-side / filtered group-by are trees of these
//! operators and nothing else.
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
//! child, and each writes the same predicate into its one child.)
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
//!   other join runs its children one after the other,
//!   each scan filling the worker pool by itself; the model still prices
//!   a hash join's two single-group sides as loading side by side
//!   ([`QueryMetrics::join_sides`]), which is what the planner priced;
//! * group-by and scalar aggregation — accumulators only; a grouping
//!   operator's ORDER BY runs over its finished groups, inside it
//!   ([`Order`]);
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
//! next one — the rule is [`QueryMetrics::stack`]'s, and every interior
//! operator here reports through it, as every interior node of
//! [`crate::cost::predict_plan`] does. `Limit` charges nothing and
//! reports no phase.
//!
//! `Limit` passes rows until it is full and then **keeps draining** its
//! child: a scan that stopped at the limit would fetch, and bill, less
//! than the plan the optimizer priced and the serial engine ran, so the
//! rows past the limit are dropped on arrival instead.
//!
//! Execution reports per-operator [`PhaseStats`] in an [`OpReport`]
//! tree; [`crate::cost::predict_plan`] produces the same tree shape from
//! catalog statistics, and the planner zips the two so `EXPLAIN` can
//! show predicted-vs-actual per node. Every operator charges what
//! [`crate::ops`] charges for the same rows however they are batched,
//! so rows, reports, metrics and bills do not depend on `batch_rows` or
//! `scan_threads`.
//!
//! **On a cluster** the tree is the same: the scan fan-out runs every
//! partition on the node owning it ([`crate::scan`]), a scan leaf reports
//! one phase per busy node in one parallel group, each node an
//! `Exchange[…]` child of its report, and a [`PlanOp::GroupBy`] runs
//! partitioned — its rows shuffled by group key to one partial group-by
//! per node.

use crate::catalog::Table;
use crate::cluster::Cluster;
use crate::context::QueryContext;
use crate::metrics::{Flow, QueryMetrics, Sides};
use crate::ops;
use crate::output::QueryOutput;
use crate::scan::{
    row_exchange_bytes, scan, select_scan_aggregate, settle, CacheEffects, ScanFragment, ScanLimit,
    ScanSource,
};
use pushdown_bloom::{BloomBuilder, BloomPlan};
use pushdown_common::perf::{PerfModel, PhaseStats};
use pushdown_common::row::RowBatch;
use pushdown_common::{DataType, Error, Result, Row, Schema, Value};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::bind::Binder;
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
    /// Leaf: an aggregate statement pushed into S3 Select whole (§VIII
    /// Q6): every partition answers `stmt`'s aggregates — per group of
    /// `group_by` under the engine's §X native `GROUP BY` extension — and
    /// the scan merges the partials.
    PushdownAggregate {
        table: Table,
        stmt: SelectStmt,
        group_by: Vec<String>,
        /// A grouped leaf's finish: the ORDER BY it applies to the
        /// merged groups.
        order: Option<Order>,
    },
    /// Hash inner equi-join: children `[build, probe]`, output rows are
    /// `build ++ probe`. The build child is drained into the join table,
    /// then the probe child streams through it.
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
    /// filter bits per SQL character instead of one.
    BloomJoin {
        build_key: String,
        probe_key: String,
        fpr: f64,
    },
    /// Residual predicate spanning tables, evaluated locally.
    LocalFilter { predicate: Expr },
    /// Compute one expression per output column (names carried by the
    /// node schema).
    Project { exprs: Vec<Expr> },
    /// Hash aggregation: input columns `0..group_width` are the group
    /// key; aggregate *i* consumes input column `aggs[i].1` (`None` =
    /// `COUNT(*)`). Output sorted by group key (deterministic) — which is
    /// what makes an ORDER BY on an ascending prefix of the group key
    /// free: the lowering stacks no sort for it, a LIMIT at most. Any
    /// other ORDER BY is the `order` the operator applies to its finished
    /// groups, inside its own breaker ([`Order`]). So are the other
    /// grouping operators' — [`PlanOp::CaseWhen`], [`PlanOp::HybridSplit`]
    /// and a grouped [`PlanOp::PushdownAggregate`] —, which emit group-key
    /// order too.
    GroupBy {
        group_width: usize,
        aggs: Vec<(AggFunc, Option<usize>)>,
        order: Option<Order>,
    },
    /// Scalar aggregation: one output row, even over empty input.
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
    /// locally, in parallel (paper Listing 5). The groups are counted in a
    /// prefix sample of the grouping column, or read off `dictionary` —
    /// its load-time row counts ([`crate::catalog::Table::dictionary`])
    /// — with no sample phase at all. A listed group need not have a row
    /// in this query (its WHERE emptied it, or it has gone since load), so
    /// that way every pushed group also counts its rows and an empty one
    /// yields no row; a group the list misses is in the tail. With no
    /// populous group the tail runs unchanged, `order` as its finish.
    /// `force` pushes exactly that many groups, the largest, whatever
    /// their share (Fig 6's sweep).
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
            None => (n * n.log2().max(1.0), n),
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
    /// The ORDER BY slot of a grouping operator (a pushed aggregate leaf is
    /// one when it groups), `None` for any other operator.
    pub(crate) fn order_mut(&mut self) -> Option<&mut Option<Order>> {
        match self {
            PlanOp::GroupBy { order, .. }
            | PlanOp::CaseWhen { order, .. }
            | PlanOp::HybridSplit { order, .. }
            | PlanOp::PushdownAggregate { order, .. } => Some(order),
            _ => None,
        }
    }

    /// The ORDER BY a grouping operator finishes its groups with.
    fn order(&self) -> Option<&Order> {
        match self {
            PlanOp::GroupBy { order, .. }
            | PlanOp::CaseWhen { order, .. }
            | PlanOp::HybridSplit { order, .. }
            | PlanOp::PushdownAggregate { order, .. } => order.as_ref(),
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
            PlanOp::PushdownAggregate {
                table,
                stmt,
                group_by,
                ..
            } => {
                let is_agg = |i: &&SelectItem| matches!(i, SelectItem::Agg { .. });
                let aggs = stmt.items.iter().filter(is_agg).count();
                match group_by.len() {
                    0 => format!("PushdownAggregate[{}, {aggs} aggs]", table.name),
                    keys => format!(
                        "PushdownAggregate[{}, {keys} keys, {aggs} aggs]",
                        table.name
                    ),
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
            PlanOp::GroupBy {
                group_width, aggs, ..
            } => format!("GroupBy[{group_width} keys, {} aggs]", aggs.len()),
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
            PlanOp::Scan { table, .. } | PlanOp::PushdownAggregate { table, .. } => Some(table),
            _ => None,
        }
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
            PlanOp::PushdownAggregate { .. } => true,
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
    fn leaf(label: String, actual: PhaseStats) -> OpReport {
        OpReport {
            label,
            predicted: None,
            actual,
            children: Vec::new(),
        }
    }

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
fn scan_stmt(projection: &Option<Vec<String>>, predicate: &Option<Expr>) -> SelectStmt {
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

/// The builder a Bloom join plans its filter with. §X Suggestion 3: the
/// hex / `BIT_AT` encoding of the engine's `bitwise` extension packs four
/// filter bits per SQL character, so the same statement budget plans a
/// filter four times the size.
pub(crate) fn bloom_builder(ctx: &QueryContext) -> BloomBuilder {
    let mut builder = ctx.bloom;
    if ctx.engine.extensions().bitwise {
        builder.max_sql_bytes = builder.max_sql_bytes.saturating_mul(4);
    }
    builder
}

/// Phase label of a Bloom join's probe scan: what §V-B1 made of the
/// requested false-positive rate.
pub(crate) fn bloom_probe_phase(planned: &BloomPlan) -> String {
    match planned {
        BloomPlan::AsRequested { .. } => "bloom probe".into(),
        BloomPlan::Degraded { requested, fpr } => {
            format!("bloom probe (fpr {requested} degraded to {fpr})")
        }
        BloomPlan::Fallback => "fallback probe (no bloom)".into(),
    }
}

/// Attach the prediction tree's per-node stats to the execution report.
/// The two trees have the same shape by construction (same plan).
pub fn annotate(report: &mut OpReport, predicted: &crate::cost::PredNode) {
    report.predicted = Some(predicted.stats);
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
        metrics: ran.metrics,
        report: ran.report,
    })
}

/// Where an operator pushes its output batches.
type Sink<'a> = &'a mut dyn FnMut(RowBatch) -> Result<()>;

/// What [`run`] reports once a subtree has pushed its last batch.
struct Ran {
    schema: Schema,
    metrics: QueryMetrics,
    report: OpReport,
}

impl Ran {
    /// Make `node` the root of the report, over this (its child's) tree.
    fn under(self, node: &PlanNode, actual: PhaseStats) -> Ran {
        Ran {
            report: OpReport {
                label: node.label(),
                predicted: None,
                actual,
                children: vec![self.report],
            },
            ..self
        }
    }

    /// Stack a unary operator over this (its child's) outcome: its own
    /// footprint `local` becomes the report root and joins the phases
    /// by the phase rule. The schema stays the child's.
    fn stacked(mut self, node: &PlanNode, phase: &str, local: PhaseStats, flow: Flow) -> Ran {
        self.metrics.stack(phase, local, flow);
        self.under(node, local)
    }

    /// [`Ran::stacked`] for an operator that emits `node.schema`.
    fn reshaped(self, node: &PlanNode, phase: &str, local: PhaseStats, flow: Flow) -> Ran {
        Ran {
            schema: node.schema.clone(),
            ..self.stacked(node, phase, local, flow)
        }
    }
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
        PlanOp::PushdownAggregate {
            table,
            stmt,
            group_by,
            order,
        } => {
            let mut scan = select_scan_aggregate(ctx, table, stmt, group_by)?;
            let mut finish = PhaseStats::default();
            let rows = finish_groups(order, scan.rows, &mut finish);
            scan.stats.merge(&finish);
            // The coordinator's finish joins the first node's phase.
            if let Some((_, first)) = scan.nodes.first_mut() {
                first.merge(&finish);
            }
            // The lowering-time schema carries the statement's aliases.
            emit(ctx, &node.schema, rows, sink)?;
            let select = ScanSource::Select(None);
            let (metrics, report) = leaf(node.label(), select, table, scan.stats, &scan.nodes);
            Ok(Ran {
                schema: node.schema.clone(),
                metrics,
                report,
            })
        }
        PlanOp::HashJoin {
            build_key,
            probe_key,
        } => {
            let (build_node, probe_node) = (&node.children[0], &node.children[1]);
            let mut join = Join::new(node, build_key, probe_key)?;
            let sides = hash_join_sides(ctx, node);
            let (build, probe) = if sides == Sides::Pipelined {
                run_pipelined(ctx, node, &mut join, sink)?
            } else {
                // Build, then probe: each scan fills the worker pool by
                // itself.
                let build = run(ctx, build_node, &mut |batch| join.build(batch))?;
                let probe = run(ctx, probe_node, &mut |batch| join.probe(batch, sink))?;
                (build, probe)
            };
            Ok(join.finish(node, build, probe, sides, "hash join"))
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
            let built = bloom_builder(ctx).build(&keys, *fpr, probe_key);
            let planned = built.as_ref().map_or(&BloomPlan::Fallback, |(_, p)| p);
            let phase = bloom_probe_phase(planned);
            let bloom_pred = built.map(|(filter, _)| {
                if ctx.engine.extensions().bitwise {
                    filter.sql_predicate_binary(probe_key)
                } else {
                    filter.sql_predicate(probe_key)
                }
            });
            let mut probe = run_pushed(ctx, probe_node, bloom_pred, &mut |batch| {
                join.probe(batch, sink)
            })?;
            probe.metrics.relabel("select", &phase);
            Ok(join.finish(node, build, probe, Sides::Serial, "hash join (bloom)"))
        }
        PlanOp::LocalFilter { predicate } => {
            let child = &node.children[0];
            let bound = Binder::new(&child.schema).bind_expr(predicate)?;
            let mut local = PhaseStats::default();
            let ran = run(ctx, child, &mut |mut batch| {
                batch.rows = ops::filter_rows(batch.rows, &bound, &mut local)?;
                forward(batch, sink)
            })?;
            Ok(ran.stacked(node, "residual filter", local, Flow::Streaming))
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
            Ok(ran.reshaped(node, "project", local, Flow::Streaming))
        }
        PlanOp::GroupBy {
            group_width,
            aggs,
            order,
        } => {
            // On a cluster: per-node partial group-bys over key-hashed
            // buckets.
            if let Some(cluster) = ctx.spread() {
                return run_partitioned_group_by(
                    ctx,
                    node,
                    *group_width,
                    aggs,
                    order,
                    cluster,
                    sink,
                );
            }
            let mut acc = ops::GroupByAccumulator::new((0..*group_width).collect(), aggs.clone());
            let mut local = PhaseStats::default();
            let ran = run(ctx, &node.children[0], &mut |batch| {
                acc.update_batch(&batch.rows, &mut local)
            })?;
            let rows = acc.finish(&mut local);
            let rows = finish_groups(order, rows, &mut local);
            emit(ctx, &node.schema, rows, sink)?;
            Ok(ran.reshaped(node, "group-by", local, Flow::Breaker))
        }
        PlanOp::Aggregate { aggs } => {
            let mut accs: Vec<_> = aggs.iter().map(|(f, c)| (f.accumulator(), *c)).collect();
            let mut local = PhaseStats::default();
            let ran = run(ctx, &node.children[0], &mut |batch| {
                local.server_cpu_units += batch.len() as u64 * aggs.len().max(1) as u64;
                for r in &batch.rows {
                    for (acc, col) in accs.iter_mut() {
                        match col {
                            Some(c) => acc.update(&r[*c])?,
                            None => acc.update(&Value::Bool(true))?,
                        }
                    }
                }
                Ok(())
            })?;
            let row = Row::new(accs.iter().map(|(a, _)| a.finish()).collect());
            emit(ctx, &node.schema, vec![row], sink)?;
            Ok(ran.reshaped(node, "aggregate", local, Flow::Breaker))
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
            Ok(ran.stacked(node, "sort", local, Flow::Breaker))
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
            Ok(ran.under(node, PhaseStats::default()))
        }
        PlanOp::Threshold {
            column,
            asc,
            k,
            catalog,
        } => {
            let scan_node = node.children.last().expect("a threshold has a scan");
            let (table, ..) = scan_node.pushdown_leaf()?;
            let select = format!("select {}", table.name);
            let (mut own, mut sample) = (PhaseStats::default(), None);
            let kth = match catalog {
                Some(t) => Some(t.clone()),
                None => {
                    let mut sampled: Vec<Value> = Vec::new();
                    let mut ran = run(ctx, &node.children[0], &mut |batch| {
                        sampled.extend(batch.rows.iter().map(|r| r[0].clone()));
                        Ok(())
                    })?;
                    own.server_cpu_units = sampled.len() as u64;
                    sampled.sort_by(|a, b| if *asc { a.total_cmp(b) } else { b.total_cmp(a) });
                    ran.metrics.relabel(&select, "sampling phase");
                    ran.metrics.stack("threshold", own, Flow::Breaker);
                    sample = Some(ran);
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
            let mut scan = run_pushed(ctx, scan_node, pred, &mut |batch| {
                rows.extend(batch.rows);
                Ok(())
            })?;
            scan.metrics.relabel(&select, "scanning phase");
            let mut ran = staged(node, own, sample, scan);
            // A sample holds K rows at or before its K-th value, so the
            // table does too; the catalog's count may have gone stale.
            if bounded && rows.len() < *k {
                let mut rescan = run(ctx, scan_node, sink)?;
                rescan.metrics.relabel(&select, "rescanning phase");
                ran.metrics = QueryMetrics::join_sides(ran.metrics, rescan.metrics, Sides::Serial);
                ran.report.children.push(rescan.report);
            } else {
                emit(ctx, &node.schema, rows, sink)?;
            }
            Ok(ran)
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
            let (rows, mut stats) =
                case_when_aggregate(ctx, table, predicate, group_cols, aggs, &groups)?;
            let rows = finish_groups(order, rows, &mut stats);
            emit(ctx, &node.schema, rows, sink)?;
            Ok(ran.reshaped(node, "case-when aggregation", stats, Flow::Breaker))
        }
        PlanOp::HybridSplit {
            aggs,
            dictionary,
            force,
            order,
        } => {
            let tail_node = node.children.last().expect("a hybrid split has a tail");
            let (table, predicate, group_cols) = hybrid_leaf(node)?;
            let select = format!("select {}", table.name);
            // Phase 1, unless the catalog counted the groups: their
            // frequencies in the sample. NULL keys are never "populous":
            // their rows stay in the tail.
            let mut own = PhaseStats::default();
            let (counts, sample) = match dictionary {
                Some(counts) => (counts.clone(), None),
                None => {
                    let mut freq: HashMap<Value, u64> = HashMap::new();
                    let mut sample = run(ctx, &node.children[0], &mut |batch| {
                        own.server_cpu_units += batch.len() as u64;
                        for r in batch.rows.iter().filter(|r| !r[0].is_null()) {
                            *freq.entry(r[0].clone()).or_insert(0) += 1;
                        }
                        Ok(())
                    })?;
                    sample.metrics.relabel(&select, "hybrid: sample");
                    sample.metrics.stack("split", own, Flow::Breaker);
                    (freq.into_iter().collect(), Some(sample))
                }
            };
            let big: Vec<Value> = populous(counts, *force)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            if big.is_empty() {
                // No populous group: the tail is the whole query, the
                // order its finish.
                let tail = run(ctx, &finished_by(tail_node, order), sink)?;
                return Ok(staged(node, own, sample, tail));
            }
            // Phase 2, two concurrent requests (paper Listing 5). Q1: the
            // pushed CASE-WHEN aggregation of the populous groups.
            let keys: Vec<Vec<Value>> = big.iter().map(|v| vec![v.clone()]).collect();
            let (mut rows, mut s3) = match dictionary {
                None => case_when_aggregate(ctx, table, predicate, group_cols, aggs, &keys)?,
                Some(_) => {
                    listed_case_when_aggregate(ctx, table, predicate, group_cols, aggs, &keys)?
                }
            };
            // Q2: the long tail (group NOT IN populous), aggregated
            // locally. `g NOT IN (…)` is never true for a NULL `g`, so the
            // NULL-key rows — a tail group like any other — are asked for
            // by name wherever the column can hold one.
            let (operand, literal) = group_key(table, &group_cols[0]);
            let mut tail_pred = Expr::InList {
                expr: Box::new(operand),
                list: big.iter().map(literal).collect(),
                negated: true,
            };
            if table.may_be_null(&group_cols[0]) {
                let is_null = Expr::IsNull {
                    expr: Box::new(Expr::col(group_cols[0].clone())),
                    negated: false,
                };
                tail_pred = Expr::or(tail_pred, is_null);
            }
            let mut tail = run_pushed(ctx, tail_node, Some(tail_pred), &mut |batch| {
                rows.extend(batch.rows);
                Ok(())
            })?;
            // Populous and tail groups are disjoint: concatenate and sort.
            // The order finishes them where the populous groups arrived,
            // beside the tail.
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            emit(ctx, &node.schema, finish_groups(order, rows, &mut s3), sink)?;
            tail.metrics
                .relabel(&select, "hybrid: server-side aggregation");
            let mut pushed = QueryMetrics::new();
            pushed.push_serial("hybrid: s3-side aggregation", s3);
            tail.metrics = QueryMetrics::join_sides(pushed, tail.metrics, Sides::Concurrent);
            own.merge(&s3);
            Ok(staged(node, own, sample, tail))
        }
    }
}

/// Pass a transformed batch on, unless the operator emptied it.
fn forward(batch: RowBatch, sink: Sink<'_>) -> Result<()> {
    if batch.is_empty() {
        Ok(())
    } else {
        sink(batch)
    }
}

/// The `ORDER BY keys LIMIT k` a [`PlanOp::Sort`] hands down to the GET
/// or cache scan leaf directly below it, and where the sort reports its
/// work.
struct Best<'a> {
    keys: &'a [(usize, bool)],
    k: usize,
    work: &'a mut PhaseStats,
}

/// A scan leaf, from whichever source: `predicate` + `projection` ship
/// in the Select statement of a Select source, or run inside the
/// partition workers that decode a GET or cache read — and so does the
/// sort above, if it handed one down (`best`): each worker hands on its
/// partition's `k` best rows only, and what that cost is the sort's to
/// report.
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
    let fragment = match source {
        ScanSource::Select(_) => ScanFragment::pushed(table, scan_stmt(projection, predicate)),
        ScanSource::Plain | ScanSource::Cached => {
            let bound = match predicate {
                Some(p) => Some(Binder::new(&table.schema).bind_expr(p)?),
                None => None,
            };
            let fragment = match projection {
                None => ScanFragment::new(table, bound, None),
                Some(cols) => {
                    let resolve = |c: &String| table.schema.resolve(c);
                    let indices = cols.iter().map(resolve).collect::<Result<Vec<_>>>()?;
                    ScanFragment::columns(table, bound, &indices)
                }
            };
            match &best {
                Some(best) => fragment.top_k(best.keys, best.k),
                None => fragment,
            }
        }
    };
    let summary = scan(ctx, table, *source, &fragment, sink)?;
    let mut stats = summary.stats;
    stats.merge(&summary.op_stats);
    if let Some(best) = best {
        best.work.merge(&summary.reduce_stats);
    }
    // The EXPLAIN tree reports a cached leaf's hit/miss/fill split.
    let label = match source {
        ScanSource::Cached => {
            let hits = summary.hit_parts;
            let parts = hits + summary.fill_parts;
            format!("{} ({hits}/{parts} partitions hit)", node.label())
        }
        _ => node.label(),
    };
    let (metrics, report) = leaf(label, *source, table, stats, &summary.nodes);
    Ok(Ran {
        schema: summary.schema,
        metrics,
        report,
    })
}

/// What a leaf reading `table` from `source` reports, the executor and
/// the pricer ([`crate::cost::predict_plan`]) alike: one phase group,
/// named for what the source does (`load`, `cached load`, `select`) over
/// its footprint `stats` — or, when its partitions ran on a cluster, one
/// phase per busy node (`nodes`, by id), each also a child of the
/// operator's report (`label`) showing what that node scanned and
/// shipped, and the footprint their sum.
pub(crate) fn leaf(
    label: String,
    source: ScanSource,
    table: &Table,
    stats: PhaseStats,
    nodes: &[(usize, PhaseStats)],
) -> (QueryMetrics, OpReport) {
    let mut metrics = QueryMetrics::new();
    let mut report = OpReport::leaf(label, stats);
    if nodes.is_empty() {
        let verb = match source {
            ScanSource::Plain => "load",
            ScanSource::Cached => "cached load",
            ScanSource::Select(_) => "select",
        };
        metrics.push_serial(format!("{verb} {}", table.name), stats);
        return (metrics, report);
    }
    let phases = nodes
        .iter()
        .map(|(k, s)| (format!("exchange node {k}"), *s));
    metrics.push_parallel(phases.collect());
    report.actual = PhaseStats::default();
    for (k, s) in nodes {
        report.actual.merge(s);
        let scanned = s.plain_bytes + s.cache_bytes + s.disk_bytes + s.s3_scanned_bytes;
        let shipped = s.exchange_bytes;
        let label = format!("Exchange[node {k}: {scanned} B scanned, {shipped} B exchanged]");
        report.children.push(OpReport::leaf(label, *s));
    }
    (metrics, report)
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

/// What a staged operator reports: its first child, if it has one, ran to
/// the end, then its second, whose rows it handed on.
fn staged(node: &PlanNode, own: PhaseStats, first: Option<Ran>, second: Ran) -> Ran {
    let Some(first) = first else {
        return second.under(node, own);
    };
    Ran {
        schema: second.schema,
        metrics: QueryMetrics::join_sides(first.metrics, second.metrics, Sides::Serial),
        report: OpReport {
            label: node.label(),
            predicted: None,
            actual: own,
            children: vec![first.report, second.report],
        },
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

/// How many groups one CASE-WHEN statement of `aggs` aggregates per group
/// may hold under the engine's SQL size limit, a group's key rendering to
/// `key_bytes` — the chunking of [`case_when_aggregate`], which the pricer
/// reads too.
pub(crate) fn case_when_chunk(ctx: &QueryContext, aggs: usize, key_bytes: f64) -> usize {
    let per_group = aggs as f64 * 96.0 + key_bytes;
    let budget = ctx.engine.limits().max_sql_bytes.saturating_sub(256);
    ((budget as f64 / per_group.max(1.0)) as usize).max(1)
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

/// The pushed CASE-WHEN aggregation of `groups` (paper Listing 4): one
/// `agg(CASE WHEN g = v THEN x END)` item per (group, aggregate), in
/// pushed scalar-aggregate statements chunked under the SQL size limit,
/// each statement's one merged row reshaped into `group key ++ aggregate
/// values` rows. Returns them with the statements' summed footprint.
fn case_when_aggregate(
    ctx: &QueryContext,
    table: &Table,
    predicate: &Option<Expr>,
    group_cols: &[String],
    aggs: &[(AggFunc, Option<String>)],
    groups: &[Vec<Value>],
) -> Result<(Vec<Row>, PhaseStats)> {
    let mut stats = PhaseStats::default();
    let mut out = Vec::new();
    let Some(first) = groups.first() else {
        return Ok((out, stats));
    };
    let key_bytes: usize = first.iter().map(|v| v.to_csv_field().len() + 24).sum();
    for batch in groups.chunks(case_when_chunk(ctx, aggs.len(), key_bytes as f64)) {
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
        let stmt = SelectStmt {
            items,
            alias: None,
            where_clause: predicate.clone(),
            limit: None,
        };
        let scan = select_scan_aggregate(ctx, table, &stmt, &[])?;
        stats.merge(&scan.stats);
        let values = scan.rows[0].values();
        for (key, aggregates) in batch.iter().zip(values.chunks(aggs.len())) {
            out.push(Row::new(key.iter().chain(aggregates).cloned().collect()));
        }
    }
    Ok((out, stats))
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
/// each statement also counts its groups' rows ([`counted_aggs`]), and a
/// group that counts none yields no row.
fn listed_case_when_aggregate(
    ctx: &QueryContext,
    table: &Table,
    predicate: &Option<Expr>,
    group_cols: &[String],
    aggs: &[(AggFunc, Option<String>)],
    groups: &[Vec<Value>],
) -> Result<(Vec<Row>, PhaseStats)> {
    let (counted, at) = counted_aggs(aggs);
    let (rows, stats) = case_when_aggregate(ctx, table, predicate, group_cols, &counted, groups)?;
    let (count, width) = (group_cols.len() + at, group_cols.len() + aggs.len());
    let rows = rows
        .into_iter()
        .filter(|r| r[count] != Value::Int(0))
        .map(|mut r| {
            r.0.truncate(width);
            r
        })
        .collect();
    Ok((rows, stats))
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
    sink: Sink<'_>,
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
            rx.iter().try_for_each(|batch| join.probe(batch, sink))?;
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

    fn probe(&mut self, batch: RowBatch, sink: Sink<'_>) -> Result<()> {
        let rows = self
            .table
            .probe_batch(&batch.rows, self.probe_key, &mut self.local);
        forward(RowBatch::new(self.schema.clone(), rows), sink)
    }

    /// The two children's metrics go together as they ran (`sides`), and
    /// the join's own work streams over the probe.
    fn finish(self, node: &PlanNode, build: Ran, probe: Ran, sides: Sides, phase: &str) -> Ran {
        let mut metrics = QueryMetrics::join_sides(build.metrics, probe.metrics, sides);
        metrics.stack(phase, self.local, Flow::Streaming);
        Ran {
            schema: build.schema.join(&probe.schema),
            metrics,
            report: OpReport {
                label: node.label(),
                predicted: None,
                actual: self.local,
                children: vec![build.report, probe.report],
            },
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

/// A group-by on a cluster of `n` nodes: hash the child's rows on the
/// group key into one bucket per node, aggregate each bucket in parallel,
/// and merge by re-sorting on the group key — each group lives wholly in
/// one bucket with its rows in original order, so aggregate values and
/// the final sorted output are bit-identical to the serial operator. Each
/// node meters what it receives of the all-to-all shuffle (the expected
/// cross-node share under uniformly spread producers) as exchange. The
/// merge is the operator's finish: its order, if it has one, runs there.
fn run_partitioned_group_by(
    ctx: &QueryContext,
    node: &PlanNode,
    group_width: usize,
    aggs: &[(AggFunc, Option<usize>)],
    order: &Option<Order>,
    cluster: &Cluster,
    sink: Sink<'_>,
) -> Result<Ran> {
    let n = cluster.n();
    let group_cols: Vec<usize> = (0..group_width).collect();
    let mut buckets: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
    let mut bucket_bytes = vec![0u64; n];
    let child = run(ctx, &node.children[0], &mut |batch| {
        for row in batch.rows {
            let t = route_row(&row, &group_cols, n);
            bucket_bytes[t] += row_exchange_bytes(&row);
            buckets[t].push(row);
        }
        Ok(())
    })?;
    let results: Vec<Result<(Vec<Row>, PhaseStats)>> = std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .iter()
            .map(|bucket| {
                let group_cols = &group_cols;
                s.spawn(move || {
                    let mut st = PhaseStats::default();
                    let rows = ops::hash_group_by(bucket, group_cols, aggs, &mut st)?;
                    Ok((rows, st))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("group-by node thread panicked"))
            .collect()
    });
    let mut phases = Vec::with_capacity(n);
    let mut parts: Vec<Vec<Row>> = Vec::with_capacity(n);
    let mut actual = PhaseStats::default();
    for (k, r) in results.into_iter().enumerate() {
        let (rows, mut st) = r?;
        let received = bucket_bytes[k] - bucket_bytes[k] / n as u64;
        st.exchange_bytes += received;
        let shipped = &cluster.node(k).exchange_bytes;
        shipped.fetch_add(received, std::sync::atomic::Ordering::Relaxed);
        actual.merge(&st);
        phases.push((format!("group-by node {k}"), st));
        parts.push(rows);
    }
    let mut merge_stats = PhaseStats::default();
    let sort_keys: Vec<(usize, bool)> = (0..group_width).map(|i| (i, true)).collect();
    let rows = ops::sort_rows_by_keys(parts.concat(), &sort_keys, &mut merge_stats);
    let rows = finish_groups(order, rows, &mut merge_stats);
    let mut metrics = child.metrics;
    metrics.push_parallel(phases);
    metrics.stack("group-by merge", merge_stats, Flow::Breaker);
    actual.merge(&merge_stats);
    emit(ctx, &node.schema, rows, sink)?;
    Ok(Ran {
        schema: node.schema.clone(),
        metrics,
        report: OpReport {
            label: partitioned_label(node, n),
            predicted: None,
            actual,
            children: vec![child.report],
        },
    })
}

/// The label of a group-by that runs partitioned across `n` nodes.
pub(crate) fn partitioned_label(node: &PlanNode, n: usize) -> String {
    node.label().replacen(']', &format!(", {n} nodes]"), 1)
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
