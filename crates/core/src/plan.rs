//! The physical-plan IR: a small tree of vectorized operators over
//! [`Row`]s, built by the planner ([`crate::planner`]) and driven by the
//! one executor in this module ([`execute`]).
//!
//! Leaves are per-table scans — [`PlanOp::PushdownScan`] ships the
//! predicate and projection to the storage engine, [`PlanOp::LocalScan`]
//! GETs whole partitions and [`PlanOp::CachedScan`] reads them through
//! the segment cache; both filter and project inside the worker that
//! decoded the rows, so a leaf delivers the columns the plan needs and
//! no others, whichever way its bytes arrive. Interior operators
//! compose them into multi-table queries: hash equi-joins (with an
//! optional Bloom runtime filter injected into the probe scan, paper
//! §V-A2), residual filters, projections, hash aggregation, multi-key
//! sort and limit. A single-table statement is a join of one table — a
//! bare scan leaf under the same stack — so the paper's §IV filter,
//! §VIII-Q6 scalar aggregate ([`PlanOp::PushdownAggregate`] is its pushed
//! leaf) and §VI server-side / filtered group-by are trees of these
//! operators and nothing else.
//!
//! **An [`AlgoOp`] leaf is an algorithm whose later phase's SQL is
//! computed from an earlier phase's result** (the distinct groups, the
//! sample's populous groups, the sample's K-th value) — everything whose
//! statements are known at lowering time is a tree of IR operators. Such
//! a leaf is an **executor** kind and nothing more: which variants a
//! query admits, which one a strategy prefers and what each costs is
//! planning, and lives with the other candidates ([`crate::planner`]
//! lowers them, [`crate::cost`] prices them). Either way *every* query
//! runs through the same executor.
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
//! * a join — the build child is drained into the join table before the
//!   probe child starts (the build rows stay; the joined rows never
//!   do). The two children run one after the other, each scan filling
//!   the worker pool by itself; the *model* still composes two scan
//!   leaves' footprints as concurrent
//!   ([`QueryMetrics::join_sides`]), which is what the planner priced;
//! * group-by and scalar aggregation — accumulators only;
//! * sort — every input row (ORDER BY has to see them all);
//! * `Gather`, `Repartition` under a group-by and the algorithm-family
//!   leaves — their results, which they hand on in batches.
//!
//! The breakers are also where the **phases** of the reported
//! [`QueryMetrics`] end: a phase is a pipeline between breakers. A
//! streaming operator (residual filter, project, the probe side and own
//! CPU of a join, repartition) charges the phase of the scan that feeds
//! it, a breaker charges it and closes it, and the operator above a
//! breaker, a join's two concurrent loads or a `Gather` opens the next
//! one — the rule is [`QueryMetrics::stack`]'s, and every interior
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

use crate::algos::{groupby, topk, whatif};
use crate::catalog::Table;
use crate::context::QueryContext;
use crate::metrics::{Flow, QueryMetrics};
use crate::ops;
use crate::output::QueryOutput;
use crate::scan::{scan, select_scan_streamed, ScanFragment, ScanSource};
use pushdown_bloom::{BloomBuilder, BloomPlan};
use pushdown_common::perf::{PerfModel, PhaseStats};
use pushdown_common::row::RowBatch;
use pushdown_common::{Error, Result, Row, Schema, Value};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::bind::Binder;
use pushdown_sql::{Expr, SelectItem, SelectStmt};

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
    /// Leaf: GET every partition of `table`, decode locally and apply
    /// `predicate` + `projection` (`None` = `*`) inside the worker that
    /// decoded the rows (baseline side — all bytes cross the wire as
    /// free plain transfer, but only the projected columns of the
    /// survivors leave the scan, and ColumnarLite decodes no others).
    LocalScan {
        table: Table,
        predicate: Option<Expr>,
        projection: Option<Vec<String>>,
    },
    /// Leaf: `predicate` + `projection` pushed into S3 Select
    /// (`None` projection = `*`).
    PushdownScan {
        table: Table,
        predicate: Option<Expr>,
        projection: Option<Vec<String>>,
    },
    /// Leaf: a scalar-aggregate statement pushed into S3 Select whole
    /// (§VIII Q6): every partition answers `stmt`'s aggregates and the
    /// scan merges the partials into one row — per *query*, so the leaf
    /// is never scattered.
    PushdownAggregate { table: Table, stmt: SelectStmt },
    /// Leaf: read every partition **through the local segment cache**
    /// (hybrid tier): hits bill zero bytes/requests and pay local scan +
    /// parse time; misses are read-through fills billed exactly once.
    /// `predicate` and `projection` are applied locally, like
    /// [`PlanOp::LocalScan`].
    CachedScan {
        table: Table,
        predicate: Option<Expr>,
        projection: Option<Vec<String>>,
    },
    /// Hash inner equi-join: children `[build, probe]`, output rows are
    /// `build ++ probe`. The build child is drained into the join table,
    /// then the probe child streams through it.
    HashJoin {
        build_key: String,
        probe_key: String,
    },
    /// Hash join whose probe child (a [`PlanOp::PushdownScan`]) is
    /// additionally filtered by a Bloom filter built from the build
    /// side's keys and shipped inside the probe's Select predicate
    /// (paper §V-A2). Build and probe are serial by construction; the
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
    /// `COUNT(*)`). Output sorted by group key (deterministic).
    GroupBy {
        group_width: usize,
        aggs: Vec<(AggFunc, Option<usize>)>,
    },
    /// Scalar aggregation: one output row, even over empty input.
    Aggregate { aggs: Vec<(AggFunc, Option<usize>)> },
    /// Stable multi-key sort (`(column, ascending)`, major first),
    /// optionally truncating to `limit` rows (ORDER BY … LIMIT k).
    Sort {
        keys: Vec<(usize, bool)>,
        limit: Option<usize>,
    },
    /// Plain truncation (LIMIT without ORDER BY).
    Limit { n: usize },
    /// One of the paper's multi-phase single-table algorithms, as a leaf
    /// operator: the planner's strategy choice picks the variant, the
    /// executor drives it like any other operator.
    Algo(AlgoOp),
    /// Scatter wrapper (built by [`scatter`]): execute the child scan
    /// leaf's partitions owned by cluster node `node` (of `nodes`) on
    /// that node — its ledger, virtual clock, cache slice and fault
    /// stream. Normally driven by a parent [`PlanOp::Gather`]; executed
    /// bare it degenerates to the child.
    Exchange { node: usize, nodes: usize },
    /// Merge the per-node partition streams of its [`PlanOp::Exchange`]
    /// children back into global partition order. Rows are bit-identical
    /// to executing the underlying scan serially; the shipped bytes are
    /// metered as (non-billable) exchange volume on each node.
    Gather { nodes: usize },
    /// Hash-partition the child's rows on `keys` across `nodes` so a
    /// parent [`PlanOp::GroupBy`] aggregates partial state per node.
    /// Models an all-to-all shuffle: `(nodes-1)/nodes` of the serialized
    /// volume is metered as exchange (the expected cross-node share
    /// under uniformly spread producers).
    Repartition { keys: Vec<usize>, nodes: usize },
}

/// A single-table algorithm with the variant to run — one whose later
/// phase's SQL is computed from an earlier phase's result (see the
/// module docs), so no tree of IR operators can state it. A name the
/// family does not have is an error, at pricing and at execution alike.
#[derive(Debug, Clone)]
pub enum AlgoOp {
    /// §VI group-by: `"s3-side"` (the distinct groups become CASE-WHEN
    /// items), `"hybrid"` (the sample's populous groups do; one grouping
    /// column) and §X's `"s3-native"`.
    GroupBy(groupby::GroupByQuery, &'static str),
    /// §VII top-K, whole: `"sampling"` (the sample's K-th value becomes
    /// the scan's threshold), and `"server-side"` with its twin
    /// `"cached-local"` — their heap skips NULL keys and breaks ties by
    /// the whole row, which `Sort { limit }` does not.
    TopK(topk::TopKQuery, &'static str),
}

/// The error for a variant name `family` does not have.
pub(crate) fn unknown_variant(family: &str, variant: &str) -> Error {
    Error::Bind(format!("the {family} family has no `{variant}` variant"))
}

impl AlgoOp {
    /// The chosen variant's name (`"s3-side"`, `"sampling"`, ...).
    pub fn algorithm(&self) -> &'static str {
        match self {
            AlgoOp::GroupBy(_, a) | AlgoOp::TopK(_, a) => a,
        }
    }

    /// The table the family scans.
    pub fn table(&self) -> &Table {
        match self {
            AlgoOp::GroupBy(q, _) => &q.table,
            AlgoOp::TopK(q, _) => &q.table,
        }
    }
}

impl PlanNode {
    pub fn new(op: PlanOp, children: Vec<PlanNode>, schema: Schema) -> PlanNode {
        PlanNode {
            op,
            children,
            schema,
        }
    }

    /// Display label of this operator (used by `Explain::report`).
    pub fn label(&self) -> String {
        match &self.op {
            PlanOp::LocalScan { table, .. } => format!("LocalScan[{}]", table.name),
            PlanOp::PushdownScan { table, .. } => format!("PushdownScan[{}]", table.name),
            PlanOp::CachedScan { table, .. } => format!("CachedScan[{}]", table.name),
            PlanOp::PushdownAggregate { table, stmt } => {
                format!(
                    "PushdownAggregate[{}, {} aggs]",
                    table.name,
                    stmt.items.len()
                )
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
            PlanOp::Sort { keys, limit } => match limit {
                Some(k) => format!("TopK[{} keys, limit {k}]", keys.len()),
                None => format!("Sort[{} keys]", keys.len()),
            },
            PlanOp::Limit { n } => format!("Limit[{n}]"),
            PlanOp::Algo(a) => match a {
                AlgoOp::GroupBy(q, algo) => format!("GroupBy[{algo}, {}]", q.table.name),
                AlgoOp::TopK(q, algo) => format!("TopK[{algo}, {}]", q.table.name),
            },
            PlanOp::Exchange { node, nodes } => format!("Exchange[node {node}/{nodes}]"),
            PlanOp::Gather { nodes } => format!("Gather[{nodes} nodes]"),
            PlanOp::Repartition { keys, nodes } => {
                format!("Repartition[{} keys, {nodes} nodes]", keys.len())
            }
        }
    }

    /// The table this node scans, if it is a scan leaf.
    pub(crate) fn scan_table(&self) -> Option<&Table> {
        match &self.op {
            PlanOp::LocalScan { table, .. }
            | PlanOp::CachedScan { table, .. }
            | PlanOp::PushdownScan { table, .. }
            | PlanOp::PushdownAggregate { table, .. } => Some(table),
            _ => None,
        }
    }

    /// True when every scan leaf below (and including) this node pushes
    /// into S3 Select.
    fn scans_pushed(&self) -> bool {
        match &self.op {
            PlanOp::LocalScan { .. } | PlanOp::CachedScan { .. } => false,
            PlanOp::PushdownScan { .. } | PlanOp::PushdownAggregate { .. } => true,
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

/// Sum every phase of `metrics` into one [`PhaseStats`] (leaf reports).
pub(crate) fn merged_stats(metrics: &QueryMetrics) -> PhaseStats {
    let mut stats = PhaseStats::default();
    for g in &metrics.groups {
        for p in &g.phases {
            stats.merge(&p.stats);
        }
    }
    stats
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
/// rows: the executor (`run`) with a collecting sink. Every operator reports its own
/// [`PhaseStats`]; billable traffic comes only from the scan leaves, so
/// the summed metrics agree exactly with the scope's cost ledger.
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
        PlanOp::LocalScan {
            table,
            predicate,
            projection,
        }
        | PlanOp::CachedScan {
            table,
            predicate,
            projection,
        } => {
            let cached = matches!(node.op, PlanOp::CachedScan { .. });
            let bound = match predicate {
                Some(p) => Some(Binder::new(&table.schema).bind_expr(p)?),
                None => None,
            };
            let fragment = match projection {
                None => ScanFragment::new(table, bound, None),
                Some(cols) => {
                    let indices = cols
                        .iter()
                        .map(|c| table.schema.resolve(c))
                        .collect::<Result<Vec<_>>>()?;
                    ScanFragment::columns(table, bound, &indices)
                }
            };
            let source = if cached {
                ScanSource::Cached
            } else {
                ScanSource::Plain
            };
            let summary = scan(ctx, table, source, &fragment, sink)?;
            let mut stats = summary.stats;
            stats.merge(&summary.op_stats);
            let mut metrics = QueryMetrics::new();
            let mut label = node.label();
            if cached {
                metrics.push_serial(format!("cached load {}", table.name), stats);
                // The EXPLAIN tree reports the hit/miss/fill split per node.
                label = format!(
                    "{label} ({}/{} partitions hit)",
                    summary.hit_parts,
                    summary.hit_parts + summary.fill_parts,
                );
            } else {
                metrics.push_serial(format!("load {}", table.name), stats);
            }
            Ok(Ran {
                schema: summary.schema,
                metrics,
                report: OpReport::leaf(label, stats),
            })
        }
        PlanOp::PushdownScan {
            table,
            predicate,
            projection,
        } => select_leaf(
            ctx,
            node,
            table,
            &scan_stmt(projection, predicate),
            "select",
            sink,
        ),
        PlanOp::PushdownAggregate { table, stmt } => {
            select_leaf(ctx, node, table, stmt, "select", sink)
        }
        PlanOp::HashJoin {
            build_key,
            probe_key,
        } => {
            let (build_node, probe_node) = (&node.children[0], &node.children[1]);
            let mut join = Join::new(node, build_key, probe_key)?;
            let build = run(ctx, build_node, &mut |batch| join.build(batch))?;
            // Build, then probe: each scan fills the worker pool by
            // itself. The model still prices the two subtrees as
            // concurrent, as it did when they ran side by side.
            let probe = run(ctx, probe_node, &mut |batch| join.probe(batch, sink))?;
            Ok(join.finish(node, build, probe, true, "hash join"))
        }
        PlanOp::BloomJoin {
            build_key,
            probe_key,
            fpr,
        } => {
            let (build_node, probe_node) = (&node.children[0], &node.children[1]);
            let mut join = Join::new(node, build_key, probe_key)?;
            let bk = join.build_key;
            if build_node.schema.dtype_of(bk) != pushdown_common::DataType::Int {
                return Err(Error::Bind(format!(
                    "Bloom join requires an integer join key, `{build_key}` is {}",
                    build_node.schema.dtype_of(bk)
                )));
            }
            let PlanOp::PushdownScan {
                table,
                predicate,
                projection,
            } = &probe_node.op
            else {
                return Err(Error::Other(
                    "BloomJoin probe child must be a PushdownScan".into(),
                ));
            };
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
            let pred = match (predicate, bloom_pred) {
                (Some(p), Some(b)) => Some(Expr::and(p.clone(), b)),
                (p, b) => b.or_else(|| p.clone()),
            };
            let stmt = scan_stmt(projection, &pred);
            let probe = select_leaf(ctx, probe_node, table, &stmt, &phase, &mut |batch| {
                join.probe(batch, sink)
            })?;
            Ok(join.finish(node, build, probe, false, "hash join (bloom)"))
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
        PlanOp::GroupBy { group_width, aggs } => {
            // A Repartition child switches to scattered execution:
            // per-node partial group-bys over key-hashed buckets.
            if let PlanOp::Repartition { nodes, .. } = &node.children[0].op {
                return run_partitioned_group_by(ctx, node, *group_width, aggs, *nodes, sink);
            }
            let mut acc = ops::GroupByAccumulator::new((0..*group_width).collect(), aggs.clone());
            let mut local = PhaseStats::default();
            let ran = run(ctx, &node.children[0], &mut |batch| {
                acc.update_batch(&batch.rows, &mut local)
            })?;
            emit(ctx, &node.schema, acc.finish(&mut local), sink)?;
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
        PlanOp::Sort { keys, limit } => {
            let mut rows = Vec::new();
            let ran = run(ctx, &node.children[0], &mut |batch| {
                rows.extend(batch.rows);
                Ok(())
            })?;
            let mut local = PhaseStats::default();
            let mut rows = ops::sort_rows_by_keys(rows, keys, &mut local);
            if let Some(k) = limit {
                rows.truncate(*k);
            }
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
        PlanOp::Algo(algo) => {
            let out = match algo {
                AlgoOp::GroupBy(q, variant) => match *variant {
                    "s3-side" => groupby::s3_side(ctx, q)?,
                    "hybrid" => groupby::hybrid(ctx, q, groupby::HybridOptions::default())?,
                    "s3-native" => whatif::s3_native_groupby(ctx, q)?,
                    other => return Err(unknown_variant("group-by", other)),
                },
                AlgoOp::TopK(q, variant) => match *variant {
                    "server-side" => topk::server_side(ctx, q)?,
                    // The same algorithm, its plain partition GETs routed
                    // through the segment cache.
                    "cached-local" => topk::server_side(&ctx.clone().with_cache_reads(true), q)?,
                    "sampling" => topk::sampling(ctx, q, None)?,
                    other => return Err(unknown_variant("top-k", other)),
                },
            };
            let actual = merged_stats(&out.metrics);
            // The lowering-time schema carries the statement's aliases.
            emit(ctx, &node.schema, out.rows, sink)?;
            // A family leaf reports its own phases, whole.
            let mut metrics = out.metrics;
            metrics.close();
            Ok(Ran {
                schema: node.schema.clone(),
                metrics,
                report: OpReport::leaf(node.label(), actual),
            })
        }
        PlanOp::Gather { .. } => run_gather(ctx, node, sink),
        // A bare Exchange (no Gather parent driving it) degenerates to
        // its child on the current scope.
        PlanOp::Exchange { .. } => run(ctx, &node.children[0], sink),
        PlanOp::Repartition { nodes, .. } => {
            // Standalone repartition (no group-by parent consuming the
            // buckets): rows pass through untouched — partitioning only
            // assigns ownership — but the modeled all-to-all shuffle
            // volume is metered.
            let mut total = 0u64;
            let ran = run(ctx, &node.children[0], &mut |batch| {
                total += batch.rows.iter().map(row_exchange_bytes).sum::<u64>();
                sink(batch)
            })?;
            let local = PhaseStats {
                exchange_bytes: total - total / (*nodes).max(1) as u64,
                ..Default::default()
            };
            Ok(ran.stacked(node, "repartition", local, Flow::Streaming))
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

/// A pushdown scan leaf: ship `stmt` to every partition of `table` and
/// push the response rows into `sink`.
fn select_leaf(
    ctx: &QueryContext,
    node: &PlanNode,
    table: &Table,
    stmt: &SelectStmt,
    phase: &str,
    sink: Sink<'_>,
) -> Result<Ran> {
    let summary = select_scan_streamed(ctx, table, stmt, sink)?;
    let mut metrics = QueryMetrics::new();
    metrics.push_serial(format!("{phase} {}", table.name), summary.stats);
    Ok(Ran {
        schema: summary.schema,
        metrics,
        report: OpReport::leaf(node.label(), summary.stats),
    })
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

    /// The two children's metrics go side by side (`concurrent`) or one
    /// after the other, and the join's own work streams over the probe.
    fn finish(self, node: &PlanNode, build: Ran, probe: Ran, concurrent: bool, phase: &str) -> Ran {
        let mut metrics = QueryMetrics::join_sides(build.metrics, probe.metrics, concurrent);
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

/// Serialized size of one row on the interconnect: its CSV encoding
/// (field texts, separators, newline) — deterministic and identical to
/// what the row costs as returned Select bytes.
fn row_exchange_bytes(row: &Row) -> u64 {
    let vals = row.values();
    let fields: u64 = vals.iter().map(|v| v.to_csv_field().len() as u64).sum();
    fields + vals.len().saturating_sub(1) as u64 + 1
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

struct NodeRun {
    node: usize,
    schema: Option<Schema>,
    parts: Vec<(usize, Vec<Row>)>,
    stats: PhaseStats,
}

/// Execute a Gather fan-out: each Exchange child runs its node's owned
/// partitions *one partition at a time* on that node's scope (joint
/// query+node ledger, node clock, node cache slice, node fault salt),
/// tagging results with the global partition index; the coordinator
/// merges them back in global order, so rows are bit-identical to the
/// serial scan at any node count. Per-node footprints enter the metrics
/// as one parallel group (wall time = slowest node), and each node's
/// shipped bytes are metered as exchange volume.
fn run_gather(ctx: &QueryContext, node: &PlanNode, sink: Sink<'_>) -> Result<Ran> {
    let Some(cluster) = ctx.cluster.clone() else {
        return Err(Error::Other(
            "Gather requires a cluster context (QueryContext::with_nodes)".into(),
        ));
    };
    let first_leaf = node
        .children
        .first()
        .and_then(|c| c.children.first())
        .ok_or_else(|| Error::Other("Gather has no Exchange children".into()))?;
    let table = first_leaf
        .scan_table()
        .ok_or_else(|| Error::Other("Exchange child must be a scan leaf".into()))?;
    // Global partition listing: the merge order, and (via the cluster's
    // consistent-hash ring) the per-node ownership map.
    let keys = table.partitions(&ctx.store);
    let owned: Vec<(usize, usize, String)> = keys
        .iter()
        .enumerate()
        .map(|(gi, k)| (cluster.assign(&table.bucket, k), gi, k.clone()))
        .collect();
    let results: Vec<Result<NodeRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = node
            .children
            .iter()
            .map(|child| {
                let owned = &owned;
                let cluster = &cluster;
                s.spawn(move || -> Result<NodeRun> {
                    let PlanOp::Exchange { node: k, .. } = child.op else {
                        return Err(Error::Other(
                            "Gather children must be Exchange operators".into(),
                        ));
                    };
                    let leaf = &child.children[0];
                    let nctx = ctx.node_exec(k);
                    let mut run = NodeRun {
                        node: k,
                        schema: None,
                        parts: Vec::new(),
                        stats: PhaseStats::default(),
                    };
                    for (_, gi, key) in owned.iter().filter(|(owner, ..)| *owner == k) {
                        let filter: std::sync::Arc<[String]> =
                            std::sync::Arc::from(vec![key.clone()].into_boxed_slice());
                        let pctx = nctx.with_partition_filter(filter);
                        let ex = execute(&pctx, leaf)?;
                        run.stats.merge(&merged_stats(&ex.metrics));
                        run.schema.get_or_insert(ex.schema);
                        run.parts.push((*gi, ex.rows));
                    }
                    let shipped: u64 = run
                        .parts
                        .iter()
                        .flat_map(|(_, rows)| rows)
                        .map(row_exchange_bytes)
                        .sum();
                    run.stats.exchange_bytes += shipped;
                    cluster
                        .node(k)
                        .exchange_bytes
                        .fetch_add(shipped, std::sync::atomic::Ordering::Relaxed);
                    Ok(run)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gather node thread panicked"))
            .collect()
    });
    let mut runs = results.into_iter().collect::<Result<Vec<_>>>()?;
    let mut tagged: Vec<(usize, Vec<Row>)> =
        runs.iter_mut().flat_map(|r| r.parts.drain(..)).collect();
    tagged.sort_by_key(|(gi, _)| *gi);
    let rows: Vec<Row> = tagged.into_iter().flat_map(|(_, rows)| rows).collect();
    let schema = runs
        .iter()
        .find_map(|r| r.schema.clone())
        .unwrap_or_else(|| node.schema.clone());
    let mut metrics = QueryMetrics::new();
    metrics.push_parallel(
        runs.iter()
            .map(|r| (format!("exchange node {}", r.node), r.stats))
            .collect(),
    );
    let children: Vec<OpReport> = runs
        .iter()
        .map(|r| {
            let scanned = r.stats.plain_bytes + r.stats.cache_bytes + r.stats.s3_scanned_bytes;
            OpReport::leaf(
                format!(
                    "Exchange[node {}: {} B scanned, {} B exchanged]",
                    r.node, scanned, r.stats.exchange_bytes
                ),
                r.stats,
            )
        })
        .collect();
    emit(ctx, &schema, rows, sink)?;
    Ok(Ran {
        schema,
        metrics,
        report: OpReport {
            label: node.label(),
            predicted: None,
            // The gather merge itself is a zero-cost splice: partitions
            // arrive tagged and are concatenated in global order.
            actual: PhaseStats::default(),
            children,
        },
    })
}

/// Scattered group-by (GroupBy over Repartition): hash the child's rows
/// on the group key into one bucket per node, aggregate each bucket in
/// parallel, and merge by re-sorting on the group key — each group lives
/// wholly in one bucket with its rows in original order, so aggregate
/// values and the final sorted output are bit-identical to the serial
/// operator.
fn run_partitioned_group_by(
    ctx: &QueryContext,
    node: &PlanNode,
    group_width: usize,
    aggs: &[(AggFunc, Option<usize>)],
    nodes: usize,
    sink: Sink<'_>,
) -> Result<Ran> {
    let rep = &node.children[0];
    let n = nodes.max(1);
    let group_cols: Vec<usize> = (0..group_width).collect();
    let mut buckets: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
    let mut bucket_bytes = vec![0u64; n];
    let child = run(ctx, &rep.children[0], &mut |batch| {
        for row in batch.rows {
            let t = route_row(&row, &group_cols, n);
            bucket_bytes[t] += row_exchange_bytes(&row);
            buckets[t].push(row);
        }
        Ok(())
    })?;
    let total_bytes: u64 = bucket_bytes.iter().sum();
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
    for (k, r) in results.into_iter().enumerate() {
        let (rows, mut st) = r?;
        // Bytes node k receives from the other nodes (expected share
        // under uniformly spread producers).
        let received = bucket_bytes[k] - bucket_bytes[k] / n as u64;
        st.exchange_bytes += received;
        if let Some(cluster) = &ctx.cluster {
            if k < cluster.n() {
                cluster
                    .node(k)
                    .exchange_bytes
                    .fetch_add(received, std::sync::atomic::Ordering::Relaxed);
            }
        }
        phases.push((format!("group-by node {k}"), st));
        parts.push(rows);
    }
    let gb_stats = {
        let mut s = PhaseStats::default();
        for (_, st) in &phases {
            s.merge(st);
        }
        s
    };
    let rep_stats = PhaseStats {
        exchange_bytes: total_bytes - total_bytes / n as u64,
        ..Default::default()
    };
    let mut merge_stats = PhaseStats::default();
    let sort_keys: Vec<(usize, bool)> = (0..group_width).map(|i| (i, true)).collect();
    let rows = ops::sort_rows_by_keys(parts.concat(), &sort_keys, &mut merge_stats);
    let mut metrics = child.metrics;
    metrics.push_parallel(phases);
    metrics.stack("group-by merge", merge_stats, Flow::Breaker);
    let mut gb_actual = gb_stats;
    gb_actual.merge(&merge_stats);
    emit(ctx, &node.schema, rows, sink)?;
    Ok(Ran {
        schema: node.schema.clone(),
        metrics,
        report: OpReport {
            label: node.label(),
            predicted: None,
            actual: gb_actual,
            children: vec![OpReport {
                label: rep.label(),
                predicted: None,
                actual: rep_stats,
                children: vec![child.report],
            }],
        },
    })
}

/// Rewrite a plan for scattered execution on the context's cluster:
/// every scan leaf becomes a [`PlanOp::Gather`] over per-node
/// [`PlanOp::Exchange`] wrappers (one per node owning at least one
/// partition), and every group-by above a scattered subtree gains a
/// [`PlanOp::Repartition`] on its group key so nodes aggregate partial
/// state in parallel. `None` when there is nothing to scatter: no
/// cluster is attached or it has a single node — the serial path *is*
/// the N=1 cluster — or the plan has no scan leaf to rewrite: an
/// algorithm-family leaf manages its own scans on the coordinator, and
/// a [`PlanOp::PushdownAggregate`] stays whole (its one merged row is
/// per query, not per node).
pub fn scatter(ctx: &QueryContext, node: &PlanNode) -> Option<PlanNode> {
    let cluster = ctx.cluster.as_ref().filter(|c| c.n() > 1)?;
    let (plan, scattered) = scatter_node(ctx, cluster, node);
    scattered.then_some(plan)
}

fn scatter_node(
    ctx: &QueryContext,
    cluster: &crate::cluster::Cluster,
    node: &PlanNode,
) -> (PlanNode, bool) {
    match &node.op {
        PlanOp::LocalScan { table, .. }
        | PlanOp::CachedScan { table, .. }
        | PlanOp::PushdownScan { table, .. } => {
            let keys = table.partitions(&ctx.store);
            let mut populated: Vec<usize> = keys
                .iter()
                .map(|k| cluster.assign(&table.bucket, k))
                .collect();
            populated.sort_unstable();
            populated.dedup();
            if populated.is_empty() {
                return (node.clone(), false);
            }
            let children: Vec<PlanNode> = populated
                .into_iter()
                .map(|k| {
                    PlanNode::new(
                        PlanOp::Exchange {
                            node: k,
                            nodes: cluster.n(),
                        },
                        vec![node.clone()],
                        node.schema.clone(),
                    )
                })
                .collect();
            (
                PlanNode::new(
                    PlanOp::Gather { nodes: cluster.n() },
                    children,
                    node.schema.clone(),
                ),
                true,
            )
        }
        // The Bloom probe must stay a bare PushdownScan — the filter is
        // injected into its Select predicate at run time — so only the
        // build side scatters.
        PlanOp::BloomJoin { .. } => {
            let (build, scattered) = scatter_node(ctx, cluster, &node.children[0]);
            let mut out = node.clone();
            out.children[0] = build;
            (out, scattered)
        }
        PlanOp::GroupBy { group_width, .. } => {
            let (child, scattered) = scatter_node(ctx, cluster, &node.children[0]);
            if !scattered {
                return (node.clone(), false);
            }
            let rep = PlanNode::new(
                PlanOp::Repartition {
                    keys: (0..*group_width).collect(),
                    nodes: cluster.n(),
                },
                vec![child.clone()],
                child.schema.clone(),
            );
            let mut out = node.clone();
            out.children = vec![rep];
            (out, true)
        }
        // Anything else scatters where its children do. (A leaf without
        // children — an algorithm family managing its own scans, a pushed
        // aggregate — runs on the coordinator, node 0, unscattered.)
        _ => {
            let mut scattered = false;
            let mut out = node.clone();
            out.children = node
                .children
                .iter()
                .map(|c| {
                    let (c2, s) = scatter_node(ctx, cluster, c);
                    scattered |= s;
                    c2
                })
                .collect();
            (out, scattered)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use crate::cost::{predict_plan, Estimators};
    use pushdown_common::DataType;
    use pushdown_s3::S3Store;

    /// A variant name a family does not have is an error where the leaf
    /// is priced and where it is run — it used to run as `server-side`.
    /// The group-by's one-scan variants are such names now: they are
    /// trees of IR operators, not leaves.
    #[test]
    fn unknown_variants_are_errors_not_server_side() {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::new(vec![Value::Int(i % 5), Value::Float(i as f64)]))
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 20).unwrap();
        let ctx = QueryContext::new(store).with_cache(1 << 20);
        let group_by = groupby::GroupByQuery {
            table: t.clone(),
            group_cols: vec!["g".into()],
            aggs: vec![(AggFunc::Sum, Some("v".into()))],
            predicate: None,
        };
        let top_k = topk::TopKQuery {
            table: t.clone(),
            order_col: "v".into(),
            k: 3,
            asc: true,
        };
        let family = |variant: &'static str| {
            [
                AlgoOp::GroupBy(group_by.clone(), variant),
                AlgoOp::TopK(top_k.clone(), variant),
            ]
        };
        let run = |op: AlgoOp| {
            let node = PlanNode::new(PlanOp::Algo(op), Vec::new(), t.schema.clone());
            let priced = predict_plan(&Estimators::new(&ctx, [&node]), &node).map(|_| ());
            let ran = execute(&ctx.scoped(), &node).map(|_| ());
            assert_eq!(priced.is_ok(), ran.is_ok(), "{}", node.label());
            ran
        };
        // Top-K has the two local variants; the group-by leaf lost them…
        for variant in ["server-side", "cached-local"] {
            let [g, k] = family(variant);
            assert_eq!(run(g).unwrap_err().code(), "BindError", "{variant}");
            run(k).unwrap();
        }
        // …and neither has these: a name no family knows, the other
        // families' names, the name of the group-by's pushed tree.
        for variant in ["bogus", "", "baseline", "filtered"] {
            for op in family(variant) {
                let err = run(op).unwrap_err();
                assert_eq!(err.code(), "BindError", "{variant}: {err}");
                assert!(err.to_string().contains(variant), "{err}");
            }
        }
        let [g, k] = family("sampling");
        assert!(run(g).is_err());
        run(k).unwrap();
        for variant in ["hybrid", "s3-side"] {
            let [g, k] = family(variant);
            run(g).unwrap();
            assert!(run(k).is_err());
        }
    }
}
