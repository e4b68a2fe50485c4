//! How a plan node's outcome — its phases ([`QueryMetrics`]) and its
//! operator report ([`OpReport`]) — is built from its children's: the
//! one place that says which phase an operator charges and under which
//! label, whether it streams or breaks the pipeline, how a join's two
//! sides go together and what a staged operator's children become. The
//! executor ([`crate::plan::execute`]) fills it with what it measured,
//! the pricer ([`crate::cost::predict_plan`]) with what it estimates, so
//! a plan's predicted phases are its executed ones by construction.

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::metrics::{Flow, QueryMetrics, Sides};
use crate::plan::{hash_join_sides, OpReport, PlanNode, PlanOp};
use crate::scan::ScanSource;
use pushdown_bloom::BloomPlan;
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Error, Result};

/// What a subtree reported: its phases, and its operator tree.
#[derive(Debug, Clone)]
pub(crate) struct Outcome {
    pub metrics: QueryMetrics,
    pub report: OpReport,
}

/// What an operator did itself, beside its children — measured or
/// estimated — with what only running it decides about its shape.
#[derive(Debug, Clone)]
pub(crate) enum Own {
    /// The footprint of a unary operator: what its phase is charged (a
    /// `Limit` charges none).
    Stats(PhaseStats),
    /// A join's CPU and, for a Bloom join, the filter §V-B1 planned for
    /// its probe.
    Join(PhaseStats, Option<BloomPlan>),
    /// A scan leaf: its footprint and, when its partitions ran on a
    /// cluster, its share on each busy node, by id.
    Leaf(PhaseStats, Vec<(usize, PhaseStats)>),
    /// A grouping operator whose scan leaf's engine folded its input, or
    /// the Project between them, which the engine evaluated: its own
    /// footprint, which joins the leaf's phase — on a cluster, the first
    /// busy node's — under the leaf's label, and closes it.
    Folded(PhaseStats),
    /// A group-by partitioned over a cluster: its footprint, each node's
    /// share of the aggregation, by id, and the merge.
    Partitioned(PhaseStats, Vec<PhaseStats>, PhaseStats),
    /// A top-K threshold's work over its sample, and whether its scan
    /// came back short and ran again (the last child).
    Threshold(PhaseStats, bool),
    /// A hybrid split's work over its sample, and the S3-side aggregation
    /// of the populous groups, if it found any.
    Split(PhaseStats, Option<PhaseStats>),
    /// A hybrid split whose dictionary covers its column: its one pushed
    /// pass and, on a cluster, each busy node's share of it, by id; the
    /// finish over its groups; and whether the pass's row count came up
    /// short and the tail ran after it (the last child).
    Covered(PhaseStats, Vec<(usize, PhaseStats)>, PhaseStats, bool),
}

/// `node`'s outcome from what it did itself (`own`) and its children's
/// outcomes, in plan order — a staged operator's as they ran: its first
/// child, if it has one, then its second, then a threshold's rescan.
///
/// # Errors
///
/// `own` or the number of `children` is not what `node`'s operator
/// reports, or a staged operator has no pushed scan to name its phases.
pub(crate) fn compose(
    ctx: &QueryContext,
    node: &PlanNode,
    own: Own,
    children: Vec<Outcome>,
) -> Result<Outcome> {
    let mut children = children.into_iter();
    let mut next = || {
        let missing = || Error::Other(format!("{} is missing a child's outcome", node.label()));
        children.next().ok_or_else(missing)
    };
    Ok(match (&node.op, own) {
        (PlanOp::Scan { table, source, .. }, Own::Leaf(stats, nodes)) => {
            leaf(node.label(), *source, table, stats, &nodes)
        }
        // The two sides go together as they ran, and the join's own work
        // streams over the probe.
        (PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. }, Own::Join(stats, bloom)) => {
            let (build, mut probe) = (next()?, next()?);
            let (phase, sides) = match bloom {
                None => ("hash join", hash_join_sides(ctx, node)),
                Some(planned) => {
                    probe.metrics.relabel("select", &bloom_probe(&planned));
                    ("hash join (bloom)", Sides::Serial)
                }
            };
            let mut metrics = QueryMetrics::join_sides(build.metrics, probe.metrics, sides);
            metrics.stack(phase, stats, Flow::Streaming);
            let report = report(node.label(), stats, vec![build.report, probe.report]);
            Outcome { metrics, report }
        }
        (PlanOp::Limit { .. }, Own::Stats(stats)) => over(node.label(), stats, next()?),
        (
            PlanOp::GroupBy { .. } | PlanOp::Aggregate { .. } | PlanOp::Project { .. },
            Own::Folded(stats),
        ) => {
            let mut child = next()?;
            let group = child.metrics.groups.last_mut();
            if let Some(first) = group.and_then(|g| g.phases.first_mut()) {
                first.stats.merge(&stats);
            }
            // The fold breaks the pipeline, as every grouping does.
            child.metrics.close();
            over(node.label(), stats, child)
        }
        (PlanOp::GroupBy { .. }, Own::Partitioned(stats, shares, merge)) => {
            let mut child = next()?;
            let n = shares.len();
            let per_node = shares.into_iter().enumerate();
            let phases = per_node.map(|(k, s)| (format!("group-by node {k}"), s));
            child.metrics.push_parallel(phases.collect());
            child.metrics.stack("group-by merge", merge, Flow::Breaker);
            let label = node.label().replacen(']', &format!(", {n} nodes]"), 1);
            over(label, stats, child)
        }
        (PlanOp::Threshold { catalog, .. }, Own::Threshold(work, rescanned)) => {
            let from = select_phase(node)?;
            let sample = match catalog {
                Some(_) => None,
                None => Some(closed(next()?, &from, "sampling phase", "threshold", work)),
            };
            let mut scan = next()?;
            scan.metrics.relabel(&from, "scanning phase");
            let mut out = staged(node, work, sample, scan);
            if rescanned {
                let mut rescan = next()?;
                rescan.metrics.relabel(&from, "rescanning phase");
                out.metrics = QueryMetrics::join_sides(out.metrics, rescan.metrics, Sides::Serial);
                out.report.children.push(rescan.report);
            }
            out
        }
        (PlanOp::HybridSplit { dictionary, .. }, Own::Split(work, pushed)) => {
            let from = select_phase(node)?;
            let sample = match dictionary {
                Some(_) => None,
                None => Some(closed(next()?, &from, "hybrid: sample", "split", work)),
            };
            let (mut tail, mut own) = (next()?, work);
            // The populous groups' pushed aggregation runs beside the
            // tail (paper Listing 5).
            if let Some(s3) = pushed {
                tail.metrics
                    .relabel(&from, "hybrid: server-side aggregation");
                let mut s3_side = QueryMetrics::new();
                s3_side.push_serial("hybrid: s3-side aggregation", s3);
                tail.metrics = QueryMetrics::join_sides(s3_side, tail.metrics, Sides::Concurrent);
                own.merge(&s3);
            }
            staged(node, own, sample, tail)
        }
        // One pass, the groups' finish stacked on it — on a cluster it
        // joins the first node's phase, as an engine fold's does —; a
        // stale dictionary's tail runs after it.
        (PlanOp::HybridSplit { .. }, Own::Covered(pass, mut nodes, finish, short)) => {
            let ((table, ..), from) = (node.pushdown_leaf()?, select_phase(node)?);
            if let Some((_, first)) = nodes.first_mut() {
                first.merge(&finish);
            }
            let mut out = leaf(node.label(), ScanSource::Select(None), table, pass, &nodes);
            out.metrics.relabel(&from, "hybrid: s3-side aggregation");
            if nodes.is_empty() {
                out.metrics.stack("group-by", finish, Flow::Breaker);
                out.report.actual.merge(&finish);
            }
            if short {
                let mut tail = next()?;
                tail.metrics
                    .relabel(&from, "hybrid: server-side aggregation");
                out.metrics = QueryMetrics::join_sides(out.metrics, tail.metrics, Sides::Serial);
                out.report.children.push(tail.report);
            }
            out
        }
        (op, Own::Stats(stats)) => {
            let (label, flow) = match op {
                PlanOp::LocalFilter { .. } => ("residual filter", Flow::Streaming),
                PlanOp::Project { .. } => ("project", Flow::Streaming),
                PlanOp::GroupBy { .. } => ("group-by", Flow::Breaker),
                PlanOp::Aggregate { .. } => ("aggregate", Flow::Breaker),
                PlanOp::Sort(_) => ("sort", Flow::Breaker),
                PlanOp::CaseWhen { .. } => ("case-when aggregation", Flow::Breaker),
                _ => return Err(mismatch(node, &Own::Stats(stats))),
            };
            let mut child = next()?;
            child.metrics.stack(label, stats, flow);
            over(node.label(), stats, child)
        }
        (_, own) => return Err(mismatch(node, &own)),
    })
}

fn mismatch(node: &PlanNode, own: &Own) -> Error {
    Error::Other(format!("{} reports no {own:?}", node.label()))
}

fn report(label: String, actual: PhaseStats, children: Vec<OpReport>) -> OpReport {
    OpReport {
        label,
        predicted: None,
        actual,
        children,
    }
}

/// An operator labelled `label` over one child whose phases it leaves
/// as they are.
fn over(label: String, actual: PhaseStats, child: Outcome) -> Outcome {
    Outcome {
        metrics: child.metrics,
        report: report(label, actual, vec![child.report]),
    }
}

/// What a leaf reading `table` from `source` reports: one phase group,
/// named for what the source does (`load`, `cached load`, `select`) over
/// its footprint `stats` — or, when its partitions ran on a cluster, one
/// phase per busy node (`nodes`, by id), each also a child of the
/// operator's report (`label`) showing what that node scanned and
/// shipped, and the footprint their sum.
fn leaf(
    label: String,
    source: ScanSource,
    table: &Table,
    stats: PhaseStats,
    nodes: &[(usize, PhaseStats)],
) -> Outcome {
    let mut metrics = QueryMetrics::new();
    if nodes.is_empty() {
        let verb = match source {
            ScanSource::Plain => "load",
            ScanSource::Cached => "cached load",
            ScanSource::Select(_) => "select",
        };
        metrics.push_serial(format!("{verb} {}", table.name), stats);
        let report = report(label, stats, Vec::new());
        return Outcome { metrics, report };
    }
    let phases = nodes
        .iter()
        .map(|(k, s)| (format!("exchange node {k}"), *s));
    metrics.push_parallel(phases.collect());
    let mut report = report(label, PhaseStats::default(), Vec::new());
    for (k, s) in nodes {
        report.actual.merge(s);
        let scanned = s.plain_bytes + s.cache_bytes + s.disk_bytes + s.s3_scanned_bytes;
        let shipped = s.exchange_bytes;
        let label = format!("Exchange[node {k}: {scanned} B scanned, {shipped} B exchanged]");
        report.children.push(self::report(label, *s, Vec::new()));
    }
    Outcome { metrics, report }
}

/// Phase label of a Bloom join's probe scan: what §V-B1 made of the
/// requested false-positive rate.
fn bloom_probe(planned: &BloomPlan) -> String {
    match planned {
        BloomPlan::AsRequested { .. } => "bloom probe".into(),
        BloomPlan::Degraded { requested, fpr } => {
            format!("bloom probe (fpr {requested} degraded to {fpr})")
        }
        BloomPlan::Fallback => "fallback probe (no bloom)".into(),
    }
}

/// The label a staged operator's pushed scans open their phases with.
fn select_phase(node: &PlanNode) -> Result<String> {
    let (table, ..) = node.pushdown_leaf()?;
    Ok(format!("select {}", table.name))
}

/// A staged operator's first child: its scan phase renamed from `from`
/// to `phase`, and the operator's `work` over its rows stacked on it as
/// `breaker`.
fn closed(mut first: Outcome, from: &str, phase: &str, breaker: &str, work: PhaseStats) -> Outcome {
    first.metrics.relabel(from, phase);
    first.metrics.stack(breaker, work, Flow::Breaker);
    first
}

/// What a staged operator reports: its first child, if it has one, ran to
/// the end, then its second, whose rows it handed on.
fn staged(node: &PlanNode, own: PhaseStats, first: Option<Outcome>, second: Outcome) -> Outcome {
    let Some(first) = first else {
        return over(node.label(), own, second);
    };
    Outcome {
        metrics: QueryMetrics::join_sides(first.metrics, second.metrics, Sides::Serial),
        report: report(node.label(), own, vec![first.report, second.report]),
    }
}
