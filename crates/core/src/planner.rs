//! The optimizer (paper §III, grown a cost-based mode).
//!
//! PushdownDB's testbed exposes a SQL front-end and decides *which
//! algorithm* evaluates each query. The paper takes that choice as an
//! explicit input — "dynamically determining which optimization to use
//! is orthogonal to and beyond the scope of this paper" (§VIII):
//! [`Strategy::Baseline`] never pushes computation, [`Strategy::Pushdown`]
//! always uses the paper's pushdown variant of the matching operator.
//! [`Strategy::Adaptive`] goes beyond the paper: it predicts *every*
//! applicable candidate's [`Usage`] and runtime analytically from
//! catalog statistics and executes the cheapest by predicted dollars.
//!
//! Every query, single-table or joined, takes **one pipeline**:
//!
//! 1. **lower** — the statement becomes named candidate plans
//!    ([`crate::plan`]), every one a tree of IR operators over scan
//!    leaves. Every statement is a join of *n ≥ 1* tables
//!    ([`crate::joinplan`]): a left-deep join DAG over per-table scan
//!    leaves whose join strategy and per-scan modes (plain GET, S3
//!    Select, segment cache) vary **jointly**, under one projection /
//!    aggregation / ORDER BY / LIMIT stack. For one table that line-up
//!    is the §IV filter strategies, local vs S3-side aggregation (§VIII
//!    Q6), the §VI server-side / filtered group-by and the §VII
//!    server-side top-K; beside them stand the staged algorithms, whose
//!    later SQL is written from an earlier phase's rows:
//!    * GROUP BY → §VI's S3-side and hybrid group-by and — under the
//!      extended engine — §X's native one;
//!    * `ORDER BY col LIMIT k` over `*` → §VII's sampling top-K;
//! 2. **price** — [`cost::predict_plan`] walks a candidate whole, over
//!    one [`cost::Estimators`] snapshot per query;
//! 3. **pick** — a fixed strategy takes the first name of its family's
//!    preference list that is a candidate; Adaptive prices them all and
//!    takes the argmin of (dollars less the fill credit, then runtime) —
//!    on a cluster, each priced as it will run there, every partition on
//!    its owning node. Under a segment cache the credit is rent-or-buy's
//!    ([`run_candidates`]): the rent the partitions a plan would fill
//!    have accrued, and a plan that reads a table remotely accrues it;
//! 4. **run** — one executor ([`plan::execute`]), the same tree at any
//!    node count: the partition fan-out places each partition on the node
//!    owning it ([`crate::scan`]);
//! 5. **explain** — the report tree is annotated node by node with the
//!    prediction of the plan that ran, and [`execute_sql_verbose`]
//!    returns the [`Explain`] surface: the candidates considered, the
//!    prediction, and predicted-vs-actual per phase and per operator.

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::cost;
use crate::joinplan::{lower_candidates, top_k};
use crate::metrics::QueryMetrics;
use crate::output::QueryOutput;
use crate::plan::{self, OpReport, PlanNode, PlanOp};
use crate::scan::{ScanLimit, ScanSource};
use pushdown_common::pricing::Usage;
use pushdown_common::{Error, Result};
use pushdown_sql::ast::QuerySpec;
use pushdown_sql::parser::parse_query;

/// Whether the planner may push computation into S3 Select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Load whole tables with plain GETs; compute everything locally.
    Baseline,
    /// Use the paper's pushdown algorithm for the query's operator family.
    Pushdown,
    /// Cost-based: predict every candidate's footprint from catalog
    /// statistics and execute the argmin-dollar plan.
    Adaptive,
}

/// What the planner decided (for EXPLAIN-style output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanKind {
    Filter {
        pushdown: bool,
    },
    Aggregate {
        pushdown: bool,
    },
    GroupBy {
        algorithm: &'static str,
    },
    TopK {
        sampling: bool,
    },
    /// A multi-table join plan; `algorithm` names the joint join ×
    /// per-scan-pushdown candidate (`"baseline"`, `"filtered"`,
    /// `"bloom"`, `"build-push"`, `"probe-push"`).
    Join {
        algorithm: &'static str,
    },
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanKind::Filter { pushdown } => {
                write!(
                    f,
                    "Filter[{}]",
                    if *pushdown { "s3-side" } else { "server-side" }
                )
            }
            PlanKind::Aggregate { pushdown } => {
                write!(
                    f,
                    "Aggregate[{}]",
                    if *pushdown { "s3-side" } else { "server-side" }
                )
            }
            PlanKind::GroupBy { algorithm } => write!(f, "GroupBy[{algorithm}]"),
            PlanKind::TopK { sampling } => {
                write!(
                    f,
                    "TopK[{}]",
                    if *sampling { "sampling" } else { "server-side" }
                )
            }
            PlanKind::Join { algorithm } => write!(f, "Join[{algorithm}]"),
        }
    }
}

/// Cost prediction for one candidate the optimizer considered
/// (Adaptive only).
#[derive(Debug, Clone)]
pub struct CandidateCost {
    pub algorithm: &'static str,
    /// Predicted billable usage.
    pub usage: Usage,
    /// Predicted runtime, seconds.
    pub runtime: f64,
    /// Predicted total dollars.
    pub dollars: f64,
    /// Rent-or-buy credit under a segment cache: the rent accrued by the
    /// partitions this plan's cache reads would fill. Adaptive ranks the
    /// plan at `dollars − credit`; zero without a cache.
    pub credit: f64,
    pub chosen: bool,
}

/// The planner's EXPLAIN surface: what was chosen, and — under
/// [`Strategy::Adaptive`] — every candidate's predicted cost plus the
/// phase-structured prediction for the executed plan.
#[derive(Debug, Clone)]
pub struct Explain {
    pub kind: PlanKind,
    pub strategy: Strategy,
    /// Candidates considered, cheapest marked (empty for the fixed
    /// strategies, which consider nothing).
    pub candidates: Vec<CandidateCost>,
    /// Predicted metrics of the executed plan (Adaptive, and any strategy
    /// on a cluster of more than one node).
    pub predicted: Option<QueryMetrics>,
    /// The executed physical-plan tree, one entry per operator, with
    /// each node's measured footprint and its prediction.
    pub operators: Option<OpReport>,
}

impl Explain {
    /// EXPLAIN ANALYZE-style text: the chosen plan, each candidate's
    /// predicted cost, and predicted-vs-actual resource use per phase.
    pub fn report(&self, out: &QueryOutput, ctx: &QueryContext) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "plan: {}  (strategy: {:?})", self.kind, self.strategy);
        if !self.candidates.is_empty() {
            let _ = writeln!(s, "candidates:");
            for c in &self.candidates {
                let _ = write!(
                    s,
                    "  {} {:<12} predicted ${:.6}  {:.2}s  ({} req, {} scanned, {} returned, {} plain)",
                    if c.chosen { "*" } else { " " },
                    c.algorithm,
                    c.dollars,
                    c.runtime,
                    c.usage.requests,
                    c.usage.select_scanned_bytes,
                    c.usage.select_returned_bytes,
                    c.usage.plain_bytes,
                );
                if c.credit != 0.0 {
                    let _ = write!(s, "  credit ${:.6}", c.credit);
                }
                s.push('\n');
            }
        }
        if let Some(predicted) = &self.predicted {
            let _ = writeln!(s, "phases (predicted vs actual):");
            for (i, actual) in out.metrics.groups.iter().enumerate() {
                // A group by all its concurrent phases: a pipelined join's
                // work shows in its probe's.
                let labels: Vec<&str> = actual.phases.iter().map(|p| p.label.as_str()).collect();
                let label = labels.join(" ‖ ");
                let a_secs = actual.seconds(&ctx.model);
                match predicted.groups.get(i) {
                    Some(pred) => {
                        let _ = writeln!(
                            s,
                            "  {label}: predicted {:.2}s vs actual {a_secs:.2}s",
                            pred.seconds(&ctx.model),
                        );
                    }
                    None => {
                        let _ = writeln!(s, "  {label}: (unpredicted) actual {a_secs:.2}s");
                    }
                }
            }
            let pu = predicted.usage();
            let au = out.metrics.usage();
            let _ = writeln!(
                s,
                "usage: predicted {} req / {} scanned / {} returned / {} plain\n\
                 usage: actual    {} req / {} scanned / {} returned / {} plain",
                pu.requests,
                pu.select_scanned_bytes,
                pu.select_returned_bytes,
                pu.plain_bytes,
                au.requests,
                au.select_scanned_bytes,
                au.select_returned_bytes,
                au.plain_bytes,
            );
            let _ = writeln!(
                s,
                "cost: predicted ${:.6} vs actual ${:.6}",
                predicted.cost(&ctx.model, &ctx.pricing).total(),
                out.metrics.cost(&ctx.model, &ctx.pricing).total(),
            );
        }
        if let Some(ops) = &self.operators {
            let _ = writeln!(s, "operators (predicted vs actual):");
            s.push_str(&ops.render(&ctx.model));
        }
        // The per-query child ledger — what AWS would bill this query,
        // exact even with other queries running concurrently.
        let b = out.billed;
        let _ = writeln!(
            s,
            "ledger: billed   {} req / {} scanned / {} returned / {} plain (${:.6})",
            b.requests,
            b.select_scanned_bytes,
            b.select_returned_bytes,
            b.plain_bytes,
            out.billed_cost(ctx).total(),
        );
        // Cluster-wide decomposition of the same totals: one line per
        // node with everything it billed (across all queries so far),
        // its interconnect volume, and its virtual busy time.
        if let Some(cluster) = &ctx.cluster {
            for ns in cluster.snapshots() {
                let _ = writeln!(
                    s,
                    "  node {}: billed {} req / {} scanned / {} returned / {} plain  exchange {} B  busy {:.2}s",
                    ns.node,
                    ns.usage.requests,
                    ns.usage.select_scanned_bytes,
                    ns.usage.select_returned_bytes,
                    ns.usage.plain_bytes,
                    ns.exchange_bytes,
                    ns.seconds,
                );
            }
        }
        // The hybrid tier's store-wide cache counters (cross-query, so a
        // fleet of reports shows the cache heating up).
        if let Some(cache) = ctx.store.cache() {
            let cs = cache.stats();
            let _ = writeln!(
                s,
                "cache:  {} hits / {} misses, {} B hit, {} B filled, {} evicted; \
                 {} B of {} B budget used",
                cs.hits,
                cs.misses,
                cs.hit_bytes,
                cs.fill_bytes,
                cs.evictions,
                cs.used_bytes,
                cs.budget_bytes,
            );
        }
        s
    }
}

/// Which lowering a query took: the §IV–§VII algorithm families of a
/// single-table statement, or a join DAG. The family holds what planning
/// knows about its variants *by name* — which ones a fixed strategy
/// prefers and the [`PlanKind`] a chosen one reports; which ones a query
/// admits is decided where it is lowered ([`lower`]), what each costs is
/// [`cost::predict_plan`]'s business.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Filter,
    Aggregate,
    GroupBy,
    TopK,
    Join,
}

impl Family {
    /// What a fixed strategy runs: the first of these names that is a
    /// candidate of the query. Pushdown is the paper's line-up — hybrid
    /// group-by where it applies (one grouping column), the Bloom join
    /// where its keys are integers.
    fn preferred(self, pushdown: bool) -> &'static [&'static str] {
        match (self, pushdown) {
            (Family::Join, false) => &["baseline"],
            (_, false) => &["server-side"],
            (Family::Filter | Family::Aggregate, true) => &["s3-side"],
            (Family::GroupBy, true) => &["hybrid", "s3-side", "filtered"],
            (Family::TopK, true) => &["sampling"],
            (Family::Join, true) => &["bloom", "filtered"],
        }
    }

    fn kind(self, algorithm: &'static str) -> PlanKind {
        let pushdown = algorithm == "s3-side";
        match self {
            Family::Filter => PlanKind::Filter { pushdown },
            Family::Aggregate => PlanKind::Aggregate { pushdown },
            Family::GroupBy => PlanKind::GroupBy { algorithm },
            Family::TopK => PlanKind::TopK {
                sampling: algorithm == "sampling",
            },
            Family::Join => PlanKind::Join { algorithm },
        }
    }
}

/// Parse and execute a client-dialect SQL query against one table.
pub fn execute_sql(
    ctx: &QueryContext,
    table: &Table,
    sql: &str,
    strategy: Strategy,
) -> Result<QueryOutput> {
    let (out, _) = execute_sql_verbose(ctx, table, sql, strategy)?;
    Ok(out)
}

/// Like [`execute_sql`], returning the full [`Explain`] surface —
/// candidate predictions and the predicted-vs-actual breakdown under
/// [`Strategy::Adaptive`].
pub fn execute_sql_verbose(
    ctx: &QueryContext,
    table: &Table,
    sql: &str,
    strategy: Strategy,
) -> Result<(QueryOutput, Explain)> {
    let (family, candidates) = lower(ctx, table, &parse_query(sql)?)?;
    run_candidates(ctx, family, &candidates, strategy)
}

/// Candidate plans of one query, by name, in the order ties are broken
/// (the argmin keeps the earliest minimum).
pub type Candidates = Vec<(&'static str, PlanNode)>;

/// Lower a statement to its family and its candidate plans — the trees
/// of [`crate::joinplan`], a single-table statement being a join of one
/// table. Cached candidates lead wherever a segment cache is installed,
/// so a tie goes to the plan that warms the cache: a cold fill prices
/// exactly what the remote load it replaces costs, and what the fill
/// saves later is the rent-or-buy credit [`run_candidates`] ranks it by.
pub fn lower(ctx: &QueryContext, table: &Table, spec: &QuerySpec) -> Result<(Family, Candidates)> {
    let family = if !spec.joins.is_empty() {
        Family::Join
    } else if !spec.group_by.is_empty() {
        Family::GroupBy
    } else if spec.select.is_aggregate() {
        Family::Aggregate
    } else if top_k(spec).is_some() {
        Family::TopK
    } else {
        Family::Filter
    };
    Ok((family, lower_candidates(ctx, table, spec)?))
}

/// A number to overwrite on a lowered candidate before it runs — what a
/// figure sweeps.
#[derive(Debug, Clone, Copy)]
pub enum Tune {
    /// The false-positive rate its Bloom joins request (Fig 4).
    Fpr(f64),
    /// How many groups its hybrid split pushes to S3, whatever their
    /// share of the sample (Fig 6).
    ForcedSplit(usize),
    /// The size of its top-K sample (Fig 8) — a threshold the catalog
    /// answers gets its striped sample back, so a figure runs the paper's
    /// two phases.
    SampleSize(usize),
}

impl Tune {
    /// Overwrite the number on every operator of `node` that has it.
    pub fn apply(self, node: &mut PlanNode) {
        match (&mut node.op, self) {
            (PlanOp::BloomJoin { fpr, .. }, Tune::Fpr(rate)) => *fpr = rate,
            (PlanOp::HybridSplit { force, .. }, Tune::ForcedSplit(n)) => *force = Some(n),
            // A catalog threshold gets a sample, sized below.
            (PlanOp::Threshold { .. }, Tune::SampleSize(_)) => crate::joinplan::add_sample(node),
            (
                PlanOp::Scan {
                    source: ScanSource::Select(Some(ScanLimit::Striped(size))),
                    ..
                },
                Tune::SampleSize(n),
            ) => *size = n,
            _ => {}
        }
        node.children.iter_mut().for_each(|c| self.apply(c));
    }
}

/// Run the candidate plan `sql` lowers to under `name` — a named
/// algorithm (`"server-side"`, `"s3-side"`, `"filtered"`, `"hybrid"`,
/// `"sampling"`, `"baseline"`, `"bloom"`, ...), not the optimizer's pick
/// — on a query scope of its own: figures, examples and tests compare
/// named algorithms. Join tables must be registered in `ctx.catalog`.
///
/// # Errors
///
/// `sql` does not lower, has no candidate called `name`, or the
/// candidate fails to run.
pub fn run_candidate(
    ctx: &QueryContext,
    table: &Table,
    sql: &str,
    name: &str,
    tune: Option<Tune>,
) -> Result<QueryOutput> {
    let ctx = ctx.scoped();
    let (_, candidates) = lower(&ctx, table, &parse_query(sql)?)?;
    let found = candidates.into_iter().find(|(n, _)| *n == name);
    let (_, mut plan) =
        found.ok_or_else(|| Error::Bind(format!("`{sql}` has no `{name}` candidate")))?;
    if let Some(tune) = tune {
        tune.apply(&mut plan);
    }
    let mut out = plan::execute(&ctx, &plan)?.into_output();
    out.billed = ctx.billed();
    Ok(out)
}

/// Index of the cheapest candidate: by predicted dollars less its fill
/// credit, ties broken by predicted runtime, then by position (the
/// earliest minimum stays).
fn argmin(costs: &[CandidateCost]) -> usize {
    let ranked = |c: &CandidateCost| c.dollars - c.credit;
    let mut best = 0;
    for (i, c) in costs.iter().enumerate().skip(1) {
        let (b, r) = (ranked(&costs[best]), ranked(c));
        if r < b || (r == b && c.runtime < costs[best].runtime) {
            best = i;
        }
    }
    best
}

/// Predicted total dollars of a plan's predicted metrics.
fn dollars(ctx: &QueryContext, metrics: &QueryMetrics) -> f64 {
    metrics.cost(&ctx.model, &ctx.pricing).total()
}

/// The tables `plan` reads through the segment cache, each once.
fn cached_reads(plan: &PlanNode) -> Vec<&Table> {
    let mut tables: Vec<&Table> = Vec::new();
    for (table, cached) in plan.reads() {
        if cached && !tables.iter().any(|t| t.same(table)) {
            tables.push(table);
        }
    }
    tables
}

/// A candidate's rent-or-buy credit: the rent accrued by the partitions
/// its cached leaves would fill.
fn credit(ests: &cost::Estimators<'_>, plan: &PlanNode) -> Result<f64> {
    cached_reads(plan).into_iter().map(|t| ests.credit(t)).sum()
}

/// Rent-or-buy's accrual for running `candidates[pick]`, priced at
/// `paid` dollars (ski rental over cache fills; Karlin et al.,
/// Algorithmica 1988). Each table the pick reads through a GET or
/// Select leaf — and does not fill — whose fill could stay in the cache
/// ([`cost::Estimators::keeps`]) accrues what reading it remotely left
/// on the table: `paid` less the cheapest candidate that reads it
/// through the cache, that candidate priced as if the table were
/// resident ([`cost::Estimators::as_if_resident`]) — never less than
/// zero, split evenly between the tables the pick read remotely.
fn rents<'p>(
    ctx: &QueryContext,
    ests: &cost::Estimators<'_>,
    candidates: &'p Candidates,
    pick: usize,
    paid: f64,
) -> Result<Vec<(&'p Table, f64)>> {
    let reads = candidates[pick].1.reads();
    let filled = cached_reads(&candidates[pick].1);
    let mut remote: Vec<&Table> = Vec::new();
    for (table, _) in reads.into_iter().filter(|(_, cached)| !cached) {
        let seen = remote.iter().chain(&filled).any(|t| t.same(table));
        if !seen && ests.keeps(table)? {
            remote.push(table);
        }
    }
    let share = 1.0 / remote.len() as f64;
    let mut out = Vec::new();
    for table in remote {
        let resident = ests.as_if_resident(table);
        let mut best = f64::INFINITY;
        for (_, plan) in candidates.iter() {
            if cached_reads(plan).iter().any(|t| t.same(table)) {
                best = best.min(dollars(ctx, &cost::predict_plan(&resident, plan)?.metrics));
            }
        }
        if best.is_finite() {
            out.push((table, share * (paid - best).max(0.0)));
        }
    }
    Ok(out)
}

/// The pipeline behind every query once it is lowered (see the module
/// docs): price, pick, run, explain. [`execute_sql_verbose`] is
/// `parse` + [`lower`] + this; a caller that composes candidates out of
/// lowered trees (TPC-H Q14 and Q17, `pushdown_tpch::queries`) hands
/// them to the same pipeline.
///
/// Under a segment cache Adaptive plays rent-or-buy with every fill, one
/// priced rule for every family: a plan that reads a table remotely
/// where a cached read of it would have been cheaper accrues the
/// difference as the table's rent (`rents`), and a plan that would fill
/// partitions is ranked at its predicted dollars less their rent
/// ([`CandidateCost::credit`]). So a table is bought — filled — once what
/// renting it has cost covers the fill's premium over the cheapest
/// remote plan, and a table larger than the cache's whole budget, whose
/// fill could not stay, is never credited. Without a cache nothing
/// accrues and nothing is credited.
///
/// # Errors
///
/// A fixed strategy finds none of `family`'s preferred names among
/// `candidates`, or pricing or execution fails.
pub fn run_candidates(
    ctx: &QueryContext,
    family: Family,
    candidates: &Candidates,
    strategy: Strategy,
) -> Result<(QueryOutput, Explain)> {
    // One scope per query: everything below — the chosen algorithm,
    // planner-level scans — bills a child ledger that rolls up into the
    // store-global one, so `QueryOutput::billed` is exact even when many
    // queries share this context concurrently.
    let ctx = &ctx.scoped();
    let adaptive = strategy == Strategy::Adaptive;
    let ests = cost::Estimators::new(ctx, candidates.iter().map(|(_, plan)| plan));
    // Fixed strategies pick by name and only price the plan they run;
    // Adaptive prices every candidate whole, credits each with the rent
    // of what it would fill, and takes the argmin.
    let mut costs: Vec<CandidateCost> = Vec::new();
    let (pick, prediction) = if adaptive {
        let mut predictions = Vec::with_capacity(candidates.len());
        for (name, plan) in candidates {
            let p = cost::predict_plan(&ests, plan)?;
            costs.push(CandidateCost {
                algorithm: name,
                usage: p.metrics.usage(),
                runtime: p.metrics.runtime(&ctx.model),
                dollars: dollars(ctx, &p.metrics),
                credit: credit(&ests, plan)?,
                chosen: false,
            });
            predictions.push(p);
        }
        let pick = argmin(&costs);
        costs[pick].chosen = true;
        (pick, predictions.swap_remove(pick))
    } else {
        let preferred = family.preferred(strategy == Strategy::Pushdown);
        let position = |name: &&str| candidates.iter().position(|(n, _)| n == name);
        let pick = preferred
            .iter()
            .find_map(position)
            .ok_or_else(|| Error::Bind(format!("no {preferred:?} candidate to run")))?;
        (pick, cost::predict_plan(&ests, &candidates[pick].1)?)
    };
    // What the pick accrues is priced before it runs, against the cache
    // it was picked on; it applies at the query's commit point, after
    // every scan's cache effects.
    let rent = match adaptive && ctx.store.cache().is_some() {
        true => rents(ctx, &ests, candidates, pick, costs[pick].dollars)?,
        false => Vec::new(),
    };
    let (algorithm, plan) = &candidates[pick];
    let executed = plan::execute(ctx, plan)?;
    for (table, dollars) in rent {
        ests.accrue_rent(table, dollars)?;
    }
    let mut report = executed.report.clone();
    plan::annotate(&mut report, &prediction.report);
    let explain = Explain {
        kind: family.kind(algorithm),
        strategy,
        candidates: costs,
        // A run spread over a cluster carries the prediction whatever the
        // strategy, so cluster calibration can compare it to the ledger.
        predicted: (adaptive || ctx.spread().is_some()).then_some(prediction.metrics),
        operators: Some(report),
    };
    let mut out = executed.into_output();
    out.billed = ctx.billed();
    Ok((out, explain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use pushdown_common::{DataType, Row, Schema, Value};
    use pushdown_s3::S3Store;

    fn setup() -> (QueryContext, Table) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("v", DataType::Float),
            ("s", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..1_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i % 7) as i64),
                    Value::Float((i as f64 * 3.7) % 101.0),
                    Value::Str(format!("name-{i}")),
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 300).unwrap();
        (QueryContext::new(store), t)
    }

    fn both(ctx: &QueryContext, t: &Table, sql: &str) -> (QueryOutput, QueryOutput) {
        (
            execute_sql(ctx, t, sql, Strategy::Baseline).unwrap(),
            execute_sql(ctx, t, sql, Strategy::Pushdown).unwrap(),
        )
    }

    fn assert_close(a: &QueryOutput, b: &QueryOutput, what: &str) {
        assert_eq!(a.rows.len(), b.rows.len(), "{what}");
        for (x, y) in a.rows.iter().zip(&b.rows) {
            for (vx, vy) in x.values().iter().zip(y.values()) {
                match (vx, vy) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert!((fx - fy).abs() < 1e-6 * (1.0 + fx.abs()), "{what}")
                    }
                    _ => assert_eq!(vx, vy, "{what}"),
                }
            }
        }
    }

    #[test]
    fn filter_queries_route_to_filter_algorithms() {
        let (ctx, t) = setup();
        let sql = "SELECT g, v FROM t WHERE v < 10 AND g = 3";
        let (base, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
        assert_eq!(kind, PlanKind::Filter { pushdown: false });
        let (push, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Pushdown).unwrap();
        assert_eq!(kind, PlanKind::Filter { pushdown: true });
        assert_close(&base, &push, sql);
        assert!(!base.rows.is_empty());
        assert_eq!(base.schema.names(), vec!["g", "v"]);
    }

    #[test]
    fn select_star_and_limit() {
        let (ctx, t) = setup();
        let (base, push) = both(&ctx, &t, "SELECT * FROM t WHERE g = 1 LIMIT 5");
        assert_eq!(base.rows.len(), 5);
        assert_close(&base, &push, "limit");
    }

    #[test]
    fn no_where_clause_means_full_scan() {
        let (ctx, t) = setup();
        let (base, push) = both(&ctx, &t, "SELECT s FROM t");
        assert_eq!(base.rows.len(), 1_000);
        assert_close(&base, &push, "full scan");
    }

    #[test]
    fn aggregates_route_to_aggregation() {
        let (ctx, t) = setup();
        let sql = "SELECT SUM(v), COUNT(*), AVG(v), MIN(g), MAX(g) FROM t WHERE g <> 2";
        let (base, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
        assert_eq!(kind, PlanKind::Aggregate { pushdown: false });
        let (push, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Pushdown).unwrap();
        assert_eq!(kind, PlanKind::Aggregate { pushdown: true });
        assert_close(&base, &push, sql);
        // Pushdown ships almost nothing back.
        assert!(push.metrics.bytes_returned() < base.metrics.bytes_returned() / 100);
    }

    #[test]
    fn group_by_routes_to_groupby_algorithms() {
        let (ctx, t) = setup();
        let sql = "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g";
        let (base, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
        assert_eq!(
            kind,
            PlanKind::GroupBy {
                algorithm: "server-side"
            }
        );
        let (push, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Pushdown).unwrap();
        assert_eq!(
            kind,
            PlanKind::GroupBy {
                algorithm: "hybrid"
            }
        );
        assert_eq!(base.rows.len(), 7);
        assert_close(&base, &push, sql);
    }

    #[test]
    fn order_by_limit_routes_to_topk() {
        let (ctx, t) = setup();
        let sql = "SELECT * FROM t ORDER BY v DESC LIMIT 12";
        let (base, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
        assert_eq!(kind, PlanKind::TopK { sampling: false });
        let (push, Explain { kind, .. }) =
            execute_sql_verbose(&ctx, &t, sql, Strategy::Pushdown).unwrap();
        assert_eq!(kind, PlanKind::TopK { sampling: true });
        assert_eq!(base.rows.len(), 12);
        for (a, b) in base.rows.iter().zip(&push.rows) {
            assert_eq!(a[1], b[1]);
        }
        // Descending.
        assert!(base.rows[0][1].total_cmp(&base.rows[11][1]).is_ge());
    }

    #[test]
    fn unsupported_shapes_are_rejected_cleanly() {
        let (ctx, t) = setup();
        for sql in [
            "SELECT v + 1 FROM t",                      // computed projection
            "SELECT s, SUM(v) FROM t GROUP BY g",       // non-grouped column
            "SELECT SUM(v) FROM t ORDER BY v LIMIT 1",  // ordering one scalar row
            "SELECT * FROM t ORDER BY nope LIMIT 5",    // unknown sort key
            "SELECT g FROM t ORDER BY v, nope LIMIT 5", // unknown second key
            "SELECT * FROM t JOIN u ON g = g",          // unknown join table
        ] {
            let err = execute_sql(&ctx, &t, sql, Strategy::Pushdown);
            assert!(err.is_err(), "{sql} should be rejected");
        }
    }

    #[test]
    fn sorted_shapes_beyond_topk_are_planned() {
        let (ctx, t) = setup();
        // ORDER BY without LIMIT: full sort.
        for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
            let out = execute_sql(&ctx, &t, "SELECT * FROM t ORDER BY v", strategy).unwrap();
            assert_eq!(out.rows.len(), 1_000);
            for w in out.rows.windows(2) {
                assert!(w[0][1].total_cmp(&w[1][1]).is_le());
            }
        }
        // Projected + filtered multi-key ORDER BY with LIMIT.
        let sql = "SELECT g, v FROM t WHERE v < 50 ORDER BY g DESC, v ASC LIMIT 9";
        let base = execute_sql(&ctx, &t, sql, Strategy::Baseline).unwrap();
        let push = execute_sql(&ctx, &t, sql, Strategy::Pushdown).unwrap();
        assert_eq!(base.rows.len(), 9);
        assert_close(&base, &push, sql);
        for w in base.rows.windows(2) {
            let major = w[0][0].total_cmp(&w[1][0]);
            assert!(major.is_ge());
            if major == std::cmp::Ordering::Equal {
                assert!(w[0][1].total_cmp(&w[1][1]).is_le());
            }
        }
    }

    #[test]
    fn group_by_with_order_by_alias_sorts_results() {
        let (ctx, t) = setup();
        let sql = "SELECT g, SUM(v) AS total FROM t GROUP BY g ORDER BY total DESC LIMIT 3";
        for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
            let (out, ex) = execute_sql_verbose(&ctx, &t, sql, strategy).unwrap();
            assert!(matches!(ex.kind, PlanKind::GroupBy { .. }));
            assert_eq!(out.rows.len(), 3);
            for w in out.rows.windows(2) {
                assert!(w[0][1].total_cmp(&w[1][1]).is_ge(), "{strategy:?}");
            }
            // The operator tree shows the Sort over the group-by leaf.
            let report = ex.report(&out, &ctx);
            assert!(report.contains("TopK[1 keys, limit 3]"), "{report}");
            assert!(report.contains("GroupBy["), "{report}");
        }
        // Ordering by the group column also works (name, not alias).
        let by_g = execute_sql(
            &ctx,
            &t,
            "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g DESC LIMIT 2",
            Strategy::Adaptive,
        )
        .unwrap();
        assert!(by_g.rows[0][0].total_cmp(&by_g.rows[1][0]).is_ge());
    }

    const ALL_SHAPES: [&str; 5] = [
        "SELECT g, v FROM t WHERE v < 10 AND g = 3",
        "SELECT s FROM t",
        "SELECT SUM(v), COUNT(*), AVG(v) FROM t WHERE g <> 2",
        "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g",
        "SELECT * FROM t ORDER BY v DESC LIMIT 12",
    ];

    #[test]
    fn adaptive_agrees_with_baseline_on_every_shape() {
        let (ctx, t) = setup();
        for sql in ALL_SHAPES {
            let base = execute_sql(&ctx, &t, sql, Strategy::Baseline).unwrap();
            let adapt = execute_sql(&ctx, &t, sql, Strategy::Adaptive).unwrap();
            assert_close(&base, &adapt, sql);
        }
    }

    #[test]
    fn adaptive_never_costs_measurably_more_than_either_fixed_strategy() {
        let (ctx, t) = setup();
        for sql in ALL_SHAPES {
            let costs: Vec<f64> = [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive]
                .into_iter()
                .map(|s| {
                    execute_sql(&ctx, &t, sql, s)
                        .unwrap()
                        .metrics
                        .cost(&ctx.model, &ctx.pricing)
                        .total()
                })
                .collect();
            let min_fixed = costs[0].min(costs[1]);
            assert!(
                costs[2] <= min_fixed * 1.10,
                "{sql}: adaptive ${:.6} vs min(fixed) ${min_fixed:.6}",
                costs[2]
            );
        }
    }

    #[test]
    fn adaptive_explain_reports_candidates_and_prediction() {
        let (ctx, t) = setup();
        let sql = "SELECT g, v FROM t WHERE v < 10";
        let (out, ex) = execute_sql_verbose(&ctx, &t, sql, Strategy::Adaptive).unwrap();
        assert!(matches!(ex.kind, PlanKind::Filter { .. }));
        assert_eq!(ex.strategy, Strategy::Adaptive);
        assert_eq!(ex.candidates.len(), 2);
        assert_eq!(ex.candidates.iter().filter(|c| c.chosen).count(), 1);
        let chosen = ex.candidates.iter().find(|c| c.chosen).unwrap();
        for c in &ex.candidates {
            assert!(chosen.dollars <= c.dollars, "chosen plan is the argmin");
            assert!(c.dollars > 0.0 && c.runtime > 0.0);
        }
        let predicted = ex
            .predicted
            .as_ref()
            .expect("adaptive carries a prediction");
        assert!(!predicted.groups.is_empty());
        // The report renders candidates and the predicted-vs-actual table.
        let report = ex.report(&out, &ctx);
        assert!(report.contains("candidates:"), "{report}");
        assert!(report.contains("predicted"), "{report}");
        assert!(report.contains("actual"), "{report}");
        // Fixed strategies consider nothing and predict nothing.
        let (_, fixed) = execute_sql_verbose(&ctx, &t, sql, Strategy::Baseline).unwrap();
        assert!(fixed.candidates.is_empty());
        assert!(fixed.predicted.is_none());
        assert!(!fixed.report(&out, &ctx).contains("candidates:"));
    }

    #[test]
    fn adaptive_groupby_may_choose_beyond_the_paper_lineup() {
        // The adaptive planner considers `filtered` — a variant the fixed
        // Pushdown strategy never picks. Whatever it chooses must agree
        // with the baseline answer.
        let (ctx, t) = setup();
        let sql = "SELECT g, SUM(v) FROM t WHERE v < 50 GROUP BY g";
        let (out, ex) = execute_sql_verbose(&ctx, &t, sql, Strategy::Adaptive).unwrap();
        let PlanKind::GroupBy { algorithm } = ex.kind else {
            panic!("expected a group-by plan")
        };
        assert!(
            ["server-side", "filtered", "s3-side", "hybrid"].contains(&algorithm),
            "{algorithm}"
        );
        assert_eq!(ex.candidates.len(), 4, "all four §VI families considered");
        let base = execute_sql(&ctx, &t, sql, Strategy::Baseline).unwrap();
        assert_close(&base, &out, sql);
    }

    fn join_setup() -> (QueryContext, Table) {
        let store = S3Store::new();
        let dim_schema = Schema::from_pairs(&[("k", DataType::Int), ("tag", DataType::Str)]);
        let dims: Vec<Row> = (0..20)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("tag-{}", i % 4))]))
            .collect();
        let fact_schema = Schema::from_pairs(&[("fk", DataType::Int), ("val", DataType::Float)]);
        let facts: Vec<Row> = (0..600)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i % 25) as i64), // some fks have no dim row
                    Value::Float((i as f64 * 7.3) % 90.0),
                ])
            })
            .collect();
        let dim = upload_csv_table(&store, "b", "dim", &dim_schema, &dims, 8).unwrap();
        let fact = upload_csv_table(&store, "b", "fact", &fact_schema, &facts, 150).unwrap();
        let ctx = QueryContext::new(store).with_tables([dim]);
        (ctx, fact)
    }

    #[test]
    fn joined_queries_plan_and_execute_under_every_strategy() {
        let (ctx, fact) = join_setup();
        let sql = "SELECT tag, COUNT(*) AS n, SUM(val) AS total FROM fact \
                   JOIN dim ON fk = k WHERE val < 60 GROUP BY tag \
                   ORDER BY total DESC, tag LIMIT 3";
        let base = execute_sql(&ctx, &fact, sql, Strategy::Baseline).unwrap();
        assert_eq!(base.rows.len(), 3);
        assert_eq!(base.schema.names(), vec!["tag", "n", "total"]);
        for strategy in [Strategy::Pushdown, Strategy::Adaptive] {
            let (out, ex) = execute_sql_verbose(&ctx, &fact, sql, strategy).unwrap();
            assert_close(&base, &out, sql);
            assert!(matches!(ex.kind, PlanKind::Join { .. }), "{:?}", ex.kind);
            // The operator tree renders scans, the join and the sort,
            // with predictions attached.
            let report = ex.report(&out, &ctx);
            assert!(report.contains("operators"), "{report}");
            assert!(report.contains("Join["), "{report}");
            assert!(report.contains("Scan["), "{report}");
            assert!(report.contains("predicted"), "{report}");
        }
        // Adaptive weighs the joint join × scan-mode candidate space.
        let (_, ex) = execute_sql_verbose(&ctx, &fact, sql, Strategy::Adaptive).unwrap();
        let names: Vec<&str> = ex.candidates.iter().map(|c| c.algorithm).collect();
        assert!(names.contains(&"baseline"), "{names:?}");
        assert!(names.contains(&"filtered"), "{names:?}");
        assert!(names.contains(&"bloom"), "{names:?}");
        assert!(names.contains(&"build-push"), "{names:?}");
        assert!(names.contains(&"probe-push"), "{names:?}");
        assert_eq!(ex.candidates.iter().filter(|c| c.chosen).count(), 1);
    }

    #[test]
    fn joined_scalar_aggregate_and_projection_shapes() {
        let (ctx, fact) = join_setup();
        // Scalar aggregate over the join (the paper's Listing 2 shape).
        let sum = execute_sql(
            &ctx,
            &fact,
            "SELECT SUM(val) FROM fact JOIN dim ON fk = k",
            Strategy::Adaptive,
        )
        .unwrap();
        assert_eq!(sum.rows.len(), 1);
        let base = execute_sql(
            &ctx,
            &fact,
            "SELECT SUM(val) FROM fact JOIN dim ON fk = k",
            Strategy::Baseline,
        )
        .unwrap();
        assert_close(&base, &sum, "join sum");
        // Plain projection with LIMIT.
        let rows = execute_sql(
            &ctx,
            &fact,
            "SELECT tag, val FROM fact JOIN dim ON fk = k LIMIT 7",
            Strategy::Pushdown,
        )
        .unwrap();
        assert_eq!(rows.rows.len(), 7);
        assert_eq!(rows.schema.names(), vec!["tag", "val"]);
    }

    #[test]
    fn joined_queries_bind_errors() {
        let (ctx, fact) = join_setup();
        for (sql, needle) in [
            (
                "SELECT * FROM fact JOIN ghost ON fk = k",
                "unknown table `ghost`",
            ),
            (
                "SELECT * FROM fact JOIN dim ON fk = nope",
                "unknown column `nope`",
            ),
            (
                "SELECT * FROM fact JOIN dim ON fk = val",
                "must compare a column",
            ),
            (
                "SELECT tag, SUM(val) FROM fact JOIN dim ON fk = k \
                 GROUP BY tag ORDER BY missing",
                "unknown ORDER BY key",
            ),
        ] {
            let err = execute_sql(&ctx, &fact, sql, Strategy::Baseline).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{sql}: expected `{needle}` in `{err}`"
            );
        }
    }

    #[test]
    fn plan_kind_display() {
        assert_eq!(
            PlanKind::Filter { pushdown: true }.to_string(),
            "Filter[s3-side]"
        );
        assert_eq!(
            PlanKind::GroupBy {
                algorithm: "hybrid"
            }
            .to_string(),
            "GroupBy[hybrid]"
        );
        assert_eq!(
            PlanKind::TopK { sampling: true }.to_string(),
            "TopK[sampling]"
        );
    }
}
