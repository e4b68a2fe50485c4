//! Lowering [`QuerySpec`]s into physical-plan candidates: every
//! statement is a join of *n ≥ 1* tables.
//!
//! A query (`FROM a [JOIN b ON ... [JOIN c ON ...]]`) lowers to a
//! left-deep tree of hash joins over per-table scan leaves — one bare
//! leaf when there is one table — topped by the residual filter,
//! projection/aggregation, sort and limit operators. The planner weighs
//! the **join strategy and each scan's pushdown strategy jointly**:
//! every candidate fixes the source of each table's scan leaf (plain
//! GET vs S3 Select vs the segment cache — [`ScanSource`], the scan
//! layer's own vocabulary) and whether the probe scans
//! carry a Bloom runtime filter (§V-A2), and
//! [`crate::cost::predict_plan`] prices the whole tree. For one table
//! that line-up *is* the paper's §IV filter, §VIII-Q6 aggregate and
//! §VI server-side / filtered group-by: the leaf projects the columns
//! the stack consumes, in the stack's order, so no `Project` sits
//! between them and the pushed variant ships the family's own Select
//! statement. Beside those stand, for one table, the paper's *staged*
//! algorithms — the ones whose second Select statement is written from
//! the first one's rows ([`crate::plan`]): §VI's S3-side and hybrid
//! group-by (and, under the extended engine, §X's native one) and §VII's
//! sampling top-K, each a tree of scan leaves under one staged operator,
//! under the same ORDER BY / LIMIT stack.
//!
//! Column references are resolved *across* the joined schemas: a name
//! must belong to exactly one table (ambiguity is a bind error), which
//! is why the parser can drop `alias.` qualifiers.

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::plan::{Order, PlanNode, PlanOp};
use crate::scan::{ScanLimit, ScanSource};
use pushdown_common::{DataType, Error, Field, Result, Schema};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::ast::{OrderBy, QuerySpec};
use pushdown_sql::bind::Binder;
use pushdown_sql::{Expr, SelectItem};

/// False-positive rate the Bloom-join candidates request (the paper's
/// default operating point; Fig 4 sweeps it).
const BLOOM_FPR: f64 = 0.01;

/// Fraction of the table the hybrid group-by samples (paper §VI-B: "the
/// first 1 % of data"), and the fewest rows it asks for.
const HYBRID_SAMPLE_FRACTION: f64 = 0.01;
const HYBRID_MIN_SAMPLE_ROWS: f64 = 64.0;

/// The paper's traffic-optimal top-K sample size `S* = sqrt(K·N/α)`
/// (§VII-B), where `α` is the fraction of each record the sampling phase
/// must read — clamped to `[10·K, N]` so the sample always dominates K
/// and never exceeds the table.
pub fn optimal_sample_size(k: usize, n: u64, alpha: f64) -> usize {
    let s = ((k as f64) * (n as f64) / alpha.clamp(0.001, 1.0)).sqrt();
    let lo = (10 * k.max(1)) as f64;
    s.max(lo).min(n as f64).ceil() as usize
}

/// `ORDER BY col LIMIT k` over `*` of one unfiltered table — the §VII
/// top-K shape, whose pushed candidate is the sampling algorithm.
pub(crate) fn top_k(spec: &QuerySpec) -> Option<(&OrderBy, usize)> {
    match (
        spec.joins.as_slice(),
        spec.order_by.as_slice(),
        spec.select.limit,
        &spec.select.where_clause,
        spec.group_by.as_slice(),
        spec.select.items.as_slice(),
    ) {
        ([], [order], Some(k), None, [], [SelectItem::Wildcard]) => Some((order, k as usize)),
        _ => None,
    }
}

/// One join edge with its keys resolved: `build_key` lives in the
/// accumulated left side, `probe_key` in the newly joined table.
struct JoinEdge {
    build_key: String,
    probe_key: String,
    /// Both keys are integers — the Bloom filter's §V-A2 requirement.
    int_keys: bool,
}

/// A whole pushed scan: predicate + projection shipped to S3 Select.
const PUSHED: ScanSource = ScanSource::Select(None);

/// Lower a query to its candidate plans, named by strategy. One table:
/// the three scan sources under its family's names — `"cached-local"`,
/// `"server-side"`, and the pushed `"s3-side"` (`"filtered"` under a
/// GROUP BY; `"sampling"`, with the §VII threshold between the sort and
/// the scan, for a top-K) — and then the staged group-bys that apply
/// (`staged_group_bys`). Joins: `"baseline"` (all plain loads), `"filtered"` (all
/// scans pushed), `"bloom"` (pushed + Bloom probe filters, when keys are
/// integers), and — for two-table joins — the mixed
/// `"build-push"`/`"probe-push"` combinations; with a segment cache,
/// `"cached"` (every scan through the cache) and — for two-table joins —
/// `"cached-build"` (build side cached, probe side pushed down, with a
/// Bloom runtime filter when the keys are integers), so the planner
/// weighs cached-local vs pushdown vs remote **per scan**, jointly with
/// the join strategy. The all-local and all-pushed candidates always
/// exist.
pub fn lower_candidates(
    ctx: &QueryContext,
    primary: &Table,
    spec: &QuerySpec,
) -> Result<Vec<(&'static str, PlanNode)>> {
    let tables = resolve_tables(ctx, primary, spec)?;
    let edges = resolve_join_edges(&tables, spec)?;
    let (per_table, residual) = split_predicates(&tables, spec)?;
    let needed = needed_columns(&tables, spec, &edges, &residual)?;

    let n = tables.len();
    let int_keys = edges.iter().any(|e| e.int_keys);
    // The all-cached, all-local and all-pushed combinations, under the
    // names the statement's family gives them.
    let [cached, local, pushed] = match (n, spec.group_by.is_empty()) {
        (1, true) if top_k(spec).is_some() => ["cached-local", "server-side", "sampling"],
        (1, true) => ["cached-local", "server-side", "s3-side"],
        (1, false) => ["cached-local", "server-side", "filtered"],
        _ => ["cached", "baseline", "filtered"],
    };
    // Under `cache_reads` a plain GET leaf reads through the cache.
    let plain = match ctx.cache_reads && ctx.store.cache().is_some() {
        true => ScanSource::Cached,
        false => ScanSource::Plain,
    };
    let cache = ScanSource::Cached;
    let mut combos: Vec<(&'static str, Vec<ScanSource>, bool)> = Vec::new();
    // Cached combos lead the lineup: a cold fill prices exactly like the
    // remote load it replaces, and the argmin keeps the earliest
    // minimum, so ties break toward warming the cache.
    if ctx.store.cache().is_some() {
        combos.push((cached, vec![cache; n], false));
        if n == 2 {
            // The hybrid mixed plan: hot build side from the cache, cold
            // probe side pushed down (with the Bloom runtime filter when
            // the join keys admit one).
            combos.push(("cached-build", vec![cache, PUSHED], int_keys));
        }
    }
    combos.push((local, vec![plain; n], false));
    combos.push((pushed, vec![PUSHED; n], false));
    if n == 2 {
        combos.push(("build-push", vec![PUSHED, plain], false));
        combos.push(("probe-push", vec![plain, PUSHED], false));
    }
    if int_keys {
        combos.push(("bloom", vec![PUSHED; n], true));
    }

    let mut out = Vec::new();
    for (name, sources, bloom) in combos {
        let plan = build_plan(
            &tables, &edges, &per_table, &residual, &needed, &sources, bloom, spec,
        )?;
        out.push(match (name, top_k(spec)) {
            ("sampling", Some((order, k))) => (name, sampled(plan, &tables[0], order, k)),
            _ => (name, plan),
        });
    }
    if n == 1 && !spec.group_by.is_empty() {
        staged_group_bys(&tables[0], &needed[0], spec, &mut out)?;
    }
    Ok(out)
}

/// §VII-A sampling top-K out of the pushed top-K tree `Sort(scan)`: a
/// [`PlanOp::Threshold`] between the two, its threshold the K-th value
/// the catalog's tails hold ([`Table::kth`]) — or, past them, that of a
/// striped sample of the order column ([`sample_size`]).
fn sampled(mut sort: PlanNode, table: &Table, order: &OrderBy, k: usize) -> PlanNode {
    let catalog = table.kth(&order.column, order.asc, k);
    let sample = catalog.is_none();
    let op = PlanOp::Threshold {
        column: order.column.clone(),
        asc: order.asc,
        k,
        catalog,
    };
    let scan = sort.children.pop().expect("a Sort over the pushed scan");
    sort.children = vec![PlanNode::new(op, vec![scan], sort.schema.clone())];
    if sample {
        add_sample(&mut sort.children[0]);
    }
    sort
}

/// How many rows a sampling top-K of `k` over `table` samples: the
/// §VII-B optimal size, `α` the order column's share of the row,
/// approximated by column count.
pub fn sample_size(table: &Table, k: usize) -> usize {
    let alpha = 1.0 / table.schema.len().max(1) as f64;
    optimal_sample_size(k, table.row_count, alpha).max(k)
}

/// Put the striped sample of the order column, [`sample_size`] rows, under
/// every [`PlanOp::Threshold`] in `node` that runs over its scan alone,
/// which then takes its threshold from the sample, not the catalog.
pub(crate) fn add_sample(node: &mut PlanNode) {
    match &mut node.op {
        PlanOp::Threshold {
            column, k, catalog, ..
        } if node.children.len() == 1 => {
            *catalog = None;
            let table = node.children[0].scan_table().expect("a threshold scans");
            let striped = ScanSource::Select(Some(ScanLimit::Striped(sample_size(table, *k))));
            let sample = scan_node(table, None, &Some(vec![column.clone()]), striped);
            node.children.insert(0, sample);
        }
        _ => node.children.iter_mut().for_each(add_sample),
    }
}

/// The staged group-by candidates of a one-table `GROUP BY` whose
/// aggregate arguments are all plain columns or `COUNT(*)`, each under
/// the statement's ORDER BY / LIMIT stack and answering in the trees'
/// schema (aliases included):
///
/// * `"s3-side"` and `"hybrid"` need an aggregate to push as CASE-WHEN
///   items, `"hybrid"` a single grouping column: [`PlanOp::CaseWhen`] over
///   the distinct groups, [`PlanOp::HybridSplit`] over the `filtered`
///   group-by as its tail — and, unless the catalog's dictionary of the
///   grouping column decides the split, a prefix sample of the column
///   before it.
///
/// (Under the engine's §X native `GROUP BY` extension the `filtered`
/// group-by ships the statement whole, `GROUP BY` included: where a
/// grouping operator folds is `plan::grouped_leaf`'s rule, not a
/// candidate of its own.)
fn staged_group_bys(
    table: &Table,
    needed: &Option<Vec<String>>,
    spec: &QuerySpec,
    out: &mut Vec<(&'static str, PlanNode)>,
) -> Result<()> {
    let mut aggs = Vec::new();
    for item in &spec.select.items {
        match item {
            SelectItem::Agg {
                func, arg: None, ..
            } => aggs.push((*func, None)),
            SelectItem::Agg {
                func,
                arg: Some(Expr::Column(c)),
                ..
            } => aggs.push((*func, Some(c.clone()))),
            SelectItem::Agg { .. } => return Ok(()),
            _ => {}
        }
    }
    if aggs.is_empty() {
        return Ok(());
    }
    let predicate = &spec.select.where_clause;
    let pushed = |needed| scan_node(table, predicate.clone(), needed, PUSHED);
    let tail = aggregate_stack(pushed(needed), spec)?;
    let schema = tail.schema.clone();
    let mut staged: Vec<(&'static str, PlanOp, Vec<PlanNode>)> = Vec::new();
    let distinct = pushed(&Some(spec.group_by.clone()));
    let op = PlanOp::GroupBy {
        keys: (0..spec.group_by.len()).collect(),
        aggs: Vec::new(),
        order: None,
    };
    let groups = PlanNode::new(op, vec![distinct.clone()], distinct.schema);
    let op = PlanOp::CaseWhen {
        aggs: aggs.clone(),
        order: None,
    };
    staged.push(("s3-side", op, vec![groups]));
    if let [group] = spec.group_by.as_slice() {
        // The catalog's dictionary holds every group with its row
        // count: the split needs no sample.
        let dictionary = table.dictionary(group).map(<[_]>::to_vec);
        let children = match dictionary {
            Some(_) => vec![tail],
            None => {
                let rows = (table.row_count as f64 * HYBRID_SAMPLE_FRACTION).ceil();
                let limit = ScanLimit::Prefix(rows.max(HYBRID_MIN_SAMPLE_ROWS) as usize);
                let column = Some(vec![group.clone()]);
                let prefix = ScanSource::Select(Some(limit));
                vec![scan_node(table, predicate.clone(), &column, prefix), tail]
            }
        };
        let op = PlanOp::HybridSplit {
            aggs,
            dictionary,
            force: None,
            order: None,
        };
        staged.push(("hybrid", op, children));
    }
    for (name, op, children) in staged {
        let node = PlanNode::new(op, children, schema.clone());
        out.push((name, order_limit_stack(node, spec)?));
    }
    Ok(())
}

fn resolve_tables(ctx: &QueryContext, primary: &Table, spec: &QuerySpec) -> Result<Vec<Table>> {
    let mut tables = vec![primary.clone()];
    for j in &spec.joins {
        // The primary FROM name is satisfied by the passed table (the
        // planner's signature convention); join tables may also name it.
        if j.table.eq_ignore_ascii_case(&primary.name) {
            return Err(Error::Bind(format!(
                "self-joins are not supported (table `{}` appears twice)",
                j.table
            )));
        }
        let t = ctx.catalog.resolve(&j.table).ok_or_else(|| {
            Error::Bind(format!(
                "unknown table `{}` in JOIN (catalog has: {})",
                j.table,
                ctx.catalog.names().join(", ")
            ))
        })?;
        tables.push(t);
    }
    Ok(tables)
}

/// Index of the unique table whose schema holds `name`.
fn table_of_column(tables: &[Table], name: &str) -> Result<usize> {
    let hits: Vec<usize> = tables
        .iter()
        .enumerate()
        .filter(|(_, t)| t.schema.index_of(name).is_some())
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [one] => Ok(*one),
        [] => Err(Error::Bind(format!(
            "unknown column `{name}` (tables: {})",
            tables
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))),
        many => Err(Error::Bind(format!(
            "ambiguous column `{name}` (appears in {})",
            many.iter()
                .map(|&i| tables[i].name.as_str())
                .collect::<Vec<_>>()
                .join(" and ")
        ))),
    }
}

fn resolve_join_edges(tables: &[Table], spec: &QuerySpec) -> Result<Vec<JoinEdge>> {
    let mut edges = Vec::new();
    for (i, j) in spec.joins.iter().enumerate() {
        let probe_idx = i + 1;
        let lt = table_of_column(tables, &j.left_col)?;
        let rt = table_of_column(tables, &j.right_col)?;
        let (build_col, build_t, probe_col) = if rt == probe_idx && lt < probe_idx {
            (&j.left_col, lt, &j.right_col)
        } else if lt == probe_idx && rt < probe_idx {
            (&j.right_col, rt, &j.left_col)
        } else {
            return Err(Error::Bind(format!(
                "JOIN `{}` ON {} = {} must compare a column of `{}` with a column \
                 of the tables joined before it",
                j.table, j.left_col, j.right_col, j.table
            )));
        };
        let dtype = |t: &Table, c: &str| t.schema.index_of(c).map(|i| t.schema.dtype_of(i));
        let int_keys = dtype(&tables[build_t], build_col) == Some(DataType::Int)
            && dtype(&tables[probe_idx], probe_col) == Some(DataType::Int);
        edges.push(JoinEdge {
            build_key: build_col.clone(),
            probe_key: probe_col.clone(),
            int_keys,
        });
    }
    Ok(edges)
}

/// Split the WHERE clause into per-table pushable predicates and the
/// residual (conjuncts spanning tables, applied locally after the
/// joins).
#[allow(clippy::type_complexity)]
fn split_predicates(
    tables: &[Table],
    spec: &QuerySpec,
) -> Result<(Vec<Option<Expr>>, Option<Expr>)> {
    if tables.len() == 1 {
        // One table takes the WHERE clause as written.
        return Ok((vec![spec.select.where_clause.clone()], None));
    }
    let mut per_table: Vec<Vec<Expr>> = vec![Vec::new(); tables.len()];
    let mut residual: Vec<Expr> = Vec::new();
    if let Some(w) = &spec.select.where_clause {
        for c in w.conjuncts().into_iter().cloned() {
            let mut cols = Vec::new();
            c.referenced_columns(&mut cols);
            if cols.is_empty() {
                residual.push(c);
                continue;
            }
            let owners: Vec<usize> = cols
                .iter()
                .map(|n| table_of_column(tables, n))
                .collect::<Result<_>>()?;
            if owners.iter().all(|&t| t == owners[0]) {
                per_table[owners[0]].push(c);
            } else {
                residual.push(c);
            }
        }
    }
    Ok((
        per_table.into_iter().map(Expr::conjunction).collect(),
        Expr::conjunction(residual),
    ))
}

/// Columns each table must deliver downstream: group keys, select items
/// and aggregate inputs, the residual predicate, join keys. Pushed-down
/// per-table predicates evaluate storage-side and need no projection.
/// One table delivers them in the order the stack above first asks for
/// them (so the stack needs no `Project` to reorder them), and `None` —
/// its `*` — stays the Select statement's `*`; the sides of a join
/// deliver schema order.
fn needed_columns(
    tables: &[Table],
    spec: &QuerySpec,
    edges: &[JoinEdge],
    residual: &Option<Expr>,
) -> Result<Vec<Option<Vec<String>>>> {
    let wildcard = spec.select.items.contains(&SelectItem::Wildcard);
    if wildcard && tables.len() == 1 {
        return Ok(vec![None]);
    }
    let mut needed: Vec<Vec<usize>> = vec![Vec::new(); tables.len()];
    if wildcard {
        for (t, table) in tables.iter().enumerate() {
            needed[t].extend(0..table.schema.len());
        }
    }
    let mut refs: Vec<String> = spec.group_by.clone();
    for item in &spec.select.items {
        match item {
            SelectItem::Wildcard => {}
            SelectItem::Expr { expr, .. } => expr.referenced_columns(&mut refs),
            SelectItem::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.referenced_columns(&mut refs);
                }
            }
        }
    }
    if let Some(r) = residual {
        r.referenced_columns(&mut refs);
    }
    for e in edges {
        refs.push(e.build_key.clone());
        refs.push(e.probe_key.clone());
    }
    for name in &refs {
        let t = table_of_column(tables, name)?;
        let idx = tables[t].schema.index_of(name).expect("resolved above");
        if !needed[t].contains(&idx) {
            needed[t].push(idx);
        }
    }
    let names = |(t, mut idx): (usize, Vec<usize>)| {
        if tables.len() > 1 {
            idx.sort_unstable();
        }
        let name = |i| tables[t].schema.field(i).name.clone();
        Some(idx.into_iter().map(name).collect())
    };
    Ok(needed.into_iter().enumerate().map(names).collect())
}

fn scan_node(
    table: &Table,
    predicate: Option<Expr>,
    needed: &Option<Vec<String>>,
    source: ScanSource,
) -> PlanNode {
    // Every source delivers the needed columns only: Select projects them
    // storage-side, a local or cached scan in the worker that decodes.
    let schema = match needed {
        None => table.schema.clone(),
        Some(cols) => {
            let index = |c: &String| table.schema.index_of(c).expect("needed column resolved");
            table
                .schema
                .project(&cols.iter().map(index).collect::<Vec<_>>())
        }
    };
    let op = PlanOp::Scan {
        table: table.clone(),
        predicate,
        projection: needed.clone(),
        source,
    };
    PlanNode::new(op, Vec::new(), schema)
}

#[allow(clippy::too_many_arguments)]
fn build_plan(
    tables: &[Table],
    edges: &[JoinEdge],
    per_table: &[Option<Expr>],
    residual: &Option<Expr>,
    needed: &[Option<Vec<String>>],
    sources: &[ScanSource],
    bloom: bool,
    spec: &QuerySpec,
) -> Result<PlanNode> {
    let mut node = scan_node(&tables[0], per_table[0].clone(), &needed[0], sources[0]);
    for (i, edge) in edges.iter().enumerate() {
        let t = i + 1;
        let probe = scan_node(&tables[t], per_table[t].clone(), &needed[t], sources[t]);
        let schema = node.schema.join(&probe.schema);
        let op = if bloom && edge.int_keys && sources[t] == PUSHED {
            PlanOp::BloomJoin {
                build_key: edge.build_key.clone(),
                probe_key: edge.probe_key.clone(),
                fpr: BLOOM_FPR,
            }
        } else {
            PlanOp::HashJoin {
                build_key: edge.build_key.clone(),
                probe_key: edge.probe_key.clone(),
            }
        };
        node = PlanNode::new(op, vec![node, probe], schema);
    }
    if let Some(r) = residual {
        let schema = node.schema.clone();
        node = PlanNode::new(
            PlanOp::LocalFilter {
                predicate: r.clone(),
            },
            vec![node],
            schema,
        );
    }
    select_stack(node, spec)
}

/// Default output name for aggregate `k` of a GROUP BY:
/// `sum_o_totalprice` style for plain-column arguments — `COUNT(*)` is
/// named after the first grouping column — positional otherwise.
fn agg_name(func: &AggFunc, arg: &Option<Expr>, group_by: &[String], k: usize) -> String {
    let col = match arg {
        Some(Expr::Column(c)) => Some(c),
        None => group_by.first(),
        _ => None,
    };
    match col {
        Some(c) => format!("{}_{}", func.name().to_lowercase(), c.to_lowercase()),
        None => format!("_agg{}", k + 1),
    }
}

/// `Project { exprs }` over `node` — or `node` itself, when the
/// projection would hand `node`'s columns on in their order under their
/// names: a leaf that already projects what the stack consumes pays no
/// second pass.
fn project_stack(node: PlanNode, exprs: Vec<Expr>, schema: Schema) -> PlanNode {
    let kept = |(i, e): (usize, &Expr)| match e {
        Expr::Column(c) => {
            node.schema.index_of(c) == Some(i) && schema.field(i).name.eq_ignore_ascii_case(c)
        }
        _ => false,
    };
    if exprs.len() == node.schema.len() && exprs.iter().enumerate().all(kept) {
        return node;
    }
    PlanNode::new(PlanOp::Project { exprs }, vec![node], schema)
}

/// Stack projection / aggregation / sort / limit over the joined (and
/// residual-filtered) input.
fn select_stack(mut node: PlanNode, spec: &QuerySpec) -> Result<PlanNode> {
    if !spec.group_by.is_empty() || spec.select.is_aggregate() {
        node = aggregate_stack(node, spec)?;
    } else if !spec.select.items.contains(&SelectItem::Wildcard) {
        // Plain column projection, names from aliases.
        let binder = Binder::new(&node.schema);
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &spec.select.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(Error::Bind(format!(
                    "select items must be plain columns or aggregates, found `{item}`"
                )));
            };
            let Expr::Column(name) = expr else {
                return Err(Error::Bind(format!(
                    "this planner projects plain columns only, found `{expr}`"
                )));
            };
            let bound = binder.bind_expr(expr)?;
            let out_name = alias.clone().unwrap_or_else(|| name.clone());
            fields.push(Field::new(out_name, bound.infer_type()));
            exprs.push(expr.clone());
        }
        node = project_stack(node, exprs, Schema::new(fields));
    }
    // The stacked output schema carries the aggregate and column aliases
    // as its names, so ORDER BY needs no alias table of its own.
    order_limit_stack(node, spec)
}

/// Stack the query's ORDER BY / LIMIT over `node`, the one place any
/// lowering does: `Sort` when there are sort keys, a plain `Limit` (which
/// pushes no phase) for a bare LIMIT, `node` itself otherwise. A grouping
/// operator (a GROUP BY's `node`) emits its groups in group-key order,
/// its group columns leading its schema, so a sort by an ascending prefix
/// of them — or by all of them, ascending, before anything else — leaves
/// its rows where they are: only the LIMIT remains. Any other ORDER BY
/// over it is its own finish, inside its breaker, not a phase of its
/// own. A key names a column of `node`'s schema; anything else is a bind
/// error.
fn order_limit_stack(mut node: PlanNode, spec: &QuerySpec) -> Result<PlanNode> {
    let limit = spec.select.limit.map(|l| l as usize);
    let mut keys = Vec::new();
    for o in &spec.order_by {
        let Some(idx) = node.schema.index_of(&o.column) else {
            return Err(Error::Bind(format!(
                "unknown ORDER BY key `{}` (output columns: {})",
                o.column,
                node.schema.names().join(", ")
            )));
        };
        keys.push((idx, o.asc));
    }
    let width = spec.group_by.len();
    if let Some(slot) = node.op.order_mut().filter(|_| width > 0) {
        let sorted = keys.iter().take(width).enumerate();
        let sorted = sorted.take_while(|&(i, &key)| key == (i, true)).count();
        if sorted < keys.len() && sorted < width {
            *slot = Some(Order { keys, limit });
            return Ok(node);
        }
        keys.clear();
    }
    let op = if !keys.is_empty() {
        PlanOp::Sort(Order { keys, limit })
    } else if let Some(n) = limit {
        PlanOp::Limit { n }
    } else {
        return Ok(node);
    };
    let schema = node.schema.clone();
    Ok(PlanNode::new(op, vec![node], schema))
}

/// GROUP BY and scalar aggregation: a `Project` of the group keys, then
/// each distinct aggregate argument (arbitrary expressions over the
/// input schema, e.g. the Q3 revenue term `l_extendedprice * (1 -
/// l_discount)`), under `GroupBy` / `Aggregate` — none where the input
/// already delivers them in that order, or where it is a join and each
/// of them is a bare column: the grouping operator then reads them by
/// position off the join's matches, in place. Over a scan the operator
/// is a grouped leaf, and `plan::grouped_leaf` decides where it folds — a
/// scalar aggregate over a pushed scan in the engine, shipped inside the
/// leaf's own Select statement.
fn aggregate_stack(node: PlanNode, spec: &QuerySpec) -> Result<PlanNode> {
    let binder = Binder::new(&node.schema);
    let group_width = spec.group_by.len();
    let mut exprs: Vec<Expr> = Vec::new();
    let mut fields: Vec<Field> = Vec::new();
    for g in &spec.group_by {
        let bound = binder.bind_expr(&Expr::col(g.clone()))?;
        fields.push(Field::new(g.clone(), bound.infer_type()));
        exprs.push(Expr::col(g.clone()));
    }
    let mut aggs: Vec<(AggFunc, Option<usize>)> = Vec::new();
    let mut out_fields: Vec<Field> = fields.clone();
    for (i, item) in spec.select.items.iter().enumerate() {
        let (func, arg, alias) = match item {
            SelectItem::Agg { func, arg, alias } => (func, arg, alias),
            // Scalar items must be the grouping columns.
            SelectItem::Expr {
                expr: Expr::Column(name),
                ..
            } if group_width > 0 => {
                if !spec.group_by.iter().any(|g| g.eq_ignore_ascii_case(name)) {
                    return Err(Error::Bind(format!(
                        "column `{name}` must appear in GROUP BY"
                    )));
                }
                continue;
            }
            other if group_width > 0 => {
                return Err(Error::Bind(format!(
                    "GROUP BY select items must be grouping columns or aggregates, \
                     found `{other}`"
                )))
            }
            other => {
                return Err(Error::Bind(format!(
                    "cannot mix scalar item `{other}` with aggregates"
                )))
            }
        };
        let mut arg_type = None;
        let slot = match arg {
            None => None,
            Some(e) => {
                let bound = binder.bind_expr(e)?.infer_type();
                arg_type = Some(bound);
                // One input column per distinct argument.
                Some(exprs.iter().position(|x| x == e).unwrap_or_else(|| {
                    let name = match e {
                        Expr::Column(c) => c.clone(),
                        _ => format!("_a{}", aggs.len()),
                    };
                    fields.push(Field::new(name, bound));
                    exprs.push(e.clone());
                    exprs.len() - 1
                }))
            }
        };
        let name = alias.clone().unwrap_or_else(|| match group_width {
            0 => format!("_{}", i + 1),
            _ => agg_name(func, arg, &spec.group_by, aggs.len()),
        });
        out_fields.push(Field::new(name, func.result_type(arg_type)));
        aggs.push((*func, slot));
    }
    let schema = Schema::new(out_fields);
    let joined = matches!(node.op, PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. });
    let bare = |e: &Expr| match e {
        Expr::Column(c) => node.schema.resolve(c).ok(),
        _ => None,
    };
    let read = match joined {
        true => exprs.iter().map(bare).collect::<Option<Vec<_>>>(),
        false => None,
    };
    let keys = match &read {
        Some(cols) => {
            let at = |c: Option<usize>| c.map(|c| cols[c]);
            aggs = aggs.into_iter().map(|(f, c)| (f, at(c))).collect();
            cols[..group_width].to_vec()
        }
        None => (0..group_width).collect(),
    };
    let op = match group_width {
        0 => PlanOp::Aggregate { aggs },
        _ => PlanOp::GroupBy {
            keys,
            aggs,
            order: None,
        },
    };
    let input = match read {
        Some(_) => node,
        None => project_stack(node, exprs, Schema::new(fields)),
    };
    Ok(PlanNode::new(op, vec![input], schema))
}
