//! Lowering multi-table [`QuerySpec`]s into physical-plan candidates
//! (single-table ones lower in [`crate::planner`], to the same shape,
//! under the same ORDER BY / LIMIT stack: `order_limit_stack`).
//!
//! A joined query (`FROM a JOIN b ON ... [JOIN c ON ...]`) lowers to a
//! left-deep tree of hash joins over per-table scan leaves, topped by
//! the residual filter, projection/aggregation, sort and limit
//! operators. The planner weighs the **join strategy and each scan's
//! pushdown strategy jointly**: every candidate fixes one scan-mode
//! combination (plain GET vs S3 Select per table) and whether the probe
//! scans carry a Bloom runtime filter (§V-A2), and
//! [`crate::cost::predict_plan`] prices the whole tree.
//!
//! Column references are resolved *across* the joined schemas: a name
//! must belong to exactly one table (ambiguity is a bind error), which
//! is why the parser can drop `alias.` qualifiers.

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::plan::{PlanNode, PlanOp};
use pushdown_common::{DataType, Error, Field, Result, Schema};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::ast::QuerySpec;
use pushdown_sql::bind::Binder;
use pushdown_sql::{Expr, SelectItem};
use std::collections::BTreeSet;

/// False-positive rate the Bloom-join candidates request (the paper's
/// default operating point; Fig 4 sweeps it).
const BLOOM_FPR: f64 = 0.01;

/// One join edge with its keys resolved: `build_key` lives in the
/// accumulated left side, `probe_key` in the newly joined table.
struct JoinEdge {
    build_key: String,
    probe_key: String,
    /// Both keys are integers — the Bloom filter's §V-A2 requirement.
    int_keys: bool,
}

/// How one scan leaf of a join candidate fetches its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanMode {
    /// Plain remote GETs, filtered locally (remote-full).
    Local,
    /// Predicate + projection pushed into S3 Select.
    Pushed,
    /// Read through the local segment cache (hybrid tier).
    Cached,
}

/// Lower a joined query to its candidate plans, named by strategy:
/// `"baseline"` (all plain loads), `"filtered"` (all scans pushed),
/// `"bloom"` (pushed + Bloom probe filters, when keys are integers),
/// and — for two-table joins — the mixed `"build-push"`/`"probe-push"`
/// combinations. When the store carries a segment cache, the lineup
/// grows `"cached"` (every scan through the cache) and — for two-table
/// joins — `"cached-build"` (build side cached, probe side pushed down,
/// with a Bloom runtime filter when the keys are integers), so the
/// planner weighs cached-local vs pushdown vs remote **per scan**,
/// jointly with the join strategy. The `baseline` and `filtered`
/// candidates always exist.
pub fn lower_join_candidates(
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
    let mut combos: Vec<(&'static str, Vec<ScanMode>, bool)> = Vec::new();
    // Cached combos lead the lineup: a cold fill prices exactly like the
    // remote load it replaces, and the argmin keeps the earliest
    // minimum, so ties break toward warming the cache.
    if ctx.store.cache().is_some() {
        combos.push(("cached", vec![ScanMode::Cached; n], false));
        if n == 2 {
            // The hybrid mixed plan: hot build side from the cache, cold
            // probe side pushed down (with the Bloom runtime filter when
            // the join keys admit one).
            combos.push((
                "cached-build",
                vec![ScanMode::Cached, ScanMode::Pushed],
                int_keys,
            ));
        }
    }
    combos.push(("baseline", vec![ScanMode::Local; n], false));
    combos.push(("filtered", vec![ScanMode::Pushed; n], false));
    if n == 2 {
        combos.push(("build-push", vec![ScanMode::Pushed, ScanMode::Local], false));
        combos.push(("probe-push", vec![ScanMode::Local, ScanMode::Pushed], false));
    }
    if int_keys {
        combos.push(("bloom", vec![ScanMode::Pushed; n], true));
    }

    let mut out = Vec::new();
    for (name, modes, bloom) in combos {
        let plan = build_plan(
            &tables, &edges, &per_table, &residual, &needed, &modes, bloom, spec,
        )?;
        out.push((name, plan));
    }
    Ok(out)
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

fn flatten_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            left,
            op: pushdown_sql::ast::BinOp::And,
            right,
        } => {
            flatten_conjuncts(left, out);
            flatten_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Split the WHERE clause into per-table pushable predicates and the
/// residual (conjuncts spanning tables, applied locally after the
/// joins).
#[allow(clippy::type_complexity)]
fn split_predicates(
    tables: &[Table],
    spec: &QuerySpec,
) -> Result<(Vec<Option<Expr>>, Option<Expr>)> {
    let mut per_table: Vec<Vec<Expr>> = vec![Vec::new(); tables.len()];
    let mut residual: Vec<Expr> = Vec::new();
    if let Some(w) = &spec.select.where_clause {
        let mut conjuncts = Vec::new();
        flatten_conjuncts(w, &mut conjuncts);
        for c in conjuncts {
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

fn add_column(tables: &[Table], needed: &mut [BTreeSet<usize>], name: &str) -> Result<()> {
    let t = table_of_column(tables, name)?;
    let idx = tables[t].schema.index_of(name).expect("resolved above");
    needed[t].insert(idx);
    Ok(())
}

/// Columns each table must deliver downstream (select items, group keys,
/// aggregate inputs, the residual predicate, join keys). Pushed-down
/// per-table predicates evaluate storage-side and need no projection.
fn needed_columns(
    tables: &[Table],
    spec: &QuerySpec,
    edges: &[JoinEdge],
    residual: &Option<Expr>,
) -> Result<Vec<Vec<String>>> {
    let mut needed: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); tables.len()];
    let wildcard = spec
        .select
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Wildcard));
    if wildcard {
        for (t, table) in tables.iter().enumerate() {
            needed[t].extend(0..table.schema.len());
        }
    }
    let mut refs: Vec<String> = Vec::new();
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
    refs.extend(spec.group_by.iter().cloned());
    if let Some(r) = residual {
        r.referenced_columns(&mut refs);
    }
    for e in edges {
        refs.push(e.build_key.clone());
        refs.push(e.probe_key.clone());
    }
    for name in &refs {
        add_column(tables, &mut needed, name)?;
    }
    Ok(needed
        .into_iter()
        .enumerate()
        .map(|(t, idx)| {
            idx.into_iter()
                .map(|i| tables[t].schema.field(i).name.clone())
                .collect()
        })
        .collect())
}

fn scan_node(
    table: &Table,
    predicate: Option<Expr>,
    needed: &[String],
    mode: ScanMode,
) -> PlanNode {
    // Every mode delivers the needed columns only: Select projects them
    // storage-side, a local or cached scan in the worker that decodes.
    let indices: Vec<usize> = needed
        .iter()
        .map(|c| table.schema.index_of(c).expect("needed column resolved"))
        .collect();
    let schema = table.schema.project(&indices);
    let (table, projection) = (table.clone(), Some(needed.to_vec()));
    let op = match mode {
        ScanMode::Pushed => PlanOp::PushdownScan {
            table,
            predicate,
            projection,
        },
        ScanMode::Local => PlanOp::LocalScan {
            table,
            predicate,
            projection,
        },
        ScanMode::Cached => PlanOp::CachedScan {
            table,
            predicate,
            projection,
        },
    };
    PlanNode::new(op, Vec::new(), schema)
}

#[allow(clippy::too_many_arguments)]
fn build_plan(
    tables: &[Table],
    edges: &[JoinEdge],
    per_table: &[Option<Expr>],
    residual: &Option<Expr>,
    needed: &[Vec<String>],
    modes: &[ScanMode],
    bloom: bool,
    spec: &QuerySpec,
) -> Result<PlanNode> {
    let mut node = scan_node(&tables[0], per_table[0].clone(), &needed[0], modes[0]);
    for (i, edge) in edges.iter().enumerate() {
        let t = i + 1;
        let probe = scan_node(&tables[t], per_table[t].clone(), &needed[t], modes[t]);
        let schema = node.schema.join(&probe.schema);
        let op = if bloom && edge.int_keys && modes[t] == ScanMode::Pushed {
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

/// Default output name for aggregate `k`: `sum_o_totalprice` style for
/// plain-column arguments (matching the single-table group-by naming),
/// positional otherwise.
fn agg_name(func: &AggFunc, arg: &Option<Expr>, k: usize) -> String {
    match arg {
        Some(Expr::Column(c)) => format!("{}_{}", func.name().to_lowercase(), c.to_lowercase()),
        _ => format!("_agg{}", k + 1),
    }
}

fn agg_dtype(func: &AggFunc, arg_dtype: Option<DataType>) -> DataType {
    match func {
        AggFunc::Count => DataType::Int,
        AggFunc::Avg => DataType::Float,
        _ => arg_dtype.unwrap_or(DataType::Float),
    }
}

/// Stack projection / aggregation / sort / limit over the joined (and
/// residual-filtered) input.
fn select_stack(mut node: PlanNode, spec: &QuerySpec) -> Result<PlanNode> {
    let wildcard = spec
        .select
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Wildcard));
    if !spec.group_by.is_empty() {
        node = group_by_stack(node, spec)?;
    } else if spec.select.is_aggregate() {
        node = aggregate_stack(node, spec)?;
    } else if !wildcard {
        // Plain column projection, names from aliases.
        let binder = Binder::new(&node.schema);
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &spec.select.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(Error::Bind(format!(
                    "select items over a join must be plain columns or aggregates, \
                     found `{item}`"
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
        let schema = Schema::new(fields);
        node = PlanNode::new(PlanOp::Project { exprs }, vec![node], schema);
    }
    // The stacked output schema carries the aggregate and column aliases
    // as its names, so ORDER BY needs no alias table of its own.
    order_limit_stack(node, spec, &[])
}

/// Stack the query's ORDER BY / LIMIT over `node`, the one place either
/// lowering does: `Sort { keys, limit }` when there are sort keys, a
/// plain `Limit` (which pushes no phase) for a bare LIMIT, `node` itself
/// otherwise. A key names an entry of `aliases` (alias → output
/// position), else a column of `node`'s schema; anything else is a bind
/// error.
pub(crate) fn order_limit_stack(
    node: PlanNode,
    spec: &QuerySpec,
    aliases: &[(String, usize)],
) -> Result<PlanNode> {
    let limit = spec.select.limit.map(|l| l as usize);
    let op = if !spec.order_by.is_empty() {
        let mut keys = Vec::new();
        for o in &spec.order_by {
            let idx = aliases
                .iter()
                .find(|(a, _)| a.eq_ignore_ascii_case(&o.column))
                .map(|(_, i)| *i)
                .or_else(|| node.schema.index_of(&o.column));
            let Some(idx) = idx else {
                let mut known = node.schema.names().join(", ");
                if !aliases.is_empty() {
                    let names: Vec<&str> = aliases.iter().map(|(a, _)| a.as_str()).collect();
                    known = format!("{known}; aliases: {}", names.join(", "));
                }
                return Err(Error::Bind(format!(
                    "unknown ORDER BY key `{}` (output columns: {known})",
                    o.column
                )));
            };
            keys.push((idx, o.asc));
        }
        PlanOp::Sort { keys, limit }
    } else if let Some(n) = limit {
        PlanOp::Limit { n }
    } else {
        return Ok(node);
    };
    let schema = node.schema.clone();
    Ok(PlanNode::new(op, vec![node], schema))
}

fn group_by_stack(node: PlanNode, spec: &QuerySpec) -> Result<PlanNode> {
    let binder = Binder::new(&node.schema);
    // Validate scalar items and collect aggregates in select order.
    let mut aggs_src: Vec<(AggFunc, Option<Expr>, Option<String>)> = Vec::new();
    for item in &spec.select.items {
        match item {
            SelectItem::Expr {
                expr: Expr::Column(name),
                ..
            } => {
                if !spec.group_by.iter().any(|g| g.eq_ignore_ascii_case(name)) {
                    return Err(Error::Bind(format!(
                        "column `{name}` must appear in GROUP BY"
                    )));
                }
            }
            SelectItem::Agg { func, arg, alias } => match arg {
                Some(e) => aggs_src.push((*func, Some(e.clone()), alias.clone())),
                None => aggs_src.push((AggFunc::Count, None, alias.clone())),
            },
            other => {
                return Err(Error::Bind(format!(
                    "GROUP BY select items must be grouping columns or aggregates, \
                     found `{other}`"
                )))
            }
        }
    }
    // Project: group keys first, then each aggregate's input expression
    // (arbitrary expressions over the joined schema, e.g. the Q3 revenue
    // term `l_extendedprice * (1 - l_discount)`).
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
    for (k, (func, arg, alias)) in aggs_src.iter().enumerate() {
        let arg_dtype = match arg {
            Some(e) => {
                let bound = binder.bind_expr(e)?;
                aggs.push((*func, Some(exprs.len())));
                fields.push(Field::new(format!("_a{k}"), bound.infer_type()));
                exprs.push(e.clone());
                Some(bound.infer_type())
            }
            None => {
                aggs.push((*func, None));
                None
            }
        };
        out_fields.push(Field::new(
            alias.clone().unwrap_or_else(|| agg_name(func, arg, k)),
            agg_dtype(func, arg_dtype),
        ));
    }
    let project = PlanNode::new(PlanOp::Project { exprs }, vec![node], Schema::new(fields));
    Ok(PlanNode::new(
        PlanOp::GroupBy { group_width, aggs },
        vec![project],
        Schema::new(out_fields),
    ))
}

fn aggregate_stack(node: PlanNode, spec: &QuerySpec) -> Result<PlanNode> {
    let binder = Binder::new(&node.schema);
    let mut exprs: Vec<Expr> = Vec::new();
    let mut fields: Vec<Field> = Vec::new();
    let mut aggs: Vec<(AggFunc, Option<usize>)> = Vec::new();
    let mut out_fields: Vec<Field> = Vec::new();
    for (k, item) in spec.select.items.iter().enumerate() {
        let SelectItem::Agg { func, arg, alias } = item else {
            return Err(Error::Bind(format!(
                "cannot mix scalar item `{item}` with aggregates over a join"
            )));
        };
        let arg_dtype = match arg {
            Some(e) => {
                let bound = binder.bind_expr(e)?;
                aggs.push((*func, Some(exprs.len())));
                fields.push(Field::new(format!("_a{k}"), bound.infer_type()));
                exprs.push(e.clone());
                Some(bound.infer_type())
            }
            None => {
                aggs.push((*func, None));
                None
            }
        };
        out_fields.push(Field::new(
            alias.clone().unwrap_or_else(|| format!("_{}", k + 1)),
            agg_dtype(func, arg_dtype),
        ));
    }
    let project = PlanNode::new(PlanOp::Project { exprs }, vec![node], Schema::new(fields));
    Ok(PlanNode::new(
        PlanOp::Aggregate { aggs },
        vec![project],
        Schema::new(out_fields),
    ))
}
