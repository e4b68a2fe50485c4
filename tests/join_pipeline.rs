//! The push-based plan executor against a reference kept here: for
//! every candidate plan the join lowering produces, `plan::execute` must
//! deliver the rows, the row order, the schema, every operator's
//! `OpReport::actual`, the `QueryMetrics` and the bill of a materializing
//! executor that scans whole tables with the identity shims (a cached
//! leaf that projects: the columns it references, unfiltered) and runs the
//! whole-input operators (`ops::hash_join`, `map_rows`, `hash_group_by`,
//! `sort_rows_by_keys`) one after the other — for every storage format,
//! cache state, pool width and batch size.

use proptest::prelude::*;
use pushdowndb::bloom::BloomBuilder;
use pushdowndb::cache::{CacheTier, SegmentKey};
use pushdowndb::common::perf::PhaseStats;
use pushdowndb::common::pricing::Usage;
use pushdowndb::common::row::RowBatch;
use pushdowndb::common::{DataType, Result, RetryPolicy, Row, Schema, Value};
use pushdowndb::core::cost::{predict_plan, Estimators};
use pushdowndb::core::joinplan::lower_candidates;
use pushdowndb::core::metrics::Flow::{self, Breaker, Streaming};
use pushdowndb::core::metrics::{Phase, Sides};
use pushdowndb::core::plan::Order;
use pushdowndb::core::planner::{self, execute_sql};
use pushdowndb::core::scan::{
    cached_scan_streamed, plain_scan_streamed, scan, select_scan, ScanSource,
};
use pushdowndb::core::{
    ops, plan, upload_columnar_table, upload_csv_table, OpReport, PlanNode, PlanOp, QueryContext,
    QueryMetrics, Table,
};
use pushdowndb::format::columnar::{ColumnarReader, WriterOptions};
use pushdowndb::s3::{FaultPlan, S3Store};
use pushdowndb::sql::bind::Binder;
use pushdowndb::sql::eval::eval_predicate;
use pushdowndb::sql::{parse_expr, parse_query, Expr, SelectItem, SelectStmt};
use pushdowndb::tpch::{planner_suite, TpchGen};
use std::sync::OnceLock;

const BUCKET: &str = "b";
const CHUNK: u64 = 512;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Csv,
    Columnar,
}

/// The cache the store carries, and the state a run finds it in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cache {
    Absent,
    Cold,
    Warm,
    /// Every other chunk of every partition resident.
    PartialHit,
}

/// Every candidate the lowering can name, with the cache states it runs
/// in.
const RUNS: [(&str, Cache); 10] = [
    ("baseline", Cache::Absent),
    ("filtered", Cache::Absent),
    ("bloom", Cache::Absent),
    ("build-push", Cache::Absent),
    ("probe-push", Cache::Absent),
    ("cached", Cache::Cold),
    ("cached", Cache::Warm),
    ("cached", Cache::PartialHit),
    ("cached-build", Cache::Cold),
    ("cached-build", Cache::Warm),
];

struct Statement {
    name: &'static str,
    /// The FROM table, which the planner takes as an argument.
    primary: &'static str,
    sql: String,
}

fn statements() -> Vec<Statement> {
    let mut out: Vec<Statement> = planner_suite()
        .into_iter()
        .filter(|q| q.name.starts_with("join-"))
        .map(|q| Statement {
            name: q.name,
            primary: if q.name == "join-q3ish" {
                "customer"
            } else {
                "orders"
            },
            sql: q.sql.to_string(),
        })
        .collect();
    assert_eq!(out.len(), 2, "the suite's joined statements");
    let mut add = |name, primary, sql: &str| {
        out.push(Statement {
            name,
            primary,
            sql: sql.to_string(),
        })
    };
    add(
        "three-table q3",
        "customer",
        "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
         o_orderdate, o_shippriority \
         FROM customer JOIN orders ON c_custkey = o_custkey \
         JOIN lineitem ON l_orderkey = o_orderkey \
         WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' \
         AND l_shipdate > DATE '1995-03-15' \
         GROUP BY l_orderkey, o_orderdate, o_shippriority \
         ORDER BY revenue DESC, o_orderdate LIMIT 10",
    );
    // A residual predicate spanning both tables, and a bare LIMIT.
    add(
        "residual + limit",
        "orders",
        "SELECT o_orderkey, l_linenumber FROM orders \
         JOIN lineitem ON o_orderkey = l_orderkey \
         WHERE l_extendedprice * 3 > o_totalprice AND l_quantity < 40 LIMIT 25",
    );
    // Nothing to prune, and a sort that keeps every row.
    add(
        "select star",
        "customer",
        "SELECT * FROM customer JOIN orders ON c_custkey = o_custkey \
         WHERE c_acctbal < 2000 ORDER BY o_totalprice DESC, o_orderkey",
    );
    // `lineitem` builds: every key several times over.
    add(
        "duplicate build keys",
        "lineitem",
        "SELECT l_linenumber, o_orderstatus FROM lineitem \
         JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity < 25",
    );
    add(
        "empty build side",
        "customer",
        "SELECT COUNT(*), SUM(o_totalprice), MIN(o_orderdate) FROM customer \
         JOIN orders ON c_custkey = o_custkey WHERE c_acctbal < -99999",
    );
    // Grouping operators that fold the join's matches in place: bare
    // keys from both sides (not adjacent in the joined row) and an
    // argument from the build side, …
    add(
        "bare group-by",
        "orders",
        "SELECT o_orderpriority, l_shipmode, COUNT(*), MAX(o_totalprice) FROM orders \
         JOIN lineitem ON o_orderkey = l_orderkey GROUP BY o_orderpriority, l_shipmode",
    );
    // … a computed argument, evaluated per match through the Project, …
    add(
        "computed argument",
        "orders",
        "SELECT o_orderpriority, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM orders JOIN lineitem ON o_orderkey = l_orderkey GROUP BY o_orderpriority",
    );
    // … a scalar aggregate …
    add(
        "scalar aggregate",
        "orders",
        "SELECT COUNT(*), SUM(l_quantity), MIN(o_orderdate) FROM orders \
         JOIN lineitem ON o_orderkey = l_orderkey",
    );
    // … and a join whose parent is no grouping operator: joined rows.
    add(
        "projection + top-k",
        "orders",
        "SELECT o_orderkey, l_linenumber, l_extendedprice FROM orders \
         JOIN lineitem ON o_orderkey = l_orderkey \
         ORDER BY l_extendedprice DESC, o_orderkey LIMIT 15",
    );
    out
}

/// Whether the pricer's estimates of `stmt` are the run's counts, so its
/// predicted CPU units per phase must be the executed ones: with no
/// WHERE clause the catalog knows every leaf's row count, and every line
/// item of this slice has its order, so containment prices
/// `orders ⋈ lineitem` at exactly the matches it makes.
fn priced_exactly(stmt: &Statement) -> bool {
    !stmt.sql.contains(" WHERE ")
}

/// Each phase's label and CPU units, of the phases `keep` names.
fn cpu_units(metrics: &QueryMetrics, keep: impl Fn(&str) -> bool) -> Vec<(String, u64)> {
    let phases = metrics.groups.iter().flat_map(|g| &g.phases);
    let kept = phases.filter(|p| keep(&p.label));
    kept.map(|p| (p.label.clone(), p.stats.server_cpu_units))
        .collect()
}

/// A slice of TPC-H small enough to execute two thousand times: 60
/// customers, 160 orders and their line items. Some join keys on both
/// sides of `c_custkey = o_custkey` are NULL, so every statement over
/// that edge (the suite's `join-q3ish` included) meets NULL keys.
fn source_rows() -> [(&'static str, Schema, Vec<Row>, usize); 3] {
    let gen = TpchGen::new(0.0004);
    let (cs, mut customers) = gen.customers();
    let (os, mut orders) = gen.orders();
    orders.truncate(160);
    let (ls, lineitems) = gen.lineitems(&orders);
    let null_key = |rows: &mut [Row], col: usize, every: usize| {
        for row in rows.iter_mut().skip(2).step_by(every) {
            row.0[col] = Value::Null;
        }
    };
    null_key(&mut customers, cs.resolve("c_custkey").unwrap(), 9);
    null_key(&mut orders, os.resolve("o_custkey").unwrap(), 7);
    [
        ("customer", cs, customers, 16),
        ("orders", os, orders, 48),
        ("lineitem", ls, lineitems, 150),
    ]
}

struct Encoded {
    tables: Vec<Table>,
    objects: Vec<(String, bytes::Bytes)>,
}

/// The three tables and their encoded partitions, written once per
/// format: every run copies the objects into a store of its own.
fn encoded(format: Format) -> &'static Encoded {
    static CSV: OnceLock<Encoded> = OnceLock::new();
    static COLUMNAR: OnceLock<Encoded> = OnceLock::new();
    let build = || {
        let store = S3Store::new();
        let mut tables = Vec::new();
        for (name, schema, rows, per_partition) in source_rows() {
            tables.push(
                match format {
                    Format::Csv => {
                        upload_csv_table(&store, BUCKET, name, &schema, &rows, per_partition)
                    }
                    Format::Columnar => upload_columnar_table(
                        &store,
                        BUCKET,
                        name,
                        &schema,
                        &rows,
                        per_partition,
                        WriterOptions {
                            rows_per_group: 6,
                            compress: true,
                        },
                    ),
                }
                .unwrap(),
            );
        }
        let objects = tables
            .iter()
            .flat_map(|t| t.partitions(&store))
            .map(|key| {
                let data = store.raw_object(BUCKET, &key).unwrap();
                (key, data)
            })
            .collect();
        Encoded { tables, objects }
    };
    match format {
        Format::Csv => CSV.get_or_init(build),
        Format::Columnar => COLUMNAR.get_or_init(build),
    }
}

/// A fresh store holding the three tables, registered in the catalog,
/// its cache in the state `cache` names. Every run builds its own, so
/// runs that fill the cache never see each other.
fn setup(format: Format, cache: Cache) -> QueryContext {
    let data = encoded(format);
    let store = S3Store::new();
    for (key, bytes) in &data.objects {
        store.put_object(BUCKET, key, bytes.clone());
    }
    let ctx = QueryContext::new(store.clone())
        .with_cache_chunk_bytes(CHUNK)
        .with_tables(data.tables.iter().cloned());
    if cache == Cache::Absent {
        return ctx;
    }
    let ctx = ctx.with_cache(1 << 24);
    match cache {
        Cache::Warm => {
            for t in &data.tables {
                cached_scan_streamed(&ctx.scoped(), t, |_| Ok(())).unwrap();
            }
        }
        Cache::PartialHit => {
            let cache = ctx.cache().unwrap();
            for (key, bytes) in &data.objects {
                let len = bytes.len() as u64;
                // The layout the catalog gives the scan: fixed blocks for
                // CSV, column-chunk extents for ColumnarLite.
                let chunks: Vec<(u64, u64)> = match format {
                    Format::Csv => (0..len)
                        .step_by(CHUNK as usize)
                        .map(|f| (f, (f + CHUNK).min(len)))
                        .collect(),
                    Format::Columnar => {
                        ColumnarReader::open(bytes.clone()).unwrap().chunk_extents()
                    }
                };
                assert!(chunks.len() >= 3, "need gaps and hits in {key}");
                let epoch = cache.begin_fill(&SegmentKey::whole(BUCKET, key));
                for &(first, last) in chunks.iter().step_by(2) {
                    cache.insert(
                        SegmentKey::chunk(BUCKET, key, (first, last)),
                        bytes.slice(first as usize..last as usize),
                        epoch,
                    );
                }
            }
        }
        _ => {}
    }
    ctx
}

fn table<'a>(ctx_tables: &'a [Table], name: &str) -> &'a Table {
    ctx_tables.iter().find(|t| t.name == name).unwrap()
}

/// What one execution of a plan yields, flattened for comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    schema: Schema,
    rows: Vec<Row>,
    /// Phase groups: `(label, stats)` of every phase.
    metrics: Vec<Vec<(String, PhaseStats)>>,
    /// The operator tree in pre-order: depth, label, own footprint.
    operators: Vec<(usize, String, PhaseStats)>,
    billed: Usage,
}

fn flatten_report(op: &OpReport, depth: usize, out: &mut Vec<(usize, String, PhaseStats)>) {
    out.push((depth, op.label.clone(), op.actual));
    for c in &op.children {
        flatten_report(c, depth + 1, out);
    }
}

fn outcome(
    ctx: &QueryContext,
    schema: Schema,
    rows: Vec<Row>,
    metrics: &QueryMetrics,
    report: &OpReport,
) -> Outcome {
    assert_eq!(metrics.usage(), ctx.billed(), "usage == billed");
    let mut operators = Vec::new();
    flatten_report(report, 0, &mut operators);
    Outcome {
        schema,
        rows,
        metrics: metrics
            .groups
            .iter()
            .map(|g| {
                g.phases
                    .iter()
                    .map(|p| (p.label.clone(), p.stats))
                    .collect()
            })
            .collect(),
        operators,
        billed: ctx.billed(),
    }
}

// ---------------------------------------------------------------------
// the reference executor
// ---------------------------------------------------------------------

struct Reference {
    schema: Schema,
    rows: Vec<Row>,
    metrics: QueryMetrics,
    report: OpReport,
}

impl Reference {
    fn leaf(
        schema: Schema,
        rows: Vec<Row>,
        label: String,
        phase: String,
        stats: PhaseStats,
    ) -> Self {
        let mut metrics = QueryMetrics::new();
        metrics.push_serial(phase, stats);
        Reference {
            schema,
            rows,
            metrics,
            report: OpReport {
                label,
                predicted: None,
                actual: stats,
                children: Vec::new(),
            },
        }
    }

    fn stacked(
        self,
        node: &PlanNode,
        schema: Schema,
        rows: Vec<Row>,
        phase: Option<(&str, Flow)>,
        local: PhaseStats,
    ) -> Self {
        let mut metrics = self.metrics;
        if let Some((phase, flow)) = phase {
            metrics.stack(phase, local, flow);
        }
        Reference {
            schema,
            rows,
            metrics,
            report: OpReport {
                label: node.label(),
                predicted: None,
                actual: local,
                children: vec![self.report],
            },
        }
    }
}

fn select_stmt(projection: &Option<Vec<String>>, predicate: Option<Expr>) -> SelectStmt {
    SelectStmt {
        items: match projection {
            None => vec![SelectItem::Wildcard],
            Some(cols) => cols
                .iter()
                .map(|c| SelectItem::Expr {
                    expr: Expr::col(c.clone()),
                    alias: None,
                })
                .collect(),
        },
        alias: None,
        where_clause: predicate,
        limit: None,
    }
}

fn select_leaf(
    ctx: &QueryContext,
    node: &PlanNode,
    table: &Table,
    stmt: &SelectStmt,
    phase: &str,
) -> Result<Reference> {
    let scan = select_scan(ctx, table, stmt)?;
    Ok(Reference::leaf(
        scan.schema,
        scan.rows,
        node.label(),
        format!("{phase} {}", table.name),
        scan.stats,
    ))
}

/// How the engine runs a hash join's two sides. On one node, cache or
/// no cache, a join pipelines when its build side is a scan under
/// streaming operators and its probe side the same, or a pipelined join,
/// over other tables; a join over a pipelined join runs build, then
/// probe; every other one loads its sides concurrently.
fn hash_join_sides(ctx: &QueryContext, node: &PlanNode) -> Sides {
    fn scans(node: &PlanNode, joins: bool) -> Option<Vec<&str>> {
        match &node.op {
            PlanOp::Scan { table, .. } => Some(vec![table.name.as_str()]),
            PlanOp::LocalFilter { .. } | PlanOp::Project { .. } => scans(&node.children[0], joins),
            PlanOp::HashJoin { .. } if joins => {
                let build = scans(&node.children[0], false)?;
                let probe = scans(&node.children[1], true)?;
                if build.iter().any(|t| probe.contains(t)) {
                    return None;
                }
                Some([build, probe].concat())
            }
            _ => None,
        }
    }
    fn pipelines(node: &PlanNode) -> bool {
        matches!(node.op, PlanOp::HashJoin { .. }) && scans(node, true).is_some()
    }
    fn below(node: &PlanNode) -> bool {
        node.children.iter().any(|c| pipelines(c) || below(c))
    }
    if ctx.cluster.is_some() {
        Sides::Concurrent
    } else if pipelines(node) {
        Sides::Pipelined
    } else if below(node) {
        Sides::Serial
    } else {
        Sides::Concurrent
    }
}

/// Every table a scan under `node` reads.
fn scanned_tables(node: &PlanNode) -> Vec<&Table> {
    let mut out: Vec<&Table> = node.children.iter().flat_map(scanned_tables).collect();
    if let PlanOp::Scan { table, .. } = &node.op {
        out.push(table);
    }
    out
}

/// Where a cached scan of one partition finds its chunks: each chunk's
/// resident length and tier, along the layout the catalog gives it.
type Residency = Vec<Option<(u64, CacheTier)>>;

/// What a cached scan of `tables` would read, partition by partition.
/// Empty without a cache.
fn residency(ctx: &QueryContext, tables: &[&Table]) -> Vec<Residency> {
    let Some(cache) = ctx.cache() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for t in tables {
        for key in t.partitions(&ctx.store) {
            let len = ctx.store.object_size(&t.bucket, &key).unwrap();
            let layout = t.cache_layout(&key, len, ctx.cache_chunk_bytes);
            out.push(
                (layout.iter())
                    .map(|&r| cache.peek_tier(&SegmentKey::chunk(&t.bucket, &key, r)))
                    .collect(),
            );
        }
    }
    out
}

/// The two sides of a join, as they ran: a pipelined join's two sides
/// share one group, the build's scan first and the probe's pipeline last
/// and still open; two sides of one group each that loaded concurrently
/// merge into one parallel group; anything else runs the build side —
/// ended by its hash build — and then the probe side.
fn join_sides(build: &QueryMetrics, probe: &QueryMetrics, sides: Sides) -> QueryMetrics {
    let one = build.groups.len() == 1 && probe.groups.len() == 1;
    if sides == Sides::Pipelined {
        assert!(one, "a pipelined join's sides are one group each");
        let mut out = probe.clone();
        let scan = build.groups[0].phases.iter().cloned();
        out.groups[0].phases.splice(0..0, scan);
        return out;
    }
    let mut out = QueryMetrics::new();
    if sides == Sides::Concurrent && one {
        out.push_parallel(
            build
                .groups
                .iter()
                .chain(&probe.groups)
                .flat_map(|g| &g.phases)
                .map(|p| (p.label.clone(), p.stats))
                .collect(),
        );
    } else {
        out.extend(build);
        out.close();
        out.extend(probe);
    }
    out
}

fn join(
    node: &PlanNode,
    build: Reference,
    probe: Reference,
    mut metrics: QueryMetrics,
    (build_key, probe_key): (&str, &str),
    phase: &str,
    folded: bool,
) -> Result<Reference> {
    let bk = build.schema.resolve(build_key)?;
    let pk = probe.schema.resolve(probe_key)?;
    let mut local = PhaseStats::default();
    let rows = ops::hash_join(build.rows, bk, probe.rows, pk, &mut local);
    if folded {
        local.server_cpu_units -= rows.len() as u64;
    }
    // The join's own work streams over the probe side.
    metrics.stack(phase, local, Streaming);
    Ok(Reference {
        schema: build.schema.join(&probe.schema),
        rows,
        metrics,
        report: OpReport {
            label: node.label(),
            predicted: None,
            actual: local,
            children: vec![build.report, probe.report],
        },
    })
}

/// Whether grouping operator `node` folds the join under it (directly,
/// or through a Project): the join then builds no row the grouping
/// operator keeps, and charges none.
fn folds(node: &PlanNode) -> bool {
    let child = &node.children[0];
    let join = match child.op {
        PlanOp::Project { .. } => &child.children[0],
        _ => child,
    };
    matches!(join.op, PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. })
}

/// The materializing executor: every operator takes its child's whole
/// output and returns its own. A join whose rows a grouping operator
/// folds (`folded`) still builds them here, but is charged as the engine
/// charges it: one unit per build and per probe row, none per match.
fn reference(ctx: &QueryContext, node: &PlanNode, folded: bool) -> Result<Reference> {
    match &node.op {
        PlanOp::Scan {
            table,
            predicate,
            projection,
            source: source @ (ScanSource::Plain | ScanSource::Cached),
        } => {
            let cached = *source == ScanSource::Cached;
            let mut rows = Vec::new();
            let collect = |batch: RowBatch| {
                rows.extend(batch.rows);
                Ok(())
            };
            // A cached leaf reads the columns it references — what a warm
            // ColumnarLite cache serves is their chunks and the footer —
            // and filters and projects them here; a GET reads whole rows.
            let mut schema = table.schema.clone();
            let summary = match (cached, projection) {
                (true, Some(cols)) => {
                    let mut names = cols.clone();
                    if let Some(p) = predicate {
                        p.referenced_columns(&mut names);
                    }
                    let mut read = names
                        .iter()
                        .map(|c| table.schema.resolve(c))
                        .collect::<Result<Vec<_>>>()?;
                    read.sort_unstable();
                    read.dedup();
                    schema = schema.project(&read);
                    let names = read.iter().map(|&c| table.schema.field(c).name.clone());
                    let columns = select_stmt(&Some(names.collect()), None);
                    scan(ctx, table, ScanSource::Cached, &columns, None, collect)?
                }
                (true, None) => cached_scan_streamed(ctx, table, collect)?,
                (false, _) => plain_scan_streamed(ctx, table, collect)?,
            };
            let mut stats = summary.stats;
            if let Some(p) = predicate {
                let bound = Binder::new(&schema).bind_expr(p)?;
                rows = ops::filter_rows(rows, &bound, &mut stats)?;
            }
            if let Some(cols) = projection {
                let indices = cols
                    .iter()
                    .map(|c| schema.resolve(c))
                    .collect::<Result<Vec<_>>>()?;
                schema = schema.project(&indices);
                rows = rows.iter().map(|r| r.project(&indices)).collect();
            }
            let (label, phase) = if cached {
                (
                    format!(
                        "{} ({}/{} partitions hit)",
                        node.label(),
                        summary.hit_parts,
                        summary.hit_parts + summary.fill_parts
                    ),
                    format!("cached load {}", table.name),
                )
            } else {
                (node.label(), format!("load {}", table.name))
            };
            Ok(Reference::leaf(schema, rows, label, phase, stats))
        }
        PlanOp::Scan {
            table,
            predicate,
            projection,
            source: ScanSource::Select(None),
        } => select_leaf(
            ctx,
            node,
            table,
            &select_stmt(projection, predicate.clone()),
            "select",
        ),
        PlanOp::HashJoin {
            build_key,
            probe_key,
        } => {
            let sides = hash_join_sides(ctx, node);
            // A pipelined join's two sides both read the cache as it was
            // when the join started, and what they did to it applies
            // build side first. Run one after the other, they do the
            // same exactly when the build side leaves every segment the
            // probe side reads where it was — so that is checked.
            let probe_tables = scanned_tables(&node.children[1]);
            let at_start = residency(ctx, &probe_tables);
            let build = reference(ctx, &node.children[0], false)?;
            if sides == Sides::Pipelined {
                assert_eq!(
                    residency(ctx, &probe_tables),
                    at_start,
                    "the build side moved a probe segment: {}",
                    node.label()
                );
            }
            let probe = reference(ctx, &node.children[1], false)?;
            let metrics = join_sides(&build.metrics, &probe.metrics, sides);
            join(
                node,
                build,
                probe,
                metrics,
                (build_key, probe_key),
                "hash join",
                folded,
            )
        }
        PlanOp::BloomJoin {
            build_key,
            probe_key,
            fpr,
        } => {
            let build = reference(ctx, &node.children[0], false)?;
            let bk = build.schema.resolve(build_key)?;
            let keys: Vec<i64> = build
                .rows
                .iter()
                .filter(|r| !r[bk].is_null())
                .map(|r| r[bk].as_i64())
                .collect::<Result<_>>()?;
            let probe_node = &node.children[1];
            let PlanOp::Scan {
                table,
                predicate,
                projection,
                source: ScanSource::Select(None),
            } = &probe_node.op
            else {
                panic!("BloomJoin probes a PushdownScan");
            };
            // The filter gets what the engine's SQL limit leaves beside
            // the probe's own statement and the text joining them.
            let unfiltered = select_stmt(projection, predicate.clone()).to_string().len();
            let builder = BloomBuilder {
                max_sql_bytes: ctx.engine.limits().max_sql_bytes - unfiltered - " AND ()()".len(),
                ..BloomBuilder::default()
            };
            let (pred, label) = match builder.build(&keys, *fpr, probe_key) {
                Some((filter, _)) => {
                    let bloom = filter.sql_predicate(probe_key);
                    let pred = match predicate {
                        Some(p) => Expr::and(p.clone(), bloom),
                        None => bloom,
                    };
                    (Some(pred), "bloom probe")
                }
                None => (predicate.clone(), "fallback probe (no bloom)"),
            };
            let probe = select_leaf(
                ctx,
                probe_node,
                table,
                &select_stmt(projection, pred),
                label,
            )?;
            let metrics = join_sides(&build.metrics, &probe.metrics, Sides::Serial);
            join(
                node,
                build,
                probe,
                metrics,
                (build_key, probe_key),
                "hash join (bloom)",
                folded,
            )
        }
        PlanOp::LocalFilter { predicate } => {
            let mut child = reference(ctx, &node.children[0], false)?;
            let bound = Binder::new(&child.schema).bind_expr(predicate)?;
            let mut local = PhaseStats::default();
            let rows = ops::filter_rows(std::mem::take(&mut child.rows), &bound, &mut local)?;
            let schema = child.schema.clone();
            Ok(child.stacked(
                node,
                schema,
                rows,
                Some(("residual filter", Streaming)),
                local,
            ))
        }
        PlanOp::Project { exprs } => {
            let child = reference(ctx, &node.children[0], folded)?;
            let binder = Binder::new(&child.schema);
            let bound = exprs
                .iter()
                .map(|e| binder.bind_expr(e))
                .collect::<Result<Vec<_>>>()?;
            let mut local = PhaseStats::default();
            let rows = ops::map_rows(&child.rows, &bound, &mut local)?;
            Ok(child.stacked(
                node,
                node.schema.clone(),
                rows,
                Some(("project", Streaming)),
                local,
            ))
        }
        PlanOp::GroupBy { keys, aggs, order } => {
            let child = reference(ctx, &node.children[0], folds(node))?;
            let mut local = PhaseStats::default();
            let mut rows = ops::hash_group_by(&child.rows, keys, aggs, &mut local)?;
            // Its ORDER BY runs in the group-by's phase.
            if let Some(Order { keys, limit }) = order {
                rows = reference_order(rows, keys, *limit, &mut local);
            }
            Ok(child.stacked(
                node,
                node.schema.clone(),
                rows,
                Some(("group-by", Breaker)),
                local,
            ))
        }
        PlanOp::Aggregate { aggs } => {
            let child = reference(ctx, &node.children[0], folds(node))?;
            let mut local = PhaseStats::default();
            local.server_cpu_units += child.rows.len() as u64 * aggs.len().max(1) as u64;
            let mut accs: Vec<_> = aggs.iter().map(|(f, c)| (f.accumulator(), *c)).collect();
            for r in &child.rows {
                for (acc, col) in accs.iter_mut() {
                    match col {
                        Some(c) => acc.update(&r[*c])?,
                        None => acc.update(&Value::Bool(true))?,
                    }
                }
            }
            let rows = vec![Row::new(accs.iter().map(|(a, _)| a.finish()).collect())];
            Ok(child.stacked(
                node,
                node.schema.clone(),
                rows,
                Some(("aggregate", Breaker)),
                local,
            ))
        }
        PlanOp::Sort(Order { keys, limit }) => {
            let mut child = reference(ctx, &node.children[0], false)?;
            let mut local = PhaseStats::default();
            let rows = reference_order(std::mem::take(&mut child.rows), keys, *limit, &mut local);
            let schema = child.schema.clone();
            Ok(child.stacked(node, schema, rows, Some(("sort", Breaker)), local))
        }
        PlanOp::Limit { n } => {
            let mut child = reference(ctx, &node.children[0], false)?;
            let mut rows = std::mem::take(&mut child.rows);
            rows.truncate(*n);
            let schema = child.schema.clone();
            Ok(child.stacked(node, schema, rows, None, PhaseStats::default()))
        }
        other => panic!("the join lowering does not produce {other:?}"),
    }
}

/// `ORDER BY keys [LIMIT limit]`: the stable sort, truncated — charged
/// as the K-heap it runs as under a limit: log2 K per row offered, one
/// per row kept.
fn reference_order(
    rows: Vec<Row>,
    keys: &[(usize, bool)],
    limit: Option<usize>,
    local: &mut PhaseStats,
) -> Vec<Row> {
    let offered = rows.len() as u64;
    let mut work = PhaseStats::default();
    let mut rows = ops::sort_rows_by_keys(rows, keys, &mut work);
    if let Some(k) = limit {
        rows.truncate(k);
        let log_k = (k.max(2) as f64).log2().ceil() as u64;
        work.server_cpu_units = offered * log_k + rows.len() as u64;
    }
    local.merge(&work);
    rows
}

// ---------------------------------------------------------------------
// the matrix
// ---------------------------------------------------------------------

/// The candidates of `stmt`, lowered once with and once without a cache
/// on the store (plans name tables and keys, not stores, so they run on
/// any store holding the same objects).
fn candidates(format: Format, stmt: &Statement) -> Vec<(&'static str, PlanNode)> {
    let spec = parse_query(&stmt.sql).unwrap();
    let tables = &encoded(format).tables;
    let mut out = Vec::new();
    for cache in [Cache::Absent, Cache::Cold] {
        let ctx = setup(format, cache);
        for (name, plan) in lower_candidates(&ctx, table(tables, stmt.primary), &spec).unwrap() {
            if !out.iter().any(|(n, _)| *n == name) {
                out.push((name, plan));
            }
        }
    }
    for (name, _) in &out {
        assert!(
            RUNS.iter().any(|(n, _)| n == name),
            "candidate `{name}` has no run"
        );
    }
    out
}

/// The cache a first execution of candidate `name` finds.
fn first_run_cache(name: &str) -> Cache {
    if name.starts_with("cached") {
        Cache::Cold
    } else {
        Cache::Absent
    }
}

fn check_plans_match_reference(format: Format) {
    let mut seen = std::collections::BTreeSet::new();
    let mut pipelined = 0;
    for stmt in statements() {
        let plans = candidates(format, &stmt);
        for (name, cache) in RUNS {
            let Some((_, plan)) = plans.iter().find(|(n, _)| *n == name) else {
                continue;
            };
            seen.insert(name);
            // The reference is invariant to pool width and batch size.
            let want = {
                let ctx = setup(format, cache).scoped();
                let r = reference(&ctx, plan, false).unwrap();
                outcome(&ctx, r.schema, r.rows, &r.metrics, &r.report)
            };
            if name == "baseline" && stmt.name != "empty build side" {
                assert!(!want.rows.is_empty(), "{} returns rows", stmt.name);
            }
            // The pricer predicts the phases the executor reports, and a
            // plan whose every join pipelines is one group, its joins
            // inside the probe's phase.
            let ctx = setup(format, cache).scoped();
            let predicted = predict_plan(&Estimators::new(&ctx, [plan]), plan).unwrap();
            let labels = |groups: Vec<Vec<&str>>| format!("{groups:?}");
            let predicted_labels = predicted
                .metrics
                .groups
                .iter()
                .map(|g| g.phases.iter().map(|p: &Phase| p.label.as_str()).collect());
            let want_labels = want
                .metrics
                .iter()
                .map(|g| g.iter().map(|p| p.0.as_str()).collect());
            assert_eq!(
                labels(predicted_labels.collect()),
                labels(want_labels.collect()),
                "{} as `{name}` on {format:?}, cache {cache:?}: predicted phases",
                stmt.name
            );
            if all_joins_pipeline(&ctx, plan) {
                let last = want.metrics.last().and_then(|g| g.last());
                let probe = last.map_or("", |p| p.0.as_str());
                assert_eq!(
                    want.metrics.len(),
                    1,
                    "{} as `{name}`: one group",
                    stmt.name
                );
                assert!(probe.contains(" + hash join"), "{}: {probe}", stmt.name);
                pipelined += 1;
            }
            for threads in [1, 2, 8] {
                for batch_rows in [1, 7, 1024] {
                    let mut ctx = setup(format, cache).scoped();
                    ctx.scan_threads = threads;
                    ctx.batch_rows = batch_rows;
                    let e = plan::execute(&ctx, plan).unwrap();
                    if priced_exactly(&stmt) {
                        assert_eq!(
                            cpu_units(&predicted.metrics, |_| true),
                            cpu_units(&e.metrics, |_| true),
                            "{} as `{name}` on {format:?}: predicted CPU units",
                            stmt.name
                        );
                    }
                    let got = outcome(&ctx, e.schema, e.rows, &e.metrics, &e.report);
                    assert_eq!(
                        got, want,
                        "{} as `{name}` on {format:?}, cache {cache:?}, {threads} threads, \
                         batches of {batch_rows}",
                        stmt.name
                    );
                }
            }
        }
    }
    let names: Vec<&str> = RUNS.iter().map(|(n, _)| *n).collect();
    assert!(
        names.iter().all(|n| seen.contains(n)),
        "every candidate ran: {seen:?}"
    );
    assert!(pipelined >= 42, "{pipelined} plans pipelined every join");
}

/// Whether `plan` holds a hash join and every join of it pipelines.
fn all_joins_pipeline(ctx: &QueryContext, plan: &PlanNode) -> bool {
    fn joins<'a>(node: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
        if matches!(node.op, PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. }) {
            out.push(node);
        }
        node.children.iter().for_each(|c| joins(c, out));
    }
    let mut all = Vec::new();
    joins(plan, &mut all);
    let piped = |j: &&PlanNode| {
        matches!(j.op, PlanOp::HashJoin { .. }) && hash_join_sides(ctx, j) == Sides::Pipelined
    };
    !all.is_empty() && all.iter().all(piped)
}

#[test]
fn csv_join_plans_match_the_materializing_reference() {
    check_plans_match_reference(Format::Csv);
}

#[test]
fn columnar_join_plans_match_the_materializing_reference() {
    check_plans_match_reference(Format::Columnar);
}

/// The first join operator of a report tree, pre-order.
fn join_report(op: &OpReport) -> Option<&OpReport> {
    let joins = ["HashJoin[", "FilteredJoin[", "BloomJoin["];
    if joins.iter().any(|j| op.label.starts_with(j)) {
        return Some(op);
    }
    op.children.iter().find_map(join_report)
}

/// On four nodes every candidate, with no cache and with a warm one,
/// answers what the materializing reference answers on one node, bills
/// what it meters and runs the phases it is priced at. A join under a
/// grouping operator builds no row of a match — except under a group-by
/// over bare columns, whose shuffle moves each match as the row of its
/// keys and arguments, built by the join at the unit a joined row costs;
/// a Project between them builds that row itself.
#[test]
fn join_plans_on_four_nodes_match_the_serial_reference() {
    for format in [Format::Csv, Format::Columnar] {
        for stmt in statements() {
            let plans = candidates(format, &stmt);
            let runs = RUNS
                .iter()
                .filter(|(_, c)| matches!(c, Cache::Absent | Cache::Warm));
            for &(name, cache) in runs {
                let Some((_, plan)) = plans.iter().find(|(n, _)| *n == name) else {
                    continue;
                };
                let what = format!("{} as `{name}` on {format:?}, cache {cache:?}", stmt.name);
                let serial = setup(format, cache).scoped();
                let want = reference(&serial, plan, false).unwrap();
                let ctx = setup(format, cache).with_nodes(4).scoped();
                let e = plan::execute(&ctx, plan).unwrap();
                assert_eq!(e.rows, want.rows, "{what}");
                assert_eq!(e.metrics.usage(), ctx.billed(), "{what}: usage == billed");
                let predicted = predict_plan(&Estimators::new(&ctx, [plan]), plan).unwrap();
                let labels = |m: &QueryMetrics| -> Vec<Vec<String>> {
                    let group = |g: &pushdowndb::core::metrics::PhaseGroup| {
                        g.phases.iter().map(|p| p.label.clone()).collect()
                    };
                    m.groups.iter().map(group).collect()
                };
                assert_eq!(labels(&predicted.metrics), labels(&e.metrics), "{what}");
                // The pricer spreads a cluster's per-node work evenly over
                // the nodes, the run by where the rows live: only the phase
                // the join runs in is priced at exactly its units.
                if priced_exactly(&stmt) {
                    let join = |label: &str| label.contains("hash join");
                    let units = cpu_units(&predicted.metrics, join);
                    assert_eq!(
                        units,
                        cpu_units(&e.metrics, join),
                        "{what}: the join's phase"
                    );
                }
                // The join's own units: one per build and per probe row,
                // and, where it builds rows, one per row.
                let cpu = |r: &OpReport| join_report(r).unwrap().actual.server_cpu_units;
                let mut units = cpu(&want.report);
                if let Some(join) = shuffled_join(plan) {
                    let fresh = setup(format, cache).scoped();
                    units += reference(&fresh, join, false).unwrap().rows.len() as u64;
                }
                assert_eq!(cpu(&e.report), units, "{what}: the join's units");
            }
        }
    }
}

/// A full sort is priced at the units it charges — `n` times the bit
/// length of `n` — where the slice's cardinalities are exact: a group-by
/// ordered by an aggregate on one node, and a partitioned group-by's
/// merge on four.
#[test]
fn full_sorts_are_priced_at_the_units_they_charge() {
    let ordered = Statement {
        name: "ordered revenue",
        primary: "orders",
        sql: "SELECT o_orderpriority, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
              FROM orders JOIN lineitem ON o_orderkey = l_orderkey \
              GROUP BY o_orderpriority ORDER BY revenue DESC"
            .to_string(),
    };
    let bare = statements().into_iter().find(|s| s.name == "bare group-by");
    let serial = setup(Format::Csv, Cache::Absent);
    let four = setup(Format::Csv, Cache::Absent).with_nodes(4);
    let cases = [
        (
            ordered,
            serial,
            "load lineitem + hash join + project + group-by",
            2744,
        ),
        (bare.unwrap(), four, "group-by merge", 210),
    ];
    for (stmt, ctx, phase, units) in cases {
        let plans = candidates(Format::Csv, &stmt);
        let (_, plan) = plans.iter().find(|(n, _)| *n == "baseline").unwrap();
        let ctx = ctx.scoped();
        let executed = plan::execute(&ctx, plan).unwrap();
        let predicted = predict_plan(&Estimators::new(&ctx, [plan]), plan).unwrap();
        let want = vec![(phase.to_string(), units)];
        assert_eq!(cpu_units(&executed.metrics, |l| l == phase), want);
        assert_eq!(cpu_units(&predicted.metrics, |l| l == phase), want);
    }
}

/// The join a group-by reads bare columns off, if `plan` holds one: on a
/// cluster its matches shuffle as keys-and-arguments rows.
fn shuffled_join(plan: &PlanNode) -> Option<&PlanNode> {
    let joins = |n: &PlanNode| matches!(n.op, PlanOp::HashJoin { .. } | PlanOp::BloomJoin { .. });
    match plan.op {
        PlanOp::GroupBy { .. } if joins(&plan.children[0]) => Some(&plan.children[0]),
        PlanOp::Sort(_) | PlanOp::Limit { .. } => shuffled_join(&plan.children[0]),
        _ => None,
    }
}

/// Pruned leaves deliver exactly the needed columns — and a wildcard
/// statement prunes nothing.
#[test]
fn local_and_cached_leaves_carry_the_needed_columns_only() {
    fn leaves<'a>(node: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
        if node.children.is_empty() {
            out.push(node);
        }
        for c in &node.children {
            leaves(c, out);
        }
    }
    let stmts = statements();
    let by_name = |name: &str| stmts.iter().find(|s| s.name == name).unwrap();
    for (stmt, want) in [
        (
            by_name("join-q12ish"),
            vec![vec!["o_orderkey"], vec!["l_orderkey", "l_shipmode"]],
        ),
        (
            by_name("select star"),
            vec![
                pushdowndb::tpch::schema::customer().names(),
                pushdowndb::tpch::schema::orders().names(),
            ],
        ),
    ] {
        for (name, plan) in candidates(Format::Columnar, stmt) {
            let mut found = Vec::new();
            leaves(&plan, &mut found);
            let got: Vec<Vec<&str>> = found.iter().map(|l| l.schema.names()).collect();
            assert_eq!(got, want, "{} as `{name}`", stmt.name);
            for leaf in found {
                let PlanOp::Scan { projection, .. } = &leaf.op else {
                    panic!("leaf {:?}", leaf.op);
                };
                let cols: Vec<&str> = projection.iter().flatten().map(String::as_str).collect();
                assert_eq!(cols, leaf.schema.names());
            }
        }
    }
}

/// A scattered baseline plan ships — and is predicted to ship — the
/// projected columns: the leaves' actual and predicted exchange volume
/// moved together when local leaves began to prune.
#[test]
fn scattered_baseline_leaves_exchange_the_projected_columns() {
    /// `(actual, predicted)` exchange bytes of every node a leaf ran on.
    fn gathered(op: &OpReport, inside: bool, out: &mut (u64, u64)) {
        let inside = inside || op.label.starts_with("Exchange[");
        if inside {
            out.0 += op.actual.exchange_bytes;
            out.1 += op.predicted.map_or(0, |p| p.exchange_bytes);
        }
        for c in &op.children {
            gathered(c, inside, out);
        }
    }
    let stmts = statements();
    let stmt = stmts.iter().find(|s| s.name == "join-q12ish").unwrap();
    // Every row of both tables, whole, as CSV: what unpruned leaves
    // would have put on the interconnect before their predicates.
    let whole: u64 = source_rows()
        .iter()
        .filter(|(name, ..)| *name != "customer")
        .flat_map(|(_, _, rows, _)| rows)
        .map(|r| r.to_csv_line().len() as u64 + 1)
        .sum();
    for format in [Format::Csv, Format::Columnar] {
        let orders = table(&encoded(format).tables, stmt.primary);
        let baseline = planner::Strategy::Baseline;
        let serial = execute_sql(&setup(format, Cache::Absent), orders, &stmt.sql, baseline);
        let ctx = setup(format, Cache::Absent).with_nodes(2);
        let (out, explain) =
            planner::execute_sql_verbose(&ctx, orders, &stmt.sql, baseline).unwrap();
        assert_eq!(out.rows, serial.unwrap().rows);
        let report = explain.operators.expect("joined plans report operators");
        let mut sums = (0, 0);
        gathered(&report, false, &mut sums);
        let (actual, predicted) = sums;
        assert!(actual > 0 && actual * 4 < whole, "{actual} of {whole} B");
        let off = (predicted as f64 - actual as f64).abs() / actual as f64;
        assert!(
            off < 0.25,
            "{format:?}: leaves predicted to exchange {predicted} B, exchanged {actual} B"
        );
    }
}

/// Retried requests are billed and metered alike through both join
/// phases, whatever the candidate, and the rows do not change.
#[test]
fn joined_plans_bill_what_they_meter_under_faults() {
    let stmts = statements();
    for format in [Format::Csv, Format::Columnar] {
        for stmt in stmts.iter().filter(|s| s.name.starts_with("join-")) {
            for (name, plan) in candidates(format, stmt) {
                let cache = first_run_cache(name);
                let calm = plan::execute(&setup(format, cache).scoped(), &plan).unwrap();
                let mut retried = 0;
                for seed in 0..4 {
                    let mut ctx = setup(format, cache).with_retry(RetryPolicy::with_attempts(24));
                    ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.3)));
                    ctx.scan_threads = 2;
                    let ctx = ctx.scoped();
                    let e = plan::execute(&ctx, &plan).unwrap();
                    assert_eq!(e.rows, calm.rows, "{} as `{name}`, seed {seed}", stmt.name);
                    assert_eq!(
                        e.metrics.usage(),
                        ctx.billed(),
                        "{} as `{name}`, seed {seed}",
                        stmt.name
                    );
                    retried += ctx.billed().requests - calm.metrics.usage().requests;
                }
                assert!(retried > 0, "{} as `{name}`: no fault fired", stmt.name);
            }
        }
    }
}

/// A partition of the probe table that does not decode fails the query
/// — local, cached and pushed probes alike — and the pipeline (build
/// table held, probe scan cancelled mid-flight) winds down, at every
/// pool width.
#[test]
fn a_producer_error_inside_the_probe_scan_fails_the_query_without_hanging() {
    break_one_partition_of("lineitem");
}

/// So does one of the build table, while a pipelined join's probe side
/// is loading beside it: the probe side stops, and the error reported is
/// the build side's.
#[test]
fn a_producer_error_inside_the_build_scan_stops_the_probe_side() {
    break_one_partition_of("orders");
}

/// Run every `join-q12ish` candidate with the third partition of `name`
/// torn, and expect each to fail with that partition's error within a
/// bounded time.
fn break_one_partition_of(name: &'static str) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let stmts = statements();
        let stmt = stmts.iter().find(|s| s.name == "join-q12ish").unwrap();
        for format in [Format::Csv, Format::Columnar] {
            for (candidate, plan) in candidates(format, stmt) {
                for threads in [1, 2, 8] {
                    let cache = first_run_cache(candidate);
                    let mut ctx = setup(format, cache);
                    ctx.scan_threads = threads;
                    ctx.batch_rows = 7;
                    // The third partition stops decoding: a CSV record
                    // short of fields, a ColumnarLite file cut before its
                    // footer.
                    let torn = table(&encoded(format).tables, name);
                    let key = &torn.partitions(&ctx.store)[2];
                    let data = ctx.store.raw_object(BUCKET, key).unwrap();
                    let broken = match format {
                        Format::Csv => [&data[..], b"7,torn\n"].concat().into(),
                        Format::Columnar => data.slice(..data.len() - 9),
                    };
                    ctx.store.put_object(BUCKET, key, broken);
                    let what = format!("`{candidate}` on {format:?}, {threads} threads");
                    match plan::execute(&ctx.scoped(), &plan) {
                        Ok(out) => panic!("{what}: {} rows", out.rows.len()),
                        Err(e) => {
                            assert!(!e.to_string().contains("stopped reading"), "{what}: {e}")
                        }
                    }
                }
            }
        }
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("a failing scan hung (or an assertion failed) instead of returning Err");
}

/// The bug this suite pins: join keys follow the evaluator's `=`.
/// `0.0 = -0.0` and `0 = -0.0` are true, `NaN = NaN` is not, and NULL
/// equals nothing — the join returns the cross product filtered by
/// `x = y`, probe-major with build rows in table order.
#[test]
fn join_keys_agree_with_the_evaluators_equality() {
    let floats = |vals: &[Option<f64>]| -> Vec<Row> {
        vals.iter()
            .enumerate()
            .map(|(i, v)| {
                Row::new(vec![
                    v.map_or(Value::Null, Value::Float),
                    Value::Int(i as i64),
                ])
            })
            .collect()
    };
    let a_schema = Schema::from_pairs(&[("x", DataType::Float), ("a", DataType::Int)]);
    let a_rows = floats(&[
        Some(0.0),
        Some(-0.0),
        Some(1.0),
        Some(1.5),
        Some(f64::NAN),
        None,
        Some(2.0),
        Some(-0.0),
    ]);
    let int_schema = Schema::from_pairs(&[("y", DataType::Int), ("b", DataType::Int)]);
    let int_rows: Vec<Row> = [Some(0), Some(1), None, Some(2), Some(3), Some(0)]
        .iter()
        .enumerate()
        .map(|(i, v)| {
            Row::new(vec![
                v.map_or(Value::Null, Value::Int),
                Value::Int(i as i64),
            ])
        })
        .collect();
    let float_schema = Schema::from_pairs(&[("y", DataType::Float), ("b", DataType::Int)]);
    let float_rows = floats(&[Some(-0.0), Some(0.0), Some(f64::NAN), None, Some(1.5)]);

    for (b_schema, b_rows) in [(int_schema, int_rows), (float_schema, float_rows)] {
        let store = S3Store::new();
        let a = upload_csv_table(&store, BUCKET, "a", &a_schema, &a_rows, 3).unwrap();
        let b = upload_csv_table(&store, BUCKET, "b", &b_schema, &b_rows, 2).unwrap();
        let ctx = QueryContext::new(store).with_tables([a.clone(), b.clone()]);

        let joined = a_schema.join(&b_schema);
        let x_eq_y = Binder::new(&joined)
            .bind_expr(&parse_expr("x = y").unwrap())
            .unwrap();
        let mut want = Vec::new();
        for r in &b_rows {
            for l in &a_rows {
                let pair = l.concat(r);
                if eval_predicate(&x_eq_y, &pair).unwrap() {
                    want.push(pair);
                }
            }
        }
        assert!(
            want.len() >= 6,
            "zeros of both signs and of both types meet"
        );
        // `Row` equality would call `NaN` equal to `NaN` and tell `0.0`
        // from `-0.0`; the payload columns name each pair exactly.
        let pairs = |rows: &[Row]| -> Vec<(i64, i64)> {
            rows.iter()
                .map(|r| (r[1].as_i64().unwrap(), r[3].as_i64().unwrap()))
                .collect()
        };
        for strategy in [
            planner::Strategy::Baseline,
            planner::Strategy::Pushdown,
            planner::Strategy::Adaptive,
        ] {
            let out = execute_sql(&ctx, &a, "SELECT * FROM a JOIN b ON x = y", strategy).unwrap();
            assert_eq!(
                pairs(&out.rows),
                pairs(&want),
                "{strategy:?}, y is {}",
                b_schema.dtype_of(0)
            );
        }
    }
}

/// A join key as the proptest draws it: a handful of small numbers in
/// both numeric types, both zeros, NaN and NULL, so that duplicates and
/// cross-type matches are the common case.
fn key() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..4).prop_map(Value::Int),
        (-3i64..4).prop_map(|i| Value::Float(i as f64)),
        (-3i64..4).prop_map(|i| Value::Float(i as f64 + 0.5)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Null),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The join table — open-addressed, chained through the row arena —
    /// against the definition: the nested loop over `sql_eq`, probe-major
    /// with build rows in insertion order. Same matches, same order, same
    /// charge, however the two sides are cut into batches.
    #[test]
    fn hash_join_table_matches_the_nested_loop(
        build_keys in proptest::collection::vec(key(), 0..60),
        probe_keys in proptest::collection::vec(key(), 0..60),
        build_batch in 1usize..20,
        probe_batch in 1usize..20,
    ) {
        let tag = |keys: &[Value], base: i64| -> Vec<Row> {
            keys.iter()
                .enumerate()
                .map(|(i, k)| Row::new(vec![Value::Int(base + i as i64), k.clone()]))
                .collect()
        };
        let (build, probe) = (tag(&build_keys, 0), tag(&probe_keys, 1000));
        let mut want = Vec::new();
        for r in &probe {
            for l in &build {
                if l[1].sql_eq(&r[1]) == Some(true) {
                    want.push((l[0].as_i64().unwrap(), r[0].as_i64().unwrap()));
                }
            }
        }
        let mut stats = PhaseStats::default();
        let mut table = ops::HashJoinBuild::new(1);
        for chunk in build.chunks(build_batch) {
            table.add_batch(chunk.to_vec(), &mut stats);
        }
        let mut got = Vec::new();
        for chunk in probe.chunks(probe_batch) {
            for row in table.probe_batch(chunk, 1, &mut stats) {
                prop_assert_eq!(row.len(), 4);
                got.push((row[0].as_i64().unwrap(), row[2].as_i64().unwrap()));
            }
        }
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(
            stats.server_cpu_units,
            (build.len() + probe.len() + want.len()) as u64
        );
    }
}
