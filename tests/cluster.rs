//! Cluster suite: the N-node engine is the single-node engine,
//! decomposed. The plan is the same tree at every node count; the one
//! partition fan-out runs each partition on the node owning it.
//!
//! * **Differential**: every planner-suite query — all nine shapes —
//!   returns rows bit-identical to the serial run at 1, 2, 4 and 8
//!   nodes, under both fixed strategies, and bills exactly the serial
//!   ledger — spreading moves work between nodes, it never creates or
//!   destroys billable bytes (exchange volume is interconnect, not S3).
//! * **No shape runs wholly on one node**: whatever fans out over
//!   partitions lands on the owning nodes — scans, the pushed aggregate,
//!   samples, CASE-WHEN statements — so every shape has more than one
//!   node busy and per-node `Exchange[…]` children under its leaves.
//! * **Conservation**: over a mixed batch the store-global ledger delta
//!   equals Σ per-query bills equals Σ per-node ledger deltas — three
//!   decompositions of one total. Likewise for time: Σ per-node clock
//!   deltas equals Σ per-query virtual clocks, the same total at every
//!   node count.
//! * **Calibration**: the prediction of what ran on the cluster lands
//!   within 15% of the measured ledger (same bound as the single-node
//!   estimator).
//! * **Warm slices**: a warm cluster serves from its owners' cache
//!   slices, and Adaptive, which prices every candidate as it runs
//!   there, takes that.
//! * **Chaos**: under seeded node-failure fault plans, every shape's
//!   successes are row-identical with every byte billed exactly once
//!   (retries are extra requests only), with pinned always-retrying
//!   seeds.
//! * **Writers** (pinned regression): a `put_object` / `delete_object`
//!   through any handle invalidates every node's cache slice, so a
//!   cached re-run on the cluster never serves a rewritten table's old
//!   rows.

use pushdowndb::common::pricing::Usage;
use pushdowndb::common::{DataType, RetryPolicy, Row, Schema, Value};
use pushdowndb::core::joinplan::sample_size;
use pushdowndb::core::planner::{execute_sql_verbose, lower, run_candidate, Tune};
use pushdowndb::core::scan::ScanSource;
use pushdowndb::core::{
    execute_sql, plan, upload_columnar_table, upload_csv_table, Cluster, OpReport, PlanNode,
    PlanOp, QueryContext, Strategy, Table,
};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::{FaultPlan, S3Store};
use pushdowndb::sql::parse_query;
use pushdowndb::tpch::{planner_suite, tpch_context, PlannerQuery, TpchTables};

fn join_suite() -> Vec<PlannerQuery> {
    planner_suite()
        .iter()
        .filter(|q| q.name.starts_with("join-"))
        .copied()
        .collect()
}

/// Serial and scattered execution agree bit-for-bit on rows *and* on the
/// bill, at every node count, under both fixed strategies. n = 1 pins
/// that a single-node cluster is the plain engine routed through node 0.
#[test]
fn scattered_rows_and_bills_match_serial_at_every_node_count() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    for strategy in [Strategy::Pushdown, Strategy::Baseline] {
        for q in planner_suite() {
            let table = (q.table)(&t);
            let serial = execute_sql(&ctx, table, q.sql, strategy).unwrap();
            for n in [1usize, 2, 4, 8] {
                let cctx = ctx.clone().with_nodes(n);
                let out = execute_sql(&cctx, table, q.sql, strategy).unwrap();
                assert_eq!(
                    out.rows, serial.rows,
                    "{} @ {n} nodes ({strategy:?}): rows must be bit-identical",
                    q.name
                );
                assert_eq!(
                    out.billed, serial.billed,
                    "{} @ {n} nodes ({strategy:?}): scattering must not change the bill",
                    q.name
                );
                assert_eq!(
                    out.metrics.usage(),
                    out.billed,
                    "{} @ {n} nodes ({strategy:?}): metrics == ledger",
                    q.name
                );
            }
        }
    }
}

/// Nodes whose ledger billed a request.
fn busy(cluster: &Cluster) -> usize {
    let snapshots = cluster.snapshots();
    snapshots.iter().filter(|ns| ns.usage.requests > 0).count()
}

/// Operators of a report whose partitions ran on more than one node
/// (they have per-node `Exchange[…]` children).
fn spread_leaves(op: &OpReport) -> usize {
    let spread = op.children.iter().any(|c| c.label.starts_with("Exchange["));
    usize::from(spread) + op.children.iter().map(spread_leaves).sum::<usize>()
}

/// Every suite shape at 4 nodes, under both fixed strategies: rows
/// bit-identical to serial, Σ node ledgers == global delta == `billed`,
/// and the plan spreads over the nodes — per-node `Exchange[…]`
/// children under its leaves, more than one node busy — the staged
/// top-K (`sampling`) and group-by (`hybrid`) picks and the pushed
/// scalar aggregate included.
#[test]
fn folded_single_table_families_scatter_like_joins() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    for q in planner_suite() {
        let name = q.name;
        let table = (q.table)(&t);
        for strategy in [Strategy::Baseline, Strategy::Pushdown] {
            let what = format!("{name} under {strategy:?}");
            let serial = execute_sql(&ctx, table, q.sql, strategy).unwrap();
            // A cluster of its own: the node ledgers start at zero.
            let cctx = ctx.clone().with_nodes(4);
            let cluster = cctx.cluster.clone().unwrap();
            let global_before = ctx.store.global_ledger().snapshot();
            let (out, ex) = execute_sql_verbose(&cctx, table, q.sql, strategy).unwrap();
            assert_eq!(out.rows, serial.rows, "{what}: rows");
            assert_eq!(out.billed, serial.billed, "{what}: bill");
            assert_eq!(out.metrics.usage(), out.billed, "{what}: metrics == ledger");
            assert_eq!(cluster.total_usage(), out.billed, "{what}: Σ node ledgers");
            assert_eq!(
                ctx.store.global_ledger().snapshot(),
                global_before + out.billed,
                "{what}: global delta"
            );
            let ops = ex.operators.as_ref().unwrap();
            let report = ops.render(&cctx.model);
            assert!(spread_leaves(ops) > 0, "{what}:\n{report}");
            assert!(
                busy(&cluster) > 1,
                "{what}: {} busy node(s)",
                busy(&cluster)
            );
            // Runs on a cluster carry the prediction of what ran.
            assert!(ex.predicted.is_some(), "{what}");
            if name == "aggregate" {
                assert_eq!(out.rows.len(), 1, "{what}: one row per query");
            }
            if name.starts_with("join-") && strategy == Strategy::Pushdown {
                // A Bloom join: the build side and the probe it writes
                // its filter into both fan out.
                assert!(report.contains("BloomJoin["), "{what}:\n{report}");
                assert_eq!(spread_leaves(ops), 2, "{what}:\n{report}");
            }
        }
    }
}

/// Adaptive with a cluster still matches the serial adaptive rows (it
/// may pick a different-but-equivalent plan, scattered or not).
#[test]
fn adaptive_rows_match_serial_under_a_cluster() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    for q in planner_suite() {
        let table = (q.table)(&t);
        let serial = execute_sql(&ctx, table, q.sql, Strategy::Adaptive).unwrap();
        for n in [2usize, 4] {
            let cctx = ctx.clone().with_nodes(n);
            let out = execute_sql(&cctx, table, q.sql, Strategy::Adaptive).unwrap();
            assert_eq!(out.rows, serial.rows, "{} @ {n} nodes", q.name);
            assert_eq!(out.metrics.usage(), out.billed, "{} @ {n} nodes", q.name);
        }
    }
}

/// Cluster-wide conservation: after a mixed batch of every suite shape,
/// the store-global ledger delta, the sum of per-query bills, and the
/// sum of per-node ledger deltas are the same `Usage`, exactly.
#[test]
fn global_ledger_equals_sum_of_node_ledgers_equals_sum_of_query_ledgers() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let cctx = ctx.clone().with_nodes(4);
    let cluster = cctx.cluster.clone().unwrap();

    let global_before = ctx.store.global_ledger().snapshot();
    let nodes_before = cluster.total_usage();
    let mut sum = Usage::default();
    for rep in 0..2u64 {
        for (qi, q) in planner_suite().iter().enumerate() {
            let qctx = cctx.scoped_with_salt(rep * 100 + qi as u64);
            let out = execute_sql(&qctx, (q.table)(&t), q.sql, Strategy::Pushdown).unwrap();
            assert_eq!(
                out.billed,
                qctx.billed(),
                "{}: query bill is the base-scope ledger",
                q.name
            );
            sum += out.billed;
        }
    }
    let global_after = ctx.store.global_ledger().snapshot();
    assert_eq!(
        global_after,
        global_before + sum,
        "store-global delta == Σ per-query bills"
    );
    assert_eq!(
        cluster.total_usage(),
        nodes_before + sum,
        "Σ node-ledger deltas == Σ per-query bills"
    );
    // The queries actually moved bytes: at least two nodes billed
    // something, and the interconnect carried rows.
    assert!(busy(&cluster) >= 2, "expected >= 2 busy nodes");
    assert!(cluster.total_exchange_bytes() > 0, "no exchange traffic");
}

/// Node clocks decompose query clocks: every virtual second a query's
/// scope accrues runs on exactly one node (the coordinator is node 0),
/// so over the suite Σ per-node clock deltas == Σ per-query
/// `virtual_time_s`, and spreading only moves that time between nodes:
/// the total is the same at 1, 2 and 4 nodes. A zero-rate fault plan
/// turns the latency model on and injects nothing. The clocks count
/// whole nanoseconds; the bound absorbs only the `f64` sums.
#[test]
fn node_clocks_sum_to_query_clocks_at_every_node_count() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    ctx.store.set_fault_plan(Some(FaultPlan::new(7, 0.0)));
    for strategy in [Strategy::Baseline, Strategy::Pushdown] {
        let mut totals = Vec::new();
        for n in [1usize, 2, 4] {
            let cctx = ctx.clone().with_nodes(n);
            let cluster = cctx.cluster.clone().unwrap();
            let node_seconds = || -> f64 { cluster.snapshots().iter().map(|s| s.seconds).sum() };
            let before = node_seconds();
            let mut queries = 0.0;
            for (qi, q) in planner_suite().iter().enumerate() {
                let qctx = cctx.scoped_with_salt(qi as u64);
                execute_sql(&qctx, (q.table)(&t), q.sql, strategy).unwrap();
                queries += qctx.virtual_time_s();
            }
            let nodes = node_seconds() - before;
            assert!(queries > 0.0, "{strategy:?} @ {n} nodes: the clocks ran");
            assert!(
                (nodes - queries).abs() < 1e-9,
                "{strategy:?} @ {n} nodes: Σ node clocks {nodes} != Σ query clocks {queries}"
            );
            totals.push(queries);
        }
        for (n, total) in [2, 4].iter().zip(&totals[1..]) {
            assert!(
                (total - totals[0]).abs() < 1e-9,
                "{strategy:?}: {total} s at {n} nodes vs {} s at 1",
                totals[0]
            );
        }
    }
}

/// EXPLAIN renders the spread plan: per-node Exchange children under the
/// leaves, annotated with scanned/exchanged bytes, plus one ledger line
/// per node.
#[test]
fn explain_renders_exchange_operators_and_per_node_ledgers() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let cctx = ctx.with_nodes(4);
    let q = join_suite()[0];
    let (out, explain) =
        execute_sql_verbose(&cctx, (q.table)(&t), q.sql, Strategy::Pushdown).unwrap();
    let report = explain.report(&out, &cctx);
    for needle in [
        "Exchange[node",
        "B exchanged",
        "node 0: billed",
        "node 3: billed",
    ] {
        assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
    }
}

/// The cluster prediction is calibrated like the single-node one:
/// predicted `Usage` of the plan that ran on four nodes within 15% of
/// the measured ledger, field by field (512-byte absolute floor for
/// near-zero aggregate payloads).
#[test]
fn scattered_predictions_are_calibrated_against_the_ledger() {
    let (ctx, t) = tpch_context(0.005, 1_500).unwrap();
    let cctx = ctx.with_nodes(4);
    for q in join_suite() {
        let (out, explain) =
            execute_sql_verbose(&cctx, (q.table)(&t), q.sql, Strategy::Pushdown).unwrap();
        let measured = out.billed;
        let predicted = explain
            .predicted
            .as_ref()
            .expect("runs on a cluster carry a prediction")
            .usage();
        let check = |pred: u64, meas: u64, what: &str| {
            let slack = (0.15 * meas as f64).max(512.0);
            assert!(
                (pred as f64 - meas as f64).abs() <= slack,
                "{} [{}]: predicted {pred} vs measured {meas} (slack {slack:.0})",
                q.name,
                what
            );
        };
        check(predicted.requests, measured.requests, "requests");
        check(
            predicted.select_scanned_bytes,
            measured.select_scanned_bytes,
            "scanned",
        );
        check(
            predicted.select_returned_bytes,
            measured.select_returned_bytes,
            "returned",
        );
        check(predicted.plain_bytes, measured.plain_bytes, "plain");
    }
}

/// Per-node cache slices: a cache installed *before* `with_nodes` is
/// split across the nodes; a warm re-run on the cluster serves every
/// partition from its owning node's slice and bills zero plain bytes,
/// with rows still bit-identical.
#[test]
fn per_node_cache_slices_serve_warm_scattered_runs_for_free() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let serial = execute_sql(&ctx, &t.customer, join_suite()[0].sql, Strategy::Baseline).unwrap();
    let cctx = ctx
        .with_cache(64 << 20)
        .with_cache_reads(true)
        .with_nodes(4);
    let cluster = cctx.cluster.clone().unwrap();
    let q = join_suite()[0];
    let cold = execute_sql(&cctx, (q.table)(&t), q.sql, Strategy::Baseline).unwrap();
    assert_eq!(cold.rows, serial.rows, "cold run");
    assert!(cold.billed.plain_bytes > 0, "cold run fills remotely");
    let warm = execute_sql(&cctx, (q.table)(&t), q.sql, Strategy::Baseline).unwrap();
    assert_eq!(warm.rows, serial.rows, "warm run");
    assert_eq!(
        warm.billed.plain_bytes, 0,
        "warm run serves every partition from node slices"
    );
    // The fills landed on more than one node's slice.
    let warmed = cluster
        .snapshots()
        .iter()
        .filter(|ns| ns.cache_used_bytes.unwrap_or(0) > 0)
        .count();
    assert!(warmed >= 2, "expected >= 2 warmed slices, got {warmed}");
}

/// Pinned regression: `put_object` / `delete_object` used to invalidate
/// the store-wide cache and the writing handle's own override only, so a
/// cluster's node slices kept serving a rewritten table's old bytes (the
/// in-place rewrite below returned 1560, the old sum, for 2340). Every
/// cache that reads the store is invalidated now: after an in-place
/// rewrite, and after a delete + re-upload with another row count, a
/// warm cached run on the cluster returns a cache-less context's rows, keeps
/// `usage == billed`, and bills the rewritten partitions as fills again.
#[test]
fn writers_invalidate_every_node_slice() {
    let schema = Schema::from_pairs(&[("fk", DataType::Int), ("v", DataType::Int)]);
    let fact_rows = |n: i64, scale: i64| -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i % 8), Value::Int(scale * i)]))
            .collect()
    };
    let dim_schema = Schema::from_pairs(&[("k", DataType::Int)]);
    let dim_rows: Vec<Row> = (0..8).map(|k| Row::new(vec![Value::Int(k)])).collect();
    let sql = "SELECT SUM(v) FROM fact JOIN dim ON fk = k";
    for columnar in [false, true] {
        let upload = |store: &S3Store, name: &str, schema: &Schema, rows: &[Row]| -> Table {
            if columnar {
                let options = WriterOptions::default();
                upload_columnar_table(store, "b", name, schema, rows, 10, options).unwrap()
            } else {
                upload_csv_table(store, "b", name, schema, rows, 10).unwrap()
            }
        };
        for n in [2usize, 4] {
            let store = S3Store::new();
            let fact = upload(&store, "fact", &schema, &fact_rows(40, 2));
            let dim = upload(&store, "dim", &dim_schema, &dim_rows);
            let plain = QueryContext::new(store.clone()).with_tables([dim.clone()]);
            let cctx = plain
                .clone()
                .with_cache(1 << 20)
                .with_nodes(n)
                .with_cache_reads(true);
            let run = |ctx: &QueryContext, fact: &Table| {
                let out = execute_sql(ctx, fact, sql, Strategy::Baseline).unwrap();
                assert_eq!(
                    out.metrics.usage(),
                    out.billed,
                    "{n} nodes: usage == billed"
                );
                out
            };
            let context = format!("{n} nodes, columnar {columnar}");
            run(&cctx, &fact);
            assert_eq!(run(&cctx, &fact).billed.plain_bytes, 0, "{context}: warm");

            // Rewrite `fact` in place through a handle that holds no
            // override: same keys, same sizes class, new values.
            let fact = upload(&store, "fact", &schema, &fact_rows(40, 3));
            let rerun = run(&cctx, &fact);
            assert_eq!(rerun.rows, run(&plain, &fact).rows, "{context}: rewrite");
            assert_eq!(rerun.rows[0][0], Value::Int(3 * 780), "{context}: rewrite");
            assert_eq!(
                rerun.billed.plain_bytes,
                fact.total_bytes(&store),
                "{context}: only the rewritten partitions fill again"
            );

            // Delete + re-upload with another row (and partition) count.
            for key in fact.partitions(&store) {
                assert!(store.delete_object("b", &key));
            }
            let fact = upload(&store, "fact", &schema, &fact_rows(30, 5));
            let rerun = run(&cctx, &fact);
            assert_eq!(rerun.rows, run(&plain, &fact).rows, "{context}: re-upload");
            assert_eq!(
                rerun.rows[0][0],
                Value::Int(5 * 435),
                "{context}: re-upload"
            );
            assert_eq!(
                rerun.billed.plain_bytes,
                fact.total_bytes(&store),
                "{context}"
            );
            assert_eq!(
                run(&cctx, &fact).billed.plain_bytes,
                0,
                "{context}: warm again"
            );
        }
    }
}

/// A warm cluster serves from its owners' slices. A cache installed
/// before `with_nodes(4)` and warmed by a `with_cache_reads(true)`
/// Baseline run of the `orders` shapes holds every `orders` partition
/// in the slice of the node owning it; `cached-local` of `filter-wide`
/// then bills no request and no byte and reads on more than one node,
/// and Adaptive — pricing every candidate as it runs on the cluster —
/// bills no more than it.
#[test]
fn a_warm_cluster_serves_from_its_owners_slices() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let cctx = ctx.with_cache(256 << 20).with_nodes(4);
    let cluster = cctx.cluster.clone().unwrap();
    let warm = cctx.clone().with_cache_reads(true);
    let orders_shapes = planner_suite()
        .into_iter()
        .filter(|q| (q.table)(&t).name == "orders" && !q.name.starts_with("join-"));
    for q in orders_shapes {
        execute_sql(&warm, &t.orders, q.sql, Strategy::Baseline).unwrap();
    }
    let (bucket, store) = (&t.orders.bucket, &cctx.store);
    for key in t.orders.partitions(store) {
        let size = store.object_size(bucket, &key).unwrap();
        let owner = cluster.node(cluster.assign(bucket, &key));
        let slice = owner.cache.as_ref().expect("every node has a slice");
        let layout = |len| t.orders.cache_layout(&key, len, cctx.cache_chunk_bytes);
        let occupancy = slice.occupancy(bucket, &key, size, layout);
        assert_eq!(
            occupancy.gap_bytes, 0,
            "{key} resident on node {}",
            owner.id
        );
    }
    let sql = planner_suite()
        .iter()
        .find(|q| q.name == "filter-wide")
        .unwrap()
        .sql;
    let cached = run_candidate(&cctx, &t.orders, sql, "cached-local", None).unwrap();
    assert_eq!(
        (cached.billed.requests, cached.billed.plain_bytes),
        (0, 0),
        "a warm cached-local run bills nothing"
    );
    assert_eq!(cached.metrics.usage(), cached.billed);
    let read_on = cached.metrics.groups[0].phases.len();
    assert!(read_on > 1, "cached-local read on {read_on} node(s)");
    let (adaptive, ex) = execute_sql_verbose(&cctx, &t.orders, sql, Strategy::Adaptive).unwrap();
    assert_eq!(adaptive.rows, cached.rows);
    let (a, c) = (adaptive.billed, cached.billed);
    assert!(
        a.requests <= c.requests
            && a.plain_bytes <= c.plain_bytes
            && a.select_scanned_bytes <= c.select_scanned_bytes
            && a.select_returned_bytes <= c.select_returned_bytes,
        "Adaptive billed {a:?} against cached-local's {c:?}: {:?}",
        ex.candidates
    );
}

/// A node's "B scanned" counts what it read from every tier. A cache of
/// no memory over a disk tier, installed before `with_nodes(4)`, takes
/// every fill on disk; once `with_cache_reads(true)` Baseline passes
/// leave every `orders` partition disk-resident in its owner's slice, the
/// `Exchange[node k: X B scanned, …]` children of a `cached-local` leaf
/// add up to the leaf's mem + disk + plain bytes — the disk hits among
/// them.
#[test]
fn exchange_labels_count_disk_tier_hits() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let cctx = ctx.with_cache_tiers(0, 256 << 20).with_nodes(4);
    let cluster = cctx.cluster.clone().unwrap();
    let (bucket, store) = (&t.orders.bucket, &cctx.store);
    let on_disk = || {
        t.orders.partitions(store).iter().all(|key| {
            let size = store.object_size(bucket, key).unwrap();
            let owner = cluster.node(cluster.assign(bucket, key));
            let slice = owner.cache.as_ref().expect("every node has a slice");
            let layout = |len| t.orders.cache_layout(key, len, cctx.cache_chunk_bytes);
            let occupancy = slice.occupancy(bucket, key, size, layout);
            (occupancy.gap_bytes, occupancy.disk_bytes) == (0, size)
        })
    };
    let sql = planner_suite()
        .iter()
        .find(|q| q.name == "filter-wide")
        .unwrap()
        .sql;
    let warm = cctx.clone().with_cache_reads(true);
    for _ in 0..3 {
        if on_disk() {
            break;
        }
        execute_sql(&warm, &t.orders, sql, Strategy::Baseline).unwrap();
    }
    assert!(on_disk(), "every orders partition disk-resident");

    let (_, candidates) = lower(&cctx, &t.orders, &parse_query(sql).unwrap()).unwrap();
    let (_, cached) = candidates
        .into_iter()
        .find(|(n, _)| *n == "cached-local")
        .unwrap();
    let ran = plan::execute(&cctx.scoped(), &cached).unwrap();
    fn leaf(op: &OpReport) -> Option<&OpReport> {
        match op.label.starts_with("CachedScan[") {
            true => Some(op),
            false => op.children.iter().find_map(leaf),
        }
    }
    let leaf = leaf(&ran.report).expect("cached-local has a cached leaf");
    let s = leaf.actual;
    assert!(s.disk_bytes > 0, "the leaf hit the disk tier: {s:?}");
    let scanned: u64 = (leaf.children.iter())
        .map(|node| {
            let (_, rest) = node.label.split_once(": ").expect("an Exchange label");
            let (bytes, _) = rest.split_once(" B scanned").expect("an Exchange label");
            bytes.parse::<u64>().unwrap()
        })
        .sum();
    assert!(leaf.children.len() > 1, "{:?}", leaf.children);
    assert_eq!(scanned, s.cache_bytes + s.disk_bytes + s.plain_bytes);
}

/// The first node of `tree` that `is` picks, depth first.
fn find<'a>(tree: &'a PlanNode, is: &dyn Fn(&PlanOp) -> bool) -> Option<&'a PlanNode> {
    if is(&tree.op) {
        return Some(tree);
    }
    tree.children.iter().find_map(|c| find(c, is))
}

/// Per-node requests of `tree` run on a fresh 4-node cluster, and its
/// bill, held to Σ node ledgers.
fn requests_per_node(ctx: &QueryContext, tree: &PlanNode) -> Vec<u64> {
    let cctx = ctx.clone().with_nodes(4);
    let cluster = cctx.cluster.clone().unwrap();
    let qctx = cctx.scoped();
    let out = plan::execute(&qctx, tree).unwrap();
    assert_eq!(out.metrics.usage(), qctx.billed(), "usage == billed");
    assert_eq!(
        cluster.total_usage(),
        qctx.billed(),
        "Σ node ledgers == billed"
    );
    let snapshots = cluster.snapshots();
    snapshots.iter().map(|ns| ns.usage.requests).collect()
}

/// The statements an operator issues itself run on the owning nodes
/// too: the `s3-side` group-by's CASE-WHEN statements bill more than one
/// node ledger (the node requests of the whole plan less those of its
/// distinct-groups child), and so does the sampling top-K's striped
/// sample at the §VII-B size (taken even though the catalog's tails hold
/// the threshold) — each with Σ node ledgers == billed.
#[test]
fn case_when_statements_and_samples_bill_the_owning_nodes() {
    let (ctx, t) = tpch_context(0.003, 1_200).unwrap();
    let candidate = |name: &str, table: &Table, sql: &str| {
        let (_, candidates) = lower(&ctx, table, &parse_query(sql).unwrap()).unwrap();
        let found = candidates.into_iter().find(|(n, _)| *n == name);
        found.expect("the shape has the candidate").1
    };
    let sql_of = |name: &str| planner_suite().iter().find(|q| q.name == name).unwrap().sql;

    let s3_side = candidate("s3-side", &t.orders, sql_of("groupby-uniform"));
    let is_case_when = |op: &PlanOp| matches!(op, PlanOp::CaseWhen { .. });
    let case_when = find(&s3_side, &is_case_when).expect("s3-side is a CASE-WHEN");
    let whole = requests_per_node(&ctx, case_when);
    let groups = requests_per_node(&ctx, &case_when.children[0]);
    let statements: Vec<u64> = whole.iter().zip(&groups).map(|(w, g)| w - g).collect();
    let billed = statements.iter().filter(|&&n| n > 0).count();
    assert!(billed > 1, "CASE-WHEN statements billed {statements:?}");

    let mut sampling = candidate("sampling", &t.lineitem, sql_of("topk-100"));
    Tune::SampleSize(sample_size(&t.lineitem, 100)).apply(&mut sampling);
    let is_sample = |op: &PlanOp| {
        matches!(
            op,
            PlanOp::Scan {
                source: ScanSource::Select(Some(_)),
                ..
            }
        )
    };
    let sample = find(&sampling, &is_sample).expect("sampling has a sample leaf");
    let sampled = requests_per_node(&ctx, sample);
    let billed = sampled.iter().filter(|&&n| n > 0).count();
    assert!(billed > 1, "the sample billed {sampled:?}");
}

/// `CHAOS_SEED_BASE` (CI matrix) selects the seed window, as in
/// `tests/chaos.rs`; 0 by default.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Chaos outcome of one run on the cluster.
fn chaos_run(
    cctx: &QueryContext,
    t: &TpchTables,
    q: &PlannerQuery,
    salt: u64,
) -> Result<pushdowndb::core::QueryOutput, pushdowndb::common::Error> {
    execute_sql(
        &cctx.scoped_with_salt(salt),
        (q.table)(t),
        q.sql,
        Strategy::Pushdown,
    )
}

/// Node-failure chaos on every suite shape spread over four nodes: under
/// a seeded fault plan each node draws its own fault stream
/// (`Cluster::node_salt`), and a successful query is row-identical to
/// the fault-free run with every byte billed exactly once — retries only
/// ever add requests. Failures surface as retryable faults carrying
/// their seed. Six seeds from `CHAOS_SEED_BASE`; the pinned seeds are
/// regression anchors that demonstrably retry.
#[test]
fn node_failure_chaos_never_double_bills_scattered_queries() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let cctx = ctx
        .clone()
        .with_nodes(4)
        .with_retry(RetryPolicy::with_attempts(8));
    let base = seed_base();
    let mut retried = 0u32;
    for q in &planner_suite() {
        ctx.store.set_fault_plan(None);
        let clean = chaos_run(&cctx, &t, q, 7).unwrap();
        for seed in base..base + 6 {
            ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.3)));
            let what = format!("{} seed {seed}", q.name);
            match chaos_run(&cctx, &t, q, 7) {
                Ok(out) => {
                    assert_eq!(out.rows, clean.rows, "{what}: rows");
                    assert_eq!(
                        out.metrics.usage(),
                        out.billed,
                        "{what}: metrics == ledger across retries"
                    );
                    assert_eq!(
                        out.billed.select_scanned_bytes, clean.billed.select_scanned_bytes,
                        "{what}: scans bill once"
                    );
                    assert_eq!(
                        out.billed.select_returned_bytes, clean.billed.select_returned_bytes,
                        "{what}: returns bill once"
                    );
                    assert_eq!(
                        out.billed.plain_bytes, clean.billed.plain_bytes,
                        "{what}: plain bytes bill once"
                    );
                    assert!(
                        out.billed.requests >= clean.billed.requests,
                        "{what}: retries are extra requests"
                    );
                    if out.billed.requests > clean.billed.requests {
                        retried += 1;
                    }
                }
                Err(e) => {
                    assert!(e.is_retryable(), "{what}: {e}");
                    assert!(e.to_string().contains("seed="), "{what}: {e}");
                }
            }
        }
    }
    assert!(retried > 0, "no seed caused a retried run");
    ctx.store.set_fault_plan(None);

    // Pinned regression seeds: each retries at least once and still
    // returns the exact fault-free rows. Replay: FaultPlan::new(seed,
    // 0.45), salt 7, 4 nodes, Pushdown.
    let q = join_suite()[0];
    let clean = chaos_run(&cctx, &t, &q, 7).unwrap();
    for seed in [1u64, 3] {
        ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.45)));
        let out = chaos_run(&cctx, &t, &q, 7).unwrap_or_else(|e| panic!("pinned seed {seed}: {e}"));
        assert_eq!(out.rows, clean.rows, "pinned seed {seed}");
        assert!(
            out.billed.requests > clean.billed.requests,
            "pinned seed {seed}: expected a retried attempt ({} vs {})",
            out.billed.requests,
            clean.billed.requests
        );
        assert_eq!(
            out.billed.select_scanned_bytes, clean.billed.select_scanned_bytes,
            "pinned seed {seed}: no scan double-billing"
        );
    }
    ctx.store.set_fault_plan(None);

    // Determinism: same (seed, salt) ⇒ same outcome on a rerun.
    ctx.store.set_fault_plan(Some(FaultPlan::new(2, 0.3)));
    let a = chaos_run(&cctx, &t, &q, 9).map(|o| (o.rows, o.billed));
    let b = chaos_run(&cctx, &t, &q, 9).map(|o| (o.rows, o.billed));
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(x, y, "seed 2 salt 9 reruns diverged"),
        (Err(x), Err(y)) => assert_eq!(x.code(), y.code()),
        (x, y) => panic!("seed 2 salt 9: outcome flipped: {x:?} vs {y:?}"),
    }
    ctx.store.set_fault_plan(None);
}
