//! The Fig 10 TPC-H suite against an oracle that is not the engine.
//!
//! `tpch::queries` holds no second implementation of the six queries any
//! more — they are statements the planner lowers — so "baseline ≡
//! pushdown" alone would compare the planner with itself. Here every
//! answer is computed by plain iteration over the generator's rows
//! (`TpchGen`; no `pushdown_core` call), and every strategy on both
//! storage formats is held to it.
//!
//! The scale is SF 0.02: the smallest round scale at which Q17's and
//! Q19's joins are not empty (both return `NULL` at SF ≤ 0.01, which is
//! every other test's scale). The oracle asserts the row counts that make
//! the two queries mean something before it hands the answers out.

use pushdowndb::common::date::parse_date;
use pushdowndb::common::pricing::Usage;
use pushdowndb::common::{Row, Value};
use pushdowndb::core::{upload_columnar_table, QueryContext, QueryMetrics, Strategy};
use pushdowndb::format::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::tpch::{tpch_context, TpchGen, TpchTables, SUITE};
use std::collections::{BTreeMap, HashMap, HashSet};

const SF: f64 = 0.02;
const ROWS_PER_PARTITION: usize = 20_000;

fn assert_rows_close(a: &[Row], b: &[Row], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.len(), y.len(), "{what}: row widths differ");
        for (vx, vy) in x.values().iter().zip(y.values()) {
            match (vx, vy) {
                (Value::Float(fx), Value::Float(fy)) => assert!(
                    (fx - fy).abs() <= 1e-6 * (1.0 + fx.abs().max(fy.abs())),
                    "{what}: {fx} vs {fy}"
                ),
                _ => assert_eq!(vx, vy, "{what}"),
            }
        }
    }
}

// Column positions in the generator's rows (`tpch::schema`).
const C_CUSTKEY: usize = 0;
const C_MKTSEGMENT: usize = 6;
const O_ORDERKEY: usize = 0;
const O_CUSTKEY: usize = 1;
const O_ORDERDATE: usize = 4;
const O_SHIPPRIORITY: usize = 7;
const L_ORDERKEY: usize = 0;
const L_PARTKEY: usize = 1;
const L_QUANTITY: usize = 4;
const L_EXTENDEDPRICE: usize = 5;
const L_DISCOUNT: usize = 6;
const L_TAX: usize = 7;
const L_RETURNFLAG: usize = 8;
const L_LINESTATUS: usize = 9;
const L_SHIPDATE: usize = 10;
const L_SHIPINSTRUCT: usize = 13;
const L_SHIPMODE: usize = 14;
const P_PARTKEY: usize = 0;
const P_BRAND: usize = 3;
const P_TYPE: usize = 4;
const P_SIZE: usize = 5;
const P_CONTAINER: usize = 6;

fn f(r: &Row, c: usize) -> f64 {
    r[c].as_f64().unwrap()
}

fn i(r: &Row, c: usize) -> i64 {
    r[c].as_i64().unwrap()
}

fn s(r: &Row, c: usize) -> &str {
    r[c].as_str().unwrap()
}

fn day(r: &Row, c: usize) -> i32 {
    match r[c] {
        Value::Date(d) => d,
        ref other => panic!("expected a date, found {other:?}"),
    }
}

fn date(text: &str) -> i32 {
    parse_date(text).unwrap()
}

fn revenue(l: &Row) -> f64 {
    f(l, L_EXTENDEDPRICE) * (1.0 - f(l, L_DISCOUNT))
}

/// The six answers, in `SUITE` order, by plain iteration.
fn oracle(gen: &TpchGen) -> Vec<Vec<Row>> {
    let (_, customers) = gen.customers();
    let (_, orders) = gen.orders();
    let (_, lines) = gen.lineitems(&orders);
    let (_, parts) = gen.parts();
    let parts_by_key: HashMap<i64, &Row> = parts.iter().map(|p| (i(p, P_PARTKEY), p)).collect();

    // Q1.
    let mut groups: BTreeMap<(String, String), ([f64; 5], i64)> = BTreeMap::new();
    for l in lines
        .iter()
        .filter(|l| day(l, L_SHIPDATE) <= date("1998-09-02"))
    {
        let key = (
            s(l, L_RETURNFLAG).to_string(),
            s(l, L_LINESTATUS).to_string(),
        );
        let (sums, count) = groups.entry(key).or_default();
        sums[0] += f(l, L_QUANTITY);
        sums[1] += f(l, L_EXTENDEDPRICE);
        sums[2] += revenue(l);
        sums[3] += revenue(l) * (1.0 + f(l, L_TAX));
        sums[4] += f(l, L_DISCOUNT);
        *count += 1;
    }
    let q1 = groups
        .into_iter()
        .map(|((flag, status), (sums, count))| {
            let n = count as f64;
            let mut row = vec![Value::Str(flag), Value::Str(status)];
            row.extend(sums[..4].iter().map(|v| Value::Float(*v)));
            row.extend([sums[0] / n, sums[1] / n, sums[4] / n].map(Value::Float));
            row.push(Value::Int(count));
            Row::new(row)
        })
        .collect();

    // Q3.
    let building: HashSet<i64> = customers
        .iter()
        .filter(|c| s(c, C_MKTSEGMENT) == "BUILDING")
        .map(|c| i(c, C_CUSTKEY))
        .collect();
    let open_orders: HashMap<i64, &Row> = orders
        .iter()
        .filter(|o| day(o, O_ORDERDATE) < date("1995-03-15"))
        .filter(|o| building.contains(&i(o, O_CUSTKEY)))
        .map(|o| (i(o, O_ORDERKEY), o))
        .collect();
    let mut by_order: HashMap<i64, f64> = HashMap::new();
    for l in lines
        .iter()
        .filter(|l| day(l, L_SHIPDATE) > date("1995-03-15"))
        .filter(|l| open_orders.contains_key(&i(l, L_ORDERKEY)))
    {
        *by_order.entry(i(l, L_ORDERKEY)).or_default() += revenue(l);
    }
    let mut ranked: Vec<(i64, f64)> = by_order.into_iter().collect();
    ranked.sort_by(|a, b| {
        let dates = |k: &i64| day(open_orders[k], O_ORDERDATE);
        (b.1.total_cmp(&a.1)).then(dates(&a.0).cmp(&dates(&b.0)))
    });
    ranked.truncate(10);
    let q3: Vec<Row> = ranked
        .into_iter()
        .map(|(key, rev)| {
            let o = open_orders[&key];
            Row::new(vec![
                Value::Int(key),
                o[O_ORDERDATE].clone(),
                o[O_SHIPPRIORITY].clone(),
                Value::Float(rev),
            ])
        })
        .collect();
    assert_eq!(q3.len(), 10, "Q3 fills its LIMIT at this scale");

    // Q6.
    let q6: f64 = lines
        .iter()
        .filter(|l| (date("1994-01-01")..date("1995-01-01")).contains(&day(l, L_SHIPDATE)))
        .filter(|l| (0.05..=0.07).contains(&f(l, L_DISCOUNT)) && f(l, L_QUANTITY) < 24.0)
        .map(|l| f(l, L_EXTENDEDPRICE) * f(l, L_DISCOUNT))
        .sum();

    // Q14.
    let (mut promo, mut total) = (0.0, 0.0);
    for l in lines
        .iter()
        .filter(|l| (date("1995-09-01")..date("1995-10-01")).contains(&day(l, L_SHIPDATE)))
    {
        let part = parts_by_key[&i(l, L_PARTKEY)];
        total += revenue(l);
        if s(part, P_TYPE).starts_with("PROMO") {
            promo += revenue(l);
        }
    }

    // Q17.
    let boxes: HashSet<i64> = parts
        .iter()
        .filter(|p| s(p, P_BRAND) == "Brand#23" && s(p, P_CONTAINER) == "MED BOX")
        .map(|p| i(p, P_PARTKEY))
        .collect();
    let mut quantity: HashMap<i64, (f64, f64)> = HashMap::new();
    for l in lines.iter().filter(|l| boxes.contains(&i(l, L_PARTKEY))) {
        let (sum, n) = quantity.entry(i(l, L_PARTKEY)).or_default();
        *sum += f(l, L_QUANTITY);
        *n += 1.0;
    }
    let small: Vec<&Row> = lines
        .iter()
        .filter(|l| {
            let mean = quantity.get(&i(l, L_PARTKEY)).map(|(sum, n)| sum / n);
            mean.is_some_and(|mean| f(l, L_QUANTITY) < 0.2 * mean)
        })
        .collect();
    // 2 of the 4 000 parts are Brand#23 MED BOX, 62 lineitems order them,
    // 2 of those fall under a fifth of their part's mean quantity.
    let ordered: f64 = quantity.values().map(|(_, n)| n).sum();
    assert_eq!(
        (parts.len(), boxes.len(), ordered, small.len()),
        (4_000, 2, 62.0, 2),
        "Q17 is not vacuous"
    );
    let q17 = small.iter().map(|l| f(l, L_EXTENDEDPRICE)).sum::<f64>() / 7.0;

    // Q19.
    let clause = |l: &Row, p: &Row, brand: &str, containers: [&str; 4], qty: f64, size: i64| {
        s(p, P_BRAND) == brand
            && containers.contains(&s(p, P_CONTAINER))
            && (qty..=qty + 10.0).contains(&f(l, L_QUANTITY))
            && (1..=size).contains(&i(p, P_SIZE))
    };
    let small_boxes = ["SM CASE", "SM BOX", "SM PACK", "SM PKG"];
    let medium_boxes = ["MED BAG", "MED BOX", "MED PKG", "MED PACK"];
    let large_boxes = ["LG CASE", "LG BOX", "LG PACK", "LG PKG"];
    let matched: Vec<&Row> = lines
        .iter()
        .filter(|l| ["AIR", "REG AIR"].contains(&s(l, L_SHIPMODE)))
        .filter(|l| s(l, L_SHIPINSTRUCT) == "DELIVER IN PERSON")
        .filter(|l| {
            let p = parts_by_key[&i(l, L_PARTKEY)];
            clause(l, p, "Brand#12", small_boxes, 1.0, 5)
                || clause(l, p, "Brand#23", medium_boxes, 10.0, 10)
                || clause(l, p, "Brand#34", large_boxes, 20.0, 15)
        })
        .collect();
    // 2 of the 119 900 lineitems survive the join and the disjunction.
    assert_eq!(
        (lines.len(), matched.len()),
        (119_900, 2),
        "Q19 is not vacuous"
    );
    let q19: f64 = matched.iter().map(|l| revenue(l)).sum();

    let scalar = |v: f64| vec![Row::new(vec![Value::Float(v)])];
    vec![
        q1,
        q3,
        scalar(q6),
        scalar(100.0 * promo / total),
        scalar(q17),
        scalar(q19),
    ]
}

/// The dataset as ColumnarLite objects, all eight tables.
fn columnar_context(gen: TpchGen) -> (QueryContext, TpchTables) {
    let store = S3Store::new();
    let up = |name: &str, (schema, rows): (pushdowndb::common::Schema, Vec<Row>)| {
        let options = WriterOptions::default();
        upload_columnar_table(
            &store,
            "tpch",
            name,
            &schema,
            &rows,
            ROWS_PER_PARTITION,
            options,
        )
        .unwrap()
    };
    let (orders_schema, orders) = gen.orders();
    let tables = TpchTables {
        customer: up("customer", gen.customers()),
        lineitem: up("lineitem", gen.lineitems(&orders)),
        orders: up("orders", (orders_schema, orders)),
        part: up("part", gen.parts()),
        supplier: up("supplier", gen.suppliers()),
        partsupp: up("partsupp", gen.partsupps()),
        nation: up("nation", gen.nations()),
        region: up("region", gen.regions()),
        scale_factor: gen.scale_factor,
    };
    (QueryContext::new(store), tables)
}

fn hold_to_oracle(ctx: &QueryContext, t: &TpchTables, what: &str) {
    let want = oracle(&TpchGen::new(SF));
    for (q, want) in SUITE.iter().zip(&want) {
        for strategy in [Strategy::Baseline, Strategy::Pushdown, Strategy::Adaptive] {
            let what = format!("{} {strategy:?} on {what}", q.name);
            let (out, explain) = q.run(ctx, t, strategy).unwrap();
            assert_rows_close(&out.rows, want, &what);
            assert_eq!(out.metrics.usage(), out.billed, "{what}: usage == billed");
            assert!(explain.operators.is_some(), "{what}: ran as a plan tree");
        }
    }
    // Non-NULL and positive where every smaller scale returns NULL.
    for answer in [&want[4], &want[5]] {
        assert!(answer[0][0].as_f64().unwrap() > 0.0, "{answer:?}");
    }
    hold_to_predictions(ctx, t, what);
}

/// Each phase group's labels, in order.
fn phase_labels(metrics: &QueryMetrics) -> Vec<Vec<&str>> {
    metrics
        .groups
        .iter()
        .map(|g| g.phases.iter().map(|p| p.label.as_str()).collect())
        .collect()
}

/// One phase rule for the pricer and the executor on the paper's own six
/// queries, the composed Q14 and Q17 included: wherever a run carries the
/// prediction of the plan it ran — under Adaptive, and on a cluster of
/// four nodes under every strategy — its predicted phases are the
/// executed ones, group for group and label for label (and the cluster's
/// answers are the oracle's).
fn hold_to_predictions(ctx: &QueryContext, t: &TpchTables, what: &str) {
    let want = oracle(&TpchGen::new(SF));
    let cluster = ctx.clone().with_nodes(4);
    let runs = [
        (ctx, Strategy::Adaptive),
        (&cluster, Strategy::Baseline),
        (&cluster, Strategy::Pushdown),
        (&cluster, Strategy::Adaptive),
    ];
    for (q, want) in SUITE.iter().zip(&want) {
        for (ctx, strategy) in runs {
            let nodes = if ctx.cluster.is_some() { 4 } else { 1 };
            let what = format!("{} {strategy:?} on {what}, {nodes} node(s)", q.name);
            let (out, explain) = q.run(ctx, t, strategy).unwrap();
            assert_rows_close(&out.rows, want, &what);
            let predicted = explain
                .predicted
                .as_ref()
                .expect("the run carries its prediction");
            assert_eq!(
                phase_labels(predicted),
                phase_labels(&out.metrics),
                "{what}: predicted vs executed phases"
            );
        }
    }
}

#[test]
fn every_strategy_matches_the_oracle_on_csv() {
    let (ctx, t) = tpch_context(SF, ROWS_PER_PARTITION).unwrap();
    hold_to_oracle(&ctx, &t, "CSV");
}

#[test]
fn every_strategy_matches_the_oracle_on_columnar() {
    let (ctx, t) = columnar_context(TpchGen::new(SF));
    hold_to_oracle(&ctx, &t, "ColumnarLite");
}

/// Q6's one `SUM(l_extendedprice * l_discount)` is a scalar aggregate
/// over a Project over a whole Select leaf: the engine folds it, the
/// Project is the engine's, and the pricer predicts what the run bills
/// and the CPU units it charges, phase by phase — on both formats,
/// serial and on four nodes.
#[test]
fn q6s_pushed_sum_is_priced_as_it_runs() {
    let q6 = SUITE[2];
    assert_eq!(q6.name, "TPCH Q6");
    let gen = || TpchGen::new(0.005);
    let csv = tpch_context(0.005, 5_000).unwrap();
    for (format, (ctx, t)) in [("CSV", csv), ("ColumnarLite", columnar_context(gen()))] {
        // A serial run carries its prediction under Adaptive, which picks
        // the pushed aggregate here; a cluster's under every strategy.
        for (nodes, strategy) in [(1, Strategy::Adaptive), (4, Strategy::Pushdown)] {
            let ctx = ctx.clone().with_nodes(nodes);
            let what = format!("Q6 {strategy:?} on {format}, {nodes} node(s)");
            let (out, explain) = q6.run(&ctx, &t, strategy).unwrap();
            let ops = explain.operators.as_ref().expect("a plan tree");
            assert!(ops.label.starts_with("Aggregate["), "{what}: {}", ops.label);
            let scan = &ops.children[0].children[0];
            assert!(
                scan.label.starts_with("PushdownScan["),
                "{what}: {}",
                scan.label
            );
            let predicted = explain.predicted.expect("the run carries its prediction");
            let units = |m: &QueryMetrics| -> Vec<(String, u64)> {
                let phases = m.groups.iter().flat_map(|g| &g.phases);
                phases
                    .map(|p| (p.label.clone(), p.stats.server_cpu_units))
                    .collect()
            };
            assert_eq!(units(&predicted), units(&out.metrics), "{what}: CPU units");
            // The returned bytes are the one estimate: the partial rows'
            // widths, which only the run knows.
            let executed = out.metrics.usage();
            let predicted = Usage {
                select_returned_bytes: executed.select_returned_bytes,
                ..predicted.usage()
            };
            assert_eq!(predicted, executed, "{what}: usage");
            assert_eq!(out.metrics.usage(), out.billed, "{what}: billed");
        }
    }
}
