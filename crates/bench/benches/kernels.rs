//! Row-vs-columnar kernel benchmarks. These are the measurements behind
//! the vectorized execution path's acceptance bar (the columnar filter
//! and top-K kernels the scan workers run, against their row twins). `PerfParams::parse_cl_bw` was
//! calibrated once from the `decode` group (PR 6, against the CSV reader
//! of the time) and is frozen — see its doc comment before reading a
//! new constant off these numbers.
//!
//!
//! The run ends with seven gates, each on time *ratios* measured within
//! this one run, never on a raw time: the projected CSV decode (see
//! [`csv_projected_gate`]), the Bloom probe (see [`bloom_probe_gate`]),
//! the local scan's hand-off cost (see [`filter_discard_gate`]), the
//! planned join against its materializing replay (see
//! [`join_q12_gate`]), a join's matches folded into its group-by
//! against the materializing operators (see [`join_fold_gate`]), a
//! ColumnarLite Select against decoding its chunks into values (see
//! [`threshold_select_gate`]) and a group-by's scan leaf folding in its
//! worker against shipping rows to a consumer-side fold (see
//! [`group_leaf_gate`]). A top-K scan leaf against the row path it
//! replaced is measured, not gated (see [`bench_topk_leaf`]).
//!
//! Run with `cargo bench --bench kernels -p pushdown-bench`.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use pushdown_bloom::BloomFilter;
use pushdown_common::columnar::ColumnarBatch;
use pushdown_common::{DataType, Row, Schema, Value};
use pushdown_core::planner::run_candidate;
use pushdown_core::scan::{plain_scan, scan, ScanSource};
use pushdown_core::{
    execute_sql, ops, upload_columnar_table, upload_csv_table, QueryContext, Strategy, Table,
};
use pushdown_format::columnar::{encode_columnar, ColumnarReader, WriterOptions};
use pushdown_format::csv::{decode_csv, encode_csv, CsvReader};
use pushdown_s3::S3Store;
use pushdown_select::{Executor, InputFormat, Object, S3SelectEngine};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::bind::{Binder, BoundExpr, BoundSelect};
use pushdown_sql::vector::{Filter, RowExpr};
use pushdown_sql::{parse_expr, parse_select, SelectStmt};
use pushdown_tpch::TpchGen;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 20_000;

fn sample_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("name", DataType::Str),
        ("bal", DataType::Float),
        ("d", DataType::Date),
    ])
}

/// Dictionary-eligible strings, a few NULLs, numeric spread.
fn sample_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Str(format!("Customer#{:04}", i % 200)),
                if i % 53 == 52 {
                    Value::Null
                } else {
                    Value::Float((i as f64 * 37.5) % 10000.0 - 999.0)
                },
                Value::Date(8000 + (i % 2000) as i32),
            ])
        })
        .collect()
}

fn encoded() -> Vec<u8> {
    encode_columnar(
        &sample_schema(),
        &sample_rows(N),
        WriterOptions {
            rows_per_group: 4096,
            compress: true,
        },
    )
}

fn batch() -> ColumnarBatch {
    ColumnarBatch::from_rows(&sample_schema(), &sample_rows(N))
}

/// ColumnarLite decode: straight-to-columns vs materializing rows, with
/// CSV row decode and encode alongside.
fn bench_decode(c: &mut Criterion) {
    let schema = sample_schema();
    let rows = sample_rows(N);
    let cl = encoded();
    let csv = encode_csv(&schema, &rows);

    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Bytes(cl.len() as u64));
    g.bench_function("columnar_to_batches", |b| {
        b.iter_batched(
            || bytes::Bytes::from(cl.clone()),
            |data| {
                let r = ColumnarReader::open(data).unwrap();
                let mut total = 0usize;
                for gi in 0..r.num_row_groups() {
                    total += r.read_group_batch(gi).unwrap().len();
                }
                black_box(total)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("columnar_to_rows", |b| {
        b.iter_batched(
            || bytes::Bytes::from(cl.clone()),
            |data| {
                let r = ColumnarReader::open(data).unwrap();
                black_box(r.read_all().unwrap())
            },
            BatchSize::SmallInput,
        )
    });
    g.throughput(Throughput::Bytes(csv.len() as u64));
    g.bench_function("csv_to_rows", |b| {
        b.iter(|| black_box(decode_csv(&csv, &schema).unwrap()))
    });
    g.bench_function("csv_encode", |b| {
        b.iter(|| black_box(encode_csv(&schema, &rows)))
    });
    g.finish();
}

/// `f` with its result thrown away where the optimizer cannot see: a run
/// for [`fastest_rounds`].
fn discarding<T>(f: impl Fn() -> T) -> impl Fn() {
    move || {
        black_box(f());
    }
}

/// The fastest of `rounds` timings of each of `runs`, taken in
/// interleaved rounds, so a host that slows down mid-run slows all of
/// them alike: what every gate below compares.
fn fastest_rounds<const N: usize>(rounds: usize, runs: [&dyn Fn(); N]) -> [f64; N] {
    let mut best = [f64::MAX; N];
    for _ in 0..rounds {
        for (slot, run) in best.iter_mut().zip(runs) {
            let start = Instant::now();
            run();
            *slot = slot.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

/// `lineitem` as CSV partitions (TPC-H SF 0.01, 1 500 rows each) decoded
/// three ways: every column into rows (what `decode_csv`, `SELECT *` and
/// the identity scans pay), and the three columns `filter-selective`
/// references — `l_orderkey`, `l_extendedprice`, `l_shipdate` — into a
/// reused sparse row (the Select engine's scan) and into column vectors
/// (the local scan's).
struct CsvProjected {
    schema: Schema,
    parts: Vec<Vec<u8>>,
    needed: Vec<usize>,
    bytes: u64,
}

impl CsvProjected {
    fn new() -> Self {
        let gen = TpchGen::new(0.01);
        let orders = gen.orders();
        let (schema, rows) = gen.lineitems(&orders.1);
        let parts: Vec<Vec<u8>> = rows.chunks(1500).map(|c| encode_csv(&schema, c)).collect();
        let mut needed: Vec<usize> = ["l_orderkey", "l_extendedprice", "l_shipdate"]
            .iter()
            .map(|c| schema.resolve(c).unwrap())
            .collect();
        needed.sort_unstable();
        let probe = CsvProjected {
            bytes: parts.iter().map(|p| p.len() as u64).sum(),
            schema,
            parts,
            needed,
        };
        assert_eq!(probe.full_rows(), rows.len());
        assert_eq!(probe.sparse_rows(), rows.len());
        assert_eq!(probe.column_vectors(), rows.len());
        probe
    }

    fn reader<'a>(&self, part: &'a [u8]) -> CsvReader<'a> {
        CsvReader::with_header(part, self.schema.clone()).project(&self.needed)
    }

    fn full_rows(&self) -> usize {
        let rows = |part: &Vec<u8>| decode_csv(part, &self.schema).unwrap().len();
        self.parts.iter().map(rows).sum()
    }

    fn sparse_rows(&self) -> usize {
        let mut row = Row::new(vec![Value::Null; self.schema.len()]);
        let mut rows = 0;
        for part in &self.parts {
            let mut reader = self.reader(part);
            while let Some(read) = reader.read_into(&mut row) {
                read.unwrap();
                rows += 1;
            }
        }
        rows
    }

    fn column_vectors(&self) -> usize {
        let mut rows = 0;
        for part in &self.parts {
            let mut reader = self.reader(part);
            while let Some(batch) = reader.read_columns(1024) {
                rows += black_box(batch.unwrap()).len();
            }
        }
        rows
    }
}

fn bench_csv_projected(c: &mut Criterion) {
    let probe = CsvProjected::new();
    let mut g = c.benchmark_group("decode/csv_projected");
    g.throughput(Throughput::Bytes(probe.bytes));
    g.bench_function("full_rows", |b| b.iter(|| probe.full_rows()));
    g.bench_function("sparse_rows_3_of_16", |b| b.iter(|| probe.sparse_rows()));
    g.bench_function("column_vectors_3_of_16", |b| {
        b.iter(|| probe.column_vectors())
    });
    g.finish();
}

/// Fails the run unless decoding three of `lineitem`'s sixteen columns
/// into column vectors takes at most 0.65× decoding all of them into rows
/// (sized at 0.32–0.36): what a projecting scan skips — thirteen fields'
/// parsing and `String`s, the row `Vec` — must stay skipped. Interleaved
/// rounds, fastest round of each, as in [`bloom_probe_gate`].
fn csv_projected_gate() -> Result<(), String> {
    let probe = CsvProjected::new();
    let [full, vectors] = fastest_rounds(
        9,
        [
            &discarding(|| probe.full_rows()),
            &discarding(|| probe.column_vectors()),
        ],
    );
    let ratio = vectors / full;
    println!(
        "decode/csv_projected gate: 3 of 16 columns into vectors take {ratio:.2}x the full \
         decode into rows (must be <= 0.65)"
    );
    if ratio > 0.65 {
        return Err(format!(
            "decoding 3 of lineitem's 16 CSV columns into column vectors takes {ratio:.2}x \
             decoding all 16 into rows: the projected decode is paying for fields it skips"
        ));
    }
    Ok(())
}

/// The Bloom-join probe of paper Listing 1 as S3 Select runs it: one
/// Select request over the 20k-row CSV object whose `WHERE` is
/// `SUBSTRING('<bits>', h(k), 1) = '1'` per hash function. The same rows
/// are probed with a 2 Ki-bit and a 32 Ki-bit literal, both at the
/// engine's default 1 % geometry (seven hash functions, ten bits per key,
/// so both are half full and a row runs through as many conjuncts in
/// either), beside a plain `k < literal` scan of the same selectivity.
struct BloomProbe {
    engine: S3SelectEngine,
    schema: Schema,
    plain: String,
    bloom_2k: String,
    bloom_32k: String,
}

impl BloomProbe {
    /// Keys are multiples of this; about 200 of them are below `N`.
    const KEY_STRIDE: i64 = 97;

    fn new() -> Self {
        let schema = sample_schema();
        let store = S3Store::new();
        store.put_object("b", "t.csv", encode_csv(&schema, &sample_rows(N)));
        let sql = |bits: u64| {
            let mut f = BloomFilter::with_geometry(bits, 7, 42);
            for key in 0..bits as i64 / 10 {
                f.insert(key * Self::KEY_STRIDE);
            }
            format!("SELECT k FROM S3Object WHERE {}", f.sql_predicate("k"))
        };
        BloomProbe {
            engine: S3SelectEngine::new(store),
            schema,
            plain: format!(
                "SELECT k FROM S3Object WHERE k < {}",
                N as i64 / Self::KEY_STRIDE
            ),
            bloom_2k: sql(2 * 1024),
            bloom_32k: sql(32 * 1024),
        }
    }

    fn run(&self, sql: &str) -> u64 {
        let resp = self
            .engine
            .select("b", "t.csv", sql, &self.schema, InputFormat::Csv)
            .unwrap();
        resp.stats.records_returned
    }
}

fn bench_bloom_probe(c: &mut Criterion) {
    let probe = BloomProbe::new();
    let mut g = c.benchmark_group("select/bloom_probe");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("plain_lt_20k", |b| b.iter(|| probe.run(&probe.plain)));
    g.bench_function("bloom_2ki_20k", |b| b.iter(|| probe.run(&probe.bloom_2k)));
    g.bench_function("bloom_32ki_20k", |b| b.iter(|| probe.run(&probe.bloom_32k)));
    g.finish();
}

/// Fails the run unless probing costs the same per row whatever the
/// filter's size (32 Ki-bit time < 2× the 2 Ki-bit time) and a Bloom scan
/// keeps at least a fifth of a plain scan's rows/s. The three scans are
/// timed in interleaved rounds and compared by their fastest round, so a
/// host that slows down mid-run slows all three alike.
fn bloom_probe_gate() -> Result<(), String> {
    let probe = BloomProbe::new();
    let [plain, small, large] = fastest_rounds(
        9,
        [
            &discarding(|| probe.run(&probe.plain)),
            &discarding(|| probe.run(&probe.bloom_2k)),
            &discarding(|| probe.run(&probe.bloom_32k)),
        ],
    );
    let size_ratio = large / small;
    let bloom_vs_plain = plain / large;
    println!(
        "select/bloom_probe gate: 32Ki/2Ki time ratio {size_ratio:.2} (must be < 2), \
         Bloom rows/s at {bloom_vs_plain:.2} of the plain scan's (must be >= 0.2)"
    );
    if size_ratio >= 2.0 {
        return Err(format!(
            "a 32 Ki-bit Bloom literal scans {size_ratio:.2}x slower than a 2 Ki-bit one: \
             probing does per-row work proportional to the literal's length"
        ));
    }
    if bloom_vs_plain < 0.2 {
        return Err(format!(
            "the Bloom scan runs at {bloom_vs_plain:.2} of the plain scan's rows/s"
        ));
    }
    Ok(())
}

/// The local scan under a selective filter — `lineitem` as CSV (TPC-H
/// SF 0.01, 1 500 rows per partition), `l_shipdate < 1993-01-01` keeping
/// about one row in nine — two ways: a single-threaded *replay* (GET,
/// `decode_csv`, `filter_rows`, one partition after the other; no pool,
/// no queues) and the fused [`scan`], whose workers run the statement
/// `SELECT * WHERE …` through the Select engine's executor on the
/// partitions they decode and ship only survivors.
struct FilterDiscard {
    ctx: QueryContext,
    table: Table,
    pred: BoundExpr,
    stmt: SelectStmt,
    rows: u64,
}

impl FilterDiscard {
    fn new() -> Self {
        let gen = TpchGen::new(0.01);
        let orders = gen.orders();
        let (schema, rows) = gen.lineitems(&orders.1);
        let store = S3Store::new();
        let table = upload_csv_table(&store, "b", "lineitem", &schema, &rows, 1500).unwrap();
        let pred = Binder::new(&schema)
            .bind_expr(&parse_expr("l_shipdate < DATE '1993-01-01'").unwrap())
            .unwrap();
        FilterDiscard {
            ctx: QueryContext::new(store),
            table,
            pred,
            stmt: parse_select("SELECT * FROM lineitem WHERE l_shipdate < DATE '1993-01-01'")
                .unwrap(),
            rows: rows.len() as u64,
        }
    }

    fn replay(&self) -> usize {
        let store = self.ctx.store.scoped();
        let mut stats = Default::default();
        let mut kept = 0;
        for key in self.table.partitions(&store) {
            let data = store.get_object(&self.table.bucket, &key).unwrap();
            let rows = decode_csv(&data, &self.table.schema).unwrap();
            kept += ops::filter_rows(rows, &self.pred, &mut stats)
                .unwrap()
                .len();
        }
        kept
    }

    fn fused(&self, scan_threads: usize) -> usize {
        let mut ctx = self.ctx.scoped();
        ctx.scan_threads = scan_threads;
        let mut kept = 0;
        scan(
            &ctx,
            &self.table,
            ScanSource::Plain,
            &self.stmt,
            None,
            |batch| {
                kept += batch.len();
                Ok(())
            },
        )
        .unwrap();
        kept
    }
}

fn bench_filter_discard(c: &mut Criterion) {
    let probe = FilterDiscard::new();
    assert_eq!(probe.replay(), probe.fused(2));
    let mut g = c.benchmark_group("scan/filter_discard");
    g.throughput(Throughput::Elements(probe.rows));
    g.bench_function("replay_1_thread", |b| b.iter(|| probe.replay()));
    g.bench_function("fused_scan_1_thread", |b| b.iter(|| probe.fused(1)));
    g.bench_function("fused_scan_2_threads", |b| b.iter(|| probe.fused(2)));
    g.finish();
}

/// Fails the run unless the fused scan on one worker thread takes at
/// most 2× the single-threaded replay of the same bytes: what the pool
/// and the partition queues add must stay small beside decode + filter.
/// (With the filter on the consumer side of the queues the ratio was
/// ~7.) Interleaved rounds, fastest round of each, as in
/// [`bloom_probe_gate`].
fn filter_discard_gate() -> Result<(), String> {
    let probe = FilterDiscard::new();
    let [replay, fused] = fastest_rounds(
        7,
        [
            &discarding(|| probe.replay()),
            &discarding(|| probe.fused(1)),
        ],
    );
    let ratio = fused / replay;
    println!(
        "scan/filter_discard gate: fused scan on one thread takes {ratio:.2}x the \
         single-threaded replay (must be <= 2)"
    );
    if ratio > 2.0 {
        return Err(format!(
            "the fused scan on one thread takes {ratio:.2}x a plain decode + filter of the \
             same partitions: the scan pipeline's hand-off is costing more than the work"
        ));
    }
    Ok(())
}

/// The suite's `join-q12ish` (`orders ⋈ lineitem`, TPC-H SF 0.01, 1 500
/// rows per partition) two ways: a *replay* of the materializing
/// executor — identity-fragment scans of both tables, then `filter_rows`,
/// `hash_join`, `map_rows`, `hash_group_by` and the sort, each over its
/// whole input — and the planner's `baseline` plan, whose leaves decode
/// and ship the needed columns only and whose probe side streams through
/// the join table.
struct JoinQ12 {
    ctx: QueryContext,
    orders: Table,
    lineitem: Table,
    sql: &'static str,
    pred: BoundExpr,
    shipmode: BoundExpr,
    rows: u64,
}

impl JoinQ12 {
    fn new(format: InputFormat) -> Self {
        let gen = TpchGen::new(0.01);
        let (o_schema, orders) = gen.orders();
        let (l_schema, lineitems) = gen.lineitems(&orders);
        let store = S3Store::new();
        let upload = |name: &str, schema: &Schema, rows: &[Row]| {
            match format {
                InputFormat::Columnar => upload_columnar_table(
                    &store,
                    "b",
                    name,
                    schema,
                    rows,
                    1500,
                    WriterOptions {
                        rows_per_group: 4096,
                        compress: true,
                    },
                ),
                _ => upload_csv_table(&store, "b", name, schema, rows, 1500),
            }
            .unwrap()
        };
        let orders_table = upload("orders", &o_schema, &orders);
        let lineitem = upload("lineitem", &l_schema, &lineitems);
        let bind = |schema: &Schema, src: &str| {
            Binder::new(schema)
                .bind_expr(&parse_expr(src).unwrap())
                .unwrap()
        };
        let probe = JoinQ12 {
            ctx: QueryContext::new(store).with_tables([orders_table.clone(), lineitem.clone()]),
            sql: pushdown_tpch::planner_suite()
                .into_iter()
                .find(|q| q.name == "join-q12ish")
                .expect("the suite carries join-q12ish")
                .sql,
            pred: bind(&l_schema, "l_shipdate < DATE '1994-06-01'"),
            shipmode: bind(&o_schema.join(&l_schema), "l_shipmode"),
            rows: (orders.len() + lineitems.len()) as u64,
            orders: orders_table,
            lineitem,
        };
        assert_eq!(probe.replay(), probe.planned());
        probe
    }

    fn replay(&self) -> Vec<Row> {
        let ctx = self.ctx.scoped();
        let orders = plain_scan(&ctx, &self.orders).unwrap();
        let lineitem = plain_scan(&ctx, &self.lineitem).unwrap();
        let mut stats = Default::default();
        let kept = ops::filter_rows(lineitem.rows, &self.pred, &mut stats).unwrap();
        let joined = ops::hash_join(
            orders.rows,
            orders.schema.resolve("o_orderkey").unwrap(),
            kept,
            lineitem.schema.resolve("l_orderkey").unwrap(),
            &mut stats,
        );
        let modes = ops::map_rows(&joined, std::slice::from_ref(&self.shipmode), &mut stats);
        let counts =
            ops::hash_group_by(&modes.unwrap(), &[0], &[(AggFunc::Count, None)], &mut stats);
        ops::sort_rows_by_keys(counts.unwrap(), &[(0, true)], &mut stats)
    }

    fn planned(&self) -> Vec<Row> {
        execute_sql(&self.ctx, &self.orders, self.sql, Strategy::Baseline)
            .unwrap()
            .rows
    }
}

fn bench_join_q12(c: &mut Criterion) {
    let mut g = c.benchmark_group("join/q12_shape");
    for (name, format) in [
        ("columnar", InputFormat::Columnar),
        ("csv", InputFormat::Csv),
    ] {
        let probe = JoinQ12::new(format);
        g.throughput(Throughput::Elements(probe.rows));
        g.bench_function(&format!("replay_{name}"), |b| b.iter(|| probe.replay()));
        g.bench_function(&format!("planned_{name}"), |b| b.iter(|| probe.planned()));
    }
    g.finish();
}

/// Fails the run unless the planned join on ColumnarLite takes at most
/// half the replay's time: the projected leaves and the streamed probe
/// side, not the pool, are what the plan buys (measured 0.25×; with
/// every column kept and every operator materializing the plan took
/// 0.83×, ahead only by running its two scans side by side).
/// Interleaved rounds, fastest round of each, as in
/// [`bloom_probe_gate`].
fn join_q12_gate() -> Result<(), String> {
    let probe = JoinQ12::new(InputFormat::Columnar);
    let [replay, planned] = fastest_rounds(
        7,
        [
            &discarding(|| probe.replay()),
            &discarding(|| probe.planned()),
        ],
    );
    let ratio = planned / replay;
    println!(
        "join/q12_shape gate: the planned join on ColumnarLite takes {ratio:.2}x its \
         materializing replay (must be <= 0.5)"
    );
    if ratio > 0.5 {
        return Err(format!(
            "the planned join-q12ish on ColumnarLite takes {ratio:.2}x a replay that scans \
             every column and materializes every operator: its leaves or its pipeline \
             stopped paying"
        ));
    }
    Ok(())
}

/// `join-q12ish`'s join and group-by (TPC-H SF 0.01) over in-memory rows
/// as its planned leaves deliver them — `o_orderkey` of every order, and
/// `l_orderkey, l_shipmode` of the line items its WHERE keeps — two ways:
/// the materializing operators one after the other (`hash_join`, which
/// builds every joined row, `map_rows` copying `l_shipmode` out of it,
/// `hash_group_by`), and the fold the executor runs for a grouping
/// operator over a join (`HashJoinBuild::probe_each` handing each match
/// to `GroupByAccumulator::update` in place).
struct JoinFold {
    orders: Vec<Row>,
    kept: Vec<Row>,
    /// `l_shipmode` in the joined `build ++ probe` row.
    shipmode: BoundExpr,
}

impl JoinFold {
    fn new() -> Self {
        let gen = TpchGen::new(0.01);
        let (o_schema, orders) = gen.orders();
        let (l_schema, lineitems) = gen.lineitems(&orders);
        let at = |schema: &Schema, c: &str| schema.resolve(c).unwrap();
        let o_key = at(&o_schema, "o_orderkey");
        let (l_key, l_mode) = (at(&l_schema, "l_orderkey"), at(&l_schema, "l_shipmode"));
        let pred = Binder::new(&l_schema)
            .bind_expr(&parse_expr("l_shipdate < DATE '1994-06-01'").unwrap())
            .unwrap();
        let mut stats = Default::default();
        let kept = ops::filter_rows(lineitems, &pred, &mut stats).unwrap();
        let joined = Schema::from_pairs(&[
            ("o_orderkey", DataType::Int),
            ("l_orderkey", DataType::Int),
            ("l_shipmode", DataType::Str),
        ]);
        let probe = JoinFold {
            orders: orders.iter().map(|r| r.project(&[o_key])).collect(),
            kept: kept.iter().map(|r| r.project(&[l_key, l_mode])).collect(),
            shipmode: Binder::new(&joined)
                .bind_expr(&parse_expr("l_shipmode").unwrap())
                .unwrap(),
        };
        assert_eq!(probe.materialized(), probe.folded());
        probe
    }

    fn materialized(&self) -> Vec<Row> {
        let mut stats = Default::default();
        let (orders, kept) = (self.orders.clone(), self.kept.clone());
        let joined = ops::hash_join(orders, 0, kept, 0, &mut stats);
        let modes = ops::map_rows(&joined, std::slice::from_ref(&self.shipmode), &mut stats);
        let count = [(AggFunc::Count, None)];
        ops::hash_group_by(&modes.unwrap(), &[0], &count, &mut stats).unwrap()
    }

    fn folded(&self) -> Vec<Row> {
        let mut stats = Default::default();
        let (orders, kept) = (self.orders.clone(), self.kept.clone());
        let mut table = ops::HashJoinBuild::new(0);
        table.add_batch(orders, &mut stats);
        // `l_shipmode` is column 2 of the `o_orderkey ++ l_orderkey,
        // l_shipmode` match.
        let mut groups = ops::GroupByAccumulator::new(vec![2], vec![(AggFunc::Count, None)]);
        let fold = |l: &Row, r: &Row| groups.update(ops::Input::pair(l, r));
        table.probe_each(&kept, 0, &mut stats, fold).unwrap();
        groups.finish(&mut stats)
    }
}

fn bench_join_fold(c: &mut Criterion) {
    let probe = JoinFold::new();
    let mut g = c.benchmark_group("join/q12_fold");
    g.throughput(Throughput::Elements(probe.kept.len() as u64));
    g.bench_function("materialized", |b| b.iter(|| probe.materialized()));
    g.bench_function("folded", |b| b.iter(|| probe.folded()));
    g.finish();
}

/// Fails the run unless folding the matches takes at most 0.8× the
/// materializing operators' time over the same rows: the joined row and
/// the projection pass it drops must stay dropped (measured
/// 0.39–0.47×). Interleaved rounds, fastest round of each, as in
/// [`bloom_probe_gate`].
fn join_fold_gate() -> Result<(), String> {
    let probe = JoinFold::new();
    let [materialized, folded] = fastest_rounds(
        7,
        [
            &discarding(|| probe.materialized()),
            &discarding(|| probe.folded()),
        ],
    );
    let ratio = folded / materialized;
    println!(
        "join/q12_fold gate: the folded join -> group-by takes {ratio:.2}x the \
         materializing operators (must be <= 0.8)"
    );
    if ratio > 0.8 {
        return Err(format!(
            "folding join-q12ish's matches into its group-by takes {ratio:.2}x hash_join + \
             map_rows + hash_group_by over the same rows: the fold builds rows again"
        ));
    }
    Ok(())
}

/// `topk-100`'s pushed scan on ColumnarLite: `lineitem` (TPC-H SF 0.01,
/// 4 096 rows per row group, as the benchmark loads it) under the
/// catalog threshold the one-phase `sampling` plan ships — `SELECT *
/// WHERE l_extendedprice >= <100th largest> OR CAST(l_extendedprice AS
/// STRING) = 'NaN'` (`plan::threshold_predicate`'s NaN arm) — as one
/// Select request, against decoding every chunk of every row group into
/// `Value`s, which a Select that ran on `Value` rows paid before it
/// evaluated anything.
struct ThresholdSelect {
    engine: S3SelectEngine,
    schema: Schema,
    sql: String,
    object: bytes::Bytes,
}

impl ThresholdSelect {
    fn new() -> Self {
        let gen = TpchGen::new(0.01);
        let orders = gen.orders();
        let (schema, rows) = gen.lineitems(&orders.1);
        let price = schema.resolve("l_extendedprice").unwrap();
        let mut prices: Vec<f64> = rows.iter().map(|r| r[price].as_f64().unwrap()).collect();
        prices.sort_by(|a, b| b.total_cmp(a));
        let opts = WriterOptions {
            rows_per_group: 4096,
            compress: true,
        };
        let object = bytes::Bytes::from(encode_columnar(&schema, &rows, opts));
        let store = S3Store::new();
        store.put_object("b", "lineitem.clt", object.to_vec());
        let probe = ThresholdSelect {
            engine: S3SelectEngine::new(store),
            sql: format!(
                "SELECT * FROM S3Object WHERE l_extendedprice >= {} \
                 OR CAST(l_extendedprice AS STRING) = 'NaN'",
                prices[99]
            ),
            schema,
            object,
        };
        assert!((100..200).contains(&probe.select()));
        assert_eq!(probe.values(), rows.len() * probe.schema.len());
        probe
    }

    fn select(&self) -> u64 {
        let resp = (self.engine)
            .select(
                "b",
                "lineitem.clt",
                &self.sql,
                &self.schema,
                InputFormat::Columnar,
            )
            .unwrap();
        resp.stats.records_returned
    }

    fn values(&self) -> usize {
        let reader = ColumnarReader::open(self.object.clone()).unwrap();
        let mut values = 0;
        for g in 0..reader.num_row_groups() {
            for c in 0..self.schema.len() {
                let column = reader.read_column_vector(g, c).unwrap();
                values += black_box(column.into_values()).len();
            }
        }
        values
    }
}

fn bench_threshold_select(c: &mut Criterion) {
    let probe = ThresholdSelect::new();
    let mut g = c.benchmark_group("select/threshold_columnar");
    g.throughput(Throughput::Bytes(probe.object.len() as u64));
    g.bench_function("select", |b| b.iter(|| probe.select()));
    g.bench_function("decode_to_values", |b| b.iter(|| probe.values()));
    g.finish();
}

/// Fails the run unless the threshold Select takes at most 0.85× decoding
/// the same chunks into `Value`s (sized at 0.56–0.63× on three runs; an
/// executor that decodes into `Value` rows cannot go below 1×, and the
/// one before typed batches measured 1.30×): a Select must decode into
/// typed vectors, filter them, and build rows only for the ~100 it
/// returns. Interleaved rounds, fastest round of each, as in
/// [`bloom_probe_gate`].
fn threshold_select_gate() -> Result<(), String> {
    let probe = ThresholdSelect::new();
    let [select, values] = fastest_rounds(
        7,
        [
            &discarding(|| probe.select()),
            &discarding(|| probe.values()),
        ],
    );
    let ratio = select / values;
    println!(
        "select/threshold_columnar gate: topk-100's threshold Select takes {ratio:.2}x \
         decoding its chunks into values (must be <= 0.85)"
    );
    if ratio > 0.85 {
        return Err(format!(
            "a ColumnarLite Select of topk-100's threshold statement takes {ratio:.2}x \
             decoding the same chunks into Values: the Select is building Value rows"
        ));
    }
    Ok(())
}

/// `topk-100`'s Baseline leaf: `lineitem` as CSV (TPC-H SF 0.01, 1 500
/// rows per partition), `SELECT *` with the `ORDER BY l_extendedprice
/// DESC LIMIT 100` reducer handed down, on one worker thread — the
/// Select engine's executor decoding column vectors and building rows
/// only for the candidates entering a partition's heap — against a
/// replay of the row path it replaced: the same partitions decoded by
/// `CsvReader`'s record iterator into `TopKAccumulator::push_row`, one
/// heap per partition whose candidates the query's heap absorbs.
struct TopKLeaf {
    ctx: QueryContext,
    table: Table,
    stmt: SelectStmt,
    keys: [(usize, bool); 1],
    rows: u64,
}

impl TopKLeaf {
    const K: usize = 100;

    fn new() -> Self {
        let gen = TpchGen::new(0.01);
        let orders = gen.orders();
        let (schema, rows) = gen.lineitems(&orders.1);
        let store = S3Store::new();
        let table = upload_csv_table(&store, "b", "lineitem", &schema, &rows, 1500).unwrap();
        let probe = TopKLeaf {
            ctx: QueryContext::new(store),
            keys: [(schema.resolve("l_extendedprice").unwrap(), false)],
            table,
            stmt: parse_select("SELECT * FROM lineitem").unwrap(),
            rows: rows.len() as u64,
        };
        assert_eq!(probe.replay(), probe.leaf());
        probe
    }

    fn replay(&self) -> Vec<Row> {
        let store = self.ctx.store.scoped();
        let mut stats = Default::default();
        let mut best = ops::TopKAccumulator::new(&self.keys, Self::K);
        for key in self.table.partitions(&store) {
            let data = store.get_object(&self.table.bucket, &key).unwrap();
            let mut heap = ops::TopKAccumulator::new(&self.keys, Self::K);
            for record in CsvReader::with_header(&data, self.table.schema.clone()) {
                heap.push_row(record.unwrap().row, &mut stats);
            }
            best.absorb(heap.into_rows());
        }
        best.finish(&mut stats)
    }

    fn leaf(&self) -> Vec<Row> {
        let mut ctx = self.ctx.scoped();
        ctx.scan_threads = 1;
        let mut best = ops::TopKAccumulator::new(&self.keys, Self::K);
        let reducer = Some((&self.keys[..], Self::K));
        scan(
            &ctx,
            &self.table,
            ScanSource::Plain,
            &self.stmt,
            reducer,
            |batch| {
                best.absorb(batch.rows);
                Ok(())
            },
        )
        .unwrap();
        best.finish(&mut Default::default())
    }
}

/// Measured, not gated: the leaf on one pooled worker runs at about
/// 1.2–1.4x the replay. Decoding into vectors and building rows for the
/// ~370 candidates a partition's heap admits costs what decoding every
/// record into a row costs, and the consumer freeing the rows the worker
/// allocated while that worker runs adds the rest: the same executor fed
/// through a hand-built channel costs it too, and stops costing it when
/// the consumer keeps the rows until the worker is done.
fn bench_topk_leaf(c: &mut Criterion) {
    let probe = TopKLeaf::new();
    let mut g = c.benchmark_group("scan/topk_leaf");
    g.throughput(Throughput::Elements(probe.rows));
    g.bench_function("row_replay", |b| b.iter(|| probe.replay()));
    g.bench_function("leaf_1_thread", |b| b.iter(|| probe.leaf()));
    g.finish();
}

/// `groupby-uniform`'s Baseline leaf: `orders` as CSV (TPC-H SF 0.01,
/// 1 500 rows per partition), `SELECT o_orderpriority, COUNT(*),
/// SUM(o_totalprice) … GROUP BY o_orderpriority` as the planner's
/// `server-side` plan runs it on one worker thread — the Select engine's
/// executor folding each partition's column vectors into its five
/// partial rows in the worker, the plan merging them — against a replay
/// of the path it replaced: the same executor shipping the two columns
/// as rows through the partition queues, and `GroupByAccumulator`
/// folding them on the consumer.
struct GroupLeaf {
    ctx: QueryContext,
    table: Table,
    stmt: SelectStmt,
    rows: u64,
}

impl GroupLeaf {
    const SQL: &str = "SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders \
                       GROUP BY o_orderpriority";

    fn new() -> Self {
        let gen = TpchGen::new(0.01);
        let (schema, rows) = gen.orders();
        let store = S3Store::new();
        let table = upload_csv_table(&store, "b", "orders", &schema, &rows, 1500).unwrap();
        let mut ctx = QueryContext::new(store);
        ctx.scan_threads = 1;
        let probe = GroupLeaf {
            ctx,
            table,
            stmt: parse_select("SELECT o_orderpriority, o_totalprice FROM orders").unwrap(),
            rows: rows.len() as u64,
        };
        let counts = |rows: Vec<Row>| -> Vec<(Value, Value)> {
            rows.into_iter()
                .map(|r| (r[0].clone(), r[1].clone()))
                .collect()
        };
        assert_eq!(counts(probe.replay()), counts(probe.leaf()));
        probe
    }

    fn replay(&self) -> Vec<Row> {
        let ctx = self.ctx.scoped();
        let aggs = vec![(AggFunc::Count, None), (AggFunc::Sum, Some(1))];
        let mut acc = ops::GroupByAccumulator::new(vec![0], aggs);
        let mut stats = Default::default();
        scan(
            &ctx,
            &self.table,
            ScanSource::Plain,
            &self.stmt,
            None,
            |batch| acc.update_batch(&batch.rows, &mut stats),
        )
        .unwrap();
        acc.finish(&mut stats)
    }

    fn leaf(&self) -> Vec<Row> {
        run_candidate(&self.ctx, &self.table, Self::SQL, "server-side", None)
            .unwrap()
            .rows
    }
}

/// The group leaf against its replay (see [`GroupLeaf`]).
fn bench_group_leaf(c: &mut Criterion) {
    let probe = GroupLeaf::new();
    let mut g = c.benchmark_group("scan/group_leaf");
    g.throughput(Throughput::Elements(probe.rows));
    g.bench_function("row_replay", |b| b.iter(|| probe.replay()));
    g.bench_function("leaf_1_thread", |b| b.iter(|| probe.leaf()));
    g.finish();
}

/// Fails the run unless `groupby-uniform`'s leaf, folding in its one
/// worker, takes at most the time of the replay that ships rows to a
/// consumer-side fold: a grouping operator over a scan must build no row
/// per input row. Interleaved rounds, fastest round of each, as in
/// [`bloom_probe_gate`].
fn group_leaf_gate() -> Result<(), String> {
    let probe = GroupLeaf::new();
    let [replay, leaf] = fastest_rounds(
        15,
        [&discarding(|| probe.replay()), &discarding(|| probe.leaf())],
    );
    let ratio = leaf / replay;
    println!(
        "scan/group_leaf gate: groupby-uniform's leaf folding in its worker takes {ratio:.2}x \
         the row replay (must be <= 1.0)"
    );
    if ratio > 1.0 {
        return Err(format!(
            "groupby-uniform's leaf takes {ratio:.2}x shipping its rows to a consumer-side \
             fold: folding in the worker is costing more than the rows it saves"
        ));
    }
    Ok(())
}

/// Predicate filter over 20k rows: vectorized selection-vector kernel vs
/// the row evaluator. Both charge identical CPU units; only wall-clock
/// differs.
fn bench_filter(c: &mut Criterion) {
    let schema = sample_schema();
    let rows = sample_rows(N);
    let b20k = batch();
    let bound = Binder::new(&schema)
        .bind_expr(&parse_expr("bal <= -900 AND k < 15000").unwrap())
        .unwrap();
    let compiled = ops::compile_predicate(&bound).expect("predicate should vectorize");

    let mut g = c.benchmark_group("filter");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("row_20k", |b| {
        b.iter_batched(
            || rows.clone(),
            |rows| {
                let mut stats = Default::default();
                black_box(ops::filter_rows(rows, &bound, &mut stats).unwrap())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("columnar_20k", |b| {
        b.iter(|| {
            let mut stats = Default::default();
            black_box(ops::filter_columnar(&b20k, &compiled, &mut stats))
        })
    });
    // The row-wise fallback of what does not compile, run as the
    // executor runs a `WHERE`.
    let filter = Filter::new(bound.clone());
    let mut scratch = RowExpr::scratch(&b20k);
    g.bench_function("columnar_fallback_20k", |b| {
        b.iter(|| {
            let (sel, raised) = filter.select(&b20k, &mut scratch);
            raised.unwrap();
            black_box(sel)
        })
    });
    g.finish();
}

/// `SUM(bal)` over 20k rows (NULLs skipped): per-row
/// `Accumulator::update`, and its column-vector twin — the fold the
/// Select engine's executor runs for an aggregate statement, over the
/// rows as one ColumnarLite object (4 096-row groups, the `bal` chunks
/// decoded into a vector each), what a grouped scan leaf's worker runs.
fn bench_aggregate(c: &mut Criterion) {
    let rows = sample_rows(N);
    let fold = ExecutorFold::new("SELECT SUM(bal) FROM t", &[]);

    let mut g = c.benchmark_group("aggregate");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("row_sum_20k", |b| {
        b.iter(|| {
            let mut acc = AggFunc::Sum.accumulator();
            for r in &rows {
                acc.update(r.get(2)).unwrap();
            }
            black_box(acc.finish())
        })
    });
    g.bench_function("columnar_sum_20k", |b| b.iter(|| black_box(fold.run())));
    g.finish();
}

/// Hash group-by (200 groups, SUM + COUNT): a batch update of rows, and
/// its column-vector twin through the executor's fold (see
/// [`bench_aggregate`]).
fn bench_groupby(c: &mut Criterion) {
    let rows = sample_rows(N);
    let aggs = vec![(AggFunc::Sum, Some(2)), (AggFunc::Count, None)];
    let fold = ExecutorFold::new("SELECT name, SUM(bal), COUNT(*) FROM t", &["name"]);

    let mut g = c.benchmark_group("groupby");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("row_20k", |b| {
        b.iter(|| {
            let mut stats = Default::default();
            let mut acc = ops::GroupByAccumulator::new(vec![1], aggs.clone());
            acc.update_batch(&rows, &mut stats).unwrap();
            black_box(acc.finish(&mut stats))
        })
    });
    g.bench_function("columnar_20k", |b| b.iter(|| black_box(fold.run())));
    g.finish();
}

/// An aggregate statement over the 20k sample rows as one ColumnarLite
/// object, run by the Select engine's executor: the column-vector twin
/// of the row folds above.
struct ExecutorFold {
    reader: ColumnarReader,
    bound: BoundSelect,
}

impl ExecutorFold {
    fn new(sql: &str, group_by: &[&str]) -> Self {
        let group_by: Vec<String> = group_by.iter().map(|c| c.to_string()).collect();
        let stmt = parse_select(sql).unwrap();
        let bound = Binder::new(&sample_schema())
            .bind_grouped(&stmt, &group_by)
            .unwrap();
        ExecutorFold {
            reader: ColumnarReader::open(encoded().into()).unwrap(),
            bound,
        }
    }

    fn run(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        let mut sink = |row| {
            rows.push(row);
            Ok(())
        };
        let mut exec = Executor::new(&self.bound, None, &mut sink);
        exec.scan(Object::Columnar(&self.reader), &[]).unwrap();
        exec.finish().unwrap();
        rows
    }
}

/// Top-100 by float key: row heap push vs columnar push (a row
/// materializes only when it enters the heap).
fn bench_topk(c: &mut Criterion) {
    let rows = sample_rows(N);
    let b20k = batch();
    let sel: Vec<u32> = (0..N as u32).collect();
    let columns: Vec<usize> = (0..sample_schema().len()).collect();

    let mut g = c.benchmark_group("topk");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("row_100_of_20k", |b| {
        b.iter(|| {
            let mut stats = Default::default();
            let mut heap = ops::TopKAccumulator::new(&[(2, true)], 100);
            heap.push_batch(&rows, &mut stats);
            black_box(heap.finish(&mut stats))
        })
    });
    g.bench_function("columnar_100_of_20k", |b| {
        b.iter(|| {
            let mut stats = Default::default();
            let mut heap = ops::TopKAccumulator::new(&[(2, true)], 100);
            heap.push_columnar(&b20k, &columns, &sel, &mut stats);
            black_box(heap.finish(&mut stats))
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_decode,
    bench_csv_projected,
    bench_bloom_probe,
    bench_filter_discard,
    bench_join_q12,
    bench_join_fold,
    bench_threshold_select,
    bench_topk_leaf,
    bench_group_leaf,
    bench_filter,
    bench_aggregate,
    bench_groupby,
    bench_topk
);

fn main() {
    kernels();
    for gate in [
        csv_projected_gate,
        bloom_probe_gate,
        filter_discard_gate,
        join_q12_gate,
        join_fold_gate,
        threshold_select_gate,
        group_leaf_gate,
    ] {
        if let Err(why) = gate() {
            eprintln!("kernels: {why}");
            std::process::exit(1);
        }
    }
}
