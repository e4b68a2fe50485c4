//! The CSV, ColumnarLite and Select data path against its references:
//! damaged CSV and ColumnarLite objects never panic their readers nor
//! the Select engine that queries them, nor do a persisted cache's
//! damaged `MANIFEST` and segment log the cache
//! that reopens them; the Bloom probe SQL run by the Select engine agrees
//! with the filter it was rendered from, and load-time table statistics
//! — dictionaries included — equal the ones the rendering-based pass
//! computed.

use proptest::prelude::*;
use pushdowndb::bloom::BloomFilter;
use pushdowndb::cache::CacheConfig;
use pushdowndb::common::{DataType, Row, Schema, TempDir, Value};
use pushdowndb::core::catalog::{
    ColumnStats, TableStats, Tails, DICTIONARY_MAX_VALUES, TAIL_VALUES,
};
use pushdowndb::core::Strategy::Baseline;
use pushdowndb::core::{execute_sql, upload_csv_table, QueryContext, Table};
use pushdowndb::format::columnar::{encode_columnar, ColumnarReader, WriterOptions};
use pushdowndb::format::csv::{decode_csv, encode_csv};
use pushdowndb::s3::S3Store;
use pushdowndb::select::{EngineExtensions, InputFormat, S3SelectEngine};
use pushdowndb::sql::parse_select_extended;
use pushdowndb::tpch::TpchGen;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// `customer`, `orders` and `lineitem` at a scale where a partition of
/// 150 rows is a few KB to ~20 KB of CSV. Generated once for all cases.
fn tpch_tables() -> &'static [(Schema, Vec<Row>)] {
    static TABLES: OnceLock<Vec<(Schema, Vec<Row>)>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let g = TpchGen::new(0.001);
        let orders = g.orders();
        let lineitems = g.lineitems(&orders.1);
        vec![g.customers(), orders, lineitems]
    })
}

/// Every value is NULL or of its column's declared type.
fn well_typed(schema: &Schema, row: &Row) -> bool {
    row.len() == schema.len()
        && row
            .values()
            .iter()
            .enumerate()
            .all(|(i, v)| v.is_null() || v.data_type() == Some(schema.dtype_of(i)))
}

/// Index of the record (header = record 0) that holds byte `at`. TPC-H
/// text has no quoted newlines, so records are lines.
fn record_of(bytes: &[u8], at: usize) -> usize {
    bytes[..at].iter().filter(|&&b| b == b'\n').count()
}

/// CSV carries no checksum, so damage can yield other, valid-looking
/// values. What must hold: no panic; an error or rows that are well typed;
/// and the records wholly before the damage decode to what they were.
fn check_damaged(schema: &Schema, original: &[Row], damaged: &[u8], intact_records: usize) {
    let Ok(rows) = decode_csv(damaged, schema) else {
        return;
    };
    assert!(rows.iter().all(|r| well_typed(schema, r)));
    // Record 0 is the header: `intact_records - 1` data rows precede it.
    let intact_rows = intact_records.saturating_sub(1).min(original.len());
    assert!(rows.len() >= intact_rows);
    assert_eq!(&rows[..intact_rows], &original[..intact_rows]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ROADMAP E-1 for CSV: byte flips, truncations and splices of encoded
    /// TPC-H partitions give `Err` or sane rows, never a panic.
    #[test]
    fn damaged_tpch_partitions_never_panic(
        table in 0usize..3,
        partition in 0usize..4,
        at in any::<usize>(),
        flip in 1u8..=255,
        splice_from in any::<usize>(),
    ) {
        let (schema, rows) = &tpch_tables()[table];
        let chunks: Vec<&[Row]> = rows.chunks(150).collect();
        let original = chunks[partition % chunks.len()];
        let bytes = encode_csv(schema, original);
        prop_assert_eq!(&decode_csv(&bytes, schema).unwrap(), original);
        let at = at % bytes.len();

        let mut flipped = bytes.clone();
        flipped[at] ^= flip;
        check_damaged(schema, original, &flipped, record_of(&bytes, at));

        check_damaged(schema, original, &bytes[..at], record_of(&bytes, at));

        // The head of this partition glued to the tail of another one.
        let other = encode_csv(schema, chunks[(partition + 1) % chunks.len()]);
        let mut spliced = bytes[..at].to_vec();
        spliced.extend_from_slice(&other[splice_from % other.len()..]);
        check_damaged(schema, original, &spliced, record_of(&bytes, at));
    }

    /// The probe predicate of paper Listing 1 (`SUBSTRING` over the
    /// `'0'/'1'` string) and its `BIT_AT` variant, rendered to SQL text and
    /// run by the Select engine, keep exactly the keys
    /// `BloomFilter::contains` keeps — keys that were never inserted
    /// (true negatives and false positives alike) included.
    #[test]
    fn bloom_sql_through_select_agrees_with_contains(
        build in proptest::collection::vec(0i64..100_000, 1..120),
        probe in proptest::collection::vec(0i64..100_000, 0..200),
        fpr in prop_oneof![Just(0.3), Just(0.05), Just(0.01)],
        seed in any::<u64>(),
    ) {
        let mut filter = BloomFilter::with_rate(build.len(), fpr, seed);
        for &key in &build {
            filter.insert(key);
        }
        // Probe every build key too, so both outcomes occur.
        let keys: Vec<i64> = probe.iter().chain(&build).copied().collect();
        let want: Vec<Row> = keys
            .iter()
            .filter(|&&k| filter.contains(k))
            .map(|&k| Row::new(vec![Value::Int(k)]))
            .collect();
        prop_assert!(want.len() >= build.len(), "no false negatives");

        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let rows: Vec<Row> = keys.iter().map(|&k| Row::new(vec![Value::Int(k)])).collect();
        let store = S3Store::new();
        store.put_object("b", "keys.csv", encode_csv(&schema, &rows));
        let engine = S3SelectEngine::new(store).with_extensions(EngineExtensions {
            bitwise: true,
            ..Default::default()
        });
        for pred in [filter.sql_predicate("k"), filter.sql_predicate_binary("k")] {
            let sql = format!("SELECT k FROM S3Object WHERE {pred}");
            let got = engine
                .select("b", "keys.csv", &sql, &schema, InputFormat::Csv)
                .unwrap()
                .rows()
                .unwrap();
            prop_assert_eq!(&got, &want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ROADMAP F-1 for ColumnarLite: byte flips, truncations and splices
    /// of encoded TPC-H partitions — compressed or not, several row
    /// groups each — through `open`, `read_all` and
    /// `read_group_batch_projected` give `Err` or well-typed rows of the
    /// file's own schema, never a panic nor an allocation sized by a
    /// count the footer made up. ColumnarLite carries no checksum, so a
    /// flip inside a value can decode to another valid value.
    #[test]
    fn damaged_columnar_partitions_never_panic(
        table in 0usize..3,
        partition in 0usize..4,
        compress in any::<bool>(),
        at in any::<usize>(),
        flip in 1u8..=255,
        splice_from in any::<usize>(),
    ) {
        let (schema, rows) = &tpch_tables()[table];
        let chunks: Vec<&[Row]> = rows.chunks(150).collect();
        let original = chunks[partition % chunks.len()];
        let options = WriterOptions { rows_per_group: 60, compress };
        let bytes = encode_columnar(schema, original, options);
        let intact = ColumnarReader::open(bytes.clone().into()).unwrap();
        prop_assert_eq!(&intact.read_all().unwrap(), original);
        let at = at % bytes.len();

        let mut flipped = bytes.clone();
        flipped[at] ^= flip;
        check_damaged_columnar(flipped);

        check_damaged_columnar(bytes[..at].to_vec());

        // The head of this partition glued to the tail of another one.
        let other = encode_columnar(schema, chunks[(partition + 1) % chunks.len()], options);
        let mut spliced = bytes[..at].to_vec();
        spliced.extend_from_slice(&other[splice_from % other.len()..]);
        check_damaged_columnar(spliced);
    }

    /// ROADMAP F-1 for the Select engine: a byte flip, a truncation or a
    /// splice (this partition's head, another's tail) of an encoded TPC-H
    /// partition, CSV or ColumnarLite (compressed or not), stored and
    /// queried through `S3SelectEngine::select` — a filter with a
    /// projection and a scalar aggregate — and `select_grouped`, each
    /// response decoded by `SelectResponse::rows`: `Err` or rows well
    /// typed under the response's schema, never a panic.
    #[test]
    fn damaged_partitions_never_panic_the_select_engine(
        table in 0usize..3,
        partition in 0usize..4,
        columnar in any::<bool>(),
        compress in any::<bool>(),
        damage in 0u8..3,
        at in any::<usize>(),
        flip in 1u8..=255,
        splice_from in any::<usize>(),
    ) {
        let (schema, rows) = &tpch_tables()[table];
        let chunks: Vec<&[Row]> = rows.chunks(150).collect();
        let encode = |i: usize| {
            let rows = chunks[i % chunks.len()];
            match columnar {
                true => encode_columnar(schema, rows, WriterOptions { rows_per_group: 60, compress }),
                false => encode_csv(schema, rows),
            }
        };
        let bytes = encode(partition);
        let format = if columnar { InputFormat::Columnar } else { InputFormat::Csv };
        // Intact, every statement answers.
        for answer in run_selects(schema, format, bytes.clone(), &DAMAGED_SELECTS[table]) {
            prop_assert!(!answer.unwrap().1.is_empty());
        }
        let at = at % bytes.len();
        let damaged = match damage {
            0 => {
                let mut flipped = bytes.clone();
                flipped[at] ^= flip;
                flipped
            }
            1 => bytes[..at].to_vec(),
            _ => {
                let other = encode(partition + 1);
                [&bytes[..at], &other[splice_from % other.len()..]].concat()
            }
        };
        check_damaged_select(schema, format, damaged, &DAMAGED_SELECTS[table]);
    }
}

/// Per TPC-H table of [`tpch_tables`], what the Select engine is asked
/// of a damaged partition: a filter with a projection, a scalar
/// aggregate, a grouped aggregate.
const DAMAGED_SELECTS: [[&str; 3]; 3] = [
    [
        "SELECT c_custkey, c_name, c_acctbal FROM S3Object \
         WHERE c_acctbal > 0 AND c_mktsegment <> 'MACHINERY'",
        "SELECT COUNT(*), SUM(c_acctbal), MIN(c_name), MAX(c_nationkey), AVG(c_acctbal) \
         FROM S3Object WHERE c_custkey > 3",
        "SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM S3Object \
         WHERE c_acctbal > 0 GROUP BY c_mktsegment",
    ],
    [
        "SELECT o_orderkey, o_orderdate, o_totalprice FROM S3Object \
         WHERE o_orderdate < DATE '1995-03-15' AND o_totalprice > 1000",
        "SELECT COUNT(*), SUM(o_totalprice), MIN(o_orderdate), MAX(o_clerk) FROM S3Object",
        "SELECT o_orderstatus, o_orderpriority, COUNT(*), AVG(o_totalprice) FROM S3Object \
         GROUP BY o_orderstatus, o_orderpriority",
    ],
    [
        "SELECT l_orderkey, l_extendedprice, l_shipmode FROM S3Object \
         WHERE l_shipdate <= DATE '1998-09-02' AND l_quantity BETWEEN 5 AND 40",
        "SELECT SUM(l_extendedprice * (1 - l_discount)), COUNT(*), MAX(l_shipdate) \
         FROM S3Object WHERE l_discount > 0.02",
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity), COUNT(*) FROM S3Object \
         WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus",
    ],
];

/// The three statements of `sql` run by the Select engine over `object`
/// stored as a `format` partition of `schema`: each response's rows,
/// decoded, with the schema they decode under.
fn run_selects(
    schema: &Schema,
    format: InputFormat,
    object: Vec<u8>,
    sql: &[&str; 3],
) -> Vec<pushdowndb::common::Result<(Schema, Vec<Row>)>> {
    let store = S3Store::new();
    store.put_object("b", "part", object);
    let engine = S3SelectEngine::new(store).with_extensions(EngineExtensions {
        native_group_by: true,
        ..Default::default()
    });
    let grouped = parse_select_extended(sql[2]).unwrap();
    let responses = [
        engine.select("b", "part", sql[0], schema, format),
        engine.select("b", "part", sql[1], schema, format),
        engine.select_grouped("b", "part", &grouped, schema, format),
    ];
    let decoded =
        |resp: pushdowndb::select::SelectResponse| Ok((resp.output_schema.clone(), resp.rows()?));
    responses.into_iter().map(|r| r.and_then(decoded)).collect()
}

/// What a damaged partition may do under the Select engine (see
/// `damaged_partitions_never_panic_the_select_engine`): fail, or answer
/// rows well typed under the response's schema.
fn check_damaged_select(schema: &Schema, format: InputFormat, object: Vec<u8>, sql: &[&str; 3]) {
    for (out, rows) in run_selects(schema, format, object, sql)
        .into_iter()
        .flatten()
    {
        assert!(rows.iter().all(|r| well_typed(&out, r)));
    }
}

/// `customer`'s rows as a table of three CSV partitions on a store of
/// its own — the same bytes every time.
fn cache_table() -> (S3Store, Table) {
    let (schema, rows) = &tpch_tables()[0];
    let store = S3Store::new();
    let table = upload_csv_table(&store, "b", "customer", schema, rows, 50).unwrap();
    (store, table)
}

/// A disk-only persistent cache at `dir` over `store`.
fn persistent_cache(
    store: &S3Store,
    dir: &std::path::Path,
) -> pushdowndb::common::Result<QueryContext> {
    let config = CacheConfig {
        mem_bytes: 0,
        disk_bytes: 1 << 20,
        dir: Some(dir.to_path_buf()),
    };
    QueryContext::new(store.clone()).with_cache_config(config)
}

/// The cache files a cached scan of [`cache_table`] leaves behind —
/// `(MANIFEST, seg-g0.dat)` — segmented at `chunk` bytes. Two chunk
/// sizes give two logs of the same objects to splice.
fn persisted_cache_files(chunk: u64) -> (Vec<u8>, Vec<u8>) {
    let tmp = TempDir::new("cache-files");
    let (store, table) = cache_table();
    let ctx = persistent_cache(&store, tmp.path()).unwrap();
    let ctx = ctx.with_cache_chunk_bytes(chunk).with_cache_reads(true);
    execute_sql(&ctx, &table, "SELECT * FROM customer", Baseline).unwrap();
    // A clean shutdown: every handle to the cache dropped.
    store.set_cache(None);
    drop(ctx);
    let read = |name: &str| std::fs::read(tmp.path().join(name)).unwrap();
    (read("MANIFEST"), read("seg-g0.dat"))
}

fn cache_files() -> &'static [(Vec<u8>, Vec<u8>); 2] {
    static FILES: OnceLock<[(Vec<u8>, Vec<u8>); 2]> = OnceLock::new();
    FILES.get_or_init(|| [persisted_cache_files(512), persisted_cache_files(200)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ROADMAP F-1 for the cache's own files: a byte flip, a truncation or
    /// a splice (the head of one log, the tail of another cache's) of a
    /// persisted cache's `MANIFEST` or segment log. Reopening it through
    /// `QueryContext::with_cache_config` returns `Ok` or `Err` and never
    /// panics; a reopened cache serves only the store's bytes — a cached
    /// scan returns the table's rows — and `usage == billed`.
    #[test]
    fn damaged_cache_files_never_panic(
        manifest in any::<bool>(),
        damage in 0u8..3,
        at in any::<usize>(),
        flip in 1u8..=255,
        splice_from in any::<usize>(),
    ) {
        let [(m, seg), (other_m, other_seg)] = cache_files();
        let (this, other) = if manifest { (m, other_m) } else { (seg, other_seg) };
        let at = at % this.len();
        let damaged = match damage {
            0 => {
                let mut flipped = this.clone();
                flipped[at] ^= flip;
                flipped
            }
            1 => this[..at].to_vec(),
            _ => [&this[..at], &other[splice_from % other.len()..]].concat(),
        };
        let tmp = TempDir::new("damaged-cache");
        let (m, seg) = if manifest { (&damaged, seg) } else { (m, &damaged) };
        std::fs::write(tmp.path().join("MANIFEST"), m).unwrap();
        std::fs::write(tmp.path().join("seg-g0.dat"), seg).unwrap();
        let (store, table) = cache_table();
        if let Ok(ctx) = persistent_cache(&store, tmp.path()) {
            let ctx = ctx.with_cache_chunk_bytes(512).with_cache_reads(true);
            for _ in 0..2 {
                let sql = "SELECT * FROM customer";
                let out = execute_sql(&ctx, &table, sql, Baseline).unwrap();
                prop_assert_eq!(&out.rows, &tpch_tables()[0].1);
                prop_assert_eq!(out.metrics.usage(), out.billed);
            }
            store.set_cache(None);
        }
    }
}

/// What a damaged ColumnarLite file may do (see
/// `damaged_columnar_partitions_never_panic`): fail, or decode to rows
/// that are well typed under the schema its footer declares — whole, and
/// projected to every other column in reverse order.
fn check_damaged_columnar(bytes: Vec<u8>) {
    let Ok(reader) = ColumnarReader::open(bytes.into()) else {
        return;
    };
    let schema = reader.schema().clone();
    if let Ok(rows) = reader.read_all() {
        assert!(rows.iter().all(|r| well_typed(&schema, r)));
    }
    let cols: Vec<usize> = (0..schema.len()).rev().step_by(2).collect();
    let projected = schema.project(&cols);
    for g in 0..reader.num_row_groups() {
        if let Ok(batch) = reader.read_group_batch_projected(g, &cols) {
            assert!(batch.to_rows().iter().all(|r| well_typed(&projected, r)));
        }
    }
}

/// `TableStats::from_rows` as it was: every value of every column rendered
/// with `to_csv_field`, distinct values counted as distinct strings — and
/// the tails counted the same way: rows per distinct rendering, the first
/// and last `TAIL_VALUES` of them, kept for a column of one type.
fn table_stats_oracle(schema: &Schema, rows: &[Row]) -> TableStats {
    let n = rows.len() as u64;
    let columns = (0..schema.len())
        .map(|c| {
            let mut min = Value::Null;
            let mut max = Value::Null;
            let mut nulls = 0u64;
            let mut width = 0usize;
            let mut distinct: HashMap<String, (Value, u64)> = HashMap::new();
            let mut types = HashSet::new();
            for r in rows {
                let v = &r[c];
                let field = v.to_csv_field();
                width += field.len();
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                types.insert(v.data_type());
                // Every NaN renders as `NaN`, and is stored as the one NaN.
                let stored = match v {
                    Value::Float(f) if f.is_nan() => Value::Float(f64::NAN),
                    v => v.clone(),
                };
                distinct.entry(field).or_insert((stored, 0)).1 += 1;
                if min.is_null() || v.total_cmp(&min) == std::cmp::Ordering::Less {
                    min = v.clone();
                }
                if max.is_null() || v.total_cmp(&max) == std::cmp::Ordering::Greater {
                    max = v.clone();
                }
            }
            let ndv = distinct.len() as u64;
            let mut values: Vec<(Value, u64)> = distinct.into_values().collect();
            values.sort_by(|a, b| a.0.total_cmp(&b.0));
            let one_type = types.len() <= 1;
            let take = values.len().min(TAIL_VALUES);
            let tails = one_type.then(|| Tails {
                low: values[..take].to_vec(),
                high: values[values.len() - take..]
                    .iter()
                    .rev()
                    .cloned()
                    .collect(),
            });
            ColumnStats {
                min,
                max,
                ndv,
                null_fraction: if n == 0 { 0.0 } else { nulls as f64 / n as f64 },
                avg_width: if n == 0 { 0.0 } else { width as f64 / n as f64 },
                tails,
            }
        })
        .collect();
    TableStats {
        row_count: n,
        columns,
        segments: None,
    }
}

/// Exact equality, floats by bit pattern and min/max by variant (the
/// derived `PartialEq` would let `Int(1)` pass for `Float(1.0)`).
fn assert_stats_identical(got: &TableStats, want: &TableStats) {
    assert_eq!(got.row_count, want.row_count);
    assert_eq!(got.columns.len(), want.columns.len());
    for (i, (g, w)) in got.columns.iter().zip(&want.columns).enumerate() {
        assert_eq!(g.ndv, w.ndv, "column {i} ndv");
        assert_eq!(format!("{:?}", g.min), format!("{:?}", w.min), "column {i}");
        assert_eq!(format!("{:?}", g.max), format!("{:?}", w.max), "column {i}");
        assert_eq!(g.null_fraction.to_bits(), w.null_fraction.to_bits());
        assert_eq!(g.avg_width.to_bits(), w.avg_width.to_bits());
        let tails = |c: &ColumnStats| format!("{:?}", c.tails);
        assert_eq!(tails(g), tails(w), "column {i} tails");
    }
}

#[test]
fn table_stats_equal_the_rendering_oracle_on_every_tpch_table() {
    let g = TpchGen::new(0.002);
    let orders = g.orders();
    let lineitems = g.lineitems(&orders.1);
    let tables = [
        g.customers(),
        orders,
        lineitems,
        g.parts(),
        g.suppliers(),
        g.partsupps(),
        g.nations(),
        g.regions(),
    ];
    let mut dictionaries = 0;
    for (schema, rows) in &tables {
        assert!(!rows.is_empty());
        let stats = TableStats::from_rows(schema, rows);
        assert_stats_identical(&stats, &table_stats_oracle(schema, rows));
        dictionaries += stats
            .columns
            .iter()
            .filter(|c| c.tails.is_some() && c.ndv <= DICTIONARY_MAX_VALUES as u64)
            .count();
    }
    // `l_returnflag`, `o_orderpriority`, `c_mktsegment`, … have one.
    assert!(dictionaries >= 8, "{dictionaries} dictionaries");
}

/// A value for a column of any declared type: NULL-heavy, and with
/// entries of the wrong type whose CSV text can collide with a rightly
/// typed one (`Int(7)` / `Str("7")` / `Float(7.0)` vs `Str("7.0")`, a
/// date and its ISO text, `true` and `"true"`).
fn arb_mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => Just(Value::Null),
        2 => (0i64..12).prop_map(Value::Int),
        2 => (0i64..12).prop_map(|i| Value::Str(i.to_string())),
        2 => (0i64..12).prop_map(|i| Value::Float(i as f64)),
        1 => (0i64..12).prop_map(|i| Value::Str(format!("{i}.0"))),
        1 => (0i64..12).prop_map(|i| Value::Float(i as f64 / 4.0)),
        1 => prop_oneof![Just(f64::NAN), Just(-f64::NAN), Just(-0.0), Just(1e15), Just(f64::INFINITY)]
            .prop_map(Value::Float),
        1 => Just(Value::Int(1_000_000_000_000_000)),
        1 => (8000i32..8004).prop_map(Value::Date),
        1 => (8000i32..8004).prop_map(|d| Value::Str(Value::Date(d).to_csv_field())),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => any::<bool>().prop_map(|b| Value::Str(b.to_string())),
        1 => "[a-b]{0,2}".prop_map(Value::Str),
    ]
}

proptest! {
    /// Typed distinct sets count what distinct rendered strings counted,
    /// on NULL-heavy columns that mix types.
    #[test]
    fn table_stats_equal_the_rendering_oracle_on_mixed_columns(
        rows in proptest::collection::vec(
            (arb_mixed_value(), arb_mixed_value(), arb_mixed_value()),
            0..60,
        ),
    ) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Str),
            ("c", DataType::Float),
        ]);
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(a, b, c)| Row::new(vec![a, b, c]))
            .collect();
        assert_stats_identical(
            &TableStats::from_rows(&schema, &rows),
            &table_stats_oracle(&schema, &rows),
        );
    }
}

/// A stored one-column table keeps its NULLs (ROADMAP F-4): the writer
/// quotes a lone empty field, so leading, interior and trailing NULL
/// records survive `upload_csv_table` and come back — in place — from
/// the plain scan, from Select and from the cached scan, cold and warm.
#[test]
fn one_column_csv_table_round_trips_its_nulls() {
    use pushdowndb::core::scan::{cached_scan_streamed, plain_scan, select_scan};
    use pushdowndb::core::{upload_csv_table, QueryContext};
    use pushdowndb::sql::parse_select;

    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    let keys = [
        None,
        None,
        Some(3),
        None,
        Some(5),
        Some(6),
        None,
        Some(8),
        None,
    ];
    let rows: Vec<Row> = keys
        .iter()
        .map(|k| Row::new(vec![k.map_or(Value::Null, Value::Int)]))
        .collect();
    let store = S3Store::new();
    // Partitions of four: NULLs lead one, end another, and fill the last.
    let table = upload_csv_table(&store, "b", "t", &schema, &rows, 4).unwrap();
    assert_eq!(table.row_count, rows.len() as u64);
    let ctx = QueryContext::new(store).with_cache(1 << 20);

    assert_eq!(plain_scan(&ctx, &table).unwrap().rows, rows, "plain scan");
    let all = parse_select("SELECT k FROM S3Object").unwrap();
    assert_eq!(
        select_scan(&ctx, &table, &all).unwrap().rows,
        rows,
        "select"
    );
    let nulls = parse_select("SELECT k FROM S3Object WHERE k IS NULL").unwrap();
    assert_eq!(select_scan(&ctx, &table, &nulls).unwrap().rows.len(), 5);
    for state in ["cold", "warm"] {
        let mut got = Vec::new();
        cached_scan_streamed(&ctx.scoped(), &table, |batch| {
            got.extend(batch.rows);
            Ok(())
        })
        .unwrap();
        assert_eq!(got, rows, "cached scan, {state}");
    }
}
