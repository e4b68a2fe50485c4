//! Projected CSV decode against the full decode, and the validation
//! contract it declares (`format::csv` module docs) through the engine:
//! every record is split and checked whatever the query reads, only the
//! columns it references are typed.

use proptest::prelude::*;
use pushdowndb::common::{DataType, Error, Result, Row, Schema, Value};
use pushdowndb::core::planner::{execute_sql, Strategy};
use pushdowndb::core::scan::plain_scan;
use pushdowndb::core::{upload_csv_table, QueryContext, Table};
use pushdowndb::format::csv::{decode_csv, encode_csv, CsvReader, CsvRecord};
use pushdowndb::s3::S3Store;
use pushdowndb::tpch::TpchGen;
use std::sync::OnceLock;

/// `customer`, `orders` and `lineitem`, a partition of 150 rows being a
/// few KB to ~20 KB of CSV. Generated once for all cases.
fn tpch_tables() -> &'static [(Schema, Vec<Row>)] {
    static TABLES: OnceLock<Vec<(Schema, Vec<Row>)>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let g = TpchGen::new(0.001);
        let orders = g.orders();
        let lineitems = g.lineitems(&orders.1);
        vec![g.customers(), orders, lineitems]
    })
}

/// Rows or the first error, as text.
fn outcome<T>(records: Result<Vec<T>>) -> std::result::Result<Vec<T>, String> {
    records.map_err(|e| e.to_string())
}

/// `projected ⊑ full` on one (possibly damaged) object, and the three
/// deliveries of the projecting reader against each other.
fn check_projection(data: &[u8], schema: &Schema, needed: &[usize], batch: usize) {
    let reader = || CsvReader::with_header(data, schema.clone());
    let full: Result<Vec<CsvRecord>> = reader().collect();
    let projected: Result<Vec<CsvRecord>> = reader().project(needed).collect();
    match (&full, &projected) {
        // The full decode checks everything the projected one does.
        (Ok(_), Err(e)) => panic!("the projected decode alone fails: {e}"),
        (Ok(full), Ok(projected)) => {
            assert_eq!(full.len(), projected.len());
            for (f, p) in full.iter().zip(projected) {
                assert_eq!(p.row, f.row.project(needed));
                assert_eq!((p.first_byte, p.last_byte), (f.first_byte, f.last_byte));
            }
        }
        // A bad literal in a column outside the projection.
        (Err(_), Ok(_)) | (Err(_), Err(_)) => {}
    }

    let dense = outcome(projected.map(|recs| recs.into_iter().map(|r| r.row).collect()));
    let mut sparse_reader = reader().project(needed);
    let mut scratch = Row::new(vec![Value::Null; schema.len()]);
    let sparse: Result<Vec<Row>> = std::iter::from_fn(|| {
        let read = sparse_reader.read_into(&mut scratch)?;
        Some(read.map(|()| scratch.project(needed)))
    })
    .collect();
    assert_eq!(outcome(sparse), dense);
    let mut column_reader = reader().project(needed);
    let columns: Result<Vec<Vec<Row>>> = std::iter::from_fn(|| {
        let read = column_reader.read_columns(batch)?;
        Some(read.map(|vectors| vectors.to_rows()))
    })
    .collect();
    assert_eq!(outcome(columns.map(|batches| batches.concat())), dense);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byte flips, truncations and splices of encoded TPC-H partitions
    /// under a random projection: if the projected decode errs so does the
    /// full one; where both succeed the projected rows are the full rows'
    /// projection over the same byte ranges; and the sparse-row and
    /// column-vector deliveries yield what the dense one does.
    #[test]
    fn projected_decode_of_damaged_tpch_partitions_is_below_the_full_one(
        table in 0usize..3,
        partition in 0usize..4,
        at in any::<usize>(),
        flip in 1u8..=255,
        splice_from in any::<usize>(),
        mask in any::<u16>(),
        batch in prop_oneof![Just(1usize), Just(7), Just(64), Just(1024)],
    ) {
        let (schema, rows) = &tpch_tables()[table];
        let needed: Vec<usize> = (0..schema.len()).filter(|c| mask & (1 << c) != 0).collect();
        let chunks: Vec<&[Row]> = rows.chunks(150).collect();
        let bytes = encode_csv(schema, chunks[partition % chunks.len()]);
        check_projection(&bytes, schema, &needed, batch);
        let at = at % bytes.len();

        let mut flipped = bytes.clone();
        flipped[at] ^= flip;
        check_projection(&flipped, schema, &needed, batch);

        check_projection(&bytes[..at], schema, &needed, batch);

        // The head of this partition glued to the tail of another one.
        let other = encode_csv(schema, chunks[(partition + 1) % chunks.len()]);
        let mut spliced = bytes[..at].to_vec();
        spliced.extend_from_slice(&other[splice_from % other.len()..]);
        check_projection(&spliced, schema, &needed, batch);
    }
}

const ROWS: i64 = 300;
const ROWS_PER_PARTITION: usize = 64;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("s", DataType::Str),
        ("d", DataType::Date),
    ])
}

fn rows() -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Float(((i * 37) % 101) as f64 - 12.5),
                Value::Str(format!("name-{}", i % 5)),
                Value::Date(9000 + (i % 60) as i32),
            ])
        })
        .collect()
}

/// The row whose record the tests damage: `k = 200`, in the fourth
/// partition. Its CSV fields.
const VICTIM: usize = 200;

fn victim_fields() -> Vec<String> {
    let line = rows()[VICTIM].to_csv_line();
    line.split(',').map(String::from).collect()
}

/// The victim's record with field `column` replaced by `text`.
fn victim_with(column: usize, text: &[u8]) -> Vec<u8> {
    let mut fields: Vec<Vec<u8>> = victim_fields()
        .into_iter()
        .map(String::into_bytes)
        .collect();
    fields[column] = text.to_vec();
    fields.join(&b","[..])
}

/// The table, the victim's record replaced by `record` — or untouched.
fn table_with(record: Option<&[u8]>) -> (QueryContext, Table) {
    let store = S3Store::new();
    let table = upload_csv_table(&store, "b", "t", &schema(), &rows(), ROWS_PER_PARTITION).unwrap();
    if let Some(record) = record {
        let key = &table.partitions(&store)[VICTIM / ROWS_PER_PARTITION];
        let object = store.raw_object("b", key).unwrap();
        let line = format!("\n{}\n", victim_fields().join(","));
        let at = object
            .windows(line.len())
            .position(|w| w == line.as_bytes())
            .expect("the victim's record is in its partition");
        let mut damaged = object[..=at].to_vec();
        damaged.extend_from_slice(record);
        damaged.extend_from_slice(&object[at + line.len() - 1..]);
        store.put_object("b", key, damaged);
    }
    let mut ctx = QueryContext::new(store);
    ctx.scan_threads = 2;
    ctx.batch_rows = 50;
    (ctx, table)
}

type Outcome = std::result::Result<Vec<Row>, Error>;

/// Every way the engine reads the table for `sql`: the local scan,
/// plainly and through the segment cache, and S3 Select.
fn every_path(record: Option<&[u8]>, sql: &str) -> Vec<(String, Outcome)> {
    let mut outcomes = Vec::new();
    for cached in [false, true] {
        let (ctx, table) = table_with(record);
        let ctx = if cached {
            ctx.with_cache(1 << 24).with_cache_reads(true)
        } else {
            ctx
        };
        outcomes.push((
            format!("the local scan, cached {cached}"),
            execute_sql(&ctx, &table, sql, Strategy::Baseline).map(|out| out.rows),
        ));
    }
    let (ctx, table) = table_with(record);
    outcomes.push((
        "S3 Select".into(),
        execute_sql(&ctx, &table, sql, Strategy::Pushdown).map(|out| out.rows),
    ));
    outcomes
}

/// A bad literal fails exactly the queries that reference its column —
/// with the decoder's own error — on every path; a query that does not
/// reference it answers as it does over the undamaged object.
#[test]
fn a_bad_literal_fails_the_queries_that_reference_its_column_and_no_other() {
    let damages = [
        ('k', 0, "2oo", "bad int literal \"2oo\""),
        ('v', 1, "14.5x", "bad float literal \"14.5x\""),
        ('d', 3, "1994-13-03", "bad date literal \"1994-13-03\""),
    ];
    // Each query with the columns it references.
    let queries = [
        ("SELECT k, s FROM t WHERE k >= 150", "k"),
        ("SELECT SUM(v), COUNT(*) FROM t WHERE d >= 9010", "vd"),
        ("SELECT s, COUNT(*) FROM t GROUP BY s", ""),
        ("SELECT s, MAX(d) FROM t WHERE v > 0 GROUP BY s", "vd"),
        ("SELECT COUNT(*) FROM t", ""),
        ("SELECT d FROM t WHERE s = 'name-0' AND k > 100", "kd"),
    ];
    for (column, index, text, message) in damages {
        let record = victim_with(index, text.as_bytes());
        for (sql, referenced) in queries {
            let clean = every_path(None, sql);
            for ((path, got), (_, want)) in every_path(Some(&record), sql).into_iter().zip(clean) {
                let what = format!("{sql} with a bad `{column}` through {path}");
                if referenced.contains(column) {
                    let err = got.expect_err(&what);
                    assert_eq!(err.code(), "Corrupt", "{what}");
                    assert_eq!(err.message(), message, "{what}");
                } else {
                    assert_eq!(got.expect(&what), want.expect(&what), "{what}");
                }
            }
        }

        // Whoever asks for whole rows types — and so checks — every field.
        for (path, got) in every_path(Some(&record), "SELECT * FROM t WHERE k < 250") {
            let err = got.expect_err(&path);
            assert_eq!(err.message(), message, "SELECT * through {path}");
        }
        let (ctx, table) = table_with(Some(&record));
        assert_eq!(plain_scan(&ctx, &table).unwrap_err().message(), message);
        let key = &table.partitions(&ctx.store)[VICTIM / ROWS_PER_PARTITION];
        let object = ctx.store.raw_object("b", key).unwrap();
        let err = decode_csv(&object, &schema()).unwrap_err();
        assert_eq!(err.message(), message);
    }
}

/// What is checked for every record stays checked under any projection:
/// a record with a field too few, broken quoting or bytes that are not
/// UTF-8 fails every query on every path, whatever it references.
#[test]
fn record_level_damage_fails_every_query_whatever_it_references() {
    let fields = victim_fields();
    let damages = [
        (
            fields[..3].join(",").into_bytes(),
            "has 3 fields, schema expects 4",
        ),
        (
            victim_with(2, b"\"name\"-0"),
            "expected `,` after quoted field",
        ),
        (victim_with(2, b"name\xFF0"), "non-UTF8 CSV record"),
    ];
    for (record, message) in damages {
        for sql in [
            "SELECT COUNT(*) FROM t",
            "SELECT k FROM t WHERE k >= 150",
            "SELECT * FROM t WHERE k >= 150",
        ] {
            for (path, got) in every_path(Some(&record), sql) {
                let what = format!("{sql} through {path}");
                let err = got.expect_err(&what);
                assert_eq!(err.code(), "Corrupt", "{what}");
                assert!(err.message().contains(message), "{what}: {err}");
            }
        }
    }
}
