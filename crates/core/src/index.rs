//! Index tables (paper §IV-A).
//!
//! Classic hash/B-tree indexes need multiple dependent round trips per
//! lookup — poison in a high-latency object store. The paper's design is
//! an **index table**: a CSV object per data partition with schema
//!
//! ```text
//! |value|first_byte_offset|last_byte_offset|
//! ```
//!
//! Lookups run in two phases:
//! 1. push the predicate on `value` into S3 Select against the index
//!    table(s), retrieving qualifying byte ranges;
//! 2. fetch the selected records from the data partition with ranged
//!    GETs — **one per row** on stock S3, which allows a single range per
//!    request — and decode each returned range as exactly one record.
//!
//! [`crate::algos::filter::indexed`] runs both; its
//! [`RowFetch`](crate::algos::filter::RowFetch) argument swaps phase 2
//! for one of paper §X's what-ifs: many ranges per GET (Suggestion 1),
//! or both phases inside S3 (Suggestion 2).

use crate::catalog::Table;
use crate::context::QueryContext;
use pushdown_common::{DataType, Error, Result, Row, Schema};
use pushdown_format::csv::{CsvReader, CsvWriter};
use pushdown_select::InputFormat;

/// An index over one column of a CSV table: one index object per data
/// partition, aligned by position.
#[derive(Debug, Clone)]
pub struct IndexTable {
    /// The indexed data table.
    pub data: Table,
    /// The indexed column name.
    pub column: String,
    /// Catalog entry for the index objects themselves.
    pub index: Table,
}

/// Schema of every index object.
pub fn index_schema(value_type: DataType) -> Schema {
    Schema::from_pairs(&[
        ("value", value_type),
        ("first_byte_offset", DataType::Int),
        ("last_byte_offset", DataType::Int),
    ])
}

/// Build an index table for `column` of a CSV table. Index construction is
/// an offline, unmetered operation (like data loading).
pub fn build_index(ctx: &QueryContext, table: &Table, column: &str) -> Result<IndexTable> {
    if table.format != InputFormat::Csv {
        return Err(Error::Other(
            "index tables are defined over CSV data tables".into(),
        ));
    }
    let col = table.schema.resolve(column)?;
    let value_type = table.schema.dtype_of(col);
    let ischema = index_schema(value_type);
    let index_prefix = format!("{}__index__{}", table.name, column.to_lowercase());

    for (p, key) in table.partitions(&ctx.store).iter().enumerate() {
        let data = ctx.store.raw_object(&table.bucket, key)?;
        let mut w = CsvWriter::with_header(&ischema);
        for rec in CsvReader::with_header(&data, table.schema.clone()) {
            let rec = rec?;
            w.write_row(&Row::new(vec![
                rec.row[col].clone(),
                pushdown_common::Value::Int(rec.first_byte as i64),
                pushdown_common::Value::Int(rec.last_byte as i64),
            ]));
        }
        ctx.store.put_object(
            &table.bucket,
            &format!("{index_prefix}/part-{p:05}.csv"),
            w.finish(),
        );
    }

    Ok(IndexTable {
        data: table.clone(),
        column: column.to_string(),
        index: Table {
            name: index_prefix.clone(),
            bucket: table.bucket.clone(),
            prefix: index_prefix,
            schema: ischema,
            format: InputFormat::Csv,
            row_count: table.row_count,
            stats: None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use pushdown_common::Value;
    use pushdown_s3::S3Store;

    fn setup() -> (QueryContext, Table) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let rows: Vec<Row> = (0..200)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("payload-{i}"))]))
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 60).unwrap();
        (QueryContext::new(store), t)
    }

    #[test]
    fn index_objects_align_with_partitions() {
        let (ctx, t) = setup();
        let idx = build_index(&ctx, &t, "k").unwrap();
        assert_eq!(
            idx.index.partitions(&ctx.store).len(),
            t.partitions(&ctx.store).len()
        );
        assert_eq!(
            idx.index.schema.names(),
            vec!["value", "first_byte_offset", "last_byte_offset"]
        );
    }

    #[test]
    fn offsets_point_at_the_right_records() {
        let (ctx, t) = setup();
        let idx = build_index(&ctx, &t, "k").unwrap();
        let data_parts = t.partitions(&ctx.store);
        let index_parts = idx.index.partitions(&ctx.store);
        for (dkey, ikey) in data_parts.iter().zip(&index_parts) {
            let ibytes = ctx.store.raw_object("b", ikey).unwrap();
            let entries: Vec<Row> = CsvReader::with_header(&ibytes, idx.index.schema.clone())
                .map(|r| r.map(|rec| rec.row))
                .collect::<Result<_>>()
                .unwrap();
            // Spot-check every 17th entry via a ranged GET.
            for e in entries.iter().step_by(17) {
                let first = e[1].as_i64().unwrap() as u64;
                let last = e[2].as_i64().unwrap() as u64;
                let slice = ctx.store.get_object_range("b", dkey, first, last).unwrap();
                let line = std::str::from_utf8(&slice).unwrap();
                let fields = pushdown_format::csv::split_line(line).unwrap();
                assert_eq!(fields[0], e[0].to_csv_field());
            }
        }
    }

    #[test]
    fn index_build_is_unmetered() {
        let (ctx, t) = setup();
        let scope = ctx.scoped();
        build_index(&scope, &t, "k").unwrap();
        assert_eq!(scope.billed().requests, 0);
    }

    #[test]
    fn unknown_column_errors() {
        let (ctx, t) = setup();
        assert!(build_index(&ctx, &t, "nope").is_err());
    }
}
