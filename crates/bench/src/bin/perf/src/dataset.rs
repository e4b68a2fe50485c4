//! The benchmark's dataset: the three TPC-H tables the nine shapes read,
//! generated at a fixed scale factor with the generator's fixed data
//! seed, uploaded as partitioned CSV and/or ColumnarLite.

use pushdown_common::mix::fnv1a;
use pushdown_common::{Result, Row, Schema};
use pushdown_core::{upload_columnar_table, upload_csv_table, Table};
use pushdown_format::columnar::WriterOptions;
use pushdown_s3::S3Store;
use pushdown_tpch::TpchGen;

/// SF 0.02: large enough that data terms, not the model's fixed
/// startups or per-query planning, dominate a CSV query.
pub const SCALE_FACTOR: f64 = 0.02;
pub const ROWS_PER_PARTITION: usize = 1_500;
pub const BUCKET: &str = "tpch";
pub const COLUMNAR: WriterOptions = WriterOptions {
    rows_per_group: 4096,
    compress: true,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Csv,
    Columnar,
}

impl Format {
    pub fn name(self) -> &'static str {
        match self {
            Format::Csv => "csv",
            Format::Columnar => "columnar",
        }
    }
}

/// Generated rows of the three tables, before upload.
pub struct Rows {
    pub customer: (Schema, Vec<Row>),
    pub orders: (Schema, Vec<Row>),
    pub lineitem: (Schema, Vec<Row>),
}

pub fn generate(scale_factor: f64) -> Rows {
    let gen = TpchGen::new(scale_factor);
    let customer = gen.customers();
    let orders = gen.orders();
    let lineitem = gen.lineitems(&orders.1);
    Rows {
        customer,
        orders,
        lineitem,
    }
}

/// Handles to the uploaded tables.
#[derive(Clone)]
pub struct Tables {
    pub customer: Table,
    pub orders: Table,
    pub lineitem: Table,
}

impl Tables {
    pub fn all(&self) -> [&Table; 3] {
        [&self.customer, &self.orders, &self.lineitem]
    }

    pub fn by_name(&self, name: &str) -> &Table {
        self.all()
            .into_iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("the suite names no table {name}"))
    }
}

pub fn upload(
    store: &S3Store,
    bucket: &str,
    rows: &Rows,
    format: Format,
    rows_per_partition: usize,
) -> Result<Tables> {
    let put = |name: &str, (schema, rows): &(Schema, Vec<Row>)| match format {
        Format::Csv => upload_csv_table(store, bucket, name, schema, rows, rows_per_partition),
        Format::Columnar => upload_columnar_table(
            store,
            bucket,
            name,
            schema,
            rows,
            rows_per_partition,
            COLUMNAR,
        ),
    };
    Ok(Tables {
        customer: put("customer", &rows.customer)?,
        orders: put("orders", &rows.orders)?,
        lineitem: put("lineitem", &rows.lineitem)?,
    })
}

/// Stored bytes of the three tables.
pub fn stored_bytes(store: &S3Store, tables: &Tables) -> u64 {
    tables.all().iter().map(|t| t.total_bytes(store)).sum()
}

/// FNV-1a over every uploaded object's key and bytes, in listing order:
/// a generator or writer change shows as a changed digest, not as a
/// silent shift in the numbers.
pub fn digest(store: &S3Store, tables: &Tables) -> Result<u64> {
    let mut h = 0u64;
    for t in tables.all() {
        for key in t.partitions(store) {
            let data = store.raw_object(&t.bucket, &key)?;
            let part = fnv1a(key.bytes().chain(data.iter().copied()));
            h = h.rotate_left(7) ^ part;
        }
    }
    Ok(h)
}
