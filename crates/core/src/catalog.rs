//! Tables: partitioned objects in the store, loaders, and the catalog's
//! statistics layer.
//!
//! Paper §III: "To facilitate parallel processing, each table is
//! partitioned into multiple objects in S3. The techniques discussed in
//! this paper do not make any assumptions about how the data is
//! partitioned." Tables here are a key prefix plus numbered partition
//! objects (`<prefix>/part-00000.csv`, ...).
//!
//! ## Statistics
//!
//! The cost-based optimizer ([`crate::cost`], `Strategy::Adaptive`)
//! needs table statistics to predict what each candidate algorithm will
//! scan, return and compute. [`TableStats`] carries row count plus
//! per-column min/max, distinct-value count, null fraction and mean CSV
//! width ([`ColumnStats`]). Loaders gather exact statistics for free at
//! load time (one pass over the rows being uploaded, unmetered like the
//! load itself). A table registered without statistics falls back to
//! schema-derived defaults. Statistics whose row count is not the
//! table's still shape estimates, but are never read as exact (no
//! dictionary, no tails, no "never NULL").
//!
//! ## Dictionaries
//!
//! The load-time pass counts every distinct value of every column anyway,
//! so for a low-cardinality column it keeps the counts:
//! [`Table::dictionary`] lists each distinct non-null value with its
//! exact row count — the whole low tail (see below) of a column of one
//! type with at most [`DICTIONARY_MAX_VALUES`] values: a status or
//! priority code, a flag, not a key. With it the §VI-B hybrid group-by
//! knows before the query starts which groups are populous, which is what
//! its sample phase would have estimated ([`crate::plan::PlanOp::HybridSplit`]).
//! When the split pushes every listed group and the statistics saw no
//! NULL, the dictionary *covers* the column: the pushed pass should hold
//! every row, so the split runs that pass alone, with a `COUNT(*)` of
//! the rows its WHERE keeps beside the groups' counts. A dictionary
//! describes the rows *at load*; what reads it must stay correct when a
//! listed value has gone or an unlisted one appeared — a covering pass
//! whose counts fall short of the row count runs the tail after it,
//! asking for NULL rows by name.
//!
//! ## Tails
//!
//! The same counts hold a column's order statistics at both ends:
//! [`ColumnStats::tails`] keeps, for a column of one type, its
//! [`TAIL_VALUES`] smallest and largest distinct non-null values with
//! their row counts, and [`Table::kth`] reads the K-th value of an
//! `ORDER BY c LIMIT k` off them — the threshold §VII's sampling top-K
//! would otherwise estimate from a sample
//! ([`crate::plan::PlanOp::Threshold`]). As with dictionaries, what reads
//! them must stay correct when the rows have changed since load.

use bytes::Bytes;
use pushdown_common::mix::MixBuildHasher;
use pushdown_common::{DataType, Result, Row, Schema, Value};
use pushdown_format::columnar::{encode_columnar, ColumnarReader, WriterOptions};
use pushdown_format::csv::CsvWriter;
use pushdown_s3::S3Store;
use pushdown_select::InputFormat;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-column statistics: the inputs to selectivity and width estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest non-null value (NULL when the column is all-NULL).
    pub min: Value,
    /// Largest non-null value (NULL when the column is all-NULL).
    pub max: Value,
    /// Number of distinct non-null values.
    pub ndv: u64,
    /// Fraction of rows that are NULL.
    pub null_fraction: f64,
    /// Mean width of the CSV-rendered field, bytes.
    pub avg_width: f64,
    /// The smallest and the largest distinct non-null values with their
    /// row counts — kept only for a column whose values are of one type
    /// (see the module docs).
    pub tails: Option<Tails>,
}

/// The most distinct values a column may have and keep its
/// [`Table::dictionary`].
pub const DICTIONARY_MAX_VALUES: usize = 32;

/// The most distinct values each end of [`ColumnStats::tails`] keeps: an
/// `ORDER BY … LIMIT k` with a larger `k` may need a value past them.
pub const TAIL_VALUES: usize = 256;

/// A column's [`TAIL_VALUES`] smallest and largest distinct non-null
/// values (all of them, if it has fewer), each with its row count.
#[derive(Debug, Clone, PartialEq)]
pub struct Tails {
    /// Smallest first, in [`Value::total_cmp`] order.
    pub low: Vec<(Value, u64)>,
    /// Largest first.
    pub high: Vec<(Value, u64)>,
}

/// Table-level statistics: row count plus one [`ColumnStats`] per column,
/// and for a ColumnarLite table what its objects hold by cache segment.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Rows the statistics were counted over.
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
    /// The stored bytes of a ColumnarLite table by cache segment, from
    /// the load-time encode; `None` for CSV and for statistics gathered
    /// from rows alone.
    pub segments: Option<SegmentBytes>,
}

/// What a ColumnarLite table's objects hold, by cache segment
/// ([`ColumnarReader::chunk_extents`]): each object's extents, as the
/// load-time encode wrote them, and summed over the objects, per column
/// the bytes of the segments holding its chunks, and the footers'. A warm
/// cached scan reads the footers and the chunks of the columns it
/// decodes, which is how the estimator prices it. Beside them, per object
/// and row group, the stored bytes of each column's chunk alone
/// ([`ColumnarReader::scanned_by`]): what a Select decoding it scans and
/// bills (§IX), which is how the estimator prices a Select — the segments
/// would charge it the header the first segment holds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentBytes {
    /// Per column, in schema order.
    columns: Vec<u64>,
    footers: u64,
    /// Per partition key, its chunk extents ([`Table::cache_layout`]).
    extents: HashMap<String, Vec<(u64, u64)>>,
    /// Per partition key, its row groups in file order: each one's rows
    /// and, per column in schema order, its chunk's stored bytes.
    groups: HashMap<String, Vec<(u64, Vec<u64>)>>,
}

impl SegmentBytes {
    /// Add the segments of the object at `key`.
    fn add(&mut self, key: &str, reader: &ColumnarReader) {
        let bytes = |cols: &[usize]| {
            reader
                .extents_of(cols)
                .iter()
                .map(|(f, l)| l - f)
                .sum::<u64>()
        };
        let footer = bytes(&[]);
        self.footers += footer;
        let width = reader.schema().len();
        self.columns.resize(width, 0);
        for (c, total) in self.columns.iter_mut().enumerate() {
            *total += bytes(&[c]) - footer;
        }
        self.extents.insert(key.to_string(), reader.chunk_extents());
        let groups = (0..reader.num_row_groups()).map(|g| {
            let chunks = (0..width).map(|c| reader.scanned_by(g, &[c])).collect();
            (reader.row_group(g).row_count, chunks)
        });
        self.groups.insert(key.to_string(), groups.collect());
    }

    /// The bytes a cached scan decoding the columns `cols` reads: the
    /// footers and the segments of those columns' chunks.
    pub(crate) fn read_by(&self, cols: &[usize]) -> u64 {
        let chunks: u64 = cols.iter().filter_map(|&c| self.columns.get(c)).sum();
        self.footers + chunks
    }

    /// The bytes a Select decoding the columns `cols` scans of every
    /// object, pruning no row group: those columns' chunks.
    pub(crate) fn scanned_by(&self, cols: &[usize]) -> u64 {
        let groups = self.groups.values().flatten();
        groups.map(|(_, chunks)| chunk_bytes(chunks, cols)).sum()
    }

    /// The bytes a Select decoding the columns `cols` of the object at
    /// `key` scans when it stops at its `rows`-th row, pruning no row
    /// group: the chunks of every group up to the one holding that row,
    /// whole — the engine bills a group's chunks before it reads its rows
    /// —, and all of them when the object holds no more rows. `None` for
    /// an object the load did not write.
    pub(crate) fn scanned_through(&self, key: &str, cols: &[usize], rows: f64) -> Option<u64> {
        let (mut bytes, mut seen) = (0, 0);
        for (n, chunks) in self.groups.get(key)? {
            bytes += chunk_bytes(chunks, cols);
            seen += n;
            if seen as f64 >= rows {
                break;
            }
        }
        Some(bytes)
    }

    /// The rows of the object at `key`, as loaded.
    pub(crate) fn rows_in(&self, key: &str) -> Option<u64> {
        Some(self.groups.get(key)?.iter().map(|(n, _)| n).sum())
    }
}

/// The stored bytes of the columns `cols` among one row group's chunks.
fn chunk_bytes(chunks: &[u64], cols: &[usize]) -> u64 {
    cols.iter().filter_map(|&c| chunks.get(c)).sum()
}

impl TableStats {
    /// Exact statistics from a full pass over `rows` (the load-time path),
    /// dictionaries and tails included. One pass over the rows; nothing is
    /// rendered or cloned per value.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> TableStats {
        let n = rows.len() as u64;
        let mut columns: Vec<ColumnAccumulator> = (0..schema.len())
            .map(|_| ColumnAccumulator::default())
            .collect();
        let mut field = String::new();
        for r in rows {
            for (acc, v) in columns.iter_mut().zip(r.values()) {
                acc.add(v, &mut field);
            }
        }
        TableStats {
            row_count: n,
            columns: columns.into_iter().map(|acc| acc.finish(n)).collect(),
            segments: None,
        }
    }

    /// Mean CSV row width in bytes: field widths plus separators and the
    /// line terminator — the unit every byte prediction multiplies by.
    pub fn avg_row_bytes(&self) -> f64 {
        let widths: f64 = self.columns.iter().map(|c| c.avg_width).sum();
        widths + self.columns.len().saturating_sub(1) as f64 + 1.0
    }

    /// Statistics for column `i`, if tracked.
    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }
}

/// The distinct values of the statistics pass, each with its row count:
/// the values are the loader's own rows, so the cheap unkeyed hasher will
/// do.
type Counted<T> = HashMap<T, u64, MixBuildHasher>;

/// Distinct values of a type whose CSV width takes rendering to know,
/// each with that width and its row count: a value is rendered the first
/// time it is seen.
type CountedRendered<T> = HashMap<T, (usize, u64), MixBuildHasher>;

/// Running statistics of one column (see [`TableStats::from_rows`]).
/// Distinct values are counted per type, so no value is rendered to text
/// to be counted.
#[derive(Default)]
struct ColumnAccumulator<'a> {
    min: Option<&'a Value>,
    max: Option<&'a Value>,
    nulls: u64,
    width: usize,
    bools: Counted<bool>,
    ints: Counted<i64>,
    floats: CountedRendered<u64>,
    strs: Counted<&'a str>,
    dates: CountedRendered<i32>,
}

/// Count one more row of a value whose width is known.
fn tally<T: std::hash::Hash + Eq>(counts: &mut Counted<T>, v: T) {
    *counts.entry(v).or_insert(0) += 1;
}

/// Count one more row of a value, rendering it (`width`) when it is new;
/// its width.
fn tally_rendered<T: std::hash::Hash + Eq>(
    counts: &mut CountedRendered<T>,
    v: T,
    width: impl FnOnce() -> usize,
) -> usize {
    let (w, n) = counts.entry(v).or_insert_with(|| (width(), 0));
    *n += 1;
    *w
}

/// The [`TAIL_VALUES`] smallest and largest keys of `counts` by `cmp`,
/// each made a [`Value`] by `value`, with its count.
fn tails_of<K: Copy>(
    counts: impl Iterator<Item = (K, u64)>,
    cmp: impl Fn(&K, &K) -> Ordering,
    value: impl Fn(K) -> Value,
) -> Tails {
    let mut keys: Vec<(K, u64)> = counts.collect();
    let (n, take) = (keys.len(), keys.len().min(TAIL_VALUES));
    let by_key = |a: &(K, u64), b: &(K, u64)| cmp(&a.0, &b.0);
    let kept = |end: &mut [(K, u64)]| {
        end.sort_unstable_by(by_key);
        end.iter().map(|&(k, c)| (value(k), c)).collect::<Vec<_>>()
    };
    if take < n {
        keys.select_nth_unstable_by(take, by_key);
    }
    let low = kept(&mut keys[..take]);
    if take < n {
        keys.select_nth_unstable_by(n - take - 1, by_key);
    }
    let mut high = kept(&mut keys[n - take..]);
    high.reverse();
    Tails { low, high }
}

impl<'a> ColumnAccumulator<'a> {
    /// `field` is scratch space for rendering a value.
    fn add(&mut self, v: &'a Value, field: &mut String) {
        let rendered_width = || {
            field.clear();
            v.write_csv_field(field);
            field.len()
        };
        self.width += match v {
            Value::Null => {
                self.nulls += 1;
                return;
            }
            Value::Bool(b) => {
                tally(&mut self.bools, *b);
                if *b {
                    "true".len()
                } else {
                    "false".len()
                }
            }
            Value::Int(i) => {
                tally(&mut self.ints, *i);
                // Decimal digits, and the sign.
                let digits = i.unsigned_abs().checked_ilog10().map_or(1, |d| d + 1);
                usize::from(*i < 0) + digits as usize
            }
            Value::Float(f) => {
                // Every NaN renders as `NaN`: one distinct value.
                let bits = if f.is_nan() { f64::NAN } else { *f }.to_bits();
                tally_rendered(&mut self.floats, bits, rendered_width)
            }
            Value::Str(s) => {
                tally(&mut self.strs, s);
                s.len()
            }
            Value::Date(d) => tally_rendered(&mut self.dates, *d, rendered_width),
        };
        if self.min.is_none_or(|m| v.total_cmp(m) == Ordering::Less) {
            self.min = Some(v);
        }
        if self.max.is_none_or(|m| v.total_cmp(m) == Ordering::Greater) {
            self.max = Some(v);
        }
    }

    /// Distinct CSV renderings. Within one type distinct values render
    /// distinctly; across types they can collide (`Int(1)` and
    /// `Str("1")`), so a column that mixes types is settled on the
    /// rendered text of its distinct values.
    fn ndv(&self) -> u64 {
        if self.one_type() {
            return self.per_type().iter().sum::<usize>() as u64;
        }
        let texts: HashSet<String> = self.values().map(|(v, _)| v.to_csv_field()).collect();
        texts.len() as u64
    }

    /// Distinct values per type.
    fn per_type(&self) -> [usize; 5] {
        [
            self.bools.len(),
            self.ints.len(),
            self.floats.len(),
            self.strs.len(),
            self.dates.len(),
        ]
    }

    /// Whether the non-null values seen are all of one type (or none).
    fn one_type(&self) -> bool {
        self.per_type().iter().filter(|&&n| n > 0).count() <= 1
    }

    /// Every distinct value with its row count, per type.
    fn values(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        let bools = self.bools.iter().map(|(&b, &n)| (Value::Bool(b), n));
        let ints = self.ints.iter().map(|(&i, &n)| (Value::Int(i), n));
        let floats = (self.floats.iter()).map(|(&f, &(_, n))| (Value::Float(f64::from_bits(f)), n));
        let strs = self
            .strs
            .iter()
            .map(|(&s, &n)| (Value::Str(s.to_string()), n));
        let dates = (self.dates.iter()).map(|(&d, &(_, n))| (Value::Date(d), n));
        bools.chain(ints).chain(floats).chain(strs).chain(dates)
    }

    /// [`ColumnStats::tails`], for a column of one type: its keys are
    /// ordered as their values are, and only the kept ones become
    /// [`Value`]s.
    fn tails(&self) -> Option<Tails> {
        let float = |bits: &u64| f64::from_bits(*bits);
        let by_value = |a: &u64, b: &u64| float(a).total_cmp(&float(b));
        let bools = self.bools.iter().map(|(&b, &n)| (b, n));
        let ints = self.ints.iter().map(|(&i, &n)| (i, n));
        let floats = self.floats.iter().map(|(&f, &(_, n))| (f, n));
        let strs = self.strs.iter().map(|(&s, &n)| (s, n));
        let dates = self.dates.iter().map(|(&d, &(_, n))| (d, n));
        // Which of [bools, ints, floats, strs, dates] the column holds.
        Some(match self.per_type().map(|n| n > 0) {
            _ if !self.one_type() => return None,
            [true, ..] => tails_of(bools, Ord::cmp, Value::Bool),
            [_, _, true, ..] => tails_of(floats, by_value, |f| Value::Float(float(&f))),
            [.., true, _] => tails_of(strs, Ord::cmp, |s| Value::Str(s.into())),
            [.., true] => tails_of(dates, Ord::cmp, Value::Date),
            _ => tails_of(ints, Ord::cmp, Value::Int),
        })
    }

    /// The column's statistics over `n` rows.
    fn finish(self, n: u64) -> ColumnStats {
        let fraction = |part: f64| if n == 0 { 0.0 } else { part / n as f64 };
        ColumnStats {
            ndv: self.ndv(),
            tails: self.tails(),
            min: self.min.cloned().unwrap_or(Value::Null),
            max: self.max.cloned().unwrap_or(Value::Null),
            null_fraction: fraction(self.nulls as f64),
            avg_width: fraction(self.width as f64),
        }
    }
}

/// A table registered in the catalog: schema + location + format.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub bucket: String,
    /// Partitions live at `<prefix>/part-NNNNN.<ext>`.
    pub prefix: String,
    pub schema: Schema,
    pub format: InputFormat,
    /// Total row count, known at load time (used by sampling phases to
    /// size LIMITs; a real system would keep this statistic in a catalog).
    pub row_count: u64,
    /// Column statistics for the cost-based optimizer. Loaders fill these
    /// in; `None` (a table registered by hand) makes the estimator fall
    /// back to schema-derived defaults. Shared — cloning a `Table` does
    /// not copy the statistics.
    pub stats: Option<Arc<TableStats>>,
}

/// A name → [`Table`] registry shared by every scope of a
/// [`QueryContext`](crate::context::QueryContext).
///
/// Multi-table SQL (`FROM a JOIN b ON ...`) resolves its join tables
/// here: the planner's `execute_sql*` entry points take the *primary*
/// table as an argument (their signatures predate joins and ignore the
/// FROM name, like the paper's testbed), and every additional table in
/// the statement is looked up by name. Loaders don't register
/// automatically — populate it with [`Catalog::register`] or
/// [`QueryContext::with_tables`](crate::context::QueryContext::with_tables);
/// `pushdown_tpch::tpch_context` registers all eight TPC-H tables.
///
/// Lookup is case-insensitive. Cloning shares the registry (scoped
/// contexts see later registrations).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Arc<std::sync::RwLock<std::collections::HashMap<String, Table>>>,
}

impl Catalog {
    /// Register (or replace) a table under its own name.
    pub fn register(&self, table: Table) {
        self.tables
            .write()
            .expect("catalog lock")
            .insert(table.name.to_ascii_lowercase(), table);
    }

    /// Case-insensitive lookup.
    pub fn resolve(&self, name: &str) -> Option<Table> {
        self.tables
            .read()
            .expect("catalog lock")
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Registered table names, sorted (for error messages).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .read()
            .expect("catalog lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

impl Table {
    /// Whether `other` names the same stored table: the same bucket and
    /// partition prefix.
    pub fn same(&self, other: &Table) -> bool {
        self.bucket == other.bucket && self.prefix == other.prefix
    }

    /// Keys of all partitions, in order.
    pub fn partitions(&self, store: &S3Store) -> Vec<String> {
        store.list_objects(&self.bucket, &format!("{}/", self.prefix))
    }

    /// Total stored bytes.
    pub fn total_bytes(&self, store: &S3Store) -> u64 {
        store.total_size(&self.bucket, &format!("{}/", self.prefix))
    }

    /// The statistics of column `col` if they are exact: counted over as
    /// many rows as the table has, so not over rows it has since lost or
    /// gained.
    fn exact_column(&self, col: &str) -> Option<&ColumnStats> {
        let stats = self.stats.as_deref()?;
        if stats.row_count != self.row_count {
            return None;
        }
        stats.column(self.schema.resolve(col).ok()?)
    }

    /// Whether a row can have a NULL in column `col`: yes, unless the
    /// table's statistics looked at every row and saw none. Decides
    /// whether a predicate written at run time (the hybrid group-by's
    /// tail, the top-K threshold) has to ask for the NULL rows by name.
    pub(crate) fn may_be_null(&self, col: &str) -> bool {
        self.exact_column(col).is_none_or(|c| c.null_fraction > 0.0)
    }

    /// Every distinct non-null value of column `col` with its row count,
    /// in [`Value::total_cmp`] order: the low tail of exact statistics, for
    /// a column with at most [`DICTIONARY_MAX_VALUES`] of them (see the
    /// module docs).
    pub fn dictionary(&self, col: &str) -> Option<&[(Value, u64)]> {
        let c = self.exact_column(col)?;
        let few = c.ndv <= DICTIONARY_MAX_VALUES as u64;
        Some(&c.tails.as_ref().filter(|_| few)?.low)
    }

    /// Whether a row can have a NaN in column `col`: a FLOAT column can,
    /// unless exact statistics saw none — NaN sorts at an end of
    /// [`Value::total_cmp`], so it would be the minimum or the maximum.
    pub(crate) fn may_be_nan(&self, col: &str) -> bool {
        let dtype = self.schema.resolve(col).map(|i| self.schema.dtype_of(i));
        let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
        let seen = |c: &ColumnStats| nan(&c.min) || nan(&c.max);
        dtype.is_ok_and(|d| d == DataType::Float) && self.exact_column(col).is_none_or(seen)
    }

    /// Column `col`'s leading values in query order — ascending or not,
    /// by [`Value::total_cmp`], NULL first ascending and last descending —
    /// as far as the [`ColumnStats::tails`] of exact statistics list them,
    /// each with the number of rows at or before it.
    fn ranked(&self, col: &str, asc: bool) -> Option<impl Iterator<Item = (&Value, u64)> + '_> {
        let stats = self.exact_column(col)?;
        let tails = stats.tails.as_ref()?;
        let nulls = (stats.null_fraction * self.row_count as f64).round() as u64;
        let tail = if asc { &tails.low } else { &tails.high };
        let listed: u64 = tail.iter().map(|(_, n)| n).sum();
        let lead = (asc && nulls > 0).then_some((&Value::Null, nulls));
        // Descending, the NULLs follow the tail once it lists every value.
        let every = listed + nulls == self.row_count;
        let trail = (!asc && nulls > 0 && every).then_some((&Value::Null, self.row_count));
        let mut seen = lead.map_or(0, |(_, n)| n);
        let values = tail.iter().map(move |(v, n)| {
            seen += n;
            (v, seen)
        });
        Some(lead.into_iter().chain(values).chain(trail))
    }

    /// The `k`-th value of column `col` in `ORDER BY col [ASC | DESC]`
    /// order ([`Value::total_cmp`]: NULLs first ascending, last
    /// descending), read off exact statistics' [`ColumnStats::tails`]:
    /// `None` when there are none, for `k` of 0 or beyond the table, and
    /// when the `k`-th value lies past the tail.
    pub fn kth(&self, col: &str, asc: bool, k: usize) -> Option<Value> {
        let mut ranked = self.ranked(col, asc).filter(|_| k > 0)?;
        let (v, _) = ranked.find(|&(_, seen)| seen >= k as u64)?;
        Some(v.clone())
    }

    /// How many rows sort at or before `t` in that order, by the tails:
    /// `None` where [`Table::kth`] could not have answered `t`.
    pub(crate) fn rows_through(&self, col: &str, asc: bool, t: &Value) -> Option<u64> {
        let (_, seen) = self.ranked(col, asc)?.find(|(v, _)| *v == t)?;
        Some(seen)
    }

    /// The chunk layout a cached read of partition `key`, `object_len`
    /// bytes long, caches along: a ColumnarLite partition's column-chunk
    /// extents as the loader wrote them (the footer a segment of its own,
    /// [`SegmentBytes`]), a CSV partition's fixed blocks of `chunk_bytes`
    /// ([`crate::context::QueryContext::cache_chunk_bytes`]). A
    /// ColumnarLite partition the statistics have no extents for is one
    /// whole-object chunk. Extents of an object rewritten since load are
    /// the reader's to distrust: the store's read and the cache's
    /// occupancy hold every layout to the object's current length
    /// ([`pushdown_cache::normalize_chunk_layout`]), and a read of named
    /// segments to the footer it finds.
    pub fn cache_layout(&self, key: &str, object_len: u64, chunk_bytes: u64) -> Vec<(u64, u64)> {
        match self.format {
            InputFormat::Columnar => (self.stats.as_deref())
                .and_then(|s| s.segments.as_ref()?.extents.get(key).cloned())
                .unwrap_or_else(|| vec![(0, object_len)]),
            InputFormat::Csv => {
                let step = chunk_bytes.max(1);
                (0..object_len)
                    .step_by(step as usize)
                    .map(|first| (first, (first + step).min(object_len)))
                    .collect()
            }
        }
    }

    /// Replace the attached statistics.
    pub fn with_stats(mut self, stats: TableStats) -> Table {
        self.stats = Some(Arc::new(stats));
        self
    }
}

fn partition_key(prefix: &str, i: usize, ext: &str) -> String {
    format!("{prefix}/part-{i:05}.{ext}")
}

/// Run a loader's encode loop while a second thread gathers the
/// load-time statistics of the same rows (the pass costs about as much
/// as encoding them).
fn encode_beside_stats(schema: &Schema, rows: &[Row], encode: impl FnOnce()) -> TableStats {
    std::thread::scope(|s| {
        let stats = s.spawn(|| TableStats::from_rows(schema, rows));
        encode();
        stats.join().expect("statistics thread panicked")
    })
}

/// Write rows as a partitioned CSV table (with header rows) and register
/// it. Not metered: loading happens outside query execution (§II-B).
pub fn upload_csv_table(
    store: &S3Store,
    bucket: &str,
    name: &str,
    schema: &Schema,
    rows: &[Row],
    rows_per_partition: usize,
) -> Result<Table> {
    store.create_bucket(bucket);
    let per = rows_per_partition.max(1);
    let stats = encode_beside_stats(schema, rows, || {
        for (p, chunk) in rows.chunks(per).enumerate() {
            let mut w = CsvWriter::with_header(schema);
            for r in chunk {
                w.write_row(r);
            }
            store.put_object(bucket, &partition_key(name, p, "csv"), w.finish());
        }
        if rows.is_empty() {
            // Empty tables still get one (header-only) partition so scans
            // see a well-formed object.
            let w = CsvWriter::with_header(schema);
            store.put_object(bucket, &partition_key(name, 0, "csv"), w.finish());
        }
    });
    Ok(Table {
        name: name.to_string(),
        bucket: bucket.to_string(),
        prefix: name.to_string(),
        schema: schema.clone(),
        format: InputFormat::Csv,
        row_count: rows.len() as u64,
        stats: Some(Arc::new(stats)),
    })
}

/// Write rows as a partitioned ColumnarLite table and register it.
///
/// An empty string is written as NULL, as the CSV loader's encoding
/// stores it: a Select response is CSV whatever the object's format
/// (§IX), so a pushed scan reads `''` back as NULL, and a local decode
/// must read the same table.
pub fn upload_columnar_table(
    store: &S3Store,
    bucket: &str,
    name: &str,
    schema: &Schema,
    rows: &[Row],
    rows_per_partition: usize,
    options: WriterOptions,
) -> Result<Table> {
    let empty = |v: &Value| matches!(v, Value::Str(s) if s.is_empty());
    let normalized: Vec<Row>;
    let rows = if rows.iter().any(|r| r.values().iter().any(empty)) {
        normalized = rows
            .iter()
            .map(|r| {
                let null_if_empty = |v: &Value| if empty(v) { Value::Null } else { v.clone() };
                Row::new(r.values().iter().map(null_if_empty).collect())
            })
            .collect();
        &normalized[..]
    } else {
        rows
    };
    store.create_bucket(bucket);
    let per = rows_per_partition.max(1);
    let mut segments = SegmentBytes::default();
    let mut stats = encode_beside_stats(schema, rows, || {
        let mut put = |p: usize, chunk: &[Row]| {
            let bytes = Bytes::from(encode_columnar(schema, chunk, options));
            let reader = ColumnarReader::open(bytes.clone()).expect("a file just encoded opens");
            let key = partition_key(name, p, "clt");
            segments.add(&key, &reader);
            store.put_object(bucket, &key, bytes);
        };
        for (p, chunk) in rows.chunks(per).enumerate() {
            put(p, chunk);
        }
        if rows.is_empty() {
            put(0, &[]);
        }
    });
    stats.segments = Some(segments);
    Ok(Table {
        name: name.to_string(),
        bucket: bucket.to_string(),
        prefix: name.to_string(),
        schema: schema.clone(),
        format: InputFormat::Columnar,
        row_count: rows.len() as u64,
        stats: Some(Arc::new(stats)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::{DataType, Value};

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::Str(format!("r{i}"))]))
            .collect()
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)])
    }

    #[test]
    fn csv_upload_partitions_and_lists() {
        let store = S3Store::new();
        let t = upload_csv_table(&store, "b", "t", &schema(), &rows(250), 100).unwrap();
        assert_eq!(t.partitions(&store).len(), 3);
        assert_eq!(t.row_count, 250);
        assert!(t.total_bytes(&store) > 0);
        assert_eq!(t.partitions(&store)[0], "t/part-00000.csv");
    }

    #[test]
    fn empty_table_gets_one_partition() {
        let store = S3Store::new();
        let t = upload_csv_table(&store, "b", "empty", &schema(), &[], 100).unwrap();
        assert_eq!(t.partitions(&store).len(), 1);
        let u = upload_columnar_table(
            &store,
            "b",
            "empty2",
            &schema(),
            &[],
            100,
            WriterOptions::default(),
        )
        .unwrap();
        assert_eq!(u.partitions(&store).len(), 1);
    }

    #[test]
    fn columnar_upload() {
        let store = S3Store::new();
        let t = upload_columnar_table(
            &store,
            "b",
            "t",
            &schema(),
            &rows(100),
            40,
            WriterOptions::default(),
        )
        .unwrap();
        assert_eq!(t.partitions(&store).len(), 3);
        assert_eq!(t.format, InputFormat::Columnar);
    }

    #[test]
    fn load_time_statistics_are_exact() {
        let store = S3Store::new();
        let t = upload_csv_table(&store, "b", "t", &schema(), &rows(100), 40).unwrap();
        let s = t.stats.as_ref().expect("loader attaches stats");
        assert_eq!(s.row_count, 100);
        let k = s.column(0).unwrap();
        assert_eq!(k.min, Value::Int(0));
        assert_eq!(k.max, Value::Int(99));
        assert_eq!(k.ndv, 100);
        assert_eq!(k.null_fraction, 0.0);
        let name = s.column(1).unwrap();
        assert_eq!(name.ndv, 100);
        assert!(name.avg_width > 2.0);
        // Row-width estimate tracks the real object size closely.
        let est = s.avg_row_bytes() * 100.0;
        let header = 4.0; // "k,s\n" per partition ≈ noise
        let actual = t.total_bytes(&store) as f64 - 3.0 * header;
        assert!((est - actual).abs() / actual < 0.05, "{est} vs {actual}");
    }

    /// Exact statistics keep every value of a low-cardinality column with
    /// its row count — up to `DICTIONARY_MAX_VALUES` values of one type —
    /// and statistics of another row count are distrusted.
    #[test]
    fn exact_statistics_keep_small_dictionaries() {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("wide", DataType::Int),
            ("mixed", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..99i64)
            .map(|i| {
                let k = if i % 4 == 3 {
                    Value::Null
                } else {
                    Value::Int(i % 3)
                };
                let mixed = if i == 0 {
                    Value::Str("0".into())
                } else {
                    Value::Int(1)
                };
                let s = Value::Str(format!("s{}", i % 32));
                Row::new(vec![k, s, Value::Int(i % 33), mixed])
            })
            .collect();
        let store = S3Store::new();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 40).unwrap();
        let count = |col: usize, v: &Value| {
            let of = |r: &&Row| r.values()[col] == *v && !r.values()[col].is_null();
            rows.iter().filter(of).count() as u64
        };
        let k: Vec<(Value, u64)> = (0..3)
            .map(|v| (Value::Int(v), count(0, &Value::Int(v))))
            .collect();
        assert_eq!(t.dictionary("k"), Some(&k[..]), "NULLs are no value");
        assert_eq!(
            t.dictionary("s").map(<[_]>::len),
            Some(DICTIONARY_MAX_VALUES)
        );
        assert_eq!(t.dictionary("wide"), None, "33 values");
        assert_eq!(t.dictionary("mixed"), None, "two types");
        // Statistics of another row count are not this table's.
        let other = TableStats::from_rows(&schema, &rows[..50]);
        assert_eq!(t.clone().with_stats(other).dictionary("k"), None);
    }

    /// `Table::kth` reads the K-th value in `ORDER BY` order off the
    /// tails: NULLs first ascending and last descending, ties counted
    /// row by row, NaN after every number, and nothing past the tails,
    /// beyond the table or from statistics of another row count.
    #[test]
    fn kth_reads_the_tails_in_query_order() {
        let schema = Schema::from_pairs(&[
            ("wide", DataType::Int),
            ("few", DataType::Int),
            ("f", DataType::Float),
        ]);
        // `wide`: 300 values twice each, ten NULLs; `few`: 0..3 and
        // NULLs; `f`: NaN, -0.0, 0.0 and 1.0.
        let n = TAIL_VALUES as i64 + 44;
        let rows: Vec<Row> = (0..2 * n + 10)
            .map(|i| {
                let wide = if i < 2 * n {
                    Value::Int(i / 2)
                } else {
                    Value::Null
                };
                let few = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 3)
                };
                let f = [f64::NAN, -0.0, 0.0, 1.0][i as usize % 4];
                Row::new(vec![wide, few, Value::Float(f)])
            })
            .collect();
        let store = S3Store::new();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 64).unwrap();
        let rows = rows.len();
        let tail = 2 * TAIL_VALUES;
        let int = |i: usize| Some(Value::Int(i as i64));
        assert_eq!(t.kth("wide", true, 0), None);
        assert_eq!(t.kth("wide", true, 10), Some(Value::Null));
        assert_eq!(t.kth("wide", true, 11), int(0));
        assert_eq!(t.kth("wide", true, 12), int(0), "a tie");
        assert_eq!(t.kth("wide", true, 13), int(1));
        assert_eq!(t.kth("wide", true, 10 + tail), int(TAIL_VALUES - 1));
        assert_eq!(t.kth("wide", true, 11 + tail), None, "past the tail");
        assert_eq!(t.kth("wide", false, 1), int(n as usize - 1));
        assert_eq!(t.kth("wide", false, tail), int(n as usize - TAIL_VALUES));
        assert_eq!(t.kth("wide", false, tail + 1), None, "past the tail");
        assert_eq!(t.kth("wide", false, rows), None, "NULLs past the tail");
        // A column the tails list whole: the NULLs trail it descending.
        let nulls = rows.div_ceil(5);
        assert_eq!(t.kth("few", false, rows - nulls), int(0));
        assert_eq!(t.kth("few", false, rows - nulls + 1), Some(Value::Null));
        assert_eq!(t.kth("few", false, rows), Some(Value::Null));
        assert_eq!(t.kth("few", false, rows + 1), None, "beyond the table");
        assert_eq!(t.kth("few", true, nulls), Some(Value::Null));
        let float = |f: f64| Some(Value::Float(f));
        // As many NaN rows as `-0.0` ones.
        let nans = rows.div_ceil(4);
        assert_eq!(t.kth("f", false, nans), float(f64::NAN));
        assert_eq!(t.kth("f", false, nans + 1), float(1.0));
        assert_eq!(t.kth("f", true, nans), float(-0.0));
        assert_eq!(t.kth("f", true, nans + 1), float(0.0));
        let stale = t.clone().with_stats(TableStats::from_rows(&schema, &[]));
        assert_eq!(stale.kth("few", true, 1), None, "stale statistics");
    }

    #[test]
    fn empty_and_null_columns_have_null_stats() {
        let s = TableStats::from_rows(
            &schema(),
            &[
                Row::new(vec![Value::Null, Value::Null]),
                Row::new(vec![Value::Int(3), Value::Null]),
            ],
        );
        assert_eq!(s.column(0).unwrap().null_fraction, 0.5);
        assert_eq!(s.column(0).unwrap().min, Value::Int(3));
        assert!(s.column(1).unwrap().min.is_null());
        assert_eq!(s.column(1).unwrap().ndv, 0);
        assert_eq!(s.column(1).unwrap().null_fraction, 1.0);
        let empty = TableStats::from_rows(&schema(), &[]);
        assert_eq!(empty.row_count, 0);
        assert!(empty.column(0).unwrap().min.is_null());
    }

    #[test]
    fn uploads_are_not_metered() {
        let store = S3Store::new();
        upload_csv_table(&store, "b", "t", &schema(), &rows(50), 10).unwrap();
        assert_eq!(store.ledger().snapshot().requests, 0);
    }
}
