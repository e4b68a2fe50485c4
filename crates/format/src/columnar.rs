//! ColumnarLite: the Parquet-style columnar format of the Fig-11
//! experiments.
//!
//! Apache Parquet itself is out of scope (no third-party format crates on
//! the dependency allowlist), so this module implements a columnar format
//! with the properties the paper's §IX evaluation actually depends on:
//!
//! * **row groups** — horizontal partitions ("logical partitioning of the
//!   data into rows", paper §IX), so scans parallelize and prune;
//! * **column chunks** — a scan that touches 1 of 20 columns reads ~1/20
//!   of the bytes, which is the entire CSV-vs-Parquet story of Fig 11;
//! * **per-chunk min/max statistics** — row-group pruning for selective
//!   predicates;
//! * **dictionary encoding** for low-cardinality strings and
//! * **block compression** (the [`crate::compress`] codec standing in for
//!   Snappy).
//!
//! ## Layout
//!
//! ```text
//! "CLT1" | chunk 0,0 | chunk 0,1 | ... | chunk g,c | footer | u32 footer_len | "CLT1"
//! ```
//!
//! The footer carries the schema and per-chunk metadata (offset, sizes,
//! encoding, stats) in a hand-rolled little-endian binary encoding; readers
//! parse the footer, then fetch only the chunks a query needs. That is
//! the file's cache layout too ([`ColumnarReader::chunk_extents`]): one
//! segment per column chunk, the leading magic in the first, and the
//! footer (with its length and the trailing magic) as the last. A warm
//! cached scan reads the footer segment and the chunks of the columns it
//! decodes ([`ColumnarReader::extents_of`]) and opens a reader over just
//! those segments, uncopied ([`ColumnarReader::open_parts`]); a chunk it
//! was not handed is an error when read, never a panic.

use crate::compress;
use bytes::Bytes;
use pushdown_common::columnar::{Column, ColumnData, ColumnarBatch};
use pushdown_common::{DataType, Error, Field, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CLT1";

/// Encoding of a column chunk's value stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Plain = 0,
    /// String dictionary: distinct values stored once, rows store `u32`
    /// codes. Chosen automatically for repetitive string columns.
    Dict = 1,
}

/// Per-chunk metadata (one column within one row group).
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    /// Byte offset of the (possibly compressed) chunk in the file.
    pub offset: u64,
    /// Stored (on-disk) byte length.
    pub stored_len: u64,
    /// Raw (decompressed) byte length.
    pub raw_len: u64,
    pub encoding: Encoding,
    pub compressed: bool,
    /// Min/max of non-null values, if any non-null value exists.
    pub stats: Option<(Value, Value)>,
}

/// Per-row-group metadata.
#[derive(Debug, Clone)]
pub struct RowGroupMeta {
    pub row_count: u64,
    pub chunks: Vec<ChunkMeta>,
}

// ---------------------------------------------------------------------
// binary encoding helpers
// ---------------------------------------------------------------------

struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(2);
                self.0.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.u8(3);
                self.0.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                self.u8(4);
                self.bytes(s.as_bytes());
            }
            Value::Date(d) => {
                self.u8(5);
                self.0.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    fn need(&self, n: usize) -> Result<()> {
        if n > self.remaining() {
            Err(Error::Corrupt("truncated columnar metadata".into()))
        } else {
            Ok(())
        }
    }
    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.raw(N)?);
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }
    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }
    fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.raw(n)
    }
    /// `count` values of `N` bytes each, decoded by `f` — the stream is
    /// checked to hold them all before anything is allocated, so a
    /// corrupt count fails instead of sizing an allocation.
    fn fixed<const N: usize, T>(&mut self, count: usize, f: fn([u8; N]) -> T) -> Result<Vec<T>> {
        let bytes = self.raw(count.checked_mul(N).ok_or_else(too_many)?)?;
        Ok(bytes.as_chunks::<N>().0.iter().map(|&b| f(b)).collect())
    }
    /// Room for `count` items read from this stream, each at least `min`
    /// bytes long: never more than the bytes left could hold.
    fn capacity(&self, count: usize, min: usize) -> usize {
        count.min(self.remaining() / min.max(1))
    }
    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(i64::from_le_bytes(self.array()?)),
            3 => Value::Float(f64::from_le_bytes(self.array()?)),
            4 => Value::Str(
                std::str::from_utf8(self.bytes()?)
                    .map_err(|_| Error::Corrupt("non-UTF8 string in metadata".into()))?
                    .to_string(),
            ),
            5 => Value::Date(i32::from_le_bytes(self.array()?)),
            t => return Err(Error::Corrupt(format!("unknown value tag {t}"))),
        })
    }
}

/// A count in the metadata that no file could hold.
fn too_many() -> Error {
    Error::Corrupt("columnar count out of range".into())
}

// ---------------------------------------------------------------------
// chunk encoding
// ---------------------------------------------------------------------

/// Does a value store losslessly in a column of `dtype`? (NULLs always
/// do — the validity bitmap carries them.)
fn matches_dtype(v: &Value, dtype: DataType) -> bool {
    matches!(
        (dtype, v),
        (_, Value::Null)
            | (DataType::Int, Value::Int(_))
            | (DataType::Float, Value::Float(_))
            | (DataType::Date, Value::Date(_))
            | (DataType::Bool, Value::Bool(_))
            | (DataType::Str, Value::Str(_))
    )
}

/// The value a wrong-typed entry is stored (and later decoded) as: the
/// encoders below write a fixed default when a non-null value does not
/// match the column's declared type.
fn coerce_to_dtype(v: &Value, dtype: DataType) -> Value {
    if matches_dtype(v, dtype) {
        return v.clone();
    }
    match dtype {
        DataType::Int => Value::Int(0),
        DataType::Float => Value::Float(0.0),
        DataType::Date => Value::Date(0),
        DataType::Bool => Value::Bool(false),
        DataType::Str => Value::Str(String::new()),
    }
}

/// Encode one column of one row group (raw, pre-compression):
/// validity bitmap, then the value stream per the chosen encoding.
fn encode_chunk(values: &[&Value], dtype: DataType) -> (Vec<u8>, Encoding, Option<(Value, Value)>) {
    // Coerce wrong-typed entries to the declared type *first*: the byte
    // stream below stores the coerced value, so the min/max statistics
    // must be computed over the coerced data too — stats over the
    // original values would not bound what a reader decodes, and
    // row-group pruning could skip a group whose stored values still
    // match a predicate. Well-typed chunks (the common case) borrow the
    // caller's values; only chunks with a mismatch pay the clone.
    let (coerced, coerced_refs): (Vec<Value>, Vec<&Value>);
    let values: &[&Value] = if values.iter().all(|v| matches_dtype(v, dtype)) {
        values
    } else {
        coerced = values.iter().map(|v| coerce_to_dtype(v, dtype)).collect();
        coerced_refs = coerced.iter().collect();
        &coerced_refs
    };
    let n = values.len();
    let mut buf = Vec::new();
    // Validity bitmap.
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    for (i, v) in values.iter().enumerate() {
        if !v.is_null() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&bitmap);

    // Stats over non-null values (SQL comparison order).
    let mut stats: Option<(&Value, &Value)> = None;
    for &v in values.iter().filter(|v| !v.is_null()) {
        match &mut stats {
            None => stats = Some((v, v)),
            Some((lo, hi)) => {
                if v.total_cmp(lo) == std::cmp::Ordering::Less {
                    *lo = v;
                }
                if v.total_cmp(hi) == std::cmp::Ordering::Greater {
                    *hi = v;
                }
            }
        }
    }
    let stats = stats.map(|(lo, hi)| (lo.clone(), hi.clone()));

    let mut enc = Enc(&mut buf);
    let encoding = match dtype {
        DataType::Int => {
            for v in values {
                let x = if let Value::Int(i) = v { *i } else { 0 };
                enc.0.extend_from_slice(&x.to_le_bytes());
            }
            Encoding::Plain
        }
        DataType::Float => {
            for v in values {
                let x = if let Value::Float(f) = v { *f } else { 0.0 };
                enc.0.extend_from_slice(&x.to_le_bytes());
            }
            Encoding::Plain
        }
        DataType::Date => {
            for v in values {
                let x = if let Value::Date(d) = v { *d } else { 0 };
                enc.0.extend_from_slice(&x.to_le_bytes());
            }
            Encoding::Plain
        }
        DataType::Bool => {
            for v in values {
                enc.u8(matches!(v, Value::Bool(true)) as u8);
            }
            Encoding::Plain
        }
        DataType::Str => {
            // Choose dictionary encoding when it pays: few distinct values.
            let mut dict: Vec<&str> = Vec::new();
            let mut index: HashMap<&str, u32> = HashMap::new();
            let mut codes: Vec<u32> = Vec::with_capacity(n);
            for v in values {
                let s = if let Value::Str(s) = v {
                    s.as_str()
                } else {
                    ""
                };
                let code = *index.entry(s).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            let dict_bytes: usize = dict.iter().map(|s| s.len() + 4).sum();
            let plain_bytes: usize = values
                .iter()
                .map(|v| {
                    if let Value::Str(s) = v {
                        s.len() + 4
                    } else {
                        4
                    }
                })
                .sum();
            if n > 0 && dict.len() * 2 < n && dict_bytes + n * 4 < plain_bytes {
                enc.u32(dict.len() as u32);
                for s in &dict {
                    enc.bytes(s.as_bytes());
                }
                for c in codes {
                    enc.u32(c);
                }
                Encoding::Dict
            } else {
                for v in values {
                    let s = if let Value::Str(s) = v {
                        s.as_str()
                    } else {
                        ""
                    };
                    enc.bytes(s.as_bytes());
                }
                Encoding::Plain
            }
        }
    };
    (buf, encoding, stats)
}

/// Decode a chunk into a typed [`Column`] — no per-row [`Value`]
/// boxing, and dictionary chunks keep their codes + dictionary instead of
/// cloning a string per row. The one reader of the chunk wire layout.
fn decode_chunk_column(
    raw: &[u8],
    dtype: DataType,
    encoding: Encoding,
    row_count: usize,
) -> Result<Column> {
    let mut dec = Dec { data: raw, pos: 0 };
    let validity = dec.raw(row_count.div_ceil(8))?.to_vec();
    let is_valid = |i: usize| validity[i / 8] & (1 << (i % 8)) != 0;
    let data = match (dtype, encoding) {
        (DataType::Int, Encoding::Plain) => {
            ColumnData::Int(dec.fixed(row_count, i64::from_le_bytes)?)
        }
        (DataType::Float, Encoding::Plain) => {
            ColumnData::Float(dec.fixed(row_count, f64::from_le_bytes)?)
        }
        (DataType::Date, Encoding::Plain) => {
            ColumnData::Date(dec.fixed(row_count, i32::from_le_bytes)?)
        }
        (DataType::Bool, Encoding::Plain) => ColumnData::Bool(dec.fixed(row_count, |[b]| b != 0)?),
        (DataType::Str, Encoding::Plain) => {
            // Every value carries at least its 4-byte length.
            let mut v = Vec::with_capacity(dec.capacity(row_count, 4));
            for i in 0..row_count {
                let b = dec.bytes()?;
                if is_valid(i) {
                    let s = std::str::from_utf8(b)
                        .map_err(|_| Error::Corrupt("non-UTF8 string value".into()))?;
                    v.push(s.to_string());
                } else {
                    v.push(String::new());
                }
            }
            ColumnData::Str(v)
        }
        (DataType::Str, Encoding::Dict) => {
            let dict_len = dec.u32()? as usize;
            let mut dict = Vec::with_capacity(dec.capacity(dict_len, 4));
            for _ in 0..dict_len {
                let b = dec.bytes()?;
                dict.push(
                    std::str::from_utf8(b)
                        .map_err(|_| Error::Corrupt("non-UTF8 dictionary entry".into()))?
                        .to_string(),
                );
            }
            let mut codes = dec.fixed(row_count, u32::from_le_bytes)?;
            for (i, code) in codes.iter_mut().enumerate() {
                if (*code as usize) < dict.len() {
                    continue;
                }
                if is_valid(i) {
                    return Err(Error::Corrupt(format!(
                        "dictionary code {code} out of range"
                    )));
                }
                // Codes on NULL rows may index anything; clamp so
                // gather never panics.
                *code = 0;
            }
            ColumnData::DictStr {
                codes,
                dict: Arc::new(dict),
            }
        }
        (dt, enc) => {
            return Err(Error::Corrupt(format!(
                "encoding {enc:?} is invalid for {dt}"
            )))
        }
    };
    Ok(Column::new(data, validity))
}

// ---------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------

/// Options controlling the writer.
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Rows per row group (the paper used 100 MB groups; we size by rows).
    pub rows_per_group: usize,
    /// Whether to compress chunks (paper §IX tests both; compression is
    /// kept when it actually shrinks the chunk).
    pub compress: bool,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            rows_per_group: 65_536,
            compress: true,
        }
    }
}

/// Buffering columnar writer.
pub struct ColumnarWriter {
    schema: Schema,
    options: WriterOptions,
    out: Vec<u8>,
    groups: Vec<RowGroupMeta>,
    pending: Vec<Row>,
    compressor: compress::Compressor,
}

impl ColumnarWriter {
    pub fn new(schema: Schema, options: WriterOptions) -> Self {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        ColumnarWriter {
            schema,
            options,
            out,
            groups: Vec::new(),
            pending: Vec::new(),
            compressor: compress::Compressor::default(),
        }
    }

    pub fn write_row(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.pending.push(row);
        if self.pending.len() >= self.options.rows_per_group {
            self.flush_group();
        }
    }

    fn flush_group(&mut self) {
        let rows = std::mem::take(&mut self.pending);
        self.write_group(&rows);
    }

    /// Append `rows` as one row group (nothing for no rows), encoding
    /// every column chunk straight from the borrowed values.
    fn write_group(&mut self, rows: &[Row]) {
        if rows.is_empty() {
            return;
        }
        let mut chunks = Vec::with_capacity(self.schema.len());
        for (c, field) in self.schema.fields().iter().enumerate() {
            let col: Vec<&Value> = rows.iter().map(|r| &r[c]).collect();
            let (raw, encoding, stats) = encode_chunk(&col, field.dtype);
            let raw_len = raw.len() as u64;
            let z = self
                .options
                .compress
                .then(|| self.compressor.compress(&raw))
                .filter(|z| z.len() < raw.len());
            let compressed = z.is_some();
            let stored = z.unwrap_or(raw);
            chunks.push(ChunkMeta {
                offset: self.out.len() as u64,
                stored_len: stored.len() as u64,
                raw_len,
                encoding,
                compressed,
                stats,
            });
            self.out.extend_from_slice(&stored);
        }
        self.groups.push(RowGroupMeta {
            row_count: rows.len() as u64,
            chunks,
        });
    }

    /// Flush pending rows and append the footer; returns the file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_group();
        let mut footer = Vec::new();
        {
            let mut e = Enc(&mut footer);
            e.u16(self.schema.len() as u16);
            for f in self.schema.fields() {
                e.bytes(f.name.as_bytes());
                e.u8(match f.dtype {
                    DataType::Bool => 0,
                    DataType::Int => 1,
                    DataType::Float => 2,
                    DataType::Str => 3,
                    DataType::Date => 4,
                });
            }
            e.u32(self.groups.len() as u32);
            for g in &self.groups {
                e.u64(g.row_count);
                for c in &g.chunks {
                    e.u64(c.offset);
                    e.u64(c.stored_len);
                    e.u64(c.raw_len);
                    e.u8(c.encoding as u8);
                    e.u8(c.compressed as u8);
                    match &c.stats {
                        Some((lo, hi)) => {
                            e.u8(1);
                            e.value(lo);
                            e.value(hi);
                        }
                        None => e.u8(0),
                    }
                }
            }
        }
        let footer_len = footer.len() as u32;
        self.out.extend_from_slice(&footer);
        self.out.extend_from_slice(&footer_len.to_le_bytes());
        self.out.extend_from_slice(MAGIC);
        self.out
    }
}

/// Convenience: encode a whole table in one call. The file
/// [`ColumnarWriter::write_row`] would produce row by row, without
/// cloning the rows into the writer.
pub fn encode_columnar(schema: &Schema, rows: &[Row], options: WriterOptions) -> Vec<u8> {
    let mut w = ColumnarWriter::new(schema.clone(), options);
    for group in rows.chunks(options.rows_per_group.max(1)) {
        w.write_group(group);
    }
    w.finish()
}

// ---------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------

/// Reader over the bytes of a ColumnarLite file: the whole file
/// ([`ColumnarReader::open`]), or its footer segment and the chunk
/// segments a scan decodes ([`ColumnarReader::open_parts`]). Opening
/// checks the footer against the file — every chunk inside the data
/// region, every count within what the bytes could hold, every handed
/// run on a segment boundary —, so a damaged file is an error, never a
/// panic; so is reading a chunk the reader was not handed.
pub struct ColumnarReader {
    /// The bytes handed to the reader, as `(offset, bytes)` runs in file
    /// order, none overlapping.
    parts: Vec<(u64, Bytes)>,
    /// The file's length: where the last run, the footer segment, ends.
    len: u64,
    schema: Schema,
    groups: Vec<RowGroupMeta>,
    /// Where the footer starts: the end of the data region.
    footer_start: u64,
}

impl ColumnarReader {
    /// Open a whole file.
    pub fn open(data: Bytes) -> Result<Self> {
        Self::open_parts(vec![(0, data)])
    }

    /// Open from some of a file's segments ([`ColumnarReader::chunk_extents`]):
    /// `(offset, bytes)` runs in file order, each starting and ending on
    /// a segment boundary, the last of them ending the file and holding
    /// the footer — a footer segment plus the chunks a scan decodes, read
    /// in place, never copied into one buffer. The whole file is the one
    /// run `(0, file)`. Reading a chunk no run holds is a
    /// [`Error::Corrupt`] error.
    pub fn open_parts(parts: Vec<(u64, Bytes)>) -> Result<Self> {
        let corrupt = |what: &str| Err(Error::Corrupt(what.into()));
        let end = |(at, b): &(u64, Bytes)| at.checked_add(b.len() as u64).ok_or_else(too_many);
        for w in parts.windows(2) {
            if end(&w[0])? > w[1].0 {
                return corrupt("columnar segments overlap or are out of order");
            }
        }
        let Some(last) = parts.last() else {
            return corrupt("not a ColumnarLite file");
        };
        let (at, trailer) = (last.0, &last.1);
        let len = end(last)?;
        let leading = parts.first().filter(|(at, _)| *at == 0);
        if len < 12
            || trailer.len() < 8
            || &trailer[trailer.len() - 4..] != MAGIC
            || leading.is_some_and(|(_, b)| b.len() < 4 || &b[..4] != MAGIC)
        {
            return corrupt("not a ColumnarLite file");
        }
        let flen_pos = trailer.len() - 8;
        let mut t = Dec {
            data: &trailer[flen_pos..],
            pos: 0,
        };
        let footer_len = t.u32()? as u64;
        if footer_len + 12 > len {
            return corrupt("footer length out of range");
        }
        let footer_start = len - 8 - footer_len;
        if footer_start < at {
            return corrupt("footer outside the last segment");
        }
        let mut d = Dec {
            data: &trailer[(footer_start - at) as usize..flen_pos],
            pos: 0,
        };
        let n_cols = d.u16()? as usize;
        // A field is at least its 4-byte name length and a type tag.
        let mut fields = Vec::with_capacity(d.capacity(n_cols, 5));
        for _ in 0..n_cols {
            let name = std::str::from_utf8(d.bytes()?)
                .map_err(|_| Error::Corrupt("non-UTF8 column name".into()))?
                .to_string();
            let dtype = match d.u8()? {
                0 => DataType::Bool,
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Str,
                4 => DataType::Date,
                t => return Err(Error::Corrupt(format!("unknown dtype tag {t}"))),
            };
            fields.push(Field::new(name, dtype));
        }
        let n_groups = d.u32()? as usize;
        // A group is at least its row count and 27 bytes per chunk.
        let mut groups = Vec::with_capacity(d.capacity(n_groups, 8 + 27 * n_cols));
        for _ in 0..n_groups {
            let row_count = d.u64()?;
            let mut chunks = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let offset = d.u64()?;
                let stored_len = d.u64()?;
                let raw_len = d.u64()?;
                let encoding = match d.u8()? {
                    0 => Encoding::Plain,
                    1 => Encoding::Dict,
                    t => return Err(Error::Corrupt(format!("unknown encoding tag {t}"))),
                };
                let compressed = d.u8()? != 0;
                let stats = if d.u8()? != 0 {
                    Some((d.value()?, d.value()?))
                } else {
                    None
                };
                let end = offset.checked_add(stored_len).ok_or_else(too_many)?;
                if end > footer_start {
                    return Err(Error::Corrupt("chunk extends past data region".into()));
                }
                // A block expands at most `MAX_MATCH`-fold, and every row
                // is at least one byte of every chunk (a BOOL, its validity
                // bit beside it): the row count is bounded by the bytes.
                let expands = if compressed { compress::MAX_MATCH } else { 1 };
                if raw_len > stored_len.saturating_mul(expands as u64) || row_count > raw_len {
                    return Err(Error::Corrupt("chunk length out of range".into()));
                }
                chunks.push(ChunkMeta {
                    offset,
                    stored_len,
                    raw_len,
                    encoding,
                    compressed,
                    stats,
                });
            }
            if n_cols == 0 && row_count > 0 {
                return Err(Error::Corrupt("rows without columns".into()));
            }
            groups.push(RowGroupMeta { row_count, chunks });
        }
        let reader = ColumnarReader {
            parts,
            len,
            schema: Schema::new(fields),
            groups,
            footer_start,
        };
        let bounds = reader.chunk_extents();
        let on_boundary = |x: u64| x == len || bounds.binary_search_by_key(&x, |e| e.0).is_ok();
        for part in &reader.parts {
            if !on_boundary(part.0) || !on_boundary(end(part)?) {
                return corrupt("columnar segment off a chunk boundary");
            }
        }
        Ok(reader)
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The file's cache layout: one byte range per column chunk, in file
    /// order — the leading magic merged into the first — and the footer
    /// (with its length and the trailing magic) as the last range. The
    /// ranges cover the file contiguously, which is what the segment
    /// cache's layout contract requires; every open parses the footer,
    /// so it is a segment of its own, and a scan that decodes some
    /// columns reads the footer and their chunks
    /// ([`ColumnarReader::extents_of`]), nothing else.
    pub fn chunk_extents(&self) -> Vec<(u64, u64)> {
        let mut cuts: Vec<u64> = (self.groups.iter())
            .flat_map(|g| g.chunks.iter().map(|c| c.offset))
            .collect();
        cuts.sort_unstable();
        // The first chunk's start merges into the header range; the
        // footer gets its own cut.
        if !cuts.is_empty() {
            cuts.remove(0);
        }
        cuts.push(self.footer_start);
        cuts.retain(|&c| c > 0 && c < self.len);
        cuts.dedup();
        let mut ranges = Vec::with_capacity(cuts.len() + 1);
        let mut prev = 0u64;
        for c in cuts {
            ranges.push((prev, c));
            prev = c;
        }
        ranges.push((prev, self.len));
        ranges
    }

    /// The ranges of [`ColumnarReader::chunk_extents`] a scan decoding
    /// the columns `cols` reads: those holding a chunk of one of them in
    /// any row group, and the footer's — in file order.
    pub fn extents_of(&self, cols: &[usize]) -> Vec<(u64, u64)> {
        let extents = self.chunk_extents();
        let mut wanted = vec![false; extents.len()];
        if let Some(footer) = wanted.last_mut() {
            *footer = true;
        }
        for g in &self.groups {
            for c in cols.iter().filter_map(|&c| g.chunks.get(c)) {
                let end = c.offset + c.stored_len;
                let first = extents.partition_point(|e| e.1 <= c.offset);
                for (i, e) in extents.iter().enumerate().skip(first) {
                    if e.0 >= end {
                        break;
                    }
                    wanted[i] = true;
                }
            }
        }
        (extents.into_iter().zip(wanted))
            .filter_map(|(e, w)| w.then_some(e))
            .collect()
    }

    /// The stored bytes of one chunk, from the run holding them.
    fn chunk(&self, meta: &ChunkMeta) -> Result<&[u8]> {
        let end = meta.offset + meta.stored_len;
        let i = self.parts.partition_point(|(at, _)| *at <= meta.offset);
        i.checked_sub(1)
            .map(|i| &self.parts[i])
            .filter(|(at, b)| end <= at + b.len() as u64)
            .map(|(at, b)| &b[(meta.offset - at) as usize..(end - at) as usize])
            .ok_or_else(|| Error::Corrupt(format!("chunk at byte {} was not read", meta.offset)))
    }

    pub fn num_row_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn row_group(&self, g: usize) -> &RowGroupMeta {
        &self.groups[g]
    }

    /// What a Select decoding the columns `cols` of row group `g` scans,
    /// and bills (§IX): the stored size of each of their chunks — no
    /// header, no footer, no other column. The engine sums it over the
    /// groups it does not prune; the catalog sums it per column at load
    /// time, which is what the pricer charges a Select with.
    pub fn scanned_by(&self, g: usize, cols: &[usize]) -> u64 {
        let chunks = &self.groups[g].chunks;
        cols.iter().map(|&c| chunks[c].stored_len).sum()
    }

    /// Decode one column of one row group straight into a typed
    /// [`Column`] — the vectorized path. Dictionary chunks stay coded.
    pub fn read_column_vector(&self, g: usize, col: usize) -> Result<Column> {
        let (group, meta) = self
            .groups
            .get(g)
            .and_then(|group| Some((group, group.chunks.get(col)?)))
            .ok_or_else(|| Error::Corrupt(format!("no column {col} in row group {g}")))?;
        let stored = self.chunk(meta)?;
        let raw;
        let raw_slice: &[u8] = if meta.compressed {
            raw = compress::decompress(stored, meta.raw_len as usize).map_err(Error::Corrupt)?;
            &raw
        } else {
            stored
        };
        decode_chunk_column(
            raw_slice,
            self.schema.dtype_of(col),
            meta.encoding,
            group.row_count as usize,
        )
    }

    /// Decode one whole row group into a [`ColumnarBatch`] without
    /// materializing rows.
    pub fn read_group_batch(&self, g: usize) -> Result<ColumnarBatch> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.read_group_batch_projected(g, &all)
    }

    /// Decode selected columns of one row group into a [`ColumnarBatch`]
    /// (projected schema order = `cols` order).
    pub fn read_group_batch_projected(&self, g: usize, cols: &[usize]) -> Result<ColumnarBatch> {
        let columns: Vec<Column> = cols
            .iter()
            .map(|&c| self.read_column_vector(g, c))
            .collect::<Result<_>>()?;
        let n = self.groups[g].row_count as usize;
        Ok(ColumnarBatch::new(self.schema.project(cols), columns, n))
    }

    /// Decode all columns of all groups into rows (testing convenience).
    pub fn read_all(&self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for g in 0..self.groups.len() {
            rows.extend(self.read_group_batch(g)?.to_rows());
        }
        Ok(rows)
    }

    /// Can the given row group be skipped for a predicate `col op value`?
    /// Conservative: returns `true` only when the chunk stats prove no row
    /// can match.
    pub fn can_prune(&self, g: usize, col: usize, op: PruneOp, v: &Value) -> bool {
        let Some((lo, hi)) = &self.groups[g].chunks[col].stats else {
            return false;
        };
        use std::cmp::Ordering::*;
        let (lo_cmp, hi_cmp) = match (lo.sql_cmp(v), hi.sql_cmp(v)) {
            (Some(a), Some(b)) => (a, b),
            _ => return false,
        };
        match op {
            PruneOp::Eq => lo_cmp == Greater || hi_cmp == Less,
            PruneOp::Lt => lo_cmp != Less,      // all values >= v
            PruneOp::LtEq => lo_cmp == Greater, // all values > v
            PruneOp::Gt => hi_cmp != Greater,   // all values <= v
            PruneOp::GtEq => hi_cmp == Less,    // all values < v
        }
    }
}

/// Comparison shapes supported by row-group pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOp {
    Eq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("name", DataType::Str),
            ("bal", DataType::Float),
            ("d", DataType::Date),
            ("flag", DataType::Bool),
        ])
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("name-{}", i % 5)) // low cardinality -> dict
                    },
                    Value::Float(i as f64 * 0.5 - 10.0),
                    Value::Date(8000 + i as i32),
                    Value::Bool(i % 2 == 0),
                ])
            })
            .collect()
    }

    #[test]
    fn stats_describe_stored_values_on_mixed_type_chunks() {
        // A wrong-typed entry in an Int column is *stored* as 0; the chunk
        // statistics must bound the stored data, or pruning `k < 3` would
        // skip a group whose decoded values contain a match.
        let s = Schema::from_pairs(&[("k", DataType::Int)]);
        let rows = vec![
            Row::new(vec![Value::Int(5)]),
            Row::new(vec![Value::Float(100.0)]), // coerces to Int(0)
            Row::new(vec![Value::Int(9)]),
        ];
        let bytes = encode_columnar(&s, &rows, WriterOptions::default());
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert_eq!(
            r.read_column_vector(0, 0).unwrap().into_values(),
            vec![Value::Int(5), Value::Int(0), Value::Int(9)]
        );
        let (lo, hi) = r.row_group(0).chunks[0].stats.clone().unwrap();
        assert_eq!(lo, Value::Int(0), "min must cover the coerced value");
        assert_eq!(hi, Value::Int(9));
        assert!(
            !r.can_prune(0, 0, PruneOp::Lt, &Value::Int(3)),
            "group holds a stored 0 < 3; pruning it would change results"
        );
    }

    #[test]
    fn chunk_extents_cover_the_file_contiguously() {
        let rows = sample_rows(500);
        let opts = WriterOptions {
            rows_per_group: 100,
            ..WriterOptions::default()
        };
        let bytes = encode_columnar(&schema(), &rows, opts);
        let len = bytes.len() as u64;
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert_eq!(r.num_row_groups(), 5);
        let ext = r.chunk_extents();
        // 5 groups × 5 column chunks + the footer range, contiguous over
        // [0, len).
        assert_eq!(ext.len(), 26);
        assert_eq!(ext.first().unwrap().0, 0);
        assert_eq!(ext.last().unwrap().1, len);
        for w in ext.windows(2) {
            assert_eq!(w[0].1, w[1].0, "extents are contiguous");
        }
        // Every range but the first is exactly one chunk; the first
        // carries the 4-byte magic too.
        let chunks: Vec<&ChunkMeta> = (0..5).flat_map(|g| &r.row_group(g).chunks).collect();
        for (e, c) in ext.iter().zip(&chunks).skip(1) {
            assert_eq!(*e, (c.offset, c.offset + c.stored_len));
        }
        assert_eq!(ext[0], (0, 4 + chunks[0].stored_len));
        // A column's extents: its chunk in every group, and the footer.
        let of_name = r.extents_of(&[1]);
        assert_eq!(of_name.len(), 6);
        assert_eq!(of_name[5], *ext.last().unwrap());
        assert_eq!(r.extents_of(&[]), vec![*ext.last().unwrap()]);
        assert_eq!(r.extents_of(&[0, 1, 2, 3, 4]), ext);
        // A file without rows still splits its magic from its footer.
        let empty = encode_columnar(&schema(), &[], WriterOptions::default());
        let r = ColumnarReader::open(Bytes::from(empty)).unwrap();
        assert_eq!(r.chunk_extents().len(), 2);
        assert_eq!(r.chunk_extents()[0], (0, 4));
    }

    /// The segments of `bytes` named by `ranges`, as a scan hands them.
    fn parts_of(bytes: &Bytes, ranges: &[(u64, u64)]) -> Vec<(u64, Bytes)> {
        let slice =
            |&(first, last): &(u64, u64)| (first, bytes.slice(first as usize..last as usize));
        ranges.iter().map(slice).collect()
    }

    #[test]
    fn a_reader_of_the_footer_and_some_chunks_decodes_those_columns_only() {
        let rows = sample_rows(300);
        let opts = WriterOptions {
            rows_per_group: 64,
            compress: true,
        };
        let bytes = Bytes::from(encode_columnar(&schema(), &rows, opts));
        let whole = ColumnarReader::open(bytes.clone()).unwrap();
        let cols = [3usize, 1];
        let part = ColumnarReader::open_parts(parts_of(&bytes, &whole.extents_of(&cols))).unwrap();
        assert_eq!(part.schema(), whole.schema());
        assert_eq!(part.chunk_extents(), whole.chunk_extents());
        for g in 0..whole.num_row_groups() {
            let want = whole.read_group_batch_projected(g, &cols).unwrap();
            let got = part.read_group_batch_projected(g, &cols).unwrap();
            assert_eq!(got.to_rows(), want.to_rows());
            // A column it was not handed is an error, not a panic.
            let err = part.read_column_vector(g, 0).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err}");
            // Nor are columns needed to count a group's rows.
            assert_eq!(
                part.read_group_batch_projected(g, &[]).unwrap().len(),
                want.len()
            );
        }
        // The footer alone opens; neighbouring chunks may come as one run.
        let ext = whole.chunk_extents();
        let footer = *ext.last().unwrap();
        assert!(ColumnarReader::open_parts(parts_of(&bytes, &[footer])).is_ok());
        let run = (ext[1].0, ext[3].1);
        let r = ColumnarReader::open_parts(parts_of(&bytes, &[run, footer])).unwrap();
        assert_eq!(
            r.read_column_vector(0, 2).unwrap().into_values(),
            whole.read_column_vector(0, 2).unwrap().into_values()
        );
    }

    #[test]
    fn round_trip_single_group() {
        let rows = sample_rows(100);
        let bytes = encode_columnar(&schema(), &rows, WriterOptions::default());
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert_eq!(r.schema(), &schema());
        assert_eq!(r.num_row_groups(), 1);
        assert_eq!(r.read_all().unwrap(), rows);
    }

    #[test]
    fn group_batch_decode_matches_row_decode() {
        // The vectorized decode must agree with the row decode on every
        // group, including dict-encoded strings and NULL-heavy columns.
        let rows = sample_rows(500);
        let opts = WriterOptions {
            rows_per_group: 96,
            compress: true,
        };
        let bytes = encode_columnar(&schema(), &rows, opts);
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        let mut got = Vec::new();
        for g in 0..r.num_row_groups() {
            let batch = r.read_group_batch(g).unwrap();
            assert_eq!(batch.schema, schema());
            // dict-eligible column must stay dictionary-coded in memory
            if batch.len() >= 16 {
                assert!(
                    matches!(
                        batch.column(1).data,
                        pushdown_common::columnar::ColumnData::DictStr { .. }
                    ),
                    "low-cardinality string column should decode as DictStr"
                );
            }
            got.extend(batch.to_rows());
        }
        assert_eq!(got, rows);
    }

    #[test]
    fn projected_group_batch_matches_projected_rows() {
        let rows = sample_rows(130);
        let opts = WriterOptions {
            rows_per_group: 50,
            compress: false,
        };
        let bytes = encode_columnar(&schema(), &rows, opts);
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        let cols = [3usize, 1];
        for (g, group) in rows.chunks(50).enumerate() {
            let batch = r.read_group_batch_projected(g, &cols).unwrap();
            let projected: Vec<Row> = (group.iter())
                .map(|row| Row::new(cols.iter().map(|&c| row[c].clone()).collect()))
                .collect();
            assert_eq!(batch.to_rows(), projected);
        }
    }

    #[test]
    fn round_trip_multiple_groups() {
        let rows = sample_rows(1000);
        let opts = WriterOptions {
            rows_per_group: 128,
            compress: true,
        };
        let bytes = encode_columnar(&schema(), &rows, opts);
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert_eq!(r.num_row_groups(), 8); // ceil(1000/128)
        let footer_rows: u64 = r.groups.iter().map(|g| g.row_count).sum();
        assert_eq!(footer_rows, 1000);
        assert_eq!(r.read_all().unwrap(), rows);
    }

    #[test]
    fn round_trip_uncompressed() {
        let rows = sample_rows(200);
        let opts = WriterOptions {
            rows_per_group: 64,
            compress: false,
        };
        let bytes = encode_columnar(&schema(), &rows, opts);
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert_eq!(r.read_all().unwrap(), rows);
    }

    #[test]
    fn column_projection_reads_one_column() {
        let rows = sample_rows(50);
        let bytes = encode_columnar(&schema(), &rows, WriterOptions::default());
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        let col = r.read_column_vector(0, 2).unwrap().into_values();
        assert_eq!(col.len(), 50);
        assert_eq!(col[4], Value::Float(-8.0));
        let proj = r.read_group_batch_projected(0, &[2, 0]).unwrap().to_rows();
        assert_eq!(proj[4], Row::new(vec![Value::Float(-8.0), Value::Int(4)]));
    }

    #[test]
    fn pruned_scan_reads_fraction_of_bytes() {
        // 20 columns, query touches 1 -> stored bytes touched should be
        // roughly 1/20 of the file (the Fig-11 mechanism).
        let fields: Vec<(String, DataType)> = (0..20)
            .map(|i| (format!("c{i}"), DataType::Float))
            .collect();
        let pairs: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let schema = Schema::from_pairs(&pairs);
        let rows: Vec<Row> = (0..2000)
            .map(|i| {
                Row::new(
                    (0..20)
                        .map(|c| Value::Float(((i * 37 + c * 11) % 1000) as f64 / 7.0))
                        .collect(),
                )
            })
            .collect();
        let opts = WriterOptions {
            rows_per_group: 1000,
            compress: false,
        };
        let bytes = encode_columnar(&schema, &rows, opts);
        let total = bytes.len() as u64;
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        let one_col: u64 = (0..r.num_row_groups()).map(|g| r.scanned_by(g, &[3])).sum();
        assert!(
            one_col * 15 < total,
            "one column = {one_col} bytes of {total} total"
        );
    }

    #[test]
    fn stats_and_pruning() {
        let rows = sample_rows(1000);
        let opts = WriterOptions {
            rows_per_group: 100,
            compress: true,
        };
        let bytes = encode_columnar(&schema(), &rows, opts);
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        // Group 0 holds k in [0,99], group 5 holds [500,599].
        let (lo, hi) = r.row_group(0).chunks[0].stats.clone().unwrap();
        assert_eq!(lo, Value::Int(0));
        assert_eq!(hi, Value::Int(99));
        // k = 250 can't be in group 0 or group 9.
        assert!(r.can_prune(0, 0, PruneOp::Eq, &Value::Int(250)));
        assert!(!r.can_prune(2, 0, PruneOp::Eq, &Value::Int(250)));
        // k < 100: groups 1.. prune, group 0 doesn't.
        assert!(!r.can_prune(0, 0, PruneOp::Lt, &Value::Int(100)));
        assert!(r.can_prune(1, 0, PruneOp::Lt, &Value::Int(100)));
        // k >= 900: only the last group survives.
        assert!(r.can_prune(0, 0, PruneOp::GtEq, &Value::Int(900)));
        assert!(!r.can_prune(9, 0, PruneOp::GtEq, &Value::Int(900)));
        // k <= -1 prunes everything; k > 999 prunes everything.
        assert!(r.can_prune(0, 0, PruneOp::LtEq, &Value::Int(-1)));
        assert!(r.can_prune(9, 0, PruneOp::Gt, &Value::Int(999)));
    }

    #[test]
    fn dictionary_encoding_kicks_in_for_repetitive_strings() {
        let rows = sample_rows(1000);
        let opts = WriterOptions {
            rows_per_group: 1000,
            compress: false,
        };
        let bytes = encode_columnar(&schema(), &rows, opts);
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert_eq!(r.row_group(0).chunks[1].encoding, Encoding::Dict);
        // High-cardinality strings stay plain.
        let s2 = Schema::from_pairs(&[("s", DataType::Str)]);
        let uniq: Vec<Row> = (0..500)
            .map(|i| Row::new(vec![Value::Str(format!("unique-value-{i}"))]))
            .collect();
        let bytes2 = encode_columnar(&s2, &uniq, opts);
        let r2 = ColumnarReader::open(Bytes::from(bytes2)).unwrap();
        assert_eq!(r2.row_group(0).chunks[0].encoding, Encoding::Plain);
        assert_eq!(r2.read_all().unwrap(), uniq);
    }

    #[test]
    fn compression_shrinks_text_heavy_files() {
        let rows = sample_rows(5000);
        let on = encode_columnar(
            &schema(),
            &rows,
            WriterOptions {
                rows_per_group: 5000,
                compress: true,
            },
        );
        let off = encode_columnar(
            &schema(),
            &rows,
            WriterOptions {
                rows_per_group: 5000,
                compress: false,
            },
        );
        assert!(
            (on.len() as f64) < (off.len() as f64) * 0.9,
            "compressed {} vs raw {}",
            on.len(),
            off.len()
        );
        let r = ColumnarReader::open(Bytes::from(on)).unwrap();
        assert_eq!(r.read_all().unwrap(), rows);
    }

    #[test]
    fn corrupt_files_rejected() {
        assert!(ColumnarReader::open(Bytes::from_static(b"nope")).is_err());
        assert!(ColumnarReader::open(Bytes::from_static(b"CLT1xxxxxxxxCLT1")).is_err());
        let rows = sample_rows(10);
        let mut bytes = encode_columnar(&schema(), &rows, WriterOptions::default());
        // Truncate the tail magic.
        bytes.pop();
        assert!(ColumnarReader::open(Bytes::from(bytes)).is_err());
    }

    /// Where the footer of an encoded file starts, and where its group
    /// count sits (after the schema: a `u16` column count, then per column
    /// a length-prefixed name and a type tag).
    fn footer_layout(bytes: &[u8], schema: &Schema) -> (usize, usize) {
        let len = bytes.len();
        let footer_len = u32::from_le_bytes(bytes[len - 8..len - 4].try_into().unwrap());
        let start = len - 8 - footer_len as usize;
        let fields: usize = schema.fields().iter().map(|f| 4 + f.name.len() + 1).sum();
        (start, start + 2 + fields)
    }

    /// Counts the footer or a chunk supplies are checked against the bytes
    /// there are before anything is sized by them: each of these used to
    /// ask for a multi-gigabyte allocation (an abort, not an error).
    #[test]
    fn corrupt_counts_are_errors_not_allocations() {
        let opts = WriterOptions {
            rows_per_group: 1000,
            compress: false,
        };
        let bytes = encode_columnar(&schema(), &sample_rows(100), opts);
        let (_, n_groups_at) = footer_layout(&bytes, &schema());
        let patched = |at: usize, with: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + with.len()].copy_from_slice(with);
            Bytes::from(b)
        };
        // A group count no footer could hold.
        let open = ColumnarReader::open(patched(n_groups_at, &u32::MAX.to_le_bytes()));
        assert!(open.is_err());
        // A row count no chunk could hold.
        let huge_rows = patched(n_groups_at + 4, &(u64::MAX / 2).to_le_bytes());
        assert!(ColumnarReader::open(huge_rows).is_err());
        // A dictionary length no chunk could hold.
        let r = ColumnarReader::open(Bytes::from(bytes.clone())).unwrap();
        let names = &r.row_group(0).chunks[1];
        assert_eq!(names.encoding, Encoding::Dict);
        let dict_len_at = names.offset as usize + 100usize.div_ceil(8);
        let huge_dict = ColumnarReader::open(patched(dict_len_at, &u32::MAX.to_le_bytes()));
        assert!(huge_dict.unwrap().read_column_vector(0, 1).is_err());
        // Columns and groups the file does not have.
        assert!(r.read_column_vector(0, 99).is_err());
        assert!(r.read_column_vector(7, 0).is_err());
        // A decompressed length no block could expand to — in a footer
        // (re-encoded: the stats before it are variable-length), and
        // handed to the codec itself.
        let footer = |schema: Schema, groups: Vec<RowGroupMeta>, data: &[u8]| {
            let mut w = ColumnarWriter::new(schema, WriterOptions::default());
            w.out = data.to_vec();
            w.groups = groups;
            ColumnarReader::open(Bytes::from(w.finish()))
        };
        let bytes = encode_columnar(&schema(), &sample_rows(100), WriterOptions::default());
        let data = &bytes[..footer_layout(&bytes, &schema()).0];
        let r = ColumnarReader::open(Bytes::from(bytes.clone())).unwrap();
        let chunk = r.row_group(0).chunks.iter().position(|c| c.compressed);
        let mut groups = r.groups.clone();
        groups[0].chunks[chunk.expect("a compressed chunk")].raw_len = u64::MAX / 2;
        assert!(footer(schema(), groups, data).is_err());
        assert!(compress::decompress(&[0x00, b'a'], usize::MAX).is_err());
        // Rows without columns: nothing bounds their count.
        let empty = Schema::from_pairs(&[]);
        let rows = vec![RowGroupMeta {
            row_count: u64::MAX / 2,
            chunks: Vec::new(),
        }];
        assert!(footer(empty, rows, MAGIC).is_err());
    }

    #[test]
    fn empty_table() {
        let bytes = encode_columnar(&schema(), &[], WriterOptions::default());
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert_eq!(r.num_row_groups(), 0);
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn all_null_column_has_no_stats() {
        let s = Schema::from_pairs(&[("x", DataType::Int)]);
        let rows: Vec<Row> = (0..10).map(|_| Row::new(vec![Value::Null])).collect();
        let bytes = encode_columnar(&s, &rows, WriterOptions::default());
        let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
        assert!(r.row_group(0).chunks[0].stats.is_none());
        assert!(!r.can_prune(0, 0, PruneOp::Eq, &Value::Int(1)));
        assert_eq!(r.read_all().unwrap(), rows);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn parts_of(bytes: &Bytes, ranges: &[(u64, u64)]) -> Vec<(u64, Bytes)> {
        let slice =
            |&(first, last): &(u64, u64)| (first, bytes.slice(first as usize..last as usize));
        ranges.iter().map(slice).collect()
    }

    fn arb_row() -> impl Strategy<Value = Row> {
        (
            prop_oneof![3 => any::<i64>().prop_map(Value::Int), 1 => Just(Value::Null)],
            prop_oneof![
                2 => "[a-z]{0,8}".prop_map(Value::Str),
                1 => Just(Value::Null)
            ],
            prop_oneof![
                3 => (-1e9f64..1e9).prop_map(Value::Float),
                1 => Just(Value::Null)
            ],
        )
            .prop_map(|(a, b, c)| Row::new(vec![a, b, c]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn columnar_round_trips(
            rows in proptest::collection::vec(arb_row(), 0..300),
            rows_per_group in 1usize..100,
            compress in any::<bool>(),
        ) {
            let schema = Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Float),
            ]);
            let bytes = encode_columnar(&schema, &rows, WriterOptions { rows_per_group, compress });
            let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
            prop_assert_eq!(r.read_all().unwrap(), rows);
        }

        /// The parts-based open never panics on what it is handed: a
        /// truncated or bit-flipped footer segment, a chunk run a byte
        /// short or long, a chunk left out. Each is a `Corrupt` error —
        /// or, for a flipped bit the footer's encoding cannot tell from a
        /// real value (a statistic, a name), a reader whose every read
        /// still returns or fails as `Corrupt`.
        #[test]
        fn damaged_parts_are_corrupt_errors_never_panics(
            rows in proptest::collection::vec(arb_row(), 1..200),
            rows_per_group in 1usize..80,
            compress in any::<bool>(),
            cut in 1usize..64,
            bit in any::<u64>(),
            pick in any::<u64>(),
            longer in any::<bool>(),
        ) {
            let schema = Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Float),
            ]);
            let opts = WriterOptions { rows_per_group, compress };
            let bytes = Bytes::from(encode_columnar(&schema, &rows, opts));
            let whole = ColumnarReader::open(bytes.clone()).unwrap();
            let ext = whole.chunk_extents();
            let footer = *ext.last().unwrap();
            let chunks = &ext[..ext.len() - 1];
            let corrupt = |r: Result<ColumnarReader>| match r {
                Err(Error::Corrupt(_)) => Ok(()),
                Err(e) => Err(TestCaseError::fail(format!("not Corrupt: {e}"))),
                Ok(_) => Err(TestCaseError::fail("opened")),
            };
            let read_all = |r: &ColumnarReader| -> Result<()> {
                for g in 0..r.num_row_groups() {
                    r.read_group_batch(g)?;
                }
                Ok(())
            };
            // A footer segment cut short at its end loses its trailer.
            let f = bytes.slice(footer.0 as usize..footer.1 as usize);
            let short = f.slice(..f.len().saturating_sub(cut));
            corrupt(ColumnarReader::open_parts(vec![(footer.0, short)]))?;
            // …and cut at its start, it no longer holds the footer.
            let tail = f.slice(cut.min(f.len())..);
            corrupt(ColumnarReader::open_parts(vec![(footer.0 + cut as u64, tail)]))?;
            // A bit flipped anywhere in it.
            let mut flipped = f.to_vec();
            let at = (bit % (flipped.len() as u64 * 8)) as usize;
            flipped[at / 8] ^= 1 << (at % 8);
            let opened = ColumnarReader::open_parts(vec![(footer.0, Bytes::from(flipped))]);
            if at / 8 >= f.len() - 4 {
                corrupt(opened)?;
            } else if let Ok(r) = opened {
                if let Err(e) = read_all(&r) {
                    prop_assert!(matches!(e, Error::Corrupt(_)), "{}", e);
                }
            } else if let Err(e) = opened {
                prop_assert!(matches!(e, Error::Corrupt(_)), "{}", e);
            }
            // One chunk run a byte short or a byte long.
            let i = (pick % chunks.len() as u64) as usize;
            let (first, last) = chunks[i];
            let last = if longer { last + 1 } else { last - 1 };
            let mut parts = parts_of(&bytes, &[(first, last)]);
            parts.extend(parts_of(&bytes, &[footer]));
            corrupt(ColumnarReader::open_parts(parts))?;
            // Every chunk but one: the open succeeds, the read of the
            // missing one fails.
            let mut handed = chunks.to_vec();
            handed.remove(i);
            handed.push(footer);
            let r = ColumnarReader::open_parts(parts_of(&bytes, &handed)).unwrap();
            let e = read_all(&r).unwrap_err();
            prop_assert!(matches!(e, Error::Corrupt(_)), "{}", e);
        }

        #[test]
        fn stats_bound_all_values(
            vals in proptest::collection::vec(-1000i64..1000, 1..200),
        ) {
            let schema = Schema::from_pairs(&[("x", DataType::Int)]);
            let rows: Vec<Row> = vals.iter().map(|&v| Row::new(vec![Value::Int(v)])).collect();
            let bytes = encode_columnar(&schema, &rows, WriterOptions { rows_per_group: 64, compress: false });
            let r = ColumnarReader::open(Bytes::from(bytes)).unwrap();
            for g in 0..r.num_row_groups() {
                let (lo, hi) = r.row_group(g).chunks[0].stats.clone().unwrap();
                for v in r.read_column_vector(g, 0).unwrap().into_values() {
                    prop_assert!(lo.sql_cmp(&v) != Some(std::cmp::Ordering::Greater));
                    prop_assert!(hi.sql_cmp(&v) != Some(std::cmp::Ordering::Less));
                }
            }
        }
    }
}
