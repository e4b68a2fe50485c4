//! Typed column batches for vectorized execution.
//!
//! A [`ColumnarBatch`] carries one typed vector per schema column plus a
//! validity bitmap, mirroring the on-disk ColumnarLite chunk layout so the
//! format layer can decode straight into it without materializing rows.
//! Dictionary-encoded string chunks stay dictionary-coded in memory
//! ([`ColumnData::DictStr`]): filters compare against the dictionary once
//! per batch instead of once per row, and rows are only materialized at
//! operator boundaries that still need them (joins, SQL expression
//! evaluation, output) — classic late materialization.
//!
//! The validity bitmap uses the same convention as the file format: bit
//! `i % 8` of byte `i / 8` is **set when the value is valid** (non-NULL).

use crate::error::Result;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{self, DataType, Value};
use std::sync::Arc;

/// A selection vector: indices of surviving rows, ascending.
pub type SelVec = Vec<u32>;

/// The typed values of one column. NULL slots hold the type's default
/// (0 / 0.0 / false / ""); the validity bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Date(Vec<i32>),
    Str(Vec<String>),
    /// Dictionary-coded strings: `codes[i]` indexes into the shared
    /// `dict`. Codes exist for NULL rows too (they index arbitrary
    /// entries and must be ignored via the validity bitmap).
    DictStr {
        codes: Vec<u32>,
        dict: Arc<Vec<String>>,
    },
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::DictStr { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One column: typed data plus validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub data: ColumnData,
    /// Bit set ⇒ valid (non-NULL). `len().div_ceil(8)` bytes.
    pub validity: Vec<u8>,
}

impl Column {
    pub fn new(data: ColumnData, validity: Vec<u8>) -> Self {
        debug_assert_eq!(validity.len(), data.len().div_ceil(8));
        Column { data, validity }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity[i / 8] & (1 << (i % 8)) != 0
    }

    /// Materialize slot `i` as a [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::DictStr { codes, dict } => Value::Str(dict[codes[i] as usize].clone()),
        }
    }

    /// Materialize every slot as a [`Value`], moving plain strings out
    /// instead of cloning them.
    pub fn into_values(self) -> Vec<Value> {
        fn render<T>(validity: &[u8], v: Vec<T>, wrap: impl Fn(T) -> Value) -> Vec<Value> {
            let valid = |i: usize| validity[i / 8] & (1 << (i % 8)) != 0;
            v.into_iter()
                .enumerate()
                .map(|(i, x)| if valid(i) { wrap(x) } else { Value::Null })
                .collect()
        }
        let validity = &self.validity;
        match self.data {
            ColumnData::Int(v) => render(validity, v, Value::Int),
            ColumnData::Float(v) => render(validity, v, Value::Float),
            ColumnData::Bool(v) => render(validity, v, Value::Bool),
            ColumnData::Date(v) => render(validity, v, Value::Date),
            ColumnData::Str(v) => render(validity, v, Value::Str),
            ColumnData::DictStr { codes, dict } => {
                render(validity, codes, |c| Value::Str(dict[c as usize].clone()))
            }
        }
    }

    /// Sub-column `[start, start+len)`, rebuilding the validity bitmap.
    /// Dictionary columns share the dictionary `Arc`.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(v[start..start + len].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..start + len].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..start + len].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[start..start + len].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[start..start + len].to_vec()),
            ColumnData::DictStr { codes, dict } => ColumnData::DictStr {
                codes: codes[start..start + len].to_vec(),
                dict: Arc::clone(dict),
            },
        };
        let mut validity = vec![0u8; len.div_ceil(8)];
        for i in 0..len {
            if self.is_valid(start + i) {
                validity[i / 8] |= 1 << (i % 8);
            }
        }
        Column { data, validity }
    }
}

/// Builds one typed column from a stream of [`Value`]s — the one column
/// builder: the row pivot ([`ColumnarBatch::from_rows`]) and the CSV
/// reader's column-vector front both push into it. Wrong-typed values
/// coerce exactly like the ColumnarLite writer does (Int→0, Float→0.0,
/// Date→0, Bool→false, Str→"").
pub struct ColumnBuilder {
    data: ColumnData,
    /// The finished column's validity bitmap, written by `finish`.
    validity: Vec<u8>,
    /// The NULL slots so far, ascending.
    nulls: Vec<usize>,
    n: usize,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType, capacity: usize) -> Self {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(capacity)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(capacity)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(capacity)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(capacity)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(capacity)),
        };
        ColumnBuilder {
            data,
            validity: Vec::with_capacity(capacity.div_ceil(8)),
            nulls: Vec::new(),
            n: 0,
        }
    }

    /// A builder that refills a spent column's vectors: their capacity
    /// is kept, and a STRING column's values are overwritten in place,
    /// their allocations reused ([`ColumnBuilder::push_text`]).
    pub fn recycle(column: Column) -> Self {
        let Column { mut data, validity } = column;
        match &mut data {
            ColumnData::Int(v) => v.clear(),
            ColumnData::Float(v) => v.clear(),
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Date(v) => v.clear(),
            // Kept whole; `finish` cuts what was not overwritten.
            ColumnData::Str(_) => {}
            ColumnData::DictStr { .. } => data = ColumnData::Str(Vec::new()),
        }
        ColumnBuilder {
            data,
            validity,
            nulls: Vec::new(),
            n: 0,
        }
    }

    /// Open the next slot, valid or NULL.
    fn open_slot(&mut self, valid: bool) {
        if !valid {
            self.nulls.push(self.n);
        }
        self.n += 1;
    }

    /// Append the slot a CSV field's `text` fills, parsed straight into
    /// the vector as [`Value::parse_typed`] parses it (empty text is
    /// NULL); a STRING is copied into the allocation a recycled column
    /// has there, if any.
    pub fn push_text(&mut self, text: &str) -> Result<()> {
        if text.is_empty() {
            self.push(Value::Null);
            return Ok(());
        }
        match &mut self.data {
            ColumnData::Int(out) => out.push(value::parse_int(text)?),
            ColumnData::Float(out) => out.push(value::parse_float(text)?),
            ColumnData::Bool(out) => out.push(value::parse_bool(text)?),
            ColumnData::Date(out) => out.push(value::parse_date(text)?),
            ColumnData::Str(out) => match out.get_mut(self.n) {
                Some(slot) => {
                    slot.clear();
                    slot.push_str(text);
                }
                None => out.push(text.to_owned()),
            },
            ColumnData::DictStr { .. } => unreachable!("builder never produces dict"),
        }
        self.open_slot(true);
        Ok(())
    }

    /// Append one slot; a string moves in without a copy.
    pub fn push(&mut self, v: Value) {
        self.open_slot(!v.is_null());
        let at = self.n - 1;
        match &mut self.data {
            ColumnData::Int(out) => out.push(match v {
                Value::Int(i) => i,
                _ => 0,
            }),
            ColumnData::Float(out) => out.push(match v {
                Value::Float(f) => f,
                _ => 0.0,
            }),
            ColumnData::Bool(out) => out.push(match v {
                Value::Bool(b) => b,
                _ => false,
            }),
            ColumnData::Date(out) => out.push(match v {
                Value::Date(d) => d,
                _ => 0,
            }),
            ColumnData::Str(out) => match (v, out.get_mut(at)) {
                (Value::Str(s), Some(slot)) => *slot = s,
                (Value::Str(s), None) => out.push(s),
                (_, Some(slot)) => slot.clear(),
                (_, None) => out.push(String::new()),
            },
            ColumnData::DictStr { .. } => unreachable!("builder never produces dict"),
        }
    }

    pub fn finish(mut self) -> Column {
        if let ColumnData::Str(out) = &mut self.data {
            out.truncate(self.n);
        }
        // Every slot valid, then the NULLs cleared; no bit past the end.
        let validity = &mut self.validity;
        validity.clear();
        validity.resize(self.n.div_ceil(8), u8::MAX);
        if let (Some(last), tail @ 1..) = (validity.last_mut(), self.n % 8) {
            *last = (1 << tail) - 1;
        }
        for &i in &self.nulls {
            validity[i / 8] &= !(1 << (i % 8));
        }
        Column {
            data: self.data,
            validity: self.validity,
        }
    }
}

/// A batch of rows stored column-wise: the unit of vectorized execution.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    pub schema: Schema,
    pub columns: Vec<Column>,
    pub len: usize,
}

impl ColumnarBatch {
    pub fn new(schema: Schema, columns: Vec<Column>, len: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        debug_assert_eq!(columns.len(), schema.len());
        ColumnarBatch {
            schema,
            columns,
            len,
        }
    }

    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, 0).finish())
            .collect();
        ColumnarBatch {
            schema,
            columns,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Pivot a row batch into columns, coercing wrong-typed values like
    /// the ColumnarLite writer (the CSV fallback path of columnar scans).
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> ColumnarBatch {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, rows.len()))
            .collect();
        for row in rows {
            for (c, b) in builders.iter_mut().enumerate() {
                b.push(row.get(c).clone());
            }
        }
        ColumnarBatch {
            schema: schema.clone(),
            columns: builders.into_iter().map(ColumnBuilder::finish).collect(),
            len: rows.len(),
        }
    }

    /// Materialize row `i`.
    pub fn row_at(&self, i: usize) -> Row {
        Row(self.columns.iter().map(|c| c.value_at(i)).collect())
    }

    /// Materialize every row (output boundary).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row_at(i)).collect()
    }

    /// Late materialization: gather only the selected rows.
    pub fn gather(&self, sel: &[u32]) -> Vec<Row> {
        sel.iter().map(|&i| self.row_at(i as usize)).collect()
    }

    /// Sub-batch of rows `[start, start+len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnarBatch {
        ColumnarBatch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            len,
        }
    }

    /// Split into sub-batches of at most `capacity` rows.
    pub fn chunks(self, capacity: usize) -> Vec<ColumnarBatch> {
        let capacity = capacity.max(1);
        if self.len <= capacity {
            if self.len == 0 {
                return Vec::new();
            }
            return vec![self];
        }
        let mut out = Vec::with_capacity(self.len.div_ceil(capacity));
        let mut start = 0;
        while start < self.len {
            let n = capacity.min(self.len - start);
            out.push(self.slice(start, n));
            start += n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn sample_schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
            ("flag", DataType::Bool),
            ("day", DataType::Date),
        ])
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row(vec![
                    Value::Int(i as i64),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("name-{}", i % 5))
                    },
                    Value::Float(i as f64 * 0.5),
                    Value::Bool(i % 2 == 0),
                    Value::Date(i as i32),
                ])
            })
            .collect()
    }

    #[test]
    fn from_rows_round_trips() {
        let schema = sample_schema();
        let rows = sample_rows(23);
        let batch = ColumnarBatch::from_rows(&schema, &rows);
        assert_eq!(batch.len(), 23);
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn gather_selects_rows() {
        let schema = sample_schema();
        let rows = sample_rows(10);
        let batch = ColumnarBatch::from_rows(&schema, &rows);
        let sel: SelVec = vec![1, 4, 9];
        let got = batch.gather(&sel);
        assert_eq!(got, vec![rows[1].clone(), rows[4].clone(), rows[9].clone()]);
    }

    #[test]
    fn slice_and_chunks_preserve_rows() {
        let schema = sample_schema();
        let rows = sample_rows(23);
        let batch = ColumnarBatch::from_rows(&schema, &rows);
        let s = batch.slice(5, 9);
        assert_eq!(s.to_rows(), rows[5..14].to_vec());
        let rejoined: Vec<Row> = batch
            .chunks(7)
            .into_iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert_eq!(rejoined, rows);
    }

    #[test]
    fn dict_column_materializes_strings() {
        let schema = Schema::from_pairs(&[("s", DataType::Str)]);
        let dict = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let col = Column::new(
            ColumnData::DictStr {
                codes: vec![1, 0, 0, 1],
                dict,
            },
            vec![0b1011],
        );
        let batch = ColumnarBatch::new(schema, vec![col], 4);
        assert_eq!(
            batch.to_rows(),
            vec![
                Row(vec![Value::Str("b".into())]),
                Row(vec![Value::Str("a".into())]),
                Row(vec![Value::Null]),
                Row(vec![Value::Str("b".into())]),
            ]
        );
        let sliced = batch.slice(1, 3);
        assert_eq!(sliced.to_rows(), batch.to_rows()[1..4].to_vec());
    }

    #[test]
    fn wrong_typed_values_coerce_like_writer() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![Row(vec![Value::Str("x".into()), Value::Int(7)])];
        let batch = ColumnarBatch::from_rows(&schema, &rows);
        assert_eq!(
            batch.to_rows(),
            vec![Row(vec![Value::Int(0), Value::Str(String::new())])]
        );
    }
}
