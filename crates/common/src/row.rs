//! Row containers.

use crate::schema::Schema;
use crate::value::Value;

/// A single tuple: one [`Value`] per schema column.
///
/// Rows are plain vectors; PushdownDB (like the paper's Python testbed) is a
/// row-oriented engine and passes batches of rows between operators.
#[derive(Debug, Clone, PartialEq)]
pub struct Row(pub Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Keep only the given column indices, in order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two rows (hash-join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(v)
    }

    /// Approximate in-memory footprint, for the performance model.
    pub fn approx_size(&self) -> usize {
        self.0.iter().map(Value::approx_size).sum::<usize>() + 8
    }

    /// Render the row as one CSV line (no trailing newline). Fields that
    /// contain separators or quotes are quoted, and so is the empty
    /// rendering of a row's only field (a lone NULL): an empty line is
    /// not a record to a CSV reader.
    pub fn to_csv_line(&self) -> String {
        let mut out = String::new();
        self.write_csv_line(&mut out);
        out
    }

    /// Append the [`Row::to_csv_line`] text to `out`: every field is
    /// rendered straight into the caller's buffer.
    pub fn write_csv_line(&self, out: &mut String) {
        let line = out.len();
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let start = out.len();
            v.write_csv_field(out);
            let needs_quotes = out.as_bytes()[start..]
                .iter()
                .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'));
            if needs_quotes {
                let field = out.split_off(start);
                out.push('"');
                out.push_str(&field.replace('"', "\"\""));
                out.push('"');
            }
        }
        if self.0.len() == 1 && out.len() == line {
            out.push_str("\"\"");
        }
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// A batch of rows sharing a schema. Operators exchange these to amortize
/// per-row overheads (paper §III: "passes batches of tuples from producer
/// to consumer").
///
/// Batches are the unit of the streaming execution path: scans decode
/// partitions into fixed-capacity batches and push them through the
/// operators, so peak resident rows stay `O(workers × batch)` instead of
/// `O(table)`. A batch never splits a row — each [`Row`] lives in exactly
/// one batch.
#[derive(Debug, Clone)]
pub struct RowBatch {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl RowBatch {
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        RowBatch { schema, rows }
    }

    pub fn empty(schema: Schema) -> Self {
        RowBatch {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn approx_size(&self) -> usize {
        self.rows.iter().map(Row::approx_size).sum()
    }

    /// Split `rows` into batches of at most `capacity` rows (the last
    /// batch holds the remainder). Inverse of [`RowBatch::concat`].
    pub fn chunks(schema: &Schema, rows: Vec<Row>, capacity: usize) -> Vec<RowBatch> {
        let capacity = capacity.max(1);
        if rows.len() <= capacity {
            if rows.is_empty() {
                return Vec::new();
            }
            return vec![RowBatch::new(schema.clone(), rows)];
        }
        let mut out = Vec::with_capacity(rows.len().div_ceil(capacity));
        let mut rows = rows.into_iter();
        loop {
            let chunk: Vec<Row> = rows.by_ref().take(capacity).collect();
            if chunk.is_empty() {
                break;
            }
            out.push(RowBatch::new(schema.clone(), chunk));
        }
        out
    }

    /// Concatenate batches back into one row vector, in order.
    pub fn concat(batches: impl IntoIterator<Item = RowBatch>) -> Vec<Row> {
        let mut rows = Vec::new();
        for b in batches {
            rows.extend(b.rows);
        }
        rows
    }
}

/// Accumulates rows and hands out full, fixed-capacity [`RowBatch`]es.
///
/// Producers `push` rows one at a time; every `capacity`-th push returns
/// a full batch to forward downstream, and [`BatchBuilder::finish`]
/// flushes the partial tail (if any).
#[derive(Debug)]
pub struct BatchBuilder {
    schema: Schema,
    capacity: usize,
    rows: Vec<Row>,
}

impl BatchBuilder {
    pub fn new(schema: Schema, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BatchBuilder {
            schema,
            capacity,
            rows: Vec::with_capacity(capacity),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Add a row; returns a full batch once `capacity` rows accumulate.
    pub fn push(&mut self, row: Row) -> Option<RowBatch> {
        self.rows.push(row);
        if self.rows.len() >= self.capacity {
            let full = std::mem::replace(&mut self.rows, Vec::with_capacity(self.capacity));
            Some(RowBatch::new(self.schema.clone(), full))
        } else {
            None
        }
    }

    /// Flush the remaining partial batch, if any rows are buffered.
    pub fn finish(self) -> Option<RowBatch> {
        if self.rows.is_empty() {
            None
        } else {
            Some(RowBatch::new(self.schema, self.rows))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn project_and_concat() {
        let r = Row::new(vec![
            Value::Int(1),
            Value::Str("x".into()),
            Value::Float(2.5),
        ]);
        assert_eq!(
            r.project(&[2, 0]).values(),
            &[Value::Float(2.5), Value::Int(1)]
        );
        let s = Row::new(vec![Value::Bool(true)]);
        assert_eq!(r.concat(&s).len(), 4);
    }

    #[test]
    fn csv_line_quotes_when_needed() {
        let r = Row::new(vec![
            Value::Str("a,b".into()),
            Value::Str("say \"hi\"".into()),
            Value::Int(7),
        ]);
        assert_eq!(r.to_csv_line(), "\"a,b\",\"say \"\"hi\"\"\",7");
    }

    #[test]
    fn csv_line_plain() {
        let r = Row::new(vec![Value::Int(1), Value::Null, Value::Float(0.5)]);
        assert_eq!(r.to_csv_line(), "1,,0.5");
    }

    #[test]
    fn batch_sizes() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let b = RowBatch::new(
            schema.clone(),
            vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])],
        );
        assert_eq!(b.len(), 2);
        assert!(b.approx_size() > 0);
        assert!(RowBatch::empty(schema).is_empty());
    }
}
