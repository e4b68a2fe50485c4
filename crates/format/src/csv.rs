//! CSV reading and writing.
//!
//! This is the primary storage format of the paper's experiments ("all
//! experiments use the same 10 GB TPC-H dataset in CSV format", §III) and
//! the *only* format S3 Select responses ever use, even for columnar
//! inputs (§IX). The dialect is RFC-4180-ish: comma separator, `"`
//! quoting with `""` escapes, `\n` record terminator, one header row.
//!
//! Readers yield each record's **byte range** alongside its values — the
//! index tables of paper §IV-A store `first_byte_offset`/`last_byte_offset`
//! per row and fetch rows back with ranged GETs, so offsets must be exact.
//!
//! # One decode body, three deliveries
//!
//! A [`CsvReader`] decodes the ascending list of columns it was asked for
//! ([`CsvReader::project`]; every column unless told otherwise) and hands
//! each record over in one of three ways: as a dense row of those columns
//! (the [`Iterator`]: with every column, the full row), into the slots of
//! a caller-owned sparse row ([`CsvReader::read_into`]), or, a batch of
//! records at a time, as typed column vectors
//! ([`CsvReader::read_columns`]). All three run the same splitter, the
//! same record checks and the same field typing.
//!
//! # Validation contract
//!
//! **Every record**, whatever is projected, is split in full and gets one
//! UTF-8 check over its bytes, the quoting checks (`Malformed`), the
//! field count == schema length check, and an exact byte range; a record
//! that fails one is an [`Error::Corrupt`] at that record. **Only the
//! projected columns** are typed ([`Value::parse_typed`]'s rules), for
//! every record, in column order. So a malformed literal in a column the
//! reader was not asked for does not fail the read — the behaviour a
//! column-pruned ColumnarLite scan has, and the one S3 Select itself has
//! over untyped CSV — while the full-row iterator, [`decode_csv`] and a
//! `SELECT *` type, and therefore check, every field.

use pushdown_common::columnar::{ColumnBuilder, ColumnarBatch};
use pushdown_common::{DataType, Error, Result, Row, Schema, Value};
use std::borrow::Cow;

/// Where one field's text sits inside its record, as byte offsets from
/// the record start. For a quoted field the span is what lies between
/// the quotes.
#[derive(Debug, Clone, Copy)]
struct FieldSpan {
    start: usize,
    end: usize,
    /// The quoted text holds `""` escapes, so it cannot be borrowed as is.
    escaped: bool,
}

impl FieldSpan {
    fn new(start: usize, end: usize, escaped: bool) -> Self {
        FieldSpan {
            start,
            end,
            escaped,
        }
    }

    /// The field's text: a slice of the record unless it must be unescaped.
    fn text<'a>(&self, line: &'a str) -> Cow<'a, str> {
        let raw = &line[self.start..self.end];
        if self.escaped {
            Cow::Owned(raw.replace("\"\"", "\""))
        } else {
            Cow::Borrowed(raw)
        }
    }
}

/// A quoting error found while splitting, reported once the record is
/// known to be UTF-8 (the order the checks have always run in).
#[derive(Debug, Clone, Copy)]
enum Malformed {
    Unterminated,
    /// Byte offset of whatever follows a closing quote in place of `,`.
    AfterQuote(usize),
}

impl Malformed {
    fn into_error(self, line: &str) -> Error {
        match self {
            Malformed::Unterminated => Error::Corrupt("unterminated quoted CSV field".into()),
            Malformed::AfterQuote(at) => Error::Corrupt(format!(
                "expected `,` after quoted field, found `{}`",
                line[at..].chars().next().unwrap_or('\u{FFFD}')
            )),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum SplitState {
    /// In an unquoted field, or at the start of any field.
    Plain,
    Quoted,
    /// Just read a `"` inside a quoted field: an escape or the close.
    QuoteSeen,
    /// A quoting error was recorded; no further fields are split.
    Broken,
}

/// What [`scan_record`] found at the head of its input.
struct Scanned {
    /// Record length without the terminator and without one trailing `\r`.
    len: usize,
    /// Bytes up to the start of the next record.
    consumed: usize,
    malformed: Option<Malformed>,
}

const LANES: u64 = 0x0101_0101_0101_0101;

/// Bit 7 of every byte lane of `word` that holds a byte below `-`; a
/// lane holding `-` itself may be flagged too when the lane under it is
/// (the subtraction borrows), and no other lane ever is. The four bytes
/// the dialect gives meaning to — `,` `"` `\n` `\r` — all lie below `-`,
/// and digits, letters and every byte of a multi-byte character lie
/// above it, so most of a record is passed over eight bytes at a time.
#[inline]
fn flag_below_dash(word: u64) -> u64 {
    word.wrapping_sub(LANES * u64::from(b'-')) & !word & (LANES << 7)
}

/// Whether a `\r` followed by `next` belongs to the record's terminator:
/// before the newline that ends the record, or as the last byte of the
/// input (where the record ends whatever the quotes say).
fn ends_record(in_quotes: bool, next: Option<&u8>) -> bool {
    match next {
        None => true,
        Some(b'\n') => !in_quotes,
        Some(_) => false,
    }
}

/// One pass over the bytes of the record at the head of `rest`, leaving
/// its field boundaries in `spans`. With `whole` the input is exactly one
/// record's text; otherwise the record ends at the first newline preceded
/// by an even number of quotes (the writer quotes fields containing
/// newlines), and one `\r` before that newline, or before the end of the
/// input, belongs to the terminator.
///
/// The input is read a machine word at a time and the quoting state
/// machine runs only on the bytes [`flag_below_dash`] picks out. The one
/// state that minds the bytes in between is `QuoteSeen` — anything but
/// `,` or `"` after a closing quote is malformed — so the machine notes
/// where the quote was and settles it at the next byte it does visit.
///
/// Separators and quotes are ASCII and a UTF-8 continuation byte never
/// equals one, so splitting bytes gives the boundaries splitting chars
/// would.
fn scan_record(rest: &[u8], whole: bool, spans: &mut Vec<FieldSpan>) -> Scanned {
    use SplitState::*;
    spans.clear();
    let mut state = Plain;
    // Start of the current field; `escaped` is about that field.
    let (mut start, mut escaped) = (0, false);
    let mut in_quotes = false;
    // Where the `"` that put the machine in `QuoteSeen` sits.
    let mut quote_at = 0;
    let mut malformed = None;
    let (mut len, mut consumed) = (rest.len(), rest.len() + 1);
    let mut base = 0;
    'record: while base < rest.len() {
        let word = match rest[base..].first_chunk::<8>() {
            Some(chunk) => u64::from_le_bytes(*chunk),
            None => {
                // The last few bytes, padded with a byte that is never flagged.
                let mut tail = [0xFF; 8];
                tail[..rest.len() - base].copy_from_slice(&rest[base..]);
                u64::from_le_bytes(tail)
            }
        };
        let mut flagged = flag_below_dash(word);
        while flagged != 0 {
            let i = base + (flagged.trailing_zeros() / 8) as usize;
            flagged &= flagged - 1;
            if state == QuoteSeen && i != quote_at + 1 {
                // An unflagged byte followed the closing quote.
                malformed = Some(Malformed::AfterQuote(quote_at + 1));
                state = Broken;
            }
            match (rest[i], state) {
                (b'"', _) => {
                    in_quotes = !in_quotes;
                    match state {
                        Plain if i == start => (state, start) = (Quoted, i + 1),
                        Plain | Broken => {}
                        Quoted => (state, quote_at) = (QuoteSeen, i),
                        QuoteSeen => (state, escaped) = (Quoted, true),
                    }
                }
                (b'\n', _) if !whole && !in_quotes => {
                    (len, consumed) = (i, i + 1);
                    break 'record;
                }
                (b'\r', _) if !whole && ends_record(in_quotes, rest.get(i + 1)) => {
                    (len, consumed) = (i, i + 2);
                    break 'record;
                }
                (b',', Plain) => {
                    spans.push(FieldSpan::new(start, i, false));
                    start = i + 1;
                }
                (b',', QuoteSeen) => {
                    spans.push(FieldSpan::new(start, i - 1, escaped));
                    (state, start, escaped) = (Plain, i + 1, false);
                }
                (_, QuoteSeen) => {
                    malformed = Some(Malformed::AfterQuote(i));
                    state = Broken;
                }
                // Field text below `-` (a space, say), or a separator
                // inside quotes.
                (_, Plain | Quoted | Broken) => {}
            }
        }
        base += 8;
    }
    if state == QuoteSeen && quote_at + 1 != len {
        malformed = Some(Malformed::AfterQuote(quote_at + 1));
        state = Broken;
    }
    // Close the open field; a trailing comma leaves an empty one.
    match state {
        Plain => spans.push(FieldSpan::new(start, len, false)),
        Quoted => malformed = Some(Malformed::Unterminated),
        QuoteSeen => spans.push(FieldSpan::new(start, len - 1, escaped)),
        Broken => {}
    }
    Scanned {
        len,
        consumed,
        malformed,
    }
}

/// Split one CSV record (without terminator) into raw string fields.
/// Handles quoting; returns an error for malformed quoting. UTF-8 safe.
pub fn split_line(line: &str) -> Result<Vec<String>> {
    let mut spans = Vec::new();
    if let Some(m) = scan_record(line.as_bytes(), true, &mut spans).malformed {
        return Err(m.into_error(line));
    }
    Ok(spans.iter().map(|s| s.text(line).into_owned()).collect())
}

/// A decoded CSV record: typed values plus the byte range (inclusive
/// first/last, matching HTTP range semantics) it occupied in the object,
/// *excluding* the record terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvRecord {
    /// The reader's columns, in order: the whole row unless it projects.
    pub row: Row,
    pub first_byte: u64,
    pub last_byte: u64,
}

/// Streaming CSV reader over an in-memory object (see the module docs for
/// what every record is checked for and what only the projected columns
/// are). A clone reads on from where the original stood.
#[derive(Clone)]
pub struct CsvReader<'a> {
    data: &'a [u8],
    schema: Schema,
    /// The columns this reader types, ascending, with their types.
    needed: Vec<(usize, DataType)>,
    /// `schema` projected onto `needed`: what a column batch carries.
    projected: Schema,
    pos: usize,
    /// Whether the first record is a header to skip.
    header: bool,
    started: bool,
    /// Field spans of the record being decoded, reused across records.
    spans: Vec<FieldSpan>,
}

impl<'a> CsvReader<'a> {
    /// Reader for an object whose first line is a header row (the layout
    /// the TPC-H loader writes).
    pub fn with_header(data: &'a [u8], schema: Schema) -> Self {
        let needed = schema.fields().iter().map(|f| f.dtype).enumerate();
        CsvReader {
            data,
            needed: needed.collect(),
            projected: schema.clone(),
            schema,
            pos: 0,
            header: true,
            started: false,
            spans: Vec::new(),
        }
    }

    /// Reader for headerless data (S3 Select responses).
    pub fn without_header(data: &'a [u8], schema: Schema) -> Self {
        CsvReader {
            header: false,
            ..CsvReader::with_header(data, schema)
        }
    }

    /// Type only the columns `needed` (schema positions, strictly
    /// ascending) of every record; the other fields are split and counted
    /// but never parsed.
    pub fn project(mut self, needed: &[usize]) -> Self {
        assert!(
            needed.windows(2).all(|w| w[0] < w[1]),
            "projected columns must ascend: {needed:?}"
        );
        self.needed = needed
            .iter()
            .map(|&c| (c, self.schema.dtype_of(c)))
            .collect();
        self.projected = self.schema.project(needed);
        self
    }

    /// Offset of the first byte not read yet: the start of the record
    /// after the last one delivered, whatever its terminator was.
    pub fn consumed(&self) -> usize {
        self.pos.min(self.data.len())
    }

    /// Scan the next non-blank record ([`scan_record`]), leaving its field
    /// boundaries in `self.spans`. Returns where it starts and the scan.
    fn next_record(&mut self) -> Option<(usize, Scanned)> {
        while self.pos < self.data.len() {
            let start = self.pos;
            let scanned = scan_record(&self.data[start..], false, &mut self.spans);
            self.pos = start + scanned.consumed;
            if scanned.len > 0 {
                return Some((start, scanned));
            } // else a blank line: skip it
        }
        None
    }

    /// [`CsvReader::next_record`] behind the header row, if there is one.
    fn next_data_record(&mut self) -> Option<(usize, Scanned)> {
        if !self.started {
            self.started = true;
            if self.header {
                self.next_record()?;
            }
        }
        self.next_record()
    }

    /// The decode body every delivery shares: check the scanned record —
    /// one UTF-8 check over the whole of it, its quoting, its field count
    /// — then type the projected fields straight off their slices and
    /// hand each to `put` with its position in the projection and in the
    /// schema.
    fn decode(
        &self,
        start: usize,
        rec: &Scanned,
        mut put: impl FnMut(usize, usize, DataType, Cow<'_, str>) -> Result<()>,
    ) -> Result<()> {
        let line = std::str::from_utf8(&self.data[start..start + rec.len])
            .map_err(|_| Error::Corrupt("non-UTF8 CSV record".into()))?;
        if let Some(m) = rec.malformed {
            return Err(m.into_error(line));
        }
        if self.spans.len() != self.schema.len() {
            return Err(Error::Corrupt(format!(
                "CSV record has {} fields, schema expects {} (record starts at byte {})",
                self.spans.len(),
                self.schema.len(),
                start
            )));
        }
        for (k, &(c, dtype)) in self.needed.iter().enumerate() {
            put(k, c, dtype, self.spans[c].text(line))?;
        }
        Ok(())
    }

    /// Decode the next record into the slots of `row` — one per schema
    /// column, owned and reused by the caller — writing only the
    /// projected columns' slots. `None` at the end of the input. After an
    /// error the slots hold an unspecified mix of this record and the
    /// last.
    pub fn read_into(&mut self, row: &mut Row) -> Option<Result<()>> {
        assert_eq!(row.len(), self.schema.len(), "one slot per schema column");
        let (start, rec) = self.next_data_record()?;
        Some(self.decode(start, &rec, |_, c, dtype, text| {
            row.0[c] = typed(dtype, text)?;
            Ok(())
        }))
    }

    /// Decode up to `max_rows` (at least one) records straight into typed
    /// column vectors, one per projected column. `None` at the end of the
    /// input; an error in any of the records fails the batch.
    pub fn read_columns(&mut self, max_rows: usize) -> Option<Result<ColumnarBatch>> {
        let mut batch = ColumnarBatch::empty(self.projected.clone());
        Some(
            self.read_columns_into(&mut batch, max_rows)?
                .map(|()| batch),
        )
    }

    /// [`CsvReader::read_columns`] into `batch`, which the reader's last
    /// batch (or an empty one) refills: its vectors, and the allocations
    /// of its strings, are reused ([`ColumnBuilder::recycle`]). After
    /// `None` or an error, `batch` holds no rows.
    pub fn read_columns_into(
        &mut self,
        batch: &mut ColumnarBatch,
        max_rows: usize,
    ) -> Option<Result<()>> {
        let max_rows = max_rows.max(1);
        let spent = std::mem::take(&mut batch.columns);
        let mut columns: Vec<ColumnBuilder> =
            if batch.schema == self.projected && spent.len() == self.needed.len() {
                spent.into_iter().map(ColumnBuilder::recycle).collect()
            } else {
                (self.needed.iter())
                    .map(|&(_, dtype)| ColumnBuilder::new(dtype, 0))
                    .collect()
            };
        let mut len = 0;
        let mut read = Ok(());
        while len < max_rows && read.is_ok() {
            let Some((start, rec)) = self.next_data_record() else {
                break;
            };
            read = self.decode(start, &rec, |k, _, dtype, text| {
                match text {
                    Cow::Borrowed(text) => columns[k].push_text(text)?,
                    text => columns[k].push(typed(dtype, text)?),
                }
                Ok(())
            });
            len += 1;
        }
        if len == 0 || read.is_err() {
            *batch = ColumnarBatch::empty(self.projected.clone());
            return read.err().map(Err);
        }
        *batch = ColumnarBatch::new(
            self.projected.clone(),
            columns.into_iter().map(ColumnBuilder::finish).collect(),
            len,
        );
        Some(Ok(()))
    }
}

/// A field's text typed as a row holds it ([`Value::parse_typed`]); an
/// unescaped STRING is already owned, and kept.
fn typed(dtype: DataType, text: Cow<'_, str>) -> Result<Value> {
    match text {
        Cow::Borrowed(text) => Value::parse_typed(text, dtype),
        Cow::Owned(text) if dtype == DataType::Str => Ok(Value::Str(text)),
        Cow::Owned(text) => Value::parse_typed(&text, dtype),
    }
}

impl<'a> Iterator for CsvReader<'a> {
    type Item = Result<CsvRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        let (start, rec) = self.next_data_record()?;
        let mut values = Vec::with_capacity(self.needed.len());
        Some(
            self.decode(start, &rec, |_, _, dtype, text| {
                values.push(typed(dtype, text)?);
                Ok(())
            })
            .map(|()| CsvRecord {
                row: Row::new(values),
                first_byte: start as u64,
                last_byte: (start + rec.len - 1) as u64,
            }),
        )
    }
}

/// Decode the one headerless record `data` holds — the bytes an index
/// entry's range points at — into a full row of `schema`, with every
/// check a [`CsvReader`] runs. No record, or more than one, is
/// [`Error::Corrupt`].
pub fn decode_record(data: &[u8], schema: &Schema) -> Result<Row> {
    let mut reader = CsvReader::without_header(data, schema.clone());
    let record = reader
        .next()
        .ok_or_else(|| Error::Corrupt("byte range holds no CSV record".into()))??;
    if reader.next().is_some() {
        return Err(Error::Corrupt(
            "byte range holds more than one CSV record".into(),
        ));
    }
    Ok(record.row)
}

/// Serialize rows to CSV bytes.
pub struct CsvWriter {
    buf: String,
}

impl CsvWriter {
    /// Start a document with a header row naming the schema's columns.
    pub fn with_header(schema: &Schema) -> Self {
        let mut buf = String::new();
        for (i, f) in schema.fields().iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str(&f.name);
        }
        buf.push('\n');
        CsvWriter { buf }
    }

    /// Start a headerless document (the shape of S3 Select responses).
    pub fn headerless() -> Self {
        CsvWriter { buf: String::new() }
    }

    /// Append one row; returns the byte range (first, last inclusive,
    /// excluding the terminator) it occupies — the index builder records
    /// these.
    pub fn write_row(&mut self, row: &Row) -> (u64, u64) {
        let first = self.buf.len() as u64;
        row.write_csv_line(&mut self.buf);
        let last = (self.buf.len() as u64).saturating_sub(1);
        self.buf.push('\n');
        (first, last)
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf.into_bytes()
    }
}

/// Convenience: encode a whole table (with header) in one call.
pub fn encode_csv(schema: &Schema, rows: &[Row]) -> Vec<u8> {
    let mut w = CsvWriter::with_header(schema);
    for r in rows {
        w.write_row(r);
    }
    w.finish()
}

/// Convenience: decode a whole table (with header) in one call.
pub fn decode_csv(data: &[u8], schema: &Schema) -> Result<Vec<Row>> {
    CsvReader::with_header(data, schema.clone())
        .map(|r| r.map(|rec| rec.row))
        .collect()
}

/// The reader as it was before it split bytes in place: every record
/// collected into a `Vec<char>`, every field pushed into a fresh `String`
/// one char at a time. Kept as the oracle the byte-level reader must
/// agree with on every input, well-formed or not.
#[cfg(test)]
mod oracle {
    use super::CsvRecord;
    use pushdown_common::{Error, Result, Row, Schema, Value};

    pub fn split_line(line: &str) -> Result<Vec<String>> {
        let mut fields = Vec::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        loop {
            if i >= chars.len() {
                // Trailing empty field (line ends with a comma) or empty line.
                fields.push(String::new());
                break;
            }
            if chars[i] == '"' {
                // Quoted field.
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= chars.len() {
                        return Err(Error::Corrupt("unterminated quoted CSV field".into()));
                    }
                    if chars[i] == '"' {
                        if i + 1 < chars.len() && chars[i + 1] == '"' {
                            s.push('"');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(chars[i]);
                        i += 1;
                    }
                }
                fields.push(s);
                if i < chars.len() {
                    if chars[i] != ',' {
                        return Err(Error::Corrupt(format!(
                            "expected `,` after quoted field, found `{}`",
                            chars[i]
                        )));
                    }
                    i += 1;
                    continue;
                }
                break;
            }
            // Unquoted field.
            let mut s = String::new();
            while i < chars.len() && chars[i] != ',' {
                s.push(chars[i]);
                i += 1;
            }
            fields.push(s);
            if i < chars.len() {
                i += 1; // skip comma
                continue;
            }
            break;
        }
        Ok(fields)
    }

    /// The first newline outside quotes.
    fn record_end(rest: &[u8]) -> usize {
        let mut in_quotes = false;
        for (i, &c) in rest.iter().enumerate() {
            match c {
                b'"' => in_quotes = !in_quotes,
                b'\n' if !in_quotes => return i,
                _ => {}
            }
        }
        rest.len()
    }

    /// Every record of `data`, errors included, the way the iterator
    /// yields them.
    pub fn read(data: &[u8], schema: &Schema, header: bool) -> Vec<Result<CsvRecord>> {
        let mut out = Vec::new();
        let mut skip = header;
        let mut pos = 0;
        while pos < data.len() {
            let start = pos;
            let rest = &data[start..];
            let end_rel = record_end(rest);
            pos = start + end_rel + 1; // past the newline (or EOF)
            let mut line_bytes = &rest[..end_rel];
            if line_bytes.ends_with(b"\r") {
                line_bytes = &line_bytes[..line_bytes.len() - 1];
            }
            if line_bytes.is_empty() {
                continue; // skip blank lines
            }
            if std::mem::take(&mut skip) {
                continue;
            }
            out.push(decode(start, line_bytes, schema));
        }
        out
    }

    fn decode(start: usize, line_bytes: &[u8], schema: &Schema) -> Result<CsvRecord> {
        let line = std::str::from_utf8(line_bytes)
            .map_err(|_| Error::Corrupt("non-UTF8 CSV record".into()))?;
        let fields = split_line(line)?;
        if fields.len() != schema.len() {
            return Err(Error::Corrupt(format!(
                "CSV record has {} fields, schema expects {} (record starts at byte {start})",
                fields.len(),
                schema.len()
            )));
        }
        let mut values = Vec::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            values.push(Value::parse_typed(f, schema.dtype_of(i))?);
        }
        Ok(CsvRecord {
            row: Row::new(values),
            first_byte: start as u64,
            last_byte: (start + line.len()).saturating_sub(1) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("bal", DataType::Float),
        ])
    }

    #[test]
    fn round_trip_simple() {
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::Str("alice".into()),
                Value::Float(10.5),
            ]),
            Row::new(vec![
                Value::Int(2),
                Value::Str("bob".into()),
                Value::Float(-3.25),
            ]),
        ];
        let bytes = encode_csv(&schema(), &rows);
        assert!(bytes.starts_with(b"id,name,bal\n"));
        let back = decode_csv(&bytes, &schema()).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn round_trip_quoting_and_nulls() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Str("a,b".into()), Value::Null]),
            Row::new(vec![
                Value::Int(2),
                Value::Str("say \"hi\"".into()),
                Value::Float(0.0),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Str(String::new()),
                Value::Float(1.0),
            ]),
        ];
        let bytes = encode_csv(&schema(), &rows);
        let back = decode_csv(&bytes, &schema()).unwrap();
        // Empty strings and NULL share the empty-field encoding, so the
        // empty string decodes as NULL (documented CSV lossiness).
        let mut expect = rows.clone();
        expect[2].0[1] = Value::Null;
        assert_eq!(back, expect);
    }

    #[test]
    fn byte_ranges_support_ranged_gets() {
        // The crux of the §IV-A index design: reading [first, last] back
        // out of the raw object must reproduce exactly the record text.
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("name-{i}")),
                    Value::Float(i as f64 * 1.5),
                ])
            })
            .collect();
        let bytes = encode_csv(&schema(), &rows);
        let records: Vec<CsvRecord> = CsvReader::with_header(&bytes, schema())
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(records.len(), 20);
        for rec in &records {
            let slice = &bytes[rec.first_byte as usize..=rec.last_byte as usize];
            let line = std::str::from_utf8(slice).unwrap();
            let reparsed = split_line(line).unwrap();
            assert_eq!(reparsed.len(), 3);
            assert_eq!(reparsed[0], rec.row[0].to_csv_field());
        }
    }

    #[test]
    fn header_skipped_only_with_header_reader() {
        let bytes = b"id,name,bal\n1,x,2.0\n";
        let with = decode_csv(bytes, &schema()).unwrap();
        assert_eq!(with.len(), 1);
        let without: Vec<Row> = CsvReader::without_header(b"1,x,2.0\n", schema())
            .map(|r| r.map(|rec| rec.row))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(without, with);
    }

    #[test]
    fn crlf_and_blank_lines_tolerated() {
        let bytes = b"id,name,bal\r\n1,x,2.0\r\n\n2,y,3.0\n";
        let rows = decode_csv(bytes, &schema()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], Value::Int(2));
    }

    /// A lone NULL is written as a quoted empty field, so it is a record
    /// to the reader — which goes on skipping the blank lines of files
    /// it did not write.
    #[test]
    fn a_lone_null_field_is_written_quoted_and_read_back() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let values = [
            Value::Null,
            Value::Int(1),
            Value::Null,
            Value::Int(2),
            Value::Null,
        ];
        let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
        let bytes = encode_csv(&schema, &rows);
        assert_eq!(bytes, b"k\n\"\"\n1\n\"\"\n2\n\"\"\n");
        assert_eq!(decode_csv(&bytes, &schema).unwrap(), rows);
        let foreign = b"k\n\n1\n\n\"\"\n2\n\n";
        let read = decode_csv(foreign, &schema).unwrap();
        assert_eq!(read, [rows[1].clone(), rows[0].clone(), rows[3].clone()]);
    }

    #[test]
    fn field_count_mismatch_is_corrupt() {
        let err = decode_csv(b"id,name,bal\n1,x\n", &schema()).unwrap_err();
        assert_eq!(err.code(), "Corrupt");
    }

    #[test]
    fn bad_typed_field_is_corrupt() {
        let err = decode_csv(b"id,name,bal\nnotanint,x,2.0\n", &schema()).unwrap_err();
        assert_eq!(err.code(), "Corrupt");
    }

    #[test]
    fn malformed_quotes_rejected() {
        assert!(split_line("\"unterminated").is_err());
        assert!(split_line("\"a\"b").is_err());
        assert_eq!(split_line("\"a\",b").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn replacement_character_is_an_ordinary_value() {
        // U+FFFD is valid UTF-8; it used to double as the reader's
        // in-band "this record was not UTF-8" marker.
        let schema = Schema::from_pairs(&[("s", DataType::Str)]);
        let rows = vec![Row::new(vec![Value::Str("\u{FFFD}".into())])];
        let bytes = encode_csv(&schema, &rows);
        assert_eq!(decode_csv(&bytes, &schema).unwrap(), rows);
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let schema = Schema::from_pairs(&[("s", DataType::Str)]);
        let err = decode_csv(b"s\nab\xFFcd\n", &schema).unwrap_err();
        assert_eq!(err.code(), "Corrupt");
        assert!(err.to_string().contains("non-UTF8"), "{err}");
        // Only that record is bad: the reader carries on behind it.
        let mut reader = CsvReader::without_header(b"ok\n\xC3\nfine\n", schema);
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().is_none());
    }

    #[test]
    fn fields_borrow_unless_escaped() {
        let mut spans = Vec::new();
        let line = "plain,\"quoted, text\",\"say \"\"hi\"\"\",é";
        assert!(scan_record(line.as_bytes(), true, &mut spans)
            .malformed
            .is_none());
        let texts: Vec<Cow<str>> = spans.iter().map(|s| s.text(line)).collect();
        assert_eq!(texts, ["plain", "quoted, text", "say \"hi\"", "é"]);
        let owned: Vec<bool> = texts.iter().map(|t| matches!(t, Cow::Owned(_))).collect();
        assert_eq!(owned, [false, false, true, false]);
    }

    #[test]
    fn split_line_edge_cases() {
        assert_eq!(split_line("").unwrap(), vec![""]);
        assert_eq!(split_line("a,").unwrap(), vec!["a", ""]);
        assert_eq!(split_line(",a").unwrap(), vec!["", "a"]);
        assert_eq!(split_line(",,").unwrap(), vec!["", "", ""]);
        assert_eq!(split_line("\"\"").unwrap(), vec![""]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use pushdown_common::DataType;

    fn arb_value(dt: DataType) -> BoxedStrategy<Value> {
        match dt {
            DataType::Int => prop_oneof![
                3 => any::<i64>().prop_map(Value::Int),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::Float => prop_oneof![
                3 => (-1e12f64..1e12).prop_map(Value::Float),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::Str => prop_oneof![
                // Printable ASCII incl. separators/quotes to stress quoting.
                3 => "[ -~]{0,30}".prop_map(Value::Str),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::Date => (0i32..20000).prop_map(Value::Date).boxed(),
            DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        }
    }

    /// The schemas the differential test reads with: all strings (any
    /// text decodes) and a typed mix (most random text does not).
    fn differential_schema(pick: usize) -> Schema {
        match pick {
            0 => Schema::from_pairs(&[("a", DataType::Str)]),
            1 => Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Str)]),
            2 => Schema::from_pairs(&[
                ("a", DataType::Str),
                ("b", DataType::Str),
                ("c", DataType::Str),
            ]),
            _ => Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Float),
            ]),
        }
    }

    /// What a reader yields, errors by variant and message.
    fn outcome(records: Vec<Result<CsvRecord>>) -> Vec<std::result::Result<CsvRecord, String>> {
        records
            .into_iter()
            .map(|r| r.map_err(|e| format!("{}: {e}", e.code())))
            .collect()
    }

    fn assert_same_as_oracle(data: &[u8], schema: &Schema, header: bool) {
        let reader = if header {
            CsvReader::with_header(data, schema.clone())
        } else {
            CsvReader::without_header(data, schema.clone())
        };
        assert_eq!(
            outcome(reader.collect()),
            outcome(oracle::read(data, schema, header)),
            "input {:?}",
            String::from_utf8_lossy(data)
        );
    }

    /// The splitter reads a machine word at a time: every byte it gives
    /// meaning to (and two it must pass over: a space, which it visits,
    /// and a `-`, which a borrow can make it visit) at every offset of
    /// three words, in an unquoted and a quoted field, under every
    /// terminator — `\r` before `\n`, at the end of the input, and
    /// anywhere else in the record.
    #[test]
    fn every_special_byte_at_every_offset_matches_the_char_oracle() {
        for offset in 0..=24 {
            for special in [",", "\"", "\"\"", "\n", "\r", "\r\n", " ", "-", ",-", "é"] {
                let pad = "x".repeat(offset);
                let fields = [
                    format!("{pad}{special}yy"),
                    format!("\"{pad}{special}yy\""),
                    format!("\"{pad}\"{special}yy"),
                    format!("{pad}{special}"),
                    format!("\"{pad}{special}\""),
                ];
                for field in &fields {
                    for terminator in ["\n", "\r\n", "\r", ""] {
                        let docs = [
                            format!("{field},z{terminator}"),
                            format!("z,{field}{terminator}"),
                            format!("{field},z{terminator}a,b{terminator}"),
                            format!("z,{field}{terminator}\n\r\na,b"),
                        ];
                        for doc in &docs {
                            for pick in [1, 2] {
                                let schema = differential_schema(pick);
                                assert_same_as_oracle(doc.as_bytes(), &schema, false);
                            }
                        }
                    }
                    assert_eq!(
                        split_line(field).map_err(|e| e.to_string()),
                        oracle::split_line(field).map_err(|e| e.to_string()),
                        "{field:?}"
                    );
                }
            }
        }
    }

    /// What the three deliveries of a projecting reader yield for `data`,
    /// as the rows (or the first error) each produces.
    type Delivered = std::result::Result<Vec<Row>, String>;

    fn deliveries(data: &[u8], schema: &Schema, needed: &[usize], batch: usize) -> [Delivered; 3] {
        let reader = || CsvReader::without_header(data, schema.clone()).project(needed);
        let text = |e: Error| e.to_string();
        let dense = reader()
            .map(|rec| rec.map(|rec| rec.row).map_err(text))
            .collect();
        let sparse = {
            let mut reader = reader();
            // Slots the reader does not own keep what the caller put there.
            let mut row = Row::new(vec![Value::Int(-7); schema.len()]);
            let mut rows = Ok(Vec::new());
            while let (Some(rec), Ok(out)) = (reader.read_into(&mut row), &mut rows) {
                match rec {
                    Ok(()) => {
                        let untouched = (0..schema.len()).filter(|c| !needed.contains(c));
                        assert!(untouched.into_iter().all(|c| row[c] == Value::Int(-7)));
                        out.push(row.project(needed));
                    }
                    Err(e) => rows = Err(text(e)),
                }
            }
            rows
        };
        let columns = {
            let mut reader = reader();
            let mut rows = Ok(Vec::new());
            while let (Some(got), Ok(out)) = (reader.read_columns(batch), &mut rows) {
                match got {
                    Ok(got) => {
                        assert!((1..=batch.max(1)).contains(&got.len()));
                        assert_eq!(got.schema, schema.project(needed));
                        out.extend(got.to_rows());
                    }
                    Err(e) => rows = Err(text(e)),
                }
            }
            rows
        };
        [dense, sparse, columns]
    }

    #[test]
    fn projection_types_only_the_columns_it_was_asked_for() {
        let schema = differential_schema(3); // a INT, b STRING, c FLOAT
        let data = b"1,x,1.5\nnope,\"y,\"\"z\",2.5\n\n3,,bad\r\n";
        let all = deliveries(data, &schema, &[0, 1, 2], 2);
        assert!(all
            .iter()
            .all(|d| d == &Err("Corrupt: bad int literal \"nope\"".into())));
        // Only `b`: neither bad literal is looked at.
        let b: Vec<Row> = ["x", "y,\"z"]
            .into_iter()
            .map(|s| Row::new(vec![Value::Str(s.into())]))
            .chain([Row::new(vec![Value::Null])])
            .collect();
        assert!(deliveries(data, &schema, &[1], 2)
            .iter()
            .all(|d| d.as_ref() == Ok(&b)));
        // `b` and `c`: the third record's float is referenced, so it fails.
        let bc = deliveries(data, &schema, &[1, 2], 1);
        assert!(bc
            .iter()
            .all(|d| d == &Err("Corrupt: bad float literal \"bad\"".into())));
        // No column at all still splits, counts and checks every record.
        let none = deliveries(data, &schema, &[], 5);
        assert!(none
            .iter()
            .all(|d| d.as_ref() == Ok(&vec![Row::new(vec![]); 3])));
        let short = deliveries(b"1,x,1.5\n2,y\n", &schema, &[], 5);
        assert!(
            short
                .iter()
                .all(|d| matches!(d, Err(e) if e.contains("has 2 fields"))),
            "{short:?}"
        );
        let bad_utf8 = deliveries(b"1,x,1.5\n2,\xFF,2.5\n", &schema, &[0], 5);
        assert!(bad_utf8
            .iter()
            .all(|d| matches!(d, Err(e) if e.contains("non-UTF8"))));
    }

    #[test]
    fn consumed_reports_where_the_next_record_starts() {
        let schema = differential_schema(1);
        let data = b"a,b\r\n\r\nc,d\ne,f";
        let mut reader = CsvReader::without_header(data, schema);
        assert_eq!(reader.consumed(), 0);
        for want in [5, 11, data.len()] {
            reader.next().unwrap().unwrap();
            assert_eq!(reader.consumed(), want);
        }
        assert!(reader.next().is_none());
        assert_eq!(reader.consumed(), data.len());
    }

    proptest! {
        /// The three deliveries are one decode: on raw text, damaged or
        /// not, under any projection and batch size, they yield the same
        /// rows or the same error — and with every column projected, what
        /// the char oracle yields.
        #[test]
        fn deliveries_agree_with_each_other_and_with_the_oracle(
            text in "[ab1 ,,\"\"\n\n\ré☃.-]{0,80}",
            pick in 0usize..4,
            mask in 0usize..8,
            batch in 1usize..5,
        ) {
            let schema = differential_schema(pick);
            let needed: Vec<usize> = (0..schema.len()).filter(|c| mask & (1 << c) != 0).collect();
            let [dense, sparse, columns] = deliveries(text.as_bytes(), &schema, &needed, batch);
            prop_assert_eq!(&dense, &sparse);
            prop_assert_eq!(&dense, &columns);
            if needed.len() == schema.len() {
                let oracle: Delivered = oracle::read(text.as_bytes(), &schema, false)
                    .into_iter()
                    .map(|rec| rec.map(|rec| rec.row).map_err(|e| e.to_string()))
                    .collect();
                prop_assert_eq!(&dense, &oracle);
            }
        }

        /// Differential: on raw text drawn from the characters the
        /// dialect gives meaning to — mostly malformed — the byte-level
        /// reader yields what the char-based one did: the same rows, the
        /// same byte ranges, the same error for the same record.
        #[test]
        fn reader_matches_char_oracle_on_raw_text(
            text in "[ab1 ,,\"\"\n\n\ré☃.-]{0,80}",
            pick in 0usize..4,
            header in any::<bool>(),
        ) {
            let schema = differential_schema(pick);
            assert_same_as_oracle(text.as_bytes(), &schema, header);
            // `split_line` sees the text as one record, newlines and all.
            prop_assert_eq!(
                split_line(&text).map_err(|e| e.to_string()),
                oracle::split_line(&text).map_err(|e| e.to_string())
            );
        }

        /// The same on documents the writer produced — quoted fields,
        /// `""` escapes, embedded `\n` and `\r\n`, multi-byte text, empty
        /// trailing fields — with blank lines and `\r\n` terminators
        /// spliced in, and with one byte of the result damaged.
        #[test]
        fn reader_matches_char_oracle_on_written_documents(
            rows in proptest::collection::vec(
                ("[a,\"\n\ré☃ ]{0,30}", "[a,\"\n\ré☃ ]{0,30}", "[a,\"\n\ré☃ ]{0,30}"),
                0..8,
            ),
            crlf in any::<bool>(),
            header in any::<bool>(),
            damage_at in any::<usize>(),
            damage in any::<u8>(),
        ) {
            let schema = differential_schema(2);
            let mut doc = if header {
                CsvWriter::with_header(&schema)
            } else {
                CsvWriter::headerless()
            };
            let mut ends = Vec::new();
            for (a, b, c) in rows {
                doc.write_row(&Row::new(vec![Value::Str(a), Value::Str(b), Value::Str(c)]));
                ends.push(doc.len());
            }
            let mut bytes = doc.finish();
            // Terminators become `\r\n` or gain a blank line behind them,
            // back to front so the recorded offsets stay valid.
            for (i, end) in ends.into_iter().enumerate().rev() {
                if crlf {
                    bytes.insert(end - 1, b'\r');
                } else if i % 2 == 0 {
                    bytes.insert(end, b'\n');
                }
            }
            assert_same_as_oracle(&bytes, &schema, header);
            if !bytes.is_empty() {
                let at = damage_at % bytes.len();
                bytes[at] = damage;
                assert_same_as_oracle(&bytes, &schema, header);
            }
        }

        #[test]
        fn csv_round_trips_arbitrary_tables(
            rows in proptest::collection::vec(
                (arb_value(DataType::Int), arb_value(DataType::Str), arb_value(DataType::Float)),
                0..50,
            )
        ) {
            let schema = Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Float),
            ]);
            // NULL strings and empty strings both encode as the empty CSV
            // field; normalize empties to NULL for the comparison.
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(a, b, c)| {
                    let b = match b {
                        Value::Str(s) if s.is_empty() => Value::Null,
                        other => other,
                    };
                    Row::new(vec![a, b, c])
                })
                .collect();
            let bytes = encode_csv(&schema, &rows);
            let back = decode_csv(&bytes, &schema).unwrap();
            prop_assert_eq!(back, rows);
        }

        #[test]
        fn byte_ranges_are_exact(
            rows in proptest::collection::vec(
                (any::<i64>(), "[ -~]{0,20}"),
                1..30,
            )
        ) {
            let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(a, b)| Row::new(vec![Value::Int(a), Value::Str(b)]))
                .collect();
            let bytes = encode_csv(&schema, &rows);
            for rec in CsvReader::with_header(&bytes, schema.clone()) {
                let rec = rec.unwrap();
                let slice = &bytes[rec.first_byte as usize..=rec.last_byte as usize];
                let line = std::str::from_utf8(slice).unwrap();
                prop_assert!(!line.contains('\n'));
                let fields = split_line(line).unwrap();
                prop_assert_eq!(fields.len(), 2);
            }
        }
    }
}
