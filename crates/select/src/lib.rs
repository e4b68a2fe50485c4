//! # pushdown-select
//!
//! The simulated **S3 Select** service: the storage-side compute engine
//! whose capabilities and *limitations* drive every algorithm in the
//! paper.
//!
//! Faithfully implemented behaviours (paper §II-A, §IX, §X):
//!
//! * only **selection, projection, and aggregation without group-by** over
//!   a single object (`ORDER BY` is rejected at parse time, `GROUP BY`
//!   unless §X Suggestion 4's [`EngineExtensions::native_group_by`] is
//!   on — and then a grouped statement runs through the same binder,
//!   scan and executor as every other, one group table per request);
//! * input formats: CSV and a Parquet-like columnar format
//!   ([`InputFormat::Columnar`]); for columnar inputs only the referenced
//!   column chunks are scanned, and row groups are pruned via chunk
//!   statistics;
//! * output is **always CSV**, "even if the data is stored in Parquet
//!   format" (§IX) — the reason Parquet's advantage vanishes when queries
//!   return a lot of data;
//! * the SQL text is limited to **256 KB** (§V-B1), the constraint that
//!   forces the Bloom-join degradation ladder;
//! * no bitwise operators, no binary data (§X Suggestion 3) — hence
//!   Bloom filters as `'0'/'1'` strings;
//! * `LIMIT` stops the scan early and the metered *scanned bytes* stop
//!   with it — the property the hybrid group-by (1 % sample, §VI-B) and
//!   sampling top-K (§VII-A) phases rely on.
//!
//! Billing: each request meters one HTTP request, the bytes scanned, and
//! the bytes returned on the shared [`CostLedger`](pushdown_common::CostLedger)
//! of the underlying store — the quantities AWS bills as "data scanned"
//! ($0.002/GB) and "data returned" ($0.0007/GB).
//!
//! ## Divergence from AWS, by design
//!
//! Real S3 Select types CSV fields as strings and forces explicit `CAST`s;
//! here objects are registered with a typed schema (the caller supplies
//! it per request), which makes pushed predicates behave identically to
//! their server-side counterparts — an equivalence the property tests
//! assert, and which the paper's queries (written with `CAST`s) also
//! maintained by hand.

use bytes::Bytes;
use pushdown_common::{Error, Result, RetryPolicy, Row, Schema, Value};
use pushdown_format::columnar::{ColumnarReader, PruneOp};
use pushdown_format::csv::{CsvReader, CsvWriter};
use pushdown_s3::S3Store;
use pushdown_sql::agg::{AggFunc, GroupTable};
use pushdown_sql::ast::ExtendedSelect;
use pushdown_sql::bind::{Binder, BoundExpr, BoundItem, BoundSelect};
use pushdown_sql::eval::{eval, eval_predicate};
use pushdown_sql::{parse_select_extended, BinOp, SelectStmt};

/// Storage format of the object being queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// CSV with a header row (the loader's layout).
    Csv,
    /// ColumnarLite (the Parquet substitute of §IX).
    Columnar,
}

/// Metering of one Select request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Bytes the storage engine scanned (billed at $0.002/GB).
    pub bytes_scanned: u64,
    /// Bytes returned in the (CSV) response (billed at $0.0007/GB).
    pub bytes_returned: u64,
    /// Records in the response.
    pub records_returned: u64,
    /// Expression complexity (terms) — consumed by the performance model.
    pub expr_terms: u32,
    /// Request attempts made, including the successful one (each attempt
    /// bills one ledger request; > 1 means transient faults were retried).
    pub attempts: u32,
}

/// A Select response: CSV payload plus metering.
#[derive(Debug, Clone)]
pub struct SelectResponse {
    /// Headerless CSV payload — S3 Select always returns CSV (§IX).
    pub data: Bytes,
    /// Schema of the response records.
    pub output_schema: Schema,
    pub stats: SelectStats,
}

impl SelectResponse {
    /// Decode the CSV payload into rows (client-side convenience; the
    /// engine itself only ships bytes).
    pub fn rows(&self) -> Result<Vec<Row>> {
        CsvReader::without_header(&self.data, self.output_schema.clone())
            .map(|r| r.map(|rec| rec.row))
            .collect()
    }
}

/// Service limits, mirroring AWS.
#[derive(Debug, Clone, Copy)]
pub struct SelectLimits {
    /// Maximum SQL text size (AWS: 256 KB; paper §V-B1).
    pub max_sql_bytes: usize,
}

impl Default for SelectLimits {
    fn default() -> Self {
        SelectLimits {
            max_sql_bytes: 256 * 1024,
        }
    }
}

/// What-if capabilities from the paper's §X suggestions. All default to
/// **off** — the stock engine behaves like 2019-era AWS S3 Select; the
/// ablation harnesses turn them on to measure what each suggestion would
/// buy.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineExtensions {
    /// Suggestion 4: accept `GROUP BY` ([`S3SelectEngine::select`] on the
    /// text, or [`S3SelectEngine::select_grouped`] on the AST) and run it
    /// storage-side through the engine's one executor: projected decode,
    /// row-group pruning, `LIMIT` and billing as for any statement.
    pub native_group_by: bool,
    /// Suggestion 2: evaluate index-table lookups storage-side
    /// ([`S3SelectEngine::select_indexed`]).
    pub index_in_s3: bool,
    /// Suggestion 3: allow the `BIT_AT` bitwise test (binary Bloom
    /// filters). Stock S3 Select "does not support bitwise operators or
    /// binary data" (paper §V-A2), so the default engine rejects it.
    pub bitwise: bool,
}

/// The Select engine, wrapping a store.
#[derive(Clone)]
pub struct S3SelectEngine {
    store: S3Store,
    limits: SelectLimits,
    extensions: EngineExtensions,
    retry: RetryPolicy,
}

impl S3SelectEngine {
    pub fn new(store: S3Store) -> Self {
        S3SelectEngine {
            store,
            limits: SelectLimits::default(),
            extensions: EngineExtensions::default(),
            retry: RetryPolicy::default(),
        }
    }

    pub fn with_limits(store: S3Store, limits: SelectLimits) -> Self {
        S3SelectEngine {
            limits,
            ..S3SelectEngine::new(store)
        }
    }

    /// Enable §X what-if extensions (consumed by the ablation harnesses).
    pub fn with_extensions(mut self, extensions: EngineExtensions) -> Self {
        self.extensions = extensions;
        self
    }

    /// Set the retry policy applied to every Select request (the same
    /// uniform bounded-backoff policy the store's GET paths use).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The same engine configuration bound to a different store handle —
    /// how a query scope re-targets Select billing at its child ledger.
    pub fn rebound(&self, store: S3Store) -> S3SelectEngine {
        S3SelectEngine {
            store,
            limits: self.limits,
            extensions: self.extensions,
            retry: self.retry,
        }
    }

    pub fn extensions(&self) -> &EngineExtensions {
        &self.extensions
    }

    pub fn store(&self) -> &S3Store {
        &self.store
    }

    pub fn limits(&self) -> &SelectLimits {
        &self.limits
    }

    /// Execute a Select request given as SQL text.
    ///
    /// `schema` describes the object's columns (see the module docs for
    /// why the schema is caller-supplied). Transient faults are retried
    /// under the engine's [`RetryPolicy`]; each attempt bills one request
    /// and `stats.attempts` reports how many it took.
    pub fn select(
        &self,
        bucket: &str,
        key: &str,
        sql: &str,
        schema: &Schema,
        format: InputFormat,
    ) -> Result<SelectResponse> {
        let retried = self.store.with_retry(&self.retry, || {
            // The request itself is billable even if it fails later, and a
            // fault strikes before a single byte is scanned.
            self.store.begin_request(bucket, key)?;
            if sql.len() > self.limits.max_sql_bytes {
                return Err(Error::SelectRejected(format!(
                    "SQL expression is {} bytes; the limit is {} (S3 Select caps \
                     expressions at 256 KB)",
                    sql.len(),
                    self.limits.max_sql_bytes
                )));
            }
            let ext = parse_select_extended(sql)?;
            if !self.extensions.bitwise && stmt_uses_bitat(&ext.select) {
                return Err(Error::SelectRejected(
                    "S3 Select does not support bitwise operators or binary data \
                     (paper §V-A2); enable the bitwise extension to model §X \
                     Suggestion 3"
                        .into(),
                ));
            }
            if !self.extensions.native_group_by && !ext.group_by.is_empty() {
                return Err(Error::SelectRejected(
                    "GROUP BY is not supported by S3 Select (enable the \
                     native_group_by extension to model paper §X Suggestion 4)"
                        .into(),
                ));
            }
            self.execute(bucket, key, &ext, schema, format)
        })?;
        let mut resp = retried.value;
        resp.stats.attempts = retried.attempts;
        Ok(resp)
    }

    /// Execute a Select request given as an AST (the client renders it to
    /// text first — the size limit applies to the rendered form, exactly
    /// as it would on the wire).
    pub fn select_stmt(
        &self,
        bucket: &str,
        key: &str,
        stmt: &SelectStmt,
        schema: &Schema,
        format: InputFormat,
    ) -> Result<SelectResponse> {
        let text = stmt.to_string();
        self.select(bucket, key, &text, schema, format)
    }

    /// **Extension (paper §X, Suggestion 4):** a `SELECT … GROUP BY`
    /// executed entirely storage-side: the statement rendered to text and
    /// run by [`S3SelectEngine::select`], which rejects it unless
    /// [`EngineExtensions::native_group_by`] is on. Scalar projection
    /// items must be grouping columns; everything else must be an
    /// aggregate. Returns one CSV record per group, sorted by the group
    /// key for determinism.
    pub fn select_grouped(
        &self,
        bucket: &str,
        key: &str,
        ext: &ExtendedSelect,
        schema: &Schema,
        format: InputFormat,
    ) -> Result<SelectResponse> {
        self.select(bucket, key, &ext.to_string(), schema, format)
    }

    /// **Extension (paper §X, Suggestion 2):** an index lookup evaluated
    /// *inside* the storage service. The engine scans the index object
    /// for entries matching `value_pred` (a predicate over the index's
    /// `value` column), follows the byte offsets into the data object
    /// itself, and returns the matching records — one request, no
    /// per-row GETs. Rejected unless [`EngineExtensions::index_in_s3`].
    ///
    /// Billing: scanned = index bytes + the fetched record bytes
    /// (storage-internal record reads are metered as scan, not transfer);
    /// returned = the response payload.
    pub fn select_indexed(
        &self,
        bucket: &str,
        index_key: &str,
        data_key: &str,
        index_schema: &Schema,
        data_schema: &Schema,
        value_pred: &pushdown_sql::Expr,
    ) -> Result<SelectResponse> {
        let retried = self.store.with_retry(&self.retry, || {
            self.store.begin_request(bucket, index_key)?;
            self.select_indexed_attempt(
                bucket,
                index_key,
                data_key,
                index_schema,
                data_schema,
                value_pred,
            )
        })?;
        let mut resp = retried.value;
        resp.stats.attempts = retried.attempts;
        Ok(resp)
    }

    fn select_indexed_attempt(
        &self,
        bucket: &str,
        index_key: &str,
        data_key: &str,
        index_schema: &Schema,
        data_schema: &Schema,
        value_pred: &pushdown_sql::Expr,
    ) -> Result<SelectResponse> {
        if !self.extensions.index_in_s3 {
            return Err(Error::SelectRejected(
                "index lookups inside S3 are not supported (enable the \
                 index_in_s3 extension to model paper §X Suggestion 2)"
                    .into(),
            ));
        }
        let pred = Binder::new(index_schema).bind_expr(value_pred)?;
        let index_raw = self.store.raw_object(bucket, index_key)?;
        let data_raw = self.store.raw_object(bucket, data_key)?;
        let first_col = index_schema.resolve("first_byte_offset")?;
        let last_col = index_schema.resolve("last_byte_offset")?;

        let mut bytes_scanned = index_raw.len() as u64;
        let mut rows: Vec<Row> = Vec::new();
        for rec in CsvReader::with_header(&index_raw, index_schema.clone()) {
            let rec = rec?;
            if !eval_predicate(&pred, &rec.row)? {
                continue;
            }
            let first = rec.row[first_col].as_i64()? as usize;
            let last = rec.row[last_col].as_i64()? as usize;
            if last < first || last >= data_raw.len() {
                return Err(Error::Corrupt(format!(
                    "index range {first}-{last} outside data object"
                )));
            }
            bytes_scanned += (last - first + 1) as u64;
            let line = std::str::from_utf8(&data_raw[first..=last])
                .map_err(|_| Error::Corrupt("non-UTF8 record".into()))?;
            let fields = pushdown_format::csv::split_line(line.trim_end_matches(['\r', '\n']))?;
            if fields.len() != data_schema.len() {
                return Err(Error::Corrupt(format!(
                    "index pointed at a record with {} fields, schema has {}",
                    fields.len(),
                    data_schema.len()
                )));
            }
            let mut vals = Vec::with_capacity(fields.len());
            for (i, f) in fields.iter().enumerate() {
                vals.push(Value::parse_typed(f, data_schema.dtype_of(i))?);
            }
            rows.push(Row::new(vals));
        }

        let mut w = CsvWriter::headerless();
        for r in &rows {
            w.write_row(r);
        }
        let payload = w.finish();
        let stats = SelectStats {
            bytes_scanned,
            bytes_returned: payload.len() as u64,
            records_returned: rows.len() as u64,
            expr_terms: value_pred.term_count(),
            attempts: 1,
        };
        self.store
            .bill_select(stats.bytes_scanned, stats.bytes_returned);
        Ok(SelectResponse {
            data: Bytes::from(payload),
            output_schema: data_schema.clone(),
            stats,
        })
    }

    fn execute(
        &self,
        bucket: &str,
        key: &str,
        ext: &ExtendedSelect,
        schema: &Schema,
        format: InputFormat,
    ) -> Result<SelectResponse> {
        let bound = Binder::new(schema).bind_grouped(&ext.select, &ext.group_by)?;
        let expr_terms = ext.select.term_count() + ext.group_by.len() as u32;
        let raw = self.store.raw_object(bucket, key)?;

        let (rows, bytes_scanned) = match format {
            InputFormat::Csv => self.scan_csv(&raw, schema, &bound)?,
            InputFormat::Columnar => self.scan_columnar(&raw, schema, &bound)?,
        };

        // Serialize the response as headerless CSV (always CSV, §IX).
        let mut w = CsvWriter::headerless();
        let records = rows.len() as u64;
        for r in &rows {
            w.write_row(r);
        }
        let payload = w.finish();
        let stats = SelectStats {
            bytes_scanned,
            bytes_returned: payload.len() as u64,
            records_returned: records,
            expr_terms,
            attempts: 1,
        };
        self.store
            .bill_select(stats.bytes_scanned, stats.bytes_returned);
        Ok(SelectResponse {
            data: Bytes::from(payload),
            output_schema: bound.output_schema.clone(),
            stats,
        })
    }

    /// Row-oriented scan: CSV must be read in full (every byte is scanned,
    /// every record split and checked) unless LIMIT stops it early; only
    /// the columns the statement references are typed.
    fn scan_csv(
        &self,
        raw: &[u8],
        schema: &Schema,
        bound: &BoundSelect,
    ) -> Result<(Vec<Row>, u64)> {
        let mut reader =
            CsvReader::with_header(raw, schema.clone()).project(&referenced_columns(bound));
        let mut exec = Executor::new(bound);
        // One sparse row for the whole scan: unreferenced slots stay
        // NULL; the executor only dereferences referenced indices.
        let mut scratch = Row::new(vec![Value::Null; schema.len()]);
        while let Some(rec) = reader.read_into(&mut scratch) {
            rec?;
            if exec.feed(&scratch)? {
                break; // LIMIT satisfied: the engine stops scanning here
            }
        }
        // Bill the bytes consumed: the whole object, or, when LIMIT
        // stopped the scan, everything up to where the next record
        // starts — the last record read and its terminator, `\n` or
        // `\r\n`, included.
        Ok((exec.finish(), reader.consumed() as u64))
    }

    /// Columnar scan: only referenced column chunks are read, and row
    /// groups are pruned through chunk min/max statistics.
    fn scan_columnar(
        &self,
        raw: &Bytes,
        schema: &Schema,
        bound: &BoundSelect,
    ) -> Result<(Vec<Row>, u64)> {
        let reader = ColumnarReader::open(raw.clone())?;
        if reader.schema() != schema {
            return Err(Error::SelectRejected(format!(
                "registered schema {schema} does not match object schema {}",
                reader.schema()
            )));
        }
        let needed = referenced_columns(bound);

        let prunable = bound
            .where_clause
            .as_ref()
            .map(extract_prune_conditions)
            .unwrap_or_default();

        let mut exec = Executor::new(bound);
        let mut scratch = Row::new(vec![Value::Null; schema.len()]);
        let mut scanned: u64 = 0;
        'groups: for g in 0..reader.num_row_groups() {
            // Row-group pruning: skip groups the statistics rule out.
            if prunable
                .iter()
                .any(|(col, op, v)| reader.can_prune(g, *col, *op, v))
            {
                continue;
            }
            // Scanned bytes: the stored size of each needed chunk.
            for &c in &needed {
                scanned += reader.chunk_stored_len(g, c);
            }
            let mut columns: Vec<Vec<Value>> = needed
                .iter()
                .map(|&c| reader.read_column(g, c))
                .collect::<Result<_>>()?;
            let nrows = reader.row_group(g).row_count as usize;
            for i in 0..nrows {
                // Assemble a sparse row in the one scratch row: untouched
                // columns stay NULL; the executor only dereferences
                // referenced indices.
                for (&c, col) in needed.iter().zip(&mut columns) {
                    scratch.0[c] = std::mem::replace(&mut col[i], Value::Null);
                }
                if exec.feed(&scratch)? {
                    break 'groups;
                }
            }
        }
        Ok((exec.finish(), scanned))
    }
}

/// Does the statement call the `BIT_AT` extension function anywhere?
fn stmt_uses_bitat(stmt: &SelectStmt) -> bool {
    use pushdown_sql::ast::Func;
    use pushdown_sql::Expr;
    fn walk(e: &Expr) -> bool {
        match e {
            Expr::Literal(_) | Expr::Column(_) => false,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk(expr),
            Expr::Binary { left, right, .. } => walk(left) || walk(right),
            Expr::Between {
                expr, low, high, ..
            } => walk(expr) || walk(low) || walk(high),
            Expr::InList { expr, list, .. } => walk(expr) || list.iter().any(walk),
            Expr::Like { expr, pattern, .. } => walk(expr) || walk(pattern),
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches.iter().any(|(c, v)| walk(c) || walk(v))
                    || else_expr.as_deref().is_some_and(walk)
            }
            Expr::Cast { expr, .. } => walk(expr),
            Expr::Call { func, args } => *func == Func::BitAt || args.iter().any(walk),
        }
    }
    let item_uses = |i: &pushdown_sql::SelectItem| match i {
        pushdown_sql::SelectItem::Wildcard => false,
        pushdown_sql::SelectItem::Expr { expr, .. } => walk(expr),
        pushdown_sql::SelectItem::Agg { arg, .. } => arg.as_ref().is_some_and(walk),
    };
    stmt.items.iter().any(item_uses) || stmt.where_clause.as_ref().is_some_and(walk)
}

/// The schema columns a bound statement reads — projection items,
/// aggregate arguments, grouping columns and the `WHERE` clause —
/// ascending, each once: what a scan has to decode.
fn referenced_columns(bound: &BoundSelect) -> Vec<usize> {
    let mut needed = bound.group_by.clone();
    for item in &bound.items {
        match item {
            BoundItem::Expr { expr, .. } => collect_columns(expr, &mut needed),
            BoundItem::Agg { arg: Some(a), .. } => collect_columns(a, &mut needed),
            BoundItem::Agg { arg: None, .. } => {}
        }
    }
    if let Some(w) = &bound.where_clause {
        collect_columns(w, &mut needed);
    }
    needed.sort_unstable();
    needed.dedup();
    needed
}

/// Collect column indices referenced by a bound expression.
fn collect_columns(e: &BoundExpr, out: &mut Vec<usize>) {
    match e {
        BoundExpr::Literal(_) => {}
        BoundExpr::Column(i, _) => out.push(*i),
        BoundExpr::Unary { expr, .. } => collect_columns(expr, out),
        BoundExpr::Binary { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        BoundExpr::Between {
            expr, low, high, ..
        } => {
            collect_columns(expr, out);
            collect_columns(low, out);
            collect_columns(high, out);
        }
        BoundExpr::InList { expr, list, .. } => {
            collect_columns(expr, out);
            for e in list {
                collect_columns(e, out);
            }
        }
        BoundExpr::IsNull { expr, .. } => collect_columns(expr, out),
        BoundExpr::Like { expr, pattern, .. } => {
            collect_columns(expr, out);
            collect_columns(pattern, out);
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_columns(c, out);
                collect_columns(v, out);
            }
            if let Some(e) = else_expr {
                collect_columns(e, out);
            }
        }
        BoundExpr::Cast { expr, .. } => collect_columns(expr, out),
        BoundExpr::Call { args, .. } => {
            for a in args {
                collect_columns(a, out);
            }
        }
    }
}

/// Extract `column op literal` conjuncts usable for row-group pruning.
/// Only walks AND chains (pruning on one conjunct is always sound).
fn extract_prune_conditions(e: &BoundExpr) -> Vec<(usize, PruneOp, Value)> {
    let mut out = Vec::new();
    fn walk(e: &BoundExpr, out: &mut Vec<(usize, PruneOp, Value)>) {
        match e {
            BoundExpr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                walk(left, out);
                walk(right, out);
            }
            BoundExpr::Binary { left, op, right } => {
                let prune_op = |op: BinOp, flip: bool| -> Option<PruneOp> {
                    Some(match (op, flip) {
                        (BinOp::Eq, _) => PruneOp::Eq,
                        (BinOp::Lt, false) | (BinOp::Gt, true) => PruneOp::Lt,
                        (BinOp::LtEq, false) | (BinOp::GtEq, true) => PruneOp::LtEq,
                        (BinOp::Gt, false) | (BinOp::Lt, true) => PruneOp::Gt,
                        (BinOp::GtEq, false) | (BinOp::LtEq, true) => PruneOp::GtEq,
                        _ => return None,
                    })
                };
                match (&**left, &**right) {
                    (BoundExpr::Column(i, _), BoundExpr::Literal(v)) if !v.is_null() => {
                        if let Some(p) = prune_op(*op, false) {
                            out.push((*i, p, v.clone()));
                        }
                    }
                    (BoundExpr::Literal(v), BoundExpr::Column(i, _)) if !v.is_null() => {
                        if let Some(p) = prune_op(*op, true) {
                            out.push((*i, p, v.clone()));
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    walk(e, &mut out);
    out
}

/// Shared row-at-a-time executor for both storage formats. A projection
/// streams its rows and stops the scan at `LIMIT`; an aggregate or
/// grouped statement folds every row into one [`GroupTable`] — a scalar
/// aggregate is the one group of no columns — and `LIMIT` cuts its
/// finished groups.
struct Executor<'a> {
    bound: &'a BoundSelect,
    groups: Option<GroupTable>,
    rows: Vec<Row>,
}

impl<'a> Executor<'a> {
    fn new(bound: &'a BoundSelect) -> Self {
        let grouping = bound.is_aggregate || !bound.group_by.is_empty();
        let groups = grouping.then(|| {
            let mut table = GroupTable::new(aggregates(bound).map(|(func, _)| func).collect());
            if bound.group_by.is_empty() {
                // Seeded, so that empty input still answers one row.
                table.group(Vec::new());
            }
            table
        });
        Executor {
            bound,
            groups,
            rows: Vec::new(),
        }
    }

    /// Feed one row; returns `true` when the scan can stop (LIMIT hit).
    fn feed(&mut self, row: &Row) -> Result<bool> {
        if let Some(w) = &self.bound.where_clause {
            if !eval_predicate(w, row)? {
                return Ok(false);
            }
        }
        if let Some(table) = &mut self.groups {
            let key = self
                .bound
                .group_by
                .iter()
                .map(|&c| row[c].clone())
                .collect();
            for (acc, (_, arg)) in table.group(key).iter_mut().zip(aggregates(self.bound)) {
                match arg {
                    Some(e) => acc.update(&eval(e, row)?)?,
                    None => acc.update(&Value::Bool(true))?, // COUNT(*)
                }
            }
            return Ok(false); // groups always consume the full input
        }
        let out = self
            .bound
            .items
            .iter()
            .map(|item| match item {
                BoundItem::Expr { expr, .. } => eval(expr, row),
                BoundItem::Agg { .. } => unreachable!("binder rejects mixed selects"),
            })
            .collect::<Result<_>>()?;
        self.rows.push(Row::new(out));
        Ok(matches!(self.bound.limit, Some(l) if self.rows.len() as u64 >= l))
    }

    fn finish(self) -> Vec<Row> {
        let Some(table) = self.groups else {
            return self.rows;
        };
        // Where each output item sits in a finished `key ++ values` row:
        // a scalar item is a grouping column, the binder checked.
        let group_by = &self.bound.group_by;
        let mut next_agg = group_by.len();
        let take: Vec<usize> = self
            .bound
            .items
            .iter()
            .map(|item| match item {
                BoundItem::Expr { expr, .. } => group_by
                    .iter()
                    .position(|&g| matches!(expr, BoundExpr::Column(c, _) if *c == g))
                    .expect("a grouped scalar item is a grouping column"),
                BoundItem::Agg { .. } => {
                    next_agg += 1;
                    next_agg - 1
                }
            })
            .collect();
        let limit = self.bound.limit.map_or(usize::MAX, |l| l as usize);
        table
            .finish()
            .iter()
            .take(limit)
            .map(|r| r.project(&take))
            .collect()
    }
}

/// A bound statement's aggregates, in item order.
fn aggregates(bound: &BoundSelect) -> impl Iterator<Item = (AggFunc, Option<&BoundExpr>)> {
    bound.items.iter().filter_map(|item| match item {
        BoundItem::Agg { func, arg, .. } => Some((*func, arg.as_ref())),
        BoundItem::Expr { .. } => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::DataType;
    use pushdown_format::columnar::{encode_columnar, WriterOptions};
    use pushdown_format::csv::encode_csv;

    fn customer_schema() -> Schema {
        Schema::from_pairs(&[
            ("c_custkey", DataType::Int),
            ("c_name", DataType::Str),
            ("c_acctbal", DataType::Float),
            ("c_nationkey", DataType::Int),
        ])
    }

    fn customer_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64 + 1),
                    Value::Str(format!("Customer#{i:06}")),
                    Value::Float((i as f64 * 37.0) % 2000.0 - 999.0),
                    Value::Int((i % 25) as i64),
                ])
            })
            .collect()
    }

    fn engine_with_csv(rows: &[Row]) -> S3SelectEngine {
        let store = S3Store::new();
        store.put_object("tpch", "customer.csv", encode_csv(&customer_schema(), rows));
        S3SelectEngine::new(store)
    }

    fn engine_with_columnar(rows: &[Row]) -> S3SelectEngine {
        let store = S3Store::new();
        let opts = WriterOptions {
            rows_per_group: 100,
            compress: true,
        };
        store.put_object(
            "tpch",
            "customer.clt",
            encode_columnar(&customer_schema(), rows, opts),
        );
        S3SelectEngine::new(store)
    }

    #[test]
    fn select_star_returns_everything() {
        let rows = customer_rows(50);
        let e = engine_with_csv(&rows);
        let resp = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT * FROM S3Object",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        assert_eq!(resp.rows().unwrap(), rows);
        assert_eq!(resp.stats.records_returned, 50);
        assert_eq!(
            resp.stats.bytes_scanned,
            e.store().total_size("tpch", "customer.csv")
        );
        assert_eq!(resp.stats.bytes_returned, resp.data.len() as u64);
    }

    #[test]
    fn filter_pushdown_matches_local_filter() {
        let rows = customer_rows(200);
        let e = engine_with_csv(&rows);
        let resp = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT c_custkey FROM S3Object WHERE c_acctbal <= -950",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        let got = resp.rows().unwrap();
        let want: Vec<Row> = rows
            .iter()
            .filter(|r| r[2].sql_cmp(&Value::Float(-950.0)) != Some(std::cmp::Ordering::Greater))
            .map(|r| Row::new(vec![r[0].clone()]))
            .collect();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn aggregation_without_groupby() {
        let rows = customer_rows(100);
        let e = engine_with_csv(&rows);
        let resp = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT SUM(c_acctbal), COUNT(*), MIN(c_custkey), MAX(c_custkey), AVG(c_acctbal) FROM S3Object",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        let out = resp.rows().unwrap();
        assert_eq!(out.len(), 1);
        let sum: f64 = rows.iter().map(|r| r[2].as_f64().unwrap()).sum();
        assert!((out[0][0].as_f64().unwrap() - sum).abs() < 1e-6);
        assert_eq!(out[0][1], Value::Int(100));
        assert_eq!(out[0][2], Value::Int(1));
        assert_eq!(out[0][3], Value::Int(100));
        assert!((out[0][4].as_f64().unwrap() - sum / 100.0).abs() < 1e-9);
    }

    #[test]
    fn case_when_groupby_rewrite_works() {
        // Paper Listing 4: per-group sums via CASE WHEN.
        let rows = customer_rows(100);
        let e = engine_with_csv(&rows);
        let resp = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT sum(CASE WHEN c_nationkey = 0 THEN c_acctbal ELSE 0 END), \
                        sum(CASE WHEN c_nationkey = 1 THEN c_acctbal ELSE 0 END) FROM S3Object",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        let out = resp.rows().unwrap();
        let expect: f64 = rows
            .iter()
            .filter(|r| r[3] == Value::Int(0))
            .map(|r| r[2].as_f64().unwrap())
            .sum();
        assert!((out[0][0].as_f64().unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn limit_stops_the_scan_and_the_bill() {
        let rows = customer_rows(1000);
        let e = engine_with_csv(&rows);
        let full = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT c_custkey FROM S3Object",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        let limited = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT c_custkey FROM S3Object LIMIT 10",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        assert_eq!(limited.stats.records_returned, 10);
        assert!(
            limited.stats.bytes_scanned < full.stats.bytes_scanned / 10,
            "limit 10 scanned {} of {}",
            limited.stats.bytes_scanned,
            full.stats.bytes_scanned
        );
    }

    #[test]
    fn limit_bills_through_the_terminator_of_the_last_record_read() {
        // LIMIT stops the scan where the next record starts: behind the
        // `\r\n` (not just the `\r`) of the last record returned, and in
        // front of the blank line that follows it.
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let scanned_by = |object: &str, limit: u64| {
            let store = S3Store::new();
            store.put_object("b", "t.csv", object.as_bytes().to_vec());
            let sql = format!("SELECT k FROM S3Object LIMIT {limit}");
            let resp = S3SelectEngine::new(store)
                .select("b", "t.csv", &sql, &schema, InputFormat::Csv)
                .unwrap();
            assert_eq!(resp.stats.records_returned, limit);
            resp.stats.bytes_scanned
        };
        let crlf = "k,s\r\n1,a\r\n2,bb\r\n\r\n3,c\r\n";
        assert_eq!(scanned_by(crlf, 1), "k,s\r\n1,a\r\n".len() as u64);
        assert_eq!(scanned_by(crlf, 2), "k,s\r\n1,a\r\n2,bb\r\n".len() as u64);
        assert_eq!(scanned_by(crlf, 3), crlf.len() as u64);
        let lf = "k,s\n1,a\n2,bb\n\n3,c";
        assert_eq!(scanned_by(lf, 2), "k,s\n1,a\n2,bb\n".len() as u64);
        // No terminator behind the last record: the object's length.
        assert_eq!(scanned_by(lf, 3), lf.len() as u64);
    }

    #[test]
    fn sql_size_limit_enforced() {
        let rows = customer_rows(5);
        let e = engine_with_csv(&rows);
        let huge = format!(
            "SELECT c_custkey FROM S3Object WHERE c_name <> '{}'",
            "x".repeat(300 * 1024)
        );
        let err = e
            .select(
                "tpch",
                "customer.csv",
                &huge,
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
        assert!(err.to_string().contains("256"));
    }

    #[test]
    fn group_by_rejected_at_the_service() {
        let rows = customer_rows(5);
        let e = engine_with_csv(&rows);
        let err = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT c_nationkey, SUM(c_acctbal) FROM S3Object GROUP BY c_nationkey",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
    }

    #[test]
    fn ledger_meters_scan_and_return() {
        let rows = customer_rows(100);
        let e = engine_with_csv(&rows);
        let resp = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT c_custkey FROM S3Object WHERE c_custkey <= 10",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        let u = e.store().ledger().snapshot();
        assert_eq!(u.requests, 1);
        assert_eq!(u.select_scanned_bytes, resp.stats.bytes_scanned);
        assert_eq!(u.select_returned_bytes, resp.stats.bytes_returned);
        assert_eq!(u.plain_bytes, 0, "select responses are not plain transfer");
    }

    #[test]
    fn columnar_matches_csv_results() {
        let rows = customer_rows(500);
        let csv = engine_with_csv(&rows);
        let col = engine_with_columnar(&rows);
        for sql in [
            "SELECT * FROM S3Object",
            "SELECT c_custkey, c_acctbal FROM S3Object WHERE c_acctbal > 0",
            "SELECT SUM(c_acctbal), COUNT(*) FROM S3Object WHERE c_nationkey = 3",
            "SELECT c_name FROM S3Object WHERE c_custkey BETWEEN 100 AND 120",
            "SELECT c_custkey FROM S3Object LIMIT 17",
        ] {
            let a = csv
                .select(
                    "tpch",
                    "customer.csv",
                    sql,
                    &customer_schema(),
                    InputFormat::Csv,
                )
                .unwrap();
            let b = col
                .select(
                    "tpch",
                    "customer.clt",
                    sql,
                    &customer_schema(),
                    InputFormat::Columnar,
                )
                .unwrap();
            assert_eq!(a.rows().unwrap(), b.rows().unwrap(), "{sql}");
        }
    }

    #[test]
    fn columnar_scans_fewer_bytes_for_narrow_projections() {
        let rows = customer_rows(2000);
        let col = engine_with_columnar(&rows);
        let narrow = col
            .select(
                "tpch",
                "customer.clt",
                "SELECT c_custkey FROM S3Object",
                &customer_schema(),
                InputFormat::Columnar,
            )
            .unwrap();
        let wide = col
            .select(
                "tpch",
                "customer.clt",
                "SELECT * FROM S3Object",
                &customer_schema(),
                InputFormat::Columnar,
            )
            .unwrap();
        assert!(
            narrow.stats.bytes_scanned * 2 < wide.stats.bytes_scanned,
            "narrow {} vs wide {}",
            narrow.stats.bytes_scanned,
            wide.stats.bytes_scanned
        );
    }

    #[test]
    fn columnar_prunes_row_groups() {
        let rows = customer_rows(1000); // 10 row groups of 100; c_custkey 1..=1000
        let col = engine_with_columnar(&rows);
        let selective = col
            .select(
                "tpch",
                "customer.clt",
                "SELECT c_custkey FROM S3Object WHERE c_custkey <= 50",
                &customer_schema(),
                InputFormat::Columnar,
            )
            .unwrap();
        let full = col
            .select(
                "tpch",
                "customer.clt",
                "SELECT c_custkey FROM S3Object WHERE c_custkey >= 0",
                &customer_schema(),
                InputFormat::Columnar,
            )
            .unwrap();
        assert_eq!(selective.stats.records_returned, 50);
        assert!(
            selective.stats.bytes_scanned < full.stats.bytes_scanned / 4,
            "pruned {} vs full {}",
            selective.stats.bytes_scanned,
            full.stats.bytes_scanned
        );
    }

    #[test]
    fn response_is_always_csv_even_for_columnar_input() {
        let rows = customer_rows(10);
        let col = engine_with_columnar(&rows);
        let resp = col
            .select(
                "tpch",
                "customer.clt",
                "SELECT * FROM S3Object",
                &customer_schema(),
                InputFormat::Columnar,
            )
            .unwrap();
        // The payload is plain text CSV, one line per record.
        let text = std::str::from_utf8(&resp.data).unwrap();
        assert_eq!(text.lines().count(), 10);
        assert!(text.starts_with("1,Customer#000000,"));
    }

    #[test]
    fn missing_object_fails_but_bills_the_request() {
        let e = engine_with_csv(&customer_rows(1));
        let err = e
            .select(
                "tpch",
                "nope.csv",
                "SELECT * FROM S3Object",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "NoSuchKey");
        assert_eq!(e.store().ledger().snapshot().requests, 1);
    }

    #[test]
    fn bind_errors_surface() {
        let e = engine_with_csv(&customer_rows(1));
        let err = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT no_such FROM S3Object",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "BindError");
    }

    #[test]
    fn native_group_by_requires_the_extension() {
        let rows = customer_rows(100);
        let e = engine_with_csv(&rows);
        let ext = pushdown_sql::parser::parse_select_extended(
            "SELECT c_nationkey, SUM(c_acctbal) FROM S3Object GROUP BY c_nationkey",
        )
        .unwrap();
        let err = e
            .select_grouped(
                "tpch",
                "customer.csv",
                &ext,
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
    }

    #[test]
    fn native_group_by_matches_case_when_results() {
        let rows = customer_rows(200);
        let e = engine_with_csv(&rows).with_extensions(EngineExtensions {
            native_group_by: true,
            ..Default::default()
        });
        let ext = pushdown_sql::parser::parse_select_extended(
            "SELECT c_nationkey, SUM(c_acctbal), COUNT(*) FROM S3Object \
             WHERE c_custkey > 10 GROUP BY c_nationkey",
        )
        .unwrap();
        let resp = e
            .select_grouped(
                "tpch",
                "customer.csv",
                &ext,
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        let got = resp.rows().unwrap();
        // Local reference aggregation.
        let mut expect: std::collections::BTreeMap<i64, (f64, i64)> = Default::default();
        for r in rows.iter().filter(|r| r[0].as_i64().unwrap() > 10) {
            let e = expect.entry(r[3].as_i64().unwrap()).or_insert((0.0, 0));
            e.0 += r[2].as_f64().unwrap();
            e.1 += 1;
        }
        assert_eq!(got.len(), expect.len());
        for row in &got {
            let (sum, n) = expect[&row[0].as_i64().unwrap()];
            assert!((row[1].as_f64().unwrap() - sum).abs() < 1e-6);
            assert_eq!(row[2], Value::Int(n));
        }
        // The statement is tiny compared to the CASE-WHEN rewrite.
        assert!(resp.stats.expr_terms < 10);
    }

    #[test]
    fn native_group_by_validates_items() {
        let rows = customer_rows(10);
        let e = engine_with_csv(&rows).with_extensions(EngineExtensions {
            native_group_by: true,
            ..Default::default()
        });
        // A scalar item that is not a grouping column.
        let ext = pushdown_sql::parser::parse_select_extended(
            "SELECT c_name, SUM(c_acctbal) FROM S3Object GROUP BY c_nationkey",
        )
        .unwrap();
        assert!(e
            .select_grouped(
                "tpch",
                "customer.csv",
                &ext,
                &customer_schema(),
                InputFormat::Csv
            )
            .is_err());
    }

    fn grouped(e: &S3SelectEngine, key: &str, sql: &str) -> Result<SelectResponse> {
        let format = match key {
            "customer.clt" => InputFormat::Columnar,
            _ => InputFormat::Csv,
        };
        let ext = pushdown_sql::parser::parse_select_extended(sql)?;
        e.select_grouped("tpch", key, &ext, &customer_schema(), format)
    }

    fn native(e: S3SelectEngine) -> S3SelectEngine {
        e.with_extensions(EngineExtensions {
            native_group_by: true,
            ..Default::default()
        })
    }

    #[test]
    fn grouped_limit_cuts_the_sorted_groups() {
        let e = native(engine_with_csv(&customer_rows(100)));
        let sql = "SELECT c_nationkey, COUNT(*) FROM S3Object GROUP BY c_nationkey LIMIT 2";
        let resp = grouped(&e, "customer.csv", sql).unwrap();
        let want = vec![
            Row::new(vec![Value::Int(0), Value::Int(4)]),
            Row::new(vec![Value::Int(1), Value::Int(4)]),
        ];
        assert_eq!(resp.rows().unwrap(), want);
        assert_eq!(resp.stats.records_returned, 2);
    }

    #[test]
    fn grouped_bit_at_requires_the_bitwise_extension() {
        let e = native(engine_with_csv(&customer_rows(20)));
        let sql = "SELECT c_nationkey, COUNT(*) FROM S3Object \
                   WHERE BIT_AT('f0000000', c_nationkey + 1) = 1 GROUP BY c_nationkey";
        let err = grouped(&e, "customer.csv", sql).unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
        let both = e.clone().with_extensions(EngineExtensions {
            native_group_by: true,
            bitwise: true,
            ..Default::default()
        });
        let keys: Vec<Value> = grouped(&both, "customer.csv", sql)
            .unwrap()
            .rows()
            .unwrap()
            .iter()
            .map(|r| r[0].clone())
            .collect();
        assert_eq!(keys, (0..4).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn grouped_columnar_scans_fewer_bytes_than_select_star() {
        let e = native(engine_with_columnar(&customer_rows(2000)));
        let narrow = grouped(
            &e,
            "customer.clt",
            "SELECT c_nationkey, COUNT(*) FROM S3Object GROUP BY c_nationkey",
        )
        .unwrap();
        let wide = e
            .select(
                "tpch",
                "customer.clt",
                "SELECT * FROM S3Object",
                &customer_schema(),
                InputFormat::Columnar,
            )
            .unwrap();
        assert_eq!(narrow.stats.records_returned, 25);
        assert!(
            narrow.stats.bytes_scanned * 2 < wide.stats.bytes_scanned,
            "narrow {} vs wide {}",
            narrow.stats.bytes_scanned,
            wide.stats.bytes_scanned
        );
    }

    #[test]
    fn indexed_select_requires_the_extension_and_works() {
        // Build a small data + index object pair by hand.
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))]))
            .collect();
        let mut data = pushdown_format::csv::CsvWriter::with_header(&schema);
        let index_schema = Schema::from_pairs(&[
            ("value", DataType::Int),
            ("first_byte_offset", DataType::Int),
            ("last_byte_offset", DataType::Int),
        ]);
        let mut index = pushdown_format::csv::CsvWriter::with_header(&index_schema);
        for r in &rows {
            let (first, last) = data.write_row(r);
            index.write_row(&Row::new(vec![
                r[0].clone(),
                Value::Int(first as i64),
                Value::Int(last as i64),
            ]));
        }
        let store = S3Store::new();
        store.put_object("b", "data.csv", data.finish());
        store.put_object("b", "index.csv", index.finish());

        let pred = pushdown_sql::parse_expr("value >= 10 AND value < 13").unwrap();
        let stock = S3SelectEngine::new(store.clone());
        assert_eq!(
            stock
                .select_indexed("b", "index.csv", "data.csv", &index_schema, &schema, &pred)
                .unwrap_err()
                .code(),
            "SelectRejected"
        );
        // A scoped store handle isolates this lookup's bill from the
        // failed stock attempt above.
        let scope = store.scoped();
        let extended = S3SelectEngine::new(scope.clone()).with_extensions(EngineExtensions {
            index_in_s3: true,
            ..Default::default()
        });
        let resp = extended
            .select_indexed("b", "index.csv", "data.csv", &index_schema, &schema, &pred)
            .unwrap();
        let got = resp.rows().unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], rows[10]);
        assert_eq!(got[2], rows[12]);
        // Exactly one request, no plain transfer — the whole point of
        // Suggestion 2.
        let u = scope.ledger().snapshot();
        assert_eq!(u.requests, 1);
        assert_eq!(u.plain_bytes, 0);
        assert!(u.select_scanned_bytes > 0);
    }

    #[test]
    fn count_star_with_where() {
        let rows = customer_rows(300);
        let e = engine_with_csv(&rows);
        let resp = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT COUNT(*) FROM S3Object WHERE c_nationkey = 7",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        let expect = rows.iter().filter(|r| r[3] == Value::Int(7)).count() as i64;
        assert_eq!(resp.rows().unwrap()[0][0], Value::Int(expect));
    }

    #[test]
    fn select_requests_retry_transient_faults_and_meter_attempts() {
        use pushdown_s3::FaultPlan;
        let rows = customer_rows(50);
        let store = S3Store::new();
        store.put_object(
            "tpch",
            "customer.csv",
            encode_csv(&customer_schema(), rows.as_slice()),
        );
        store.set_fault_plan(Some(FaultPlan::new(21, 0.5)));
        let scope = store.scoped();
        let e = S3SelectEngine::new(scope.clone())
            .with_retry(pushdown_common::RetryPolicy::with_attempts(24));
        let resp = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT c_custkey FROM S3Object WHERE c_custkey <= 5",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap();
        assert_eq!(resp.rows().unwrap().len(), 5);
        let u = scope.ledger().snapshot();
        // Every attempt billed one request; bytes billed exactly once.
        assert_eq!(u.requests, u64::from(resp.stats.attempts));
        assert_eq!(u.select_scanned_bytes, resp.stats.bytes_scanned);
        assert_eq!(u.select_returned_bytes, resp.stats.bytes_returned);
        // prob 1.0 exhausts the policy and surfaces the fault.
        store.set_fault_plan(Some(FaultPlan::new(21, 1.0)));
        let err = e
            .select(
                "tpch",
                "customer.csv",
                "SELECT c_custkey FROM S3Object",
                &customer_schema(),
                InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "ServiceFault");
        assert!(err.to_string().contains("seed=21"), "{err}");
        // Deterministic failures (bad SQL) are not retried: one request.
        store.set_fault_plan(None);
        let scope2 = store.scoped();
        let e2 = S3SelectEngine::new(scope2.clone());
        let _ = e2.select(
            "tpch",
            "customer.csv",
            "SELECT no_such FROM S3Object",
            &customer_schema(),
            InputFormat::Csv,
        );
        assert_eq!(scope2.ledger().snapshot().requests, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use pushdown_common::DataType;
    use pushdown_format::columnar::{encode_columnar, WriterOptions};
    use pushdown_format::csv::encode_csv;
    use pushdown_sql::bind::Binder;
    use pushdown_sql::eval::eval_predicate;
    use pushdown_sql::parse_expr;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)])
    }

    fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
        proptest::collection::vec(
            (-100i64..100, -100f64..100.0)
                .prop_map(|(a, b)| Row::new(vec![Value::Int(a), Value::Float(b)])),
            0..200,
        )
    }

    /// Five columns covering every type, NULL-heavy, with occasional
    /// wrong-typed entries the columnar writer coerces to the column's
    /// storage default (the case that used to desynchronize chunk stats
    /// from the stored data).
    fn mixed_schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
            ("f", DataType::Bool),
        ])
    }

    fn arb_mixed_rows() -> impl Strategy<Value = Vec<Row>> {
        // Genuine k values are strictly positive, so a coerced Int(0)
        // always sits *outside* the genuine range — the configuration
        // where stale (pre-coercion) chunk stats caused wrong pruning.
        let k = prop_oneof![
            3 => (5i64..50).prop_map(Value::Int),
            2 => Just(Value::Null),
            1 => (-50.0f64..50.0).prop_map(Value::Float), // wrong-typed: stores as Int(0)
        ];
        let v = prop_oneof![
            2 => (-50.0f64..50.0).prop_map(Value::Float),
            1 => Just(Value::Null),
        ];
        let s = prop_oneof![
            2 => "[a-c]{0,2}".prop_map(Value::Str), // low cardinality → dictionary
            1 => Just(Value::Null),
        ];
        let d = prop_oneof![
            2 => (7000i32..7100).prop_map(Value::Date),
            1 => Just(Value::Null),
        ];
        let f = prop_oneof![
            2 => any::<bool>().prop_map(Value::Bool),
            1 => Just(Value::Null),
        ];
        proptest::collection::vec(
            (k, v, s, d, f).prop_map(|(k, v, s, d, f)| Row::new(vec![k, v, s, d, f])),
            0..120,
        )
    }

    /// Conjunctions whose atoms are all candidates for row-group pruning
    /// (plus NULL checks, which are not, for coverage).
    fn arb_mixed_pred() -> impl Strategy<Value = String> {
        let atom = prop_oneof![
            2 => (-55i64..55).prop_map(|x| format!("k < {x}")),
            2 => Just("k = 0".to_string()), // matches only coerced entries
            1 => (-55i64..55).prop_map(|x| format!("k >= {x}")),
            1 => (-55i64..55).prop_map(|x| format!("k = {x}")),
            1 => (-55.0f64..55.0).prop_map(|x| format!("v > {x:.2}")),
            1 => (-55.0f64..55.0).prop_map(|x| format!("v <= {x:.2}")),
            1 => (7000i32..7100)
                .prop_map(|x| format!("d >= DATE '{}'", Value::Date(x).to_csv_field())),
            1 => Just("s = 'ab'".to_string()),
            1 => Just("k IS NULL".to_string()),
            1 => Just("f IS NOT NULL".to_string()),
        ];
        proptest::collection::vec(atom, 1..4).prop_map(|atoms| atoms.join(" AND "))
    }

    /// CSV-dialect rendering, so NULL and the empty string (which the
    /// response encoding cannot distinguish) compare equal.
    fn canon(rows: Vec<Row>) -> Vec<Vec<String>> {
        rows.into_iter()
            .map(|r| r.values().iter().map(Value::to_csv_field).collect())
            .collect()
    }

    /// Random predicates over (a, b) from a small grammar.
    fn arb_pred() -> impl Strategy<Value = String> {
        let atom = prop_oneof![
            (-100i64..100).prop_map(|k| format!("a <= {k}")),
            (-100i64..100).prop_map(|k| format!("a > {k}")),
            (-100i64..100).prop_map(|k| format!("a = {k}")),
            (-100f64..100.0).prop_map(|k| format!("b < {k:.3}")),
            (-100i64..100).prop_map(|k| format!("a BETWEEN {k} AND {}", k + 20)),
            Just("a IS NOT NULL".to_string()),
        ];
        proptest::collection::vec(atom, 1..4).prop_map(|atoms| atoms.join(" AND "))
    }

    fn grouped_schema() -> Schema {
        Schema::from_pairs(&[
            ("g", DataType::Int),
            ("s", DataType::Str),
            ("v", DataType::Float),
            ("w", DataType::Int),
        ])
    }

    /// NULL-bearing rows over few distinct group values.
    fn arb_grouped_rows() -> impl Strategy<Value = Vec<Row>> {
        let g = prop_oneof![3 => (0i64..4).prop_map(Value::Int), 1 => Just(Value::Null)];
        let s = prop_oneof![3 => "[a-c]{1,2}".prop_map(Value::Str), 1 => Just(Value::Null)];
        let v = prop_oneof![3 => (-50.0f64..50.0).prop_map(Value::Float), 1 => Just(Value::Null)];
        let w = prop_oneof![3 => (0i64..100).prop_map(Value::Int), 1 => Just(Value::Null)];
        proptest::collection::vec(
            (g, s, v, w).prop_map(|(g, s, v, w)| Row::new(vec![g, s, v, w])),
            0..120,
        )
    }

    fn arb_grouping() -> impl Strategy<Value = Vec<&'static str>> {
        prop_oneof![
            Just(vec!["g"]),
            Just(vec!["s"]),
            Just(vec!["g", "s"]),
            Just(vec!["s", "g"]),
        ]
    }

    fn arb_grouped_where() -> impl Strategy<Value = Option<String>> {
        prop_oneof![
            2 => Just(None),
            2 => (0i64..100).prop_map(|k| Some(format!("w >= {k}"))),
            1 => Just(Some("v IS NOT NULL".to_string())),
        ]
    }

    /// Reference group-by: rows folded in row order, groups sorted by key.
    fn reference_group_by(rows: &[Row], cols: &[usize], pred: Option<&BoundExpr>) -> Vec<Row> {
        use pushdown_sql::Accumulator;
        let funcs = [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ];
        let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
        for r in rows {
            if pred.is_some_and(|p| !eval_predicate(p, r).unwrap()) {
                continue;
            }
            let key: Vec<Value> = cols.iter().map(|&c| r[c].clone()).collect();
            let at = match groups.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    groups.push((key, funcs.iter().map(AggFunc::accumulator).collect()));
                    groups.len() - 1
                }
            };
            let args = [&r[2], &Value::Bool(true), &r[2], &r[3], &r[1], &r[2]];
            for (acc, v) in groups[at].1.iter_mut().zip(args) {
                acc.update(v).unwrap();
            }
        }
        groups.sort_by(|(a, _), (b, _)| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.iter().map(Accumulator::finish));
                Row::new(key)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// §X's native GROUP BY through the engine's one executor answers
        /// a reference group-by over the same rows — floats bit-equal,
        /// since both fold in row order — on CSV and on ColumnarLite,
        /// whose bill never exceeds the object.
        #[test]
        fn native_group_by_matches_a_reference_group_by(
            rows in arb_grouped_rows(),
            grouping in arb_grouping(),
            pred in arb_grouped_where(),
            limit in prop_oneof![3 => Just(None), 1 => (0u64..4).prop_map(Some)],
            columnar in any::<bool>(),
        ) {
            let schema = grouped_schema();
            let store = S3Store::new();
            let format = if columnar {
                let opts = WriterOptions { rows_per_group: 16, compress: true };
                store.put_object("b", "t", encode_columnar(&schema, &rows, opts));
                InputFormat::Columnar
            } else {
                store.put_object("b", "t", encode_csv(&schema, &rows));
                InputFormat::Csv
            };
            let engine = S3SelectEngine::new(store.clone()).with_extensions(EngineExtensions {
                native_group_by: true,
                ..Default::default()
            });
            let groups = grouping.join(", ");
            let sql = format!(
                "SELECT {groups}, SUM(v), COUNT(*), COUNT(v), MIN(w), MAX(s), AVG(v) \
                 FROM S3Object{} GROUP BY {groups}{}",
                pred.as_ref().map_or(String::new(), |p| format!(" WHERE {p}")),
                limit.map_or(String::new(), |l| format!(" LIMIT {l}")),
            );
            let ext = parse_select_extended(&sql).unwrap();
            let resp = engine.select_grouped("b", "t", &ext, &schema, format).unwrap();

            let cols: Vec<usize> = grouping.iter().map(|g| schema.resolve(g).unwrap()).collect();
            let bound = pred
                .as_ref()
                .map(|p| Binder::new(&schema).bind_expr(&parse_expr(p).unwrap()).unwrap());
            let mut want = reference_group_by(&rows, &cols, bound.as_ref());
            want.truncate(limit.map_or(usize::MAX, |l| l as usize));
            // `Debug` tells `Int 3` from `Float 3.0` and every float bit.
            let debug = |rows: &[Row]| -> Vec<Vec<String>> {
                rows.iter()
                    .map(|r| r.values().iter().map(|v| format!("{v:?}")).collect())
                    .collect()
            };
            prop_assert_eq!(debug(&resp.rows().unwrap()), debug(&want));
            prop_assert_eq!(resp.stats.records_returned, want.len() as u64);
            if columnar {
                prop_assert!(resp.stats.bytes_scanned <= store.total_size("b", "t"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pushing a predicate to the Select engine returns exactly the
        /// rows a local evaluation of the same predicate keeps — the
        /// equivalence every pushdown algorithm in the paper relies on.
        #[test]
        fn pushdown_equals_local_filter(rows in arb_rows(), pred in arb_pred()) {
            let schema = schema();
            let store = S3Store::new();
            store.put_object("b", "t.csv", encode_csv(&schema, &rows));
            let engine = S3SelectEngine::new(store);
            let sql = format!("SELECT * FROM S3Object WHERE {pred}");
            let pushed = engine
                .select("b", "t.csv", &sql, &schema, InputFormat::Csv)
                .unwrap()
                .rows()
                .unwrap();
            let bound = Binder::new(&schema).bind_expr(&parse_expr(&pred).unwrap()).unwrap();
            let local: Vec<Row> = rows
                .iter()
                .filter(|r| eval_predicate(&bound, r).unwrap())
                .cloned()
                .collect();
            // Floats round-trip through CSV text exactly (shortest repr).
            prop_assert_eq!(pushed, local);
        }

        /// CSV and columnar storage give identical answers.
        #[test]
        fn csv_and_columnar_agree(rows in arb_rows(), pred in arb_pred()) {
            let schema = schema();
            let store = S3Store::new();
            store.put_object("b", "t.csv", encode_csv(&schema, &rows));
            store.put_object(
                "b",
                "t.clt",
                encode_columnar(&schema, &rows, WriterOptions { rows_per_group: 64, compress: true }),
            );
            let engine = S3SelectEngine::new(store);
            let sql = format!(
                "SELECT a, b FROM S3Object WHERE {pred}"
            );
            let a = engine.select("b", "t.csv", &sql, &schema, InputFormat::Csv).unwrap();
            let b = engine.select("b", "t.clt", &sql, &schema, InputFormat::Columnar).unwrap();
            prop_assert_eq!(a.rows().unwrap(), b.rows().unwrap());
        }

        /// Differential: the engine's columnar scan — which prunes row
        /// groups via chunk statistics — returns exactly what a
        /// pruning-disabled scan (full decode of every row group + local
        /// filter) returns, on mixed-type, NULL-heavy chunks.
        #[test]
        fn columnar_pruning_never_changes_results(
            rows in arb_mixed_rows(),
            pred in arb_mixed_pred(),
        ) {
            let schema = mixed_schema();
            let store = S3Store::new();
            let bytes = encode_columnar(
                &schema,
                &rows,
                // Tiny row groups so selective predicates actually prune.
                WriterOptions { rows_per_group: 16, compress: true },
            );
            store.put_object("b", "t.clt", bytes.clone());
            let engine = S3SelectEngine::new(store);
            let sql = format!("SELECT * FROM S3Object WHERE {pred}");
            let pruned = engine
                .select("b", "t.clt", &sql, &schema, InputFormat::Columnar)
                .unwrap()
                .rows()
                .unwrap();
            // Pruning-disabled reference: decode every row group in full
            // and filter locally with identical predicate semantics.
            let reader = ColumnarReader::open(Bytes::from(bytes)).unwrap();
            let stored = reader.read_all().unwrap();
            let bound = Binder::new(&schema).bind_expr(&parse_expr(&pred).unwrap()).unwrap();
            let reference: Vec<Row> = stored
                .into_iter()
                .filter(|r| eval_predicate(&bound, r).unwrap())
                .collect();
            prop_assert_eq!(canon(pruned), canon(reference));
        }

        /// Aggregates computed by the engine equal aggregates computed
        /// locally.
        #[test]
        fn pushed_aggregates_match_local(rows in arb_rows()) {
            let schema = schema();
            let store = S3Store::new();
            store.put_object("b", "t.csv", encode_csv(&schema, &rows));
            let engine = S3SelectEngine::new(store);
            let resp = engine
                .select(
                    "b",
                    "t.csv",
                    "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM S3Object",
                    &schema,
                    InputFormat::Csv,
                )
                .unwrap();
            let out = &resp.rows().unwrap()[0];
            prop_assert_eq!(out[0].clone(), Value::Int(rows.len() as i64));
            if rows.is_empty() {
                prop_assert!(out[1].is_null());
            } else {
                let sum: i64 = rows.iter().map(|r| r[0].as_i64().unwrap()).sum();
                prop_assert_eq!(out[1].clone(), Value::Int(sum));
                let min = rows.iter().map(|r| r[1].as_f64().unwrap()).fold(f64::INFINITY, f64::min);
                prop_assert!((out[2].as_f64().unwrap() - min).abs() < 1e-9);
            }
        }
    }
}
