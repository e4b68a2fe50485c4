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
//! Execution (one executor for both formats, and for both sides of the
//! wire): [`Executor`] decodes the referenced columns into typed column
//! vectors — CSV a batch of records at a time, ColumnarLite a row group
//! at a time ([`Executor::scan`]) —, turns the `WHERE` clause into a
//! selection vector ([`pushdown_sql::vector`]) and builds `Value` rows
//! only for the rows a statement returns, handing each to a sink: a
//! request's CSV response here, the outgoing batches of a compute node's
//! GET or cache scan there (`pushdown_core::scan`), which runs the same
//! statement through the same executor, with an optional top-K reducer
//! and without row-group pruning — or a grouping operator's statement,
//! folding a partition into its partials, over the decoded object or
//! over the rows a Select response returned ([`Object::Response`]).
//! Rows, float bits, the first error and
//! the bill are what evaluating the statement a row at a time gives —
//! a `WHERE` that can raise prunes no row group, so no error is skipped.
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
use pushdown_common::columnar::ColumnarBatch;
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Error, Result, RetryPolicy, Row, Schema, Value};
use pushdown_format::columnar::{ColumnarReader, PruneOp};
use pushdown_format::csv::{decode_record, CsvReader, CsvWriter};
use pushdown_s3::S3Store;
use pushdown_sql::agg::{AggFunc, GroupTable, TopKAccumulator};
use pushdown_sql::ast::ExtendedSelect;
use pushdown_sql::bind::{Binder, BoundExpr, BoundItem, BoundSelect};
use pushdown_sql::eval::eval_predicate;
use pushdown_sql::vector::{compile_predicate, ColumnarPred, Filter, RowExpr};
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
    /// row-group pruning, `LIMIT` and billing as for any statement. The
    /// planner then folds every group-by over a whole Select scan here
    /// — the `filtered` group-by ships its statement whole — instead of
    /// in the worker that receives the rows.
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
            rows.push(decode_record(&data_raw[first..=last], data_schema)?);
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

        // The response is headerless CSV (always CSV, §IX), written as the
        // executor hands on each row.
        let mut w = CsvWriter::headerless();
        let mut records = 0u64;
        let mut write = |row: Row| {
            w.write_row(&row);
            records += 1;
            Ok(())
        };
        let mut exec = Executor::new(&bound, None, &mut write);
        let scanned = match format {
            InputFormat::Csv => exec.scan(Object::Csv(&raw, schema), &[])?,
            InputFormat::Columnar => {
                let reader = ColumnarReader::open(raw.clone())?;
                if reader.schema() != schema {
                    return Err(Error::SelectRejected(format!(
                        "registered schema {schema} does not match object schema {}",
                        reader.schema()
                    )));
                }
                // Row-group pruning: skip groups the statistics rule out.
                let prune = bound.where_clause.as_ref().map(extract_prune_conditions);
                exec.scan(Object::Columnar(&reader), &prune.unwrap_or_default())?
            }
        };
        exec.finish()?;
        let payload = w.finish();
        let stats = SelectStats {
            bytes_scanned: scanned.bytes,
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
}

/// Records a CSV scan decodes into one batch. (The unit tests' batches
/// are small, so that their small objects cross batch boundaries and a
/// LIMIT or a bad record falls inside a batch.)
const CSV_BATCH_ROWS: usize = if cfg!(test) { 3 } else { 128 };

/// Does the statement call the `BIT_AT` extension function anywhere?
fn stmt_uses_bitat(stmt: &SelectStmt) -> bool {
    use pushdown_sql::ast::Func;
    use pushdown_sql::{Expr, SelectItem};
    let exprs = stmt.items.iter().filter_map(|i| match i {
        SelectItem::Wildcard => None,
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Agg { arg, .. } => arg.as_ref(),
    });
    let mut uses = false;
    for e in exprs.chain(&stmt.where_clause) {
        e.walk(&mut |e| uses |= matches!(e, Expr::Call { func, .. } if *func == Func::BitAt));
    }
    uses
}

/// A `column op literal` conjunct a row group's chunk statistics can
/// rule out ([`ColumnarReader::can_prune`]).
pub type Prune = (usize, PruneOp, Value);

/// Extract `column op literal` conjuncts usable for row-group pruning.
/// Only AND chains are split: pruning on one conjunct never drops a row
/// the chain keeps. It does skip evaluating the other conjuncts on the
/// group's rows — before it on every row, after it on the rows whose
/// column is NULL, which chunk statistics do not count — so a `WHERE`
/// that can raise ([`compile_predicate`] does not take it) prunes
/// nothing: its first error is the one a row-at-a-time scan raises.
fn extract_prune_conditions(e: &BoundExpr) -> Vec<Prune> {
    if compile_predicate(e).is_none() {
        return Vec::new();
    }
    e.conjuncts()
        .into_iter()
        .filter_map(|c| {
            let (col, op, v) = c.column_vs_literal()?;
            let op = match op {
                BinOp::Eq => PruneOp::Eq,
                BinOp::Lt => PruneOp::Lt,
                BinOp::LtEq => PruneOp::LtEq,
                BinOp::Gt => PruneOp::Gt,
                BinOp::GtEq => PruneOp::GtEq,
                _ => return None,
            };
            (!v.is_null()).then(|| (col, op, v.clone()))
        })
        .collect()
}

/// One object's bytes as [`Executor::scan`] decodes them.
pub enum Object<'a> {
    /// A CSV object with a header row, whole, and its schema.
    Csv(&'a [u8], &'a Schema),
    /// A Select response — headerless CSV — and its output schema: what a
    /// compute node folds when the engine returned rows, not partials.
    Response(&'a [u8], &'a Schema),
    /// A ColumnarLite object, opened whole or from the segments a scan
    /// reads ([`ColumnarReader::open_parts`]).
    Columnar(&'a ColumnarReader),
}

/// What [`Executor::scan`] read of an object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scanned {
    /// Rows decoded (and run).
    pub rows: u64,
    /// The bytes a Select request bills as scanned: for CSV every byte
    /// up to where the scan stopped, for ColumnarLite the chunks of the
    /// referenced columns in the row groups not pruned
    /// ([`ColumnarReader::scanned_by`]).
    pub bytes: u64,
}

/// What an [`Executor`]'s operators did, in the engine's CPU units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Rows the `WHERE` clause saw: one unit each.
    pub filtered: u64,
    /// What the top-K reducer charged: `log2 K` per candidate.
    pub reduced: u64,
    /// Rows an aggregate statement folded into its group table.
    pub folded: u64,
}

/// The one fragment executor, on both sides of the wire: the Select
/// engine runs it on a request's object and writes what it hands on as
/// the CSV response, a compute node's GET or cache scan runs it on each
/// partition it decodes and batches what it hands on
/// (`pushdown_core::scan`). It runs a bound statement over typed column
/// batches — the columns the statement references
/// ([`BoundSelect::referenced_columns`]), in schema order — in row order: the `WHERE` clause becomes a
/// selection vector ([`Filter`]: compiled when it cannot raise, else
/// evaluated row by row); a projection builds a row for each selected
/// index only and stops the scan at `LIMIT`; an aggregate or grouped
/// statement folds the selected rows into one [`GroupTable`] — a scalar
/// aggregate is the one group of no columns — and `LIMIT` cuts its
/// finished groups. An optional top-K reducer keeps only the K best of
/// the rows the statement returns and hands them on, in the order they
/// came, at [`Executor::finish`]; over plain columns it compares the sort
/// keys column-side and builds rows only for those entering its heap.
/// Rows, float bits and the first error, in (row, item) order, are what
/// evaluating the statement a row at a time gives; `sink` receives each
/// row as it is produced, so rows before an error have left.
pub struct Executor<'a> {
    bound: &'a BoundSelect,
    /// The schema columns a batch holds, ascending.
    needed: Vec<usize>,
    filter: Option<Filter>,
    rows: Rows,
    best: Option<TopKAccumulator>,
    sink: &'a mut dyn FnMut(Row) -> Result<()>,
    /// Rows handed on (or to the reducer) so far, which `LIMIT` counts.
    emitted: u64,
    /// Rows the `WHERE` clause saw, what the reducer charged, and the rows
    /// folded into the group table.
    filtered: u64,
    reduced: PhaseStats,
    folded: u64,
    /// The sparse row what does not compile evaluates on.
    scratch: Row,
}

/// How an [`Executor`] makes rows of the rows its filter selects.
enum Rows {
    /// One row of `outputs` per selected row; `columns` when every output
    /// is a batch column, which ones.
    Project {
        outputs: Vec<Operand>,
        columns: Option<Vec<usize>>,
    },
    /// Fold them into `table`: grouped by the batch columns `keys`, one
    /// argument per aggregate. `key` is the group key of a row, reused.
    Fold {
        table: GroupTable,
        keys: Vec<usize>,
        args: Vec<Arg>,
        key: Vec<Value>,
    },
}

/// A value per row of a batch.
enum Operand {
    /// Read off the batch.
    Column(usize),
    Literal(Value),
    /// Evaluated row by row.
    Row(RowExpr),
}

impl Operand {
    fn new(expr: BoundExpr) -> Self {
        match expr {
            BoundExpr::Column(c, _) => Operand::Column(c),
            BoundExpr::Literal(v) => Operand::Literal(v),
            expr => Operand::Row(RowExpr::new(expr)),
        }
    }

    /// Plain operands never raise.
    fn is_plain(expr: &BoundExpr) -> bool {
        matches!(expr, BoundExpr::Column(..) | BoundExpr::Literal(_))
    }

    fn value(&self, batch: &ColumnarBatch, i: usize, scratch: &mut Row) -> Result<Value> {
        match self {
            Operand::Column(c) => Ok(batch.column(*c).value_at(i)),
            Operand::Literal(v) => Ok(v.clone()),
            Operand::Row(expr) => expr.eval(batch, i, scratch),
        }
    }
}

/// An aggregate's argument.
enum Arg {
    /// `COUNT(*)`.
    Star,
    /// `CASE WHEN cond THEN a [ELSE b] END` over plain operands, `cond`
    /// compiled — the item a CASE-WHEN group-by ships (paper Listing 4)
    /// — `a` where `cond` is TRUE, else `b` (NULL without an ELSE).
    When {
        cond: ColumnarPred,
        then: Operand,
        otherwise: Operand,
    },
    Value(Operand),
}

impl Arg {
    fn new(arg: Option<BoundExpr>) -> Self {
        let Some(expr) = arg else {
            return Arg::Star;
        };
        if let BoundExpr::Case {
            branches,
            else_expr,
        } = &expr
        {
            let otherwise = else_expr.as_deref().cloned();
            let otherwise = otherwise.unwrap_or(BoundExpr::Literal(Value::Null));
            if let [(cond, then)] = branches.as_slice() {
                let compiled = compile_predicate(cond);
                if let Some(cond) =
                    compiled.filter(|_| Operand::is_plain(then) && Operand::is_plain(&otherwise))
                {
                    return Arg::When {
                        cond,
                        then: Operand::new(then.clone()),
                        otherwise: Operand::new(otherwise),
                    };
                }
            }
        }
        Arg::Value(Operand::new(expr))
    }
}

impl<'a> Executor<'a> {
    /// The executor of `bound`, reducing its rows through `best` if
    /// given, handing them on to `sink`.
    pub fn new(
        bound: &'a BoundSelect,
        best: Option<TopKAccumulator>,
        sink: &'a mut dyn FnMut(Row) -> Result<()>,
    ) -> Self {
        let needed = bound.referenced_columns();
        let at = |c: usize| needed.binary_search(&c).expect("a referenced column");
        let onto_batch = |e: &BoundExpr| {
            let mut e = e.clone();
            e.map_columns(&mut |c| at(c));
            e
        };
        let rows = if bound.is_aggregate || !bound.group_by.is_empty() {
            let mut table = GroupTable::new(aggregates(bound).map(|(func, _)| func).collect());
            if bound.group_by.is_empty() {
                // Seeded, so that empty input still answers one row.
                table.group(&[]);
            }
            Rows::Fold {
                table,
                keys: bound.group_by.iter().map(|&c| at(c)).collect(),
                args: aggregates(bound)
                    .map(|(_, arg)| Arg::new(arg.map(onto_batch)))
                    .collect(),
                key: Vec::new(),
            }
        } else {
            let outputs: Vec<Operand> = (bound.items.iter())
                .map(|item| match item {
                    BoundItem::Expr { expr, .. } => Operand::new(onto_batch(expr)),
                    BoundItem::Agg { .. } => unreachable!("binder rejects mixed selects"),
                })
                .collect();
            let columns = outputs.iter().map(|o| match o {
                Operand::Column(c) => Some(*c),
                _ => None,
            });
            Rows::Project {
                columns: columns.collect(),
                outputs,
            }
        };
        Executor {
            filter: (bound.where_clause.as_ref()).map(|w| Filter::new(onto_batch(w))),
            bound,
            needed,
            rows,
            best,
            sink,
            emitted: 0,
            filtered: 0,
            reduced: PhaseStats::default(),
            folded: 0,
            scratch: Row::new(Vec::new()),
        }
    }

    /// Decode `object` and run the statement over it, batch by batch, in
    /// row order, until `LIMIT` is satisfied or the object ends. CSV
    /// decodes 128 records at a time through
    /// [`CsvReader::read_columns_into`]; a batch holding a bad record is
    /// read again one record at a time, so that what the records before
    /// it raise, or a `LIMIT` they satisfy, comes first. ColumnarLite
    /// decodes a row group at a time, skipping the groups `prune` rules
    /// out (a CSV object ignores it). Returns the rows decoded and the
    /// bytes a Select bills as scanned.
    pub fn scan(&mut self, object: Object<'_>, prune: &[Prune]) -> Result<Scanned> {
        let mut scanned = Scanned::default();
        match object {
            Object::Csv(raw, schema) | Object::Response(raw, schema) => {
                let reader = match object {
                    Object::Csv(..) => CsvReader::with_header(raw, schema.clone()),
                    _ => CsvReader::without_header(raw, schema.clone()),
                };
                let mut reader = reader.project(&self.needed);
                let mut batch = ColumnarBatch::empty(schema.project(&self.needed));
                let mut max_rows = CSV_BATCH_ROWS;
                loop {
                    let start = reader.clone();
                    match reader.read_columns_into(&mut batch, max_rows) {
                        None => break,
                        Some(Ok(())) => {}
                        // Every record before the bad one has run.
                        Some(Err(e)) if max_rows == 1 => return Err(e),
                        Some(Err(_)) => {
                            reader = start;
                            max_rows = 1;
                            continue;
                        }
                    }
                    scanned.rows += batch.len() as u64;
                    if let Some(last) = self.run(&batch)? {
                        // LIMIT satisfied at record `last` of the batch:
                        // the scan stops there, and bills the bytes up to
                        // where the next record starts — the last record
                        // read and its terminator, `\n` or `\r\n`,
                        // included.
                        reader = start;
                        reader.read_columns(last + 1).transpose()?;
                        break;
                    }
                }
                scanned.bytes = reader.consumed() as u64;
            }
            Object::Columnar(reader) => {
                for g in 0..reader.num_row_groups() {
                    if prune
                        .iter()
                        .any(|(col, op, v)| reader.can_prune(g, *col, *op, v))
                    {
                        continue;
                    }
                    scanned.bytes += reader.scanned_by(g, &self.needed);
                    let group = reader.read_group_batch_projected(g, &self.needed)?;
                    scanned.rows += group.len() as u64;
                    if self.run(&group)?.is_some() {
                        break; // LIMIT satisfied: the scan stops here
                    }
                }
            }
        }
        Ok(scanned)
    }

    /// Run the statement over the next batch, of the columns the
    /// statement references. `Some(i)`: `LIMIT` is satisfied at row `i`
    /// of it, and the scan stops there.
    fn run(&mut self, batch: &ColumnarBatch) -> Result<Option<usize>> {
        let Executor {
            bound,
            filter,
            rows,
            best,
            sink,
            emitted,
            filtered,
            reduced,
            folded,
            scratch,
            ..
        } = self;
        if scratch.len() != batch.columns.len() {
            *scratch = RowExpr::scratch(batch);
        }
        // What the filter raised stopped it at a row behind every one it
        // selected.
        let (sel, raised) = match filter {
            None => ((0..batch.len() as u32).collect(), Ok(())),
            Some(filter) => {
                *filtered += batch.len() as u64;
                filter.select(batch, scratch)
            }
        };
        match (rows, best.as_mut()) {
            // Plain columns into a reducer: the keys compare column-side,
            // and rows are built for the heap only.
            (
                Rows::Project {
                    columns: Some(columns),
                    ..
                },
                Some(heap),
            ) if bound.limit.is_none() => heap.push_columnar(batch, columns, &sel, reduced),
            (Rows::Project { outputs, .. }, _) => {
                for &i in &sel {
                    let i = i as usize;
                    if bound.limit == Some(0) {
                        return Ok(Some(i)); // `LIMIT 0`: stop at the first match, return none
                    }
                    // Sized exactly: a collected `Result` cannot know
                    // its length, and a row outlives its batch.
                    let mut row = Vec::with_capacity(outputs.len());
                    for o in outputs.iter() {
                        row.push(o.value(batch, i, scratch)?);
                    }
                    let row = Row::new(row);
                    match best {
                        Some(heap) => heap.push_row(row, reduced),
                        None => sink(row)?,
                    }
                    *emitted += 1;
                    if matches!(bound.limit, Some(l) if *emitted >= l) {
                        return Ok(Some(i));
                    }
                }
            }
            (
                Rows::Fold {
                    table,
                    keys,
                    args,
                    key,
                },
                _,
            ) => {
                *folded += sel.len() as u64;
                fold(table, keys, args, key, batch, &sel, scratch)?
            }
        }
        raised.map(|()| None)
    }

    /// Hand on what is left — an aggregate's finished groups, the
    /// reducer's K best — and say what the operators did.
    pub fn finish(self) -> Result<Work> {
        let Executor {
            bound,
            rows,
            mut best,
            sink,
            filtered,
            mut reduced,
            folded,
            ..
        } = self;
        if let Rows::Fold { table, .. } = rows {
            for row in finished_groups(bound, table) {
                match &mut best {
                    Some(heap) => heap.push_row(row, &mut reduced),
                    None => sink(row)?,
                }
            }
        }
        if let Some(heap) = best {
            heap.into_rows().into_iter().try_for_each(sink)?;
        }
        Ok(Work {
            filtered,
            reduced: reduced.server_cpu_units,
            folded,
        })
    }
}

/// An aggregate statement's answer off its group table: per group, the
/// statement's items in order, the groups sorted by key and cut at
/// `LIMIT`.
fn finished_groups(bound: &BoundSelect, table: GroupTable) -> Vec<Row> {
    // Where each output item sits in a finished `key ++ values` row: a
    // scalar item is a grouping column, the binder checked.
    let group_by = &bound.group_by;
    let mut next_agg = group_by.len();
    let take: Vec<usize> = (bound.items.iter())
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
    let limit = bound.limit.map_or(usize::MAX, |l| l as usize);
    (table.finish().iter())
        .take(limit)
        .map(|r| r.project(&take))
        .collect()
}

/// Fold the rows `sel` of `batch` into `table`: each selected row's group
/// opens in row order, then each aggregate folds its argument over the
/// selection in row order through [`pushdown_sql::Accumulator::update`].
/// The first error in (row, item) order is the one returned, so an
/// aggregate stops short of the row an earlier one raised at.
fn fold(
    table: &mut GroupTable,
    keys: &[usize],
    args: &[Arg],
    key: &mut Vec<Value>,
    batch: &ColumnarBatch,
    sel: &[u32],
    scratch: &mut Row,
) -> Result<()> {
    // Without grouping columns every row folds into the seeded group.
    let groups: Vec<usize> = if keys.is_empty() {
        Vec::new()
    } else {
        let mut open = |i: u32| {
            key.clear();
            key.extend(keys.iter().map(|&c| batch.column(c).value_at(i as usize)));
            table.open(key)
        };
        sel.iter().map(|&i| open(i)).collect()
    };
    let mut first: Option<(usize, Error)> = None;
    for (j, arg) in args.iter().enumerate() {
        let end = first.as_ref().map_or(sel.len(), |(p, _)| *p);
        let when = match arg {
            Arg::When { cond, .. } => cond.eval_tri(batch),
            _ => Vec::new(),
        };
        for (p, &i) in sel[..end].iter().enumerate() {
            let i = i as usize;
            let value = match arg {
                Arg::Star => Ok(Value::Bool(true)),
                Arg::When {
                    then, otherwise, ..
                } if when[i] == 1 => then.value(batch, i, scratch),
                Arg::When { otherwise, .. } => otherwise.value(batch, i, scratch),
                Arg::Value(operand) => operand.value(batch, i, scratch),
            };
            let at = groups.get(p).copied().unwrap_or(0);
            if let Err(e) = value.and_then(|v| table.accumulators(at)[j].update(&v)) {
                first = Some((p, e));
                break;
            }
        }
    }
    first.map_or(Ok(()), |(_, e)| Err(e))
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
        assert_eq!(scanned_by(crlf, 0), "k,s\r\n1,a\r\n".len() as u64);
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

    /// Pruning a row group skips evaluating the `WHERE` on its rows, so a
    /// `WHERE` that can raise prunes none: the division by zero in a
    /// group `c_custkey < 3` rules out is raised, as a row-at-a-time scan
    /// raises it, while the compiled `WHERE` alone still prunes. On this
    /// data, clustered on `c_custkey`, that bills a Bloom join's probe
    /// `WHERE` (a range conjunct `AND SUBSTRING(bits, hash + 1, 1) =
    /// '1'`, whose arithmetic can raise) every row group.
    #[test]
    fn a_where_that_can_raise_prunes_no_row_group() {
        let rows = customer_rows(300);
        let e = engine_with_columnar(&rows);
        let run = |sql: &str| {
            let format = InputFormat::Columnar;
            e.select("tpch", "customer.clt", sql, &customer_schema(), format)
        };
        let safe = run("SELECT c_custkey FROM S3Object WHERE c_custkey < 3").unwrap();
        let err = run(
            "SELECT c_custkey FROM S3Object WHERE 10 / (c_custkey - 150) > 0 AND c_custkey < 3",
        )
        .unwrap_err();
        assert_eq!(err.code(), "EvalError", "{err}");
        assert!(err.to_string().contains("division by zero"), "{err}");
        let whole = run("SELECT c_custkey FROM S3Object WHERE c_custkey % 1000 < 3").unwrap();
        assert!(safe.stats.bytes_scanned < whole.stats.bytes_scanned);
        let probe = "SUBSTRING('1011001', ((3 * CAST(c_custkey AS INT) + 1) % 11) % 7 + 1, 1)";
        let bloom = run(&format!(
            "SELECT c_custkey FROM S3Object WHERE c_custkey < 3 AND {probe} = '1'"
        ))
        .unwrap();
        assert_eq!(bloom.stats.bytes_scanned, whole.stats.bytes_scanned);
        assert_eq!(bloom.stats.records_returned, 1);
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
    use pushdown_sql::eval::{eval, eval_predicate};
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

    // -- the batch executor against a row-at-a-time oracle ----------------

    fn oracle_schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
            ("f", DataType::Bool),
        ])
    }

    /// Few distinct values of every type, with NULL, NaN, ±0.0, `''`,
    /// and an INT two of which overflow a `SUM`.
    fn arb_oracle_rows() -> impl Strategy<Value = Vec<Row>> {
        let k = prop_oneof![
            4 => (-3i64..4).prop_map(Value::Int),
            1 => Just(Value::Int(i64::MAX / 2 + 1)),
            2 => Just(Value::Null),
        ];
        let v = prop_oneof![
            3 => (-4i32..4).prop_map(|x| Value::Float(f64::from(x) / 2.0)),
            1 => Just(Value::Float(f64::NAN)),
            1 => Just(Value::Float(-0.0)),
            1 => Just(Value::Float(0.0)),
            1 => Just(Value::Null),
        ];
        let s = prop_oneof![
            3 => (0usize..4).prop_map(|i| Value::Str(["a", "b", "7", ""][i].to_string())),
            1 => Just(Value::Null),
        ];
        let d = prop_oneof![
            3 => (7000i32..7004).prop_map(Value::Date),
            1 => Just(Value::Null),
        ];
        let f = prop_oneof![
            2 => any::<bool>().prop_map(Value::Bool),
            1 => Just(Value::Null),
        ];
        proptest::collection::vec(
            (k, v, s, d, f).prop_map(|(k, v, s, d, f)| Row::new(vec![k, v, s, d, f])),
            0..24,
        )
    }

    /// `WHERE` atoms: the first ten compile, the next two are Bloom
    /// probes (paper Listing 1; the first overflows on some rows), the
    /// rest run row by row and the first four of those raise on some
    /// rows.
    const ORACLE_ATOMS: [&str; 18] = [
        "k < 2",
        "v >= 0",
        "s = 'a'",
        "d >= DATE '1989-03-01'",
        "f",
        "k IS NULL",
        "k BETWEEN -1 AND 2",
        "s IN ('a', '')",
        "CAST(v AS STRING) = 'NaN'",
        "NOT (CAST(v AS STRING) = '-0.0')",
        "SUBSTRING('0110100', ((3 * CAST(k AS INT) + 1) % 5) % 7 + 1, 1) = '1'",
        "SUBSTRING('abc', k + 2, 1) < 'b'",
        "k * 4 > 1",
        "10 / k > 2",
        "CAST(s AS INT) > 1",
        "v / k < 1",
        "s LIKE 'a%'",
        "CASE WHEN k > 0 THEN f ELSE v = 0 END",
    ];

    /// Select lists: projections, scalar aggregates (CASE-WHEN items
    /// among them) and grouped statements, some of which raise.
    const ORACLE_ITEMS: [(&str, &str); 11] = [
        ("*", ""),
        ("k, s", ""),
        ("v, k * 2, d", ""),
        ("CAST(s AS INT), f", ""),
        ("COUNT(*), SUM(v), MIN(s), MAX(d), AVG(k), COUNT(f)", ""),
        ("SUM(k), COUNT(v)", ""),
        (
            "SUM(CASE WHEN k = 1 THEN v END), COUNT(CASE WHEN s = 'a' THEN 1 END), \
             MAX(CASE WHEN CAST(v AS STRING) = 'NaN' THEN s END), \
             SUM(CASE WHEN k = 1 THEN v ELSE 0 END)",
            "",
        ),
        (
            "MIN(v), SUM(s), COUNT(CASE WHEN k > 0 THEN s END), SUM(k + 1)",
            "",
        ),
        ("s, COUNT(*), SUM(v)", "s"),
        ("k, f, MIN(v), COUNT(s)", "k, f"),
        ("d, SUM(k), MAX(CASE WHEN k = 2 THEN v END)", "d"),
    ];

    /// The parent's row-at-a-time executor, kept as an oracle: the same
    /// rows, decoded by the format readers, fed one at a time through
    /// `eval`, `eval_predicate` and the accumulators — nothing else of
    /// the engine.
    struct Oracle<'a> {
        bound: &'a BoundSelect,
        groups: Option<Vec<(Vec<Value>, Vec<pushdown_sql::Accumulator>)>>,
        rows: Vec<Row>,
    }

    impl<'a> Oracle<'a> {
        fn new(bound: &'a BoundSelect) -> Self {
            let groups = (bound.is_aggregate || !bound.group_by.is_empty()).then(|| {
                let mut groups = Vec::new();
                if bound.group_by.is_empty() {
                    groups.push((Vec::new(), Oracle::accumulators(bound)));
                }
                groups
            });
            Oracle {
                bound,
                groups,
                rows: Vec::new(),
            }
        }

        fn accumulators(bound: &BoundSelect) -> Vec<pushdown_sql::Accumulator> {
            aggregates(bound).map(|(f, _)| f.accumulator()).collect()
        }

        /// Feed one full-width row; `true` when the scan can stop.
        fn feed(&mut self, row: &Row) -> Result<bool> {
            if let Some(w) = &self.bound.where_clause {
                if !eval_predicate(w, row)? {
                    return Ok(false);
                }
            }
            if let Some(groups) = &mut self.groups {
                let key: Vec<Value> = self
                    .bound
                    .group_by
                    .iter()
                    .map(|&c| row[c].clone())
                    .collect();
                let at = match groups.iter().position(|(k, _)| *k == key) {
                    Some(at) => at,
                    None => {
                        groups.push((key, Oracle::accumulators(self.bound)));
                        groups.len() - 1
                    }
                };
                for (acc, (_, arg)) in groups[at].1.iter_mut().zip(aggregates(self.bound)) {
                    match arg {
                        Some(e) => acc.update(&eval(e, row)?)?,
                        None => acc.update(&Value::Bool(true))?,
                    }
                }
                return Ok(false);
            }
            if self.bound.limit == Some(0) {
                return Ok(true);
            }
            let out = self.bound.items.iter().map(|item| match item {
                BoundItem::Expr { expr, .. } => eval(expr, row),
                BoundItem::Agg { .. } => unreachable!(),
            });
            self.rows.push(Row::new(out.collect::<Result<_>>()?));
            Ok(matches!(self.bound.limit, Some(l) if self.rows.len() as u64 >= l))
        }

        fn finish(self) -> Vec<Row> {
            let Some(mut groups) = self.groups else {
                return self.rows;
            };
            groups.sort_by(|(a, _), (b, _)| {
                let mut o = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
                o.find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
            });
            let group_by = &self.bound.group_by;
            let mut next = group_by.len();
            let take: Vec<usize> = (self.bound.items.iter())
                .map(|item| match item {
                    BoundItem::Expr {
                        expr: BoundExpr::Column(c, _),
                        ..
                    } => group_by.iter().position(|g| g == c).unwrap(),
                    _ => {
                        next += 1;
                        next - 1
                    }
                })
                .collect();
            let limit = self.bound.limit.map_or(usize::MAX, |l| l as usize);
            (groups.into_iter().take(limit))
                .map(|(mut key, accs)| {
                    key.extend(accs.iter().map(pushdown_sql::Accumulator::finish));
                    Row::new(key).project(&take)
                })
                .collect()
        }
    }

    /// The response the oracle answers on `object`: the CSV payload, the
    /// bytes scanned and the records returned.
    fn oracle_response(
        object: &Bytes,
        format: InputFormat,
        schema: &Schema,
        bound: &BoundSelect,
    ) -> Result<(Vec<u8>, u64, u64)> {
        let needed = bound.referenced_columns();
        let mut oracle = Oracle::new(bound);
        let full_row = |values: Vec<Value>| {
            let mut row = vec![Value::Null; schema.len()];
            for (&c, v) in needed.iter().zip(values) {
                row[c] = v;
            }
            Row::new(row)
        };
        let mut scanned = 0;
        match format {
            InputFormat::Csv => {
                let mut reader = CsvReader::with_header(object, schema.clone()).project(&needed);
                scanned = object.len() as u64;
                while let Some(rec) = reader.next() {
                    if oracle.feed(&full_row(rec?.row.0))? {
                        scanned = reader.consumed() as u64;
                        break;
                    }
                }
            }
            InputFormat::Columnar => {
                let reader = ColumnarReader::open(object.clone())?;
                // A `WHERE` that can raise prunes nothing: the rows of a
                // pruned group would raise nothing.
                let conjuncts = (bound.where_clause.as_ref())
                    .filter(|w| compile_predicate(w).is_some())
                    .map(|w| w.conjuncts());
                let prunes = |g: usize| {
                    let mut rules = conjuncts.iter().flatten();
                    rules.any(|c| {
                        let Some((col, op, v)) = c.column_vs_literal() else {
                            return false;
                        };
                        let op = match op {
                            BinOp::Eq => PruneOp::Eq,
                            BinOp::Lt => PruneOp::Lt,
                            BinOp::LtEq => PruneOp::LtEq,
                            BinOp::Gt => PruneOp::Gt,
                            BinOp::GtEq => PruneOp::GtEq,
                            _ => return false,
                        };
                        !v.is_null() && reader.can_prune(g, col, op, v)
                    })
                };
                'groups: for g in 0..reader.num_row_groups() {
                    if prunes(g) {
                        continue;
                    }
                    scanned += reader.scanned_by(g, &needed);
                    let mut columns = (needed.iter())
                        .map(|&c| Ok(reader.read_column_vector(g, c)?.into_values().into_iter()))
                        .collect::<Result<Vec<_>>>()?;
                    for _ in 0..reader.row_group(g).row_count {
                        let values = columns.iter_mut().map(|c| c.next().unwrap()).collect();
                        if oracle.feed(&full_row(values))? {
                            break 'groups;
                        }
                    }
                }
            }
        }
        let rows = oracle.finish();
        let mut w = CsvWriter::headerless();
        for r in &rows {
            w.write_row(r);
        }
        Ok((w.finish(), scanned, rows.len() as u64))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The batch executor answers what the row-at-a-time oracle
        /// answers — the payload byte for byte (every float's bits), or
        /// the first error's text — and bills what it would, on CSV
        /// (one record of which may be bad) and on ColumnarLite in one-
        /// to five-row row groups, for compiled, row-wise and raising
        /// `WHERE`s, projections, scalar and CASE-WHEN aggregates,
        /// native `GROUP BY` and `LIMIT` 0, 1 and n.
        #[test]
        fn the_batch_executor_answers_as_the_row_oracle(
            rows in arb_oracle_rows(),
            atoms in proptest::collection::vec(0usize..ORACLE_ATOMS.len(), 0..4),
            or in any::<bool>(),
            items in 0usize..ORACLE_ITEMS.len(),
            limit in prop_oneof![2 => Just(None), 1 => Just(Some(0u64)), 1 => Just(Some(1)), 1 => (2u64..6).prop_map(Some)],
            columnar in any::<bool>(),
            rows_per_group in 1usize..6,
            bad_record in prop_oneof![3 => Just(None), 1 => (0usize..24).prop_map(Some)],
        ) {
            let schema = oracle_schema();
            let object = if columnar {
                let opts = WriterOptions { rows_per_group, compress: true };
                encode_columnar(&schema, &rows, opts)
            } else {
                let csv = String::from_utf8(encode_csv(&schema, &rows)).unwrap();
                let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
                if let Some(at) = bad_record.filter(|&at| at + 1 < lines.len()) {
                    lines[at + 1].push_str(",x"); // one field too many
                }
                lines.join("\n").into_bytes()
            };
            let object = Bytes::from(object);
            let format = if columnar { InputFormat::Columnar } else { InputFormat::Csv };
            let (select, group_by) = ORACLE_ITEMS[items];
            let connective = if or { " OR " } else { " AND " };
            let predicate: Vec<&str> = atoms.iter().map(|&a| ORACLE_ATOMS[a]).collect();
            let sql = format!(
                "SELECT {select} FROM S3Object{}{}{}",
                if predicate.is_empty() { String::new() } else {
                    format!(" WHERE {}", predicate.join(connective))
                },
                if group_by.is_empty() { String::new() } else { format!(" GROUP BY {group_by}") },
                limit.map_or(String::new(), |l| format!(" LIMIT {l}")),
            );
            let store = S3Store::new();
            store.put_object("b", "t", object.to_vec());
            let engine = S3SelectEngine::new(store).with_extensions(EngineExtensions {
                native_group_by: true,
                ..Default::default()
            });
            let got = engine
                .select("b", "t", &sql, &schema, format)
                .map(|r| (r.data.to_vec(), r.stats.bytes_scanned, r.stats.records_returned, r.stats.bytes_returned))
                .map_err(|e| e.to_string());
            let ext = parse_select_extended(&sql).unwrap();
            let bound = Binder::new(&schema).bind_grouped(&ext.select, &ext.group_by).unwrap();
            let want = oracle_response(&object, format, &schema, &bound)
                .map(|(data, scanned, records)| {
                    let returned = data.len() as u64;
                    (data, scanned, records, returned)
                })
                .map_err(|e| e.to_string());
            prop_assert_eq!(got, want, "{}", sql);
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
