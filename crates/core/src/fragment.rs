//! Scan fragments: what a leaf operator needs evaluated on every decoded
//! batch, packaged so the scan ([`crate::scan::scan`]) can run it
//! **inside the partition worker that decoded the batch** instead of
//! handing whole batches to a consumer-side closure. A rejected row dies
//! on the thread that allocated it; only survivors, already projected,
//! cross the partition queue; a projecting fragment decodes — CSV fields
//! and ColumnarLite chunks alike — only the columns it references. A
//! pushed fragment ([`ScanFragment::pushed`]) carries the Select
//! statement the storage engine evaluates instead.
//!
//! On column vectors the predicate runs as the Select engine runs a
//! `WHERE` ([`pushdown_sql::vector::Filter`]): compiled when it cannot
//! raise, else row by row. A fragment charges exactly what the
//! consumer-side operators it replaces charge — the predicate like
//! [`ops::filter_rows`] / [`ops::filter_columnar`], the reducer like
//! [`ops::TopKAccumulator::push_batch`] — and charges nothing for its
//! output expressions (a projecting operator accounts for those itself).

use crate::catalog::Table;
use crate::ops;
use pushdown_common::columnar::ColumnarBatch;
use pushdown_common::perf::PhaseStats;
use pushdown_common::row::{BatchBuilder, RowBatch};
use pushdown_common::{Error, Field, Result, Row, Schema};
use pushdown_sql::bind::BoundExpr;
use pushdown_sql::eval::{eval, eval_predicate};
use pushdown_sql::vector::{Filter, RowExpr};
use pushdown_sql::SelectStmt;

/// One leaf operator's per-batch work: an optional bound predicate,
/// optional output expressions (`None` = the whole row), and optionally
/// a per-batch top-K reducer.
#[derive(Debug, Clone)]
pub struct ScanFragment {
    predicate: Option<BoundExpr>,
    /// `predicate` as column vectors run it.
    filter: Option<Filter>,
    outputs: Option<Vec<BoundExpr>>,
    /// `((output column, ascending) sort keys, k)`.
    top_k: Option<(Vec<(usize, bool)>, usize)>,
    /// The table columns a partition decodes, ascending: every column
    /// for a whole-row fragment, else the referenced ones. The
    /// expressions above address this projection, not the table schema.
    needed: Vec<usize>,
    schema: Schema,
    /// The Select statement asking the storage engine for the same
    /// rows, when the fragment is a pushed scan's
    /// ([`ScanFragment::pushed`]).
    pushed: Option<SelectStmt>,
}

impl ScanFragment {
    /// `predicate` and `outputs` are bound against `table.schema`. With
    /// `outputs` given, the scan decodes only the columns the two
    /// reference.
    pub fn new(
        table: &Table,
        mut predicate: Option<BoundExpr>,
        mut outputs: Option<Vec<BoundExpr>>,
    ) -> Self {
        let schema = match &outputs {
            None => table.schema.clone(),
            Some(exprs) => Schema::new(
                exprs
                    .iter()
                    .enumerate()
                    .map(|(i, e)| match e {
                        BoundExpr::Column(c, _) => table.schema.field(*c).clone(),
                        e => Field::new(format!("_{}", i + 1), e.infer_type()),
                    })
                    .collect(),
            ),
        };
        let mut needed: Vec<usize> = (0..table.schema.len()).collect();
        if let Some(exprs) = &mut outputs {
            let mut exprs: Vec<&mut BoundExpr> = predicate.iter_mut().chain(exprs).collect();
            let mut used = vec![false; needed.len()];
            for e in &mut exprs {
                e.map_columns(&mut |c| {
                    used[c] = true;
                    c
                });
            }
            needed.retain(|&c| used[c]);
            for e in &mut exprs {
                e.map_columns(&mut |c| needed.binary_search(&c).expect("column marked used"));
            }
        }
        ScanFragment {
            filter: predicate.clone().map(Filter::new),
            predicate,
            outputs,
            top_k: None,
            needed,
            schema,
            pushed: None,
        }
    }

    /// The fragment of a scan from [`crate::scan::ScanSource::Select`]:
    /// the storage engine evaluates `stmt` and returns its rows, so the
    /// worker has nothing left to evaluate on them.
    pub fn pushed(table: &Table, stmt: SelectStmt) -> Self {
        ScanFragment {
            pushed: Some(stmt),
            ..Self::new(table, None, None)
        }
    }

    /// The Select statement of a pushed fragment.
    pub(crate) fn statement(&self) -> Result<&SelectStmt> {
        let missing = || Error::Other("a Select scan takes a pushed fragment".into());
        self.pushed.as_ref().ok_or_else(missing)
    }

    /// [`ScanFragment::new`] projecting plain table columns.
    pub fn columns(table: &Table, predicate: Option<BoundExpr>, cols: &[usize]) -> Self {
        let outputs = cols
            .iter()
            .map(|&c| BoundExpr::Column(c, table.schema.dtype_of(c)))
            .collect();
        Self::new(table, predicate, Some(outputs))
    }

    /// Reduce every partition's survivors to their `k` best rows by the
    /// `(output column, ascending)` sort `keys` ([`ops::TopKAccumulator`]'s
    /// order; a partition's candidates leave in storage order, so ties
    /// break downstream as they would over the whole scan). Charges
    /// what the accumulator charges for every row offered, so the
    /// query's own accumulator must take the candidates uncharged
    /// ([`ops::TopKAccumulator::absorb`]).
    pub fn top_k(mut self, keys: &[(usize, bool)], k: usize) -> Self {
        self.top_k = Some((keys.to_vec(), k));
        self
    }

    /// Schema of the batches this fragment emits.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table columns a partition must decode for this fragment,
    /// ascending; its expressions address that projection.
    pub(crate) fn needed(&self) -> &[usize] {
        &self.needed
    }

    /// Whether the fragment computes its own output row (`false` = it
    /// passes the decoded row through whole).
    pub(crate) fn projects(&self) -> bool {
        self.outputs.is_some()
    }

    /// The per-partition evaluator: decoded rows go in, survivors leave
    /// through `emit` in batches of at most `capacity` rows.
    pub(crate) fn outbox<E: FnMut(RowBatch) -> Result<()>>(
        &self,
        capacity: usize,
        emit: E,
    ) -> Outbox<'_, E> {
        let capacity = capacity.max(1);
        Outbox {
            fragment: self,
            pending: match &self.top_k {
                Some((keys, k)) => Pending::Best(ops::TopKAccumulator::new(keys, *k)),
                None => Pending::Batch(BatchBuilder::new(self.schema.clone(), capacity)),
            },
            capacity,
            charged: PhaseStats::default(),
            reduced: PhaseStats::default(),
            scratch: Row::new(Vec::new()),
            emit,
        }
    }
}

/// Survivors a worker has not emitted yet.
enum Pending {
    /// Fewer than a batch of them, in storage order.
    Batch(BatchBuilder),
    /// The partition's K best so far, when the fragment reduces.
    Best(ops::TopKAccumulator),
}

/// One partition's survivors on their way out of a worker.
pub(crate) struct Outbox<'a, E> {
    fragment: &'a ScanFragment,
    pending: Pending,
    capacity: usize,
    /// What the predicate charged, and what the reducer did.
    charged: PhaseStats,
    reduced: PhaseStats,
    /// The sparse row a row-wise predicate evaluates on.
    scratch: Row,
    emit: E,
}

impl<E: FnMut(RowBatch) -> Result<()>> Outbox<'_, E> {
    /// Evaluate the fragment on one decoded row. Charges like
    /// [`ops::filter_rows`]: one unit per row the predicate sees.
    pub(crate) fn offer(&mut self, row: Row) -> Result<()> {
        if let Some(pred) = &self.fragment.predicate {
            self.charged.server_cpu_units += 1;
            if !eval_predicate(pred, &row)? {
                return Ok(());
            }
        }
        let row = match &self.fragment.outputs {
            None => row,
            Some(exprs) => Row::new(exprs.iter().map(|e| eval(e, &row)).collect::<Result<_>>()?),
        };
        self.push(row)
    }

    /// [`Outbox::offer`] for a whole row group: the predicate runs on
    /// column vectors and charges like [`ops::filter_columnar`].
    pub(crate) fn offer_columnar(&mut self, group: &ColumnarBatch) -> Result<()> {
        let fragment = self.fragment;
        let sel = match &fragment.filter {
            None => ops::full_selection(group.len()),
            Some(filter) => {
                self.charged.server_cpu_units += group.len() as u64;
                if self.scratch.len() != group.columns.len() {
                    self.scratch = RowExpr::scratch(group);
                }
                let (sel, raised) = filter.select(group, &mut self.scratch);
                raised?;
                sel
            }
        };
        if let (Pending::Best(heap), None) = (&mut self.pending, &fragment.outputs) {
            // Whole-row top-K: only rows entering the heap materialize.
            heap.push_columnar(group, &sel, &mut self.reduced);
            return Ok(());
        }
        for &i in &sel {
            let i = i as usize;
            let row = match &fragment.outputs {
                None => group.row_at(i),
                Some(exprs) => {
                    // Computed outputs evaluate on the (pruned) row,
                    // materialized at most once.
                    let mut full = None;
                    let values = exprs.iter().map(|e| match e {
                        BoundExpr::Column(c, _) => Ok(group.column(*c).value_at(i)),
                        e => eval(e, full.get_or_insert_with(|| group.row_at(i))),
                    });
                    Row::new(values.collect::<Result<_>>()?)
                }
            };
            self.push(row)?;
        }
        Ok(())
    }

    fn push(&mut self, row: Row) -> Result<()> {
        match &mut self.pending {
            Pending::Best(heap) => heap.push_row(row, &mut self.reduced),
            Pending::Batch(batch) => {
                if let Some(full) = batch.push(row) {
                    (self.emit)(full)?;
                }
            }
        }
        Ok(())
    }

    /// Emit what is left — the partial last batch, or the heap's rows —
    /// and return the CPU units the fragment charged on this partition:
    /// its predicate's, and its reducer's.
    pub(crate) fn finish(mut self) -> Result<(u64, u64)> {
        let rest = match self.pending {
            Pending::Batch(batch) => batch.finish().into_iter().collect(),
            Pending::Best(heap) => {
                RowBatch::chunks(&self.fragment.schema, heap.into_rows(), self.capacity)
            }
        };
        for batch in rest {
            (self.emit)(batch)?;
        }
        Ok((self.charged.server_cpu_units, self.reduced.server_cpu_units))
    }
}
