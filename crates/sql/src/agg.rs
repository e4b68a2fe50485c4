//! Aggregate functions, their accumulators, the one group table and the
//! one top-K heap.
//!
//! S3 Select supports aggregation *without* group-by (paper §II-A): a
//! query is either all-scalar or all-aggregate. Every hash aggregation in
//! the system — the Select engine's aggregate statements (a scalar one is
//! the group of no columns), §X's native `GROUP BY`, the compute node's
//! group-by operator and the merge of pushed partials — is one
//! [`GroupTable`]: group key → one accumulator per aggregate. Every
//! `ORDER BY … LIMIT k` — the compute node's sort operator and the
//! reducer a scan fragment runs below it — is one [`TopKAccumulator`].

use pushdown_common::columnar::ColumnarBatch;
use pushdown_common::perf::PhaseStats;
use pushdown_common::{DataType, Error, Result, Row, Value};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// The aggregate functions of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Count,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "SUM" => Some(AggFunc::Sum),
            "COUNT" => Some(AggFunc::Count),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    /// The type of this function's result over an argument of type
    /// `arg` (`None`: `COUNT(*)`), as [`Accumulator::finish`] returns
    /// it: `COUNT` is INT, `AVG` FLOAT, `SUM` INT over INT and FLOAT
    /// over anything else (a DATE sums to a FLOAT count of days), `MIN`
    /// and `MAX` the argument's type.
    pub fn result_type(&self, arg: Option<DataType>) -> DataType {
        match (self, arg) {
            (AggFunc::Count, _) => DataType::Int,
            (AggFunc::Sum, Some(DataType::Int)) => DataType::Int,
            (AggFunc::Min | AggFunc::Max, Some(t)) => t,
            _ => DataType::Float,
        }
    }

    /// A fresh accumulator for this function.
    pub fn accumulator(&self) -> Accumulator {
        match self {
            AggFunc::Sum => Accumulator::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                count: 0,
            },
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
        }
    }
}

/// Running state of one aggregate.
///
/// SQL NULL semantics: NULL inputs are skipped by every function;
/// `SUM`/`MIN`/`MAX`/`AVG` of zero non-null rows is NULL, `COUNT` is 0.
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
        count: u64,
    },
    Count(u64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: u64,
    },
}

impl Accumulator {
    /// Fold one input value in. For `COUNT(*)` pass `Value::Bool(true)` or
    /// any non-null value per row.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Accumulator::Sum {
                int,
                float,
                saw_float,
                count,
            } => {
                match v {
                    Value::Int(i) => {
                        *int = int
                            .checked_add(*i)
                            .ok_or_else(|| Error::Eval("integer overflow in SUM".into()))?;
                    }
                    _ => {
                        *float += v.as_f64()?;
                        *saw_float = true;
                    }
                }
                *count += 1;
            }
            Accumulator::Count(n) => *n += 1,
            Accumulator::Min(cur) => keep_extreme(cur, v, Ordering::Less),
            Accumulator::Max(cur) => keep_extreme(cur, v, Ordering::Greater),
            Accumulator::Avg { sum, count } => {
                *sum += v.as_f64()?;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Final result.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Sum {
                int,
                float,
                saw_float,
                count,
            } => {
                if *count == 0 {
                    Value::Null
                } else if *saw_float {
                    Value::Float(*float + *int as f64)
                } else {
                    Value::Int(*int)
                }
            }
            Accumulator::Count(n) => Value::Int(*n as i64),
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
        }
    }
}

/// `MIN`'s (`wanted` Less) or `MAX`'s (Greater) step: `v` replaces `cur`
/// only when it is strictly further in SQL order, so ties keep the first.
/// NaN ranks above every number, as an ascending sort puts it last: the
/// extreme of a sequence is then the extreme of its pieces' extremes,
/// wherever partitions split it.
fn keep_extreme(cur: &mut Option<Value>, v: &Value, wanted: Ordering) {
    let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
    let further = |c: &Value| v.sql_cmp(c).unwrap_or_else(|| nan(v).cmp(&nan(c))) == wanted;
    if cur.as_ref().is_none_or(further) {
        *cur = Some(v.clone());
    }
}

/// A hash table from group key to one accumulator per aggregate function.
/// Keys are equal when [`Value::total_cmp`] calls them equal, so `Int 1`
/// and `Float 1.0` are one group and NULL is a group of its own.
#[derive(Debug)]
pub struct GroupTable {
    funcs: Vec<AggFunc>,
    /// Group key → where its accumulators start in `accs`.
    index: HashMap<Vec<Value>, usize>,
    /// Every group's accumulators, `funcs.len()` per group, in the order
    /// the groups opened.
    accs: Vec<Accumulator>,
}

impl GroupTable {
    pub fn new(funcs: Vec<AggFunc>) -> Self {
        GroupTable {
            funcs,
            index: HashMap::new(),
            accs: Vec::new(),
        }
    }

    /// The accumulators of group `key`, in `funcs` order, opened on first
    /// sight. The key is looked up as borrowed; only a group that opens
    /// keeps a copy of it.
    pub fn group(&mut self, key: &[Value]) -> &mut [Accumulator] {
        let at = self.open(key);
        self.accumulators(at)
    }

    /// Where group `key`'s accumulators start, the group opened on first
    /// sight as by [`GroupTable::group`]: a handle for
    /// [`GroupTable::accumulators`] that stays valid as groups open.
    pub fn open(&mut self, key: &[Value]) -> usize {
        match self.index.get(key) {
            Some(&at) => at,
            None => {
                let at = self.accs.len();
                self.accs
                    .extend(self.funcs.iter().map(AggFunc::accumulator));
                self.index.insert(key.to_vec(), at);
                at
            }
        }
    }

    /// The accumulators of the group [`GroupTable::open`] returned `at`
    /// for, in `funcs` order.
    pub fn accumulators(&mut self, at: usize) -> &mut [Accumulator] {
        &mut self.accs[at..at + self.funcs.len()]
    }

    /// One row per group, `key ++ finished values`, sorted by key in
    /// [`Value::total_cmp`] order.
    pub fn finish(self) -> Vec<Row> {
        let mut groups: Vec<_> = self.index.into_iter().collect();
        groups.sort_unstable_by(|(a, _), (b, _)| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        let width = self.funcs.len();
        groups
            .into_iter()
            .map(|(mut key, at)| {
                key.extend(self.accs[at..at + width].iter().map(Accumulator::finish));
                Row::new(key)
            })
            .collect()
    }
}

/// `ORDER BY` order of two rows: `(column, ascending)` keys, major first,
/// each compared by [`Value::total_cmp`] — so NULL keys are rows like any
/// other: first ascending, last descending.
pub fn cmp_keys(a: &Row, b: &Row, keys: &[(usize, bool)]) -> Ordering {
    for &(col, asc) in keys {
        let o = a[col].total_cmp(&b[col]);
        if o != Ordering::Equal {
            return if asc { o } else { o.reverse() };
        }
    }
    Ordering::Equal
}

/// Max-heap entry: by the sort keys, ties by arrival — of two rows equal
/// on every key the one offered first is the better one.
struct HeapEntry {
    row: Row,
    seq: u64,
    keys: Arc<[(usize, bool)]>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_keys(&self.row, &other.row, &self.keys).then(self.seq.cmp(&other.seq))
    }
}

/// `ORDER BY keys LIMIT k` as a bounded heap, fed batch-at-a-time: the
/// first `k` rows of a **stable** sort of everything offered, whatever
/// the batching — NULL keys are rows ([`Value::total_cmp`] order) and
/// ties keep the order they were offered in. Holds at most `k` rows no
/// matter how many flow through. Charges `log2(K)` CPU units for every
/// row offered, whether it enters the heap or not, and one per row
/// [`TopKAccumulator::finish`] hands on.
pub struct TopKAccumulator {
    heap: BinaryHeap<HeapEntry>,
    keys: Arc<[(usize, bool)]>,
    k: usize,
    log_k: u64,
    seq: u64,
}

impl TopKAccumulator {
    pub fn new(keys: &[(usize, bool)], k: usize) -> Self {
        TopKAccumulator {
            heap: BinaryHeap::new(),
            keys: keys.into(),
            k,
            log_k: (k.max(2) as f64).log2().ceil() as u64,
            seq: 0,
        }
    }

    /// Whether `row` belongs to the K best seen so far: a later row that
    /// ties with the worst one kept does not.
    fn admits(&self, row: &Row) -> bool {
        self.heap.len() < self.k
            || self
                .heap
                .peek()
                .is_some_and(|top| cmp_keys(row, &top.row, &self.keys) == Ordering::Less)
    }

    fn admit(&mut self, row: Row) {
        if self.heap.len() >= self.k {
            self.heap.pop();
        }
        self.seq += 1;
        self.heap.push(HeapEntry {
            row,
            seq: self.seq,
            keys: self.keys.clone(),
        });
    }

    /// Charge `row` as a candidate and say whether it enters the heap.
    fn wants(&self, row: &Row, stats: &mut PhaseStats) -> bool {
        if self.k == 0 {
            return false;
        }
        stats.server_cpu_units += self.log_k;
        self.admits(row)
    }

    /// Offer one batch of rows to the heap; only rows that enter it are
    /// cloned.
    pub fn push_batch(&mut self, rows: &[Row], stats: &mut PhaseStats) {
        for row in rows {
            if self.wants(row, stats) {
                self.admit(row.clone());
            }
        }
    }

    /// [`TopKAccumulator::push_batch`] for one owned row: it moves into
    /// the heap or drops here. Same charge.
    pub fn push_row(&mut self, row: Row, stats: &mut PhaseStats) {
        if self.wants(&row, stats) {
            self.admit(row);
        }
    }

    /// [`TopKAccumulator::push_row`] over a batch of owned rows.
    pub fn push_rows(&mut self, rows: Vec<Row>, stats: &mut PhaseStats) {
        for row in rows {
            self.push_row(row, stats);
        }
    }

    /// Columnar twin of [`TopKAccumulator::push_batch`]: offer the rows
    /// `sel` of `batch` whose column `c` is batch column `columns[c]`.
    /// The sort keys are compared column-side and a row materializes
    /// only when it enters the heap. Same admission, same charge.
    pub fn push_columnar(
        &mut self,
        batch: &ColumnarBatch,
        columns: &[usize],
        sel: &[u32],
        stats: &mut PhaseStats,
    ) {
        if self.k == 0 {
            return;
        }
        for &i in sel {
            let i = i as usize;
            stats.server_cpu_units += self.log_k;
            let enters = match self.heap.peek().filter(|_| self.heap.len() >= self.k) {
                None => true,
                Some(top) => {
                    let by_key = |&(col, asc): &(usize, bool)| {
                        let o = batch.column(columns[col]).value_at(i);
                        let o = o.total_cmp(&top.row[col]);
                        if asc {
                            o
                        } else {
                            o.reverse()
                        }
                    };
                    let differing = self.keys.iter().map(by_key).find(|o| o.is_ne());
                    differing == Some(Ordering::Less)
                }
            };
            if enters {
                let row = columns.iter().map(|&c| batch.column(c).value_at(i));
                self.admit(Row::new(row.collect()));
            }
        }
    }

    /// The retained rows in the order they were offered, uncharged — the
    /// per-partition candidates a scan fragment hands to the query's own
    /// accumulator ([`TopKAccumulator::absorb`]), which therefore sees a
    /// subsequence of the scan and breaks its ties the way one heap over
    /// the whole scan would.
    pub fn into_rows(self) -> Vec<Row> {
        let mut kept = self.heap.into_vec();
        kept.sort_unstable_by_key(|e| e.seq);
        kept.into_iter().map(|e| e.row).collect()
    }

    /// Merge candidates another accumulator already charged for (a
    /// scan fragment's per-partition best): same admission as
    /// [`TopKAccumulator::push_rows`], no charge.
    pub fn absorb(&mut self, rows: Vec<Row>) {
        for row in rows {
            if self.k > 0 && self.admits(&row) {
                self.admit(row);
            }
        }
    }

    /// The top K rows in order.
    pub fn finish(self, stats: &mut PhaseStats) -> Vec<Row> {
        let out: Vec<Row> = self
            .heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| e.row)
            .collect();
        stats.server_cpu_units += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = func.accumulator();
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn sum_stays_integer_for_ints() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Int(6)
        );
    }

    #[test]
    fn sum_promotes_to_float() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn nulls_are_skipped() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Null, Value::Int(2), Value::Null]),
            Value::Int(2)
        );
        assert_eq!(
            run(AggFunc::Count, &[Value::Null, Value::Int(2)]),
            Value::Int(1)
        );
        assert_eq!(
            run(AggFunc::Avg, &[Value::Null, Value::Int(4)]),
            Value::Float(4.0)
        );
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
    }

    #[test]
    fn min_max_over_mixed_numerics_and_dates() {
        assert_eq!(
            run(AggFunc::Min, &[Value::Float(2.5), Value::Int(2)]),
            Value::Int(2)
        );
        assert_eq!(
            run(AggFunc::Max, &[Value::Date(10), Value::Date(20)]),
            Value::Date(20)
        );
        assert_eq!(
            run(
                AggFunc::Min,
                &[Value::Str("b".into()), Value::Str("a".into())]
            ),
            Value::Str("a".into())
        );
    }

    #[test]
    fn min_max_rank_nan_above_every_number_wherever_the_input_splits() {
        let v = [1.0, 2.0, f64::NAN, 0.5].map(Value::Float);
        let bits = |v: Value| v.as_f64().unwrap().to_bits();
        for func in [AggFunc::Min, AggFunc::Max] {
            let whole = run(func, &v);
            for cut in 1..v.len() {
                let parts = [run(func, &v[..cut]), run(func, &v[cut..])];
                assert_eq!(
                    bits(run(func, &parts)),
                    bits(whole.clone()),
                    "{func:?} cut {cut}"
                );
            }
        }
        assert_eq!(run(AggFunc::Min, &v), Value::Float(0.5));
        assert!(run(AggFunc::Max, &v).as_f64().unwrap().is_nan());
    }

    #[test]
    fn avg_matches_hand_calc() {
        assert_eq!(
            run(AggFunc::Avg, &[Value::Int(1), Value::Int(2), Value::Int(6)]),
            Value::Float(3.0)
        );
    }

    #[test]
    fn sum_overflow_is_an_error() {
        let mut acc = AggFunc::Sum.accumulator();
        acc.update(&Value::Int(i64::MAX)).unwrap();
        assert!(acc.update(&Value::Int(1)).is_err());
    }

    #[test]
    fn names_round_trip() {
        for f in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
