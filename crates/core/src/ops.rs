//! Server-side (compute-node) operators.
//!
//! PushdownDB is a bare-bones row engine, like the paper's testbed
//! (§III). Operators come in two shapes:
//!
//! * **batch state machines** ([`TopKAccumulator`], [`GroupByAccumulator`],
//!   [`HashJoinBuild`]) that consume the streaming scan's `RowBatch`es
//!   incrementally, so a pipeline holds its *state* (a K-heap, a hash of
//!   group accumulators, a build table) plus one batch — never the whole
//!   table;
//! * thin **whole-input wrappers** ([`top_k`], [`hash_group_by`],
//!   [`hash_join`]) over those state machines for callers that already
//!   hold materialized rows.
//!
//! Both hash aggregations here — [`GroupByAccumulator`], a grouping
//! operator's fold over a join's matches or other rows, and
//! [`merge_group_rows`], the one merge of the partials a grouping
//! operator's scan makes per partition (`crate::scan::Partials`, whether
//! the Select engine, a GET or cache worker or a `filtered` leaf's worker
//! folded them) — run on the one group table the Select engine runs too,
//! [`pushdown_sql::agg::GroupTable`]; what they add is the CPU charge.
//!
//! Each operator reports its work into a [`PhaseStats`] as
//! `server_cpu_units` so the performance model can charge compute time
//! (one unit ≈ one row visited by one non-trivial operator; a K-heap
//! charges `log2(K)` for every row offered to it, whether it enters the
//! heap or not, and one per row it hands on). The wrappers charge exactly
//! what the equivalent batch-wise run charges: accounting is independent
//! of batching. The
//! plan executor ([`crate::plan`]) leans on that contract: it feeds the
//! state machines whatever batches its scans deliver and reports the
//! footprint the whole-input wrappers would have.
//!
//! Join keys follow the evaluator's `=` (`Value::sql_eq`), not `Value`'s
//! hash-table equality: see [`HashJoinBuild`].

use pushdown_common::columnar::{ColumnarBatch, SelVec};
use pushdown_common::mix::{fnv1a, splitmix64};
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Result, Row, Value};
pub use pushdown_sql::agg::TopKAccumulator;
use pushdown_sql::agg::{cmp_keys, AggFunc, GroupTable};
use pushdown_sql::bind::BoundExpr;
use pushdown_sql::eval::{eval, eval_predicate};

/// Keep rows passing the predicate. Call once per batch on the streaming
/// path; per-call CPU charges sum to the whole-input charge.
pub fn filter_rows(rows: Vec<Row>, pred: &BoundExpr, stats: &mut PhaseStats) -> Result<Vec<Row>> {
    stats.server_cpu_units += rows.len() as u64;
    let mut out = Vec::new();
    for r in rows {
        if eval_predicate(pred, &r)? {
            out.push(r);
        }
    }
    Ok(out)
}

/// Project rows onto the given column indices.
pub fn project_rows(rows: Vec<Row>, indices: &[usize], stats: &mut PhaseStats) -> Vec<Row> {
    stats.server_cpu_units += rows.len() as u64;
    rows.into_iter().map(|r| r.project(indices)).collect()
}

/// Evaluate one expression per row (generalized projection).
pub fn map_rows(rows: &[Row], exprs: &[BoundExpr], stats: &mut PhaseStats) -> Result<Vec<Row>> {
    stats.server_cpu_units += rows.len() as u64;
    rows.iter()
        .map(|r| {
            let vals: Result<Vec<Value>> = exprs.iter().map(|e| eval(e, r)).collect();
            Ok(Row::new(vals?))
        })
        .collect()
}

/// End of a chain / vacant slot in [`HashJoinBuild`].
const NONE: u32 = u32::MAX;

/// Where a join key hashes: two keys the evaluator calls equal
/// (`Value::sql_eq` is `Some(true)`) have the same image, so equal keys
/// always meet in one chain; the converse is checked per candidate.
/// Numerics hash through their `f64` image — what `sql_cmp` compares
/// INT with FLOAT by — with `-0.0` folded onto `0.0`. `None` for a key
/// that equals nothing, itself included: NULL and NaN.
fn key_image(v: &Value) -> Option<u64> {
    let num = |f: f64| (!f.is_nan()).then(|| (f + 0.0).to_bits());
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(u64::from(*b)),
        Value::Int(i) => num(*i as f64),
        Value::Float(f) => num(*f),
        Value::Date(d) => num(f64::from(*d)),
        Value::Str(s) => Some(fnv1a(s.bytes())),
    }
}

/// One key image's chain through the row arena.
#[derive(Clone, Copy)]
struct Slot {
    image: u64,
    /// First and last row of the chain; `head == NONE` marks a vacancy.
    head: u32,
    tail: u32,
}

const VACANT: Slot = Slot {
    image: 0,
    head: NONE,
    tail: NONE,
};

/// The build side of a hash inner join, fed batch-at-a-time: one arena
/// of build rows in insertion order, rows of one key image chained
/// through `next`, and an open-addressed table from image to chain.
///
/// Keys join exactly when the evaluator's `=` holds for them
/// (`Value::sql_eq` is `Some(true)`): `0.0` meets `-0.0` and `Int 1`
/// meets `Float 1.0`; NULL and NaN keys never enter the table and never
/// match. The one exception is `DATE = STRING`, which the evaluator
/// compares as text: the two have no common hash image, so such a pair
/// never hash-joins.
pub struct HashJoinBuild {
    key: usize,
    rows: Vec<Row>,
    /// `next[i]`: the row after `rows[i]` in its chain, or `NONE`.
    next: Vec<u32>,
    /// Linear probing over a power-of-two capacity, at most half full.
    slots: Vec<Slot>,
    occupied: usize,
    /// Keys come from table data: a per-table salt keeps the fixed
    /// mixer from being steered into one probe run.
    salt: u64,
}

impl HashJoinBuild {
    pub fn new(key: usize) -> Self {
        use std::hash::BuildHasher;
        HashJoinBuild {
            key,
            rows: Vec::new(),
            next: Vec::new(),
            slots: vec![VACANT; 16],
            occupied: 0,
            salt: std::collections::hash_map::RandomState::new().hash_one(0u64),
        }
    }

    /// Index of the slot holding `image`, or of the vacancy it would take.
    fn slot_of(&self, image: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = splitmix64(image ^ self.salt) as usize & mask;
        while self.slots[at].head != NONE && self.slots[at].image != image {
            at = (at + 1) & mask;
        }
        at
    }

    fn grow(&mut self) {
        let doubled = vec![VACANT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for slot in old.into_iter().filter(|s| s.head != NONE) {
            let at = self.slot_of(slot.image);
            self.slots[at] = slot;
        }
    }

    /// Insert one batch of build-side rows.
    pub fn add_batch(&mut self, rows: Vec<Row>, stats: &mut PhaseStats) {
        stats.server_cpu_units += rows.len() as u64;
        for row in rows {
            let Some(image) = key_image(&row[self.key]) else {
                continue;
            };
            let id = u32::try_from(self.rows.len())
                .ok()
                .filter(|&id| id != NONE)
                .expect("hash join build side holds fewer than 2^32 - 1 rows");
            self.rows.push(row);
            self.next.push(NONE);
            let at = self.slot_of(image);
            let slot = &mut self.slots[at];
            if slot.head == NONE {
                *slot = Slot {
                    image,
                    head: id,
                    tail: id,
                };
                self.occupied += 1;
                if self.occupied * 2 > self.slots.len() {
                    self.grow();
                }
            } else {
                self.next[slot.tail as usize] = id;
                slot.tail = id;
            }
        }
    }

    /// Probe one batch of rows against the finished build table, handing
    /// every match to `visit` as its (build row, probe row) pair — a probe
    /// row's matches in the order the build rows were inserted — and
    /// building no row. Charges one unit per probe row: what a match
    /// costs is the consumer's to charge.
    pub fn probe_each(
        &self,
        rows: &[Row],
        probe_key: usize,
        stats: &mut PhaseStats,
        mut visit: impl FnMut(&Row, &Row) -> Result<()>,
    ) -> Result<()> {
        stats.server_cpu_units += rows.len() as u64;
        for r in rows {
            let k = &r[probe_key];
            let Some(image) = key_image(k) else {
                continue;
            };
            let mut at = self.slots[self.slot_of(image)].head;
            while at != NONE {
                let l = &self.rows[at as usize];
                if l[self.key].sql_eq(k) == Some(true) {
                    visit(l, r)?;
                }
                at = self.next[at as usize];
            }
        }
        Ok(())
    }

    /// Probe one batch of rows against the finished build table; output
    /// rows are `build ++ probe`, a probe row's matches in the order the
    /// build rows were inserted ([`HashJoinBuild::probe_each`]), one unit
    /// charged per row built.
    pub fn probe_batch(&self, rows: &[Row], probe_key: usize, stats: &mut PhaseStats) -> Vec<Row> {
        let mut out = Vec::with_capacity(rows.len());
        let concat = |l: &Row, r: &Row| {
            out.push(l.concat(r));
            Ok(())
        };
        self.probe_each(rows, probe_key, stats, concat)
            .expect("concatenating cannot fail");
        stats.server_cpu_units += out.len() as u64;
        out
    }
}

/// One input row of a grouping operator: a row, or a join's match read
/// as its `build ++ probe` row without building it. Column `i` is the
/// joined row's `i`.
#[derive(Clone, Copy)]
pub struct Input<'a> {
    build: &'a [Value],
    probe: &'a [Value],
}

impl<'a> Input<'a> {
    pub fn row(row: &'a Row) -> Self {
        Input {
            build: &[],
            probe: row.values(),
        }
    }

    pub fn pair(build: &'a Row, probe: &'a Row) -> Self {
        Input {
            build: build.values(),
            probe: probe.values(),
        }
    }

    pub fn get(&self, i: usize) -> &'a Value {
        match i.checked_sub(self.build.len()) {
            None => &self.build[i],
            Some(p) => &self.probe[p],
        }
    }

    /// Columns `cols` as one slice: borrowed when they are adjacent, in
    /// order and on one side, else cloned into `scratch`.
    pub fn columns<'s>(&self, cols: &[usize], scratch: &'s mut Vec<Value>) -> &'s [Value]
    where
        'a: 's,
    {
        if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
            let adjacent = cols.windows(2).all(|w| w[1] == w[0] + 1);
            let one_side = (first < self.build.len()) == (last < self.build.len());
            if adjacent && one_side {
                return match first.checked_sub(self.build.len()) {
                    None => &self.build[first..=last],
                    Some(p) => &self.probe[p..=p + (last - first)],
                };
            }
        }
        scratch.clear();
        scratch.extend(cols.iter().map(|&c| self.get(c).clone()));
        scratch
    }
}

/// Hash inner join over materialized inputs: build on `left`, probe with
/// `right`. Wrapper over [`HashJoinBuild`].
pub fn hash_join(
    left: Vec<Row>,
    left_key: usize,
    right: Vec<Row>,
    right_key: usize,
    stats: &mut PhaseStats,
) -> Vec<Row> {
    let mut build = HashJoinBuild::new(left_key);
    build.add_batch(left, stats);
    build.probe_batch(&right, right_key, stats)
}

/// Hash aggregation state, fed batch-at-a-time: one [`GroupTable`].
/// `aggs` pairs an aggregate function with the input column it consumes
/// (`None` = COUNT(*)).
pub struct GroupByAccumulator {
    group_cols: Vec<usize>,
    args: Vec<Option<usize>>,
    table: GroupTable,
    /// A key whose columns are not adjacent, gathered for its lookup.
    key: Vec<Value>,
}

impl GroupByAccumulator {
    pub fn new(group_cols: Vec<usize>, aggs: Vec<(AggFunc, Option<usize>)>) -> Self {
        let (funcs, args) = aggs.into_iter().unzip();
        GroupByAccumulator {
            group_cols,
            args,
            table: GroupTable::new(funcs),
            key: Vec::new(),
        }
    }

    /// Fold one batch of input rows into the group table.
    pub fn update_batch(&mut self, rows: &[Row], stats: &mut PhaseStats) -> Result<()> {
        stats.server_cpu_units += rows.len() as u64;
        rows.iter().try_for_each(|r| self.update(Input::row(r)))
    }

    /// Fold one input row into the group table, charging nothing: the
    /// caller charges the unit its row costs.
    pub fn update(&mut self, input: Input<'_>) -> Result<()> {
        let key = input.columns(&self.group_cols, &mut self.key);
        for (acc, col) in self.table.group(key).iter_mut().zip(&self.args) {
            match col {
                Some(c) => acc.update(input.get(*c))?,
                None => acc.update(&Value::Bool(true))?,
            }
        }
        Ok(())
    }

    /// Emit `group values ++ aggregate values`, sorted by group for
    /// determinism.
    pub fn finish(self, stats: &mut PhaseStats) -> Vec<Row> {
        let out = self.table.finish();
        stats.server_cpu_units += out.len() as u64;
        out
    }
}

/// Hash aggregation over materialized input. Wrapper over
/// [`GroupByAccumulator`].
pub fn hash_group_by(
    rows: &[Row],
    group_cols: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
    stats: &mut PhaseStats,
) -> Result<Vec<Row>> {
    let mut acc = GroupByAccumulator::new(group_cols.to_vec(), aggs.to_vec());
    acc.update_batch(rows, stats)?;
    Ok(acc.finish(stats))
}

/// Merge pre-aggregated partials (one per group per partition) whose
/// rows are `group values ++ accumulator outputs` from `SUM`-mergeable
/// functions, on one [`GroupTable`], in the order given: partial COUNTs
/// merge by summing, partial SUM/MIN/MAX by the same function, one unit
/// per partial row. (AVG must be decomposed by the caller before
/// partials are formed.) The one merge every grouping operator over a
/// scan runs, whichever source made its partials.
pub fn merge_group_rows(
    parts: Vec<Vec<Row>>,
    group_width: usize,
    aggs: &[AggFunc],
    stats: &mut PhaseStats,
) -> Result<Vec<Row>> {
    let merging = aggs.iter().map(|f| match f {
        AggFunc::Count => AggFunc::Sum,
        other => *other,
    });
    let mut table = GroupTable::new(merging.collect());
    for part in parts {
        stats.server_cpu_units += part.len() as u64;
        for row in part {
            let (key, partials) = row.values().split_at(group_width);
            for (acc, v) in table.group(key).iter_mut().zip(partials) {
                acc.update(v)?;
            }
        }
    }
    Ok(table.finish())
}

/// Top-K over materialized input. Wrapper over [`TopKAccumulator`].
pub fn top_k(
    rows: &[Row],
    order_col: usize,
    k: usize,
    asc: bool,
    stats: &mut PhaseStats,
) -> Vec<Row> {
    let mut acc = TopKAccumulator::new(&[(order_col, asc)], k);
    acc.push_batch(rows, stats);
    acc.finish(stats)
}

/// Full sort by one column: [`sort_rows_by_keys`] with one key.
pub fn sort_rows(rows: Vec<Row>, col: usize, asc: bool, stats: &mut PhaseStats) -> Vec<Row> {
    sort_rows_by_keys(rows, &[(col, asc)], stats)
}

/// Full sort by several `(column, ascending)` keys, major key first —
/// the Sort operator of the physical plan without a limit (`ORDER BY a
/// DESC, b`). The sort is stable, so rows equal on every key keep their
/// input order; with deterministic upstream operators the output is
/// deterministic.
pub fn sort_rows_by_keys(
    mut rows: Vec<Row>,
    keys: &[(usize, bool)],
    stats: &mut PhaseStats,
) -> Vec<Row> {
    stats.server_cpu_units += sort_units(rows.len() as u64);
    rows.sort_by(|a, b| cmp_keys(a, b, keys));
    rows
}

/// The CPU units of a full sort of `n` rows: `n` times the bit length of
/// `n`, at least one — what [`sort_rows_by_keys`] charges, and what the
/// pricer prices every full sort at.
pub(crate) fn sort_units(n: u64) -> u64 {
    n * (64 - n.leading_zeros() as u64).max(1)
}

// ---------------------------------------------------------------------
// vectorized columnar kernels
// ---------------------------------------------------------------------
//
// The kernels below are the column-at-a-time twins of the row operators
// above. They consume `ColumnarBatch`es (typed vectors + validity bitmaps,
// dictionary-coded strings kept coded) and produce selection vectors, so
// rows materialize for survivors only — late materialization. The
// predicate compiler and its kernels live in `pushdown_sql::vector`, the
// one copy the S3 Select engine runs too; what these add is the charge.
//
// Every kernel charges *exactly* what its row twin charges, so ledger and
// performance-model accounting are identical whichever path executes, and
// the differential suite can assert exact stats equality.

pub use pushdown_sql::vector::{compile_predicate, ColumnarPred};

/// Vectorized filter: evaluate a compiled predicate over a columnar batch
/// and return the selection vector of passing rows (tri-state TRUE only,
/// as in SQL `WHERE`). Charges `batch.len()` CPU units — identical to
/// [`filter_rows`] on the same input.
pub fn filter_columnar(
    batch: &ColumnarBatch,
    pred: &ColumnarPred,
    stats: &mut PhaseStats,
) -> SelVec {
    stats.server_cpu_units += batch.len() as u64;
    pred.select(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::{DataType, Schema};
    use pushdown_sql::bind::Binder;
    use pushdown_sql::parse_expr;

    fn row(vals: Vec<i64>) -> Row {
        Row::new(vals.into_iter().map(Value::Int).collect())
    }

    #[test]
    fn filter_and_project() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let pred = Binder::new(&schema)
            .bind_expr(&parse_expr("a > 2").unwrap())
            .unwrap();
        let mut stats = PhaseStats::default();
        let rows = vec![row(vec![1, 10]), row(vec![3, 30]), row(vec![5, 50])];
        let filtered = filter_rows(rows, &pred, &mut stats).unwrap();
        assert_eq!(filtered.len(), 2);
        let projected = project_rows(filtered, &[1], &mut stats);
        assert_eq!(projected, vec![row(vec![30]), row(vec![50])]);
        assert!(stats.server_cpu_units >= 5);
    }

    #[test]
    fn hash_join_inner_semantics() {
        let left = vec![row(vec![1, 100]), row(vec![2, 200]), row(vec![2, 201])];
        let right = vec![row(vec![2, 9]), row(vec![3, 8]), row(vec![2, 7])];
        let mut stats = PhaseStats::default();
        let out = hash_join(left, 0, right, 0, &mut stats);
        // key 2: 2 left x 2 right = 4 rows; keys 1,3 unmatched.
        assert_eq!(out.len(), 4);
        assert!(out
            .iter()
            .all(|r| r[0] == Value::Int(2) && r[2] == Value::Int(2)));
        assert!(out
            .iter()
            .any(|r| r[1] == Value::Int(200) && r[3] == Value::Int(9)));
    }

    #[test]
    fn hash_join_skips_null_keys() {
        let left = vec![Row::new(vec![Value::Null, Value::Int(1)])];
        let right = vec![Row::new(vec![Value::Null, Value::Int(2)])];
        let mut stats = PhaseStats::default();
        assert!(hash_join(left, 0, right, 0, &mut stats).is_empty());
    }

    #[test]
    fn join_keys_match_exactly_when_sql_equality_holds() {
        let keys = [
            Value::Null,
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(1.5),
            Value::Date(1),
            Value::Bool(false),
            Value::Bool(true),
            Value::Str("1".into()),
            Value::Str("a".into()),
            // Distinct integers with one `f64` image: they share a chain
            // and must still not join each other.
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Float((1u64 << 53) as f64),
        ];
        let side = |tag: i64| -> Vec<Row> {
            keys.iter()
                .enumerate()
                .map(|(i, k)| Row::new(vec![k.clone(), Value::Int(tag + i as i64)]))
                .collect()
        };
        let (left, right) = (side(0), side(100));
        let mut stats = PhaseStats::default();
        let got = hash_join(left.clone(), 0, right.clone(), 0, &mut stats);
        // The nested loop the evaluator's `=` defines, probe-major with
        // build rows in insertion order: the hash join's emission order.
        let mut want = Vec::new();
        for r in &right {
            for l in &left {
                if l[0].sql_eq(&r[0]) == Some(true) {
                    want.push(l.concat(r));
                }
            }
        }
        // `Row` equality is `Value`'s total order, which tells `0.0` from
        // `-0.0`; the payload columns name the pair exactly.
        let pairs = |rows: &[Row]| -> Vec<(i64, i64)> {
            rows.iter()
                .map(|r| (r[1].as_i64().unwrap(), r[3].as_i64().unwrap()))
                .collect()
        };
        assert_eq!(pairs(&got), pairs(&want));
        assert!(pairs(&got).contains(&(2, 103)), "0.0 joins -0.0");
        assert!(pairs(&got).contains(&(1, 103)), "Int 0 joins Float -0.0");
        assert!(!pairs(&got).contains(&(4, 104)), "NaN joins nothing");
        assert_eq!(
            stats.server_cpu_units,
            (left.len() + right.len() + want.len()) as u64
        );
    }

    #[test]
    fn batched_join_equals_whole_input_join() {
        let left: Vec<Row> = (0..200).map(|i| row(vec![i % 40, i])).collect();
        let right: Vec<Row> = (0..300).map(|i| row(vec![i % 55, 1000 + i])).collect();
        let mut s1 = PhaseStats::default();
        let whole = hash_join(left.clone(), 0, right.clone(), 0, &mut s1);

        let mut s2 = PhaseStats::default();
        let mut build = HashJoinBuild::new(0);
        for chunk in left.chunks(33) {
            build.add_batch(chunk.to_vec(), &mut s2);
        }
        let mut probed = Vec::new();
        for chunk in right.chunks(29) {
            probed.extend(build.probe_batch(chunk, 0, &mut s2));
        }
        assert_eq!(whole, probed);
        // Batching must not change the CPU accounting.
        assert_eq!(s1.server_cpu_units, s2.server_cpu_units);
    }

    #[test]
    fn group_by_matches_hand_computation() {
        let rows = vec![
            row(vec![1, 10]),
            row(vec![2, 20]),
            row(vec![1, 30]),
            row(vec![2, 5]),
            row(vec![3, 7]),
        ];
        let mut stats = PhaseStats::default();
        let out = hash_group_by(
            &rows,
            &[0],
            &[
                (AggFunc::Sum, Some(1)),
                (AggFunc::Count, None),
                (AggFunc::Max, Some(1)),
            ],
            &mut stats,
        )
        .unwrap();
        assert_eq!(
            out,
            vec![
                Row::new(vec![
                    Value::Int(1),
                    Value::Int(40),
                    Value::Int(2),
                    Value::Int(30)
                ]),
                Row::new(vec![
                    Value::Int(2),
                    Value::Int(25),
                    Value::Int(2),
                    Value::Int(20)
                ]),
                Row::new(vec![
                    Value::Int(3),
                    Value::Int(7),
                    Value::Int(1),
                    Value::Int(7)
                ]),
            ]
        );
    }

    #[test]
    fn group_by_multi_column_keys() {
        let rows = vec![row(vec![1, 1, 5]), row(vec![1, 2, 6]), row(vec![1, 1, 7])];
        let mut stats = PhaseStats::default();
        let out = hash_group_by(&rows, &[0, 1], &[(AggFunc::Sum, Some(2))], &mut stats).unwrap();
        assert_eq!(
            out,
            vec![
                Row::new(vec![Value::Int(1), Value::Int(1), Value::Int(12)]),
                Row::new(vec![Value::Int(1), Value::Int(2), Value::Int(6)]),
            ]
        );
    }

    #[test]
    fn batched_group_by_equals_whole_input() {
        let rows: Vec<Row> = (0..500).map(|i| row(vec![i % 13, i, i % 7])).collect();
        let aggs = [
            (AggFunc::Sum, Some(1)),
            (AggFunc::Count, None),
            (AggFunc::Min, Some(2)),
        ];
        let mut s1 = PhaseStats::default();
        let whole = hash_group_by(&rows, &[0], &aggs, &mut s1).unwrap();

        let mut s2 = PhaseStats::default();
        let mut acc = GroupByAccumulator::new(vec![0], aggs.to_vec());
        for chunk in rows.chunks(37) {
            acc.update_batch(chunk, &mut s2).unwrap();
        }
        assert_eq!(whole, acc.finish(&mut s2));
        assert_eq!(s1.server_cpu_units, s2.server_cpu_units);
    }

    #[test]
    fn merge_group_rows_combines_partials() {
        // Partial 1 says group 1 sum=10 count=2; partial 2 says group 1
        // sum=5 count=1 and group 2 sum=7 count=3.
        let p1 = vec![Row::new(vec![Value::Int(1), Value::Int(10), Value::Int(2)])];
        let p2 = vec![
            Row::new(vec![Value::Int(1), Value::Int(5), Value::Int(1)]),
            Row::new(vec![Value::Int(2), Value::Int(7), Value::Int(3)]),
        ];
        let mut stats = PhaseStats::default();
        let out =
            merge_group_rows(vec![p1, p2], 1, &[AggFunc::Sum, AggFunc::Count], &mut stats).unwrap();
        assert_eq!(
            out,
            vec![
                Row::new(vec![Value::Int(1), Value::Int(15), Value::Int(3)]),
                Row::new(vec![Value::Int(2), Value::Int(7), Value::Int(3)]),
            ]
        );
    }

    #[test]
    fn top_k_smallest_and_largest() {
        let rows: Vec<Row> = [5, 3, 9, 1, 7, 1, 8]
            .iter()
            .map(|&v| row(vec![v]))
            .collect();
        let mut stats = PhaseStats::default();
        let smallest = top_k(&rows, 0, 3, true, &mut stats);
        assert_eq!(smallest, vec![row(vec![1]), row(vec![1]), row(vec![3])]);
        let largest = top_k(&rows, 0, 2, false, &mut stats);
        assert_eq!(largest, vec![row(vec![9]), row(vec![8])]);
    }

    #[test]
    fn top_k_equals_sort_truncate() {
        let rows: Vec<Row> = (0..500).map(|i| row(vec![(i * 7919) % 40, i])).collect();
        let mut s1 = PhaseStats::default();
        let heap = top_k(&rows, 0, 25, true, &mut s1);
        let mut s2 = PhaseStats::default();
        let mut sorted = sort_rows(rows, 0, true, &mut s2);
        sorted.truncate(25);
        // Row for row: the heap keeps ties in input order, like the
        // stable sort.
        assert_eq!(heap, sorted);
    }

    #[test]
    fn batched_top_k_equals_whole_input() {
        let rows: Vec<Row> = (0..400).map(|i| row(vec![(i * 6151) % 977, i])).collect();
        let mut s1 = PhaseStats::default();
        let whole = top_k(&rows, 0, 17, true, &mut s1);

        let mut s2 = PhaseStats::default();
        let mut acc = TopKAccumulator::new(&[(0, true)], 17);
        for chunk in rows.chunks(41) {
            acc.push_batch(chunk, &mut s2);
        }
        assert_eq!(whole, acc.finish(&mut s2));
        assert_eq!(s1.server_cpu_units, s2.server_cpu_units);
    }

    #[test]
    fn top_k_edge_cases() {
        let rows: Vec<Row> = vec![row(vec![1]), row(vec![2])];
        let mut stats = PhaseStats::default();
        assert!(top_k(&rows, 0, 0, true, &mut stats).is_empty());
        assert_eq!(top_k(&rows, 0, 10, true, &mut stats).len(), 2);
        // NULL keys are rows: first ascending, last descending.
        let null = Row::new(vec![Value::Null]);
        let with_null = vec![row(vec![5]), null.clone(), row(vec![7])];
        assert_eq!(
            top_k(&with_null, 0, 2, true, &mut stats),
            vec![null.clone(), row(vec![5])]
        );
        assert_eq!(
            top_k(&with_null, 0, 3, false, &mut stats),
            vec![row(vec![7]), row(vec![5]), null]
        );
    }

    #[test]
    fn multi_key_sort_orders_major_then_minor() {
        let rows = vec![
            row(vec![2, 1]),
            row(vec![1, 9]),
            row(vec![2, 3]),
            row(vec![1, 4]),
        ];
        let mut stats = PhaseStats::default();
        // Major: col 0 DESC; minor: col 1 ASC.
        let sorted = sort_rows_by_keys(rows, &[(0, false), (1, true)], &mut stats);
        assert_eq!(
            sorted,
            vec![
                row(vec![2, 1]),
                row(vec![2, 3]),
                row(vec![1, 4]),
                row(vec![1, 9]),
            ]
        );
        assert!(stats.server_cpu_units > 0);
    }

    #[test]
    fn map_rows_evaluates_expressions() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let e = Binder::new(&schema)
            .bind_expr(&parse_expr("a * 2 + 1").unwrap())
            .unwrap();
        let mut stats = PhaseStats::default();
        let out = map_rows(&[row(vec![3])], &[e], &mut stats).unwrap();
        assert_eq!(out, vec![row(vec![7])]);
    }

    // -- vectorized kernel parity ------------------------------------

    fn mixed_schema() -> Schema {
        Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
            ("b", DataType::Bool),
        ])
    }

    /// NULL-heavy, dict-eligible sample (col `s` repeats 5 distinct values).
    fn mixed_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    if i % 11 == 3 {
                        Value::Null
                    } else {
                        Value::Int(i as i64 % 40 - 20)
                    },
                    if i % 13 == 5 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 * 0.25 - 4.0)
                    },
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("name-{}", i % 5))
                    },
                    Value::Date(9000 + (i as i32 % 50)),
                    Value::Bool(i % 3 == 0),
                ])
            })
            .collect()
    }

    fn parity_filter(src: &str) {
        let schema = mixed_schema();
        let rows = mixed_rows(200);
        let pred = Binder::new(&schema)
            .bind_expr(&parse_expr(src).unwrap())
            .unwrap();
        let compiled =
            compile_predicate(&pred).unwrap_or_else(|| panic!("predicate should compile: {src}"));
        let batch = ColumnarBatch::from_rows(&schema, &rows);
        let mut cs = PhaseStats::default();
        let sel = filter_columnar(&batch, &compiled, &mut cs);
        let mut rs = PhaseStats::default();
        let expect = filter_rows(rows.clone(), &pred, &mut rs).unwrap();
        assert_eq!(batch.gather(&sel), expect, "rows differ for {src}");
        assert_eq!(cs, rs, "cpu charge differs for {src}");
    }

    #[test]
    fn vectorized_filter_matches_row_filter() {
        for src in [
            "i > 3",
            "i <= -5",
            "7 > i",
            "f < 2.5",
            "i = 7 OR f >= 40.0",
            "i > 0 AND f < 10.0",
            "s = 'name-2'",
            "s <> 'name-2'",
            "s >= 'name-3'",
            "d BETWEEN 9010 AND 9030",
            "i BETWEEN -3 AND 3",
            "i NOT BETWEEN -3 AND 3",
            "i IN (1, 5, -2)",
            "s IN ('name-1', 'name-4')",
            "s NOT IN ('name-1')",
            "i IS NULL",
            "s IS NOT NULL",
            "NOT (i > 0)",
            "b",
            "b AND i > 0",
            "i > 2 AND (s = 'name-1' OR s IS NULL)",
            "i = 2.5",          // int col vs float literal
            "d > '1994-01-01'", // date col vs string literal
            "s = 3",            // incomparable: always NULL
        ]
        .iter()
        .filter(|src| {
            let schema = mixed_schema();
            let pred = Binder::new(&schema)
                .bind_expr(&parse_expr(src).unwrap())
                .unwrap();
            compile_predicate(&pred).is_some()
        }) {
            parity_filter(src);
        }
    }

    #[test]
    fn fallback_filter_matches_row_filter() {
        let schema = mixed_schema();
        let rows = mixed_rows(150);
        for src in ["i % 2 = 0", "s LIKE 'name-%'", "i + 1 > 3"] {
            let pred = Binder::new(&schema)
                .bind_expr(&parse_expr(src).unwrap())
                .unwrap();
            assert!(
                compile_predicate(&pred).is_none(),
                "{src} must not vectorize (it can raise)"
            );
            let batch = ColumnarBatch::from_rows(&schema, &rows);
            let filter = pushdown_sql::vector::Filter::new(pred.clone());
            let scratch = &mut pushdown_sql::vector::RowExpr::scratch(&batch);
            let (sel, raised) = filter.select(&batch, scratch);
            raised.unwrap();
            let mut rs = PhaseStats::default();
            let expect = filter_rows(rows.clone(), &pred, &mut rs).unwrap();
            assert_eq!(batch.gather(&sel), expect, "{src}");
        }
    }

    #[test]
    fn columnar_top_k_matches_row_top_k() {
        let schema = mixed_schema();
        let rows = mixed_rows(300);
        let batch = ColumnarBatch::from_rows(&schema, &rows);
        let single = [(0, 10, true), (1, 7, false), (2, 5, true), (3, 12, false)];
        let mut cases: Vec<(Vec<(usize, bool)>, usize)> = single
            .iter()
            .map(|&(col, k, asc)| (vec![(col, asc)], k))
            .collect();
        // Tie-heavy major key, minor key breaking some of the ties.
        cases.push((vec![(4, false), (2, true)], 40));
        let columns: Vec<usize> = (0..schema.len()).collect();
        for (keys, k) in cases {
            let mut rs = PhaseStats::default();
            let mut row_tk = TopKAccumulator::new(&keys, k);
            for chunk in rows.chunks(29) {
                row_tk.push_batch(chunk, &mut rs);
            }
            let expect = row_tk.finish(&mut rs);
            let mut cs = PhaseStats::default();
            let mut col_tk = TopKAccumulator::new(&keys, k);
            for b in batch.clone().chunks(53) {
                let sel: Vec<u32> = (0..b.len() as u32).collect();
                col_tk.push_columnar(&b, &columns, &sel, &mut cs);
            }
            let got = col_tk.finish(&mut cs);
            assert_eq!(got, expect, "top-{k} by {keys:?}");
            assert_eq!(cs, rs, "top-K charges must be identical");
        }
    }
}
