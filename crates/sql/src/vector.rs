//! Expressions over typed column batches ([`ColumnarBatch`]): the one
//! vectorized form of a predicate both sides of the wire run — the S3
//! Select engine's `WHERE` and the local scan's filter — and the
//! row-at-a-time fallback for what does not compile.
//!
//! Only *error-free* predicate shapes compile ([`compile_predicate`]):
//! comparisons and three-valued logic never raise (`sql_cmp` is fallible
//! only into NULL), and neither does the float-text test
//! ([`BoundExpr::FloatText`]), so evaluating both sides of an `AND`/`OR`
//! over a whole batch is indistinguishable from the row evaluator's
//! short-circuit. Whatever can raise — arithmetic, `LIKE`, `CASE`, any
//! other `CAST`, function calls — runs one row at a time, in row order,
//! so its values and its first error are the row evaluator's: through
//! [`eval`] ([`RowExpr`]), or, for the Bloom probe of paper Listing 1,
//! through the evaluator's own integer arithmetic on the INT vectors
//! ([`Filter`]).

use crate::ast::{BinOp, Func, UnOp};
use crate::bind::BoundExpr;
use crate::eval::{char_at_cmp, eval, eval_truth, int_arith};
use pushdown_common::columnar::{Column, ColumnData, ColumnarBatch, SelVec};
use pushdown_common::{date, DataType, Error, Result, Row, Value};
use std::cmp::Ordering;

/// A predicate compiled for vectorized evaluation (see the module docs
/// for which shapes compile).
#[derive(Debug, Clone)]
pub enum ColumnarPred {
    /// Constant tri-state (TRUE / FALSE / NULL literal).
    Const(Option<bool>),
    /// A BOOL column used directly as a predicate.
    BoolCol(usize),
    /// `column <op> literal` (literal-column comparisons are flipped at
    /// compile time).
    Cmp {
        col: usize,
        op: BinOp,
        lit: Value,
    },
    Not(Box<ColumnarPred>),
    And(Box<ColumnarPred>, Box<ColumnarPred>),
    Or(Box<ColumnarPred>, Box<ColumnarPred>),
    Between {
        col: usize,
        low: Value,
        high: Value,
        negated: bool,
    },
    InList {
        col: usize,
        list: Vec<Value>,
        negated: bool,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    /// `CAST(<FLOAT column> AS STRING) = '<text>'`, decided by the bits
    /// of the one float `value` that renders as the text (any NaN for a
    /// NaN; `None`: no float does), as [`BoundExpr::FloatText`] is.
    FloatText {
        col: usize,
        value: Option<f64>,
    },
}

/// Try to compile a bound predicate for vectorized evaluation. Returns
/// `None` when any sub-expression could raise at eval time (or is not a
/// recognized shape); callers then evaluate it row by row ([`RowExpr`]).
pub fn compile_predicate(expr: &BoundExpr) -> Option<ColumnarPred> {
    match expr {
        BoundExpr::Literal(Value::Bool(b)) => Some(ColumnarPred::Const(Some(*b))),
        BoundExpr::Literal(Value::Null) => Some(ColumnarPred::Const(None)),
        // Non-bool literals error in `as_bool`; let the fallback raise.
        BoundExpr::Literal(_) => None,
        BoundExpr::Column(idx, DataType::Bool) => Some(ColumnarPred::BoolCol(*idx)),
        BoundExpr::Unary {
            op: UnOp::Not,
            expr,
        } => Some(ColumnarPred::Not(Box::new(compile_predicate(expr)?))),
        BoundExpr::Binary { left, op, right } => match op {
            BinOp::And => Some(ColumnarPred::And(
                Box::new(compile_predicate(left)?),
                Box::new(compile_predicate(right)?),
            )),
            BinOp::Or => Some(ColumnarPred::Or(
                Box::new(compile_predicate(left)?),
                Box::new(compile_predicate(right)?),
            )),
            _ => {
                let (col, op, lit) = expr.column_vs_literal()?;
                Some(ColumnarPred::Cmp {
                    col,
                    op,
                    lit: lit.clone(),
                })
            }
        },
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => match (&**expr, &**low, &**high) {
            (BoundExpr::Column(c, _), BoundExpr::Literal(lo), BoundExpr::Literal(hi)) => {
                Some(ColumnarPred::Between {
                    col: *c,
                    low: lo.clone(),
                    high: hi.clone(),
                    negated: *negated,
                })
            }
            _ => None,
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let BoundExpr::Column(c, _) = &**expr else {
                return None;
            };
            let lits: Option<Vec<Value>> = list
                .iter()
                .map(|e| match e {
                    BoundExpr::Literal(v) => Some(v.clone()),
                    _ => None,
                })
                .collect();
            Some(ColumnarPred::InList {
                col: *c,
                list: lits?,
                negated: *negated,
            })
        }
        BoundExpr::IsNull { expr, negated } => match &**expr {
            BoundExpr::Column(c, _) => Some(ColumnarPred::IsNull {
                col: *c,
                negated: *negated,
            }),
            _ => None,
        },
        BoundExpr::FloatText { expr, value, .. } => match &**expr {
            BoundExpr::Column(c, DataType::Float) => Some(ColumnarPred::FloatText {
                col: *c,
                value: *value,
            }),
            _ => None,
        },
        _ => None,
    }
}

impl ColumnarPred {
    /// The predicate's three-valued answer for every row of `batch`:
    /// `1` = TRUE, `0` = FALSE, `-1` = NULL.
    pub fn eval_tri(&self, batch: &ColumnarBatch) -> Vec<i8> {
        let n = batch.len();
        match self {
            ColumnarPred::Const(b) => vec![tri(*b); n],
            ColumnarPred::BoolCol(c) => {
                let col = batch.column(*c);
                let ColumnData::Bool(v) = &col.data else {
                    // Schema says BOOL but the vector is another type only if
                    // the batch was built inconsistently; treat as NULL.
                    return vec![-1; n];
                };
                (0..n)
                    .map(|i| if col.is_valid(i) { i8::from(v[i]) } else { -1 })
                    .collect()
            }
            ColumnarPred::Cmp { col, op, lit } => cmp_column_lit(batch.column(*col), lit)
                .into_iter()
                .map(|o| ord_to_tri(o, *op))
                .collect(),
            ColumnarPred::Not(inner) => inner
                .eval_tri(batch)
                .into_iter()
                .map(|t| if t < 0 { -1 } else { 1 - t })
                .collect(),
            ColumnarPred::And(l, r) => {
                let rv = r.eval_tri(batch);
                let lv = l.eval_tri(batch).into_iter();
                lv.zip(rv).map(|(a, b)| kleene_and_tri(a, b)).collect()
            }
            ColumnarPred::Or(l, r) => {
                let rv = r.eval_tri(batch);
                let lv = l.eval_tri(batch).into_iter();
                lv.zip(rv).map(|(a, b)| kleene_or_tri(a, b)).collect()
            }
            ColumnarPred::Between {
                col,
                low,
                high,
                negated,
            } => {
                let c = batch.column(*col);
                let lo = cmp_column_lit(c, low);
                let hi = cmp_column_lit(c, high);
                (0..n)
                    .map(|i| {
                        let ge_low = lo[i].map(|o| o != Ordering::Less).map_or(-1, i8::from);
                        let le_high = hi[i].map(|o| o != Ordering::Greater).map_or(-1, i8::from);
                        negate_tri(kleene_and_tri(ge_low, le_high), *negated)
                    })
                    .collect()
            }
            ColumnarPred::InList { col, list, negated } => {
                let c = batch.column(*col);
                let per_item: Vec<Vec<Option<Ordering>>> =
                    list.iter().map(|lit| cmp_column_lit(c, lit)).collect();
                (0..n)
                    .map(|i| {
                        let mut found = false;
                        let mut saw_null = false;
                        for item in &per_item {
                            match item[i] {
                                Some(Ordering::Equal) => {
                                    found = true;
                                    break;
                                }
                                Some(_) => {}
                                None => saw_null = true,
                            }
                        }
                        let t = if found {
                            1
                        } else if saw_null {
                            -1
                        } else {
                            0
                        };
                        negate_tri(t, *negated)
                    })
                    .collect()
            }
            ColumnarPred::IsNull { col, negated } => {
                let c = batch.column(*col);
                (0..n)
                    .map(|i| i8::from(c.is_valid(i) == *negated))
                    .collect()
            }
            ColumnarPred::FloatText { col, value } => {
                let c = batch.column(*col);
                let ColumnData::Float(v) = &c.data else {
                    // As for `BoolCol`: only an inconsistent batch gets here.
                    return vec![-1; n];
                };
                let matches = |f: f64| match value {
                    Some(x) if x.is_nan() => f.is_nan(),
                    Some(x) => f.to_bits() == x.to_bits(),
                    None => false,
                };
                (0..n)
                    .map(|i| {
                        if c.is_valid(i) {
                            i8::from(matches(v[i]))
                        } else {
                            -1
                        }
                    })
                    .collect()
            }
        }
    }

    /// The rows of `batch` the predicate keeps — TRUE only, as in SQL
    /// `WHERE` — ascending.
    pub fn select(&self, batch: &ColumnarBatch) -> SelVec {
        self.eval_tri(batch)
            .into_iter()
            .enumerate()
            .filter_map(|(i, t)| (t == 1).then_some(i as u32))
            .collect()
    }
}

/// An expression evaluated one row at a time over a batch by [`eval`],
/// on a caller-owned sparse row of the batch's width in which only the
/// columns the expression references are filled in (the other slots hold
/// whatever was last put there, and it never reads them).
#[derive(Debug, Clone)]
pub struct RowExpr {
    expr: BoundExpr,
    /// The batch columns `expr` reads, ascending, each once.
    columns: Vec<usize>,
}

impl RowExpr {
    pub fn new(expr: BoundExpr) -> Self {
        let mut columns = Vec::new();
        expr.walk(&mut |e| {
            if let BoundExpr::Column(c, _) = e {
                columns.push(*c);
            }
        });
        columns.sort_unstable();
        columns.dedup();
        RowExpr { expr, columns }
    }

    /// A sparse row fit for every expression over `batch`: all NULL.
    pub fn scratch(batch: &ColumnarBatch) -> Row {
        Row::new(vec![Value::Null; batch.columns.len()])
    }

    /// Put row `i`'s values of this expression's columns into `row`.
    fn load(&self, batch: &ColumnarBatch, i: usize, row: &mut Row) {
        for &c in &self.columns {
            row.0[c] = batch.column(c).value_at(i);
        }
    }

    /// The expression's value at row `i` of `batch`.
    pub fn eval(&self, batch: &ColumnarBatch, i: usize, row: &mut Row) -> Result<Value> {
        self.load(batch, i, row);
        eval(&self.expr, row)
    }

    /// The expression's truth at row `i` of `batch` (`None`: NULL).
    fn truth(&self, batch: &ColumnarBatch, i: usize, row: &mut Row) -> Result<Option<bool>> {
        self.load(batch, i, row);
        eval_truth(&self.expr, row)
    }
}

/// A `WHERE` clause ready for column batches: its AND chain's conjuncts
/// ([`BoundExpr::conjuncts`]), each compiled when it cannot raise, a
/// Bloom probe read row by row off its INT vectors, anything else
/// evaluated row by row — a run of such conjuncts as their one AND —,
/// and the row-wise ones only on the rows no conjunct before them ruled
/// out, as the row evaluator's short-circuit reaches them.
#[derive(Debug, Clone)]
pub struct Filter {
    conjuncts: Vec<Conjunct>,
}

#[derive(Debug, Clone)]
enum Conjunct {
    Compiled(ColumnarPred),
    Probe(Probe),
    Rows(RowExpr),
}

/// `SUBSTRING('<ASCII text>', <integer arithmetic>, 1) <op> '<char>'` —
/// the Bloom probe of paper Listing 1, one conjunct per hash function —
/// over INT columns: the row evaluator's byte test with its checked
/// arithmetic and errors, read straight off the column vectors.
#[derive(Debug, Clone)]
struct Probe {
    text: Vec<u8>,
    position: IntExpr,
    want: u8,
    op: BinOp,
}

impl Probe {
    fn compile(expr: &BoundExpr) -> Option<Probe> {
        let BoundExpr::Binary { left, op, right } = expr else {
            return None;
        };
        let (
            BoundExpr::Call {
                func: Func::Substring,
                args,
                ascii_text: true,
            },
            BoundExpr::Literal(Value::Str(want)),
        ) = (&**left, &**right)
        else {
            return None;
        };
        let [BoundExpr::Literal(Value::Str(text)), position, BoundExpr::Literal(Value::Int(1))] =
            args.as_slice()
        else {
            return None;
        };
        let (&[want], true) = (want.as_bytes(), op.is_comparison()) else {
            return None;
        };
        Some(Probe {
            text: text.as_bytes().to_vec(),
            position: IntExpr::compile(position)?,
            want,
            op: *op,
        })
    }

    fn truth(&self, batch: &ColumnarBatch, i: usize) -> Result<Option<bool>> {
        Ok(match self.position.at(batch, i)? {
            None => None,
            Some(at) => {
                let ord = char_at_cmp(&self.text, at, self.want);
                Some(ord_to_tri(Some(ord), self.op) == 1)
            }
        })
    }
}

/// Integer arithmetic — `+ - * / %` over INT columns and INT literals,
/// and `CAST(.. AS INT)` of those — worked out per row as the row
/// evaluator does: left operand, right operand, then the checked
/// operation ([`int_arith`]); NULL propagates.
#[derive(Debug, Clone)]
enum IntExpr {
    Column(usize),
    Literal(Option<i64>),
    Arith(Box<IntExpr>, BinOp, Box<IntExpr>),
}

impl IntExpr {
    fn compile(expr: &BoundExpr) -> Option<IntExpr> {
        Some(match expr {
            BoundExpr::Column(c, DataType::Int) => IntExpr::Column(*c),
            BoundExpr::Literal(Value::Int(i)) => IntExpr::Literal(Some(*i)),
            BoundExpr::Literal(Value::Null) => IntExpr::Literal(None),
            BoundExpr::Cast {
                expr,
                dtype: DataType::Int,
            } => IntExpr::compile(expr)?,
            BoundExpr::Binary { left, op, right } if op.is_arithmetic() => IntExpr::Arith(
                Box::new(IntExpr::compile(left)?),
                *op,
                Box::new(IntExpr::compile(right)?),
            ),
            _ => return None,
        })
    }

    fn at(&self, batch: &ColumnarBatch, i: usize) -> Result<Option<i64>> {
        Ok(match self {
            IntExpr::Column(c) => match &batch.column(*c).data {
                ColumnData::Int(v) if batch.column(*c).is_valid(i) => Some(v[i]),
                // NULL, or (only in an inconsistent batch) no INT vector.
                _ => None,
            },
            IntExpr::Literal(v) => *v,
            IntExpr::Arith(left, op, right) => match (left.at(batch, i)?, right.at(batch, i)?) {
                (Some(a), Some(b)) => Some(int_arith(a, *op, b)?),
                _ => None,
            },
        })
    }
}

impl Filter {
    pub fn new(pred: BoundExpr) -> Self {
        if let Some(compiled) = compile_predicate(&pred) {
            let conjuncts = vec![Conjunct::Compiled(compiled)];
            return Filter { conjuncts };
        }
        let mut conjuncts = Vec::new();
        // The run of row-wise conjuncts since the last of another kind.
        let mut run: Option<BoundExpr> = None;
        for e in pred.conjuncts() {
            let conjunct = match (compile_predicate(e), Probe::compile(e)) {
                (Some(compiled), _) => Conjunct::Compiled(compiled),
                (None, Some(probe)) => Conjunct::Probe(probe),
                (None, None) => {
                    run = Some(match run.take() {
                        None => e.clone(),
                        Some(left) => BoundExpr::Binary {
                            left: Box::new(left),
                            op: BinOp::And,
                            right: Box::new(e.clone()),
                        },
                    });
                    continue;
                }
            };
            conjuncts.extend(run.take().map(|e| Conjunct::Rows(RowExpr::new(e))));
            conjuncts.push(conjunct);
        }
        conjuncts.extend(run.map(|e| Conjunct::Rows(RowExpr::new(e))));
        Filter { conjuncts }
    }

    /// The rows of `batch` the predicate keeps, ascending, and how the
    /// evaluation ended: with the first error the row evaluator would
    /// raise — at the lowest row, and there in the first conjunct that
    /// raises —, at a row after every selected one (a compiled
    /// predicate cannot raise). `row` is the sparse row a row-wise
    /// conjunct evaluates on.
    pub fn select(&self, batch: &ColumnarBatch, row: &mut Row) -> (SelVec, Result<()>) {
        if let [Conjunct::Compiled(pred)] = self.conjuncts.as_slice() {
            return (pred.select(batch), Ok(()));
        }
        // Each row's AND so far, three-valued; a conjunct is evaluated
        // on the rows before the first error that are not FALSE yet.
        let mut truth = vec![1i8; batch.len()];
        let mut first: Option<(usize, Error)> = None;
        for conjunct in &self.conjuncts {
            let end = first.as_ref().map_or(batch.len(), |(i, _)| *i);
            let rows = &mut truth[..end];
            let raised = match conjunct {
                Conjunct::Compiled(pred) => {
                    for (t, c) in rows.iter_mut().zip(pred.eval_tri(batch)) {
                        *t = kleene_and_tri(*t, c);
                    }
                    None
                }
                Conjunct::Probe(probe) => and_rows(rows, |i| probe.truth(batch, i)),
                Conjunct::Rows(expr) => and_rows(rows, |i| expr.truth(batch, i, row)),
            };
            first = raised.or(first);
        }
        let end = first.as_ref().map_or(batch.len(), |(i, _)| *i);
        let sel = (truth[..end].iter().enumerate())
            .filter_map(|(i, &t)| (t == 1).then_some(i as u32))
            .collect();
        (sel, first.map_or(Ok(()), |(_, e)| Err(e)))
    }
}

/// AND a row-wise conjunct's truth into `truth`, row by row in row
/// order, skipping the rows already FALSE; stops at its first error,
/// returned with its row.
fn and_rows(
    truth: &mut [i8],
    mut at: impl FnMut(usize) -> Result<Option<bool>>,
) -> Option<(usize, Error)> {
    for (i, t) in truth.iter_mut().enumerate() {
        if *t == 0 {
            continue;
        }
        match at(i) {
            Ok(c) => *t = kleene_and_tri(*t, tri(c)),
            Err(e) => return Some((i, e)),
        }
    }
    None
}

fn tri(b: Option<bool>) -> i8 {
    match b {
        Some(true) => 1,
        Some(false) => 0,
        None => -1,
    }
}

/// `column <cmp> literal` orderings, one per row (`None` = NULL /
/// incomparable), replicating `Value::sql_cmp` per type pair. Dictionary
/// columns compare the literal against each dictionary entry once and
/// look orderings up per row.
fn cmp_column_lit(col: &Column, lit: &Value) -> Vec<Option<Ordering>> {
    let n = col.len();
    let mut out = vec![None; n];
    if lit.is_null() {
        return out;
    }
    match (&col.data, lit) {
        (ColumnData::Int(v), Value::Int(b)) => {
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = Some(v[i].cmp(b));
                }
            }
        }
        (ColumnData::Int(v), Value::Float(_) | Value::Date(_)) => {
            let b = lit.as_f64().unwrap();
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = (v[i] as f64).partial_cmp(&b);
                }
            }
        }
        (ColumnData::Float(v), Value::Int(_) | Value::Float(_) | Value::Date(_)) => {
            let b = lit.as_f64().unwrap();
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = v[i].partial_cmp(&b);
                }
            }
        }
        (ColumnData::Date(v), Value::Date(b)) => {
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = Some(v[i].cmp(b));
                }
            }
        }
        (ColumnData::Date(v), Value::Int(_) | Value::Float(_)) => {
            let b = lit.as_f64().unwrap();
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = (v[i] as f64).partial_cmp(&b);
                }
            }
        }
        (ColumnData::Date(v), Value::Str(s)) => {
            // sql_cmp compares dates to strings textually via the ISO form.
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = Some(date::format_date(v[i]).as_str().cmp(s.as_str()));
                }
            }
        }
        (ColumnData::Bool(v), Value::Bool(b)) => {
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = Some(v[i].cmp(b));
                }
            }
        }
        (ColumnData::Str(v), Value::Str(s)) => {
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = Some(v[i].as_str().cmp(s.as_str()));
                }
            }
        }
        (ColumnData::Str(v), Value::Date(d)) => {
            let ds = date::format_date(*d);
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = Some(v[i].as_str().cmp(ds.as_str()));
                }
            }
        }
        (ColumnData::DictStr { codes, dict }, _) => {
            // One comparison per distinct value, then a per-row lookup.
            let lut: Vec<Option<Ordering>> = dict
                .iter()
                .map(|s| Value::Str(s.clone()).sql_cmp(lit))
                .collect();
            for i in 0..n {
                if col.is_valid(i) {
                    out[i] = lut[codes[i] as usize];
                }
            }
        }
        // Remaining pairs (Bool vs numeric/Str, Str vs numeric, …) are
        // incomparable under sql_cmp: every row stays None (NULL).
        _ => {}
    }
    out
}

fn ord_to_tri(ord: Option<Ordering>, op: BinOp) -> i8 {
    let Some(o) = ord else { return -1 };
    let b = match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::NotEq => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::LtEq => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::GtEq => o != Ordering::Less,
        _ => unreachable!("non-comparison op in compiled predicate"),
    };
    i8::from(b)
}

fn kleene_and_tri(l: i8, r: i8) -> i8 {
    if l == 0 || r == 0 {
        0
    } else if l == 1 && r == 1 {
        1
    } else {
        -1
    }
}

fn kleene_or_tri(l: i8, r: i8) -> i8 {
    if l == 1 || r == 1 {
        1
    } else if l == 0 && r == 0 {
        0
    } else {
        -1
    }
}

fn negate_tri(t: i8, negated: bool) -> i8 {
    if t < 0 || !negated {
        t
    } else {
        1 - t
    }
}
