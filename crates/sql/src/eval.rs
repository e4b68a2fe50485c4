//! Expression evaluation with SQL three-valued logic.
//!
//! The same interpreter serves both the simulated S3 Select engine and
//! PushdownDB's server-side operators, which guarantees that a pushed-down
//! predicate and its local equivalent agree — property tests in the
//! `select` crate rely on this.

use crate::ast::{BinOp, Func, UnOp};
use crate::bind::BoundExpr;
use pushdown_common::{DataType, Error, Result, Row, Value};
use std::cmp::Ordering;

/// Evaluate a bound expression against one row.
pub fn eval(expr: &BoundExpr, row: &Row) -> Result<Value> {
    // Operands are evaluated by reference (see `eval_ref`); a `slot` is
    // where a computed operand lives while its node looks at it.
    match expr {
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Column(idx, _) => Ok(row[*idx].clone()),
        BoundExpr::Unary { op, expr } => {
            let mut slot = Value::Null;
            let v = eval_ref(expr, row, &mut slot)?;
            match op {
                UnOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => {
                        Ok(Value::Int(i.checked_neg().ok_or_else(|| {
                            Error::Eval("integer overflow in negation".into())
                        })?))
                    }
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(Error::Eval(format!("cannot negate {}", other.type_name()))),
                },
                UnOp::Not => match v.as_bool()? {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Bool(!b)),
                },
            }
        }
        BoundExpr::Binary { left, op, right } => eval_binary(left, *op, right, row),
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let (mut slot, mut lo_slot, mut hi_slot) = (Value::Null, Value::Null, Value::Null);
            let v = eval_ref(expr, row, &mut slot)?;
            let lo = eval_ref(low, row, &mut lo_slot)?;
            let hi = eval_ref(high, row, &mut hi_slot)?;
            let ge_low = compare(v, lo).map(|o| o != Ordering::Less);
            let le_high = compare(v, hi).map(|o| o != Ordering::Greater);
            let result = kleene_and(ge_low, le_high);
            Ok(maybe_negate(result, *negated))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let (mut slot, mut item_slot) = (Value::Null, Value::Null);
            let v = eval_ref(expr, row, &mut slot)?;
            let mut saw_null = false;
            let mut found = false;
            for item in list {
                let iv = eval_ref(item, row, &mut item_slot)?;
                match v.sql_eq(iv) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            let result = if found {
                Some(true)
            } else if saw_null {
                None
            } else {
                Some(false)
            };
            Ok(maybe_negate(result, *negated))
        }
        BoundExpr::IsNull { expr, negated } => {
            let mut slot = Value::Null;
            let v = eval_ref(expr, row, &mut slot)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (mut slot, mut pattern_slot) = (Value::Null, Value::Null);
            let v = eval_ref(expr, row, &mut slot)?;
            let p = eval_ref(pattern, row, &mut pattern_slot)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(v.as_str()?, p.as_str()?);
            Ok(Value::Bool(matched != *negated))
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            let mut slot = Value::Null;
            for (cond, val) in branches {
                if eval_ref(cond, row, &mut slot)?.as_bool()? == Some(true) {
                    return eval(val, row);
                }
            }
            match else_expr {
                Some(e) => eval(e, row),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::Cast { expr, dtype } => {
            let mut slot = Value::Null;
            eval_ref(expr, row, &mut slot)?.cast(*dtype)
        }
        BoundExpr::FloatText { expr, text, value } => {
            Ok(tristate(float_text(expr, text, *value, row)?))
        }
        BoundExpr::Call {
            func,
            args,
            ascii_text,
        } => eval_call(*func, args, *ascii_text, row),
    }
}

/// Evaluate a predicate expression to a plain pass/fail decision
/// (`NULL` ⇒ the row does not pass, as in SQL `WHERE`).
pub fn eval_predicate(expr: &BoundExpr, row: &Row) -> Result<bool> {
    Ok(eval_truth(expr, row)? == Some(true))
}

/// Evaluate `expr` as an operand: a literal or a column reference is
/// handed back by reference — a predicate over a multi-KB Bloom literal
/// or a string column copies neither — and anything computed is put in
/// the caller's `slot`.
fn eval_ref<'a>(expr: &'a BoundExpr, row: &'a Row, slot: &'a mut Value) -> Result<&'a Value> {
    match expr {
        BoundExpr::Literal(v) => Ok(v),
        BoundExpr::Column(idx, _) => Ok(&row[*idx]),
        computed => {
            *slot = eval(computed, row)?;
            Ok(slot)
        }
    }
}

fn eval_binary(left: &BoundExpr, op: BinOp, right: &BoundExpr, row: &Row) -> Result<Value> {
    if !op.is_arithmetic() {
        return Ok(tristate(eval_logic(left, op, right, row)?));
    }
    match eval_int_binary(left, op, right, row)? {
        IntOperand::Int(i) => return Ok(Value::Int(i)),
        IntOperand::Null => return Ok(Value::Null),
        IntOperand::Other => {}
    }
    let (mut lslot, mut rslot) = (Value::Null, Value::Null);
    let l = eval_ref(left, row, &mut lslot)?;
    let r = eval_ref(right, row, &mut rslot)?;
    // NULL propagates.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    arith(l, op, r)
}

/// Evaluate `expr` as a truth value (`None` = NULL). A connective or a
/// comparison answers without a `Value` in between, so a chain of `AND`s
/// costs a call a level.
pub(crate) fn eval_truth(expr: &BoundExpr, row: &Row) -> Result<Option<bool>> {
    match expr {
        BoundExpr::Binary { left, op, right } if !op.is_arithmetic() => {
            eval_logic(left, *op, right, row)
        }
        BoundExpr::FloatText { expr, text, value } => float_text(expr, text, *value, row),
        other => {
            let mut slot = Value::Null;
            eval_ref(other, row, &mut slot)?.as_bool()
        }
    }
}

/// `left <op> right` for a connective or a comparison, three-valued.
fn eval_logic(left: &BoundExpr, op: BinOp, right: &BoundExpr, row: &Row) -> Result<Option<bool>> {
    // AND/OR need Kleene short-circuit semantics, handled first.
    match op {
        BinOp::And => {
            let l = eval_truth(left, row)?;
            if l == Some(false) {
                return Ok(Some(false));
            }
            return Ok(kleene_and(l, eval_truth(right, row)?));
        }
        BinOp::Or => {
            let l = eval_truth(left, row)?;
            if l == Some(true) {
                return Ok(Some(true));
            }
            return Ok(kleene_or(l, eval_truth(right, row)?));
        }
        _ => {}
    }

    let holds = |ord: Ordering| match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!(),
    };
    if let Some(probed) = probe_literal_char(left, right, row)? {
        return Ok(probed.map(holds));
    }
    let (mut lslot, mut rslot) = (Value::Null, Value::Null);
    let l = eval_ref(left, row, &mut lslot)?;
    let r = eval_ref(right, row, &mut rslot)?;
    Ok(compare(l, r).map(holds))
}

/// `SUBSTRING('<ASCII literal>', <integer arithmetic>, 1)` against a
/// one-character literal — the Bloom probe of paper Listing 1, seven
/// conjuncts a row — ordered by looking at the one byte where it lies:
/// no substring is copied out, so the per-row work is the hash
/// arithmetic and a byte test. `Some(None)` is a NULL position; `None`
/// means this is no such comparison (or its position is no integer
/// arithmetic in this row) and the general evaluation applies.
fn probe_literal_char(
    left: &BoundExpr,
    right: &BoundExpr,
    row: &Row,
) -> Result<Option<Option<Ordering>>> {
    let (
        BoundExpr::Call {
            func: Func::Substring,
            args,
            ascii_text: true,
        },
        BoundExpr::Literal(Value::Str(want)),
    ) = (left, right)
    else {
        return Ok(None);
    };
    let [BoundExpr::Literal(Value::Str(text)), position, BoundExpr::Literal(Value::Int(1))] =
        args.as_slice()
    else {
        return Ok(None);
    };
    let &[want] = want.as_bytes() else {
        return Ok(None);
    };
    Ok(match eval_int(position, row)? {
        IntOperand::Other => None,
        IntOperand::Null => Some(None),
        IntOperand::Int(at) => Some(Some(char_at_cmp(text.as_bytes(), at, want))),
    })
}

/// How the character at 1-based position `at` of the ASCII `text`
/// orders against the one-byte `want`: a position off either end
/// selects the empty string, which sorts before any character.
pub(crate) fn char_at_cmp(text: &[u8], at: i64, want: u8) -> Ordering {
    match usize::try_from(at)
        .ok()
        .and_then(|at| text.get(at.checked_sub(1)?))
    {
        Some(got) => got.cmp(&want),
        None => Ordering::Less,
    }
}

/// [`BoundExpr::FloatText`]: `CAST(expr AS STRING) = text`, three-valued.
/// A FLOAT operand is matched by its bits against the one float `text`
/// names — any NaN for `NaN` —, with no string rendered; anything else
/// in the column is cast and compared the general way.
fn float_text(expr: &BoundExpr, text: &str, value: Option<f64>, row: &Row) -> Result<Option<bool>> {
    let mut slot = Value::Null;
    Ok(match (eval_ref(expr, row, &mut slot)?, value) {
        (Value::Null, _) => None,
        (Value::Float(f), Some(v)) if v.is_nan() => Some(f.is_nan()),
        (Value::Float(f), Some(v)) => Some(f.to_bits() == v.to_bits()),
        (Value::Float(_), None) => Some(false),
        (other, _) => match other.cast(DataType::Str)? {
            Value::Str(s) => Some(s == text),
            _ => None,
        },
    })
}

/// What [`eval_int`] makes of a subtree.
enum IntOperand {
    Int(i64),
    Null,
    /// Not integer arithmetic (or not over integers in this row).
    Other,
}

/// Integer arithmetic — `+ - * / %` over INT literals, columns holding
/// an INT or NULL in this row, and `CAST(.. AS INT)` of those — worked
/// out in registers, no `Value` per node: the hash of a Bloom probe
/// (paper Listing 1) is five such nodes per conjunct. Operands are
/// visited in the evaluator's order and the first thing that is no
/// integer arithmetic ends the walk with [`IntOperand::Other`], so a
/// caller that then evaluates the general way meets the same values and
/// the same first error.
fn eval_int(expr: &BoundExpr, row: &Row) -> Result<IntOperand> {
    Ok(match expr {
        BoundExpr::Literal(Value::Int(i)) => IntOperand::Int(*i),
        BoundExpr::Literal(Value::Null) => IntOperand::Null,
        BoundExpr::Column(idx, _) => match &row[*idx] {
            Value::Int(i) => IntOperand::Int(*i),
            Value::Null => IntOperand::Null,
            _ => IntOperand::Other,
        },
        // Casting an INT (or NULL) to INT is the identity.
        BoundExpr::Cast {
            expr,
            dtype: DataType::Int,
        } => eval_int(expr, row)?,
        BoundExpr::Binary { left, op, right } if op.is_arithmetic() => {
            eval_int_binary(left, *op, right, row)?
        }
        _ => IntOperand::Other,
    })
}

/// [`eval_int`] of `left <op> right`, `op` arithmetic.
fn eval_int_binary(
    left: &BoundExpr,
    op: BinOp,
    right: &BoundExpr,
    row: &Row,
) -> Result<IntOperand> {
    let l = match eval_int(left, row)? {
        IntOperand::Other => return Ok(IntOperand::Other),
        l => l,
    };
    Ok(match (l, eval_int(right, row)?) {
        (_, IntOperand::Other) => IntOperand::Other,
        (IntOperand::Int(a), IntOperand::Int(b)) => IntOperand::Int(int_arith(a, op, b)?),
        _ => IntOperand::Null,
    })
}

/// Integer × integer stays integral (SQL semantics: `/` truncates).
pub(crate) fn int_arith(a: i64, op: BinOp, b: i64) -> Result<i64> {
    let out = match op {
        BinOp::Add => a.checked_add(b),
        BinOp::Sub => a.checked_sub(b),
        BinOp::Mul => a.checked_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(Error::Eval("division by zero".into()));
            }
            a.checked_div(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return Err(Error::Eval("modulo by zero".into()));
            }
            a.checked_rem(b)
        }
        _ => unreachable!(),
    };
    out.ok_or_else(|| Error::Eval("integer overflow".into()))
}

/// SQL comparison. Returns `None` if either side is NULL. Incomparable
/// types are an evaluation error rather than silent NULL — S3 Select
/// surfaces a cast error in that situation, which we mirror.
fn compare(l: &Value, r: &Value) -> Option<Ordering> {
    l.sql_cmp(r)
}

fn arith(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return int_arith(*a, op, *b).map(Value::Int);
    }
    let a = l.as_f64()?;
    let b = r.as_f64()?;
    let out = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(Error::Eval("division by zero".into()));
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Err(Error::Eval("modulo by zero".into()));
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(out))
}

fn eval_call(func: Func, args: &[BoundExpr], ascii_text: bool, row: &Row) -> Result<Value> {
    // The binder caps every function at three arguments.
    let mut slots = [Value::Null, Value::Null, Value::Null];
    let mut vals = [&Value::Null; 3];
    for ((val, slot), arg) in vals.iter_mut().zip(&mut slots).zip(args) {
        *val = eval_ref(arg, row, slot)?;
    }
    let vals = &vals[..args.len()];
    if vals.iter().any(|v| v.is_null()) {
        return Ok(Value::Null);
    }
    match func {
        Func::Substring => {
            let s = vals[0].as_str()?;
            let start = vals[1].as_i64()?;
            let len = if vals.len() == 3 {
                let l = vals[2].as_i64()?;
                if l < 0 {
                    return Err(Error::Eval("negative SUBSTRING length".into()));
                }
                Some(l)
            } else {
                None
            };
            Ok(Value::Str(substring(s, start, len, ascii_text).to_string()))
        }
        Func::BitAt => {
            let hex = vals[0].as_str()?;
            let pos = vals[1].as_i64()?;
            if pos < 1 || pos > hex.len() as i64 * 4 {
                return Err(Error::Eval(format!(
                    "BIT_AT position {pos} outside bit array of {} bits",
                    hex.len() * 4
                )));
            }
            let idx = (pos - 1) as usize;
            let c = hex.as_bytes()[idx / 4];
            let nibble = (c as char).to_digit(16).ok_or_else(|| {
                Error::Eval(format!("BIT_AT: `{}` is not a hex digit", c as char))
            })?;
            // Bit 0 of the nibble is its most significant bit, so a bit
            // array reads left-to-right like the '0'/'1' string encoding.
            let bit = (nibble >> (3 - (idx % 4))) & 1;
            Ok(Value::Int(bit as i64))
        }
        Func::Lower => Ok(Value::Str(vals[0].as_str()?.to_lowercase())),
        Func::Upper => Ok(Value::Str(vals[0].as_str()?.to_uppercase())),
        Func::Trim => Ok(Value::Str(vals[0].as_str()?.trim().to_string())),
        Func::CharLength => Ok(Value::Int(vals[0].as_str()?.chars().count() as i64)),
        Func::Abs => match vals[0] {
            Value::Int(i) => {
                Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                    Error::Eval("integer overflow in ABS".into())
                })?))
            }
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(Error::Eval(format!("ABS of {}", other.type_name()))),
        },
    }
}

/// SQL `SUBSTRING(s, start [, len])` with 1-based **character** indexing.
/// A start before position 1 consumes length before the string begins
/// (standard SQL). `ascii` promises `s` is pure ASCII, where character
/// positions are byte positions and no walk over `s` is needed.
fn substring(s: &str, start: i64, len: Option<i64>, ascii: bool) -> &str {
    // Half-open range of 0-based character indices; either end may lie
    // past the string.
    let index = |pos: i64| usize::try_from(pos.max(1) - 1).unwrap_or(usize::MAX);
    let from = index(start);
    let to = len.map(|l| index(start.saturating_add(l)));
    if to.is_some_and(|to| from >= to) {
        return "";
    }
    if ascii {
        let from = from.min(s.len());
        return &s[from..to.map_or(s.len(), |to| to.min(s.len()))];
    }
    let mut chars = s.char_indices();
    let byte_at = |chars: &mut std::str::CharIndices<'_>, skip: usize| {
        chars.nth(skip).map_or(s.len(), |(i, _)| i)
    };
    let from_byte = byte_at(&mut chars, from);
    // `nth` consumed the char at `from`, so `to` is `to - from - 1` ahead.
    let to_byte = to.map_or(s.len(), |to| byte_at(&mut chars, to - from - 1));
    &s[from_byte..to_byte]
}

/// SQL LIKE: `%` matches any run (including empty), `_` matches exactly one
/// character. The classic two-pointer glob algorithm, run over the UTF-8
/// bytes: `%` and `_` are ASCII, equal characters have equal bytes, and
/// `_` and the backtrack step advance by one whole character, so the
/// outcome is the character-wise one without decoding either string.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    // Index of the character after the one starting at `i`.
    let next_char = |i: usize| {
        let mut j = i + 1;
        while j < t.len() && t[j] & 0xC0 == 0x80 {
            j += 1;
        }
        j
    };
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        // Wildcards first: a `%` or `_` in the pattern is never a literal,
        // even when the text holds the same byte at this position.
        if pi < p.len() && p[pi] == b'%' {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if pi < p.len() && p[pi] == b'_' {
            ti = next_char(ti);
            pi += 1;
        } else if pi < p.len() && p[pi] == t[ti] {
            ti += 1;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_t = next_char(star_t);
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'%' {
        pi += 1;
    }
    pi == p.len()
}

fn kleene_and(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn tristate(b: Option<bool>) -> Value {
    match b {
        Some(v) => Value::Bool(v),
        None => Value::Null,
    }
}

fn maybe_negate(b: Option<bool>, negated: bool) -> Value {
    match b {
        Some(v) => Value::Bool(v != negated),
        None => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::Binder;
    use crate::parser::parse_expr;
    use pushdown_common::value::format_float;
    use pushdown_common::{DataType, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
            ("n", DataType::Int), // always NULL in the test row
        ])
    }

    fn row() -> Row {
        Row::new(vec![
            Value::Int(7),
            Value::Float(2.5),
            Value::Str("hello".into()),
            Value::Date(pushdown_common::date::ymd(1994, 6, 15)),
            Value::Null,
        ])
    }

    fn run(src: &str) -> Result<Value> {
        let s = schema();
        let e = Binder::new(&s).bind_expr(&parse_expr(src).unwrap())?;
        eval(&e, &row())
    }

    /// `CAST(<FLOAT> AS STRING) = '<text>'` binds to the kernel and is
    /// decided by the float's bits: a NULL operand gives NULL, `NaN` means
    /// the operand is a NaN (any), the canonical rendering of `f` means
    /// the operand's bits are `f`'s — `-0.0` and `0.0` apart, the
    /// rendering being injective off NaN — and any other text is FALSE.
    #[test]
    fn float_text_equality_is_decided_by_bits() {
        let s = Schema::from_pairs(&[("f", DataType::Float)]);
        let check = |operand: Value, text: &str| {
            let sql = format!("CAST(f AS STRING) = '{text}'");
            let e = Binder::new(&s)
                .bind_expr(&parse_expr(&sql).unwrap())
                .unwrap();
            assert!(matches!(e, BoundExpr::FloatText { .. }), "{e:?}");
            let row = Row::new(vec![operand]);
            assert_eq!(
                eval_predicate(&e, &row).unwrap(),
                eval(&e, &row).unwrap() == Value::Bool(true)
            );
            eval(&e, &row).unwrap()
        };
        let (yes, no) = (Value::Bool(true), Value::Bool(false));
        assert_eq!(check(Value::Null, "NaN"), Value::Null);
        assert_eq!(check(Value::Null, "1.5"), Value::Null);
        assert_eq!(check(Value::Null, "1.50"), Value::Null);
        let payload = f64::from_bits(0x7ff0_0000_0000_0001);
        for nan in [f64::NAN, -f64::NAN, payload] {
            assert_eq!(check(Value::Float(nan), "NaN"), yes);
            assert_eq!(check(Value::Float(nan), "nan"), no);
            assert_eq!(check(Value::Float(nan), "inf"), no);
        }
        assert_eq!(check(Value::Float(1.0), "NaN"), no);
        assert_eq!(check(Value::Float(-0.0), "-0.0"), yes);
        assert_eq!(check(Value::Float(0.0), "-0.0"), no);
        assert_eq!(check(Value::Float(0.0), "0.0"), yes);
        assert_eq!(check(Value::Float(-0.0), "0.0"), no);
        for text in [
            "1.50", "1.5e0", "+1.5", "01.5", "1.5 ", "infinity", "abc", "",
        ] {
            assert_eq!(check(Value::Float(1.5), text), no, "{text}");
        }
        assert_eq!(check(Value::Float(1.0), "1"), no, "1.0 renders `1.0`");
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            123.456e200,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for f in specials {
            let text = format_float(f);
            // Parsing inverts the rendering off NaN, so the rendering is
            // injective there: one text, one float.
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                f.to_bits(),
                "{text}"
            );
            assert_eq!(check(Value::Float(f), &text), yes, "{text}");
            assert_eq!(check(Value::Float(f), "NaN"), no, "{text}");
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("i + 1").unwrap(), Value::Int(8));
        assert_eq!(run("i * 2 - 3").unwrap(), Value::Int(11));
        assert_eq!(run("i / 2").unwrap(), Value::Int(3)); // truncating
        assert_eq!(run("i % 4").unwrap(), Value::Int(3));
        assert_eq!(run("f * 2").unwrap(), Value::Float(5.0));
        assert_eq!(run("i + f").unwrap(), Value::Float(9.5));
        assert_eq!(run("-i").unwrap(), Value::Int(-7));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(run("i / 0").is_err());
        assert!(run("i % 0").is_err());
        assert!(run("f / 0.0").is_err());
    }

    #[test]
    fn null_propagation_in_arithmetic() {
        assert_eq!(run("n + 1").unwrap(), Value::Null);
        assert_eq!(run("-n").unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_and_three_valued_logic() {
        assert_eq!(run("i = 7").unwrap(), Value::Bool(true));
        assert_eq!(run("i <> 7").unwrap(), Value::Bool(false));
        assert_eq!(run("n = 1").unwrap(), Value::Null);
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE (Kleene).
        assert_eq!(run("n = 1 AND i = 0").unwrap(), Value::Bool(false));
        assert_eq!(run("n = 1 OR i = 7").unwrap(), Value::Bool(true));
        assert_eq!(run("n = 1 AND i = 7").unwrap(), Value::Null);
        assert_eq!(run("NOT (n = 1)").unwrap(), Value::Null);
    }

    #[test]
    fn between_and_in() {
        assert_eq!(run("i BETWEEN 5 AND 10").unwrap(), Value::Bool(true));
        assert_eq!(run("i NOT BETWEEN 5 AND 10").unwrap(), Value::Bool(false));
        assert_eq!(run("i BETWEEN 8 AND 10").unwrap(), Value::Bool(false));
        assert_eq!(run("i IN (1, 7, 9)").unwrap(), Value::Bool(true));
        assert_eq!(run("i NOT IN (1, 9)").unwrap(), Value::Bool(true));
        // Unknown from NULL list element when no match is found.
        assert_eq!(run("i IN (1, n)").unwrap(), Value::Null);
        assert_eq!(run("i IN (7, n)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null() {
        assert_eq!(run("n IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(run("i IS NULL").unwrap(), Value::Bool(false));
        assert_eq!(run("i IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_"));
        assert!(!like_match("hello", "x%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        // TPC-H Q14-style pattern.
        assert!(like_match("PROMO BURNISHED COPPER", "PROMO%"));
        assert_eq!(run("s LIKE 'h%o'").unwrap(), Value::Bool(true));
        assert_eq!(run("s NOT LIKE 'x%'").unwrap(), Value::Bool(true));
        assert_eq!(run("n IS NULL AND s LIKE '%'").unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            run("CASE WHEN i = 7 THEN 'seven' ELSE 'other' END").unwrap(),
            Value::Str("seven".into())
        );
        assert_eq!(
            run("CASE WHEN i = 8 THEN 'eight' END").unwrap(),
            Value::Null
        );
        // The paper's group-by rewrite shape (Listing 4).
        assert_eq!(
            run("CASE WHEN i = 7 THEN f ELSE 0 END").unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn substring_is_one_based() {
        assert_eq!(run("SUBSTRING(s, 1, 1)").unwrap(), Value::Str("h".into()));
        assert_eq!(run("SUBSTRING(s, 2, 3)").unwrap(), Value::Str("ell".into()));
        assert_eq!(run("SUBSTRING(s, 4)").unwrap(), Value::Str("lo".into()));
        // Out-of-range behaviour.
        assert_eq!(run("SUBSTRING(s, 10, 5)").unwrap(), Value::Str("".into()));
        assert_eq!(run("SUBSTRING(s, 0, 2)").unwrap(), Value::Str("h".into()));
        assert_eq!(run("SUBSTRING(s, -3, 5)").unwrap(), Value::Str("h".into()));
        assert!(run("SUBSTRING(s, 1, -1)").is_err());
    }

    #[test]
    fn string_functions_count_characters_not_bytes() {
        // é is two bytes, ☃ three: byte and character positions differ.
        assert_eq!(
            run("SUBSTRING('héllo☃', 2, 3)").unwrap(),
            Value::Str("éll".into())
        );
        assert_eq!(
            run("SUBSTRING('héllo☃', 6)").unwrap(),
            Value::Str("☃".into())
        );
        assert_eq!(
            run("SUBSTRING('héllo☃', 0, 3)").unwrap(),
            Value::Str("hé".into())
        );
        assert_eq!(
            run("SUBSTRING('héllo☃', -1, 4)").unwrap(),
            Value::Str("hé".into())
        );
        assert_eq!(run("SUBSTRING('☃', 2, 1)").unwrap(), Value::Str("".into()));
        assert_eq!(run("CHAR_LENGTH('héllo☃')").unwrap(), Value::Int(6));
        assert_eq!(run("'héllo☃' LIKE 'h_llo_'").unwrap(), Value::Bool(true));
        assert_eq!(run("'héllo☃' LIKE '%é%☃'").unwrap(), Value::Bool(true));
        assert!(like_match("é", "_"));
        assert!(!like_match("é", "__"));
        assert!(!like_match("é", "è")); // same lead byte, other tail
        assert!(like_match("aéb", "%éb"));
        assert!(!like_match("a☃", "%é"));
    }

    #[test]
    fn ascii_literals_are_flagged_at_bind_time() {
        let s = schema();
        let bind = |src: &str| Binder::new(&s).bind_expr(&parse_expr(src).unwrap());
        let flag = |src: &str| match bind(src).unwrap() {
            BoundExpr::Call { ascii_text, .. } => ascii_text,
            other => panic!("not a call: {other:?}"),
        };
        assert!(flag("SUBSTRING('10010110', i, 1)"));
        assert!(!flag("SUBSTRING('1001é110', i, 1)"));
        assert!(!flag("SUBSTRING(s, i, 1)")); // a column's text is not known
        assert!(!flag("UPPER('abc')"));
    }

    #[test]
    fn bloom_probe_expression_shape() {
        // The exact shape from paper Listing 1, small scale: bit array of
        // length 8, hash ((3*x + 1) % 11) % 8 + 1.
        let src = "SUBSTRING('10010110', ((3 * CAST(i AS INT) + 1) % 11) % 8 + 1, 1) = '1'";
        // i = 7 -> ((21+1)%11)%8 = 0 -> position 1 -> '1'.
        assert_eq!(run(src).unwrap(), Value::Bool(true));
    }

    #[test]
    fn probing_a_literal_in_place_agrees_with_the_copied_substring() {
        // `SUBSTRING('<literal>', <int arithmetic>, 1) <cmp> '<c>'` looks
        // at the byte where it lies; with the sides swapped — or any part
        // of the shape missing — the substring is copied into a `Value`
        // first. Both give the same answer: positions off either end,
        // NULL and overflowing positions, every comparison.
        let operands = [
            ("SUBSTRING('10010110', i % 8 + 1, 1)", "'1'"),
            ("SUBSTRING('10010110', i - 7, 1)", "'1'"),
            ("SUBSTRING('10010110', i - 8, 1)", "'1'"),
            ("SUBSTRING('10010110', i + 1, 1)", "'0'"),
            ("SUBSTRING('10010110', i + 2, 1)", "'0'"),
            ("SUBSTRING('10010110', CAST(i AS INT) * 1, 1)", "'0'"),
            ("SUBSTRING('10010110', n + 1, 1)", "'1'"),
            ("SUBSTRING('10010110', i / 2, 1)", "'2'"),
            ("SUBSTRING('', i, 1)", "'1'"),
            (
                "SUBSTRING('10010110', 0 - 9223372036854775807 - 1, 1)",
                "'1'",
            ),
            // Not the probe's shape: evaluated the general way.
            ("SUBSTRING('10010110', f * 2, 1)", "'1'"),
            ("SUBSTRING('10010110', i, 1)", "'10'"),
            ("SUBSTRING('10010110', i, 2)", "'1'"),
            ("SUBSTRING('1001é110', i, 1)", "'1'"),
        ];
        let ops = [
            ("=", "="),
            ("<>", "<>"),
            ("<", ">"),
            ("<=", ">="),
            (">", "<"),
            (">=", "<="),
        ];
        for (probe, other) in operands {
            for (op, mirrored) in ops {
                let in_place = run(&format!("{probe} {op} {other}")).unwrap();
                let copied = run(&format!("{other} {mirrored} {probe}")).unwrap();
                assert_eq!(in_place, copied, "{probe} {op} {other}");
            }
        }
        let answer = |src: &str| run(src).unwrap();
        assert_eq!(
            answer("SUBSTRING('10010110', i - 6, 1) = '1'"),
            Value::Bool(true)
        );
        assert_eq!(
            answer("SUBSTRING('10010110', i + 1, 1) = '1'"),
            Value::Bool(false)
        );
        assert_eq!(
            answer("SUBSTRING('10010110', i + 2, 1) = '0'"),
            Value::Bool(false)
        );
        assert_eq!(
            answer("SUBSTRING('10010110', i + 2, 1) < '0'"),
            Value::Bool(true)
        );
        assert_eq!(
            answer("SUBSTRING('10010110', i - 7, 1) < '0'"),
            Value::Bool(true)
        );
        assert_eq!(answer("SUBSTRING('10010110', n + 1, 1) = '1'"), Value::Null);
        // The position's errors surface through the probe as they do
        // through the call.
        for position in ["i / 0", "i % (i - 7)", "i * 9223372036854775807"] {
            let probe = format!("SUBSTRING('10010110', {position}, 1)");
            assert_eq!(
                run(&format!("{probe} = '1'")).unwrap_err().to_string(),
                run(&format!("'1' = {probe}")).unwrap_err().to_string()
            );
        }
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(run("UPPER(s)").unwrap(), Value::Str("HELLO".into()));
        assert_eq!(run("LOWER('ABC')").unwrap(), Value::Str("abc".into()));
        assert_eq!(run("CHAR_LENGTH(s)").unwrap(), Value::Int(5));
        assert_eq!(run("ABS(-3)").unwrap(), Value::Int(3));
        assert_eq!(run("ABS(0.0 - f)").unwrap(), Value::Float(2.5));
        assert_eq!(run("TRIM('  x ')").unwrap(), Value::Str("x".into()));
        assert!(run("SUBSTRING(n, 1, 1)").is_ok());
        assert_eq!(run("UPPER(n)").unwrap(), Value::Null);
    }

    #[test]
    fn date_comparisons() {
        assert_eq!(run("d < DATE '1995-01-01'").unwrap(), Value::Bool(true));
        assert_eq!(run("d >= DATE '1994-06-15'").unwrap(), Value::Bool(true));
        assert_eq!(run("d = '1994-06-15'").unwrap(), Value::Bool(true));
        assert_eq!(
            run("d BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'").unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn eval_predicate_null_fails_row() {
        let s = schema();
        let e = Binder::new(&s)
            .bind_expr(&parse_expr("n = 1").unwrap())
            .unwrap();
        assert!(!eval_predicate(&e, &row()).unwrap());
    }

    #[test]
    fn overflow_errors() {
        assert!(run(&format!("{} + 1", i64::MAX)).is_err());
        assert!(run(&format!("{} * 2", i64::MAX)).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `SUBSTRING` as it was: the string collected into a `Vec<char>`.
    fn substring_oracle(s: &str, start: i64, len: Option<i64>) -> String {
        let chars: Vec<char> = s.chars().collect();
        let n = chars.len() as i64;
        let (from, to) = match len {
            Some(l) => (start, start.saturating_add(l)),
            None => (start, n + 1),
        };
        let from = from.max(1);
        let to = to.clamp(1, n + 1);
        if from >= to {
            return String::new();
        }
        chars[(from - 1) as usize..(to - 1) as usize]
            .iter()
            .collect()
    }

    /// `LIKE` by its definition, over chars: `%` matches any run of
    /// characters, `_` exactly one, anything else itself.
    fn like_oracle(text: &str, pattern: &str) -> bool {
        fn go(t: &[char], p: &[char]) -> bool {
            match p.split_first() {
                None => t.is_empty(),
                Some(('%', rest)) => (0..=t.len()).any(|skip| go(&t[skip..], rest)),
                Some(('_', rest)) => !t.is_empty() && go(&t[1..], rest),
                Some((c, rest)) => t.first() == Some(c) && go(&t[1..], rest),
            }
        }
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        go(&t, &p)
    }

    fn arb_len() -> impl Strategy<Value = Option<i64>> {
        prop_oneof![Just(None), (0i64..12).prop_map(Some), Just(Some(i64::MAX)),]
    }

    proptest! {
        /// Slicing by walked character offsets — or by byte offsets when
        /// the text is ASCII — gives what indexing a `Vec<char>` gave.
        #[test]
        fn substring_matches_char_vector_oracle(
            s in "[abé☃𝄞]{0,10}",
            start in prop_oneof![-4i64..14, Just(i64::MIN), Just(i64::MAX)],
            len in arb_len(),
        ) {
            prop_assert_eq!(substring(&s, start, len, false), substring_oracle(&s, start, len));
            let ascii: String = s.chars().filter(char::is_ascii).collect();
            for flag in [false, true] {
                prop_assert_eq!(
                    substring(&ascii, start, len, flag),
                    substring_oracle(&ascii, start, len)
                );
            }
        }

        /// Matching UTF-8 bytes gives what the definition gives, wildcards
        /// next to multi-byte characters and literal `%`/`_` in the text
        /// included.
        #[test]
        fn like_matches_recursive_oracle(
            text in "[abé☃è%_]{0,8}",
            pattern in "[abé☃è%%__]{0,6}",
        ) {
            prop_assert_eq!(like_match(&text, &pattern), like_oracle(&text, &pattern));
        }
    }

    /// Text that itself holds `%` or `_` where the pattern has a wildcard.
    #[test]
    fn like_wildcards_are_never_literals() {
        for (text, pattern, want) in [
            ("100%", "%", true),
            ("%x", "%", true),
            ("100%", "100%", true),
            ("a_b", "a_b", true),
            ("axb", "a_b", true),
            ("%", "%%", true),
            ("%", "_", true),
            ("%%", "_", false),
            ("_a", "_", false),
        ] {
            assert_eq!(like_match(text, pattern), want, "{text:?} LIKE {pattern:?}");
            assert_eq!(
                like_oracle(text, pattern),
                want,
                "oracle: {text:?} LIKE {pattern:?}"
            );
        }
    }
}
