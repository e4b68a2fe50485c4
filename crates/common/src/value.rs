//! Dynamic values and data types.
//!
//! PushdownDB is a row-based engine (as the paper's testbed was), so a
//! dynamically typed [`Value`] flows through operators. The type lattice is
//! the small one S3 Select's CSV dialect effectively supports: integers,
//! floats, strings, dates, booleans, and NULL.

use crate::date;
use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};

/// Logical column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    /// Days since 1970-01-01 (see [`crate::date`]).
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A dynamically typed value.
///
/// Comparison follows SQL-ish semantics via [`Value::sql_cmp`] (NULLs are
/// incomparable) but a total order is also available via [`Value::total_cmp`]
/// for sorting, where NULL sorts first and floats use IEEE total ordering.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// The data type of this value, if it is not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean for predicate evaluation (three-valued logic:
    /// NULL maps to `None`).
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(Error::Eval(format!(
                "expected BOOL, found {}",
                other.type_name()
            ))),
        }
    }

    /// Numeric view as f64 (ints and dates widen; everything else errors).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Date(d) => Ok(*d as f64),
            other => Err(Error::Eval(format!(
                "expected numeric, found {}",
                other.type_name()
            ))),
        }
    }

    /// Integer view (floats must be integral).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Date(d) => Ok(*d as i64),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(Error::Eval(format!(
                "expected integer, found {}",
                other.type_name()
            ))),
        }
    }

    /// String view.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::Eval(format!(
                "expected STRING, found {}",
                other.type_name()
            ))),
        }
    }

    /// A short name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "STRING",
            Value::Date(_) => "DATE",
        }
    }

    /// SQL comparison: returns `None` if either side is NULL or the types
    /// are incomparable. Ints, floats and dates compare numerically;
    /// strings compare lexicographically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.as_str().cmp(b.as_str())),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            // Date/string comparison follows S3 Select's CSV behaviour where
            // dates are ISO strings: compare textually via the ISO form,
            // which orders identically to the numeric form.
            (Date(a), Str(b)) => Some(date::format_date(*a).as_str().cmp(b.as_str())),
            (Str(a), Date(b)) => Some(a.as_str().cmp(date::format_date(*b).as_str())),
            (a, b) => {
                let (x, y) = (a.as_f64().ok()?, b.as_f64().ok()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order for sorting: NULL first, then bools, then all numerics
    /// (ints/floats/dates unified, floats by IEEE total order), then strings.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn class(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) | Date(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) if class(a) == 2 && class(b) == 2 => {
                let x = a.as_f64().unwrap_or(f64::NAN);
                let y = b.as_f64().unwrap_or(f64::NAN);
                x.total_cmp(&y)
            }
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// SQL equality (NULL never equals anything).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Render in the CSV dialect used across the system (and by the
    /// simulated S3 Select service, which always returns CSV).
    pub fn to_csv_field(&self) -> String {
        let mut out = String::new();
        self.write_csv_field(&mut out);
        out
    }

    /// Append the [`Value::to_csv_field`] text to `out` — the CSV writers'
    /// form: no intermediate `String` per field. The text is raw; quoting
    /// is the row writer's job ([`crate::Row::write_csv_line`]).
    pub fn write_csv_field(&self, out: &mut String) {
        match self {
            Value::Null => {}
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write_int(out, *i),
            Value::Float(f) => write_float(out, *f),
            Value::Str(s) => out.push_str(s),
            Value::Date(d) => date::write_date(out, *d),
        }
    }

    /// Parse a CSV field as the given type. Empty text is NULL.
    pub fn parse_typed(text: &str, dt: DataType) -> Result<Value> {
        if text.is_empty() {
            return Ok(Value::Null);
        }
        Ok(match dt {
            DataType::Bool => Value::Bool(parse_bool(text)?),
            DataType::Int => Value::Int(parse_int(text)?),
            DataType::Float => Value::Float(parse_float(text)?),
            DataType::Str => Value::Str(text.to_string()),
            DataType::Date => Value::Date(parse_date(text)?),
        })
    }

    /// Cast to the requested type, following the lenient rules S3 Select's
    /// `CAST` exposes over CSV data (strings parse, numerics convert).
    pub fn cast(&self, dt: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        if self.data_type() == Some(dt) {
            return Ok(self.clone());
        }
        match (self, dt) {
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Int) => Ok(Value::Int(*f as i64)),
            (Value::Int(i), DataType::Bool) => Ok(Value::Bool(*i != 0)),
            (Value::Bool(b), DataType::Int) => Ok(Value::Int(*b as i64)),
            (Value::Date(d), DataType::Int) => Ok(Value::Int(*d as i64)),
            (Value::Int(i), DataType::Date) => Ok(Value::Date(*i as i32)),
            (Value::Str(s), _) => Value::parse_typed(s.trim(), dt)
                .map_err(|_| Error::Eval(format!("cannot CAST {s:?} to {dt}"))),
            (v, DataType::Str) => Ok(Value::Str(v.to_csv_field())),
            (v, _) => Err(Error::Eval(format!(
                "cannot CAST {} to {dt}",
                v.type_name()
            ))),
        }
    }
}

// A non-empty CSV field of each type, as [`Value::parse_typed`] reads it
// (a column builder parses straight into its vector with these).

pub(crate) fn parse_bool(text: &str) -> Result<bool> {
    match text {
        "true" | "TRUE" | "True" => Ok(true),
        "false" | "FALSE" | "False" => Ok(false),
        _ => Err(Error::Corrupt(format!("bad bool literal {text:?}"))),
    }
}

pub(crate) fn parse_int(text: &str) -> Result<i64> {
    text.parse()
        .map_err(|_| Error::Corrupt(format!("bad int literal {text:?}")))
}

pub(crate) fn parse_float(text: &str) -> Result<f64> {
    text.parse()
        .map_err(|_| Error::Corrupt(format!("bad float literal {text:?}")))
}

pub(crate) fn parse_date(text: &str) -> Result<i32> {
    date::parse_date(text).ok_or_else(|| Error::Corrupt(format!("bad date literal {text:?}")))
}

/// Equality for use in hash tables (join keys, group keys): delegates to the
/// total order so `NaN == NaN` and `Int(1) == Float(1.0)` group together.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int/Float/Date hash through their f64 image so that values the
            // total order considers equal hash identically.
            Value::Int(_) | Value::Float(_) | Value::Date(_) => {
                2u8.hash(state);
                let f = self.as_f64().unwrap_or(f64::NAN);
                // Normalize -0.0 to 0.0 so they land in the same bucket as
                // their total_cmp class... total_cmp distinguishes them, but
                // equal ints always hash consistently which is what we need.
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Str(s) => write!(f, "{s}"),
            other => f.write_str(&other.to_csv_field()),
        }
    }
}

/// Format a float the way the engine's CSV dialect expects: shortest
/// representation that round-trips, with a trailing `.0` for integral values
/// so the type remains recognizable.
pub fn format_float(f: f64) -> String {
    let mut out = String::new();
    write_float(&mut out, f);
    out
}

/// Append the [`format_float`] text to `out`.
pub fn write_float(out: &mut String, f: f64) {
    if f.is_nan() {
        out.push_str("NaN");
    } else if f.is_infinite() {
        out.push_str(if f > 0.0 { "inf" } else { "-inf" });
    } else if f == f.trunc() && f.abs() < 1e15 {
        // What `{f:.1}` prints, without the formatter: an integer that
        // fits u64, then `.0`.
        if f.is_sign_negative() {
            out.push('-');
        }
        write_u64(out, f.abs() as u64);
        out.push_str(".0");
    } else {
        write!(out, "{f}").expect("writing to a String cannot fail");
    }
}

/// Append `i` in decimal (what `{i}` prints, without the formatter).
pub fn write_int(out: &mut String, i: i64) {
    if i < 0 {
        out.push('-');
    }
    write_u64(out, i.unsigned_abs());
}

fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_each_type() {
        let cases = [
            (Value::Int(42), DataType::Int),
            (Value::Int(-7), DataType::Int),
            (Value::Float(3.25), DataType::Float),
            (Value::Float(-0.0001), DataType::Float),
            (Value::Str("hello world".into()), DataType::Str),
            (Value::Bool(true), DataType::Bool),
            (Value::Date(8095), DataType::Date),
            (Value::Null, DataType::Int),
        ];
        for (v, dt) in cases {
            let text = v.to_csv_field();
            let back = Value::parse_typed(&text, dt).unwrap();
            assert_eq!(v, back, "round-trip {v:?} via {text:?}");
        }
    }

    #[test]
    fn sql_cmp_nulls_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numerics() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Float(2.0).sql_eq(&Value::Int(2)), Some(true));
    }

    #[test]
    fn date_vs_string_comparison() {
        let d = Value::Date(date::parse_date("1994-01-01").unwrap());
        assert_eq!(
            d.sql_cmp(&Value::Str("1995-01-01".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Str("1994-01-01".into()).sql_eq(&d), Some(true));
    }

    #[test]
    fn total_order_sorts_nulls_first() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Float(-1.5),
        ];
        vals.sort_by(Value::total_cmp);
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Float(-1.5));
        assert_eq!(vals[2], Value::Int(5));
        assert_eq!(vals[3], Value::Str("a".into()));
    }

    #[test]
    fn hash_consistent_with_eq_for_numerics() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Str("12".into()).cast(DataType::Int).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            Value::Int(3).cast(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.9).cast(DataType::Int).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::Str("1994-01-01".into())
                .cast(DataType::Date)
                .unwrap(),
            Value::Date(date::ymd(1994, 1, 1))
        );
        assert!(Value::Str("xyz".into()).cast(DataType::Int).is_err());
        assert_eq!(Value::Null.cast(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(-2.0), "-2.0");
        assert_eq!(format_float(0.25), "0.25");
        assert_eq!(format_float(1234.5678), "1234.5678");
        // Round-trips.
        for f in [0.1, -1e-9, 123456.789, 2.0_f64.powi(53)] {
            let s = format_float(f);
            assert_eq!(s.parse::<f64>().unwrap(), f);
        }
    }

    #[test]
    fn in_place_renderers_match_the_formatter() {
        for i in [0, 1, -1, 9, 10, 99, 100, -4096, i64::MAX, i64::MIN] {
            let mut out = String::from("x");
            write_int(&mut out, i);
            assert_eq!(out, format!("x{i}"));
        }
        let floats: [f64; 7] = [0.0, -0.0, 1.0, -2.0, 17.0, 1e14, -999_999_999_999_999.0];
        for f in floats {
            assert!(f == f.trunc() && f.abs() < 1e15);
            assert_eq!(format_float(f), format!("{f:.1}"), "{f:?}");
        }
        for f in [0.25_f64, -1e-9, 1e15, -1e15, 1e300, 2.0_f64.powi(53) + 2.0] {
            assert_eq!(format_float(f), format!("{f}"), "{f:?}");
        }
        assert_eq!(format_float(f64::NAN), "NaN");
        assert_eq!(format_float(f64::NEG_INFINITY), "-inf");
    }

    #[test]
    fn as_bool_rejects_non_bools() {
        assert!(Value::Int(1).as_bool().is_err());
        assert_eq!(Value::Null.as_bool().unwrap(), None);
        assert_eq!(Value::Bool(true).as_bool().unwrap(), Some(true));
    }
}
