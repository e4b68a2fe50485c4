//! Crate-level property tests for the foundation types and the
//! performance model.

#![cfg(test)]

use crate::date;
use crate::perf::{PerfModel, PhaseStats};
use crate::pricing::{Pricing, Usage};
use crate::row::{BatchBuilder, Row, RowBatch};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use proptest::prelude::*;

proptest! {
    /// Civil↔days conversions are mutually inverse over ±8000 years.
    #[test]
    fn date_round_trips(days in -3_000_000i32..3_000_000) {
        let c = date::civil_from_days(days);
        prop_assert_eq!(date::days_from_civil(c), days);
        prop_assert!((1..=12).contains(&c.month));
        prop_assert!(c.day >= 1 && c.day <= date::days_in_month(c.year, c.month));
    }

    /// Text formatting round-trips for non-negative years.
    #[test]
    fn date_text_round_trips(days in 0i32..2_000_000) {
        let text = date::format_date(days);
        prop_assert_eq!(date::parse_date(&text), Some(days));
    }

    /// `add_months` keeps the day clamped and is monotone in months.
    #[test]
    fn add_months_is_monotone(days in 0i32..60_000, m1 in -48i32..48, m2 in -48i32..48) {
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        prop_assert!(date::add_months(days, lo) <= date::add_months(days, hi));
    }

    /// Phase time is monotone in every extensive input: more bytes, more
    /// requests, more CPU, or a heavier expression can never make a phase
    /// faster.
    #[test]
    fn phase_time_is_monotone(
        base_bytes in 0u64..10_000_000_000,
        extra in 0u64..10_000_000_000,
        requests in 0u64..100_000,
        terms in 0u32..500,
    ) {
        let m = PerfModel::default();
        let mk = |scanned, req, t| PhaseStats {
            requests: req,
            s3_scanned_bytes: scanned,
            select_returned_bytes: base_bytes / 10,
            plain_bytes: 0,
            server_cpu_units: 1000,
            expr_terms: t,
            ..Default::default()
        };
        let t0 = m.phase_seconds(&mk(base_bytes, requests, terms));
        prop_assert!(m.phase_seconds(&mk(base_bytes + extra, requests, terms)) >= t0);
        prop_assert!(m.phase_seconds(&mk(base_bytes, requests + 1, terms)) >= t0);
        prop_assert!(m.phase_seconds(&mk(base_bytes, requests, terms + 1)) >= t0);
    }

    /// Scaling by `f` then measuring equals at least `f/2` × the original
    /// byte-bound time for byte-dominated phases (linearity sanity; exact
    /// equality is broken only by the constant startup/latency terms).
    #[test]
    fn scaling_grows_time(bytes in 1_000_000u64..1_000_000_000, f in 2u32..100) {
        let m = PerfModel::default();
        let s = PhaseStats { plain_bytes: bytes, ..Default::default() };
        let t1 = m.phase_seconds(&s) - m.params.phase_startup;
        let t2 = m.phase_seconds(&s.scaled(f as f64)) - m.params.phase_startup;
        prop_assert!((t2 / t1 - f as f64).abs() < 1e-6);
    }

    /// Costs are non-negative, additive, and linear in usage.
    #[test]
    fn cost_is_linear(
        requests in 0u64..1_000_000,
        scanned in 0u64..100_000_000_000,
        returned in 0u64..10_000_000_000,
        runtime in 0f64..10_000.0,
    ) {
        let p = Pricing::us_east();
        let u = Usage {
            requests,
            select_scanned_bytes: scanned,
            select_returned_bytes: returned,
            plain_bytes: 0,
        };
        let c1 = p.cost(&u, runtime);
        prop_assert!(c1.total() >= 0.0);
        let c2 = p.cost(&(u + u), runtime * 2.0);
        prop_assert!((c2.total() - 2.0 * c1.total()).abs() < 1e-9 * (1.0 + c1.total()));
    }

    /// The SQL total order is antisymmetric and total over mixed values.
    #[test]
    fn total_cmp_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            // Hash consistency for equal values.
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let h = |v: &Value| {
                let mut s = DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            };
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// total_cmp is transitive (spot-checked on triples).
    #[test]
    fn total_cmp_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::*;
        let mut v = [a, b, c];
        v.sort_by(|x, y| x.total_cmp(y));
        prop_assert!(v[0].total_cmp(&v[1]) != Greater);
        prop_assert!(v[1].total_cmp(&v[2]) != Greater);
        prop_assert!(v[0].total_cmp(&v[2]) != Greater);
    }
}

fn batch_schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)])
}

fn arb_batch_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (any::<i64>(), "[a-z]{0,5}")
            .prop_map(|(k, s)| Row::new(vec![Value::Int(k), Value::Str(s)])),
        0..400,
    )
}

proptest! {
    /// Chunking never splits a row, never exceeds the capacity, fills
    /// every batch except possibly the last, and concatenating the
    /// batches reproduces the unbatched input exactly.
    #[test]
    fn row_batch_chunks_round_trip(rows in arb_batch_rows(), cap in 1usize..64) {
        let schema = batch_schema();
        let batches = RowBatch::chunks(&schema, rows.clone(), cap);
        for (i, b) in batches.iter().enumerate() {
            prop_assert!(!b.is_empty(), "batch {i} empty");
            prop_assert!(b.len() <= cap, "batch {i} overflows capacity");
            if i + 1 < batches.len() {
                prop_assert_eq!(b.len(), cap, "only the last batch may be partial");
            }
            prop_assert!(b.rows.iter().all(|r| r.len() == schema.len()));
        }
        prop_assert_eq!(RowBatch::concat(batches), rows);
    }

    /// The incremental builder and one-shot chunking agree batch-for-
    /// batch: pushing row-by-row is just a streamed `chunks`.
    #[test]
    fn batch_builder_equals_chunks(rows in arb_batch_rows(), cap in 1usize..64) {
        let schema = batch_schema();
        let mut built = Vec::new();
        let mut builder = BatchBuilder::new(schema.clone(), cap);
        prop_assert_eq!(builder.capacity(), cap);
        for r in rows.clone() {
            if let Some(full) = builder.push(r) {
                prop_assert_eq!(full.len(), cap, "emitted batches are exactly full");
                built.push(full);
            }
        }
        if let Some(tail) = builder.finish() {
            prop_assert!(!tail.is_empty() && tail.len() <= cap);
            built.push(tail);
        }
        let direct = RowBatch::chunks(&schema, rows, cap);
        prop_assert_eq!(built.len(), direct.len());
        for (a, b) in built.iter().zip(&direct) {
            prop_assert_eq!(&a.rows, &b.rows);
        }
    }

    /// A degenerate capacity of 1 yields one batch per row, in order.
    #[test]
    fn capacity_one_is_row_per_batch(rows in arb_batch_rows()) {
        let schema = batch_schema();
        let batches = RowBatch::chunks(&schema, rows.clone(), 1);
        prop_assert_eq!(batches.len(), rows.len());
        for (b, r) in batches.iter().zip(&rows) {
            prop_assert_eq!(b.rows.as_slice(), std::slice::from_ref(r));
        }
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::Str),
        any::<i32>().prop_map(Value::Date),
    ]
}

/// The CSV writer as it was before fields were rendered in place: one
/// `String` per field through the formatter, one per row. Kept as the
/// oracle the in-place writer must match byte for byte.
fn to_csv_line_oracle(row: &Row) -> String {
    let mut out = String::new();
    for (i, v) in row.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let field = match v {
            Value::Null => String::new(),
            Value::Bool(b) => if *b { "true" } else { "false" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) if f.is_nan() => "NaN".to_string(),
            Value::Float(f) if f.is_infinite() => if *f > 0.0 { "inf" } else { "-inf" }.to_string(),
            Value::Float(f) if *f == f.trunc() && f.abs() < 1e15 => format!("{f:.1}"),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => s.clone(),
            Value::Date(d) => {
                let c = date::civil_from_days(*d);
                format!("{:04}-{:02}-{:02}", c.year, c.month, c.day)
            }
        };
        if field.contains(',')
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
        {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(&field);
        }
    }
    // A lone empty field is quoted: a blank line is no record.
    if row.len() == 1 && out.is_empty() {
        out.push_str("\"\"");
    }
    out
}

/// Values that stress the renderers: float specials, integral floats on
/// both sides of the `.1` cutoff, dates outside four-digit years, NULL
/// beside the empty string, and strings that need quoting.
fn arb_csv_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Str(String::new())),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        (-1e16f64..1e16).prop_map(|f| Value::Float(f.trunc())),
        (-1e4f64..1e4).prop_map(|f| Value::Float((f * 100.0).round() / 100.0)),
        "[ -~\n\r\"é☃,]{0,12}".prop_map(Value::Str),
        (-4_000_000i32..4_000_000).prop_map(Value::Date),
        (8000i32..11000).prop_map(Value::Date),
    ]
}

proptest! {
    /// Rendering into the caller's buffer writes exactly the bytes the
    /// formatter-and-`String`-per-field writer wrote, after whatever the
    /// buffer already held.
    #[test]
    fn in_place_csv_writer_is_byte_identical(
        rows in proptest::collection::vec(proptest::collection::vec(arb_csv_value(), 0..8), 0..20)
    ) {
        let mut buf = String::from("header\n");
        let mut want = buf.clone();
        for values in rows {
            let row = Row::new(values);
            row.write_csv_line(&mut buf);
            buf.push('\n');
            want.push_str(&to_csv_line_oracle(&row));
            want.push('\n');
            prop_assert_eq!(row.to_csv_line(), to_csv_line_oracle(&row));
        }
        prop_assert_eq!(buf, want);
    }
}
