//! Calendar date arithmetic.
//!
//! TPC-H date columns (`o_orderdate`, `l_shipdate`, ...) are stored as the
//! number of days since the Unix epoch (1970-01-01) in a plain `i32`. This
//! module converts between that representation and `YYYY-MM-DD` text using
//! the proleptic Gregorian calendar. The algorithms are the well-known
//! branch-light civil-date conversions (Howard Hinnant's `days_from_civil`
//! and `civil_from_days`), valid far beyond the TPC-H range of 1992–1998.

/// A civil (year, month, day) triple. Months and days are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Civil {
    pub year: i32,
    pub month: u32,
    pub day: u32,
}

/// Days since 1970-01-01 for the given civil date.
///
/// ```
/// use pushdown_common::date::{days_from_civil, Civil};
/// assert_eq!(days_from_civil(Civil { year: 1970, month: 1, day: 1 }), 0);
/// assert_eq!(days_from_civil(Civil { year: 1992, month: 3, day: 1 }), 8095);
/// ```
pub fn days_from_civil(c: Civil) -> i32 {
    let y = if c.month <= 2 { c.year - 1 } else { c.year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = c.month as i64;
    let d = c.day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era * 146097 + doe - 719468) as i32
}

/// Civil date for the given number of days since 1970-01-01.
pub fn civil_from_days(days: i32) -> Civil {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    Civil {
        year: (if m <= 2 { y + 1 } else { y }) as i32,
        month: m,
        day: d,
    }
}

/// Whether `year` is a leap year in the Gregorian calendar.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Parse a `YYYY-MM-DD` string into days since the epoch.
///
/// Returns `None` for anything that is not a syntactically and calendrically
/// valid date (e.g. `1993-02-30`).
pub fn parse_date(s: &str) -> Option<i32> {
    let b = s.as_bytes();
    if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
        return None;
    }
    let num = |r: std::ops::Range<usize>| -> Option<u32> {
        let mut v: u32 = 0;
        for &c in &b[r] {
            if !c.is_ascii_digit() {
                return None;
            }
            v = v * 10 + (c - b'0') as u32;
        }
        Some(v)
    };
    let year = num(0..4)? as i32;
    let month = num(5..7)?;
    let day = num(8..10)?;
    if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
        return None;
    }
    Some(days_from_civil(Civil { year, month, day }))
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let mut out = String::with_capacity(10);
    write_date(&mut out, days);
    out
}

/// Append the [`format_date`] text to `out`.
pub fn write_date(out: &mut String, days: i32) {
    use std::fmt::Write as _;
    let c = civil_from_days(days);
    if (0..=9999).contains(&c.year) {
        // Four-digit years (all of TPC-H) skip the formatter.
        let (y, m, d) = (c.year as u32, c.month, c.day);
        let digit = |v: u32| (b'0' + (v % 10) as u8) as char;
        for ch in [
            digit(y / 1000),
            digit(y / 100),
            digit(y / 10),
            digit(y),
            '-',
            digit(m / 10),
            digit(m),
            '-',
            digit(d / 10),
            digit(d),
        ] {
            out.push(ch);
        }
    } else {
        write!(out, "{:04}-{:02}-{:02}", c.year, c.month, c.day)
            .expect("writing to a String cannot fail");
    }
}

/// Convenience: days since epoch for a (year, month, day) literal.
pub fn ymd(year: i32, month: u32, day: u32) -> i32 {
    days_from_civil(Civil { year, month, day })
}

/// Add a number of whole months to a date, clamping the day to the end of
/// the target month (SQL `date + interval 'n' month` semantics, which TPC-H
/// query predicates such as Q14's `+ interval '1' month` rely on).
pub fn add_months(days: i32, months: i32) -> i32 {
    let c = civil_from_days(days);
    let total = c.year * 12 + (c.month as i32 - 1) + months;
    let year = total.div_euclid(12);
    let month = (total.rem_euclid(12) + 1) as u32;
    let day = c.day.min(days_in_month(year, month));
    days_from_civil(Civil { year, month, day })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(ymd(1970, 1, 1), 0);
        assert_eq!(
            civil_from_days(0),
            Civil {
                year: 1970,
                month: 1,
                day: 1
            }
        );
    }

    #[test]
    fn round_trips_across_tpch_range() {
        // Every day from 1992-01-01 through 1998-12-31 (the TPC-H range).
        let start = ymd(1992, 1, 1);
        let end = ymd(1998, 12, 31);
        for d in start..=end {
            let c = civil_from_days(d);
            assert_eq!(days_from_civil(c), d);
        }
    }

    #[test]
    fn round_trips_text() {
        for s in [
            "1992-03-01",
            "1995-12-31",
            "1996-02-29",
            "2000-02-29",
            "1970-01-01",
        ] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s);
        }
    }

    #[test]
    fn rejects_invalid_dates() {
        for s in [
            "1993-02-29", // not a leap year
            "1900-02-29", // century rule
            "1992-13-01",
            "1992-00-10",
            "1992-01-32",
            "1992-1-01",
            "hello-wor",
            "19920301",
            "1992-03-01x",
            "",
        ] {
            assert_eq!(parse_date(s), None, "should reject {s:?}");
        }
    }

    #[test]
    fn accepts_gregorian_leap_rules() {
        assert!(is_leap_year(1992));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(1993));
    }

    #[test]
    fn known_anchors() {
        // Cross-checked against an external calendar.
        assert_eq!(ymd(1992, 3, 1), 8095);
        assert_eq!(ymd(1995, 1, 1), 9131);
        assert_eq!(ymd(1998, 12, 1), 10561);
    }

    #[test]
    fn ordering_matches_calendar() {
        assert!(ymd(1992, 3, 1) < ymd(1992, 6, 1));
        assert!(ymd(1992, 6, 1) < ymd(1993, 1, 1));
        assert!(ymd(1994, 12, 31) < ymd(1995, 1, 1));
    }

    #[test]
    fn add_months_clamps_day() {
        assert_eq!(format_date(add_months(ymd(1995, 1, 31), 1)), "1995-02-28");
        assert_eq!(format_date(add_months(ymd(1996, 1, 31), 1)), "1996-02-29");
        assert_eq!(format_date(add_months(ymd(1995, 9, 1), 1)), "1995-10-01");
        assert_eq!(format_date(add_months(ymd(1995, 12, 1), 1)), "1996-01-01");
        assert_eq!(format_date(add_months(ymd(1995, 3, 15), -1)), "1995-02-15");
        assert_eq!(format_date(add_months(ymd(1995, 1, 15), -1)), "1994-12-15");
    }

    #[test]
    fn negative_days_before_epoch() {
        assert_eq!(format_date(-1), "1969-12-31");
        assert_eq!(parse_date("1969-12-31"), Some(-1));
    }
}
