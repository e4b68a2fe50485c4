//! Aggregates and group-bys against an oracle that is not the engine.
//!
//! Random tables — INT, FLOAT, STR and DATE columns holding NULL, NaN,
//! `±0.0`, `''` and duplicates, in partitions of one to five rows, on CSV
//! and on ColumnarLite — answer random aggregate statements: scalar
//! aggregates (`SUM` / `AVG` over a DATE among them) and one- and
//! two-column `GROUP BY`s, with and without `ORDER BY … LIMIT`, and with
//! `LIMIT 0`, under WHEREs of AND / OR / NOT, ranges, `IN`, `LIKE` and
//! `IS NULL`. Every named candidate of every statement runs on one node
//! and on four, with no cache and with a warm one, and is held to the
//! answer computed here by plain iteration over the generated rows (no
//! engine code: the predicate is a tree of this file that renders its
//! own SQL and evaluates itself) — floats to 1e-6 —, to its bill
//! (`usage == billed`), and to every other candidate of the statement:
//! all of them return the same rows, bit for bit.

use pushdowndb::common::{DataType, Row, Schema, Value};
use pushdowndb::core::planner::{lower, run_candidate};
use pushdowndb::core::{upload_columnar_table, upload_csv_table, QueryContext, Table};
use pushdowndb::format::columnar::WriterOptions;
use pushdowndb::s3::S3Store;
use pushdowndb::sql::parse_query;
use std::cmp::Ordering;

/// Tables per storage format, and the statements asked of each.
const TABLES: u64 = 4;
const STATEMENTS: usize = 8;

/// A small deterministic generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

// Column positions: `s` STR, `n` INT, `f` FLOAT, `d` DATE.
const S: usize = 0;
const N: usize = 1;
const F: usize = 2;
const D: usize = 3;
const NAMES: [&str; 4] = ["s", "n", "f", "d"];
/// Day 10 957 is 2000-01-01.
const DAY0: i32 = 10_957;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("s", DataType::Str),
        ("n", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
    ])
}

/// One row: every column NULL now and then, `s` sometimes `''`, `f`
/// sometimes NaN or a signed zero, every column drawn from few values so
/// that groups and ties repeat.
fn row(rng: &mut Rng) -> Row {
    let null = |rng: &mut Rng| rng.below(6) == 0;
    let s = match rng.below(7) {
        0 => Value::Null,
        1 => Value::Str(String::new()),
        _ => Value::Str(rng.pick(&["a", "ab", "b", "ba"]).to_string()),
    };
    let n = if null(rng) {
        Value::Null
    } else {
        Value::Int(rng.below(9) as i64 - 3)
    };
    let f = match rng.below(14) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-0.0),
        3 => Value::Float(0.0),
        _ => Value::Float(*rng.pick(&[0.1, 0.2, 0.3, 0.7, -1.5, 2.7, 1e-3, 3.0])),
    };
    let d = if null(rng) {
        Value::Null
    } else {
        Value::Date(DAY0 + rng.below(6) as i32)
    };
    Row::new(vec![s, n, f, d])
}

/// A literal of column `c` as SQL text and as a value.
fn literal(rng: &mut Rng, c: usize) -> (String, Value) {
    match c {
        S => {
            let s = *rng.pick(&["a", "ab", "b", "c"]);
            (format!("'{s}'"), Value::Str(s.to_string()))
        }
        N => {
            let n = rng.below(9) as i64 - 4;
            (n.to_string(), Value::Int(n))
        }
        F => {
            let f = *rng.pick(&[0.0, 0.2, -1.0, 2.5]);
            (format!("{f:?}"), Value::Float(f))
        }
        _ => {
            let day = rng.below(6) as i32;
            (
                format!("DATE '2000-01-0{}'", day + 1),
                Value::Date(DAY0 + day),
            )
        }
    }
}

/// A WHERE clause: it renders its own SQL and evaluates itself, in SQL's
/// three-valued logic (`None` is unknown).
enum Pred {
    Cmp(usize, &'static str, String, Value),
    Between(usize, String, Value, String, Value),
    In(usize, Vec<(String, Value)>),
    Like(usize, &'static str),
    IsNull(usize, bool),
    Not(Box<Pred>),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
}

/// `a` compared with `b` as the dialect does: NULL and NaN compare with
/// nothing, `-0.0` equals `0.0`, numbers by value, the rest in kind.
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => None,
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Date(x), Value::Date(y)) => Some(x.cmp(y)),
        _ => number(a)?.partial_cmp(&number(b)?),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

impl Pred {
    fn random(rng: &mut Rng, depth: u32) -> Pred {
        let c = rng.below(4) as usize;
        match rng.below(if depth == 0 { 5 } else { 8 }) {
            0 => {
                let op = *rng.pick(&["<", "<=", ">", ">=", "=", "<>"]);
                let (text, v) = literal(rng, c);
                Pred::Cmp(c, op, text, v)
            }
            1 => {
                let c = *rng.pick(&[N, F, D]);
                let (a, b) = (literal(rng, c), literal(rng, c));
                Pred::Between(c, a.0, a.1, b.0, b.1)
            }
            2 => {
                let c = *rng.pick(&[S, N]);
                Pred::In(c, (0..1 + rng.below(3)).map(|_| literal(rng, c)).collect())
            }
            3 => {
                let pattern = *rng.pick(&["a%", "%b", "_a", "b%"]);
                Pred::Like(S, pattern)
            }
            4 => Pred::IsNull(c, rng.below(2) == 0),
            5 => Pred::Not(Box::new(Pred::random(rng, depth - 1))),
            6 => Pred::And(
                Box::new(Pred::random(rng, depth - 1)),
                Box::new(Pred::random(rng, depth - 1)),
            ),
            _ => Pred::Or(
                Box::new(Pred::random(rng, depth - 1)),
                Box::new(Pred::random(rng, depth - 1)),
            ),
        }
    }

    fn sql(&self) -> String {
        match self {
            Pred::Cmp(c, op, lit, _) => format!("{} {op} {lit}", NAMES[*c]),
            Pred::Between(c, a, _, b, _) => format!("{} BETWEEN {a} AND {b}", NAMES[*c]),
            Pred::In(c, list) => {
                let list: Vec<&str> = list.iter().map(|(t, _)| t.as_str()).collect();
                format!("{} IN ({})", NAMES[*c], list.join(", "))
            }
            Pred::Like(c, pattern) => format!("{} LIKE '{pattern}'", NAMES[*c]),
            Pred::IsNull(c, true) => format!("{} IS NOT NULL", NAMES[*c]),
            Pred::IsNull(c, false) => format!("{} IS NULL", NAMES[*c]),
            Pred::Not(p) => format!("NOT ({})", p.sql()),
            Pred::And(a, b) => format!("({}) AND ({})", a.sql(), b.sql()),
            Pred::Or(a, b) => format!("({}) OR ({})", a.sql(), b.sql()),
        }
    }

    fn eval(&self, r: &Row) -> Option<bool> {
        match self {
            Pred::Cmp(c, op, _, v) => {
                let o = compare(&r[*c], v)?;
                Some(match *op {
                    "<" => o == Ordering::Less,
                    "<=" => o != Ordering::Greater,
                    ">" => o == Ordering::Greater,
                    ">=" => o != Ordering::Less,
                    "=" => o == Ordering::Equal,
                    _ => o != Ordering::Equal,
                })
            }
            Pred::Between(c, _, a, _, b) => {
                let low = compare(&r[*c], a).map(|o| o != Ordering::Less);
                let high = compare(&r[*c], b).map(|o| o != Ordering::Greater);
                and(low, high)
            }
            Pred::In(c, list) => {
                let mut any = Some(false);
                for (_, v) in list {
                    any = or(any, compare(&r[*c], v).map(|o| o == Ordering::Equal));
                }
                any
            }
            Pred::Like(c, pattern) => match &r[*c] {
                Value::Str(s) => Some(like(s, pattern)),
                _ => None,
            },
            Pred::IsNull(c, negated) => Some(r[*c].is_null() != *negated),
            Pred::Not(p) => p.eval(r).map(|b| !b),
            Pred::And(a, b) => and(a.eval(r), b.eval(r)),
            Pred::Or(a, b) => or(a.eval(r), b.eval(r)),
        }
    }
}

fn and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// The patterns [`Pred::random`] writes: a prefix, a suffix, or one any
/// character then a fixed one.
fn like(s: &str, pattern: &str) -> bool {
    if let Some(prefix) = pattern.strip_suffix('%') {
        s.starts_with(prefix)
    } else if let Some(suffix) = pattern.strip_prefix('%') {
        s.ends_with(suffix)
    } else {
        let rest = &pattern[1..];
        s.chars().count() == 2 && s.chars().nth(1).map(String::from).as_deref() == Some(rest)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Func {
    Sum,
    Count,
    Avg,
    Min,
    Max,
}

/// One aggregate item: its function and argument column (`None`:
/// `COUNT(*)`).
type Agg = (Func, Option<usize>);

fn agg_sql((func, arg): &Agg) -> String {
    let name = match func {
        Func::Sum => "SUM",
        Func::Count => "COUNT",
        Func::Avg => "AVG",
        Func::Min => "MIN",
        Func::Max => "MAX",
    };
    format!("{name}({})", arg.map_or("*", |c| NAMES[c]))
}

/// `func` over the values of its argument in the rows of one group, in
/// table order, as SQL defines it: NULLs skipped, `COUNT` of none 0, the
/// rest NULL; a `SUM` of INTs an INT, of anything else (a DATE's day
/// numbers too) a FLOAT; `MIN` / `MAX` of the argument's own type, NaN
/// above every number and the first of equal values kept.
fn aggregate((func, arg): &Agg, rows: &[&Row]) -> Value {
    let Some(c) = arg else {
        return Value::Int(rows.len() as i64);
    };
    let values: Vec<&Value> = rows
        .iter()
        .map(|r| &r[*c])
        .filter(|v| !v.is_null())
        .collect();
    let as_f64 = |v: &Value| match v {
        Value::Date(d) => *d as f64,
        v => number(v).expect("a number"),
    };
    if *func == Func::Count {
        return Value::Int(values.len() as i64);
    }
    if values.is_empty() {
        return Value::Null;
    }
    match func {
        Func::Sum if *c == N => Value::Int(values.iter().map(|v| number(v).unwrap() as i64).sum()),
        Func::Sum => Value::Float(values.iter().map(|v| as_f64(v)).sum()),
        Func::Avg => {
            Value::Float(values.iter().map(|v| as_f64(v)).sum::<f64>() / values.len() as f64)
        }
        _ => {
            let best = values.iter().copied().reduce(|best, v| {
                // NaN ranks above every number; ties keep the first.
                let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
                let o = compare(v, best).unwrap_or_else(|| nan(v).cmp(&nan(best)));
                let better = match func {
                    Func::Min => o == Ordering::Less,
                    _ => o == Ordering::Greater,
                };
                if better {
                    v
                } else {
                    best
                }
            });
            best.expect("a value").clone()
        }
    }
}

/// The order groups come out in, and ORDER BY sorts by: NULL first,
/// then numbers (a FLOAT by its IEEE total order: `-0.0` before `0.0`,
/// NaN last), then strings.
fn total(a: &Value, b: &Value) -> Ordering {
    let class = |v: &Value| match v {
        Value::Null => 0,
        Value::Str(_) => 2,
        _ => 1,
    };
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        _ if class(a) == 1 && class(b) == 1 => {
            let f = |v: &Value| match v {
                Value::Date(d) => *d as f64,
                v => number(v).unwrap(),
            };
            f(a).total_cmp(&f(b))
        }
        _ => class(a).cmp(&class(b)),
    }
}

/// One statement: its grouping columns, aggregates, WHERE, ORDER BY
/// (output column, ascending) and LIMIT.
struct Statement {
    group_by: Vec<usize>,
    aggs: Vec<Agg>,
    predicate: Option<Pred>,
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
}

impl Statement {
    fn random(rng: &mut Rng) -> Statement {
        let group_by: Vec<usize> = match rng.below(5) {
            0 => Vec::new(),
            1 => vec![*rng.pick(&[S, N, F, D]), *rng.pick(&[S, N, D])],
            _ => vec![*rng.pick(&[S, N, F, D])],
        };
        let mut group_by = group_by;
        group_by.dedup();
        let choices: [Agg; 14] = [
            (Func::Count, None),
            (Func::Sum, Some(N)),
            (Func::Sum, Some(F)),
            (Func::Sum, Some(D)),
            (Func::Avg, Some(N)),
            (Func::Avg, Some(F)),
            (Func::Avg, Some(D)),
            (Func::Count, Some(F)),
            (Func::Min, Some(S)),
            (Func::Max, Some(N)),
            (Func::Min, Some(D)),
            (Func::Max, Some(S)),
            (Func::Min, Some(F)),
            (Func::Max, Some(F)),
        ];
        let mut aggs: Vec<Agg> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let a = *rng.pick(&choices);
            if !aggs.contains(&a) {
                aggs.push(a);
            }
        }
        let predicate = (rng.below(4) != 0).then(|| Pred::random(rng, 2));
        let width = group_by.len();
        let (mut order, mut limit) = (Vec::new(), None);
        if width > 0 {
            match rng.below(4) {
                // An aggregate that is no float, descending, then the
                // last key, descending: the group order is no help.
                0 => {
                    let exact = aggs.iter().position(|(f, c)| {
                        matches!(f, Func::Count) || matches!((f, c), (Func::Min | Func::Max, _))
                    });
                    if let Some(a) = exact {
                        order.push((width + a, false));
                    }
                    order.push((width - 1, false));
                    limit = Some(rng.below(4) as usize);
                }
                1 => limit = Some(rng.below(3) as usize),
                _ => {}
            }
        }
        Statement {
            group_by,
            aggs,
            predicate,
            order,
            limit,
        }
    }

    /// The statement's SQL, its outputs named `c0`, `c1`, … so that its
    /// ORDER BY can name them.
    fn sql(&self) -> String {
        let width = self.group_by.len();
        let mut items: Vec<String> = self
            .group_by
            .iter()
            .map(|&c| NAMES[c].to_string())
            .collect();
        for (i, a) in self.aggs.iter().enumerate() {
            items.push(format!("{} AS c{}", agg_sql(a), width + i));
        }
        let mut sql = format!("SELECT {} FROM t", items.join(", "));
        if let Some(p) = &self.predicate {
            sql += &format!(" WHERE {}", p.sql());
        }
        if width > 0 {
            let keys: Vec<&str> = self.group_by.iter().map(|&c| NAMES[c]).collect();
            sql += &format!(" GROUP BY {}", keys.join(", "));
        }
        if !self.order.is_empty() {
            let name = |i: usize| match i.checked_sub(width) {
                Some(_) => format!("c{i}"),
                None => NAMES[self.group_by[i]].to_string(),
            };
            let keys: Vec<String> = (self.order.iter())
                .map(|&(i, asc)| format!("{} {}", name(i), if asc { "ASC" } else { "DESC" }))
                .collect();
            sql += &format!(" ORDER BY {}", keys.join(", "));
        }
        if let Some(n) = self.limit {
            sql += &format!(" LIMIT {n}");
        }
        sql
    }

    /// The answer, by plain iteration over `rows` (`''` already NULL, as
    /// both formats store it).
    fn answer(&self, rows: &[Row]) -> Vec<Row> {
        let kept: Vec<&Row> = rows
            .iter()
            .filter(|r| {
                self.predicate
                    .as_ref()
                    .is_none_or(|p| p.eval(r) == Some(true))
            })
            .collect();
        let mut groups: Vec<(Vec<Value>, Vec<&Row>)> = Vec::new();
        if self.group_by.is_empty() {
            groups.push((Vec::new(), kept));
        } else {
            for r in kept {
                let key: Vec<Value> = self.group_by.iter().map(|&c| r[c].clone()).collect();
                let same = |k: &Vec<Value>| k.iter().zip(&key).all(|(a, b)| total(a, b).is_eq());
                match groups.iter_mut().find(|(k, _)| same(k)) {
                    Some((_, members)) => members.push(r),
                    None => groups.push((key, vec![r])),
                }
            }
        }
        let by_key = |a: &Vec<Value>, b: &Vec<Value>| {
            let o = a.iter().zip(b).map(|(x, y)| total(x, y));
            o.fold(Ordering::Equal, Ordering::then)
        };
        groups.sort_by(|a, b| by_key(&a.0, &b.0));
        let mut out: Vec<Row> = groups
            .into_iter()
            .map(|(mut key, members)| {
                key.extend(self.aggs.iter().map(|a| aggregate(a, &members)));
                Row::new(key)
            })
            .collect();
        out.sort_by(|a, b| {
            let keys = self.order.iter().map(|&(i, asc)| match asc {
                true => total(&a[i], &b[i]),
                false => total(&b[i], &a[i]),
            });
            keys.fold(Ordering::Equal, Ordering::then)
        });
        out.truncate(self.limit.unwrap_or(usize::MAX));
        out
    }
}

fn close(a: &[Row], b: &[Row]) -> bool {
    let same = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(p), Value::Float(q)) if p.is_nan() || q.is_nan() => p.is_nan() && q.is_nan(),
        (Value::Float(p), Value::Float(q)) => (p - q).abs() <= 1e-6 * (1.0 + p.abs().max(q.abs())),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.values().iter().zip(y.values()).all(|(p, q)| same(p, q))
        })
}

fn upload(store: &S3Store, columnar: bool, rows: &[Row], per_part: usize) -> Table {
    if columnar {
        let opts = WriterOptions {
            rows_per_group: 2,
            compress: false,
        };
        upload_columnar_table(store, "b", "t", &schema(), rows, per_part, opts)
    } else {
        upload_csv_table(store, "b", "t", &schema(), rows, per_part)
    }
    .unwrap()
}

#[test]
fn every_candidate_answers_as_the_oracle() {
    let mut runs = 0;
    for columnar in [false, true] {
        for seed in 0..TABLES {
            let mut rng = Rng(seed * 7919 + u64::from(columnar));
            let rows: Vec<Row> = (0..12 + rng.below(25)).map(|_| row(&mut rng)).collect();
            let per_part = 1 + rng.below(5) as usize;
            // Both formats read `''` back as NULL.
            let stored: Vec<Row> = rows
                .iter()
                .map(|r| {
                    let empty = |v: &Value| matches!(v, Value::Str(s) if s.is_empty());
                    Row::new(
                        r.values()
                            .iter()
                            .map(|v| if empty(v) { Value::Null } else { v.clone() })
                            .collect(),
                    )
                })
                .collect();
            let store = S3Store::new();
            let table = upload(&store, columnar, &rows, per_part);
            for _ in 0..STATEMENTS {
                let stmt = Statement::random(&mut rng);
                let sql = stmt.sql();
                let want = stmt.answer(&stored);
                let spec = parse_query(&sql).unwrap();
                // The first run's rows, as text (NaN is not equal to
                // itself), and what ran them.
                let mut first: Option<(String, String)> = None;
                for nodes in [None, Some(4)] {
                    for warm in [false, true] {
                        store.set_cache(None);
                        let mut ctx = QueryContext::new(store.clone());
                        ctx.scan_threads = 2;
                        if warm {
                            ctx = ctx.with_cache(1 << 20);
                        }
                        if let Some(n) = nodes {
                            ctx = ctx.with_nodes(n);
                        }
                        let (_, candidates) = lower(&ctx, &table, &spec).unwrap();
                        let names: Vec<&str> = candidates.iter().map(|(n, _)| *n).collect();
                        if warm {
                            run_candidate(&ctx, &table, &sql, "cached-local", None).unwrap();
                        }
                        for name in &names {
                            let what = format!(
                                "`{sql}` {name}, columnar {columnar}, {nodes:?} nodes, warm {warm}"
                            );
                            let out = run_candidate(&ctx, &table, &sql, name, None)
                                .unwrap_or_else(|e| panic!("{what}: {e}"));
                            assert!(
                                close(&out.rows, &want),
                                "{what}\n got {:?}\nwant {want:?}",
                                out.rows
                            );
                            assert_eq!(out.metrics.usage(), out.billed, "{what}: usage == bill");
                            let bits = format!("{:?}", out.rows);
                            match &first {
                                Some((want, by)) => assert_eq!(&bits, want, "{what} vs {by}"),
                                None => first = Some((bits, what)),
                            }
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(runs > 300, "{runs} runs");
}
