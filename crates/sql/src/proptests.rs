//! Crate-level property tests: randomly generated ASTs must round-trip
//! through `Display` + the parser, and evaluation must be deterministic.
//! (The Bloom-join and group-by rewrites depend on programmatically
//! generated SQL surviving the wire exactly.)

#![cfg(test)]

use crate::agg::AggFunc;
use crate::ast::{BinOp, Expr, Func, JoinClause, OrderBy, QuerySpec, SelectItem, SelectStmt, UnOp};
use crate::bind::{Binder, BoundExpr};
use crate::eval::{eval, eval_predicate};
use crate::parser::{parse_expr, parse_query};
use crate::vector::compile_predicate;
use proptest::prelude::*;
use pushdown_common::columnar::ColumnarBatch;
use pushdown_common::value::format_float;
use pushdown_common::{DataType, Row, Schema, Value};

/// Strategy for random literals (restricted to values whose SQL text
/// round-trips exactly: no NaN/inf, date range sane).
fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<i32>().prop_map(|i| Expr::int(i as i64)),
        (-1e6f64..1e6).prop_map(Expr::float),
        "[a-zA-Z0-9 ']{0,12}".prop_map(Expr::str),
        (0i32..20000).prop_map(Expr::date),
        Just(Expr::Literal(Value::Bool(true))),
        Just(Expr::Literal(Value::Null)),
    ]
}

fn arb_column() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::col("a")),
        Just(Expr::col("b")),
        Just(Expr::col("s")),
    ]
}

/// The six comparison operators.
fn arb_comparison() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
        Just(BinOp::Lt),
        Just(BinOp::LtEq),
        Just(BinOp::Gt),
        Just(BinOp::GtEq),
    ]
}

/// Random expression trees over a fixed schema (a: Int, b: Float, s: Str).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![arb_literal(), arb_column()];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            // Binary operators.
            (
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Mod),
                    arb_comparison(),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone()
            )
                .prop_map(|(l, op, r)| Expr::binary(l, op, r)),
            // Unary.
            (inner.clone(), prop_oneof![Just(UnOp::Not), Just(UnOp::Neg)]).prop_map(|(e, op)| {
                Expr::Unary {
                    op,
                    expr: Box::new(e),
                }
            }),
            // [NOT] BETWEEN / IN / IS NULL / LIKE.
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, negated)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated,
                }
            ),
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 1..3),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (inner.clone(), "[a-z%_']{0,6}", any::<bool>()).prop_map(|(e, pattern, negated)| {
                Expr::Like {
                    expr: Box::new(e),
                    pattern: Box::new(Expr::str(pattern)),
                    negated,
                }
            }),
            // CASE WHEN.
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::Case {
                branches: vec![(c, t)],
                else_expr: Some(Box::new(e)),
            }),
            // CAST and scalar functions.
            inner.clone().prop_map(|e| Expr::Cast {
                expr: Box::new(e),
                dtype: DataType::Str,
            }),
            (inner.clone(), 0i64..20).prop_map(|(e, start)| Expr::Call {
                func: Func::Substring,
                args: vec![e, Expr::int(start.max(1)), Expr::int(3)],
            }),
        ]
    })
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("s", DataType::Str),
    ])
}

/// Rows of `schema()`, any of whose values may be NULL.
fn arb_row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![
            Just(Value::Null),
            any::<i32>().prop_map(|i| Value::Int(i as i64))
        ],
        prop_oneof![Just(Value::Null), (-1e6f64..1e6).prop_map(Value::Float)],
        prop_oneof![Just(Value::Null), "[a-z]{0,4}".prop_map(Value::Str)],
    )
        .prop_map(|(a, b, s)| Row::new(vec![a, b, s]))
}

/// Identifiers safe to round-trip bare (no keywords, no quoting needed).
fn arb_ident() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("t".to_string()),
        Just("orders".to_string()),
        Just("customer".to_string()),
        Just("x_key".to_string()),
        Just("y_key".to_string()),
        Just("revenue".to_string()),
        Just("g1".to_string()),
        "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword", |s| Expr::is_not_keyword(s)),
    ]
}

fn arb_select_item() -> impl Strategy<Value = SelectItem> {
    let alias = prop_oneof![Just(None), arb_ident().prop_map(Some)];
    prop_oneof![
        (arb_ident(), alias.clone()).prop_map(|(c, alias)| SelectItem::Expr {
            expr: Expr::col(c),
            alias,
        }),
        (
            prop_oneof![
                Just(AggFunc::Sum),
                Just(AggFunc::Count),
                Just(AggFunc::Min),
                Just(AggFunc::Max),
                Just(AggFunc::Avg),
            ],
            prop_oneof![Just(None), arb_ident().prop_map(|c| Some(Expr::col(c)))],
            alias,
        )
            .prop_filter("COUNT is the only agg taking `*`", |(f, arg, _)| {
                arg.is_some() || *f == AggFunc::Count
            })
            .prop_map(|(func, arg, alias)| SelectItem::Agg { func, arg, alias }),
    ]
}

fn arb_join() -> impl Strategy<Value = JoinClause> {
    (
        arb_ident(),
        prop_oneof![Just(None), arb_ident().prop_map(Some)],
        arb_ident(),
        arb_ident(),
    )
        .prop_map(|(table, alias, left_col, right_col)| JoinClause {
            table,
            alias,
            left_col,
            right_col,
        })
}

/// Random client-dialect queries: multi-table FROM with equi-JOINs,
/// WHERE, GROUP BY, multi-key ORDER BY, LIMIT — every clause optional.
fn arb_query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        prop_oneof![
            Just(vec![SelectItem::Wildcard]),
            proptest::collection::vec(arb_select_item(), 1..4),
        ],
        arb_ident(),
        prop_oneof![Just(None), arb_ident().prop_map(Some)],
        proptest::collection::vec(arb_join(), 0..3),
        prop_oneof![Just(None), arb_expr().prop_map(Some)],
        proptest::collection::vec(arb_ident(), 0..3),
        proptest::collection::vec(
            (arb_ident(), any::<bool>()).prop_map(|(column, asc)| OrderBy { column, asc }),
            0..3,
        ),
        prop_oneof![Just(None), (0u64..1000).prop_map(Some)],
    )
        .prop_map(
            |(items, from, alias, joins, where_clause, group_by, order_by, limit)| QuerySpec {
                select: SelectStmt {
                    items,
                    alias,
                    where_clause,
                    limit,
                },
                from,
                joins,
                group_by,
                order_by,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(display(e)) == e` for arbitrary expression trees — the
    /// property the programmatic SQL generation (Bloom predicates,
    /// CASE-WHEN rewrites) depends on.
    #[test]
    fn display_parse_round_trip(e in arb_expr()) {
        let text = e.to_string();
        let reparsed = parse_expr(&text)
            .unwrap_or_else(|err| panic!("reparse failed for `{text}`: {err}"));
        prop_assert_eq!(reparsed, e, "text was `{}`", text);
    }

    /// Evaluation is deterministic and total modulo Eval errors: it never
    /// panics, and re-evaluating gives the same result.
    #[test]
    fn evaluation_is_deterministic(e in arb_expr(), a in any::<i32>(), b in -1e6f64..1e6) {
        let schema = schema();
        let Ok(bound) = Binder::new(&schema).bind_expr(&e) else {
            return Ok(()); // arity errors are fine
        };
        let row = Row::new(vec![
            Value::Int(a as i64),
            Value::Float(b),
            Value::Str("probe".into()),
        ]);
        let r1 = eval(&bound, &row);
        let r2 = eval(&bound, &row);
        match (r1, r2) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(x), Err(y)) => prop_assert_eq!(x.code(), y.code()),
            (x, y) => prop_assert!(false, "diverged: {x:?} vs {y:?}"),
        }
    }

    /// Term counts are stable under the display/parse round trip (the
    /// performance model charges by terms, so they must survive the wire).
    #[test]
    fn term_count_survives_round_trip(e in arb_expr()) {
        let text = e.to_string();
        if let Ok(reparsed) = parse_expr(&text) {
            prop_assert_eq!(reparsed.term_count(), e.term_count());
        }
    }

    /// The columns a bound expression's walk reaches are the columns its
    /// unbound form references, first sightings in the same order.
    #[test]
    fn bound_walk_reaches_the_referenced_columns(e in arb_expr()) {
        let schema = schema();
        let Ok(bound) = Binder::new(&schema).bind_expr(&e) else {
            return Ok(());
        };
        let mut names = Vec::new();
        e.referenced_columns(&mut names);
        let want: Vec<usize> = names.iter().map(|n| schema.resolve(n).unwrap()).collect();
        let mut got = Vec::new();
        bound.walk(&mut |b| {
            if let BoundExpr::Column(i, _) = b {
                if !got.contains(i) {
                    got.push(*i);
                }
            }
        });
        prop_assert_eq!(got, want);
    }

    /// `conjuncts` undoes `conjunction` for parts that are not ANDs,
    /// bound or not.
    #[test]
    fn conjuncts_undo_conjunction(
        parts in proptest::collection::vec(
            arb_expr().prop_filter("not an AND", |e| {
                !matches!(e, Expr::Binary { op: BinOp::And, .. })
            }),
            1..5,
        )
    ) {
        let whole = Expr::conjunction(parts.clone()).unwrap();
        prop_assert_eq!(whole.conjuncts(), parts.iter().collect::<Vec<_>>());
        let schema = schema();
        let binder = Binder::new(&schema);
        let bound_parts: Result<Vec<BoundExpr>, _> =
            parts.iter().map(|p| binder.bind_expr(p)).collect();
        if let (Ok(bound), Ok(bound_parts)) = (binder.bind_expr(&whole), bound_parts) {
            prop_assert_eq!(bound.conjuncts(), bound_parts.iter().collect::<Vec<_>>());
        }
    }

    /// `lit op col` is `col op.flipped() lit`: both normalise to one
    /// `column_vs_literal` and evaluate alike on every row, NULL included.
    #[test]
    fn flipped_comparison_evaluates_alike(
        lit in arb_literal(),
        col in arb_column(),
        op in arb_comparison(),
        row in arb_row(),
    ) {
        let (Expr::Column(c), Expr::Literal(v)) = (&col, &lit) else {
            unreachable!("arb_column and arb_literal give leaves");
        };
        let written = Expr::binary(lit.clone(), op, col.clone());
        let mirrored = Expr::binary(col.clone(), op.flipped(), lit.clone());
        prop_assert_eq!(written.column_vs_literal(), Some((c.as_str(), op.flipped(), v)));
        prop_assert_eq!(mirrored.column_vs_literal(), written.column_vs_literal());
        let schema = schema();
        let binder = Binder::new(&schema);
        let (written, mirrored) = (
            binder.bind_expr(&written).unwrap(),
            binder.bind_expr(&mirrored).unwrap(),
        );
        prop_assert_eq!(written.column_vs_literal(), mirrored.column_vs_literal());
        match (eval(&written, &row), eval(&mirrored, &row)) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(x), Err(y)) => prop_assert_eq!(x.code(), y.code()),
            (x, y) => prop_assert!(false, "diverged: {x:?} vs {y:?}"),
        }
    }

    /// `parse_query(display(q)) == q` for arbitrary client-dialect
    /// queries over the full grammar — multi-table FROM with equi-JOIN
    /// chains, WHERE, GROUP BY, multi-key ORDER BY and LIMIT.
    #[test]
    fn query_spec_round_trip(q in arb_query_spec()) {
        let text = q.to_string();
        let reparsed = parse_query(&text)
            .unwrap_or_else(|err| panic!("reparse failed for `{text}`: {err}"));
        prop_assert_eq!(reparsed, q, "text was `{}`", text);
    }
}

/// What the token soups are stirred from beside the keywords: every
/// operator and punctuation mark, literals well- and ill-formed
/// (out-of-range numbers, bad dates, unterminated quotes), function and
/// type names, a few identifiers and bytes no token starts with.
const SOUP: &str = "ASC DESC INT FLOAT STRING SUBSTRING CHAR_LENGTH BIT_AT LOWER SUM COUNT \
    AVG MIN MAX S3Object s a t.a \"q\" \" ' 'x' '' '1994-01-01' '1994-13-45' 0 1 -1 1.5 1e \
    1e999 9223372036854775808 -9223372036854775808 ( ) , * + - / % = != <> < <= > >= . ! -- ; é \0";

/// The soup's tokens: the dialect's keywords, then `SOUP`'s.
/// Floats of every kind the rendering treats apart: any bit pattern
/// (subnormals and NaN payloads included), ordinary values, and the
/// special ones by name.
fn arb_float() -> impl Strategy<Value = f64> {
    let specials = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        1e15,
        -1e15,
        f64::MAX,
    ];
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        -1e6f64..1e6,
        (0usize..specials.len()).prop_map(move |i| specials[i]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The `CAST(<FLOAT> AS STRING) = '<text>'` kernel answers what
    /// rendering the float and comparing the strings answers, NULL
    /// included, for texts that render some float, render another one,
    /// almost render one, or are noise.
    #[test]
    fn float_text_agrees_with_rendering(
        f in arb_float(),
        g in arb_float(),
        noise in "[0-9.eEnaNfi+]{0,8}",
        pick in 0usize..5,
        negate in any::<bool>(),
        null in any::<bool>(),
    ) {
        let text = match pick {
            0 => format_float(f),
            1 => format_float(g),
            2 => format!("{}0", format_float(g)),
            3 => format_float(g).to_lowercase(),
            _ if negate => format!("-{noise}"),
            _ => noise,
        };
        let schema = Schema::from_pairs(&[("f", DataType::Float)]);
        let cast = Expr::Cast {
            expr: Box::new(Expr::col("f")),
            dtype: DataType::Str,
        };
        let fused = Binder::new(&schema)
            .bind_expr(&Expr::eq(cast, Expr::str(text.clone())))
            .unwrap();
        prop_assert!(matches!(fused, BoundExpr::FloatText { .. }), "{fused:?}");
        let rendered = BoundExpr::Binary {
            left: Box::new(BoundExpr::Cast {
                expr: Box::new(BoundExpr::Column(0, DataType::Float)),
                dtype: DataType::Str,
            }),
            op: BinOp::Eq,
            right: Box::new(BoundExpr::Literal(Value::Str(text.clone()))),
        };
        let row = Row::new(vec![if null { Value::Null } else { Value::Float(f) }]);
        let (want, got) = (eval(&rendered, &row).unwrap(), eval(&fused, &row).unwrap());
        prop_assert!(
            matches!((&want, &got), (Value::Null, Value::Null))
                || matches!((&want, &got), (Value::Bool(a), Value::Bool(b)) if a == b),
            "{f:?} vs `{text}`: rendered {want:?}, kernel {got:?}"
        );
        prop_assert_eq!(
            eval_predicate(&rendered, &row).unwrap(),
            eval_predicate(&fused, &row).unwrap()
        );
        // The compiled kernel, over a column batch, answers the same.
        let compiled = compile_predicate(&fused).expect("the float-text test compiles");
        let batch = ColumnarBatch::from_rows(&schema, &[row]);
        let truth = match got {
            Value::Bool(b) => i8::from(b),
            _ => -1,
        };
        prop_assert_eq!(compiled.eval_tri(&batch), vec![truth]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A predicate that compiles answers, over a column batch, what the
    /// row evaluator answers on every row — TRUE, FALSE or NULL — and
    /// the evaluator never raises on it: what compiles cannot raise.
    #[test]
    fn compiled_predicates_answer_as_the_evaluator(
        e in arb_expr(),
        rows in proptest::collection::vec(arb_row(), 1..8),
    ) {
        let schema = schema();
        let Ok(bound) = Binder::new(&schema).bind_expr(&e) else {
            return Ok(());
        };
        let Some(compiled) = compile_predicate(&bound) else {
            return Ok(());
        };
        let batch = ColumnarBatch::from_rows(&schema, &rows);
        let want: Vec<i8> = rows
            .iter()
            .map(|r| match eval(&bound, r).unwrap() {
                Value::Bool(b) => i8::from(b),
                Value::Null => -1,
                other => panic!("{e}: a compiled predicate evaluated to {other:?}"),
            })
            .collect();
        prop_assert_eq!(compiled.eval_tri(&batch), want, "{}", e);
    }
}

fn soup_tokens() -> Vec<&'static str> {
    let extra = SOUP.split_whitespace();
    crate::lexer::KEYWORDS
        .iter()
        .copied()
        .chain(extra)
        .collect()
}

/// A soup of `picks` into the soup's tokens, joined by spaces or by
/// nothing, cut to at most 256 bytes (on a token boundary).
fn soup(picks: &[usize], spaced: bool) -> String {
    let (tokens, sep) = (soup_tokens(), if spaced { " " } else { "" });
    let mut text = String::new();
    for &i in picks {
        let token = tokens[i % tokens.len()];
        if text.len() + sep.len() + token.len() > 256 {
            break;
        }
        text.push_str(token);
        text.push_str(sep);
    }
    text
}

/// Every entry point over `text` returns `Ok` or `Err` — a typed error,
/// never a panic.
fn never_panics(text: &str) -> Result<(), TestCaseError> {
    let outcome = std::panic::catch_unwind(|| {
        let _ = crate::parser::parse_query(text);
        let _ = crate::parser::parse_select(text);
        let _ = crate::parser::parse_select_extended(text);
        let _ = parse_expr(text);
    });
    prop_assert!(outcome.is_ok(), "a parser panicked on {:?}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// SQL text the engine did not write never panics: arbitrary bytes
    /// (≤ 256, valid UTF-8 or not — an invalid sequence reaches the
    /// parser as replacement characters), printable ASCII, and soups of
    /// the dialect's own tokens, bare or behind a valid statement prefix.
    #[test]
    fn sql_text_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..257),
        ascii in "[ -~]{0,256}",
        picks in proptest::collection::vec(0usize..1024, 0..64),
        spaced in any::<bool>(),
    ) {
        never_panics(&String::from_utf8_lossy(&bytes))?;
        never_panics(&ascii)?;
        let soup = soup(&picks, spaced);
        never_panics(&soup)?;
        never_panics(&format!("SELECT * FROM t WHERE {soup}"))?;
        never_panics(&format!("SELECT {soup} FROM S3Object"))?;
    }
}
