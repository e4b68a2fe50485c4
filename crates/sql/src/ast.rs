//! Abstract syntax tree for the S3 Select dialect.
//!
//! The `Display` implementations regenerate valid SQL text: PushdownDB
//! builds S3 Select requests *programmatically* (Bloom predicates, CASE
//! WHEN group-by rewrites, threshold scans), renders them to text, checks
//! the service's 256 KB limit, and ships them. Round-tripping through
//! `Display` + the parser is property-tested.

use pushdown_common::{DataType, Value};
use std::fmt;

/// Scalar functions of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `SUBSTRING(str, start [, len])`, 1-based start — the workhorse of
    /// the Bloom-join encoding (paper §V-A2).
    Substring,
    Lower,
    Upper,
    /// `ABS(x)`
    Abs,
    /// `CHAR_LENGTH(str)`
    CharLength,
    /// `TRIM(str)` (both sides)
    Trim,
    /// **Extension** (paper §X, Suggestion 3): `BIT_AT(hex, pos)` tests
    /// the 1-based bit `pos` of a hex-encoded bit array, returning 0/1.
    /// AWS S3 Select has no bitwise operators, forcing Bloom filters to
    /// be shipped as `'0'/'1'` strings; this models the paper's proposed
    /// fix (4 bits per character instead of 1).
    BitAt,
}

impl Func {
    pub fn name(&self) -> &'static str {
        match self {
            Func::Substring => "SUBSTRING",
            Func::Lower => "LOWER",
            Func::Upper => "UPPER",
            Func::Abs => "ABS",
            Func::CharLength => "CHAR_LENGTH",
            Func::Trim => "TRIM",
            Func::BitAt => "BIT_AT",
        }
    }

    pub fn from_name(name: &str) -> Option<Func> {
        match name.to_ascii_uppercase().as_str() {
            "SUBSTRING" => Some(Func::Substring),
            "LOWER" => Some(Func::Lower),
            "UPPER" => Some(Func::Upper),
            "ABS" => Some(Func::Abs),
            "CHAR_LENGTH" | "LENGTH" => Some(Func::CharLength),
            "TRIM" => Some(Func::Trim),
            "BIT_AT" => Some(Func::BitAt),
            _ => None,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// Binding power for `Display` parenthesization and the parser's
    /// precedence climbing. Higher binds tighter.
    pub fn precedence(&self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }

    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// True for operators that compute a number.
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }

    /// The comparison that holds with its operands swapped: `a < b` is
    /// `b > a`. `=` and `<>` are symmetric; a non-comparison comes back
    /// as it is.
    pub fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// An (unbound) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value (`42`, `1.5`, `'text'`, `NULL`, `TRUE`,
    /// `DATE '1994-01-01'`).
    Literal(Value),
    /// A column reference (possibly qualified, e.g. `s.c_acctbal`; the
    /// qualifier is dropped at parse time since there is only one table).
    Column(String),
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (pattern is `%`/`_` SQL syntax).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Searched case: `CASE WHEN c1 THEN v1 ... [ELSE e] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS TYPE)`
    Cast {
        expr: Box<Expr>,
        dtype: DataType,
    },
    /// Scalar function call.
    Call {
        func: Func,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn int(i: i64) -> Expr {
        Expr::Literal(Value::Int(i))
    }

    pub fn float(f: f64) -> Expr {
        Expr::Literal(Value::Float(f))
    }

    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Literal(Value::Str(s.into()))
    }

    pub fn date(days: i32) -> Expr {
        Expr::Literal(Value::Date(days))
    }

    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::And, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::Or, right)
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::Eq, right)
    }

    pub fn lt_eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::LtEq, right)
    }

    pub fn lt(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::Lt, right)
    }

    pub fn gt_eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::GtEq, right)
    }

    /// AND together a list of predicates (`true` for the empty list is
    /// represented as no predicate: returns `None`).
    pub fn conjunction(preds: Vec<Expr>) -> Option<Expr> {
        preds.into_iter().reduce(Expr::and)
    }

    /// The direct subexpressions, in written order (a CASE gives each
    /// branch's condition, then its value, and the ELSE last).
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Literal(_) | Expr::Column(_) => Vec::new(),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                vec![expr]
            }
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Like { expr, pattern, .. } => vec![expr, pattern],
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Expr::Case {
                branches,
                else_expr,
            } => branches
                .iter()
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref())
                .collect(),
            Expr::Call { args, .. } => args.iter().collect(),
        }
    }

    /// [`Expr::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Expr::Literal(_) | Expr::Column(_) => Vec::new(),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                vec![expr]
            }
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Like { expr, pattern, .. } => vec![expr, pattern],
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::InList { expr, list, .. } => std::iter::once(&mut **expr).chain(list).collect(),
            Expr::Case {
                branches,
                else_expr,
            } => branches
                .iter_mut()
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref_mut())
                .collect(),
            Expr::Call { args, .. } => args.iter_mut().collect(),
        }
    }

    /// Call `f` on this expression and every subexpression, pre-order,
    /// children in written order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// [`Expr::walk`], mutably: `f` sees a node before its children.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        for c in self.children_mut() {
            c.walk_mut(f);
        }
    }

    /// The operands of this expression's AND chain, left to right; the
    /// expression itself when it is not an AND.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// A comparison of a column with a literal as `(column, op, literal)`,
    /// the column first: `5 < c` is `(c, >, 5)`. `None` for any other
    /// shape.
    pub fn column_vs_literal(&self) -> Option<(&str, BinOp, &Value)> {
        let Expr::Binary { left, op, right } = self else {
            return None;
        };
        match (&**left, &**right) {
            _ if !op.is_comparison() => None,
            (Expr::Column(c), Expr::Literal(v)) => Some((c, *op, v)),
            (Expr::Literal(v), Expr::Column(c)) => Some((c, op.flipped(), v)),
            _ => None,
        }
    }

    /// Number of "terms" — the expression-complexity metric the
    /// performance model charges the storage-side scan for (comparisons,
    /// arithmetic nodes, LIKEs, CASE arms; see `PerfParams::expr_term_coeff`).
    pub fn term_count(&self) -> u32 {
        let own = match self {
            Expr::Literal(_) | Expr::Column(_) | Expr::Unary { .. } | Expr::Cast { .. } => 0,
            Expr::Binary {
                op: BinOp::And | BinOp::Or,
                ..
            } => 0,
            Expr::Binary { .. } | Expr::IsNull { .. } | Expr::Like { .. } | Expr::Call { .. } => 1,
            Expr::Between { .. } => 2,
            Expr::InList { list, .. } => list.len() as u32,
            // A CASE arm costs one dispatch plus its value expression; the
            // condition is short-circuited against the (single) matching
            // group and is deliberately not charged per-term — calibrated
            // against the paper's Fig 5 / Fig 10 S3-side group-by numbers.
            Expr::Case {
                branches,
                else_expr,
            } => {
                let values = branches.iter().map(|(_, v)| v).chain(else_expr.as_deref());
                return branches.len() as u32 + values.map(Expr::term_count).sum::<u32>();
            }
        };
        let children: u32 = self.children().into_iter().map(Expr::term_count).sum();
        own + children
    }

    /// Collect the names of every referenced column, each once (names
    /// compare case-insensitively), in pre-order.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        self.walk(&mut |e| {
            if let Expr::Column(name) = e {
                if !out.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
        });
    }
}

fn fmt_literal(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Null => f.write_str("NULL"),
        Value::Bool(true) => f.write_str("TRUE"),
        Value::Bool(false) => f.write_str("FALSE"),
        Value::Int(i) => write!(f, "{i}"),
        Value::Float(x) => write!(f, "{}", pushdown_common::value::format_float(*x)),
        Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        Value::Date(d) => write!(f, "DATE '{}'", pushdown_common::date::format_date(*d)),
    }
}

/// Quote an identifier if it would not re-lex as a bare identifier.
fn fmt_ident(name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let bare = !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && Expr::is_not_keyword(name);
    if bare {
        f.write_str(name)
    } else {
        write!(f, "\"{name}\"")
    }
}

impl Expr {
    pub(crate) fn is_not_keyword(name: &str) -> bool {
        let upper = name.to_ascii_uppercase();
        ![
            "SELECT", "FROM", "WHERE", "LIMIT", "AS", "AND", "OR", "NOT", "NULL", "TRUE", "FALSE",
            "IS", "IN", "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "DATE",
            "GROUP", "ORDER", "BY", "ESCAPE", "JOIN", "ON", "INNER",
        ]
        .contains(&upper.as_str())
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Literal(v) => fmt_literal(v, f),
            Expr::Column(name) => fmt_ident(name, f),
            Expr::Unary { op, expr } => match op {
                // `--` opens a comment and `-5` parses as the literal −5,
                // so a negated number or negation is parenthesized.
                UnOp::Neg => match &**expr {
                    Expr::Literal(Value::Int(_) | Value::Float(_))
                    | Expr::Unary { op: UnOp::Neg, .. } => write!(f, "-({expr})"),
                    _ => {
                        f.write_str("-")?;
                        expr.fmt_prec(f, 7)
                    }
                },
                // NOT binds looser than comparisons/predicates, so it needs
                // parentheses inside any tighter context, and its operand
                // needs them when it is an AND/OR chain.
                UnOp::Not => {
                    let need_parens = parent_prec > 3;
                    if need_parens {
                        f.write_str("(")?;
                    }
                    f.write_str("NOT ")?;
                    expr.fmt_prec(f, 4)?;
                    if need_parens {
                        f.write_str(")")?;
                    }
                    Ok(())
                }
            },
            Expr::Binary { left, op, right } => {
                let prec = op.precedence();
                let need_parens = prec < parent_prec;
                if need_parens {
                    f.write_str("(")?;
                }
                // Comparisons do not chain (`a = b = c` is a parse error),
                // so both operands need a tighter context; arithmetic and
                // AND/OR are left-associative and only tighten the right.
                let left_prec = if op.is_comparison() { prec + 1 } else { prec };
                left.fmt_prec(f, left_prec)?;
                write!(f, " {} ", op.symbol())?;
                right.fmt_prec(f, prec + 1)?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let need_parens = 3 < parent_prec;
                if need_parens {
                    f.write_str("(")?;
                }
                expr.fmt_prec(f, 5)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                f.write_str(" BETWEEN ")?;
                low.fmt_prec(f, 5)?;
                f.write_str(" AND ")?;
                high.fmt_prec(f, 5)?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let need_parens = 3 < parent_prec;
                if need_parens {
                    f.write_str("(")?;
                }
                expr.fmt_prec(f, 5)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                f.write_str(" IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    e.fmt_prec(f, 0)?;
                }
                f.write_str(")")?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::IsNull { expr, negated } => {
                let need_parens = 3 < parent_prec;
                if need_parens {
                    f.write_str("(")?;
                }
                expr.fmt_prec(f, 5)?;
                f.write_str(if *negated { " IS NOT NULL" } else { " IS NULL" })?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let need_parens = 3 < parent_prec;
                if need_parens {
                    f.write_str("(")?;
                }
                expr.fmt_prec(f, 5)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                f.write_str(" LIKE ")?;
                pattern.fmt_prec(f, 5)?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                for (cond, val) in branches {
                    f.write_str(" WHEN ")?;
                    cond.fmt_prec(f, 0)?;
                    f.write_str(" THEN ")?;
                    val.fmt_prec(f, 0)?;
                }
                if let Some(e) = else_expr {
                    f.write_str(" ELSE ")?;
                    e.fmt_prec(f, 0)?;
                }
                f.write_str(" END")
            }
            Expr::Cast { expr, dtype } => {
                f.write_str("CAST(")?;
                expr.fmt_prec(f, 0)?;
                write!(f, " AS {dtype})")
            }
            Expr::Call { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// One item of a SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A scalar expression with optional alias.
    Expr { expr: Expr, alias: Option<String> },
    /// An aggregate call: `SUM(expr)`, `COUNT(*)`, ... (`arg` is `None`
    /// for `COUNT(*)`).
    Agg {
        func: crate::agg::AggFunc,
        arg: Option<Expr>,
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    f.write_str(" AS ")?;
                    fmt_ident(a, f)?;
                }
                Ok(())
            }
            SelectItem::Agg { func, arg, alias } => {
                write!(f, "{}(", func.name())?;
                match arg {
                    Some(e) => write!(f, "{e}")?,
                    None => f.write_str("*")?,
                }
                f.write_str(")")?;
                if let Some(a) = alias {
                    f.write_str(" AS ")?;
                    fmt_ident(a, f)?;
                }
                Ok(())
            }
        }
    }
}

/// A parsed `SELECT` statement in the S3 Select dialect:
/// `SELECT items FROM S3Object [alias] [WHERE pred] [LIMIT n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    /// Table alias, if any (`FROM S3Object s`).
    pub alias: Option<String>,
    pub where_clause: Option<Expr>,
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// `SELECT * FROM S3Object`
    pub fn star() -> SelectStmt {
        SelectStmt {
            items: vec![SelectItem::Wildcard],
            alias: None,
            where_clause: None,
            limit: None,
        }
    }

    /// Projection of named columns.
    pub fn project(columns: &[&str]) -> SelectStmt {
        SelectStmt {
            items: columns
                .iter()
                .map(|c| SelectItem::Expr {
                    expr: Expr::col(*c),
                    alias: None,
                })
                .collect(),
            alias: None,
            where_clause: None,
            limit: None,
        }
    }

    /// True if any projection item is an aggregate.
    pub fn is_aggregate(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, SelectItem::Agg { .. }))
    }

    /// Total term count of the statement (projection + predicate), the
    /// quantity the performance model charges scan slowdown for.
    pub fn term_count(&self) -> u32 {
        let proj: u32 = self
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Wildcard => 0,
                SelectItem::Expr { expr, .. } => expr.term_count(),
                SelectItem::Agg { arg, .. } => 1 + arg.as_ref().map_or(0, |e| e.term_count()),
            })
            .sum();
        proj + self.where_clause.as_ref().map_or(0, |w| w.term_count())
    }
}

/// One sort key of the *client* dialect (PushdownDB's own SQL front-end;
/// never shipped to S3, which has no ORDER BY). `column` may name a base
/// column, a projected column, or — over GROUP BY results — an
/// aggregate's output alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderBy {
    pub column: String,
    pub asc: bool,
}

/// One `JOIN table [alias] ON left = right` clause of the client
/// dialect. The ON condition is restricted to a two-column equi-join;
/// qualifiers on the key columns are dropped at parse time (column names
/// are resolved across the joined schemas by the binder, which rejects
/// ambiguity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinClause {
    pub table: String,
    pub alias: Option<String>,
    pub left_col: String,
    pub right_col: String,
}

/// A query in PushdownDB's *client* dialect (paper §III: the testbed has
/// "a minimal optimizer and an executor"): SELECT over one table or an
/// equi-join chain, with optional WHERE / GROUP BY / multi-key ORDER BY
/// / LIMIT. The planner (`pushdown-core::planner`) lowers this to a
/// physical-plan DAG over the §IV–§VII operators; only the
/// S3-Select-compatible fragments are ever shipped to storage.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub select: SelectStmt,
    /// Primary FROM table name (its optional alias lives on
    /// `select.alias`). The planner's single-table entry points ignore
    /// it, as the paper's testbed did; join tables resolve by name.
    pub from: String,
    /// `JOIN ... ON` clauses, in syntactic order (joined left-deep).
    pub joins: Vec<JoinClause>,
    pub group_by: Vec<String>,
    /// Sort keys, major first. Empty = no ORDER BY.
    pub order_by: Vec<OrderBy>,
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        for (i, item) in self.select.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        f.write_str(" FROM ")?;
        fmt_ident(&self.from, f)?;
        if let Some(a) = &self.select.alias {
            f.write_str(" ")?;
            fmt_ident(a, f)?;
        }
        for j in &self.joins {
            f.write_str(" JOIN ")?;
            fmt_ident(&j.table, f)?;
            if let Some(a) = &j.alias {
                f.write_str(" ")?;
                fmt_ident(a, f)?;
            }
            f.write_str(" ON ")?;
            fmt_ident(&j.left_col, f)?;
            f.write_str(" = ")?;
            fmt_ident(&j.right_col, f)?;
        }
        if let Some(w) = &self.select.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_ident(g, f)?;
            }
        }
        for (i, o) in self.order_by.iter().enumerate() {
            f.write_str(if i == 0 { " ORDER BY " } else { ", " })?;
            fmt_ident(&o.column, f)?;
            f.write_str(if o.asc { " ASC" } else { " DESC" })?;
        }
        if let Some(l) = self.select.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

/// **Extension** (paper §X, Suggestion 4): a SELECT with a *partial
/// group-by* clause, which AWS S3 Select does not support. The paper
/// proposes it as the fix for the CASE-WHEN workaround of §VI-A; the
/// simulated engine executes it only when explicitly enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendedSelect {
    pub select: SelectStmt,
    /// Grouping columns (plain column names; the select list must contain
    /// exactly these columns plus aggregates).
    pub group_by: Vec<String>,
}

impl fmt::Display for ExtendedSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // GROUP BY precedes LIMIT.
        let mut base = self.select.clone();
        let limit = base.limit.take();
        write!(f, "{base}")?;
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_ident(g, f)?;
            }
        }
        if let Some(l) = limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        f.write_str(" FROM S3Object")?;
        if let Some(a) = &self.alias {
            f.write_str(" ")?;
            fmt_ident(a, f)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;

    #[test]
    fn display_simple() {
        let s = SelectStmt {
            where_clause: Some(Expr::lt_eq(Expr::col("a"), Expr::int(10))),
            limit: Some(5),
            ..SelectStmt::project(&["a", "b"])
        };
        assert_eq!(
            s.to_string(),
            "SELECT a, b FROM S3Object WHERE a <= 10 LIMIT 5"
        );
    }

    #[test]
    fn display_parenthesizes_or_under_and() {
        let e = Expr::and(Expr::or(Expr::col("a"), Expr::col("b")), Expr::col("c"));
        assert_eq!(e.to_string(), "(a OR b) AND c");
    }

    #[test]
    fn display_arithmetic_precedence() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinOp::Add, Expr::col("b")),
            BinOp::Mul,
            Expr::col("c"),
        );
        assert_eq!(e.to_string(), "(a + b) * c");
        let e2 = Expr::binary(
            Expr::col("a"),
            BinOp::Add,
            Expr::binary(Expr::col("b"), BinOp::Mul, Expr::col("c")),
        );
        assert_eq!(e2.to_string(), "a + b * c");
    }

    #[test]
    fn display_case_when() {
        let e = Expr::Case {
            branches: vec![(Expr::eq(Expr::col("g"), Expr::int(0)), Expr::col("v"))],
            else_expr: Some(Box::new(Expr::int(0))),
        };
        assert_eq!(e.to_string(), "CASE WHEN g = 0 THEN v ELSE 0 END");
    }

    #[test]
    fn display_string_escaping() {
        assert_eq!(Expr::str("it's").to_string(), "'it''s'");
    }

    #[test]
    fn display_date_literal() {
        let d = pushdown_common::date::ymd(1994, 1, 1);
        assert_eq!(Expr::date(d).to_string(), "DATE '1994-01-01'");
    }

    #[test]
    fn display_agg_items() {
        let s = SelectStmt {
            items: vec![
                SelectItem::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Expr::col("x")),
                    alias: None,
                },
                SelectItem::Agg {
                    func: AggFunc::Count,
                    arg: None,
                    alias: Some("n".into()),
                },
            ],
            alias: None,
            where_clause: None,
            limit: None,
        };
        assert_eq!(s.to_string(), "SELECT SUM(x), COUNT(*) AS n FROM S3Object");
    }

    #[test]
    fn term_count_charges_comparisons_and_case_arms() {
        let pred = Expr::and(
            Expr::lt(Expr::col("a"), Expr::int(1)),
            Expr::eq(Expr::col("b"), Expr::int(2)),
        );
        assert_eq!(pred.term_count(), 2);
        let case = Expr::Case {
            branches: vec![
                (Expr::eq(Expr::col("g"), Expr::int(0)), Expr::col("v")),
                (Expr::eq(Expr::col("g"), Expr::int(1)), Expr::col("v")),
            ],
            else_expr: None,
        };
        assert_eq!(case.term_count(), 2); // 2 arms; conditions not charged
    }

    #[test]
    fn term_count_per_variant() {
        let cases = [
            ("1", 0),
            ("a", 0),
            ("-a", 0),
            ("NOT a < 1", 1),
            ("a + 1", 1),
            ("a AND b", 0),
            ("a OR b < 1", 1),
            ("a BETWEEN 1 AND b + 2", 3),
            ("a NOT IN (1, 2, b * 3)", 4),
            ("a IS NULL", 1),
            ("s LIKE 'x%'", 1),
            (
                "CASE WHEN a = 1 THEN b + 1 WHEN a = 2 THEN b ELSE b * 2 END",
                4,
            ),
            ("CAST(a + 1 AS STRING)", 1),
            ("SUBSTRING(s, a + 1, 2)", 2),
        ];
        for (sql, want) in cases {
            let e = crate::parser::parse_expr(sql).unwrap();
            assert_eq!(e.term_count(), want, "{sql}");
        }
    }

    #[test]
    fn walk_is_pre_order_in_written_order() {
        let e = crate::parser::parse_expr(
            "CASE WHEN a IN (b, 1) THEN -c ELSE SUBSTRING(d, e) END LIKE f",
        )
        .unwrap();
        let mut seen = Vec::new();
        e.walk(&mut |e| {
            if let Expr::Column(c) = e {
                seen.push(c.as_str());
            }
        });
        assert_eq!(seen, ["a", "b", "c", "d", "e", "f"]);
        let mut renamed = e.clone();
        renamed.walk_mut(&mut |e| {
            if let Expr::Column(c) = e {
                c.make_ascii_uppercase();
            }
        });
        let mut cols = Vec::new();
        renamed.referenced_columns(&mut cols);
        assert_eq!(cols, ["A", "B", "C", "D", "E", "F"]);
    }

    #[test]
    fn conjuncts_and_column_vs_literal() {
        let e = crate::parser::parse_expr("(a < 1 AND 2 <= b) AND (c = 3 OR d)").unwrap();
        let parts: Vec<String> = e.conjuncts().iter().map(|c| c.to_string()).collect();
        assert_eq!(parts, ["a < 1", "2 <= b", "c = 3 OR d"]);
        let normal: Vec<_> = e
            .conjuncts()
            .iter()
            .map(|c| c.column_vs_literal())
            .collect();
        let (one, two) = (Value::Int(1), Value::Int(2));
        assert_eq!(
            normal,
            [
                Some(("a", BinOp::Lt, &one)),
                Some(("b", BinOp::GtEq, &two)),
                None
            ]
        );
        assert_eq!(
            Expr::binary(Expr::col("a"), BinOp::Add, Expr::int(1)).column_vs_literal(),
            None
        );
    }

    #[test]
    fn display_parenthesizes_negated_numbers_and_negations() {
        let neg = |e: Expr| Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(e),
        };
        assert_eq!(neg(Expr::int(-5)).to_string(), "-(-5)");
        assert_eq!(neg(Expr::int(5)).to_string(), "-(5)");
        assert_eq!(neg(Expr::float(1.5)).to_string(), "-(1.5)");
        assert_eq!(neg(neg(Expr::col("a"))).to_string(), "-(-a)");
        assert_eq!(neg(Expr::col("a")).to_string(), "-a");
        for e in [
            neg(Expr::int(-5)),
            neg(Expr::int(5)),
            neg(neg(Expr::col("a"))),
        ] {
            assert_eq!(crate::parser::parse_expr(&e.to_string()).unwrap(), e);
        }
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::and(
            Expr::lt(Expr::col("a"), Expr::col("b")),
            Expr::eq(Expr::col("A"), Expr::int(2)),
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn conjunction_builder() {
        assert_eq!(Expr::conjunction(vec![]), None);
        let one = Expr::conjunction(vec![Expr::col("x")]).unwrap();
        assert_eq!(one.to_string(), "x");
        let two = Expr::conjunction(vec![Expr::col("x"), Expr::col("y")]).unwrap();
        assert_eq!(two.to_string(), "x AND y");
    }

    #[test]
    fn query_spec_displays_joins_and_multi_key_order() {
        let spec = QuerySpec {
            select: SelectStmt {
                items: vec![
                    SelectItem::Expr {
                        expr: Expr::col("o_orderdate"),
                        alias: None,
                    },
                    SelectItem::Agg {
                        func: AggFunc::Sum,
                        arg: Some(Expr::col("o_totalprice")),
                        alias: Some("revenue".into()),
                    },
                ],
                alias: Some("c".into()),
                where_clause: Some(Expr::eq(Expr::col("c_mktsegment"), Expr::str("BUILDING"))),
                limit: Some(10),
            },
            from: "customer".into(),
            joins: vec![JoinClause {
                table: "orders".into(),
                alias: Some("o".into()),
                left_col: "c_custkey".into(),
                right_col: "o_custkey".into(),
            }],
            group_by: vec!["o_orderdate".into()],
            order_by: vec![
                OrderBy {
                    column: "revenue".into(),
                    asc: false,
                },
                OrderBy {
                    column: "o_orderdate".into(),
                    asc: true,
                },
            ],
        };
        assert_eq!(
            spec.to_string(),
            "SELECT o_orderdate, SUM(o_totalprice) AS revenue FROM customer c \
             JOIN orders o ON c_custkey = o_custkey \
             WHERE c_mktsegment = 'BUILDING' GROUP BY o_orderdate \
             ORDER BY revenue DESC, o_orderdate ASC LIMIT 10"
        );
    }

    #[test]
    fn weird_identifiers_are_quoted() {
        assert_eq!(Expr::col("two words").to_string(), "\"two words\"");
        assert_eq!(Expr::col("select").to_string(), "\"select\"");
        assert_eq!(Expr::col("_1").to_string(), "_1");
    }
}
