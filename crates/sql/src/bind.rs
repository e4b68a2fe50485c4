//! Name resolution: turn parsed expressions into index-addressed
//! [`BoundExpr`]s ready for evaluation against rows of a known
//! [`Schema`].

use crate::agg::AggFunc;
use crate::ast::{BinOp, Expr, Func, SelectItem, SelectStmt, UnOp};
use pushdown_common::value::format_float;
use pushdown_common::{DataType, Error, Field, Result, Schema, Value};

/// An expression with column references resolved to row indices.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Literal(Value),
    /// Row index plus the column's declared type.
    Column(usize, DataType),
    Unary {
        op: UnOp,
        expr: Box<BoundExpr>,
    },
    Binary {
        left: Box<BoundExpr>,
        op: BinOp,
        right: Box<BoundExpr>,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    Case {
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
    },
    Cast {
        expr: Box<BoundExpr>,
        dtype: DataType,
    },
    /// `CAST(<FLOAT column> AS STRING) = '<text>'` — how a pushed
    /// statement names one FLOAT value that SQL's `=` cannot single out
    /// (NaN, `-0.0`) — decided from the float's bits, never rendering it:
    /// the rendering ([`pushdown_common::value::write_float`]) is
    /// injective off NaN and writes every NaN as `NaN`, so `text` names
    /// at most one float, worked out once here. Bound from that shape
    /// only; it evaluates exactly as the cast and the comparison do.
    FloatText {
        /// The FLOAT operand.
        expr: Box<BoundExpr>,
        text: String,
        /// The float whose rendering `text` is (a NaN for `NaN`), or
        /// `None`: no float renders so.
        value: Option<f64>,
    },
    Call {
        func: Func,
        args: Vec<BoundExpr>,
        /// `SUBSTRING` over a pure-ASCII string literal, where character
        /// positions are byte positions. Checked once here so that
        /// probing a Bloom bit string (paper Listing 1) costs the same
        /// per row whatever the literal's length.
        ascii_text: bool,
    },
}

impl BoundExpr {
    /// The direct subexpressions, in written order, as
    /// [`Expr::children`] gives them.
    pub fn children(&self) -> Vec<&BoundExpr> {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(..) => Vec::new(),
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::FloatText { expr, .. } => vec![expr],
            BoundExpr::Binary { left, right, .. } => vec![left, right],
            BoundExpr::Like { expr, pattern, .. } => vec![expr, pattern],
            BoundExpr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            BoundExpr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            BoundExpr::Case {
                branches,
                else_expr,
            } => branches
                .iter()
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref())
                .collect(),
            BoundExpr::Call { args, .. } => args.iter().collect(),
        }
    }

    /// [`BoundExpr::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut BoundExpr> {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(..) => Vec::new(),
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::FloatText { expr, .. } => vec![expr],
            BoundExpr::Binary { left, right, .. } => vec![left, right],
            BoundExpr::Like { expr, pattern, .. } => vec![expr, pattern],
            BoundExpr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            BoundExpr::InList { expr, list, .. } => {
                std::iter::once(&mut **expr).chain(list).collect()
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => branches
                .iter_mut()
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref_mut())
                .collect(),
            BoundExpr::Call { args, .. } => args.iter_mut().collect(),
        }
    }

    /// Call `f` on this expression and every subexpression, pre-order,
    /// children in written order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a BoundExpr)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// [`BoundExpr::walk`], mutably: `f` sees a node before its children.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut BoundExpr)) {
        f(self);
        for c in self.children_mut() {
            c.walk_mut(f);
        }
    }

    /// The operands of this expression's AND chain, left to right; the
    /// expression itself when it is not an AND.
    pub fn conjuncts(&self) -> Vec<&BoundExpr> {
        match self {
            BoundExpr::Binary {
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

    /// A comparison of a column with a literal as `(column, op,
    /// literal)`, the column first, as [`Expr::column_vs_literal`] gives
    /// it.
    pub fn column_vs_literal(&self) -> Option<(usize, BinOp, &Value)> {
        let BoundExpr::Binary { left, op, right } = self else {
            return None;
        };
        match (&**left, &**right) {
            _ if !op.is_comparison() => None,
            (BoundExpr::Column(c, _), BoundExpr::Literal(v)) => Some((*c, *op, v)),
            (BoundExpr::Literal(v), BoundExpr::Column(c, _)) => Some((*c, op.flipped(), v)),
            _ => None,
        }
    }

    /// Rewrite every column index through `f`, in pre-order — how a scan
    /// re-addresses an expression onto the columns it actually decodes
    /// (an `f` that returns its argument merely visits them).
    pub fn map_columns(&mut self, f: &mut impl FnMut(usize) -> usize) {
        self.walk_mut(&mut |e| {
            if let BoundExpr::Column(idx, _) = e {
                *idx = f(*idx);
            }
        });
    }

    /// Best-effort output type (used to construct output schemas; the
    /// engine is dynamically typed so this is advisory, defaulting to
    /// `Str` when unknown).
    pub fn infer_type(&self) -> DataType {
        match self {
            BoundExpr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
            BoundExpr::Column(_, dt) => *dt,
            BoundExpr::Unary { op, expr } => match op {
                UnOp::Neg => expr.infer_type(),
                UnOp::Not => DataType::Bool,
            },
            BoundExpr::Binary { left, op, right } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    DataType::Bool
                } else if left.infer_type() == DataType::Int && right.infer_type() == DataType::Int
                {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
            BoundExpr::Between { .. }
            | BoundExpr::InList { .. }
            | BoundExpr::IsNull { .. }
            | BoundExpr::Like { .. }
            | BoundExpr::FloatText { .. } => DataType::Bool,
            BoundExpr::Case {
                branches,
                else_expr,
            } => branches
                .first()
                .map(|(_, v)| v.infer_type())
                .or_else(|| else_expr.as_ref().map(|e| e.infer_type()))
                .unwrap_or(DataType::Str),
            BoundExpr::Cast { dtype, .. } => *dtype,
            BoundExpr::Call { func, .. } => match func {
                Func::Substring | Func::Lower | Func::Upper | Func::Trim => DataType::Str,
                Func::CharLength | Func::BitAt => DataType::Int,
                Func::Abs => DataType::Float,
            },
        }
    }
}

/// One bound projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundItem {
    /// A scalar output column.
    Expr { expr: BoundExpr, name: String },
    /// An aggregate output column (`arg` is `None` for `COUNT(*)`).
    Agg {
        func: AggFunc,
        arg: Option<BoundExpr>,
        name: String,
    },
}

/// A fully bound SELECT, ready for the execution engine.
#[derive(Debug, Clone)]
pub struct BoundSelect {
    pub items: Vec<BoundItem>,
    pub where_clause: Option<BoundExpr>,
    pub limit: Option<u64>,
    /// Schema of the result rows.
    pub output_schema: Schema,
    /// True if the query has aggregates (then it returns one row per
    /// group; without a grouping list, exactly one row).
    pub is_aggregate: bool,
    /// The grouping columns (§X Suggestion 4), as schema indices; empty
    /// in the stock dialect.
    pub group_by: Vec<usize>,
}

impl BoundSelect {
    /// The schema columns the statement reads — projection items,
    /// aggregate arguments, grouping columns and the `WHERE` clause —
    /// ascending, each once: what a scan decodes, and on a columnar
    /// object what a Select scans and bills (§IX).
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut needed = self.group_by.clone();
        let exprs = self.items.iter().filter_map(|item| match item {
            BoundItem::Expr { expr, .. } => Some(expr),
            BoundItem::Agg { arg, .. } => arg.as_ref(),
        });
        for e in exprs.chain(&self.where_clause) {
            e.walk(&mut |e| {
                if let BoundExpr::Column(i, _) = e {
                    needed.push(*i);
                }
            });
        }
        needed.sort_unstable();
        needed.dedup();
        needed
    }
}

/// `bound` as a [`BoundExpr::FloatText`] when it compares a FLOAT
/// column's text with a string literal; otherwise as it is.
fn float_text(bound: BoundExpr) -> BoundExpr {
    let BoundExpr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = &bound
    else {
        return bound;
    };
    let (BoundExpr::Cast { expr, dtype }, BoundExpr::Literal(Value::Str(text))) =
        (&**left, &**right)
    else {
        return bound;
    };
    if *dtype != DataType::Str || !matches!(**expr, BoundExpr::Column(_, DataType::Float)) {
        return bound;
    }
    // Rust's parser reads more than the rendering writes (`nan`, `1.50`,
    // `1e3`): only a text that renders back unchanged names its float.
    let value = text
        .parse::<f64>()
        .ok()
        .filter(|f| format_float(*f) == *text);
    BoundExpr::FloatText {
        expr: expr.clone(),
        text: text.clone(),
        value,
    }
}

/// Binds expressions against a schema.
pub struct Binder<'a> {
    schema: &'a Schema,
}

impl<'a> Binder<'a> {
    pub fn new(schema: &'a Schema) -> Self {
        Binder { schema }
    }

    /// Resolve a column name. Supports the S3 Select positional form
    /// `_N` (1-based) used when CSV objects carry no header row.
    fn resolve_column(&self, name: &str) -> Result<(usize, DataType)> {
        if let Some(rest) = name.strip_prefix('_') {
            if let Ok(pos) = rest.parse::<usize>() {
                if pos >= 1 && pos <= self.schema.len() && self.schema.index_of(name).is_none() {
                    return Ok((pos - 1, self.schema.dtype_of(pos - 1)));
                }
            }
        }
        let idx = self.schema.resolve(name)?;
        Ok((idx, self.schema.dtype_of(idx)))
    }

    /// Bind one expression.
    pub fn bind_expr(&self, expr: &Expr) -> Result<BoundExpr> {
        Ok(match expr {
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Column(name) => {
                let (idx, dt) = self.resolve_column(name)?;
                BoundExpr::Column(idx, dt)
            }
            Expr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_expr(expr)?),
            },
            Expr::Binary { left, op, right } => float_text(BoundExpr::Binary {
                left: Box::new(self.bind_expr(left)?),
                op: *op,
                right: Box::new(self.bind_expr(right)?),
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(self.bind_expr(expr)?),
                low: Box::new(self.bind_expr(low)?),
                high: Box::new(self.bind_expr(high)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.bind_expr(expr)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr(e))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(self.bind_expr(expr)?),
                pattern: Box::new(self.bind_expr(pattern)?),
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.bind_expr(c)?, self.bind_expr(v)?)))
                    .collect::<Result<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.bind_expr(e)?)),
                    None => None,
                },
            },
            Expr::Cast { expr, dtype } => BoundExpr::Cast {
                expr: Box::new(self.bind_expr(expr)?),
                dtype: *dtype,
            },
            Expr::Call { func, args } => {
                let arity_ok = match func {
                    Func::Substring => (2..=3).contains(&args.len()),
                    Func::BitAt => args.len() == 2,
                    Func::Lower | Func::Upper | Func::Abs | Func::CharLength | Func::Trim => {
                        args.len() == 1
                    }
                };
                if !arity_ok {
                    return Err(Error::Bind(format!(
                        "wrong number of arguments to {}",
                        func.name()
                    )));
                }
                let ascii_text = *func == Func::Substring
                    && matches!(&args[0], Expr::Literal(Value::Str(s)) if s.is_ascii());
                BoundExpr::Call {
                    func: *func,
                    args: args
                        .iter()
                        .map(|e| self.bind_expr(e))
                        .collect::<Result<_>>()?,
                    ascii_text,
                }
            }
        })
    }

    /// Bind a whole statement: expands `*`, enforces the dialect's
    /// aggregate rules (all-or-nothing projection, no group-by), and
    /// produces the output schema.
    pub fn bind_select(&self, stmt: &SelectStmt) -> Result<BoundSelect> {
        self.bind_grouped(stmt, &[])
    }

    /// [`Binder::bind_select`] with a grouping list (§X Suggestion 4's
    /// partial group-by): a grouped statement's scalar items must be
    /// grouping columns, everything else an aggregate, and `*` is invalid.
    pub fn bind_grouped(&self, stmt: &SelectStmt, group_by: &[String]) -> Result<BoundSelect> {
        let group_by: Vec<usize> = group_by
            .iter()
            .map(|g| Ok(self.resolve_column(g)?.0))
            .collect::<Result<_>>()?;
        let has_agg = stmt.is_aggregate();
        let has_wildcard = stmt.items.iter().any(|i| matches!(i, SelectItem::Wildcard));
        if has_wildcard && stmt.items.len() > 1 {
            return Err(Error::Bind(
                "`*` cannot be combined with other projection items".into(),
            ));
        }
        if has_agg && has_wildcard {
            return Err(Error::Bind("`*` cannot be combined with aggregates".into()));
        }

        let mut items = Vec::new();
        let mut fields = Vec::new();

        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard if !group_by.is_empty() => {
                    return Err(Error::Bind("`*` is invalid with GROUP BY".into()))
                }
                SelectItem::Wildcard => {
                    for (idx, f) in self.schema.fields().iter().enumerate() {
                        items.push(BoundItem::Expr {
                            expr: BoundExpr::Column(idx, f.dtype),
                            name: f.name.clone(),
                        });
                        fields.push(f.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if !group_by.is_empty() {
                        let Expr::Column(name) = expr else {
                            return Err(Error::Bind(format!(
                                "grouped select items must be grouping columns or \
                                 aggregates, found `{expr}`"
                            )));
                        };
                        if !group_by.contains(&self.resolve_column(name)?.0) {
                            return Err(Error::Bind(format!(
                                "column `{name}` is not in the GROUP BY list"
                            )));
                        }
                    } else if has_agg {
                        return Err(Error::Bind(format!(
                            "cannot mix scalar expression `{expr}` with aggregates \
                             (S3 Select has no GROUP BY)"
                        )));
                    }
                    let bound = self.bind_expr(expr)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(n) => n.clone(),
                        _ => format!("_{}", i + 1),
                    });
                    fields.push(Field::new(name.clone(), bound.infer_type()));
                    items.push(BoundItem::Expr { expr: bound, name });
                }
                SelectItem::Agg { func, arg, alias } => {
                    let bound_arg = match arg {
                        Some(e) => Some(self.bind_expr(e)?),
                        None => None,
                    };
                    let name = alias.clone().unwrap_or_else(|| format!("_{}", i + 1));
                    let dtype = func.result_type(bound_arg.as_ref().map(|e| e.infer_type()));
                    fields.push(Field::new(name.clone(), dtype));
                    items.push(BoundItem::Agg {
                        func: *func,
                        arg: bound_arg,
                        name,
                    });
                }
            }
        }

        let where_clause = match &stmt.where_clause {
            Some(w) => Some(self.bind_expr(w)?),
            None => None,
        };

        Ok(BoundSelect {
            items,
            where_clause,
            limit: stmt.limit,
            output_schema: Schema::new(fields),
            is_aggregate: has_agg,
            group_by,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("c_custkey", DataType::Int),
            ("c_name", DataType::Str),
            ("c_acctbal", DataType::Float),
            ("c_date", DataType::Date),
        ])
    }

    fn bind(sql: &str) -> Result<BoundExpr> {
        let s = schema();
        Binder::new(&s).bind_expr(&parse_expr(sql)?)
    }

    #[test]
    fn binds_columns_case_insensitively() {
        match bind("C_ACCTBAL").unwrap() {
            BoundExpr::Column(2, DataType::Float) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn positional_columns() {
        match bind("_1").unwrap() {
            BoundExpr::Column(0, DataType::Int) => {}
            other => panic!("{other:?}"),
        }
        match bind("_4").unwrap() {
            BoundExpr::Column(3, DataType::Date) => {}
            other => panic!("{other:?}"),
        }
        assert!(bind("_5").is_err());
    }

    #[test]
    fn unknown_columns_error() {
        let err = bind("no_such_col + 1").unwrap_err();
        assert_eq!(err.code(), "BindError");
    }

    #[test]
    fn map_columns_visits_and_rewrites_every_reference() {
        let mut e = bind(
            "CASE WHEN c_custkey BETWEEN 1 AND c_acctbal THEN LOWER(c_name) \
             ELSE CAST(c_date AS STRING) END LIKE c_name \
             OR c_custkey IN (c_acctbal, 2) OR -c_acctbal IS NULL",
        )
        .unwrap();
        let mut seen = Vec::new();
        e.map_columns(&mut |c| {
            seen.push(c);
            c + 10
        });
        assert_eq!(seen, vec![0, 2, 1, 3, 1, 0, 2, 2]);
        let mut after = Vec::new();
        e.map_columns(&mut |c| {
            after.push(c);
            c
        });
        assert_eq!(after, vec![10, 12, 11, 13, 11, 10, 12, 12]);
    }

    #[test]
    fn type_inference() {
        assert_eq!(bind("c_custkey + 1").unwrap().infer_type(), DataType::Int);
        assert_eq!(
            bind("c_custkey + 0.5").unwrap().infer_type(),
            DataType::Float
        );
        assert_eq!(
            bind("c_acctbal <= -950").unwrap().infer_type(),
            DataType::Bool
        );
        assert_eq!(
            bind("CAST(c_custkey AS STRING)").unwrap().infer_type(),
            DataType::Str
        );
        assert_eq!(
            bind("CHAR_LENGTH(c_name)").unwrap().infer_type(),
            DataType::Int
        );
    }

    #[test]
    fn bind_select_star_expands() {
        let s = schema();
        let stmt = parse_select("SELECT * FROM S3Object").unwrap();
        let b = Binder::new(&s).bind_select(&stmt).unwrap();
        assert_eq!(b.output_schema, s);
        assert_eq!(b.items.len(), 4);
        assert!(!b.is_aggregate);
    }

    #[test]
    fn bind_select_aggregates() {
        let s = schema();
        let stmt =
            parse_select("SELECT SUM(c_acctbal), COUNT(*) AS n FROM S3Object WHERE c_custkey < 10")
                .unwrap();
        let b = Binder::new(&s).bind_select(&stmt).unwrap();
        assert!(b.is_aggregate);
        assert_eq!(b.output_schema.names(), vec!["_1", "n"]);
        assert_eq!(b.output_schema.dtype_of(0), DataType::Float);
        assert_eq!(b.output_schema.dtype_of(1), DataType::Int);
    }

    #[test]
    fn mixing_scalars_and_aggregates_rejected() {
        let s = schema();
        let stmt = parse_select("SELECT c_custkey, SUM(c_acctbal) FROM S3Object").unwrap();
        assert!(Binder::new(&s).bind_select(&stmt).is_err());
    }

    #[test]
    fn wildcard_with_other_items_rejected() {
        let s = schema();
        let stmt = parse_select("SELECT *, c_custkey FROM S3Object").unwrap();
        assert!(Binder::new(&s).bind_select(&stmt).is_err());
    }

    #[test]
    fn substring_arity_checked() {
        assert!(bind("SUBSTRING(c_name, 1, 2)").is_ok());
        assert!(bind("SUBSTRING(c_name, 1)").is_ok());
        assert!(bind("SUBSTRING(c_name)").is_err());
        assert!(bind("LOWER(c_name, c_name)").is_err());
    }

    #[test]
    fn output_names_default_to_positions() {
        let s = schema();
        let stmt = parse_select("SELECT c_custkey + 1, c_name FROM S3Object").unwrap();
        let b = Binder::new(&s).bind_select(&stmt).unwrap();
        assert_eq!(b.output_schema.names(), vec!["_1", "c_name"]);
    }
}
