//! # pushdown-sql
//!
//! The SQL dialect of the (simulated) S3 Select service, plus the shared
//! expression machinery PushdownDB's local operators reuse.
//!
//! S3 Select supports a deliberately narrow slice of SQL (paper §II-A):
//! *selection*, *projection*, and *aggregation without group-by* over a
//! single `S3Object` table. The interesting algorithms in the paper are
//! precisely the ones that contort richer operators into this dialect, so
//! this crate implements the dialect faithfully — including what it does
//! **not** support (no `GROUP BY`, no bitwise operators, no binary data,
//! no joins) — and exposes:
//!
//! * [`lexer`] / [`parser`] — text → [`ast::SelectStmt`];
//! * [`ast`] — the syntax tree, with a `Display` that regenerates valid
//!   SQL text (PushdownDB *generates* S3 Select queries programmatically,
//!   e.g. the Bloom-filter `SUBSTRING` predicates of paper §V-A2 and the
//!   `CASE WHEN` group-by of §VI-A, and must respect the service's 256 KB
//!   SQL text limit);
//! * [`bind`] — name resolution against a `Schema`
//!   and expression-complexity metering for the performance model;
//! * [`eval`](mod@eval) — a three-valued-logic interpreter for bound
//!   expressions;
//! * [`vector`] — the same predicates over typed column batches:
//!   the one predicate compiler (error-free shapes, evaluated a column
//!   at a time into a selection vector) and the row-at-a-time fallback
//!   for the rest, which the Select engine and the local scan both run;
//! * [`agg`] — the aggregate accumulators (`SUM`/`COUNT`/`MIN`/`MAX`/`AVG`)
//!   and the one group table every hash aggregation runs on;
//! * the traversal of both expression trees, [`Expr`] and [`BoundExpr`]:
//!   `children` and `walk` (pre-order, children in written order),
//!   `conjuncts` (the AND chain, left to right) and `column_vs_literal`
//!   (a comparison with the column first, via [`BinOp::flipped`]).
//!   Code outside this crate walks, splits and normalises expressions
//!   with these, never with a match of its own over every variant.

pub mod agg;
pub mod ast;
pub mod bind;
pub mod eval;
pub mod lexer;
pub mod parser;
#[cfg(test)]
mod proptests;
pub mod vector;

pub use agg::{Accumulator, AggFunc, GroupTable};
pub use ast::{BinOp, Expr, SelectItem, SelectStmt, UnOp};
pub use bind::{Binder, BoundExpr, BoundSelect};
pub use eval::eval;
pub use parser::{parse_expr, parse_query, parse_select, parse_select_extended};
