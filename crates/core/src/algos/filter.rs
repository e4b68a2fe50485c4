//! Filter strategies (paper §IV).
//!
//! Three ways to evaluate `SELECT cols FROM t WHERE pred`. Two are trees
//! of plan-IR operators, lowered as named candidates by
//! [`crate::joinplan`]: `server-side` — load the whole table, filter on
//! the compute node (the no-pushdown baseline, a
//! [`Scan`](crate::plan::PlanOp::Scan) from
//! [`ScanSource::Plain`](crate::scan::ScanSource::Plain)) — and `s3-side`
//! — predicate and projection pushed into S3 Select (the same leaf from
//! [`ScanSource::Select`](crate::scan::ScanSource::Select)). The third
//! lives here:
//!
//! * [`indexed`] — query an index table for qualifying byte ranges, then
//!   fetch each row with a ranged GET (§IV-A). Wins when very selective;
//!   collapses under per-row request overheads as selectivity grows
//!   (Fig 1).

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::index::IndexTable;
use crate::metrics::QueryMetrics;
use crate::ops;
use crate::output::QueryOutput;
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Result, Row};
use pushdown_format::csv::split_line;
use pushdown_sql::{Expr, SelectItem, SelectStmt};

/// The argument of [`indexed`] (and of its §X what-if variants), Fig 1's
/// private helper: predicate plus optional projection (None = `*`). The
/// planner's filter candidates take SQL, not this.
#[derive(Debug, Clone)]
pub struct FilterQuery {
    pub table: Table,
    pub predicate: Expr,
    pub projection: Option<Vec<String>>,
}

/// Indexed filter (paper §IV-A): phase 1 pushes the predicate (rewritten
/// onto the index table's `value` column) into S3 Select; phase 2 issues
/// one ranged GET per qualifying row.
///
/// The predicate must reference only the indexed column.
pub fn indexed(ctx: &QueryContext, idx: &IndexTable, q: &FilterQuery) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    // Validate the predicate touches only the indexed column, then rewrite
    // it onto the index table's `value` column.
    let mut refs = Vec::new();
    q.predicate.referenced_columns(&mut refs);
    if !(refs.len() == 1 && refs[0].eq_ignore_ascii_case(&idx.column)) {
        return Err(pushdown_common::Error::Bind(format!(
            "indexed filter supports predicates on `{}` only, found columns {refs:?}",
            idx.column
        )));
    }
    let index_pred = rename_column(&q.predicate, &idx.column, "value");

    // ---- Phase 1: index lookup via S3 Select, one query per index
    // partition (offsets must stay associated with their data partition).
    let lookup_stmt = SelectStmt {
        items: vec![
            SelectItem::Expr {
                expr: Expr::col("first_byte_offset"),
                alias: None,
            },
            SelectItem::Expr {
                expr: Expr::col("last_byte_offset"),
                alias: None,
            },
        ],
        alias: None,
        where_clause: Some(index_pred),
        limit: None,
    };
    let mut phase1 = PhaseStats::default();
    let index_parts = idx.index.partitions(&ctx.store);
    let data_parts = idx.data.partitions(&ctx.store);
    if index_parts.len() != data_parts.len() {
        return Err(pushdown_common::Error::Corrupt(
            "index/data partition mismatch; rebuild the index".into(),
        ));
    }
    let mut ranges: Vec<(usize, u64, u64)> = Vec::new();
    for (p, ikey) in index_parts.iter().enumerate() {
        let resp = ctx.engine.select_stmt(
            &idx.index.bucket,
            ikey,
            &lookup_stmt,
            &idx.index.schema,
            idx.index.format,
        )?;
        phase1.requests += u64::from(resp.stats.attempts.max(1));
        phase1.s3_scanned_bytes += resp.stats.bytes_scanned;
        phase1.select_returned_bytes += resp.stats.bytes_returned;
        phase1.expr_terms = phase1.expr_terms.max(resp.stats.expr_terms);
        for row in resp.rows()? {
            ranges.push((p, row[0].as_i64()? as u64, row[1].as_i64()? as u64));
        }
    }
    phase1.server_cpu_units += ranges.len() as u64;

    // ---- Phase 2: one ranged GET per row (S3 permits one range per
    // request — §X Suggestion 1). Decode each returned record.
    let mut phase2 = PhaseStats::default();
    let mut rows: Vec<Row> = Vec::with_capacity(ranges.len());
    for (p, first, last) in &ranges {
        let fetched = ctx.store.get_object_range_with(
            &idx.data.bucket,
            &data_parts[*p],
            *first,
            *last,
            &ctx.retry,
        )?;
        let slice = fetched.value;
        phase2.point_requests += u64::from(fetched.attempts);
        phase2.plain_bytes += slice.len() as u64;
        phase2.server_cpu_units += 1;
        let line = std::str::from_utf8(&slice)
            .map_err(|_| pushdown_common::Error::Corrupt("non-UTF8 record".into()))?;
        let fields = split_line(line.trim_end_matches(['\n', '\r']))?;
        if fields.len() != idx.data.schema.len() {
            return Err(pushdown_common::Error::Corrupt(format!(
                "ranged GET returned {} fields, expected {}",
                fields.len(),
                idx.data.schema.len()
            )));
        }
        let mut vals = Vec::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            vals.push(pushdown_common::Value::parse_typed(
                f,
                idx.data.schema.dtype_of(i),
            )?);
        }
        rows.push(Row::new(vals));
    }

    // Projection.
    let (schema, rows) = match &q.projection {
        None => (idx.data.schema.clone(), rows),
        Some(cols) => {
            let pidx: Result<Vec<usize>> =
                cols.iter().map(|c| idx.data.schema.resolve(c)).collect();
            let pidx = pidx?;
            (
                idx.data.schema.project(&pidx),
                ops::project_rows(rows, &pidx, &mut phase2),
            )
        }
    };

    let mut metrics = QueryMetrics::new();
    metrics.push_serial("index lookup", phase1);
    metrics.push_serial("row fetch", phase2);
    Ok(QueryOutput {
        schema,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

/// Rewrite every reference to `from` into `to`.
pub(crate) fn rename_column(e: &Expr, from: &str, to: &str) -> Expr {
    match e {
        Expr::Column(n) if n.eq_ignore_ascii_case(from) => Expr::col(to),
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rename_column(expr, from, to)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rename_column(left, from, to)),
            op: *op,
            right: Box::new(rename_column(right, from, to)),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rename_column(expr, from, to)),
            low: Box::new(rename_column(low, from, to)),
            high: Box::new(rename_column(high, from, to)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rename_column(expr, from, to)),
            list: list.iter().map(|e| rename_column(e, from, to)).collect(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rename_column(expr, from, to)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rename_column(expr, from, to)),
            pattern: Box::new(rename_column(pattern, from, to)),
            negated: *negated,
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (rename_column(c, from, to), rename_column(v, from, to)))
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(rename_column(e, from, to))),
        },
        Expr::Cast { expr, dtype } => Expr::Cast {
            expr: Box::new(rename_column(expr, from, to)),
            dtype: *dtype,
        },
        Expr::Call { func, args } => Expr::Call {
            func: *func,
            args: args.iter().map(|a| rename_column(a, from, to)).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use crate::index::build_index;
    use crate::planner::run_candidate;
    use pushdown_common::{DataType, Schema, Value};
    use pushdown_s3::S3Store;
    use pushdown_sql::parse_expr;

    fn setup(n: usize) -> (QueryContext, Table) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("s", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Float((i as f64 * 31.0) % 100.0),
                    Value::Str(format!("row-{i}")),
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 64).unwrap();
        (QueryContext::new(store), t)
    }

    fn q(table: &Table, pred: &str, proj: Option<Vec<&str>>) -> FilterQuery {
        FilterQuery {
            table: table.clone(),
            predicate: parse_expr(pred).unwrap(),
            projection: proj.map(|v| v.into_iter().map(String::from).collect()),
        }
    }

    /// The planner's `server-side` and `s3-side` candidates of `query`.
    fn server_and_s3(ctx: &QueryContext, query: &FilterQuery) -> (QueryOutput, QueryOutput) {
        let cols = query
            .projection
            .as_ref()
            .map_or("*".into(), |c| c.join(", "));
        let sql = format!("SELECT {cols} FROM t WHERE {}", query.predicate);
        let run = |name| run_candidate(ctx, &query.table, &sql, name, None).unwrap();
        (run("server-side"), run("s3-side"))
    }

    #[test]
    fn all_three_strategies_agree() {
        let (ctx, t) = setup(300);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let query = q(&t, "k >= 120 AND k < 140", None);
        let (a, b) = server_and_s3(&ctx, &query);
        let c = indexed(&ctx, &idx, &query).unwrap();
        assert_eq!(a.rows.len(), 20);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows, c.rows);
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.schema, c.schema);
    }

    #[test]
    fn projection_is_applied_consistently() {
        let (ctx, t) = setup(100);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let query = q(&t, "k = 42", Some(vec!["s", "k"]));
        let (a, b) = server_and_s3(&ctx, &query);
        let c = indexed(&ctx, &idx, &query).unwrap();
        let want = vec![Row::new(vec![Value::Str("row-42".into()), Value::Int(42)])];
        assert_eq!(a.rows, want);
        assert_eq!(b.rows, want);
        assert_eq!(c.rows, want);
        assert_eq!(a.schema.names(), vec!["s", "k"]);
    }

    #[test]
    fn cost_profiles_differ_as_in_fig1() {
        let (ctx, t) = setup(1000);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let query = q(&t, "k = 7", None);
        let (server, s3) = server_and_s3(&ctx, &query);
        let ix = indexed(&ctx, &idx, &query).unwrap();
        // Server-side: all plain bytes, nothing scanned.
        let su = server.metrics.usage();
        assert!(su.plain_bytes > 0 && su.select_scanned_bytes == 0);
        // S3-side: scans the table, returns almost nothing.
        let xu = s3.metrics.usage();
        assert_eq!(xu.select_scanned_bytes, t.total_bytes(&ctx.store));
        assert!(xu.select_returned_bytes < 100);
        // Indexed: one ranged GET per matching row.
        let iu = ix.metrics.usage();
        assert_eq!(
            iu.requests,
            t.partitions(&ctx.store).len() as u64 + 1 // index lookups + 1 row
        );
        assert!(iu.plain_bytes < 64);
    }

    #[test]
    fn indexed_request_count_tracks_selectivity() {
        let (ctx, t) = setup(1000);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let narrow = indexed(&ctx, &idx, &q(&t, "k < 10", None)).unwrap();
        let wide = indexed(&ctx, &idx, &q(&t, "k < 500", None)).unwrap();
        let parts = t.partitions(&ctx.store).len() as u64;
        assert_eq!(narrow.metrics.usage().requests, parts + 10);
        assert_eq!(wide.metrics.usage().requests, parts + 500);
        // The model must therefore price `wide` much higher.
        assert!(wide.runtime(&ctx) > narrow.runtime(&ctx));
    }

    #[test]
    fn indexed_rejects_predicates_on_other_columns() {
        let (ctx, t) = setup(50);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let bad = q(&t, "v > 1.0", None);
        assert!(indexed(&ctx, &idx, &bad).is_err());
        let mixed = q(&t, "k > 1 AND v > 1.0", None);
        assert!(indexed(&ctx, &idx, &mixed).is_err());
    }

    #[test]
    fn empty_result_sets() {
        let (ctx, t) = setup(50);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let query = q(&t, "k > 100000", None);
        let (server, s3) = server_and_s3(&ctx, &query);
        assert!(server.rows.is_empty());
        assert!(s3.rows.is_empty());
        assert!(indexed(&ctx, &idx, &query).unwrap().rows.is_empty());
    }

    #[test]
    pub(crate) fn rename_column_rewrites_deeply() {
        let e = parse_expr("k > 1 AND (k < 5 OR k IN (7, 8)) AND k BETWEEN 0 AND 9").unwrap();
        let r = rename_column(&e, "k", "value");
        let mut refs = Vec::new();
        r.referenced_columns(&mut refs);
        assert_eq!(refs, vec!["value".to_string()]);
    }
}
