//! Group-by algorithms (paper §VI).
//!
//! S3 Select has **no group-by**, so PushdownDB decomposes. Two of the
//! decompositions are one scan under a local hash aggregation — trees of
//! plan-IR operators, lowered as named candidates by
//! [`crate::joinplan`]: `server-side` (full load) and `filtered` (S3
//! Select projects only the grouping/aggregate columns and applies any
//! predicate). The two whose second phase is *written from* the first
//! phase's result live here:
//!
//! * [`s3_side`] — phase 1 projects the grouping column and finds the
//!   distinct groups locally; phase 2 pushes one
//!   `SUM(CASE WHEN g = v THEN x ELSE …  END)` item *per (group,
//!   aggregate)* (paper Listing 4). Degrades as groups grow — the long
//!   CASE chain slows the storage-side scan (Fig 5);
//! * [`hybrid`] — samples the first ~1 % of rows to find the populous
//!   groups, pushes *their* aggregation to S3, and ships only the
//!   long-tail rows for local aggregation (paper Listing 5, Figs 6–7).

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::metrics::QueryMetrics;
use crate::ops;
use crate::output::QueryOutput;
use crate::scan::{select_scan, select_scan_streamed};
use pushdown_common::perf::PhaseStats;
use pushdown_common::{DataType, Error, Field, Result, Row, Schema, Value};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::{Expr, SelectItem, SelectStmt};
use std::collections::HashMap;

/// A group-by query: `SELECT group_cols, agg(agg_col)… FROM t [WHERE pred]
/// GROUP BY group_cols`.
#[derive(Debug, Clone)]
pub struct GroupByQuery {
    pub table: Table,
    pub group_cols: Vec<String>,
    /// Aggregates as (function, input column); `None` is `COUNT(*)`,
    /// which counts rows and has no input (the plan IR's convention).
    pub aggs: Vec<(AggFunc, Option<String>)>,
    pub predicate: Option<Expr>,
}

impl GroupByQuery {
    /// The output schema of the algorithms here.
    pub fn output_schema(&self) -> Result<Schema> {
        let mut fields = Vec::new();
        for g in &self.group_cols {
            let i = self.table.schema.resolve(g)?;
            fields.push(self.table.schema.field(i).clone());
        }
        for (f, c) in &self.aggs {
            // `COUNT(*)` is named after the first grouping column.
            let c = c
                .as_ref()
                .or(self.group_cols.first())
                .ok_or_else(|| Error::Bind("a group-by query needs a grouping column".into()))?;
            let i = self.table.schema.resolve(c)?;
            let dtype = match f {
                AggFunc::Count => DataType::Int,
                AggFunc::Avg => DataType::Float,
                _ => self.table.schema.dtype_of(i),
            };
            fields.push(Field::new(
                format!("{}_{}", f.name().to_lowercase(), c.to_lowercase()),
                dtype,
            ));
        }
        Ok(Schema::new(fields))
    }

    /// Columns the query touches: groups ∪ agg inputs.
    pub(crate) fn needed_cols(&self) -> Vec<String> {
        let mut cols: Vec<String> = self.group_cols.clone();
        for c in self.aggs.iter().filter_map(|(_, c)| c.as_ref()) {
            if !cols.iter().any(|x| x.eq_ignore_ascii_case(c)) {
                cols.push(c.clone());
            }
        }
        cols
    }

    /// Whether a row can have a NULL in grouping column `col`: yes,
    /// unless the table's statistics looked at every row and saw none.
    fn may_be_null(&self, col: &str) -> bool {
        let stats = self.table.stats.as_deref();
        let exact = stats.filter(|s| s.sample_rows == s.row_count);
        let seen = exact
            .zip(self.table.schema.resolve(col).ok())
            .and_then(|(s, i)| s.column(i));
        seen.is_none_or(|c| c.null_fraction > 0.0)
    }
}

/// Build the streaming aggregation state for `q` against the schema the
/// input rows arrive in.
fn group_accumulator(q: &GroupByQuery, schema: &Schema) -> Result<ops::GroupByAccumulator> {
    let gidx: Result<Vec<usize>> = q.group_cols.iter().map(|c| schema.resolve(c)).collect();
    let aggs: Result<Vec<(AggFunc, Option<usize>)>> = q
        .aggs
        .iter()
        .map(|(f, c)| Ok((*f, c.as_ref().map(|c| schema.resolve(c)).transpose()?)))
        .collect();
    Ok(ops::GroupByAccumulator::new(gidx?, aggs?))
}

/// Stream the query's columns of the rows matching `predicate` through
/// S3 Select and fold every batch into local group accumulators ("loads
/// only the four columns on which aggregation is performed", paper
/// §VI-C1). The accumulator resolves its columns against the response
/// schema, so it is built lazily from the first batch; a scan that
/// returns no rows yields an empty result. Returns the aggregated rows
/// plus the phase footprint (scan merged with local CPU).
fn streamed_group_aggregate(
    ctx: &QueryContext,
    q: &GroupByQuery,
    predicate: Option<Expr>,
) -> Result<(Vec<Row>, PhaseStats)> {
    let stmt = SelectStmt {
        items: q
            .needed_cols()
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::col(c.clone()),
                alias: None,
            })
            .collect(),
        alias: None,
        where_clause: predicate,
        limit: None,
    };
    let mut acc: Option<ops::GroupByAccumulator> = None;
    let mut op_stats = PhaseStats::default();
    let summary = select_scan_streamed(ctx, &q.table, &stmt, |batch| {
        if acc.is_none() {
            acc = Some(group_accumulator(q, &batch.schema)?);
        }
        acc.as_mut()
            .expect("accumulator initialized above")
            .update_batch(&batch.rows, &mut op_stats)
    })?;
    let rows = match acc {
        Some(acc) => acc.finish(&mut op_stats),
        None => Vec::new(), // no batch arrived: no matching rows at all
    };
    let mut stats = summary.stats;
    stats.merge(&op_stats);
    Ok((rows, stats))
}

/// Predicate selecting the rows of one (possibly multi-column) group:
/// equality per key part, `IS NULL` for a NULL part (`c = NULL` is never
/// true).
fn group_eq(group_cols: &[String], key: &[Value]) -> Expr {
    let conj: Vec<Expr> = group_cols
        .iter()
        .zip(key)
        .map(|(c, v)| match v {
            Value::Null => Expr::IsNull {
                expr: Box::new(Expr::col(c.clone())),
                negated: false,
            },
            v => Expr::eq(Expr::col(c.clone()), Expr::Literal(v.clone())),
        })
        .collect();
    Expr::conjunction(conj).expect("non-empty group columns")
}

/// Build phase-2 CASE-WHEN aggregate statements for the given groups,
/// chunking so each statement stays under the SQL size limit. Returns the
/// merged (group key ++ aggregate values) rows and the phase stats.
fn case_when_aggregate(
    ctx: &QueryContext,
    q: &GroupByQuery,
    groups: &[Vec<Value>],
    stats: &mut PhaseStats,
) -> Result<Vec<Row>> {
    if groups.is_empty() {
        return Ok(Vec::new());
    }
    // Estimate statement size per group to pick a chunk size.
    let est_per_group: usize = q.aggs.len() * 96
        + groups[0]
            .iter()
            .map(|v| v.to_csv_field().len() + 24)
            .sum::<usize>();
    let budget = ctx.engine.limits().max_sql_bytes.saturating_sub(256);
    let chunk = (budget / est_per_group.max(1)).max(1);

    let mut out = Vec::new();
    for batch in groups.chunks(chunk) {
        let mut items = Vec::with_capacity(batch.len() * q.aggs.len());
        for key in batch {
            let eq = group_eq(&q.group_cols, key);
            for (f, c) in &q.aggs {
                // CASE WHEN g = v THEN x END — the ELSE-less NULL arm is
                // skipped by every aggregate, and so is a NULL `x`:
                // COUNT(x) counts what it counts server-side. Only
                // COUNT(*) counts the group's rows, as `THEN 1`.
                let arg = Expr::Case {
                    branches: vec![(eq.clone(), c.clone().map_or(Expr::int(1), Expr::col))],
                    else_expr: None,
                };
                items.push(SelectItem::Agg {
                    func: *f,
                    arg: Some(arg),
                    alias: None,
                });
            }
        }
        let stmt = SelectStmt {
            items,
            alias: None,
            where_clause: q.predicate.clone(),
            limit: None,
        };
        let scan = select_scan(ctx, &q.table, &stmt)?;
        stats.merge(&scan.stats);
        let row = &scan.rows[0];
        for (gi, key) in batch.iter().enumerate() {
            let mut vals: Vec<Value> = key.clone();
            for ai in 0..q.aggs.len() {
                let mut v = row[gi * q.aggs.len() + ai].clone();
                // COUNT over an empty group surfaces as 0, not NULL.
                if q.aggs[ai].0 == AggFunc::Count && v.is_null() {
                    v = Value::Int(0);
                }
                vals.push(v);
            }
            out.push(Row::new(vals));
        }
    }
    Ok(out)
}

/// S3-side group-by (paper §VI-A): distinct groups first, then one pushed
/// CASE-WHEN aggregate per (group, aggregate).
pub fn s3_side(ctx: &QueryContext, q: &GroupByQuery) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    // ---- Phase 1: project the group columns, find distinct values.
    let stmt = SelectStmt {
        items: q
            .group_cols
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::col(c.clone()),
                alias: None,
            })
            .collect(),
        alias: None,
        where_clause: q.predicate.clone(),
        limit: None,
    };
    // Stream the projected group column(s): only the distinct values are
    // kept, not the projected rows themselves.
    let mut groups: Vec<Vec<Value>> = Vec::new();
    let mut seen_rows = 0u64;
    let summary = {
        let mut seen: HashMap<Vec<Value>, ()> = HashMap::new();
        select_scan_streamed(ctx, &q.table, &stmt, |batch| {
            seen_rows += batch.len() as u64;
            for r in &batch.rows {
                if seen.insert(r.values().to_vec(), ()).is_none() {
                    groups.push(r.values().to_vec());
                }
            }
            Ok(())
        })?
    };
    let mut phase1 = summary.stats;
    phase1.server_cpu_units += seen_rows;
    groups.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });

    // ---- Phase 2: pushed CASE-WHEN aggregation per group.
    let mut phase2 = PhaseStats::default();
    let rows = case_when_aggregate(ctx, q, &groups, &mut phase2)?;

    let mut metrics = QueryMetrics::new();
    metrics.push_serial("s3-side group-by: distinct", phase1);
    metrics.push_serial("s3-side group-by: aggregate", phase2);
    Ok(QueryOutput {
        schema: q.output_schema()?,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

/// Tuning for [`hybrid`].
#[derive(Debug, Clone, Copy)]
pub struct HybridOptions {
    /// Fraction of the table sampled in phase 1 (paper: "the first 1 % of
    /// data").
    pub sample_fraction: f64,
    /// Minimum sampled share for a group to count as "large".
    pub min_share: f64,
    /// Cap on groups pushed to S3.
    pub max_s3_groups: usize,
    /// Force exactly this many groups to S3 (Fig 6's sweep), overriding
    /// the share threshold.
    pub force_s3_groups: Option<usize>,
}

impl Default for HybridOptions {
    fn default() -> Self {
        HybridOptions {
            sample_fraction: 0.01,
            min_share: 0.02,
            max_s3_groups: 8,
            force_s3_groups: None,
        }
    }
}

/// Hybrid group-by (paper §VI-B). Only single-column grouping is
/// supported (as in the paper's workloads).
pub fn hybrid(ctx: &QueryContext, q: &GroupByQuery, opts: HybridOptions) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    if q.group_cols.len() != 1 {
        return Err(Error::Bind(
            "hybrid group-by supports a single grouping column".into(),
        ));
    }
    let gcol = &q.group_cols[0];

    // ---- Phase 1: sample the first ~1% of rows, count group frequency.
    // The *prefix* sample is the paper's §VI-B design ("the first 1% of
    // data") and is kept faithfully; note it shares the storage-order
    // bias the striped top-K sample fixes — on input clustered by the
    // grouping column the populous-group detection degenerates (the
    // result stays correct, only the S3/local split is suboptimal).
    // `crate::scan::select_scan_striped_limit` is the drop-in cure if
    // that workload ever matters.
    let sample_rows = ((q.table.row_count as f64 * opts.sample_fraction).ceil() as u64).max(64);
    let stmt = SelectStmt {
        items: vec![SelectItem::Expr {
            expr: Expr::col(gcol.clone()),
            alias: None,
        }],
        alias: None,
        where_clause: q.predicate.clone(),
        limit: Some(sample_rows),
    };
    let sample = select_scan(ctx, &q.table, &stmt)?;
    let mut phase1 = sample.stats;
    phase1.server_cpu_units += sample.rows.len() as u64;
    // NULL keys are never "populous": their rows stay in the tail.
    let mut freq: HashMap<Value, u64> = HashMap::new();
    for r in sample.rows.iter().filter(|r| !r[0].is_null()) {
        *freq.entry(r[0].clone()).or_insert(0) += 1;
    }
    let mut by_freq: Vec<(Value, u64)> = freq.into_iter().collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
    let total: u64 = by_freq.iter().map(|(_, n)| n).sum();
    let big: Vec<Value> = match opts.force_s3_groups {
        Some(n) => by_freq.iter().take(n).map(|(v, _)| v.clone()).collect(),
        None => by_freq
            .iter()
            .filter(|(_, n)| (*n as f64) >= opts.min_share * total.max(1) as f64)
            .take(opts.max_s3_groups)
            .map(|(v, _)| v.clone())
            .collect(),
    };

    let mut metrics = QueryMetrics::new();
    metrics.push_serial("hybrid: sample", phase1);

    if big.is_empty() {
        // No populous groups: degenerate to a filtered group-by.
        let (rows, stats) = streamed_group_aggregate(ctx, q, q.predicate.clone())?;
        metrics.push_serial("filtered group-by", stats);
        return Ok(QueryOutput {
            schema: q.output_schema()?,
            rows,
            metrics,
            billed: ctx.billed(),
        });
    }

    // ---- Phase 2 (two concurrent requests, paper Listing 5):
    // Q1: pushed CASE-WHEN aggregation of the large groups.
    let mut s3_stats = PhaseStats::default();
    let big_keys: Vec<Vec<Value>> = big.iter().map(|v| vec![v.clone()]).collect();
    let s3_rows = case_when_aggregate(ctx, q, &big_keys, &mut s3_stats)?;

    // Q2: ship the long-tail rows (group NOT IN big) and aggregate locally.
    // `g NOT IN (…)` is never true for a NULL `g`, so the NULL-key rows —
    // a tail group like any other — are asked for by name wherever the
    // column can hold one.
    let tail_pred = {
        let gcol = || Box::new(Expr::col(gcol.clone()));
        let not_in = Expr::InList {
            expr: gcol(),
            list: big.iter().map(|v| Expr::Literal(v.clone())).collect(),
            negated: true,
        };
        let tail = if q.may_be_null(&q.group_cols[0]) {
            let is_null = Expr::IsNull {
                expr: gcol(),
                negated: false,
            };
            Expr::or(not_in, is_null)
        } else {
            not_in
        };
        match &q.predicate {
            Some(p) => Expr::and(p.clone(), tail),
            None => tail,
        }
    };
    // The long tail streams straight into local group accumulators.
    let (tail_rows, server_stats) = streamed_group_aggregate(ctx, q, Some(tail_pred))?;

    metrics.push_parallel(vec![
        ("hybrid: s3-side aggregation".into(), s3_stats),
        ("hybrid: server-side aggregation".into(), server_stats),
    ]);

    // Large and tail groups are disjoint: concatenate and sort.
    let mut rows = s3_rows;
    rows.extend(tail_rows);
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    Ok(QueryOutput {
        schema: q.output_schema()?,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use crate::planner::tests::run_candidate;
    use pushdown_s3::S3Store;
    use pushdown_sql::parse_expr;

    /// The planner's candidate `name` of `q`'s statement: the one-scan
    /// group-bys are trees of IR operators, compared here with the
    /// algorithms of this module.
    fn candidate(ctx: &QueryContext, q: &GroupByQuery, name: &str) -> Result<QueryOutput> {
        let aggs = q
            .aggs
            .iter()
            .map(|(f, c)| format!("{}({})", f.name(), c.as_deref().unwrap_or("*")));
        let items: Vec<String> = q.group_cols.iter().cloned().chain(aggs).collect();
        let pred = q
            .predicate
            .as_ref()
            .map_or(String::new(), |p| format!(" WHERE {p}"));
        let keys = q.group_cols.join(", ");
        let sql = format!("SELECT {} FROM t{pred} GROUP BY {keys}", items.join(", "));
        run_candidate(ctx, &q.table, &sql, name)
    }

    fn server_side(ctx: &QueryContext, q: &GroupByQuery) -> Result<QueryOutput> {
        candidate(ctx, q, "server-side")
    }

    fn filtered(ctx: &QueryContext, q: &GroupByQuery) -> Result<QueryOutput> {
        candidate(ctx, q, "filtered")
    }

    /// Synthetic table: group column with a skewed distribution plus two
    /// value columns.
    fn setup(n: usize, n_groups: i64, skewed: bool) -> (QueryContext, GroupByQuery) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("v", DataType::Float),
            ("w", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let g = if skewed {
                    // ~half the rows in group 0, quarter in 1, ...
                    let mut x = i;
                    let mut g = 0;
                    while x % 2 == 1 && g < n_groups - 1 {
                        x /= 2;
                        g += 1;
                    }
                    g
                } else {
                    (i as i64) % n_groups
                };
                Row::new(vec![
                    Value::Int(g),
                    Value::Float((i as f64 * 7.0) % 103.0),
                    Value::Int((i as i64 * 13) % 17),
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 256).unwrap();
        let q = GroupByQuery {
            table: t,
            group_cols: vec!["g".into()],
            aggs: vec![
                (AggFunc::Sum, Some("v".into())),
                (AggFunc::Count, Some("w".into())),
                (AggFunc::Min, Some("w".into())),
                (AggFunc::Max, Some("v".into())),
                (AggFunc::Avg, Some("v".into())),
            ],
            predicate: None,
        };
        (QueryContext::new(store), q)
    }

    fn assert_rows_close(a: &[Row], b: &[Row]) {
        assert_eq!(a.len(), b.len(), "row counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.len(), y.len());
            for (vx, vy) in x.values().iter().zip(y.values()) {
                match (vx, vy) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert!((fx - fy).abs() <= 1e-6 * (1.0 + fx.abs()), "{fx} vs {fy}");
                    }
                    _ => assert_eq!(vx, vy),
                }
            }
        }
    }

    #[test]
    fn all_four_algorithms_agree_uniform() {
        let (ctx, q) = setup(2000, 8, false);
        let a = server_side(&ctx, &q).unwrap();
        let b = filtered(&ctx, &q).unwrap();
        let c = s3_side(&ctx, &q).unwrap();
        let d = hybrid(&ctx, &q, HybridOptions::default()).unwrap();
        assert_eq!(a.rows.len(), 8);
        assert_rows_close(&a.rows, &b.rows);
        assert_rows_close(&a.rows, &c.rows);
        assert_rows_close(&a.rows, &d.rows);
        assert_eq!(a.schema, q.output_schema().unwrap());
        assert_eq!(c.schema, a.schema);
    }

    #[test]
    fn all_four_algorithms_agree_skewed() {
        let (ctx, q) = setup(3000, 10, true);
        let a = server_side(&ctx, &q).unwrap();
        let b = filtered(&ctx, &q).unwrap();
        let c = s3_side(&ctx, &q).unwrap();
        let d = hybrid(&ctx, &q, HybridOptions::default()).unwrap();
        assert_rows_close(&a.rows, &b.rows);
        assert_rows_close(&a.rows, &c.rows);
        assert_rows_close(&a.rows, &d.rows);
    }

    #[test]
    fn predicate_applies_in_every_algorithm() {
        let (ctx, mut q) = setup(2000, 5, false);
        q.predicate = Some(parse_expr("w < 9").unwrap());
        let a = server_side(&ctx, &q).unwrap();
        let b = filtered(&ctx, &q).unwrap();
        let c = s3_side(&ctx, &q).unwrap();
        let d = hybrid(&ctx, &q, HybridOptions::default()).unwrap();
        assert_rows_close(&a.rows, &b.rows);
        assert_rows_close(&a.rows, &c.rows);
        assert_rows_close(&a.rows, &d.rows);
    }

    #[test]
    fn filtered_returns_fewer_bytes_than_server() {
        let (ctx, q) = setup(2000, 4, false);
        let a = server_side(&ctx, &q).unwrap();
        let b = filtered(&ctx, &q).unwrap();
        // Server-side ships the whole table as plain bytes; filtered ships
        // a column subset via select.
        assert!(b.metrics.usage().select_returned_bytes < a.metrics.usage().plain_bytes);
    }

    #[test]
    fn s3_side_charges_expression_terms() {
        let (ctx, q) = setup(2000, 32, false);
        let c = s3_side(&ctx, &q).unwrap();
        // 32 groups × 5 aggregates, each with a comparison + arm ≥ 2 terms.
        let max_terms = c
            .metrics
            .groups
            .iter()
            .flat_map(|g| g.phases.iter())
            .map(|p| p.stats.expr_terms)
            .max()
            .unwrap();
        assert!(max_terms >= 64, "expr terms {max_terms}");
    }

    #[test]
    fn s3_side_chunks_when_sql_would_exceed_limit() {
        let (mut ctx, q) = setup(1000, 40, false);
        // Squeeze the limit so phase 2 must split into several statements.
        let store = ctx.store.clone();
        ctx.engine = pushdown_select::S3SelectEngine::with_limits(
            store,
            pushdown_select::SelectLimits {
                max_sql_bytes: 4 * 1024,
            },
        );
        let a = server_side(&ctx, &q).unwrap();
        let c = s3_side(&ctx, &q).unwrap();
        assert_rows_close(&a.rows, &c.rows);
        // More than one phase-2 select per partition proves chunking.
        let parts = q.table.partitions(&ctx.store).len() as u64;
        let phase2_requests: u64 = c.metrics.groups[1]
            .phases
            .iter()
            .map(|p| p.stats.requests)
            .sum();
        assert!(phase2_requests > parts, "{phase2_requests} vs {parts}");
    }

    #[test]
    fn hybrid_pushes_populous_groups_only() {
        let (ctx, q) = setup(4000, 12, true);
        let out = hybrid(&ctx, &q, HybridOptions::default()).unwrap();
        // There must be both an s3-side and a server-side phase.
        let labels: Vec<String> = out
            .metrics
            .groups
            .iter()
            .flat_map(|g| g.phases.iter().map(|p| p.label.clone()))
            .collect();
        assert!(labels.iter().any(|l| l.contains("s3-side")));
        assert!(labels.iter().any(|l| l.contains("server-side")));
        assert!(labels.iter().any(|l| l.contains("sample")));
    }

    #[test]
    fn hybrid_uniform_degenerates_to_filtered() {
        // 100 uniform groups: none reaches the 2% share threshold cap...
        // each has exactly 1% share < 2% -> no big groups -> filtered path.
        let (ctx, q) = setup(5000, 100, false);
        let out = hybrid(&ctx, &q, HybridOptions::default()).unwrap();
        let labels: Vec<String> = out
            .metrics
            .groups
            .iter()
            .flat_map(|g| g.phases.iter().map(|p| p.label.clone()))
            .collect();
        assert!(labels.iter().any(|l| l.contains("filtered")));
        let a = server_side(&ctx, &q).unwrap();
        assert_rows_close(&a.rows, &out.rows);
    }

    #[test]
    fn hybrid_force_groups_controls_split() {
        let (ctx, q) = setup(3000, 10, true);
        for n in [1usize, 4, 8] {
            let out = hybrid(
                &ctx,
                &q,
                HybridOptions {
                    force_s3_groups: Some(n),
                    ..Default::default()
                },
            )
            .unwrap();
            let a = server_side(&ctx, &q).unwrap();
            assert_rows_close(&a.rows, &out.rows);
        }
    }

    #[test]
    fn hybrid_rejects_multi_column_groups() {
        let (ctx, mut q) = setup(100, 4, false);
        q.group_cols.push("w".into());
        assert!(hybrid(&ctx, &q, HybridOptions::default()).is_err());
        // But s3-side supports multi-column grouping.
        let a = server_side(&ctx, &q).unwrap();
        let c = s3_side(&ctx, &q).unwrap();
        assert_rows_close(&a.rows, &c.rows);
    }

    #[test]
    fn empty_group_results() {
        let (ctx, mut q) = setup(500, 4, false);
        q.predicate = Some(parse_expr("w > 100000").unwrap());
        for out in [
            server_side(&ctx, &q).unwrap(),
            filtered(&ctx, &q).unwrap(),
            s3_side(&ctx, &q).unwrap(),
            hybrid(&ctx, &q, HybridOptions::default()).unwrap(),
        ] {
            assert!(out.rows.is_empty(), "{:?}", out.rows);
        }
    }
}
