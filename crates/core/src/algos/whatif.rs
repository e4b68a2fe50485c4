//! What-if variants of the §IV-A indexed filter, one per §X suggestion
//! that concerns it.
//!
//! Section X of the paper lists five suggestions — concrete service changes that
//! would make pushdown more effective. The two functions here run the
//! indexed filter against the *extended* engine so the ablation harness
//! can quantify what AWS would have bought the paper's authors:
//!
//! * [`indexed_multirange`] — Suggestion 1: multiple byte ranges per GET;
//! * [`indexed_in_s3`] — Suggestion 2: the whole index lookup inside S3.
//!
//! The other suggestions are no algorithms of their own. Suggestion 3 —
//! bitwise Bloom probes (`BIT_AT` over hex) instead of `SUBSTRING` over
//! `'0'/'1'` strings: the plan IR's
//! [`BloomJoin`](crate::plan::PlanOp::BloomJoin) ships the denser
//! encoding whenever the context's engine carries the `bitwise`
//! extension. Suggestion 4 — partial group-by in S3: under the
//! `native_group_by` extension a GROUP BY statement has an `s3-native`
//! candidate, a [`PushdownAggregate`](crate::plan::PlanOp::PushdownAggregate)
//! leaf with a grouping list. Suggestion 5, computation-aware *pricing*,
//! changes no algorithm either — see the `ablation_suggestions` harness
//! in `pushdown-bench`.

use crate::algos::filter::FilterQuery;
use crate::catalog::Table;
use crate::context::QueryContext;
use crate::index::IndexTable;
use crate::metrics::QueryMetrics;
use crate::ops;
use crate::output::QueryOutput;
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Error, Result, Row, Value};
use pushdown_select::{EngineExtensions, S3SelectEngine};
use pushdown_sql::{Expr, SelectItem, SelectStmt};

/// How many ranges to pack into one multipart GET. HTTP has no hard
/// limit; we batch conservatively.
const RANGES_PER_REQUEST: usize = 256;

fn extended_engine(ctx: &QueryContext) -> S3SelectEngine {
    ctx.engine.clone().with_extensions(EngineExtensions {
        index_in_s3: true,
        ..Default::default()
    })
}

/// Suggestion 1: the §IV-A indexed filter, but phase 2 packs up to
/// `RANGES_PER_REQUEST` (256) byte ranges into each GET. Request count drops
/// by that factor; everything else is identical to
/// [`crate::algos::filter::indexed`].
pub fn indexed_multirange(
    ctx: &QueryContext,
    idx: &IndexTable,
    q: &FilterQuery,
) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    let mut refs = Vec::new();
    q.predicate.referenced_columns(&mut refs);
    if !(refs.len() == 1 && refs[0].eq_ignore_ascii_case(&idx.column)) {
        return Err(Error::Bind(format!(
            "indexed filter supports predicates on `{}` only",
            idx.column
        )));
    }
    let index_pred = super::filter::rename_column(&q.predicate, &idx.column, "value");

    // Phase 1: unchanged index lookup.
    let lookup = SelectStmt {
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
    let mut per_partition: Vec<Vec<(u64, u64)>> = vec![Vec::new(); data_parts.len()];
    for (p, ikey) in index_parts.iter().enumerate() {
        let resp = ctx.engine.select_stmt(
            &idx.index.bucket,
            ikey,
            &lookup,
            &idx.index.schema,
            idx.index.format,
        )?;
        phase1.requests += u64::from(resp.stats.attempts.max(1));
        phase1.s3_scanned_bytes += resp.stats.bytes_scanned;
        phase1.select_returned_bytes += resp.stats.bytes_returned;
        for row in resp.rows()? {
            per_partition[p].push((row[0].as_i64()? as u64, row[1].as_i64()? as u64));
        }
    }
    phase1.server_cpu_units += per_partition.iter().map(|v| v.len() as u64).sum::<u64>();

    // Phase 2: batched multipart GETs.
    let mut phase2 = PhaseStats::default();
    let mut rows: Vec<Row> = Vec::new();
    for (p, ranges) in per_partition.iter().enumerate() {
        for batch in ranges.chunks(RANGES_PER_REQUEST) {
            let fetched = ctx.store.get_object_ranges_with(
                &idx.data.bucket,
                &data_parts[p],
                batch,
                &ctx.retry,
            )?;
            phase2.point_requests += u64::from(fetched.attempts);
            for slice in fetched.value {
                phase2.plain_bytes += slice.len() as u64;
                phase2.server_cpu_units += 1;
                let line = std::str::from_utf8(&slice)
                    .map_err(|_| Error::Corrupt("non-UTF8 record".into()))?;
                let fields = pushdown_format::csv::split_line(line.trim_end_matches(['\n', '\r']))?;
                let mut vals = Vec::with_capacity(fields.len());
                for (i, f) in fields.iter().enumerate() {
                    vals.push(Value::parse_typed(f, idx.data.schema.dtype_of(i))?);
                }
                rows.push(Row::new(vals));
            }
        }
    }

    let (schema, rows) = apply_projection(&idx.data, q, rows, &mut phase2)?;
    let mut metrics = QueryMetrics::new();
    metrics.push_serial("index lookup", phase1);
    metrics.push_serial("row fetch (multi-range)", phase2);
    Ok(QueryOutput {
        schema,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

/// Suggestion 2: the index lookup runs entirely inside the storage
/// service — one `select_indexed` request per partition, no per-row GETs
/// at all.
pub fn indexed_in_s3(ctx: &QueryContext, idx: &IndexTable, q: &FilterQuery) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    let mut refs = Vec::new();
    q.predicate.referenced_columns(&mut refs);
    if !(refs.len() == 1 && refs[0].eq_ignore_ascii_case(&idx.column)) {
        return Err(Error::Bind(format!(
            "indexed filter supports predicates on `{}` only",
            idx.column
        )));
    }
    let pred = super::filter::rename_column(&q.predicate, &idx.column, "value");
    let engine = extended_engine(ctx);

    let mut stats = PhaseStats::default();
    let mut rows = Vec::new();
    let index_parts = idx.index.partitions(&ctx.store);
    let data_parts = idx.data.partitions(&ctx.store);
    for (ikey, dkey) in index_parts.iter().zip(&data_parts) {
        let resp = engine.select_indexed(
            &idx.index.bucket,
            ikey,
            dkey,
            &idx.index.schema,
            &idx.data.schema,
            &pred,
        )?;
        stats.requests += u64::from(resp.stats.attempts.max(1));
        stats.s3_scanned_bytes += resp.stats.bytes_scanned;
        stats.select_returned_bytes += resp.stats.bytes_returned;
        stats.server_cpu_units += resp.stats.records_returned;
        rows.extend(resp.rows()?);
    }

    let (schema, rows) = apply_projection(&idx.data, q, rows, &mut stats)?;
    let mut metrics = QueryMetrics::new();
    metrics.push_serial("index lookup in S3", stats);
    Ok(QueryOutput {
        schema,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

fn apply_projection(
    table: &Table,
    q: &FilterQuery,
    rows: Vec<Row>,
    stats: &mut PhaseStats,
) -> Result<(pushdown_common::Schema, Vec<Row>)> {
    match &q.projection {
        None => Ok((table.schema.clone(), rows)),
        Some(cols) => {
            let idx: Result<Vec<usize>> = cols.iter().map(|c| table.schema.resolve(c)).collect();
            let idx = idx?;
            Ok((
                table.schema.project(&idx),
                ops::project_rows(rows, &idx, stats),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::filter;
    use crate::catalog::upload_csv_table;
    use crate::index::build_index;
    use crate::planner::run_candidate;
    use pushdown_common::{DataType, Schema};
    use pushdown_s3::S3Store;
    use pushdown_sql::parse_expr;

    fn filter_setup(n: usize) -> (QueryContext, Table, IndexTable) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("payload-{i}"))]))
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, n / 4 + 1).unwrap();
        let ctx = QueryContext::new(store);
        let idx = build_index(&ctx, &t, "k").unwrap();
        (ctx, t, idx)
    }

    #[test]
    fn suggestion1_multirange_same_rows_fewer_requests() {
        let (ctx, t, idx) = filter_setup(2_000);
        let q = filter::FilterQuery {
            table: t,
            predicate: parse_expr("k >= 100 AND k < 700").unwrap(),
            projection: None,
        };
        let stock = filter::indexed(&ctx, &idx, &q).unwrap();
        let multi = indexed_multirange(&ctx, &idx, &q).unwrap();
        assert_eq!(stock.rows, multi.rows);
        let stock_u = stock.metrics.usage();
        let multi_u = multi.metrics.usage();
        // 600 per-row GETs collapse into ceil-per-batch requests.
        assert_eq!(stock_u.requests, 4 + 600);
        assert!(
            multi_u.requests < stock_u.requests / 50,
            "{}",
            multi_u.requests
        );
        // Same bytes either way.
        assert_eq!(stock_u.plain_bytes, multi_u.plain_bytes);
        // And the model rewards it.
        assert!(multi.runtime(&ctx) < stock.runtime(&ctx));
    }

    #[test]
    fn suggestion2_index_in_s3_same_rows_one_request_per_partition() {
        let (ctx, t, idx) = filter_setup(2_000);
        let q = filter::FilterQuery {
            table: t.clone(),
            predicate: parse_expr("k >= 100 AND k < 700").unwrap(),
            projection: Some(vec!["s".into()]),
        };
        let stock = filter::indexed(&ctx, &idx, &q).unwrap();
        let in_s3 = indexed_in_s3(&ctx, &idx, &q).unwrap();
        assert_eq!(stock.rows, in_s3.rows);
        assert_eq!(
            in_s3.metrics.usage().requests,
            t.partitions(&ctx.store).len() as u64
        );
        assert_eq!(in_s3.metrics.usage().plain_bytes, 0);
    }

    /// A two-table join and the Bloom candidate of its `SUM` statement:
    /// the build side `l` is the FROM table, `r` is in the catalog.
    fn join_setup() -> (QueryContext, Table) {
        let store = S3Store::new();
        let ls = Schema::from_pairs(&[("lk", DataType::Int), ("bal", DataType::Float)]);
        let lrows: Vec<Row> = (0..400)
            .map(|i| Row::new(vec![Value::Int(i), Value::Float((i % 100) as f64 - 50.0)]))
            .collect();
        let rs = Schema::from_pairs(&[("rk", DataType::Int), ("price", DataType::Float)]);
        let rrows: Vec<Row> = (0..4_000)
            .map(|i| Row::new(vec![Value::Int(i % 500), Value::Float(i as f64)]))
            .collect();
        let left = upload_csv_table(&store, "b", "l", &ls, &lrows, 200).unwrap();
        let right = upload_csv_table(&store, "b", "r", &rs, &rrows, 1_000).unwrap();
        (QueryContext::new(store).with_tables([right]), left)
    }

    /// Run the named join candidate of the fixture's statement; returns
    /// the `SUM` and the label of the phase the probe scan runs in.
    fn run_join(ctx: &QueryContext, left: &Table, name: &str) -> (f64, String) {
        let sql = "SELECT SUM(price) FROM l JOIN r ON lk = rk WHERE bal < -40";
        let spec = pushdown_sql::parse_query(sql).unwrap();
        let candidates = crate::joinplan::lower_candidates(ctx, left, &spec).unwrap();
        let (_, plan) = candidates.iter().find(|(n, _)| *n == name).unwrap();
        let out = crate::plan::execute(&ctx.scoped(), plan).unwrap();
        let probe = out.metrics.groups[1].phases[0].label.clone();
        (out.rows[0][0].as_f64().unwrap(), probe)
    }

    /// The same context, its engine carrying the `bitwise` extension.
    fn bitwise(ctx: &QueryContext) -> QueryContext {
        let mut extended = ctx.clone();
        extended.engine = ctx.engine.clone().with_extensions(EngineExtensions {
            bitwise: true,
            ..Default::default()
        });
        extended
    }

    #[test]
    fn suggestion3_binary_bloom_matches_and_shrinks_sql() {
        let (ctx, left) = join_setup();
        let (stock, _) = run_join(&ctx, &left, "bloom");
        let (binary, probe) = run_join(&bitwise(&ctx), &left, "bloom");
        assert!((stock - binary).abs() < 1e-6);
        assert!(probe.starts_with("bloom probe r"), "{probe}");
        // Four filter bits per SQL character instead of one.
        let mut f = pushdown_bloom::BloomFilter::with_rate(500, 0.01, 1);
        (0..500).for_each(|k| f.insert(k));
        let binary_sql = f.sql_predicate_binary("rk").to_string();
        assert!(binary_sql.len() * 3 < f.sql_predicate("rk").to_string().len());
        // The stock engine refuses BIT_AT.
        let right = ctx.catalog.resolve("r").unwrap();
        let sql = format!("SELECT rk FROM S3Object WHERE {binary_sql}");
        let err = ctx
            .engine
            .select("b", "r/part-00000.csv", &sql, &right.schema, right.format)
            .unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
    }

    #[test]
    fn suggestion3_binary_bloom_survives_where_string_bloom_degrades() {
        let (mut ctx, left) = join_setup();
        // A budget the string filter cannot meet at the requested rate.
        ctx.bloom.max_sql_bytes = 1_200;
        let (string, probe) = run_join(&ctx, &left, "bloom");
        assert!(
            probe.starts_with("bloom probe (fpr 0.01 degraded to ")
                || probe.starts_with("fallback probe"),
            "{probe}"
        );
        // The 4x denser binary encoding still fits and still agrees.
        let (binary, probe) = run_join(&bitwise(&ctx), &left, "bloom");
        assert!(probe.starts_with("bloom probe r"), "{probe}");
        let (reference, _) = run_join(&ctx, &left, "baseline");
        assert!((binary - reference).abs() < 1e-6);
        assert!((string - reference).abs() < 1e-6);
    }

    #[test]
    fn suggestion4_native_groupby_matches_case_when() {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
        let rows: Vec<Row> = (0..2_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i % 37) as i64),
                    Value::Float((i as f64 * 1.3) % 211.0),
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 700).unwrap();
        let mut ctx = QueryContext::new(store);
        let sql = "SELECT g, SUM(v), COUNT(v), AVG(v), MIN(v) FROM t WHERE v > 10 GROUP BY g";
        // The stock engine has no such candidate.
        assert!(run_candidate(&ctx, &t, sql, "s3-native", None).is_err());
        ctx.engine = ctx.engine.clone().with_extensions(EngineExtensions {
            native_group_by: true,
            ..Default::default()
        });
        let case_when = run_candidate(&ctx, &t, sql, "s3-side", None).unwrap();
        let native = run_candidate(&ctx, &t, sql, "s3-native", None).unwrap();
        assert_eq!(native.metrics.usage(), native.billed);
        assert_eq!(native.schema, case_when.schema);
        assert_eq!(case_when.rows.len(), native.rows.len());
        for (a, b) in case_when.rows.iter().zip(&native.rows) {
            for (x, y) in a.values().iter().zip(b.values()) {
                match (x, y) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert!((fx - fy).abs() < 1e-6 * (1.0 + fx.abs()))
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
        // The native statement is tiny: far fewer expression terms reach
        // the scanner, so the modeled scan is faster.
        let native_terms = native.metrics.groups[0].phases[0].stats.expr_terms;
        let case_terms = case_when.metrics.groups[1].phases[0].stats.expr_terms;
        assert!(
            native_terms * 5 < case_terms,
            "native {native_terms} vs case-when {case_terms}"
        );
        assert!(native.runtime(&ctx) < case_when.runtime(&ctx));
    }

    #[test]
    fn stock_engine_refuses_native_groupby() {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int)]);
        let rows = vec![Row::new(vec![Value::Int(1)])];
        upload_csv_table(&store, "b", "t", &schema, &rows, 10).unwrap();
        let ctx = QueryContext::new(store);
        let ext = pushdown_sql::parser::parse_select_extended(
            "SELECT g, COUNT(*) FROM S3Object GROUP BY g",
        )
        .unwrap();
        let err = ctx
            .engine
            .select_grouped(
                "b",
                "t/part-00000.csv",
                &ext,
                &schema,
                pushdown_select::InputFormat::Csv,
            )
            .unwrap_err();
        assert_eq!(err.code(), "SelectRejected");
    }
}
