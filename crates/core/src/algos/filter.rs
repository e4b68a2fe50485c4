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
//!
//! Section X of the paper lists five suggestions — service changes that
//! would make pushdown more effective. Two concern the indexed filter and
//! are fetch modes of it ([`RowFetch`]), so the ablation harness can
//! price what they would buy: Suggestion 1, many byte ranges per GET, and
//! Suggestion 2, the whole lookup inside S3.
//!
//! The other suggestions are no algorithms of their own. Suggestion 3 —
//! bitwise Bloom probes (`BIT_AT` over hex) instead of `SUBSTRING` over
//! `'0'/'1'` strings: the plan IR's
//! [`BloomJoin`](crate::plan::PlanOp::BloomJoin) ships the denser
//! encoding whenever the context's engine carries the `bitwise`
//! extension. Suggestion 4 — partial group-by in S3: under the
//! `native_group_by` extension the `filtered` group-by's engine folds
//! each partition's groups, the statement shipped whole — where a
//! grouping operator folds is `plan::grouped_leaf`'s one rule.
//! Suggestion 5, computation-aware *pricing*,
//! changes no algorithm either — see `experiments::ablation::pricing_figure`
//! in `pushdown-bench`.

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::index::IndexTable;
use crate::metrics::QueryMetrics;
use crate::ops;
use crate::output::QueryOutput;
use crate::scan::accumulate_response;
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Error, Result, Row};
use pushdown_format::csv::decode_record;
use pushdown_select::EngineExtensions;
use pushdown_sql::{Expr, SelectItem, SelectStmt};

/// The argument of [`indexed`], Fig 1's private helper: predicate plus
/// optional projection (None = `*`). The planner's filter candidates take
/// SQL, not this.
#[derive(Debug, Clone)]
pub struct FilterQuery {
    pub table: Table,
    pub predicate: Expr,
    pub projection: Option<Vec<String>>,
}

/// How [`indexed`] gets the records its index lookup names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFetch {
    /// Stock S3 (§IV-A): one ranged GET per record, since S3 permits one
    /// range per request.
    PerRow,
    /// §X Suggestion 1: up to 256 ranges per GET.
    MultiRange,
    /// §X Suggestion 2: the lookup follows its offsets inside the storage
    /// service — one `select_indexed` request per partition, no GET.
    InS3,
}

/// How many ranges one [`RowFetch::MultiRange`] GET carries. HTTP has no
/// hard limit; we batch conservatively.
const RANGES_PER_REQUEST: usize = 256;

/// Indexed filter (paper §IV-A): phase 1 pushes the predicate (rewritten
/// onto the index table's `value` column) into S3 Select; phase 2 fetches
/// the qualifying records with ranged GETs, as `fetch` says. Under
/// [`RowFetch::InS3`] the two run as one storage-side request per
/// partition.
///
/// The predicate must reference only the indexed column, and the index
/// must have one partition per data partition.
pub fn indexed(
    ctx: &QueryContext,
    idx: &IndexTable,
    q: &FilterQuery,
    fetch: RowFetch,
) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    let mut refs = Vec::new();
    q.predicate.referenced_columns(&mut refs);
    if !(refs.len() == 1 && refs[0].eq_ignore_ascii_case(&idx.column)) {
        return Err(Error::Bind(format!(
            "indexed filter supports predicates on `{}` only, found columns {refs:?}",
            idx.column
        )));
    }
    let value_pred = rename_column(&q.predicate, &idx.column, "value");
    let index_parts = idx.index.partitions(&ctx.store);
    let data_parts = idx.data.partitions(&ctx.store);
    if index_parts.len() != data_parts.len() {
        return Err(Error::Corrupt(
            "index/data partition mismatch; rebuild the index".into(),
        ));
    }

    let mut lookup = PhaseStats::default();
    let mut fetched = PhaseStats::default();
    let mut rows: Vec<Row> = Vec::new();
    if fetch == RowFetch::InS3 {
        let engine = ctx.engine.clone().with_extensions(EngineExtensions {
            index_in_s3: true,
            ..Default::default()
        });
        for (ikey, dkey) in index_parts.iter().zip(&data_parts) {
            let resp = engine.select_indexed(
                &idx.index.bucket,
                ikey,
                dkey,
                &idx.index.schema,
                &idx.data.schema,
                &value_pred,
            )?;
            accumulate_response(&mut lookup, &resp);
            rows.extend(resp.rows()?);
        }
    } else {
        // ---- Phase 1: one lookup per index partition (offsets must stay
        // associated with their data partition).
        let column = |name: &str| SelectItem::Expr {
            expr: Expr::col(name),
            alias: None,
        };
        let stmt = SelectStmt {
            items: vec![column("first_byte_offset"), column("last_byte_offset")],
            alias: None,
            where_clause: Some(value_pred),
            limit: None,
        };
        let mut ranges: Vec<Vec<(u64, u64)>> = Vec::with_capacity(index_parts.len());
        for ikey in &index_parts {
            let resp = ctx.engine.select_stmt(
                &idx.index.bucket,
                ikey,
                &stmt,
                &idx.index.schema,
                idx.index.format,
            )?;
            accumulate_response(&mut lookup, &resp);
            let hits = resp.rows()?.into_iter();
            ranges.push(
                hits.map(|r| Ok((r[0].as_i64()? as u64, r[1].as_i64()? as u64)))
                    .collect::<Result<_>>()?,
            );
        }

        // ---- Phase 2: the ranged GETs, each range one record.
        let per_request = match fetch {
            RowFetch::MultiRange => RANGES_PER_REQUEST,
            _ => 1,
        };
        for (ranges, dkey) in ranges.iter().zip(&data_parts) {
            for batch in ranges.chunks(per_request) {
                let got = ctx.store.get_object_ranges_with(
                    &idx.data.bucket,
                    dkey,
                    batch,
                    ctx.engine.retry(),
                )?;
                fetched.point_requests += u64::from(got.attempts);
                for record in got.value {
                    fetched.plain_bytes += record.len() as u64;
                    fetched.server_cpu_units += 1;
                    rows.push(decode_record(&record, &idx.data.schema)?);
                }
            }
        }
    }

    // Projection, charged to the last phase.
    let last = match fetch {
        RowFetch::InS3 => &mut lookup,
        _ => &mut fetched,
    };
    let (schema, rows) = match &q.projection {
        None => (idx.data.schema.clone(), rows),
        Some(cols) => {
            let pidx: Result<Vec<usize>> =
                cols.iter().map(|c| idx.data.schema.resolve(c)).collect();
            let pidx = pidx?;
            (
                idx.data.schema.project(&pidx),
                ops::project_rows(rows, &pidx, last),
            )
        }
    };

    let mut metrics = QueryMetrics::new();
    if fetch == RowFetch::InS3 {
        metrics.push_serial("index lookup in S3", lookup);
    } else {
        metrics.push_serial("index lookup", lookup);
        metrics.push_serial("row fetch", fetched);
    }
    Ok(QueryOutput {
        schema,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

/// Rewrite every reference to `from` into `to`.
pub(crate) fn rename_column(e: &Expr, from: &str, to: &str) -> Expr {
    let mut e = e.clone();
    e.walk_mut(&mut |e| match e {
        Expr::Column(n) if n.eq_ignore_ascii_case(from) => *n = to.to_string(),
        _ => {}
    });
    e
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
        let c = indexed(&ctx, &idx, &query, RowFetch::PerRow).unwrap();
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
        let c = indexed(&ctx, &idx, &query, RowFetch::PerRow).unwrap();
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
        let ix = indexed(&ctx, &idx, &query, RowFetch::PerRow).unwrap();
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
        let narrow = indexed(&ctx, &idx, &q(&t, "k < 10", None), RowFetch::PerRow).unwrap();
        let wide = indexed(&ctx, &idx, &q(&t, "k < 500", None), RowFetch::PerRow).unwrap();
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
        assert!(indexed(&ctx, &idx, &bad, RowFetch::PerRow).is_err());
        let mixed = q(&t, "k > 1 AND v > 1.0", None);
        assert!(indexed(&ctx, &idx, &mixed, RowFetch::PerRow).is_err());
    }

    #[test]
    fn empty_result_sets() {
        let (ctx, t) = setup(50);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let query = q(&t, "k > 100000", None);
        let (server, s3) = server_and_s3(&ctx, &query);
        assert!(server.rows.is_empty());
        assert!(s3.rows.is_empty());
        assert!(indexed(&ctx, &idx, &query, RowFetch::PerRow)
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    pub(crate) fn rename_column_rewrites_deeply() {
        let e = parse_expr("k > 1 AND (k < 5 OR k IN (7, 8)) AND k BETWEEN 0 AND 9").unwrap();
        let r = rename_column(&e, "k", "value");
        let mut refs = Vec::new();
        r.referenced_columns(&mut refs);
        assert_eq!(refs, vec!["value".to_string()]);
    }

    const FETCHES: [RowFetch; 3] = [RowFetch::PerRow, RowFetch::MultiRange, RowFetch::InS3];

    /// A (k, s) table of `n` rows in four partitions, indexed on `k`.
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
        let q = FilterQuery {
            table: t,
            predicate: parse_expr("k >= 100 AND k < 700").unwrap(),
            projection: None,
        };
        let stock = indexed(&ctx, &idx, &q, RowFetch::PerRow).unwrap();
        let multi = indexed(&ctx, &idx, &q, RowFetch::MultiRange).unwrap();
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
        let q = FilterQuery {
            table: t.clone(),
            predicate: parse_expr("k >= 100 AND k < 700").unwrap(),
            projection: Some(vec!["s".into()]),
        };
        let stock = indexed(&ctx, &idx, &q, RowFetch::PerRow).unwrap();
        let in_s3 = indexed(&ctx, &idx, &q, RowFetch::InS3).unwrap();
        assert_eq!(stock.rows, in_s3.rows);
        assert_eq!(
            in_s3.metrics.usage().requests,
            t.partitions(&ctx.store).len() as u64
        );
        assert_eq!(in_s3.metrics.usage().plain_bytes, 0);
    }

    /// An index with one partition more than its data is refused under
    /// every fetch mode: no panic, no answer.
    #[test]
    fn stale_index_with_an_extra_partition_is_corrupt() {
        let (ctx, t) = setup(300);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let parts = idx.index.partitions(&ctx.store);
        let last = ctx
            .store
            .raw_object(&idx.index.bucket, &parts[parts.len() - 1]);
        let extra = format!("{}/part-99999.csv", idx.index.prefix);
        ctx.store
            .put_object(&idx.index.bucket, &extra, last.unwrap());
        let query = q(&t, "k >= 250", None);
        for fetch in FETCHES {
            let err = indexed(&ctx, &idx, &query, fetch).unwrap_err();
            assert_eq!(err.code(), "Corrupt", "{fetch:?}: {err}");
        }
    }

    /// A data partition rewritten under its index: every indexed range
    /// still lies inside the object, but the record it holds has one
    /// field more than the schema.
    #[test]
    fn data_rewritten_under_its_index_is_corrupt() {
        let (ctx, t) = setup(300);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let key = &t.partitions(&ctx.store)[0];
        let bytes = ctx.store.raw_object(&t.bucket, key).unwrap();
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        ctx.store
            .put_object(&t.bucket, key, text.replace("row-", "ro,-").into_bytes());
        let query = q(&t, "k < 5", None);
        for fetch in FETCHES {
            let err = indexed(&ctx, &idx, &query, fetch).unwrap_err();
            assert_eq!(err.code(), "Corrupt", "{fetch:?}: {err}");
        }
    }

    /// With no hit there is nothing to fetch, so the one-range and the
    /// many-range fetch cost the same: the same lookup, its predicate
    /// terms included, and an empty fetch.
    #[test]
    fn a_zero_hit_lookup_costs_the_same_whatever_the_fetch() {
        let (ctx, t) = setup(300);
        let idx = build_index(&ctx, &t, "k").unwrap();
        let query = q(&t, "k > 100000", None);
        let per_row = indexed(&ctx, &idx, &query, RowFetch::PerRow).unwrap();
        let multi = indexed(&ctx, &idx, &query, RowFetch::MultiRange).unwrap();
        assert!(multi.rows.is_empty());
        assert_eq!(
            format!("{:?}", per_row.metrics),
            format!("{:?}", multi.metrics)
        );
        let lookup = &per_row.metrics.groups[0].phases[0];
        assert_eq!(lookup.label, "index lookup");
        assert_eq!(lookup.stats.expr_terms, 1);
        assert_eq!(multi.billed, per_row.billed);
    }
}
