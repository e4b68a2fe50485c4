//! Top-K algorithms (paper §VII).
//!
//! * [`server_side`] — load the table, keep a K-heap locally;
//! * [`sampling`] — two phases: (1) sample `S` rows of the ORDER BY
//!   column via S3 Select `LIMIT`, take the K-th order statistic as a
//!   *threshold*; (2) push `WHERE col <= threshold` to S3 and heap only
//!   the survivors. The sample always contains K records at or below the
//!   threshold, so the final answer is exact.
//!
//! The sampling phase **stripes** its `LIMIT` across partitions
//! (per-partition shares, [`select_scan_striped_limit`]) rather than
//! taking the table's first `S` rows: a plain `LIMIT S` is a storage-
//! order *prefix*, and on input sorted opposite to the query order the
//! phase-1 threshold degenerates until phase 2 re-fetches nearly the
//! whole table. With striping every partition contributes, so phase-2
//! traffic stays bounded regardless of how the table is ordered (the
//! regression test below pins this).
//!
//! The paper's §VII-B analysis gives the traffic-optimal sample size
//! `S* = sqrt(K·N/α)` where `α` is the fraction of each record the
//! sampling phase must read — implemented by [`optimal_sample_size`] and
//! validated against measurement in the Fig 8 harness.

use crate::catalog::Table;
use crate::context::QueryContext;
use crate::metrics::QueryMetrics;
use crate::ops;
use crate::output::QueryOutput;
use crate::scan::{
    scan, select_scan_streamed, select_scan_striped_limit, ScanFragment, ScanSource,
};
use pushdown_common::perf::PhaseStats;
use pushdown_common::{Result, Value};
use pushdown_sql::{Expr, SelectItem, SelectStmt};

/// A top-K query: `SELECT * FROM t ORDER BY col ASC|DESC LIMIT k`.
#[derive(Debug, Clone)]
pub struct TopKQuery {
    pub table: Table,
    pub order_col: String,
    pub k: usize,
    pub asc: bool,
}

/// The paper's optimal sample size `S* = sqrt(K·N/α)` (§VII-B), clamped
/// to `[10·K, N]` so the sample always dominates K and never exceeds the
/// table.
pub fn optimal_sample_size(k: usize, n: u64, alpha: f64) -> usize {
    let s = ((k as f64) * (n as f64) / alpha.clamp(0.001, 1.0)).sqrt();
    let lo = (10 * k.max(1)) as f64;
    s.max(lo).min(n as f64).ceil() as usize
}

/// Server-side top-K: full load plus a local heap — streamed. The scan
/// workers keep only each partition's K best rows, so at most K rows per
/// partition reach the query's own K-heap.
pub fn server_side(ctx: &QueryContext, q: &TopKQuery) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    let col = q.table.schema.resolve(&q.order_col)?;
    let fragment = ScanFragment::new(&q.table, None, None).top_k(col, q.k, q.asc);
    let mut heap = ops::TopKAccumulator::new(col, q.k, q.asc);
    let summary = scan(ctx, &q.table, ScanSource::Plain, &fragment, |batch| {
        // The workers charged every row of the table as a candidate.
        heap.absorb(batch.rows);
        Ok(())
    })?;
    let mut stats = summary.stats;
    stats.merge(&summary.op_stats);
    let rows = heap.finish(&mut stats);
    let mut metrics = QueryMetrics::new();
    metrics.push_serial("server-side top-k", stats);
    Ok(QueryOutput {
        schema: summary.schema,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

/// Sampling-based top-K (paper §VII-A). `sample_size = None` uses the
/// analytic optimum with `alpha` = (order column width)/(row width),
/// approximated by column count.
pub fn sampling(
    ctx: &QueryContext,
    q: &TopKQuery,
    sample_size: Option<usize>,
) -> Result<QueryOutput> {
    let ctx = &ctx.scoped();
    let alpha = 1.0 / q.table.schema.len().max(1) as f64;
    let s = sample_size
        .unwrap_or_else(|| optimal_sample_size(q.k, q.table.row_count, alpha))
        .max(q.k);

    // ---- Phase 1: sample S values of the order column, striped across
    // partitions so the sample is not a storage-order prefix.
    let sample_stmt = SelectStmt {
        items: vec![SelectItem::Expr {
            expr: Expr::col(q.order_col.clone()),
            alias: None,
        }],
        alias: None,
        where_clause: None,
        limit: None, // per-partition shares are applied by the striped scan
    };
    let sample = select_scan_striped_limit(ctx, &q.table, &sample_stmt, s)?;
    let mut phase1 = sample.stats;

    // K-th order statistic of the sample = threshold. If the sample holds
    // fewer than K rows the whole table does too; threshold = none (scan
    // everything).
    let mut vals: Vec<Value> = sample
        .rows
        .iter()
        .map(|r| r[0].clone())
        .filter(|v| !v.is_null())
        .collect();
    phase1.server_cpu_units += vals.len() as u64;
    vals.sort_by(|a, b| {
        let o = a.total_cmp(b);
        if q.asc {
            o
        } else {
            o.reverse()
        }
    });
    let threshold: Option<Value> = if vals.len() >= q.k && q.k > 0 {
        Some(vals[q.k - 1].clone())
    } else {
        None
    };

    // ---- Phase 2: fetch rows at or inside the threshold, heap locally.
    let pred = threshold.as_ref().map(|t| {
        let col = Expr::col(q.order_col.clone());
        let lit = Expr::Literal(t.clone());
        if q.asc {
            Expr::lt_eq(col, lit)
        } else {
            Expr::gt_eq(col, lit)
        }
    });
    let scan_stmt = SelectStmt {
        items: vec![SelectItem::Wildcard],
        alias: None,
        where_clause: pred,
        limit: None,
    };
    // Stream the scanning phase: survivors feed the K-heap batch-at-a-
    // time instead of materializing first.
    let col = q.table.schema.resolve(&q.order_col)?;
    let mut op_stats = PhaseStats::default();
    let mut heap = ops::TopKAccumulator::new(col, q.k, q.asc);
    let summary = select_scan_streamed(ctx, &q.table, &scan_stmt, |batch| {
        heap.push_rows(batch.rows, &mut op_stats);
        Ok(())
    })?;
    let rows = heap.finish(&mut op_stats);
    let mut phase2 = summary.stats;
    phase2.merge(&op_stats);

    let mut metrics = QueryMetrics::new();
    metrics.push_serial("sampling phase", phase1);
    metrics.push_serial("scanning phase", phase2);
    Ok(QueryOutput {
        schema: summary.schema,
        rows,
        metrics,
        billed: ctx.billed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::upload_csv_table;
    use pushdown_common::{DataType, Row, Schema};
    use pushdown_s3::S3Store;

    fn setup(n: usize) -> (QueryContext, TopKQuery) {
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("price", DataType::Float),
            ("pad", DataType::Str),
        ]);
        // Pseudo-random prices, deterministic; no natural ordering with id.
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let price = ((i as u64).wrapping_mul(2654435761) % 1_000_000) as f64 / 100.0;
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Float(price),
                    Value::Str(format!("pad-{i:08}")),
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "lineitem", &schema, &rows, 512).unwrap();
        (
            QueryContext::new(store),
            TopKQuery {
                table: t,
                order_col: "price".into(),
                k: 25,
                asc: true,
            },
        )
    }

    #[test]
    fn sampling_equals_server_side() {
        let (ctx, q) = setup(3000);
        let a = server_side(&ctx, &q).unwrap();
        let b = sampling(&ctx, &q, None).unwrap();
        assert_eq!(a.rows.len(), 25);
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x[1], y[1], "order keys must agree");
        }
    }

    #[test]
    fn descending_order_works() {
        let (ctx, mut q) = setup(2000);
        q.asc = false;
        let a = server_side(&ctx, &q).unwrap();
        let b = sampling(&ctx, &q, Some(400)).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x[1], y[1]);
        }
        // Top element is the max.
        let max = (0..2000)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 1_000_000) as f64 / 100.0)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(a.rows[0][1], Value::Float(max));
    }

    #[test]
    fn sampling_correct_across_sample_sizes() {
        let (ctx, q) = setup(4000);
        let want = server_side(&ctx, &q).unwrap();
        for s in [25usize, 100, 500, 4000, 100_000] {
            let got = sampling(&ctx, &q, Some(s)).unwrap();
            assert_eq!(got.rows.len(), want.rows.len(), "sample size {s}");
            for (x, y) in want.rows.iter().zip(&got.rows) {
                assert_eq!(x[1], y[1], "sample size {s}");
            }
        }
    }

    #[test]
    fn k_larger_than_table() {
        let (ctx, mut q) = setup(100);
        q.k = 500;
        let a = server_side(&ctx, &q).unwrap();
        let b = sampling(&ctx, &q, None).unwrap();
        assert_eq!(a.rows.len(), 100);
        assert_eq!(b.rows.len(), 100);
    }

    #[test]
    fn bigger_samples_shrink_the_scanning_phase() {
        let (ctx, q) = setup(5000);
        let small = sampling(&ctx, &q, Some(50)).unwrap();
        let big = sampling(&ctx, &q, Some(2500)).unwrap();
        let small_phase2 = small.metrics.groups[1].phases[0].stats;
        let big_phase2 = big.metrics.groups[1].phases[0].stats;
        assert!(
            big_phase2.select_returned_bytes < small_phase2.select_returned_bytes,
            "{} vs {}",
            big_phase2.select_returned_bytes,
            small_phase2.select_returned_bytes
        );
        // And the sampling phase grows.
        let small_phase1 = small.metrics.groups[0].phases[0].stats;
        let big_phase1 = big.metrics.groups[0].phases[0].stats;
        assert!(big_phase1.select_returned_bytes > small_phase1.select_returned_bytes);
    }

    #[test]
    fn sampling_transfers_less_than_server_side() {
        let (ctx, q) = setup(5000);
        let a = server_side(&ctx, &q).unwrap();
        let b = sampling(&ctx, &q, None).unwrap();
        assert!(
            b.metrics.bytes_returned() < a.metrics.bytes_returned() / 2,
            "sampling {} vs server {}",
            b.metrics.bytes_returned(),
            a.metrics.bytes_returned()
        );
    }

    #[test]
    fn optimal_sample_size_formula() {
        // S* = sqrt(KN/alpha); K=100, N=6e7, alpha=0.1 -> ~2.45e5 (paper
        // §VII-C1 computes 2.4e5).
        let s = optimal_sample_size(100, 60_000_000, 0.1);
        assert!((200_000..300_000).contains(&s), "{s}");
        // Clamps below at 10K.
        assert_eq!(optimal_sample_size(100, 2_000_000_000, 1.0), 447_214);
        assert!(optimal_sample_size(10, 500, 1.0) >= 70);
        // Never exceeds N.
        assert!(optimal_sample_size(1000, 2000, 0.01) <= 2000);
    }

    #[test]
    fn phase_labels_match_fig8() {
        let (ctx, q) = setup(1000);
        let out = sampling(&ctx, &q, Some(200)).unwrap();
        let labels: Vec<String> = out
            .metrics
            .phase_seconds(&ctx.model)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(labels, vec!["sampling phase", "scanning phase"]);
    }

    #[test]
    fn striped_sampling_bounds_phase2_on_adversarial_order() {
        // The table is sorted exactly opposite to the query order — the
        // worst case for a prefix sample: a plain `LIMIT S` would collect
        // the S *largest* values, the ascending threshold would be huge,
        // and phase 2 would re-fetch nearly the whole table. Striping the
        // sample across partitions keeps phase-2 returned bytes within a
        // small multiple of K/N of the table.
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("price", DataType::Float),
            ("pad", DataType::Str),
        ]);
        let n = 6000usize;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Float((n - i) as f64), // sorted descending
                    Value::Str(format!("pad-{i:08}")),
                ])
            })
            .collect();
        let t = upload_csv_table(&store, "b", "sorted", &schema, &rows, 150).unwrap();
        let total = t.total_bytes(&store) as f64;
        let ctx = QueryContext::new(store);
        let k = 30usize;
        let q = TopKQuery {
            table: t,
            order_col: "price".into(),
            k,
            asc: true,
        };
        let want = server_side(&ctx, &q).unwrap();
        let kn_bytes = total * k as f64 / n as f64; // "K/N of the table"
        for sample_size in [None, Some(1200)] {
            let got = sampling(&ctx, &q, sample_size).unwrap();
            assert_eq!(want.rows.len(), got.rows.len());
            for (x, y) in want.rows.iter().zip(&got.rows) {
                assert_eq!(x[1], y[1], "sample {sample_size:?}");
            }
            // Worst case for a striped sample of share s/P per partition
            // is ~N/P + K rows (one partition's span plus the threshold
            // overshoot) — a small multiple of K/N here, and nowhere near
            // the ~full table the prefix sample degenerates to.
            let phase2 = got.metrics.groups[1].phases[0].stats.select_returned_bytes as f64;
            assert!(
                phase2 <= 12.0 * kn_bytes,
                "sample {sample_size:?}: phase 2 returned {phase2:.0} bytes, \
                 want ≤ 12×(K/N)×table = {:.0} (table {total:.0})",
                12.0 * kn_bytes
            );
            assert!(
                phase2 <= total / 10.0,
                "phase 2 must stay far from a full re-fetch"
            );
        }
    }

    #[test]
    fn duplicate_keys_at_the_threshold() {
        // Many duplicate order keys exactly at the K-th position.
        let store = S3Store::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]);
        let rows: Vec<Row> = (0..500)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 3)]))
            .collect();
        let t = upload_csv_table(&store, "b", "t", &schema, &rows, 128).unwrap();
        let ctx = QueryContext::new(store);
        let q = TopKQuery {
            table: t,
            order_col: "v".into(),
            k: 10,
            asc: true,
        };
        let a = server_side(&ctx, &q).unwrap();
        let b = sampling(&ctx, &q, Some(50)).unwrap();
        assert_eq!(a.rows.len(), 10);
        assert_eq!(b.rows.len(), 10);
        assert!(b.rows.iter().all(|r| r[1] == Value::Int(0)));
    }
}
