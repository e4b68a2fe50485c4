//! **§X ablations** — what each of the paper's five suggestions to AWS
//! would buy, measured by running the stock algorithm and its what-if
//! variant side by side. Each suggestion is one figure, run at its own
//! `*_SIZE`.
//!
//! Expected shape, as the gates each figure checks. [`index_figure`]
//! (Suggestions 1 and 2), at selectivity 1e-2: multi-range GETs run over
//! 5× faster than a GET per row (`multi-range-faster`) and the lookup in
//! S3 no slower (`in-s3-no-slower`); multi-range sends under a twentieth
//! of the single-range requests (`multi-range-fewer-requests`; one
//! partial batch per partition projects as a full one at bench scale,
//! hence 20× and not more) and the lookup in S3 fewer still
//! (`in-s3-fewer-requests`). [`bloom_figure`] (Suggestion 3): the hex /
//! `BIT_AT` predicate is under a third of the string one's bytes
//! (`binary-sql-denser`) and fits exactly 4× the keys
//! (`binary-fits-4x-keys`). [`groupby_figure`] (Suggestion 4): native
//! group-by is never slower than the CASE-WHEN rewrite
//! (`native-never-slower`), flat in the group count, its 32-group
//! runtime under 1.2× its 2-group one (`native-flat`), while CASE-WHEN
//! grows over 1.5× (`case-when-grows`). [`pricing_figure`]
//! (Suggestion 5): TPC-H Q6, the simplest pushed scan of the suite,
//! pays a lower scan fee under computation-aware pricing
//! (`q6-scan-cheaper`).

use crate::experiments::fig02_join_customer::listing2_sql;
use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure};
use pushdown_common::pricing::CostBreakdown;
use pushdown_common::{DataType, Error, Result, Row, Schema, Value};
use pushdown_core::algos::filter::{self, RowFetch};
use pushdown_core::metrics::QueryMetrics;
use pushdown_core::{build_index, upload_csv_table, QueryContext};
use pushdown_s3::S3Store;
use pushdown_select::EngineExtensions;
use pushdown_sql::Expr;
use pushdown_tpch::synthetic::uniform_group_table;
use pushdown_tpch::tpch_context;

// -------------------------------------------------------------------
// Suggestions 1 & 2: the indexing request problem
// -------------------------------------------------------------------

/// The row count `index_figure` runs at.
pub const INDEX_SIZE: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct IndexAblationRow {
    pub selectivity: f64,
    /// Stock §IV-A: one GET per row.
    pub single_range: Measure,
    /// Suggestion 1: many ranges per GET.
    pub multi_range: Measure,
    /// Suggestion 2: lookup entirely inside S3.
    pub in_s3: Measure,
    pub requests_single: u64,
    pub requests_multi: u64,
    pub requests_in_s3: u64,
}

/// Sweep selectivity over a synthetic keyed table (projected to the
/// paper's 60M-row scale) and compare the three index execution models.
pub fn run_index_ablation(n_rows: usize) -> Result<Vec<IndexAblationRow>> {
    let ctx = QueryContext::new(S3Store::new());
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("pad", DataType::Str)]);
    let rows: Vec<Row> = (0..n_rows as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int((i.wrapping_mul(2654435761)).rem_euclid(n_rows as i64)),
                Value::Str(format!("{i:0>80}")),
            ])
        })
        .collect();
    let table = upload_csv_table(&ctx.store, "b", "t", &schema, &rows, n_rows / 8 + 1)?;
    let index = build_index(&ctx, &table, "k")?;
    let factor = 60_000_000.0 / n_rows as f64;

    let mut out = Vec::new();
    for s in [1e-5, 1e-4, 1e-3, 1e-2] {
        let cutoff = (s * n_rows as f64).round() as i64;
        let q = filter::FilterQuery {
            table: table.clone(),
            predicate: Expr::lt(Expr::col("k"), Expr::int(cutoff)),
            projection: None,
        };
        let single = filter::indexed(&ctx, &index, &q, RowFetch::PerRow)?;
        let multi = filter::indexed(&ctx, &index, &q, RowFetch::MultiRange)?;
        let in_s3 = filter::indexed(&ctx, &index, &q, RowFetch::InS3)?;
        assert_eq!(single.rows.len(), multi.rows.len());
        assert_eq!(single.rows.len(), in_s3.rows.len());
        out.push(IndexAblationRow {
            selectivity: s,
            requests_single: single.metrics.scaled(factor).usage().requests,
            requests_multi: multi.metrics.scaled(factor).usage().requests,
            requests_in_s3: in_s3.metrics.scaled(factor).usage().requests,
            single_range: Measure::of(&ctx, &single, factor),
            multi_range: Measure::of(&ctx, &multi, factor),
            in_s3: Measure::of(&ctx, &in_s3, factor),
        });
    }
    Ok(out)
}

// -------------------------------------------------------------------
// Suggestion 3: binary Bloom filters
// -------------------------------------------------------------------

/// The TPC-H scale factor `bloom_figure` runs at.
pub const BLOOM_SIZE: f64 = 0.004;

#[derive(Debug, Clone, Copy)]
pub struct BloomAblation {
    /// Rendered SQL bytes of the `'0'/'1'`-string predicate.
    pub string_sql_bytes: usize,
    /// Rendered SQL bytes of the hex/`BIT_AT` predicate.
    pub binary_sql_bytes: usize,
    /// Build-side keys that fit the 256 KB limit at FPR 0.01, each way.
    pub max_keys_string: usize,
    pub max_keys_binary: usize,
    pub string_join: Measure,
    pub binary_join: Measure,
}

pub fn run_bloom_ablation(scale_factor: f64) -> Result<BloomAblation> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;

    // SQL sizes for a representative 5k-key filter.
    let mut f = pushdown_bloom::BloomFilter::with_rate(5_000, 0.01, 3);
    for k in 0..5_000 {
        f.insert(k);
    }
    let string_sql_bytes = f.sql_predicate("o_custkey").to_string().len();
    let binary_sql_bytes = f.sql_predicate_binary("o_custkey").to_string().len();

    // Capacity at the 256 KB limit: string sizing from the builder's
    // estimate; binary fits 4x the bits.
    let budget = 256 * 1024;
    let per_key_bits = pushdown_bloom::optimal_m(1000, 0.01) as f64 / 1000.0;
    let k_hashes = pushdown_bloom::optimal_k(0.01) as f64;
    let max_keys_string = (budget as f64 / (per_key_bits * k_hashes)) as usize;
    let max_keys_binary = max_keys_string * 4;

    // End-to-end joins (paper Listing 2 defaults): the same Bloom join
    // candidate on the stock engine and on one with the `bitwise`
    // extension, which ships the filter in its hex / `BIT_AT` encoding.
    let sql = listing2_sql(-950, None);
    let mut extended = ctx.clone();
    extended.engine = ctx.engine.clone().with_extensions(EngineExtensions {
        bitwise: true,
        ..Default::default()
    });
    let string_join = run_candidate(&ctx, &t.customer, &sql, "bloom", None)?;
    let binary_join = run_candidate(&extended, &t.customer, &sql, "bloom", None)?;
    assert!((string_join.rows[0][0].as_f64()? - binary_join.rows[0][0].as_f64()?).abs() < 1e-6);
    Ok(BloomAblation {
        string_sql_bytes,
        binary_sql_bytes,
        max_keys_string,
        max_keys_binary,
        string_join: Measure::of(&ctx, &string_join, factor),
        binary_join: Measure::of(&ctx, &binary_join, factor),
    })
}

// -------------------------------------------------------------------
// Suggestion 4: partial group-by in S3
// -------------------------------------------------------------------

/// The row count `groupby_figure` runs at.
pub const GROUPBY_SIZE: usize = 10_000;

#[derive(Debug, Clone, Copy)]
pub struct GroupByAblationRow {
    pub n_groups: u32,
    /// Stock: the two-phase CASE-WHEN rewrite (§VI-A).
    pub case_when: Measure,
    /// Suggestion 4: one native GROUP BY request.
    pub native: Measure,
}

pub fn run_groupby_ablation(n_rows: usize) -> Result<Vec<GroupByAblationRow>> {
    let ctx = QueryContext::new(S3Store::new());
    let (schema, rows) = uniform_group_table(n_rows, 42);
    let table = upload_csv_table(&ctx.store, "b", "uni", &schema, &rows, n_rows / 8 + 1)?;
    let factor = 10e9 / table.total_bytes(&ctx.store) as f64;
    // On an engine with the `native_group_by` extension the `filtered`
    // group-by ships the statement whole: the engine folds each
    // partition's groups.
    let mut extended = ctx.clone();
    extended.engine = ctx.engine.clone().with_extensions(EngineExtensions {
        native_group_by: true,
        ..Default::default()
    });
    let mut out = Vec::new();
    for (i, n_groups) in [(0usize, 2u32), (2, 8), (4, 32)] {
        let sql = format!("SELECT g{i}, SUM(v0), SUM(v1), SUM(v2), SUM(v3) FROM uni GROUP BY g{i}");
        let case_when = run_candidate(&ctx, &table, &sql, "s3-side", None)?;
        let native = run_candidate(&extended, &table, &sql, "filtered", None)?;
        assert_eq!(case_when.rows.len(), native.rows.len());
        out.push(GroupByAblationRow {
            n_groups,
            case_when: Measure::of(&ctx, &case_when, factor),
            native: Measure::of(&ctx, &native, factor),
        });
    }
    Ok(out)
}

// -------------------------------------------------------------------
// Suggestion 5: computation-aware pricing
// -------------------------------------------------------------------

/// The TPC-H scale factor `pricing_figure` runs at.
pub const PRICING_SIZE: f64 = 0.004;

#[derive(Debug, Clone)]
pub struct PricingAblationRow {
    pub name: String,
    /// Cost under the flat $0.002/GB-scanned price.
    pub flat: CostBreakdown,
    /// Cost under the paper's proposed workload-aware scan price.
    pub aware: CostBreakdown,
}

/// The paper (§X, Suggestion 5) argues the flat scan price overcharges
/// simple scans: "our queries typically require little computation in
/// S3". Model: the scan fee scales with the expression complexity the
/// scan actually incurred — simple scans pay 25 % of list price, and the
/// fee grows with the term count toward 2× list price for heavy CASE
/// chains.
pub fn computation_aware_cost(metrics: &QueryMetrics, ctx: &QueryContext) -> CostBreakdown {
    let base = metrics.cost(&ctx.model, &ctx.pricing);
    let mut scan = 0.0;
    for g in &metrics.groups {
        for p in &g.phases {
            let gb = p.stats.s3_scanned_bytes as f64 / 1e9;
            let complexity = (p.stats.expr_terms as f64 / 32.0).min(1.0);
            let rate = ctx.pricing.scan_per_gb * (0.25 + 1.75 * complexity);
            scan += gb * rate;
        }
    }
    CostBreakdown { scan, ..base }
}

pub fn run_pricing_ablation(scale_factor: f64) -> Result<Vec<PricingAblationRow>> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;
    let mut out = Vec::new();
    for q in pushdown_tpch::SUITE {
        let opt = q.run(&ctx, &t, pushdown_core::Strategy::Pushdown)?.0;
        let scaled = opt.metrics.scaled(factor);
        out.push(PricingAblationRow {
            name: q.name.to_string(),
            flat: scaled.cost(&ctx.model, &ctx.pricing),
            aware: computation_aware_cost(&scaled, &ctx),
        });
    }
    Ok(out)
}

/// The index figure the gates name, before it takes its rows.
fn new_index_figure() -> Figure {
    Figure::new(
        "ablation-index",
        "Suggestions 1 & 2 — index execution models: GET per row, multi-range GET, lookup in S3 \
         (projected to 60M rows)",
    )
}

/// Suggestions 1 and 2's gates on `rows` (one per selectivity,
/// ascending; the gates read the last): the first that fails is the
/// `Err`, named.
pub fn check_index(rows: &[IndexAblationRow]) -> Result<()> {
    let fig = new_index_figure();
    let worst = &rows[rows.len() - 1];
    let at = format!("selectivity {:e}", worst.selectivity);
    let single = worst.single_range.runtime;
    let (multi, in_s3) = (worst.multi_range.runtime, worst.in_s3.runtime);
    fig.gate("multi-range-faster", multi * 5.0 < single, || {
        format!("{at}: multi-range {multi} s vs single-range {single} s")
    })?;
    fig.gate("in-s3-no-slower", in_s3 <= multi, || {
        format!("{at}: in-s3 {in_s3} s vs multi-range {multi} s")
    })?;
    let single = worst.requests_single;
    let (multi, in_s3) = (worst.requests_multi, worst.requests_in_s3);
    fig.gate("multi-range-fewer-requests", multi < single / 20, || {
        format!("{at}: {multi} multi-range requests vs {single} single-range")
    })?;
    fig.gate("in-s3-fewer-requests", in_s3 < multi, || {
        format!("{at}: {in_s3} in-s3 requests vs {multi} multi-range")
    })?;
    Ok(())
}

/// Suggestions 1 and 2 at [`INDEX_SIZE`], or the first of their gates
/// that fails.
pub fn index_figure() -> Result<Figure> {
    let rows = run_index_ablation(INDEX_SIZE)?;
    check_index(&rows)?;
    let mut fig = new_index_figure();
    for r in rows {
        fig.row(
            format!("selectivity={:e}", r.selectivity),
            vec![
                ("single-range", Cell::Measure(r.single_range)),
                ("multi-range", Cell::Measure(r.multi_range)),
                ("in-s3", Cell::Measure(r.in_s3)),
                ("requests-single", Cell::Count(r.requests_single)),
                ("requests-multi", Cell::Count(r.requests_multi)),
                ("requests-in-s3", Cell::Count(r.requests_in_s3)),
            ],
        );
    }
    Ok(fig)
}

/// The Bloom figure the gates name, before it takes its row.
fn new_bloom_figure() -> Figure {
    Figure::new(
        "ablation-bloom",
        "Suggestion 3 — Bloom join with '0'/'1' string vs hex + BIT_AT filters \
         (SQL bytes of a 5k-key filter, keys that fit 256 KB at FPR 0.01; projected to SF 10)",
    )
}

/// Suggestion 3's gates on `r`: the first that fails is the `Err`,
/// named.
pub fn check_bloom(r: &BloomAblation) -> Result<()> {
    let fig = new_bloom_figure();
    let (string, binary) = (r.string_sql_bytes, r.binary_sql_bytes);
    fig.gate("binary-sql-denser", binary * 3 < string, || {
        format!("binary predicate {binary} bytes vs string {string}")
    })?;
    let (string, binary) = (r.max_keys_string, r.max_keys_binary);
    fig.gate("binary-fits-4x-keys", binary == string * 4, || {
        format!("binary fits {binary} keys vs string {string}")
    })?;
    Ok(())
}

/// Suggestion 3 at [`BLOOM_SIZE`]: one row, both encodings — or the
/// first of its gates that fails.
pub fn bloom_figure() -> Result<Figure> {
    let r = run_bloom_ablation(BLOOM_SIZE)?;
    check_bloom(&r)?;
    let mut fig = new_bloom_figure();
    fig.row(
        "",
        vec![
            ("string", Cell::Measure(r.string_join)),
            ("binary", Cell::Measure(r.binary_join)),
            ("string-sql-bytes", Cell::Count(r.string_sql_bytes as u64)),
            ("binary-sql-bytes", Cell::Count(r.binary_sql_bytes as u64)),
            ("max-keys-string", Cell::Count(r.max_keys_string as u64)),
            ("max-keys-binary", Cell::Count(r.max_keys_binary as u64)),
        ],
    );
    Ok(fig)
}

/// The group-by figure the gates name, before it takes its rows.
fn new_groupby_figure() -> Figure {
    Figure::new(
        "ablation-groupby",
        "Suggestion 4 — CASE-WHEN rewrite vs native partial group-by (projected to 10 GB)",
    )
}

/// Suggestion 4's gates on `rows` (one per group count, ascending): the
/// first that fails is the `Err`, named.
pub fn check_groupby(rows: &[GroupByAblationRow]) -> Result<()> {
    let fig = new_groupby_figure();
    for r in rows {
        let (n, native, case_when) = (r.n_groups, r.native.runtime, r.case_when.runtime);
        fig.gate("native-never-slower", native <= case_when, || {
            format!("{n} groups: native {native} s vs case-when {case_when} s")
        })?;
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let n = last.n_groups;
    let (a, b) = (first.native.runtime, last.native.runtime);
    fig.gate("native-flat", b / a < 1.2, || {
        format!("native {b} s at {n} groups vs {a} s at the fewest")
    })?;
    let (a, b) = (first.case_when.runtime, last.case_when.runtime);
    fig.gate("case-when-grows", b > 1.5 * a, || {
        format!("case-when {b} s at {n} groups vs {a} s at the fewest")
    })?;
    Ok(())
}

/// Suggestion 4 at [`GROUPBY_SIZE`], or the first of its gates that
/// fails.
pub fn groupby_figure() -> Result<Figure> {
    let rows = run_groupby_ablation(GROUPBY_SIZE)?;
    check_groupby(&rows)?;
    let mut fig = new_groupby_figure();
    for r in rows {
        fig.row(
            format!("groups={}", r.n_groups),
            vec![
                ("case-when", Cell::Measure(r.case_when)),
                ("native", Cell::Measure(r.native)),
            ],
        );
    }
    Ok(fig)
}

/// The pricing figure the gate names, before it takes its rows.
fn new_pricing_figure() -> Figure {
    Figure::new(
        "ablation-pricing",
        "Suggestion 5 — flat vs computation-aware scan pricing of the optimized TPC-H queries \
         (projected to SF 10)",
    )
}

/// Suggestion 5's gate on `rows` (it reads the `TPCH Q6` row), or its
/// failure.
pub fn check_pricing(rows: &[PricingAblationRow]) -> Result<()> {
    let fig = new_pricing_figure();
    let q6 = rows
        .iter()
        .find(|r| r.name == "TPCH Q6")
        .ok_or_else(|| Error::Other("ablation-pricing: no TPCH Q6 row".into()))?;
    let (aware, flat) = (q6.aware.scan, q6.flat.scan);
    fig.gate("q6-scan-cheaper", aware < flat, || {
        format!("TPCH Q6: aware scan ${aware} vs flat ${flat}")
    })
}

/// Suggestion 5 at [`PRICING_SIZE`], or its gate's failure.
pub fn pricing_figure() -> Result<Figure> {
    let rows = run_pricing_ablation(PRICING_SIZE)?;
    check_pricing(&rows)?;
    let mut fig = new_pricing_figure();
    for r in rows {
        fig.row(
            r.name,
            vec![
                ("flat-scan", Cell::Dollars(r.flat.scan)),
                ("aware-scan", Cell::Dollars(r.aware.scan)),
                ("flat", Cell::Dollars(r.flat.total())),
                ("aware", Cell::Dollars(r.aware.total())),
            ],
        );
    }
    Ok(fig)
}
