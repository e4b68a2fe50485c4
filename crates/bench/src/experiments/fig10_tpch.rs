//! **Figure 10** — the full query suite: four operator micro-queries,
//! six TPC-H queries, and the geometric mean (paper §VIII).
//!
//! Headline claim reproduced here: optimized PushdownDB is on average
//! **6.7× faster** and **30 % cheaper** than the no-pushdown baseline
//! (we reproduce the direction and rough magnitude; exact factors depend
//! on the substituted substrate: a simulated store and an analytic clock
//! calibrated to the paper's testbed, not the testbed itself).

use crate::experiments::fig02_join_customer::listing2_sql;
use crate::{run_candidate, Measure};
use pushdown_common::fmtutil::geo_mean;
use pushdown_common::Result;
use pushdown_core::algos::topk;
use pushdown_core::{QueryContext, QueryOutput};
use pushdown_tpch::{all_queries, tpch_context, Mode, TpchTables};

#[derive(Debug, Clone)]
pub struct Fig10Row {
    pub name: String,
    pub baseline: Measure,
    pub optimized: Measure,
}

impl Fig10Row {
    pub fn speedup(&self) -> f64 {
        self.baseline.runtime / self.optimized.runtime
    }

    pub fn cost_ratio(&self) -> f64 {
        self.optimized.cost.total() / self.baseline.cost.total()
    }
}

#[derive(Debug, Clone)]
pub struct Fig10Result {
    pub rows: Vec<Fig10Row>,
    pub geo_mean_speedup: f64,
    /// Geo-mean of optimized/baseline cost (paper: ≈ 0.70, i.e. 30 % cheaper).
    pub geo_mean_cost_ratio: f64,
}

/// The representative micro-queries of §IV–§VII, run against the TPC-H
/// dataset (one per operator family, as the figure's green group).
fn micro_queries(
    ctx: &QueryContext,
    t: &TpchTables,
) -> Result<Vec<(String, QueryOutput, QueryOutput)>> {
    let mut out = Vec::new();

    // Filter (§IV): a selective predicate over lineitem.
    let sql = "SELECT * FROM lineitem WHERE l_quantity < 2";
    out.push((
        "Filter".to_string(),
        run_candidate(ctx, &t.lineitem, sql, "server-side", None)?,
        run_candidate(ctx, &t.lineitem, sql, "s3-side", None)?,
    ));

    // Group-by (§VI): order priorities (5 groups).
    let sql = "SELECT o_orderpriority, SUM(o_totalprice), COUNT(o_orderkey) FROM orders \
               GROUP BY o_orderpriority";
    out.push((
        "Group-by".to_string(),
        run_candidate(ctx, &t.orders, sql, "server-side", None)?,
        run_candidate(ctx, &t.orders, sql, "s3-side", None)?,
    ));

    // Top-K (§VII): the paper's Listing 6 (K = 100 by extended price).
    let tq = topk::TopKQuery {
        table: t.lineitem.clone(),
        order_col: "l_extendedprice".into(),
        k: 100,
        asc: true,
    };
    out.push((
        "Top-K".to_string(),
        topk::server_side(ctx, &tq)?,
        topk::sampling(ctx, &tq, None)?,
    ));

    // Join (§V): the paper's Listing 2 with its default parameters.
    let sql = listing2_sql(-950, None);
    out.push((
        "Join".to_string(),
        run_candidate(ctx, &t.customer, &sql, "baseline", None)?,
        run_candidate(ctx, &t.customer, &sql, "bloom", None)?,
    ));

    Ok(out)
}

pub fn run(scale_factor: f64) -> Result<Fig10Result> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;
    let mut rows = Vec::new();

    for (name, base, opt) in micro_queries(&ctx, &t)? {
        rows.push(Fig10Row {
            name,
            baseline: Measure::of(&ctx, &base, factor),
            optimized: Measure::of(&ctx, &opt, factor),
        });
    }
    for (name, q) in all_queries() {
        let base = q(&ctx, &t, Mode::Baseline)?;
        let opt = q(&ctx, &t, Mode::Optimized)?;
        rows.push(Fig10Row {
            name: name.to_string(),
            baseline: Measure::of(&ctx, &base, factor),
            optimized: Measure::of(&ctx, &opt, factor),
        });
    }

    let geo_mean_speedup = geo_mean(&rows.iter().map(Fig10Row::speedup).collect::<Vec<_>>());
    let geo_mean_cost_ratio = geo_mean(&rows.iter().map(Fig10Row::cost_ratio).collect::<Vec<_>>());
    Ok(Fig10Result {
        rows,
        geo_mean_speedup,
        geo_mean_cost_ratio,
    })
}
