//! **Figure 10** — the full query suite: four operator micro-queries,
//! six TPC-H queries, and the geometric mean (paper §VIII).
//!
//! Headline claim reproduced here: optimized PushdownDB is on average
//! **6.7× faster** and **30 % cheaper** than the no-pushdown baseline
//! (we reproduce the direction and rough magnitude; exact factors depend
//! on the substituted substrate: a simulated store and an analytic clock
//! calibrated to the paper's testbed, not the testbed itself).
//!
//! Expected shape, as the gates [`figure`] checks: every query's
//! optimized run is faster than its baseline (`every-query-faster`), the
//! geo-mean speedup is over 3 (`geo-mean-speedup`) and the geo-mean cost
//! ratio under 1 (`geo-mean-cheaper`).

use crate::experiments::fig02_join_customer::listing2_sql;
use crate::figure::{Cell, Figure};
use crate::{run_candidate, Measure, Tune};
use pushdown_common::fmtutil::geo_mean;
use pushdown_common::Result;
use pushdown_core::joinplan::sample_size;
use pushdown_core::planner::Explain;
use pushdown_core::{execute_sql_verbose, QueryOutput, Strategy, Table};
use pushdown_tpch::{tpch_context, SUITE};

/// The TPC-H scale factor `figure` runs at.
pub const SIZE: f64 = 0.003;

#[derive(Debug, Clone)]
pub struct Fig10Row {
    pub name: String,
    pub baseline: Measure,
    pub optimized: Measure,
    /// What `Strategy::Adaptive` ran for this row (`Join[filtered]`, …)
    /// and what that run projects to. Pinned, but information, not one
    /// of the paper's bars: the planner priced its candidates at *bench*
    /// scale, where startup costs put them within a few percent of each
    /// other in dollars, so projecting its pick to SF 10 measures a
    /// choice made for another world (ROADMAP item C).
    pub adaptive_pick: String,
    pub adaptive: Measure,
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

pub fn run(scale_factor: f64) -> Result<Fig10Result> {
    let (ctx, t) = tpch_context(scale_factor, 25_000)?;
    let factor = 10.0 / scale_factor;
    let measure = |out: &QueryOutput| Measure::of(&ctx, out, factor);
    let mut rows = Vec::new();
    let mut row = |name: &str, base, opt, adaptive: (QueryOutput, Explain)| {
        rows.push(Fig10Row {
            name: name.to_string(),
            baseline: measure(&base),
            optimized: measure(&opt),
            adaptive_pick: adaptive.1.kind.to_string(),
            adaptive: measure(&adaptive.0),
        })
    };

    // The representative micro-queries of §IV–§VII, run against the
    // TPC-H dataset (one per operator family, the figure's green group):
    // the two bars are named candidates of one statement, the second
    // tuned by `tune`.
    let mut micro = |name, table: &Table, sql: &str, base, opt, tune| -> Result<()> {
        row(
            name,
            run_candidate(&ctx, table, sql, base, None)?,
            run_candidate(&ctx, table, sql, opt, tune)?,
            execute_sql_verbose(&ctx, table, sql, Strategy::Adaptive)?,
        );
        Ok(())
    };
    // Filter (§IV): a selective predicate over lineitem.
    let sql = "SELECT * FROM lineitem WHERE l_quantity < 2";
    micro("Filter", &t.lineitem, sql, "server-side", "s3-side", None)?;
    // Group-by (§VI): order priorities (5 groups).
    let sql = "SELECT o_orderpriority, SUM(o_totalprice), COUNT(o_orderkey) FROM orders \
               GROUP BY o_orderpriority";
    micro("Group-by", &t.orders, sql, "server-side", "s3-side", None)?;
    // Top-K (§VII): the paper's Listing 6 (K = 100 by extended price),
    // sampled at the §VII-B size even where the catalog knows the
    // threshold.
    let sql = "SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT 100";
    let sample = Some(Tune::SampleSize(sample_size(&t.lineitem, 100)));
    micro("Top-K", &t.lineitem, sql, "server-side", "sampling", sample)?;
    // Join (§V): the paper's Listing 2 with its default parameters.
    let sql = listing2_sql(-950, None);
    micro("Join", &t.customer, &sql, "baseline", "bloom", None)?;

    // The six TPC-H queries, through the planner's own strategies.
    for q in SUITE {
        let (base, _) = q.run(&ctx, &t, Strategy::Baseline)?;
        let (opt, _) = q.run(&ctx, &t, Strategy::Pushdown)?;
        row(q.name, base, opt, q.run(&ctx, &t, Strategy::Adaptive)?);
    }

    let geo_mean_speedup = geo_mean(&rows.iter().map(Fig10Row::speedup).collect::<Vec<_>>());
    let geo_mean_cost_ratio = geo_mean(&rows.iter().map(Fig10Row::cost_ratio).collect::<Vec<_>>());
    Ok(Fig10Result {
        rows,
        geo_mean_speedup,
        geo_mean_cost_ratio,
    })
}

/// The figure the gates name, before it takes its rows.
fn new_figure() -> Figure {
    Figure::new(
        "fig10",
        "Fig 10 — baseline vs optimized per query and geo-means (paper: 6.7x / 0.70), \
     projected to SF 10; Adaptive's pick is information, priced at bench scale",
    )
}

/// Fig 10's gates on `res`: the first that fails is the `Err`, named.
pub fn check(res: &Fig10Result) -> Result<()> {
    let fig = new_figure();
    for r in &res.rows {
        let speedup = r.speedup();
        fig.gate("every-query-faster", speedup > 1.0, || {
            format!("{}: speedup {speedup:.2}", r.name)
        })?;
    }
    let (speedup, cost_ratio) = (res.geo_mean_speedup, res.geo_mean_cost_ratio);
    fig.gate("geo-mean-speedup", speedup > 3.0, || {
        format!("geo-mean speedup {speedup:.2} (paper: 6.7)")
    })?;
    fig.gate("geo-mean-cheaper", cost_ratio < 1.0, || {
        format!("geo-mean cost ratio {cost_ratio:.2} (paper: 0.70)")
    })?;
    Ok(())
}

/// Fig 10 at [`SIZE`]: one row per query, then the geo-means — or the
/// first of its gates that fails.
pub fn figure() -> Result<Figure> {
    let res = run(SIZE)?;
    check(&res)?;
    let mut fig = new_figure();
    for r in res.rows {
        fig.row(
            r.name,
            vec![
                ("baseline", Cell::Measure(r.baseline)),
                ("optimized", Cell::Measure(r.optimized)),
                ("adaptive-pick", Cell::Text(r.adaptive_pick)),
                ("adaptive", Cell::Measure(r.adaptive)),
            ],
        );
    }
    fig.row(
        "geo-mean",
        vec![
            ("speedup", Cell::Ratio(res.geo_mean_speedup)),
            ("cost-ratio", Cell::Ratio(res.geo_mean_cost_ratio)),
        ],
    );
    Ok(fig)
}
