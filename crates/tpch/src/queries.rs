//! The paper's TPC-H queries (§VIII) — Q1, Q3, Q6, Q14, Q17, Q19, the
//! Fig 10 suite — as **statements the planner lowers**, not as code.
//!
//! Each query is a [`TpchQuery`]: a name and how it becomes named
//! candidate plans over a loaded dataset. Q1, Q3, Q6 and Q19 are plain
//! SQL through [`planner::lower`]. Q14 and Q17 need one step the dialect
//! has no syntax for, and get it from the plan IR instead of new syntax:
//!
//! * **Q14** is a ratio of two `SUM`s — the two-`SUM` join statement with
//!   a `Project` placed on top of every candidate;
//! * **Q17** compares each lineitem with the mean quantity *of its part*,
//!   a correlated subquery. It is the textbook decorrelation, composed
//!   from lowered parts by candidate name: the per-part `AVG` statement
//!   (itself `part JOIN lineitem … GROUP BY`) is the build side of a join
//!   whose probe side is a bare `lineitem` scan. `lineitem` is therefore
//!   read **twice**, as any engine without common-subexpression sharing
//!   reads it.
//!
//! Either way every candidate is a tree of IR operators that
//! [`planner::run_candidates`] prices, picks from, runs and
//! explains like any other query's: [`Strategy::Baseline`] is the paper's
//! "PushdownDB (Baseline)" (whole tables over plain GETs, everything
//! local), [`Strategy::Pushdown`] its "PushdownDB (Optimized)" (filters
//! and projections in S3 Select, Bloom joins where the keys are integers;
//! Q1's expression aggregates rule out the CASE-WHEN group-bys, so it
//! runs `filtered`), and [`Strategy::Adaptive`] the optimizer's own pick.
//! Rows agree across the three (`tests/tpch_oracle.rs` holds them to an
//! oracle that is not the engine); the Fig 10 harness converts the
//! metrics into runtime and cost bars.

use crate::load::TpchTables;
use pushdown_common::{DataType, Error, Field, Result, Schema};
use pushdown_core::plan::{PlanNode, PlanOp};
use pushdown_core::planner::{self, Candidates, Explain, Family, Strategy};
use pushdown_core::{Catalog, QueryContext, QueryOutput, Table};
use pushdown_sql::agg::AggFunc;
use pushdown_sql::{parse_expr, parse_query};

/// One query of the Fig 10 suite.
#[derive(Debug, Clone, Copy)]
pub struct TpchQuery {
    pub name: &'static str,
    /// The query's family and named candidate plans over a dataset.
    lower: fn(&QueryContext, &TpchTables) -> Result<(Family, Candidates)>,
}

impl TpchQuery {
    /// Lower the query over `t` and run it through the planner's one
    /// pipeline. Join tables resolve by name in a catalog of exactly
    /// `t`'s tables, whatever the caller's context has registered.
    pub fn run(
        &self,
        ctx: &QueryContext,
        t: &TpchTables,
        strategy: Strategy,
    ) -> Result<(QueryOutput, Explain)> {
        let mut ctx = ctx.clone();
        ctx.catalog = Catalog::default();
        t.register(&ctx.catalog);
        let (family, candidates) = (self.lower)(&ctx, t)?;
        planner::run_candidates(&ctx, family, &candidates, strategy)
    }
}

fn statement(ctx: &QueryContext, primary: &Table, sql: &str) -> Result<(Family, Candidates)> {
    planner::lower(ctx, primary, &parse_query(sql)?)
}

/// `SELECT <expr> AS <name>` over a one-row plan: arithmetic *on*
/// aggregates, which the dialect cannot write.
fn project(input: PlanNode, expr: &str, name: &str) -> Result<PlanNode> {
    let exprs = vec![parse_expr(expr)?];
    let schema = Schema::new(vec![Field::new(name, DataType::Float)]);
    Ok(PlanNode::new(
        PlanOp::Project { exprs },
        vec![input],
        schema,
    ))
}

/// TPC-H Q1, the pricing summary report: eight aggregates per
/// (`l_returnflag`, `l_linestatus`) over the shipped lineitems.
pub const Q1: TpchQuery = TpchQuery {
    name: "TPCH Q1",
    lower: |ctx, t| {
        let sql = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                   SUM(l_extendedprice) AS sum_base_price, \
                   SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                   SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
                   AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
                   AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
                   FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
                   GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus";
        statement(ctx, &t.lineitem, sql)
    },
};

/// TPC-H Q3, shipping priority: BUILDING customers' unshipped orders,
/// top 10 by revenue (three-way join + group-by + top-K).
pub const Q3: TpchQuery = TpchQuery {
    name: "TPCH Q3",
    lower: |ctx, t| {
        let sql = "SELECT l_orderkey, o_orderdate, o_shippriority, \
                   SUM(l_extendedprice * (1 - l_discount)) AS revenue \
                   FROM customer JOIN orders ON c_custkey = o_custkey \
                   JOIN lineitem ON o_orderkey = l_orderkey \
                   WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' \
                   AND l_shipdate > DATE '1995-03-15' \
                   GROUP BY l_orderkey, o_orderdate, o_shippriority \
                   ORDER BY revenue DESC, o_orderdate LIMIT 10";
        statement(ctx, &t.customer, sql)
    },
};

/// TPC-H Q6, forecasting revenue change: one filtered `SUM` — the ideal
/// pushdown, a single S3-side aggregation.
pub const Q6: TpchQuery = TpchQuery {
    name: "TPCH Q6",
    lower: |ctx, t| {
        let sql = "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
                   WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
                   AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";
        statement(ctx, &t.lineitem, sql)
    },
};

/// TPC-H Q14, promotion effect: the share of September-1995 revenue that
/// came from PROMO parts. The statement computes the two sums (the
/// month's lineitems are the build side, `part` the probe); the ratio is
/// a `Project` over each candidate. No revenue at all is `NULL`, not a
/// division by zero.
pub const Q14: TpchQuery = TpchQuery {
    name: "TPCH Q14",
    lower: |ctx, t| {
        let sql = "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' \
                   THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) AS promo, \
                   SUM(l_extendedprice * (1 - l_discount)) AS total \
                   FROM lineitem JOIN part ON l_partkey = p_partkey \
                   WHERE l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'";
        let ratio = "CASE WHEN total = 0 THEN NULL ELSE 100 * promo / total END";
        let (family, sums) = statement(ctx, &t.lineitem, sql)?;
        let ratios = sums
            .into_iter()
            .map(|(name, plan)| Ok((name, project(plan, ratio, "promo_revenue")?)));
        Ok((family, ratios.collect::<Result<_>>()?))
    },
};

/// False-positive rate Q17's outer Bloom join requests: the paper's
/// operating point, the one the planner's own Bloom candidates use.
const BLOOM_FPR: f64 = 0.01;

/// TPC-H Q17, small-quantity-order revenue: the yearly revenue lost if
/// orders below a fifth of *their part's* mean quantity went unfilled,
/// for Brand#23 MED BOX parts. S3 Select cannot compute a per-part mean,
/// and the dialect has no subquery, so the decorrelated plan is composed
/// here: `(per-part AVG) ⋈ lineitem → l_quantity < 0.2 * avg_qty →
/// SUM(l_extendedprice) → / 7`. Each candidate pairs a candidate of the
/// `AVG` statement with the same-strategy scan of `lineitem`, which is
/// read twice.
pub const Q17: TpchQuery = TpchQuery {
    name: "TPCH Q17",
    lower: |ctx, t| {
        let avg = "SELECT p_partkey, AVG(l_quantity) AS avg_qty \
                   FROM part JOIN lineitem ON p_partkey = l_partkey \
                   WHERE p_brand = 'Brand#23' AND p_container = 'MED BOX' GROUP BY p_partkey";
        let lines = "SELECT l_partkey, l_quantity, l_extendedprice FROM lineitem";
        let (family, builds) = statement(ctx, &t.part, avg)?;
        let (_, probes) = statement(ctx, &t.lineitem, lines)?;
        let named = |plans: &Candidates, name: &str| {
            let found = plans.iter().find(|(n, _)| *n == name);
            found
                .map(|(_, plan)| plan.clone())
                .ok_or_else(|| Error::Bind(format!("Q17 has no `{name}` part to compose")))
        };
        let mut candidates = Candidates::new();
        for (name, probe) in [
            ("baseline", "server-side"),
            ("filtered", "s3-side"),
            ("bloom", "s3-side"),
        ] {
            let (build, probe) = (named(&builds, name)?, named(&probes, probe)?);
            let (build_key, probe_key) = ("p_partkey".to_string(), "l_partkey".to_string());
            let op = match name {
                "bloom" => PlanOp::BloomJoin {
                    build_key,
                    probe_key,
                    fpr: BLOOM_FPR,
                },
                _ => PlanOp::HashJoin {
                    build_key,
                    probe_key,
                },
            };
            let joined = build.schema.join(&probe.schema);
            let price = joined.resolve("l_extendedprice")?;
            let join = PlanNode::new(op, vec![build, probe], joined.clone());
            let predicate = parse_expr("l_quantity < 0.2 * avg_qty")?;
            let small = PlanNode::new(PlanOp::LocalFilter { predicate }, vec![join], joined);
            let aggs = vec![(AggFunc::Sum, Some(price))];
            let schema = Schema::new(vec![Field::new("sum_price", DataType::Float)]);
            let sum = PlanNode::new(PlanOp::Aggregate { aggs }, vec![small], schema);
            candidates.push((name, project(sum, "sum_price / 7.0", "avg_yearly")?));
        }
        Ok((family, candidates))
    },
};

/// TPC-H Q19, discounted revenue: one `SUM` under a three-way
/// disjunction of brand / container / quantity / size clauses that spans
/// both tables — the planner keeps it as the residual filter above the
/// join and pushes the two single-table conjuncts. `part` is the build
/// side.
pub const Q19: TpchQuery = TpchQuery {
    name: "TPCH Q19",
    lower: |ctx, t| {
        let sql = "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
                   FROM part JOIN lineitem ON p_partkey = l_partkey \
                   WHERE l_shipmode IN ('AIR', 'REG AIR') \
                   AND l_shipinstruct = 'DELIVER IN PERSON' \
                   AND ((p_brand = 'Brand#12' \
                   AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
                   AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5) \
                   OR (p_brand = 'Brand#23' \
                   AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
                   AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10) \
                   OR (p_brand = 'Brand#34' \
                   AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') \
                   AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15))";
        statement(ctx, &t.part, sql)
    },
};

/// The Fig 10 suite, in the figure's order.
pub const SUITE: [TpchQuery; 6] = [Q1, Q3, Q6, Q14, Q17, Q19];

/// One query of the planner-dialect suite: a single-table SQL statement
/// plus the TPC-H table it runs against.
#[derive(Debug, Clone, Copy)]
pub struct PlannerQuery {
    pub name: &'static str,
    /// Which table of the loaded dataset the statement targets.
    pub table: fn(&TpchTables) -> &pushdown_core::Table,
    pub sql: &'static str,
}

/// The planner-dialect TPC-H suite: queries covering every operator
/// family the planner routes (filter, scalar aggregate, group-by,
/// top-K, and composed multi-table joins), with shapes chosen so the
/// winning strategy *flips* across the suite — the differential tests
/// run all of `Strategy::{Baseline, Pushdown, Adaptive}` over these.
/// The joined queries resolve their JOIN
/// tables through the context catalog ([`crate::tpch_context`]
/// registers all eight tables).
pub fn planner_suite() -> Vec<PlannerQuery> {
    vec![
        PlannerQuery {
            name: "filter-selective",
            table: |t| &t.lineitem,
            sql: "SELECT l_orderkey, l_extendedprice FROM lineitem \
                  WHERE l_shipdate < DATE '1993-01-01'",
        },
        PlannerQuery {
            name: "filter-wide",
            table: |t| &t.orders,
            sql: "SELECT * FROM orders WHERE o_totalprice > 1000",
        },
        PlannerQuery {
            name: "aggregate",
            table: |t| &t.lineitem,
            sql: "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem \
                  WHERE l_shipdate <= DATE '1998-09-02'",
        },
        PlannerQuery {
            name: "groupby-uniform",
            table: |t| &t.orders,
            sql: "SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders \
                  GROUP BY o_orderpriority",
        },
        PlannerQuery {
            name: "groupby-filtered",
            table: |t| &t.lineitem,
            sql: "SELECT l_returnflag, SUM(l_quantity) FROM lineitem \
                  WHERE l_shipdate < DATE '1996-01-01' GROUP BY l_returnflag",
        },
        PlannerQuery {
            name: "topk-100",
            table: |t| &t.lineitem,
            sql: "SELECT * FROM lineitem ORDER BY l_extendedprice DESC LIMIT 100",
        },
        PlannerQuery {
            name: "topk-10",
            table: |t| &t.orders,
            sql: "SELECT * FROM orders ORDER BY o_totalprice LIMIT 10",
        },
        // TPC-H Q3-shaped: filter + 2-table equi-join + GROUP BY +
        // multi-key ORDER BY (by an aggregate alias) + LIMIT, one
        // composed physical plan.
        PlannerQuery {
            name: "join-q3ish",
            table: |t| &t.customer,
            sql: "SELECT o_orderdate, o_shippriority, SUM(o_totalprice) AS revenue \
                  FROM customer JOIN orders ON c_custkey = o_custkey \
                  WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' \
                  GROUP BY o_orderdate, o_shippriority \
                  ORDER BY revenue DESC, o_orderdate LIMIT 10",
        },
        // TPC-H Q12-shaped: date-filtered orders ⋈ lineitem rollup by
        // ship mode, ordered by the group key.
        PlannerQuery {
            name: "join-q12ish",
            table: |t| &t.orders,
            sql: "SELECT l_shipmode, COUNT(*) AS n FROM orders \
                  JOIN lineitem ON o_orderkey = l_orderkey \
                  WHERE l_shipdate < DATE '1994-06-01' \
                  GROUP BY l_shipmode ORDER BY l_shipmode",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::tpch_context;
    use pushdown_common::Value;

    fn close(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => {
                (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()))
            }
            _ => a == b,
        }
    }

    fn assert_outputs_match(a: &QueryOutput, b: &QueryOutput, name: &str) {
        assert_eq!(a.rows.len(), b.rows.len(), "{name}: row counts");
        for (x, y) in a.rows.iter().zip(&b.rows) {
            for (vx, vy) in x.values().iter().zip(y.values()) {
                assert!(close(vx, vy), "{name}: {vx:?} vs {vy:?}");
            }
        }
    }

    #[test]
    fn baseline_and_optimized_agree_on_all_queries() {
        let (ctx, t) = tpch_context(0.002, 700).unwrap();
        for q in SUITE {
            let name = q.name;
            let base = q.run(&ctx, &t, Strategy::Baseline).unwrap().0;
            let opt = q.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
            assert_outputs_match(&base, &opt, name);
        }
    }

    #[test]
    fn q1_has_expected_groups_and_plausible_sums() {
        let (ctx, t) = tpch_context(0.002, 700).unwrap();
        let out = Q1.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
        // Groups: (A,F), (N,F), (N,O), (R,F) — the classic Q1 output.
        let keys: Vec<(String, String)> = out
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].as_str().unwrap().to_string(),
                    r[1].as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert!(keys.contains(&("A".into(), "F".into())), "{keys:?}");
        assert!(keys.contains(&("N".into(), "O".into())), "{keys:?}");
        for r in &out.rows {
            let count = r[9].as_i64().unwrap();
            assert!(count > 0);
            let sum_base = r[3].as_f64().unwrap();
            let avg_price = r[7].as_f64().unwrap();
            assert!((sum_base / count as f64 - avg_price).abs() < 1e-6);
        }
    }

    #[test]
    fn q3_returns_at_most_ten_ordered_rows() {
        let (ctx, t) = tpch_context(0.002, 700).unwrap();
        let out = Q3.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
        assert!(out.rows.len() <= 10);
        for w in out.rows.windows(2) {
            assert!(w[0][3].as_f64().unwrap() >= w[1][3].as_f64().unwrap());
        }
    }

    /// Q14's one-month window (`l_shipdate >= lo AND l_shipdate < hi`) is
    /// priced as the range it is, not as two independent bounds: at
    /// SF 0.003 the pushed `lineitem` scan was predicted to return 77 KB
    /// against 3.5 KB measured; now the two are within 1.5× of each other.
    #[test]
    fn q14_month_window_is_priced_as_a_range() {
        use pushdown_core::OpReport;
        fn leaf<'r>(op: &'r OpReport, label: &str) -> Option<&'r OpReport> {
            if op.label.starts_with(label) {
                return Some(op);
            }
            op.children.iter().find_map(|c| leaf(c, label))
        }
        let (ctx, t) = tpch_context(0.003, 25_000).unwrap();
        let (_, explain) = Q14.run(&ctx, &t, Strategy::Pushdown).unwrap();
        let ops = explain.operators.unwrap();
        let scan = leaf(&ops, "PushdownScan[lineitem]").expect("a pushed lineitem scan");
        let predicted = scan.predicted.unwrap().select_returned_bytes as f64;
        let actual = scan.actual.select_returned_bytes as f64;
        assert!(actual > 0.0);
        let ratio = predicted / actual;
        assert!(
            (1.0 / 1.5..=1.5).contains(&ratio),
            "{predicted} vs {actual}"
        );
    }

    #[test]
    fn q6_single_scalar() {
        let (ctx, t) = tpch_context(0.002, 700).unwrap();
        let out = Q6.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
        assert_eq!(out.rows.len(), 1);
        assert!(out.rows[0][0].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn q14_is_a_percentage() {
        let (ctx, t) = tpch_context(0.002, 700).unwrap();
        let out = Q14.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
        let v = out.rows[0][0].as_f64().unwrap();
        assert!((0.0..=100.0).contains(&v), "{v}");
    }

    #[test]
    fn optimized_transfers_fewer_bytes() {
        let (ctx, t) = tpch_context(0.002, 700).unwrap();
        for q in SUITE {
            let name = q.name;
            let base = q.run(&ctx, &t, Strategy::Baseline).unwrap().0;
            let opt = q.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
            assert!(
                opt.metrics.bytes_returned() < base.metrics.bytes_returned(),
                "{name}: optimized {} vs baseline {}",
                opt.metrics.bytes_returned(),
                base.metrics.bytes_returned()
            );
        }
    }

    #[test]
    fn optimized_is_faster_under_the_model() {
        let (ctx, t) = tpch_context(0.002, 700).unwrap();
        for q in SUITE {
            let name = q.name;
            let base = q.run(&ctx, &t, Strategy::Baseline).unwrap().0;
            let opt = q.run(&ctx, &t, Strategy::Pushdown).unwrap().0;
            // Project to SF 10 so fixed startup costs don't mask the
            // asymptotic behaviour at the tiny test scale.
            let f = 10.0 / t.scale_factor;
            let bt = base.metrics.scaled(f).runtime(&ctx.model);
            let ot = opt.metrics.scaled(f).runtime(&ctx.model);
            assert!(
                ot < bt,
                "{name}: optimized {ot:.2}s !< baseline {bt:.2}s at SF10"
            );
        }
    }
}
