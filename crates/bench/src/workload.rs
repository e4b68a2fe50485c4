//! Seeded multi-query workloads and their driver.
//!
//! The paper evaluates one query at a time; the `fig_cache` experiment
//! runs a stream of them over **one shared** [`QueryContext`], so the
//! cache sees a history:
//!
//! * [`generate_zipf`] — a seeded, Zipf-skewed stream of TPC-H queries
//!   drawn from [`pushdown_tpch::planner_suite`] (every operator family:
//!   filter, scalar aggregate, group-by, top-K);
//! * [`run_stream`] — executes the stream in order, each query in its own
//!   scoped child-ledger context ([`QueryContext::scoped_with_salt`]), and
//!   reports per-query dollars (from the exact per-query child ledgers)
//!   and virtual-time latency.
//!
//! Everything is deterministic: results, ledgers and virtual latencies
//! depend only on (data, workload seed, chaos plan). Under a
//! [`pushdown_s3::FaultPlan`], query *i* gets chaos salt
//! [`query_salt`]`(seed, i)`, which a fault's error text carries
//! (`salt=`), so any chaos outcome can be replayed by seed.

use pushdown_common::mix::splitmix64;
use pushdown_common::pricing::Usage;
use pushdown_core::planner::{execute_sql, Strategy};
use pushdown_core::QueryContext;
use pushdown_tpch::{planner_suite, PlannerQuery, TpchTables};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The chaos salt assigned to query `index` of a workload with `seed` —
/// public so a chaos failure can be reproduced outside the driver.
pub fn query_salt(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// One generated query of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Position in the stream (also determines its chaos salt).
    pub index: usize,
    pub query: PlannerQuery,
}

/// A seeded **Zipf-skewed repeated-query** stream: draw `n` queries from
/// the planner suite with rank-`i` probability ∝ `1/i^theta` (`theta =
/// 1.0` is the classic hot-set skew; `0.0` degrades to uniform). Which
/// suite query is "rank 1" rotates with the seed, so different seeds
/// heat different tables. This is the driver behind the `fig_cache`
/// experiment: a hot set that fits the cache budget gets served locally
/// after its first fill, and billed bytes collapse.
pub fn generate_zipf(seed: u64, n: usize, theta: f64) -> Vec<WorkloadQuery> {
    let suite = planner_suite();
    let len = suite.len();
    let weights: Vec<f64> = (0..len)
        .map(|i| 1.0 / ((i + 1) as f64).powf(theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let rotation = (splitmix64(seed) % len as u64) as usize;
    (0..n)
        .map(|index| {
            let h = splitmix64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let u = (h >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut acc = 0.0;
            let mut rank = len - 1;
            for (i, w) in weights.iter().enumerate() {
                acc += w;
                if u < acc {
                    rank = i;
                    break;
                }
            }
            WorkloadQuery {
                index,
                query: suite[(rank + rotation) % len],
            }
        })
        .collect()
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Seed for both the query mix and the per-query chaos salts.
    pub seed: u64,
    pub strategy: Strategy,
}

/// Per-query outcome. Deterministic given (data, seed, fault plan).
#[derive(Debug, Clone)]
pub struct QueryReport {
    pub index: usize,
    pub name: &'static str,
    pub rows: usize,
    /// Exactly what this query billed on its child ledger.
    pub billed: Usage,
    /// Billed dollars (ledger usage + modeled compute time).
    pub dollars: f64,
    /// Virtual-time latency: modeled runtime, or the scope's virtual I/O
    /// clock when a fault plan's latency model is active (whichever is
    /// larger — the clock includes retry backoff the model cannot see).
    pub latency_s: f64,
    /// `Some(code)` when the query failed (under chaos: always a
    /// retryable fault that out-lasted the retry budget).
    pub error: Option<String>,
}

/// Aggregate outcome of one driven workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub per_query: Vec<QueryReport>,
    /// Deterministic virtual makespan: Σ per-query virtual latency, the
    /// queries run one after another. Depends only on (data, seed, fault
    /// plan).
    pub virtual_makespan_s: f64,
    /// Σ per-query billed dollars.
    pub total_dollars: f64,
    /// Σ per-query child-ledger usage (equals the store-global delta —
    /// the conservation law the concurrency tests pin).
    pub sum_billed: Usage,
    pub failed: usize,
}

/// Execute one workload query in its own scope of `ctx`. Public so test
/// suites can replay a single (seed, index) pair.
///
/// A panic inside the query (a planner or table bug) is caught and
/// surfaced as `error: Some("panic: …")` with whatever the scope had
/// billed so far — one buggy query must not take every other query's
/// report down with it.
pub fn run_one(
    ctx: &QueryContext,
    tables: &TpchTables,
    spec: &WorkloadSpec,
    wq: &WorkloadQuery,
) -> QueryReport {
    let salt = query_salt(spec.seed, wq.index);
    let qctx = ctx.scoped_with_salt(salt);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let table = (wq.query.table)(tables);
        execute_sql(&qctx, table, wq.query.sql, spec.strategy)
    }));
    match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            QueryReport {
                index: wq.index,
                name: wq.query.name,
                rows: 0,
                billed: qctx.billed(),
                dollars: 0.0,
                latency_s: qctx.virtual_time_s(),
                error: Some(format!("panic: {msg}")),
            }
        }
        Ok(Ok(out)) => {
            let latency_s = out.runtime(&qctx).max(qctx.virtual_time_s());
            QueryReport {
                index: wq.index,
                name: wq.query.name,
                rows: out.rows.len(),
                billed: out.billed,
                dollars: out.billed_cost(&qctx).total(),
                latency_s,
                error: None,
            }
        }
        Ok(Err(e)) => QueryReport {
            index: wq.index,
            name: wq.query.name,
            rows: 0,
            billed: qctx.billed(),
            dollars: 0.0,
            latency_s: qctx.virtual_time_s(),
            error: Some(e.code().to_string()),
        },
    }
}

/// Drive an explicit query stream (e.g. [`generate_zipf`]) in order over
/// one shared context.
pub fn run_stream(
    ctx: &QueryContext,
    tables: &TpchTables,
    spec: &WorkloadSpec,
    stream: &[WorkloadQuery],
) -> WorkloadReport {
    let per_query: Vec<QueryReport> = stream
        .iter()
        .map(|wq| run_one(ctx, tables, spec, wq))
        .collect();
    let mut sum_billed = Usage::default();
    let mut total_dollars = 0.0;
    let mut virtual_makespan_s = 0.0;
    let mut failed = 0;
    for q in &per_query {
        sum_billed += q.billed;
        total_dollars += q.dollars;
        virtual_makespan_s += q.latency_s.max(0.0);
        if q.error.is_some() {
            failed += 1;
        }
    }
    WorkloadReport {
        failed,
        virtual_makespan_s,
        total_dollars,
        sum_billed,
        per_query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_tpch::tpch_context;

    #[test]
    fn panicking_query_yields_an_error_report_not_a_poisoned_driver() {
        let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
        fn boom(_: &TpchTables) -> &pushdown_core::Table {
            panic!("table resolver bug")
        }
        let mut stream = generate_zipf(11, 4, 0.0);
        stream[2].query = PlannerQuery {
            name: "boom",
            table: boom,
            sql: "SELECT COUNT(*) FROM t",
        };
        let spec = WorkloadSpec {
            seed: 11,
            strategy: Strategy::Adaptive,
        };
        // Silence the default panic hook for the intentional panic; the
        // driver catches it either way.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_stream(&ctx, &t, &spec, &stream);
        std::panic::set_hook(hook);
        // One bug loses one query's report, not the whole stream's.
        assert_eq!(report.per_query.len(), 4, "report complete");
        assert_eq!(report.failed, 1);
        let bad = &report.per_query[2];
        assert_eq!(bad.name, "boom");
        assert_eq!(bad.error.as_deref(), Some("panic: table resolver bug"));
        for (i, q) in report.per_query.iter().enumerate() {
            if i != 2 {
                assert!(q.error.is_none(), "query {i} unaffected");
                assert!(q.rows > 0);
            }
        }
    }

    #[test]
    fn zipf_streams_are_seeded_and_skewed() {
        let a = generate_zipf(7, 200, 1.0);
        let b = generate_zipf(7, 200, 1.0);
        let names = |v: &[WorkloadQuery]| v.iter().map(|q| q.query.name).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b), "same seed, same stream");
        assert_ne!(names(&a), names(&generate_zipf(8, 200, 1.0)));
        // θ=1.0 concentrates mass: the most frequent query dominates a
        // uniform share, and the hot set is small.
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for q in &a {
            *counts.entry(q.query.name).or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        let uniform = a.len() / planner_suite().len();
        assert!(max > 2 * uniform, "hot query {max} vs uniform {uniform}");
        // θ=0 degrades to a uniform draw (no rank dominates wildly).
        let flat = generate_zipf(7, 900, 0.0);
        let mut fc: std::collections::BTreeMap<&str, usize> = Default::default();
        for q in &flat {
            *fc.entry(q.query.name).or_default() += 1;
        }
        let fmax = *fc.values().max().unwrap();
        assert!(fmax < 2 * (900 / planner_suite().len()), "{fc:?}");
    }
}
