//! Seeded multi-query workloads and the concurrent driver.
//!
//! The paper evaluates one query at a time; the ROADMAP's north star is a
//! system serving many concurrent queries from one shared engine. This
//! module provides the two pieces the `fig13_concurrency` experiment and
//! the concurrency/chaos test suites build on:
//!
//! * [`generate`] — a seeded, deterministic stream of mixed TPC-H queries
//!   drawn from [`pushdown_tpch::planner_suite`] (every operator family:
//!   filter, scalar aggregate, group-by, top-K);
//! * [`run_workload`] — executes the stream at a configurable concurrency
//!   over **one shared** [`QueryContext`], each query in its own scoped
//!   child-ledger context ([`QueryContext::scoped_with_salt`]), and
//!   reports throughput, per-query dollars (from the exact per-query
//!   child ledgers) and virtual-time latency percentiles.
//!
//! Everything except wall-clock throughput is deterministic: results,
//! ledgers and virtual latencies depend only on (data, workload seed,
//! chaos plan), never on thread interleaving. Under a
//! [`pushdown_s3::FaultPlan`], query *i* gets chaos salt
//! `mix(seed, i)` — printed on failure so any chaos outcome can be
//! replayed by seed.

use pushdown_common::mix::{fnv1a, splitmix64};
use pushdown_common::pricing::Usage;
use pushdown_common::{Error, Result};
use pushdown_core::planner::{execute_sql, Strategy};
use pushdown_core::{NodeSnapshot, QueryContext, QueryOutput};
use pushdown_tpch::{planner_suite, PlannerQuery, TpchTables};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// A seeded stream of `n` mixed queries from the planner-dialect TPC-H
/// suite. The first `suite.len()` entries are a seeded *rotation* of the
/// whole suite — any stream at least that long exercises every operator
/// family, joined queries included — and the tail draws uniformly by
/// hash. Deterministic in `seed`.
pub fn generate(seed: u64, n: usize) -> Vec<WorkloadQuery> {
    let suite = planner_suite();
    let len = suite.len() as u64;
    (0..n)
        .map(|index| {
            let pick = if index < suite.len() {
                (splitmix64(seed).wrapping_add(index as u64) % len) as usize
            } else {
                (splitmix64(seed ^ index as u64) % len) as usize
            };
            WorkloadQuery {
                index,
                query: suite[pick],
            }
        })
        .collect()
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

/// What to run and how hard to push.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Seed for both the query mix and the per-query chaos salts.
    pub seed: u64,
    /// Queries in the stream.
    pub queries: usize,
    /// Worker threads executing the stream over the shared engine.
    pub concurrency: usize,
    pub strategy: Strategy,
}

/// Per-query outcome. Deterministic given (data, seed, fault plan).
#[derive(Debug, Clone)]
pub struct QueryReport {
    pub index: usize,
    pub name: &'static str,
    /// Chaos salt this query ran under (replay: same plan seed + salt).
    pub salt: u64,
    /// Order-sensitive digest of the result rows (serial/concurrent
    /// equivalence is digest equality).
    pub row_digest: u64,
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

/// Per-node accounting of one driven workload, when the shared context
/// carries a cluster (`QueryContext::with_nodes`). All
/// numbers are run deltas (snapshots before minus after), so reports
/// stay independent even though node ledgers accumulate across runs.
#[derive(Debug, Clone)]
pub struct NodeUtilization {
    pub node: usize,
    /// Virtual seconds this node's clock advanced during the run
    /// (deterministic: retry backoff + modeled transfer time).
    pub busy_s: f64,
    /// `busy_s` relative to the busiest node (1.0 = the critical path;
    /// the spread across nodes is the cluster's load balance).
    pub utilization: f64,
    /// Interconnect bytes this node shipped.
    pub exchange_bytes: u64,
    /// Exactly what this node's ledger billed during the run.
    pub billed: Usage,
}

/// Aggregate outcome of one driven workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub per_query: Vec<QueryReport>,
    /// Wall-clock seconds the driver took (the only non-deterministic
    /// number here; everything else is virtual or exact).
    pub wall_s: f64,
    /// Queries per wall-clock second (non-deterministic; use
    /// [`WorkloadReport::virtual_qps`] in seed-replayable gates).
    pub throughput_qps: f64,
    /// Σ per-query virtual latency — total virtual service demand.
    pub virtual_busy_s: f64,
    /// Deterministic virtual makespan: the recorded latencies replayed
    /// through [`virtual_makespan`] over `spec.concurrency` virtual
    /// workers. Depends only on (data, seed, fault plan, concurrency).
    pub virtual_makespan_s: f64,
    /// Queries per *virtual* second of makespan — the deterministic
    /// throughput figure `fig_*` gates may assert on.
    pub virtual_qps: f64,
    /// Σ per-query billed dollars.
    pub total_dollars: f64,
    /// Σ per-query child-ledger usage (equals the store-global delta —
    /// the conservation law the concurrency tests pin).
    pub sum_billed: Usage,
    pub succeeded: usize,
    pub failed: usize,
    /// Per-node run deltas under a cluster context; empty without one.
    /// Conservation: Σ `node_stats[*].billed` == `sum_billed` (every
    /// request bills jointly to its query scope and its node).
    pub node_stats: Vec<NodeUtilization>,
}

impl WorkloadReport {
    /// Virtual-latency percentile over **all** queries (`p` in 0..=100),
    /// ceiling nearest-rank: the smallest latency `x` such that at least
    /// `p`% of samples are ≤ `x` (index `⌈p/100·n⌉ − 1`). Rounding to
    /// the *nearest* rank under-reports tail percentiles — on 10 samples
    /// a rounded p95 lands on the 9th value, not the max.
    ///
    /// Errored queries count at their observed virtual latency (the
    /// scope's virtual clock, which includes every retry the fault plan
    /// charged before giving up). Filtering them out would be
    /// survivorship bias: under chaos the slowest attempts are exactly
    /// the ones that fail, and dropping them silently *improves* the
    /// reported tail. Track failures via [`WorkloadReport::error_rate`].
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lats: Vec<f64> = self.per_query.iter().map(|q| q.latency_s).collect();
        if lats.is_empty() {
            return 0.0;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = lats.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        lats[rank.saturating_sub(1).min(n - 1)]
    }

    /// Fraction of queries that errored (0.0 when the report is empty).
    /// The separate channel for what [`WorkloadReport::latency_percentile`]
    /// folds into the latency distribution.
    pub fn error_rate(&self) -> f64 {
        if self.per_query.is_empty() {
            0.0
        } else {
            self.failed as f64 / self.per_query.len() as f64
        }
    }
}

/// Deterministic virtual makespan of a closed-loop pool: latencies are
/// replayed in stream order, each assigned to the earliest-free of
/// `workers` virtual workers (the driver's greedy dispatch); the
/// makespan is the busiest worker's finish time. Unlike wall-clock
/// elapsed time this depends only on the recorded virtual latencies, so
/// same-seed runs agree bit-for-bit.
pub fn virtual_makespan(latencies: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    for &lat in latencies {
        let w = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        free[w] += lat.max(0.0);
    }
    free.iter().cloned().fold(0.0, f64::max)
}

/// Order-sensitive FNV-1a digest over the CSV rendering of result rows.
pub(crate) fn digest_rows(out: &QueryOutput) -> u64 {
    fnv1a(out.rows.iter().flat_map(|row| {
        row.values()
            .iter()
            .flat_map(|v| {
                let mut field = v.to_csv_field().into_bytes();
                field.push(b',');
                field
            })
            .chain(std::iter::once(b'\n'))
    }))
}

/// Execute one workload query in its own scope of `ctx`. Public so test
/// suites can replay a single (seed, index) pair.
///
/// A panic inside the query (a planner or table bug) is caught and
/// surfaced as `error: Some("panic: …")` with whatever the scope had
/// billed so far — one buggy query must not poison the driver's report
/// mutex and take every other query's report down with it.
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
                salt,
                row_digest: 0,
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
                salt,
                row_digest: digest_rows(&out),
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
            salt,
            row_digest: 0,
            rows: 0,
            billed: qctx.billed(),
            dollars: 0.0,
            latency_s: qctx.virtual_time_s(),
            error: Some(e.code().to_string()),
        },
    }
}

/// Drive the seeded stream at `spec.concurrency` over one shared context.
/// Reports come back indexed by stream position regardless of completion
/// order.
pub fn run_workload(
    ctx: &QueryContext,
    tables: &TpchTables,
    spec: &WorkloadSpec,
) -> Result<WorkloadReport> {
    let stream = generate(spec.seed, spec.queries);
    run_stream(ctx, tables, spec, &stream)
}

/// Drive an explicit query stream (e.g. [`generate_zipf`]) at
/// `spec.concurrency` over one shared context. `spec.queries` is ignored
/// in favor of the stream's length.
pub fn run_stream(
    ctx: &QueryContext,
    tables: &TpchTables,
    spec: &WorkloadSpec,
    stream: &[WorkloadQuery],
) -> Result<WorkloadReport> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<QueryReport>>> = Mutex::new(vec![None; stream.len()]);
    let nodes_before = ctx.cluster.as_ref().map(|c| c.snapshots());
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..spec.concurrency.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(wq) = stream.get(i) else { break };
                let report = run_one(ctx, tables, spec, wq);
                slots.lock().unwrap()[i] = Some(report);
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let per_query: Vec<QueryReport> = slots
        .into_inner()
        .map_err(|_| Error::Other("a client thread panicked while recording its report".into()))?
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| Error::Other(format!("stream slot {i} was never filled"))))
        .collect::<Result<_>>()?;
    let mut sum_billed = Usage::default();
    let mut total_dollars = 0.0;
    let mut failed = 0;
    for q in &per_query {
        sum_billed += q.billed;
        total_dollars += q.dollars;
        if q.error.is_some() {
            failed += 1;
        }
    }
    let lats: Vec<f64> = per_query.iter().map(|q| q.latency_s).collect();
    let virtual_busy_s: f64 = lats.iter().sum();
    let virtual_makespan_s = virtual_makespan(&lats, spec.concurrency.max(1));
    Ok(WorkloadReport {
        succeeded: per_query.len() - failed,
        failed,
        throughput_qps: per_query.len() as f64 / wall_s.max(1e-9),
        wall_s,
        virtual_busy_s,
        virtual_qps: per_query.len() as f64 / virtual_makespan_s.max(1e-9),
        virtual_makespan_s,
        total_dollars,
        sum_billed,
        per_query,
        node_stats: node_deltas(ctx, nodes_before),
    })
}

/// Per-node run deltas between two cluster snapshots (empty without a
/// cluster): what each node billed, shipped and spent during the run.
fn node_deltas(ctx: &QueryContext, before: Option<Vec<NodeSnapshot>>) -> Vec<NodeUtilization> {
    let (Some(cluster), Some(before)) = (ctx.cluster.as_ref(), before) else {
        return Vec::new();
    };
    let after = cluster.snapshots();
    let busy: Vec<f64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| (a.seconds - b.seconds).max(0.0))
        .collect();
    let max_busy = busy.iter().cloned().fold(0.0f64, f64::max);
    after
        .iter()
        .zip(&before)
        .zip(busy)
        .map(|((a, b), busy_s)| NodeUtilization {
            node: a.node,
            busy_s,
            utilization: if max_busy > 0.0 {
                busy_s / max_busy
            } else {
                0.0
            },
            exchange_bytes: a.exchange_bytes - b.exchange_bytes,
            billed: Usage {
                requests: a.usage.requests - b.usage.requests,
                select_scanned_bytes: a.usage.select_scanned_bytes - b.usage.select_scanned_bytes,
                select_returned_bytes: a.usage.select_returned_bytes
                    - b.usage.select_returned_bytes,
                plain_bytes: a.usage.plain_bytes - b.usage.plain_bytes,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_tpch::tpch_context;

    #[test]
    fn percentiles_use_ceiling_nearest_rank() {
        // Ten fixed latencies 1..=10 (shuffled on input; the percentile
        // sorts). Ceiling nearest-rank ⌈p/100·n⌉−1 pins every value:
        // p50 → 5th sample, p95/p99/p100 → the max. Nearest-rank by
        // rounding would report p50 = 6 and p95 = 9 instead.
        let report = WorkloadReport {
            per_query: [7.0, 1.0, 10.0, 3.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0]
                .iter()
                .enumerate()
                .map(|(i, &lat)| QueryReport {
                    index: i,
                    name: "fixed",
                    salt: 0,
                    row_digest: 0,
                    rows: 0,
                    billed: Usage::default(),
                    dollars: 0.0,
                    latency_s: lat,
                    error: None,
                })
                .collect(),
            wall_s: 0.0,
            throughput_qps: 0.0,
            virtual_busy_s: 0.0,
            virtual_makespan_s: 0.0,
            virtual_qps: 0.0,
            total_dollars: 0.0,
            sum_billed: Usage::default(),
            succeeded: 10,
            failed: 0,
            node_stats: vec![],
        };
        assert_eq!(report.latency_percentile(50.0), 5.0);
        assert_eq!(report.latency_percentile(95.0), 10.0);
        assert_eq!(report.latency_percentile(99.0), 10.0);
        assert_eq!(report.latency_percentile(100.0), 10.0);
        // Low tail: p0 and p10 clamp to / land on the minimum.
        assert_eq!(report.latency_percentile(0.0), 1.0);
        assert_eq!(report.latency_percentile(10.0), 1.0);
    }

    #[test]
    fn failed_queries_count_in_tail_percentiles() {
        // Nine fast successes and one slow failure: the failure IS the
        // tail. Pre-fix, `latency_percentile` filtered errored queries
        // and reported p99 = 1.0 — survivorship bias that made a chaos
        // run's SLO look *better* the more queries timed out.
        let mut per_query: Vec<QueryReport> = (0..9)
            .map(|i| QueryReport {
                index: i,
                name: "ok",
                salt: 0,
                row_digest: 0,
                rows: 0,
                billed: Usage::default(),
                dollars: 0.0,
                latency_s: 1.0,
                error: None,
            })
            .collect();
        per_query.push(QueryReport {
            index: 9,
            name: "slow-failure",
            salt: 0,
            row_digest: 0,
            rows: 0,
            billed: Usage::default(),
            dollars: 0.0,
            latency_s: 100.0,
            error: Some("retries_exhausted".to_string()),
        });
        let report = WorkloadReport {
            per_query,
            wall_s: 0.0,
            throughput_qps: 0.0,
            virtual_busy_s: 0.0,
            virtual_makespan_s: 0.0,
            virtual_qps: 0.0,
            total_dollars: 0.0,
            sum_billed: Usage::default(),
            succeeded: 9,
            failed: 1,
            node_stats: vec![],
        };
        assert_eq!(report.latency_percentile(99.0), 100.0);
        assert_eq!(report.latency_percentile(100.0), 100.0);
        assert_eq!(report.latency_percentile(50.0), 1.0);
        assert!((report.error_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn virtual_makespan_replays_greedy_dispatch() {
        // Stream order [3,1,1,1] over two virtual workers: worker 0
        // takes the 3, worker 1 drains the three 1s — makespan 3, not
        // the serial 6 and not the optimal-offline answer for other
        // orders. One worker degrades to the serial sum; empty is 0.
        assert_eq!(virtual_makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
        assert_eq!(virtual_makespan(&[3.0, 1.0, 1.0, 1.0], 1), 6.0);
        assert_eq!(virtual_makespan(&[], 4), 0.0);
        // More workers than queries: makespan = max latency.
        assert_eq!(virtual_makespan(&[2.0, 5.0, 1.0], 8), 5.0);
    }

    #[test]
    fn panicking_query_yields_an_error_report_not_a_poisoned_driver() {
        let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
        fn boom(_: &TpchTables) -> &pushdown_core::Table {
            panic!("table resolver bug")
        }
        let mut stream = generate(11, 4);
        stream[2].query = PlannerQuery {
            name: "boom",
            table: boom,
            sql: "SELECT COUNT(*) FROM t",
        };
        let spec = WorkloadSpec {
            seed: 11,
            queries: stream.len(),
            concurrency: 2,
            strategy: Strategy::Adaptive,
        };
        // Silence the default panic hook for the intentional panic; the
        // driver catches it either way.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_stream(&ctx, &t, &spec, &stream);
        std::panic::set_hook(hook);
        // Pre-fix this unwound through `slots.lock().unwrap()[i]` and
        // poisoned the mutex: the whole report was lost to one bug.
        let report = report.unwrap();
        assert_eq!(report.per_query.len(), 4, "report complete");
        assert_eq!(report.failed, 1);
        let bad = &report.per_query[2];
        assert_eq!(bad.name, "boom");
        assert_eq!(bad.error.as_deref(), Some("panic: table resolver bug"));
        for (i, q) in report.per_query.iter().enumerate() {
            if i != 2 {
                assert!(q.error.is_none(), "query {i} unaffected");
                assert!(q.rows > 0 || q.row_digest != 0);
            }
        }
    }

    #[test]
    fn generation_is_seeded_and_mixed() {
        let a = generate(7, 40);
        let b = generate(7, 40);
        let c = generate(8, 40);
        let names = |v: &[WorkloadQuery]| v.iter().map(|q| q.query.name).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b), "same seed, same stream");
        assert_ne!(names(&a), names(&c), "different seed, different stream");
        // Mixed: more than one family shows up in a 40-query stream.
        let distinct: std::collections::BTreeSet<_> = names(&a).into_iter().collect();
        assert!(distinct.len() >= 3, "{distinct:?}");
    }

    #[test]
    fn streams_at_least_suite_long_cover_every_family() {
        let suite_len = planner_suite().len();
        // Any seed: the rotation prefix covers the whole suite, joined
        // queries included (the fig13 CI smoke relies on this with
        // seed 42 and 16 queries).
        for seed in [0, 7, 42, 1234] {
            let stream = generate(seed, suite_len.max(16));
            let distinct: std::collections::BTreeSet<_> =
                stream.iter().map(|q| q.query.name).collect();
            assert_eq!(distinct.len(), suite_len, "seed {seed}: {distinct:?}");
            assert!(
                distinct.iter().any(|n| n.starts_with("join-")),
                "seed {seed}: joined queries missing from {distinct:?}"
            );
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

    #[test]
    fn driver_results_and_ledgers_are_concurrency_invariant() {
        let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
        let mut spec = WorkloadSpec {
            seed: 11,
            queries: 10,
            concurrency: 1,
            strategy: Strategy::Adaptive,
        };
        let serial = run_workload(&ctx, &t, &spec).unwrap();
        assert_eq!(serial.failed, 0);
        spec.concurrency = 4;
        let concurrent = run_workload(&ctx, &t, &spec).unwrap();
        for (a, b) in serial.per_query.iter().zip(&concurrent.per_query) {
            assert_eq!(a.row_digest, b.row_digest, "query {} rows", a.index);
            assert_eq!(a.billed, b.billed, "query {} ledger", a.index);
        }
        assert_eq!(serial.sum_billed, concurrent.sum_billed);
        // Virtual throughput is deterministic: serial makespan is the
        // busy sum, four workers can only shrink it, and both figures
        // replay exactly from the recorded latencies.
        assert!((serial.virtual_makespan_s - serial.virtual_busy_s).abs() < 1e-12);
        assert!(concurrent.virtual_makespan_s <= serial.virtual_makespan_s + 1e-12);
        assert!(concurrent.virtual_qps >= serial.virtual_qps - 1e-12);
        assert!(serial.virtual_qps > 0.0);
        assert!(serial.total_dollars > 0.0);
        assert!(serial.latency_percentile(50.0) > 0.0);
        assert!(serial.latency_percentile(95.0) >= serial.latency_percentile(50.0));
        assert!(serial.node_stats.is_empty(), "no cluster, no node rows");
    }

    #[test]
    fn cluster_workloads_report_per_node_utilization_and_exchange() {
        let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
        let ctx = ctx.with_nodes(2);
        let spec = WorkloadSpec {
            seed: 11,
            queries: 8,
            concurrency: 2,
            strategy: Strategy::Pushdown,
        };
        let report = run_workload(&ctx, &t, &spec).unwrap();
        assert_eq!(report.failed, 0);
        assert_eq!(report.node_stats.len(), 2);
        // Conservation: the node deltas decompose the workload's bill.
        let mut nodes = Usage::default();
        for n in &report.node_stats {
            nodes += n.billed;
        }
        assert_eq!(nodes, report.sum_billed, "Σ node deltas == Σ query bills");
        // The queries spread over the nodes: both nodes billed,
        // the interconnect carried rows, and the busiest node defines
        // utilization 1.0.
        assert!(report.node_stats.iter().all(|n| n.billed.requests > 0));
        assert!(report.node_stats.iter().any(|n| n.exchange_bytes > 0));
        let max_util = report
            .node_stats
            .iter()
            .map(|n| n.utilization)
            .fold(0.0f64, f64::max);
        assert!((max_util - 1.0).abs() < 1e-12 || max_util == 0.0);
    }
}
