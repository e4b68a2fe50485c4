//! Seeded chaos suite (ISSUE 3): under the deterministic fault plan,
//! every query either returns results identical to its fault-free run or
//! fails with a retryable error — and the outcome is a pure function of
//! (seed, salt), independent of thread interleaving.
//!
//! Sweep: `CHAOS_SEED_BASE` (CI matrix) selects a 4-seed window; the CI
//! job runs four windows for a 16-seed matrix. For each (seed,
//! fault_prob) and every planner-suite query:
//!
//! * success ⇒ rows identical to the fault-free reference, billed
//!   scan/return/plain bytes identical (faulted attempts scan nothing),
//!   billed requests ≥ fault-free (retries are extra requests), and
//!   `metrics.usage() == billed` exactly — no ledger double-counting
//!   across retries;
//! * failure ⇒ a retryable `ServiceFault` carrying the seed for replay;
//! * same (seed, salt) ⇒ same outcome, rerun or interleaved.
//!
//! Pinned regression seeds cover each algo family (filter, group-by,
//! top-K, join) with at least one actually-retried request.

use pushdown_bench::run_candidate;
use pushdown_bench::workload::query_salt;
use pushdowndb::common::{RetryPolicy, Value};
use pushdowndb::core::{execute_sql, QueryOutput, Strategy};
use pushdowndb::s3::FaultPlan;
use pushdowndb::tpch::{planner_suite, tpch_context};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Outcome fingerprint: success carries (rows, billed); failure carries
/// the error code (always retryable under chaos).
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Ok(
        Vec<pushdowndb::common::Row>,
        pushdowndb::common::pricing::Usage,
    ),
    Fault(String),
}

fn outcome(res: Result<QueryOutput, pushdowndb::common::Error>) -> Outcome {
    match res {
        Ok(out) => {
            assert_eq!(
                out.metrics.usage(),
                out.billed,
                "metrics must equal the child ledger even across retries"
            );
            Outcome::Ok(out.rows, out.billed)
        }
        Err(e) => {
            assert!(
                e.is_retryable(),
                "chaos may only surface retryable faults, got {e}"
            );
            assert!(
                e.to_string().contains("seed="),
                "fault must print its seed for replay: {e}"
            );
            Outcome::Fault(e.code().to_string())
        }
    }
}

#[test]
fn chaos_sweep_queries_match_fault_free_or_fail_retryably() {
    let (ctx, tables) = tpch_context(0.002, 1_000).unwrap();
    let ctx = ctx.with_retry(RetryPolicy::with_attempts(8));
    let suite = planner_suite();
    // Fault-free references.
    let clean: Vec<QueryOutput> = suite
        .iter()
        .map(|q| execute_sql(&ctx, (q.table)(&tables), q.sql, Strategy::Adaptive).unwrap())
        .collect();

    let base = seed_base();
    let mut retried_queries = 0u32;
    let mut failures = 0u32;
    for seed in base..base + 4 {
        for prob in [0.05, 0.3, 0.9] {
            ctx.store.set_fault_plan(Some(FaultPlan::new(seed, prob)));
            for (qi, q) in suite.iter().enumerate() {
                let salt = seed.wrapping_mul(1_000) + qi as u64;
                let run = || {
                    let qctx = ctx.scoped_with_salt(salt);
                    outcome(execute_sql(
                        &qctx,
                        (q.table)(&tables),
                        q.sql,
                        Strategy::Adaptive,
                    ))
                };
                let first = run();
                // Same seed+salt ⇒ byte-identical outcome on a rerun.
                assert_eq!(first, run(), "seed {seed} prob {prob} {}", q.name);
                match &first {
                    Outcome::Ok(rows, billed) => {
                        let reference = &clean[qi];
                        assert_eq!(rows, &reference.rows, "seed {seed} {}", q.name);
                        assert_eq!(
                            billed.select_scanned_bytes, reference.billed.select_scanned_bytes,
                            "seed {seed} {}: no scan double-billing across retries",
                            q.name
                        );
                        assert_eq!(
                            billed.select_returned_bytes, reference.billed.select_returned_bytes,
                            "seed {seed} {}",
                            q.name
                        );
                        assert_eq!(
                            billed.plain_bytes, reference.billed.plain_bytes,
                            "seed {seed} {}",
                            q.name
                        );
                        assert!(
                            billed.requests >= reference.billed.requests,
                            "seed {seed} {}: retried attempts are extra requests",
                            q.name
                        );
                        if billed.requests > reference.billed.requests {
                            retried_queries += 1;
                        }
                    }
                    Outcome::Fault(_) => failures += 1,
                }
            }
        }
    }
    ctx.store.set_fault_plan(None);
    // The sweep must actually exercise both paths somewhere.
    assert!(retried_queries > 0, "no seed in the window caused a retry");
    assert!(
        failures > 0,
        "prob 0.9 should out-last an 8-attempt budget somewhere"
    );
}

/// Same seed ⇒ same fault sites, single-threaded or parallel: the whole
/// suite under one chaotic plan, executed serially and then by 8
/// threads, produces identical per-query outcomes (including which
/// queries fail).
#[test]
fn chaos_outcomes_are_interleaving_independent() {
    let (ctx, tables) = tpch_context(0.002, 1_000).unwrap();
    let ctx = ctx.with_retry(RetryPolicy::with_attempts(4));
    let suite = planner_suite();
    let seed = seed_base() + 101;
    ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.45)));

    let run_query = |qi: usize| {
        let q = &suite[qi];
        let qctx = ctx.scoped_with_salt(qi as u64);
        outcome(execute_sql(
            &qctx,
            (q.table)(&tables),
            q.sql,
            Strategy::Pushdown,
        ))
    };
    // Serial pass.
    let serial: Vec<Outcome> = (0..suite.len()).map(run_query).collect();
    // 8-thread pass over the same (seed, salt) pairs, twice for measure.
    for round in 0..2 {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; suite.len()]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= suite.len() {
                        break;
                    }
                    let o = run_query(i);
                    slots.lock().unwrap()[i] = Some(o);
                });
            }
        });
        let parallel: Vec<Outcome> = slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|o| o.unwrap())
            .collect();
        assert_eq!(
            serial, parallel,
            "round {round}: fault sites moved under parallel execution"
        );
    }
    ctx.store.set_fault_plan(None);
}

/// One pinned seed over the whole planner suite under Pushdown, with the
/// workload driver's per-query salts: with 12 attempts every statement
/// retries its way to its fault-free rows, bills scan, return and plain
/// bytes once, and its virtual latency (modeled runtime, or the scope's
/// clock when that is larger) never falls below the fault-free run's and
/// replays bit for bit.
#[test]
fn pinned_seed_over_the_whole_suite_under_pushdown() {
    const SEED: u64 = 9;
    let (ctx, tables) = tpch_context(0.002, 1_000).unwrap();
    let ctx = ctx.with_retry(RetryPolicy::with_attempts(12));
    let suite = planner_suite();
    let run = |qi: usize, plan: Option<FaultPlan>| {
        let q = &suite[qi];
        ctx.store.set_fault_plan(plan);
        let qctx = ctx.scoped_with_salt(query_salt(SEED, qi));
        let out = execute_sql(&qctx, (q.table)(&tables), q.sql, Strategy::Pushdown)
            .unwrap_or_else(|e| panic!("{} seed {SEED}: {e}", q.name));
        assert_eq!(out.metrics.usage(), out.billed, "{}", q.name);
        let latency_s = out.runtime(&qctx).max(qctx.virtual_time_s());
        (out, latency_s)
    };
    let mut retried = 0;
    for (qi, q) in suite.iter().enumerate() {
        let (clean, clean_s) = run(qi, None);
        let (chaos, chaos_s) = run(qi, Some(FaultPlan::new(SEED, 0.35)));
        assert_eq!(chaos.rows, clean.rows, "{}: rows moved", q.name);
        let (a, b) = (clean.billed, chaos.billed);
        assert_eq!(
            (
                a.select_scanned_bytes,
                a.select_returned_bytes,
                a.plain_bytes
            ),
            (
                b.select_scanned_bytes,
                b.select_returned_bytes,
                b.plain_bytes
            ),
            "{}: bytes billed more than once",
            q.name
        );
        assert!(b.requests >= a.requests, "{}", q.name);
        retried += (b.requests > a.requests) as usize;
        assert!(chaos_s >= clean_s, "{}: {chaos_s} < {clean_s}", q.name);
        let (again, again_s) = run(qi, Some(FaultPlan::new(SEED, 0.35)));
        assert_eq!((again.rows, again.billed), (chaos.rows, b), "{}", q.name);
        assert_eq!(again_s.to_bits(), chaos_s.to_bits(), "{}", q.name);
    }
    ctx.store.set_fault_plan(None);
    assert!(retried > 0, "the pinned seed must exercise the retry path");
}

/// Pinned regression seeds, one per algo family. Each seed demonstrably
/// exercises the retry path (billed requests exceed the fault-free run)
/// and still returns the exact fault-free answer. If one of these ever
/// fails, replay it: install `FaultPlan::new(seed, 0.45)`, scope with the
/// printed salt, rerun the query.
#[test]
fn pinned_regression_seeds_per_algo_family() {
    let (ctx, tables) = tpch_context(0.002, 1_000).unwrap();
    let ctx = ctx.with_retry(RetryPolicy::with_attempts(12));
    let suite = planner_suite();
    let by_name = |name: &str| {
        suite
            .iter()
            .find(|q| q.name == name)
            .copied()
            .unwrap_or_else(|| panic!("suite query {name}"))
    };

    // (family, suite query, pinned seed, salt). The joined-plan pins
    // exercise retries through *both* join phases (build-side select and
    // probe-side select) of a composed physical plan: success must be
    // row-identical to the fault-free run with no byte double-billed,
    // even when a retry lands mid-join.
    let pinned = [
        ("filter", by_name("filter-selective"), 3u64, 0u64),
        ("group-by", by_name("groupby-uniform"), 6, 1),
        ("top-k", by_name("topk-100"), 7, 2),
        ("join-plan-q3", by_name("join-q3ish"), 21, 4),
        ("join-plan-q12", by_name("join-q12ish"), 22, 5),
    ];
    for (family, q, seed, salt) in pinned {
        let table = (q.table)(&tables);
        ctx.store.set_fault_plan(None);
        let clean = execute_sql(
            &ctx.scoped_with_salt(salt),
            table,
            q.sql,
            Strategy::Pushdown,
        )
        .unwrap();
        ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.45)));
        let chaotic = execute_sql(
            &ctx.scoped_with_salt(salt),
            table,
            q.sql,
            Strategy::Pushdown,
        )
        .unwrap_or_else(|e| panic!("{family} seed {seed}: {e}"));
        assert_eq!(chaotic.rows, clean.rows, "{family} seed {seed}");
        assert!(
            chaotic.billed.requests > clean.billed.requests,
            "{family} seed {seed}: expected at least one retried attempt \
             ({} vs clean {})",
            chaotic.billed.requests,
            clean.billed.requests
        );
        assert_eq!(
            chaotic.billed.select_scanned_bytes, clean.billed.select_scanned_bytes,
            "{family} seed {seed}: retries must not re-bill scans"
        );
    }

    // Pinned **cache-fill** seeds (ISSUE 5): with a segment cache
    // installed and the cached-local strategy forced, the fills are the
    // retried requests — success must be row-identical to the fault-free
    // fill with the bytes billed exactly once, for a single-table and a
    // joined plan. Replay: fresh cache, `FaultPlan::new(seed, 0.45)`,
    // scope with the salt.
    let cache_pins = [
        (
            "cache-fill group-by",
            by_name("groupby-uniform"),
            1u64,
            1u64,
        ),
        ("cache-fill join-plan", by_name("join-q3ish"), 1, 2),
    ];
    for (family, q, seed, salt) in cache_pins {
        let table = (q.table)(&tables);
        ctx.store.set_fault_plan(None);
        // Fresh cold cache per run so every partition read is a fill.
        let cached_ctx = ctx.clone().with_cache(64 << 20).with_cache_reads(true);
        let clean = execute_sql(
            &cached_ctx.scoped_with_salt(salt),
            table,
            q.sql,
            Strategy::Baseline,
        )
        .unwrap();
        let cached_ctx = ctx.clone().with_cache(64 << 20).with_cache_reads(true);
        ctx.store.set_fault_plan(Some(FaultPlan::new(seed, 0.45)));
        let chaotic = execute_sql(
            &cached_ctx.scoped_with_salt(salt),
            table,
            q.sql,
            Strategy::Baseline,
        )
        .unwrap_or_else(|e| panic!("{family} seed {seed}: {e}"));
        assert_eq!(chaotic.rows, clean.rows, "{family} seed {seed}");
        assert!(
            chaotic.billed.requests > clean.billed.requests,
            "{family} seed {seed}: expected retried fill attempts ({} vs {})",
            chaotic.billed.requests,
            clean.billed.requests
        );
        assert_eq!(
            chaotic.billed.plain_bytes, clean.billed.plain_bytes,
            "{family} seed {seed}: fill bytes bill once across retries"
        );
        assert_eq!(
            chaotic.billed.select_scanned_bytes, clean.billed.select_scanned_bytes,
            "{family} seed {seed}: retries must not re-bill scans"
        );
    }
    ctx.store.set_fault_plan(None);
    ctx.store.set_cache(None);

    // Join family: customer ⋈ orders through the Bloom join.
    let sql = "SELECT SUM(o_totalprice) FROM customer JOIN orders ON c_custkey = o_custkey \
               WHERE c_acctbal < 0";
    let bloom = || {
        run_candidate(
            &ctx.scoped_with_salt(3),
            &tables.customer,
            sql,
            "bloom",
            None,
        )
    };
    ctx.store.set_fault_plan(None);
    let clean = bloom().unwrap();
    ctx.store.set_fault_plan(Some(FaultPlan::new(12, 0.45)));
    let chaotic = bloom().unwrap_or_else(|e| panic!("join seed 12: {e}"));
    assert_eq!(chaotic.rows.len(), 1);
    match (&chaotic.rows[0][0], &clean.rows[0][0]) {
        (Value::Float(a), Value::Float(b)) => {
            assert!(
                (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                "join sum {a} vs {b}"
            )
        }
        (a, b) => assert_eq!(a, b, "join seed 12"),
    }
    assert!(
        chaotic.billed.requests > clean.billed.requests,
        "join seed 12: expected retried attempts ({} vs {})",
        chaotic.billed.requests,
        clean.billed.requests
    );
    ctx.store.set_fault_plan(None);
}
