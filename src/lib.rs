//! # PushdownDB
//!
//! A from-scratch Rust reproduction of *"PushdownDB: Accelerating a DBMS
//! using S3 Computation"* (Yu et al., ICDE 2020), including the simulated
//! S3 + S3 Select substrate the experiments run against.
//!
//! ## Workspace layout
//!
//! This facade crate re-exports the workspace's public API. See the
//! individual crates for details:
//!
//! * [`common`] — values, schemas, rows and [`common::row::RowBatch`]es,
//!   pricing, the cost ledger, the analytical performance model
//! * [`sql`] — the S3 Select SQL dialect (lexer/parser/binder/evaluator)
//! * [`cache`] — the hybrid tier's cost-aware segment cache
//! * [`s3`] — the simulated object store (with the cache's read-through
//!   path)
//! * [`format`](mod@format) — CSV and ColumnarLite (Parquet-like) formats
//! * [`select`] — the S3 Select engine
//! * [`bloom`] — Bloom filters with SQL predicate generation
//! * [`core`] — the PushdownDB engine: streaming scans, operators, the
//!   paper's algorithms as plan trees, and the cluster (each partition
//!   runs on the node owning it)
//! * [`tpch`] — TPC-H generator, synthetic workloads, and the paper's
//!   six TPC-H queries as statements the planner lowers and runs under
//!   any [`core::Strategy`] ([`tpch::SUITE`])
//!
//! The external dependencies the sources use (`bytes`, `parking_lot`,
//! `rand`, `proptest`, `criterion`) are vendored as minimal shims under
//! `crates/shims/` so the workspace builds with **no network access**;
//! swap the `[workspace.dependencies]` entries for the real crates when a
//! registry is available.
//!
//! ## Batched streaming execution
//!
//! Scans decode partitions on a bounded worker pool and hand rows to the
//! operators as fixed-capacity [`common::row::RowBatch`]es, **in
//! partition order** (deterministic results). A local scan evaluates the
//! leaf operator's predicate, projection and top-K reducer
//! ([`core::fragment::ScanFragment`]) inside the worker that decoded the
//! rows, so only survivors cross to the consumer. Filters, aggregations,
//! joins and top-K consume batches incrementally through the state
//! machines in [`core::ops`], so a query pipeline holds its *state* (a
//! K-heap, group accumulators, a join build table, the matches) plus
//! the in-flight rows — `O(scan_threads × batch_rows)` for plain scans,
//! the billed response subset for select scans — never a whole
//! materialized table. `QueryContext::batch_rows` tunes the batch
//! capacity; `QueryContext::scan_threads` the pool width. Cost accounting
//! is batching-invariant: the `CostLedger` and per-query `PhaseStats`
//! charge exactly what the materializing engine charged.
//!
//! ## Cost-based adaptive strategy selection
//!
//! The paper takes the algorithm choice as an explicit input (§VIII);
//! this repo's planner can also choose for itself. `Strategy::Adaptive`
//! ([`core::planner`]) enumerates every applicable candidate plan,
//! predicts each candidate's billable `Usage` and runtime analytically
//! from catalog statistics ([`core::catalog::TableStats`], gathered for
//! free at load time), and executes the cheapest by
//! predicted dollars. Predictions reuse the *same*
//! [`common::perf::PerfModel`] and [`common::pricing::Pricing`] that
//! score measurements ([`core::cost`]), and
//! [`core::planner::execute_sql_verbose`] returns the EXPLAIN surface:
//! every candidate's predicted cost plus a predicted-vs-actual
//! breakdown per phase ([`core::planner::Explain::report`]).
//!
//! ```no_run
//! use pushdowndb::core::planner::execute_sql_verbose;
//! use pushdowndb::core::Strategy;
//! # fn demo(ctx: &pushdowndb::core::QueryContext, table: &pushdowndb::core::Table)
//! # -> pushdowndb::common::Result<()> {
//! let sql = "SELECT id, balance FROM accounts WHERE balance < -990";
//! let (out, explain) = execute_sql_verbose(ctx, table, sql, Strategy::Adaptive)?;
//! println!("{}", explain.report(&out, ctx)); // candidates + predicted vs actual
//! # Ok(()) }
//! ```
//!
//! ## Multi-table SQL & the physical-plan IR
//!
//! Every query lowers to a physical plan ([`core::plan`]) — scan leaves
//! per table (one `Scan` operator whose source is Select, a plain GET or
//! the cache, each delivering only the columns the plan needs),
//! hash/Bloom joins, residual filter, project, group-by, multi-key sort
//! and limit — driven by one
//! push-based executor (batches stream from the scans through the probe
//! side of a join; only a join's build side, aggregation state and a
//! sort's input are held), with the paper's single-table algorithm
//! families participating as leaf operators. The client dialect
//! ([`sql::parse_query`]) accepts equi-`JOIN ... ON` chains, multi-key
//! `ORDER BY`, and ordering GROUP BY results by an aggregate's alias.
//! The primary table is still passed explicitly (`execute_sql*`
//! signatures are unchanged); JOIN tables resolve by name through the
//! context's [`core::Catalog`]:
//!
//! ```no_run
//! use pushdowndb::core::planner::execute_sql_verbose;
//! use pushdowndb::core::Strategy;
//! # fn demo(ctx: &pushdowndb::core::QueryContext,
//! #         customer: &pushdowndb::core::Table, orders: pushdowndb::core::Table)
//! # -> pushdowndb::common::Result<()> {
//! ctx.catalog.register(orders); // or QueryContext::with_tables(...)
//! let sql = "SELECT o_orderdate, SUM(o_totalprice) AS revenue \
//!            FROM customer JOIN orders ON c_custkey = o_custkey \
//!            WHERE c_mktsegment = 'BUILDING' \
//!            GROUP BY o_orderdate ORDER BY revenue DESC LIMIT 10";
//! let (out, explain) = execute_sql_verbose(ctx, customer, sql, Strategy::Adaptive)?;
//! // The report renders the operator tree with per-node predicted vs
//! // actual; Adaptive weighed every join × per-scan-pushdown candidate
//! // ("baseline", "filtered", "build-push", "probe-push", "bloom").
//! println!("{}", explain.report(&out, ctx));
//! # Ok(()) }
//! ```
//!
//! ## The hybrid caching tier
//!
//! Repeated queries stop re-billing S3 for the same bytes: a
//! cost-aware **segment cache** ([`cache::SegmentCache`], described by
//! one [`cache::CacheConfig`] — two tier budgets and an optional
//! directory — and installed with
//! [`core::QueryContext::with_cache_config`] or its shorthands
//! `with_cache` / `with_cache_tiers` / `with_cache_dir`) sits between
//! the engine and the store. Hits bill zero requests/bytes (they appear
//! as `PhaseStats::cache_bytes`, local scan + parse time only); misses
//! fill through the uniform retry policy and bill exactly once;
//! `put_object`/`delete_object` invalidate overlapping segments with an
//! epoch tag **in every cache that reads the store** — the store-wide
//! one and each cluster node's slice, whichever handle wrote — so
//! in-flight fills can never publish stale bytes and no slice serves
//! them. Eviction
//! is weighted LFU by **dollars saved per byte** under the current
//! [`common::pricing::Pricing`]. The adaptive planner prices
//! cached-local vs pushdown vs remote-full **per scan** (a
//! [`core::plan`] scan leaf can read from the cache; joined queries add
//! the all-`cached` and mixed `cached-build` candidates), and
//! `Explain::report` shows a `cache:` hit/fill line plus per-node
//! splits in the operator tree.
//!
//! ```no_run
//! use pushdowndb::core::planner::execute_sql_verbose;
//! use pushdowndb::core::{execute_sql, Strategy};
//! # fn demo(ctx: pushdowndb::core::QueryContext, table: &pushdowndb::core::Table)
//! # -> pushdowndb::common::Result<()> {
//! let ctx = ctx.with_cache(256 << 20); // budget knob: 256 MiB
//! let sql = "SELECT g, SUM(v) FROM t GROUP BY g";
//! let _warm = execute_sql(&ctx, table, sql, Strategy::Adaptive)?; // fills
//! let (out, explain) = execute_sql_verbose(&ctx, table, sql, Strategy::Adaptive)?;
//! println!("{}", explain.report(&out, &ctx)); // cached-local candidate + cache: line
//! assert_eq!(out.billed.plain_bytes, 0);      // warm hits bill nothing
//! // Force the cached tier end to end (fills cold, hits warm):
//! let forced = ctx.clone().with_cache_reads(true);
//! let _same_rows = execute_sql(&forced, table, sql, Strategy::Baseline)?;
//! # Ok(()) }
//! ```
//!
//! ### The tiered, chunk-granular cache
//!
//! The cache is two-tiered: a RAM tier in front of a larger on-disk
//! tier (own budget, read at [`common::perf::PerfParams::disk_read_bw`]
//! vs the mem tier's `cache_read_bw`). Segments are **chunks** of the
//! layout the catalog gives each partition ([`core::Table::cache_layout`])
//! — one per ColumnarLite column chunk plus the footer, as the loader
//! wrote them, fixed byte blocks for CSV
//! ([`core::QueryContext::with_cache_chunk_bytes`]) — so a partially
//! resident object serves its cached chunks from their tier and range-
//! GETs only the **coalesced gaps** (a cold object: one range GET of all
//! of it): gap bytes bill exactly once, hits bill nothing. Mem evictions *demote* to disk instead of dropping;
//! disk hits *promote* back when they fit; both tiers run the same
//! dollars-saved-per-byte eviction, and the planner prices cached scans
//! per segment per tier from live [`cache::SegmentCache::occupancy`].
//!
//! ```no_run
//! use pushdowndb::core::{execute_sql, Strategy};
//! # fn demo(ctx: pushdowndb::core::QueryContext, table: &pushdowndb::core::Table)
//! # -> pushdowndb::common::Result<()> {
//! // Two budget knobs: 256 MiB of RAM in front of 4 GiB of disk.
//! let ctx = ctx.with_cache_tiers(256 << 20, 4u64 << 30);
//! let sql = "SELECT g, SUM(v) FROM t GROUP BY g";
//! let _cold = execute_sql(&ctx, table, sql, Strategy::Adaptive)?; // fills
//! let warm = execute_sql(&ctx, table, sql, Strategy::Adaptive)?;
//! assert_eq!(warm.billed.plain_bytes, 0); // demoted segments still serve locally
//! let s = ctx.cache().unwrap().stats();   // demotions, promotions, disk_hits, …
//! println!("mem {} B / disk {} B resident", s.used_bytes, s.disk_used_bytes);
//! # Ok(()) }
//! ```
//!
//! ### Persistence: the disk tier survives restarts
//!
//! Setting [`cache::CacheConfig::dir`]
//! ([`core::QueryContext::with_cache_dir`] does it for the installed
//! cache) backs the disk tier with a **file-backed segment
//! store** (a segment log guarded by a checksummed, epoch-tagged
//! manifest; appends are write-behind and each cached scan ends in one
//! group commit — segment log fsynced, *then* the manifest — see the
//! `store` module of `pushdown-cache`).
//! A fresh context pointed at the same directory recovers whatever the
//! previous process left durable: manifest replayed, every segment
//! checksum-verified against the live store, disk tier warm, mem tier
//! cold — so segments disk-resident at shutdown, and those promoted to
//! mem from the disk tier (a promotion keeps the log copy), bill
//! **zero** remote bytes again. [`cache::SegmentCache::open`] additionally
//! takes a seeded [`cache::KillPlan`] for deterministic
//! crash-injection at the Nth fsync (or at drop, without the final
//! commit).
//!
//! ```no_run
//! use pushdowndb::cache::CacheConfig;
//! use pushdowndb::core::{execute_sql, QueryContext, Strategy};
//! # fn demo(ctx: pushdowndb::core::QueryContext, table: &pushdowndb::core::Table)
//! # -> pushdowndb::common::Result<()> {
//! // Budgets and directory are one value.
//! let ctx = ctx.with_cache_config(CacheConfig {
//!     mem_bytes: 256 << 20,
//!     disk_bytes: 4u64 << 30,
//!     dir: Some("/var/tmp/pushdowndb-cache".into()),
//! })?;
//! let sql = "SELECT g, SUM(v) FROM t GROUP BY g";
//! let _ = execute_sql(&ctx, table, sql, Strategy::Adaptive)?; // warms + persists
//! let store = ctx.store.clone();
//! drop(ctx); // "process exit"
//! let ctx = QueryContext::new(store)
//!     .with_cache_tiers(256 << 20, 4u64 << 30) // the same, in two steps
//!     .with_cache_dir("/var/tmp/pushdowndb-cache")?; // recovers the warm tier
//! assert!(ctx.cache().unwrap().stats().recovered_segments > 0);
//! # Ok(()) }
//! ```
//!
//! ## The cluster
//!
//! [`core::QueryContext::with_nodes`] attaches an N-node cluster
//! ([`core::Cluster`]): partitions are consistent-hashed across the
//! nodes, each with its own child ledger, virtual clock and cache slice
//! (install the cache *first*: a slice is the store cache's
//! [`cache::CacheConfig`] with both budgets divided by N, attached to
//! the store so writers invalidate it). A plan is the same tree at any
//! node count: the partition fan-out runs every partition request — a
//! scan's, a pushed aggregate's, a sample's, a CASE-WHEN statement's —
//! on the node owning the partition, and a group-by repartitions its
//! rows by group-key hash, so rows stay **bit-identical to the serial
//! run at any node count** while the bill decomposes exactly three
//! ways: store-global = Σ node ledgers = Σ per-query bills. `Adaptive`
//! prices every candidate as it runs on the cluster — each node's share
//! of a cached scan against that node's slice. Node-failure chaos is
//! seed-replayable per node (`Cluster::node_salt`); retries bill extra
//! requests, bytes exactly once.
//!
//! ```no_run
//! use pushdowndb::core::{execute_sql, Strategy};
//! use pushdowndb::s3::FaultPlan;
//! # fn demo(ctx: pushdowndb::core::QueryContext, table: &pushdowndb::core::Table)
//! # -> pushdowndb::common::Result<()> {
//! let ctx = ctx.with_cache(64 << 20).with_nodes(4); // 16 MiB slice per node
//! let sql = "SELECT o_orderdate, SUM(o_totalprice) AS revenue \
//!            FROM customer JOIN orders ON c_custkey = o_custkey \
//!            GROUP BY o_orderdate ORDER BY revenue DESC LIMIT 10";
//! let out = execute_sql(&ctx, table, sql, Strategy::Adaptive)?; // == serial rows
//! for ns in ctx.cluster.as_ref().unwrap().snapshots() {
//!     println!("node {}: {:?}, exchanged {} B", ns.node, ns.usage, ns.exchange_bytes);
//! }
//! // Seed-replayable node failures: same seed + salt ⇒ same fault sites.
//! ctx.store.set_fault_plan(Some(FaultPlan::new(7, 0.3)));
//! let retried = execute_sql(&ctx.scoped_with_salt(9), table, sql, Strategy::Pushdown)?;
//! assert_eq!(retried.rows, out.rows); // bytes billed once, retries are requests
//! # Ok(()) }
//! ```
//!
//! ## Concurrent use, ledger scoping & chaos
//!
//! One [`core::QueryContext`] (and its engine) is safely shared by many
//! concurrent queries. Per-query accounting is **scoped**: every planner
//! entry point runs in [`core::QueryContext::scoped`],
//! billing a [`common::CostLedger::child`] that rolls up atomically into
//! the store-global ledger — [`core::QueryOutput::billed`] is the exact
//! per-query AWS bill under any interleaving, and the store-global delta
//! always equals the sum of the children (pinned by `tests/concurrency.rs`
//! at 2-, 4- and 8-way concurrency).
//!
//! Fault injection is a seeded per-request policy
//! ([`s3::FaultPlan`] via [`s3::S3Store::set_fault_plan`]): faults are a
//! pure function of `(seed, scope salt, key, per-key ordinal)`, so the
//! same seed yields the same fault sites single-threaded or parallel; a
//! failure prints `seed=… salt=… key=… ordinal=…` and is replayed by
//! installing the same plan and scoping with the same salt
//! ([`core::QueryContext::scoped_with_salt`]). All request paths —
//! whole-object, range, multi-range and Select — retry transient faults
//! under one uniform bounded-backoff [`common::RetryPolicy`]
//! (`QueryContext::retry`); each attempt bills a request, bytes bill
//! once, and backoff advances the scope's virtual clock
//! ([`s3::S3Store::virtual_time_s`]). The seeded workload harness
//! (`pushdown_bench::workload`, run by `fig_cache`) drives a
//! Zipf-skewed TPC-H stream one query after another and reports
//! per-query dollars and virtual-time latency.
//!
//! ```no_run
//! use pushdowndb::core::{execute_sql, Strategy};
//! # fn demo(ctx: &pushdowndb::core::QueryContext, table: &pushdowndb::core::Table)
//! # -> pushdowndb::common::Result<()> {
//! let qctx = ctx.scoped(); // one child-ledger scope per query
//! let out = execute_sql(&qctx, table, "SELECT * FROM t WHERE id < 10", Strategy::Adaptive)?;
//! assert_eq!(out.billed, qctx.billed()); // exact, concurrency-safe bill
//! # Ok(()) }
//! ```
//!
//! ## Quickstart
//!
//! Build and verify everything (tier-1 gate):
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```
//!
//! Then see `examples/quickstart.rs`, or run `cargo run --release
//! --example quickstart`.

pub use pushdown_bloom as bloom;
pub use pushdown_cache as cache;
pub use pushdown_common as common;
pub use pushdown_core as core;
pub use pushdown_format as format;
pub use pushdown_s3 as s3;
pub use pushdown_select as select;
pub use pushdown_sql as sql;
pub use pushdown_tpch as tpch;
