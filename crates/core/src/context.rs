//! Query execution context: the store, the Select engine, and the models.
//!
//! # Concurrency & scoping
//!
//! One `QueryContext` (and the engine inside it) is safely shared by many
//! concurrent queries. Each query runs against a **scoped** context
//! ([`QueryContext::scoped`]): the scope's store handle bills a
//! [`CostLedger`](pushdown_common::CostLedger) *child* that rolls up
//! atomically into the store-global ledger, so per-query accounting is
//! exact under any interleaving — no resets, no snapshot deltas. Every
//! planner entry point scopes itself, so callers get
//! correct per-query bills ([`crate::output::QueryOutput::billed`])
//! without doing anything.

use crate::catalog::{Catalog, Table};
use crate::cluster::Cluster;
use crate::scan::CacheEffects;
use pushdown_bloom::BloomBuilder;
use pushdown_cache::{CacheConfig, SegmentCache};
use pushdown_common::perf::PerfModel;
use pushdown_common::pricing::{Pricing, Usage};
use pushdown_common::{Error, Result, RetryPolicy};
use pushdown_s3::S3Store;
use pushdown_select::S3SelectEngine;

/// Everything an algorithm needs to execute and be accounted.
#[derive(Clone)]
pub struct QueryContext {
    pub store: S3Store,
    pub engine: S3SelectEngine,
    pub model: PerfModel,
    pub pricing: Pricing,
    pub bloom: BloomBuilder,
    /// Name → table registry used to resolve the *join* tables of
    /// multi-table SQL (the primary table is always passed explicitly).
    /// Shared across scopes; empty by default.
    pub catalog: Catalog,
    /// Worker threads for parallel partition scans.
    pub scan_threads: usize,
    /// Rows per [`pushdown_common::row::RowBatch`] on the streaming scan
    /// path. Together with `scan_threads` this bounds peak resident rows:
    /// scans hold `O(scan_threads × batch_rows)` rows in flight instead
    /// of materializing whole tables.
    pub batch_rows: usize,
    /// The uniform bounded-backoff retry policy for transient store
    /// faults — applied identically to whole-object GETs, range GETs,
    /// multi-range GETs and Select requests.
    pub retry: RetryPolicy,
    /// Lower every plain-GET scan leaf as a cache read
    /// ([`crate::scan::ScanSource::Cached`]) when the store has a segment
    /// cache installed (see [`QueryContext::with_cache`]), so the pricer
    /// prices what runs. `false` by default so the fixed strategies keep
    /// their pure remote-scan semantics (the planner's `cached-local`
    /// candidates read through cache-source scan leaves whatever it
    /// says); forced-cached runs flip it per statement.
    pub cache_reads: bool,
    /// Segment size for caching CSV partitions: a CSV partition's chunk
    /// layout ([`crate::catalog::Table::cache_layout`]) is fixed blocks
    /// of this many bytes, each its own [`pushdown_cache::SegmentKey`]
    /// (ColumnarLite partitions split at the column-chunk extents the
    /// loader wrote instead and ignore this knob). Smaller blocks mean
    /// finer partial hits at more segments; 64 KiB by default.
    pub cache_chunk_bytes: u64,
    /// The cluster this context executes on, if any
    /// ([`QueryContext::with_nodes`]). `None` — the default — is the
    /// plain single-node engine; a 1-node cluster behaves identically
    /// but routes through node 0's ledger, clock and cache slice.
    pub cluster: Option<Cluster>,
    /// Set when a cluster scope is active: the query's *base* store
    /// scope, whose ledger carries the whole query's bill (coordinator
    /// and every node). The execution store in `store` is a joint child
    /// of this base and one node's ledger, so Σ node ledgers and
    /// Σ query ledgers decompose the same global total.
    pub(crate) cluster_base: Option<S3Store>,
    /// Set while a pipelined hash join runs this context's side of it:
    /// its cached scans hand their cache effects here instead of applying
    /// them, and the join applies both sides' once both are in
    /// ([`crate::scan::CacheEffects`]).
    pub(crate) deferred: Option<CacheEffects>,
}

impl QueryContext {
    pub fn new(store: S3Store) -> Self {
        let engine = S3SelectEngine::new(store.clone());
        QueryContext {
            store,
            engine,
            model: PerfModel::default(),
            pricing: Pricing::us_east(),
            bloom: BloomBuilder::default(),
            catalog: Catalog::default(),
            scan_threads: std::thread::available_parallelism()
                .map(|n| n.get().min(16))
                .unwrap_or(4),
            batch_rows: 1024,
            retry: RetryPolicy::default(),
            cache_reads: false,
            cache_chunk_bytes: 64 * 1024,
            cluster: None,
            cluster_base: None,
            deferred: None,
        }
    }

    /// A context for one query: same objects, models and engine
    /// configuration, but billing to a fresh child ledger (rolling up into
    /// this context's ledger and the store-global one), with its own
    /// virtual clock and fault stream. Scoping composes — a scope of a
    /// scope rolls up through the chain.
    pub fn scoped(&self) -> QueryContext {
        self.scoped_with_salt(self.store.scope_salt())
    }

    /// [`QueryContext::scoped`] with an explicit chaos salt: a workload
    /// giving query *i* salt *i* gets per-query-independent, reproducible
    /// fault streams from a single [`pushdown_s3::FaultPlan`] seed.
    ///
    /// When a [`Cluster`] is attached and no cluster scope is active yet,
    /// this *activates* one: the query gets a base scope (its per-query
    /// ledger) and executes as the coordinator — jointly billing the base
    /// and node 0 (same salt as serial execution, so the coordinator's
    /// fault stream matches the single-node engine request for request).
    /// Nested scopes inside algorithms then compose plainly underneath.
    pub fn scoped_with_salt(&self, salt: u64) -> QueryContext {
        let base = self.store.scoped_with_salt(salt);
        let Some(cluster) = self
            .cluster
            .as_ref()
            .filter(|_| self.cluster_base.is_none())
        else {
            return self.rebound(base);
        };
        let n0 = cluster.node(0);
        let exec = base
            .scoped_with_peer(salt, &n0.ledger, &n0.clock)
            .with_cache_override(n0.cache.clone());
        let mut ctx = self.rebound(exec);
        ctx.cluster_base = Some(base);
        ctx
    }

    /// An execution context for cluster node `node`: bills jointly to the
    /// query's base ledger and the node's own ledger, runs on the node's
    /// virtual clock and cache slice, and draws faults from the node's
    /// per-query salt stream. Falls back to a plain clone outside an
    /// active cluster scope.
    pub(crate) fn node_exec(&self, node: usize) -> QueryContext {
        let (Some(cluster), Some(base)) = (&self.cluster, &self.cluster_base) else {
            return self.clone();
        };
        let nd = cluster.node(node);
        let salt = Cluster::node_salt(base.scope_salt(), node);
        let store = base
            .scoped_with_peer(salt, &nd.ledger, &nd.clock)
            .with_cache_override(nd.cache.clone());
        self.rebound(store)
    }

    /// The cluster this context's partitions spread over: an attached
    /// cluster of more than one node, under an active cluster scope. Each
    /// partition of a scan then runs on the context of the node owning it
    /// ([`QueryContext::node_exec`]); `None` runs them all here.
    pub(crate) fn spread(&self) -> Option<&Cluster> {
        let active = self.cluster_base.is_some();
        self.cluster.as_ref().filter(|c| active && c.n() > 1)
    }

    /// A copy of this context whose cached scans hold their cache effects
    /// in `effects` instead of applying them.
    pub(crate) fn deferring(&self, effects: &CacheEffects) -> QueryContext {
        QueryContext {
            deferred: Some(effects.clone()),
            ..self.clone()
        }
    }

    fn rebound(&self, store: S3Store) -> QueryContext {
        // Re-sync the engine onto the scoped store (so Select billing hits
        // the child ledger) and onto the context's current retry policy.
        let engine = self.engine.rebound(store.clone()).with_retry(self.retry);
        QueryContext {
            store,
            engine,
            ..self.clone()
        }
    }

    /// What this context's scope has billed so far. On a scope made by
    /// [`QueryContext::scoped`] this is exactly the per-query usage —
    /// under a cluster scope, the query's *base* ledger, which covers
    /// the coordinator and every node the query ran partitions on.
    pub fn billed(&self) -> Usage {
        match &self.cluster_base {
            Some(base) => base.ledger().snapshot(),
            None => self.store.ledger().snapshot(),
        }
    }

    /// Virtual seconds this scope's store traffic has accumulated (zero
    /// unless a [`pushdown_s3::FaultPlan`] is installed). Under a cluster
    /// scope: the query's base clock, advanced by coordinator and node
    /// work alike.
    pub fn virtual_time_s(&self) -> f64 {
        match &self.cluster_base {
            Some(base) => base.virtual_time_s(),
            None => self.store.virtual_time_s(),
        }
    }

    /// Attach an `n`-node [`Cluster`]: partitions get consistent-hashed
    /// across `n` nodes, each with its own ledger, virtual clock and cache
    /// slice (`budget / n` each — install the cache with
    /// [`QueryContext::with_cache`] *before* this call to get per-node
    /// slices). Plans run under this context unchanged: every partition
    /// request of a scan runs on the node owning the partition, and the
    /// rows arrive in global partition order; `n = 1` reproduces
    /// single-node execution through node 0.
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.cluster = Some(Cluster::new(&self.store, n, self.pricing));
        self
    }

    /// Register tables in the context's [`Catalog`] so multi-table SQL
    /// can resolve them by name (builder form of [`Catalog::register`]).
    pub fn with_tables(self, tables: impl IntoIterator<Item = Table>) -> Self {
        for t in tables {
            self.catalog.register(t);
        }
        self
    }

    /// Override the streaming batch capacity (rows per batch, ≥ 1).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// Override the retry policy (engine and GET paths alike).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self.engine = self.engine.clone().with_retry(retry);
        self
    }

    /// Install a segment cache opened from `config` on the store,
    /// weighted by this context's current [`Pricing`] — the one body
    /// behind every `with_cache*` installer. With `config.dir` set the
    /// disk tier is a **persistent file store**: the on-disk manifest is
    /// replayed, every surviving segment is checksum-verified against
    /// the live store (so a chunk persisted before a crash is never
    /// served after its object was rewritten, even if the rewrite
    /// happened while the cache was down), and recovered segments land
    /// disk-resident (memory starts cold, disk starts warm). An empty or
    /// absent directory simply starts a fresh persistent cache.
    ///
    /// **Store-wide, not per-copy**: like
    /// [`QueryContext::with_tables`] and the shared [`Catalog`], this
    /// mutates state every context on the same store shares — cloned
    /// and scoped contexts (and concurrently running queries) see the
    /// cache immediately, and dropping the returned context does not
    /// uninstall it (`ctx.store.set_cache(None)` does). The adaptive
    /// planner starts weighing `cached-local` candidates against
    /// pushdown and remote scans as soon as a cache is present.
    ///
    /// # Errors
    ///
    /// Only when `config.dir` cannot be created or opened.
    pub fn with_cache_config(self, config: CacheConfig) -> Result<Self> {
        let store = self.store.clone();
        let probe = move |b: &str, k: &str, r: (u64, u64)| store.object_range_digest(b, k, r);
        let cache = SegmentCache::open(&config, self.pricing, None, Some(&probe))?;
        self.store.set_cache(Some(cache));
        Ok(self)
    }

    /// [`QueryContext::with_cache_config`] for a mem-only cache of
    /// `budget_bytes` (the caching tier's budget knob). A budget of 0
    /// caches nothing.
    pub fn with_cache(self, budget_bytes: u64) -> Self {
        self.with_cache_tiers(budget_bytes, 0)
    }

    /// [`QueryContext::with_cache_config`] for a **two-tier** cache:
    /// `mem_budget_bytes` of memory (read back at `cache_read_bw`) over
    /// `disk_budget_bytes` of simulated instance storage (read back at
    /// the slower `disk_read_bw`). Segments evicted from memory demote
    /// to disk; disk hits promote back.
    pub fn with_cache_tiers(self, mem_budget_bytes: u64, disk_budget_bytes: u64) -> Self {
        self.with_cache_config(CacheConfig {
            mem_bytes: mem_budget_bytes,
            disk_bytes: disk_budget_bytes,
            ..CacheConfig::default()
        })
        .expect("a cache without a directory opens no file")
    }

    /// Re-open the installed cache — same budgets — with its disk tier rooted at `dir`, recovering whatever a previous
    /// process left there ([`QueryContext::with_cache_config`]).
    ///
    /// # Errors
    ///
    /// Returns an error if no cache is installed, or if the directory
    /// cannot be created/opened.
    pub fn with_cache_dir(self, dir: impl AsRef<std::path::Path>) -> Result<Self> {
        let Some(cur) = self.store.cache() else {
            return Err(Error::Other(
                "with_cache_dir requires a cache: call with_cache_tiers(...) first".into(),
            ));
        };
        self.with_cache_config(CacheConfig {
            dir: Some(dir.as_ref().to_path_buf()),
            ..cur.config().clone()
        })
    }

    /// Override the CSV cache-segment size (see
    /// [`QueryContext::cache_chunk_bytes`]; clamped to ≥ 1).
    pub fn with_cache_chunk_bytes(mut self, chunk_bytes: u64) -> Self {
        self.cache_chunk_bytes = chunk_bytes.max(1);
        self
    }

    /// The store's segment cache, if one is installed (cloning shares).
    pub fn cache(&self) -> Option<SegmentCache> {
        self.store.cache()
    }

    /// A copy of this context that lowers plain-GET scan leaves as reads
    /// through the segment cache — a way to *force* the cached-local strategy
    /// end to end, and to warm the cache with any baseline plan
    /// (e.g. `ctx.with_cache_reads(true)` + `Strategy::Baseline`).
    pub fn with_cache_reads(mut self, cache_reads: bool) -> Self {
        self.cache_reads = cache_reads;
        self
    }

    /// A no-op, whatever it is passed: local scans always evaluate on
    /// typed column vectors (a ColumnarLite partition is read into them,
    /// a projecting CSV fragment types its fields into them). Kept so
    /// that callers which set it, the benchmark among them, still build.
    pub fn with_columnar(self, _columnar: bool) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_defaults() {
        let ctx = QueryContext::new(S3Store::new());
        assert!(ctx.scan_threads >= 1);
        assert_eq!(ctx.retry, RetryPolicy::default());
        assert_eq!(ctx.batch_rows, 1024);
        assert_eq!(ctx.pricing, Pricing::us_east());
        assert_eq!(ctx.with_batch_rows(0).batch_rows, 1);
    }

    #[test]
    fn scoped_contexts_bill_child_ledgers_that_roll_up() {
        let store = S3Store::new();
        store.put_object("b", "t/x.csv", "a\n1\n");
        let ctx = QueryContext::new(store);
        let q1 = ctx.scoped();
        let q2 = ctx.scoped();
        q1.store.get_object("b", "t/x.csv").unwrap();
        q2.store.get_object("b", "t/x.csv").unwrap();
        q2.store.get_object("b", "t/x.csv").unwrap();
        assert_eq!(q1.billed().requests, 1);
        assert_eq!(q2.billed().requests, 2);
        assert_eq!(ctx.billed().requests, 3, "children roll up to the root");
        // The scoped engine bills the scope too.
        let schema = pushdown_common::Schema::from_pairs(&[("a", pushdown_common::DataType::Int)]);
        let q3 = ctx.scoped();
        q3.engine
            .select(
                "b",
                "t/x.csv",
                "SELECT a FROM S3Object",
                &schema,
                pushdown_select::InputFormat::Csv,
            )
            .unwrap();
        assert_eq!(q3.billed().requests, 1);
        assert!(q3.billed().select_scanned_bytes > 0);
        assert_eq!(q1.billed().requests, 1, "sibling scopes stay isolated");
        assert_eq!(ctx.billed().requests, 4);
    }

    #[test]
    fn retry_policy_propagates_to_scoped_engines() {
        let ctx = QueryContext::new(S3Store::new());
        let mut custom = ctx.clone();
        custom.retry = RetryPolicy::with_attempts(9);
        let scoped = custom.scoped();
        assert_eq!(scoped.engine.retry().max_attempts, 9);
        assert_eq!(scoped.retry.max_attempts, 9);
    }
}
