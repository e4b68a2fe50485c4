//! Cluster topology.
//!
//! A [`Cluster`] models an N-node execution tier in front of the one
//! shared object store: a consistent-hash ring assigns every table
//! partition `(bucket, key)` to an owning node, and each node carries its
//! own [`SegmentCache`], its own child [`CostLedger`](pushdown_common::CostLedger)
//! hung off the store's global ledger, and its own [`VirtualClock`].
//! A plan is the same tree at every node count: the one partition
//! fan-out (`crate::scan`) runs each partition request on the node that
//! owns it and hands the rows on in global partition order, so rows are
//! bit-identical to serial execution at any node count.
//!
//! Conservation extends cluster-wide: every byte a query on the cluster
//! bills lands jointly on the query's own scoped ledger *and* on exactly
//! one node ledger, so
//!
//! ```text
//! global ledger  ==  Σ node ledgers  ==  Σ per-query ledgers
//! ```
//!
//! holds exactly (node ledgers are plain children of the global ledger;
//! query scopes join them via `CostLedger::joint_child`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pushdown_cache::{CacheConfig, SegmentCache};
use pushdown_common::mix::{fnv1a, splitmix64};
use pushdown_common::pricing::{Pricing, Usage};
use pushdown_s3::{S3Store, VirtualClock};

/// Virtual points per node on the consistent-hash ring. More points give
/// a smoother partition split at the cost of a longer (still tiny) sorted
/// ring to binary-search.
const VNODES: usize = 64;

/// One execution node: its ledger (a child of the store's global ledger),
/// its virtual clock, its private cache slice, and a counter of bytes it
/// shipped over the interconnect.
#[derive(Debug)]
pub struct ClusterNode {
    pub id: usize,
    /// Child of the store's global ledger — everything the node bills
    /// uplinks to the store total, and `Σ node ledgers == global` because
    /// every request bills exactly one node.
    pub ledger: pushdown_common::ledger::CostLedger,
    /// The node's own virtual clock: advanced only by work this node runs.
    pub clock: VirtualClock,
    /// Per-node cache slice (the store-wide cache's config at
    /// [`Cluster::new`] time with both tier budgets divided by `n`), or
    /// `None` when no cache is installed.
    pub cache: Option<SegmentCache>,
    /// Bytes this node shipped to the operator consuming its partitions,
    /// or received in a group-by's shuffle.
    pub exchange_bytes: Arc<AtomicU64>,
}

/// Per-node accounting snapshot, used by EXPLAIN and the bench reports.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    pub node: usize,
    /// Everything the node billed so far.
    pub usage: Usage,
    /// The node's virtual busy time in seconds.
    pub seconds: f64,
    /// Bytes the node shipped over the interconnect.
    pub exchange_bytes: u64,
    /// Cache occupancy, when the node owns a cache slice.
    pub cache_used_bytes: Option<u64>,
}

#[derive(Debug)]
struct ClusterInner {
    nodes: Vec<ClusterNode>,
    /// Sorted `(point, node)` ring; `assign` walks to the first point at
    /// or after the partition hash (wrapping).
    ring: Vec<(u64, usize)>,
}

/// An N-node cluster over one object store. Cheap to
/// clone (shared interior); attach to a query with
/// `QueryContext::with_nodes`.
#[derive(Debug, Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

impl Cluster {
    /// Build an `n`-node cluster over `store`. If the store has a segment
    /// cache installed, each node gets a private slice opened from that
    /// cache's [`CacheConfig`] with **both tier budgets** divided by `n`
    /// (install the cache *before* calling this); otherwise nodes run
    /// cacheless and reads fall through to the store. If the store cache
    /// is **persistent**, each node's slice is rooted at its own
    /// `<dir>/nodes/node-<id>` subdirectory and recovers whatever a
    /// previous incarnation of that node left there (checksum-verified
    /// against the live store); a node whose directory cannot be opened
    /// falls back to a RAM-only slice rather than failing the whole
    /// cluster. Every slice is attached to the store on the spot, so a
    /// writer invalidates it from then on.
    pub fn new(store: &S3Store, n: usize, pricing: Pricing) -> Cluster {
        let n = n.max(1);
        let slice = store
            .cache()
            .map(|c| CacheConfig {
                mem_bytes: c.config().mem_bytes / n as u64,
                disk_bytes: c.config().disk_bytes / n as u64,
                ..c.config().clone()
            })
            .filter(|c| c.mem_bytes + c.disk_bytes > 0);
        let probe = |b: &str, k: &str, r: (u64, u64)| store.object_range_digest(b, k, r);
        let open = |config: &CacheConfig| SegmentCache::open(config, pricing, None, Some(&probe));
        let node_cache = |id: usize| {
            let mut config = slice.clone()?;
            config.dir = config
                .dir
                .map(|dir| dir.join("nodes").join(format!("node-{id}")));
            let cache = open(&config)
                .or_else(|_| {
                    config.dir = None;
                    open(&config)
                })
                .expect("a cache without a directory opens no file");
            // Attach now, not at the node's first query: a recovered
            // slice must hear of writes that come before it.
            store.with_cache_override(Some(cache.clone()));
            Some(cache)
        };
        let nodes: Vec<ClusterNode> = (0..n)
            .map(|id| ClusterNode {
                id,
                ledger: store.global_ledger().child(),
                clock: VirtualClock::new(),
                cache: node_cache(id),
                exchange_bytes: Arc::new(AtomicU64::new(0)),
            })
            .collect();
        let mut ring: Vec<(u64, usize)> = (0..n)
            .flat_map(|id| {
                (0..VNODES).map(move |v| (splitmix64(splitmix64(id as u64 + 1) ^ v as u64), id))
            })
            .collect();
        ring.sort_unstable();
        Cluster {
            inner: Arc::new(ClusterInner { nodes, ring }),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.inner.nodes.len()
    }

    /// The node owning partition `(bucket, key)` under consistent
    /// hashing: first ring point at or after the partition hash, wrapping
    /// to the smallest point.
    pub fn assign(&self, bucket: &str, key: &str) -> usize {
        let h = splitmix64(fnv1a(
            bucket
                .bytes()
                .chain(std::iter::once(b'/'))
                .chain(key.bytes()),
        ));
        let ring = &self.inner.ring;
        let i = ring.partition_point(|&(p, _)| p < h);
        ring[if i == ring.len() { 0 } else { i }].1
    }

    /// Node by id.
    pub fn node(&self, id: usize) -> &ClusterNode {
        &self.inner.nodes[id]
    }

    /// Derive node `id`'s fault-stream salt for a query issued under
    /// `query_salt`. Distinct per (query, node) so node-failure chaos
    /// seeds target one node's traffic deterministically.
    pub fn node_salt(query_salt: u64, id: usize) -> u64 {
        splitmix64(query_salt ^ (id as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Per-node accounting snapshots, in node-id order.
    pub fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.inner
            .nodes
            .iter()
            .map(|nd| NodeSnapshot {
                node: nd.id,
                usage: nd.ledger.snapshot(),
                seconds: nd.clock.seconds(),
                exchange_bytes: nd.exchange_bytes.load(Ordering::Relaxed),
                cache_used_bytes: nd.cache.as_ref().map(|c| c.stats().used_bytes),
            })
            .collect()
    }

    /// Sum of all node ledgers — equals the store's global ledger when
    /// every request went through a node scope (conservation).
    pub fn total_usage(&self) -> Usage {
        let mut total = Usage::default();
        for nd in &self.inner.nodes {
            let u = nd.ledger.snapshot();
            total.requests += u.requests;
            total.select_scanned_bytes += u.select_scanned_bytes;
            total.select_returned_bytes += u.select_returned_bytes;
            total.plain_bytes += u.plain_bytes;
        }
        total
    }

    /// Total bytes shipped over the interconnect, all nodes.
    pub fn total_exchange_bytes(&self) -> u64 {
        self.inner
            .nodes
            .iter()
            .map(|nd| nd.exchange_bytes.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> S3Store {
        S3Store::new()
    }

    fn pricing() -> Pricing {
        Pricing::us_east()
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let s = store();
        let c = Cluster::new(&s, 4, pricing());
        for i in 0..64 {
            let key = format!("t/part-{i:05}.csv");
            let a = c.assign("bucket", &key);
            assert!(a < 4);
            assert_eq!(a, c.assign("bucket", &key), "assignment is stable");
        }
    }

    #[test]
    fn ring_spreads_partitions_across_nodes() {
        let s = store();
        let c = Cluster::new(&s, 4, pricing());
        let mut counts = [0usize; 4];
        for i in 0..256 {
            counts[c.assign("b", &format!("t/part-{i:05}.csv"))] += 1;
        }
        for (id, &n) in counts.iter().enumerate() {
            assert!(n > 0, "node {id} owns no partitions out of 256");
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let s = store();
        let c = Cluster::new(&s, 1, pricing());
        for i in 0..16 {
            assert_eq!(c.assign("b", &format!("k{i}")), 0);
        }
    }

    #[test]
    fn node_salts_differ_per_node_and_query() {
        let a = Cluster::node_salt(7, 0);
        let b = Cluster::node_salt(7, 1);
        let c = Cluster::node_salt(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn node_ledgers_roll_up_to_global() {
        let s = store();
        s.put_object("b", "k", "0123456789");
        let c = Cluster::new(&s, 2, pricing());
        let scoped = s.scoped_with_peer(1, &c.node(0).ledger, &c.node(0).clock);
        scoped.get_object("b", "k").unwrap();
        assert_eq!(c.node(0).ledger.snapshot().plain_bytes, 10);
        assert_eq!(c.total_usage().plain_bytes, 10);
        assert_eq!(s.global_ledger().snapshot().plain_bytes, 10);
    }

    #[test]
    fn per_node_cache_slices_split_the_budget() {
        let s = store();
        s.set_cache(Some(SegmentCache::tiered(1 << 20, 0, pricing())));
        let c = Cluster::new(&s, 4, pricing());
        for id in 0..4 {
            let stats = c.node(id).cache.as_ref().expect("node cache").stats();
            assert_eq!(stats.budget_bytes, (1 << 20) / 4);
            assert_eq!(stats.disk_budget_bytes, 0);
        }
    }

    #[test]
    fn per_node_cache_slices_split_both_tiers_and_keep_admission() {
        let s = store();
        let config = CacheConfig {
            mem_bytes: 1 << 20,
            disk_bytes: 1 << 22,
            admission: pushdown_cache::CacheAdmission::ReuseDistance { window: 8 },
            dir: None,
        };
        s.set_cache(Some(
            SegmentCache::open(&config, pricing(), None, None).unwrap(),
        ));
        let c = Cluster::new(&s, 4, pricing());
        for id in 0..4 {
            let cache = c.node(id).cache.as_ref().expect("node cache");
            let slice = CacheConfig {
                mem_bytes: (1 << 20) / 4,
                disk_bytes: (1 << 22) / 4,
                ..config.clone()
            };
            assert_eq!(cache.config(), &slice);
        }
        // A disk-only store cache still yields per-node slices.
        s.set_cache(Some(SegmentCache::tiered(0, 1 << 21, pricing())));
        let c = Cluster::new(&s, 2, pricing());
        let cache = c.node(1).cache.as_ref().expect("node cache");
        assert_eq!(cache.config().mem_bytes, 0);
        assert_eq!(cache.config().disk_bytes, (1 << 21) / 2);
    }
}
