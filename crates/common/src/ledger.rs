//! Thread-safe, *scoped* resource accounting.
//!
//! Every interaction with the simulated S3 service is metered here, exactly
//! as AWS would meter a bill: requests issued, bytes scanned by S3 Select,
//! bytes returned by S3 Select, and bytes moved by plain GETs.
//!
//! # Scoping
//!
//! A ledger can spawn **child** ledgers ([`CostLedger::child`]). Every
//! addition to a child is applied atomically to the child *and* to every
//! ancestor, so a store-global ledger always equals the sum of its
//! per-query children plus whatever was billed directly against it. This
//! is what makes per-query accounting sound under concurrency: each query
//! reads its own child, and nobody needs the racy
//! snapshot-run-snapshot (`delta_since`) pattern that interleaved queries
//! corrupt.

use crate::pricing::Usage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, lock-free accumulator of billable usage.
///
/// Cloning shares the underlying counters (`Arc` inside), so the store, the
/// select engine and the executor can all hold handles to one ledger.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    inner: Arc<Counters>,
    /// Ancestor counters (nearest parent first). Every addition applied to
    /// `inner` is also applied to each of these, so parents see the sum of
    /// their children without any reconciliation step.
    uplinks: Vec<Arc<Counters>>,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    select_scanned: AtomicU64,
    select_returned: AtomicU64,
    plain_bytes: AtomicU64,
}

impl CostLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// A child ledger: starts at zero, and every addition rolls up
    /// atomically into this ledger (and its ancestors, if any). Children
    /// may be nested arbitrarily deep.
    pub fn child(&self) -> CostLedger {
        let mut uplinks = Vec::with_capacity(self.uplinks.len() + 1);
        uplinks.push(Arc::clone(&self.inner));
        uplinks.extend(self.uplinks.iter().cloned());
        CostLedger {
            inner: Arc::new(Counters::default()),
            uplinks,
        }
    }

    /// A child of **both** `self` and `peer`: every addition rolls up
    /// into each parent and each of their ancestors, with counters shared
    /// by the two chains (a common global root, say) counted exactly
    /// once. This is the cluster's dual-decomposition primitive: a
    /// per-(query, node) leaf scope bills the query ledger *and* the node
    /// ledger, so Σ query ledgers and Σ node ledgers both equal the
    /// global ledger without double counting.
    pub fn joint_child(&self, peer: &CostLedger) -> CostLedger {
        let mut uplinks: Vec<Arc<Counters>> = Vec::new();
        let mut push = |c: &Arc<Counters>| {
            if !uplinks.iter().any(|u| Arc::ptr_eq(u, c)) {
                uplinks.push(Arc::clone(c));
            }
        };
        push(&self.inner);
        self.uplinks.iter().for_each(&mut push);
        push(&peer.inner);
        peer.uplinks.iter().for_each(&mut push);
        CostLedger {
            inner: Arc::new(Counters::default()),
            uplinks,
        }
    }

    fn add(&self, field: fn(&Counters) -> &AtomicU64, n: u64) {
        field(&self.inner).fetch_add(n, Ordering::Relaxed);
        for up in &self.uplinks {
            field(up).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one HTTP request (plain GET or Select alike — AWS bills both).
    pub fn add_request(&self) {
        self.add(|c| &c.requests, 1);
    }

    /// Record bytes scanned inside S3 Select.
    pub fn add_select_scanned(&self, bytes: u64) {
        self.add(|c| &c.select_scanned, bytes);
    }

    /// Record bytes returned by an S3 Select response.
    pub fn add_select_returned(&self, bytes: u64) {
        self.add(|c| &c.select_returned, bytes);
    }

    /// Record bytes returned by a plain (non-Select) GET.
    pub fn add_plain_bytes(&self, bytes: u64) {
        self.add(|c| &c.plain_bytes, bytes);
    }

    /// Current cumulative usage.
    pub fn snapshot(&self) -> Usage {
        Usage {
            requests: self.inner.requests.load(Ordering::Relaxed),
            select_scanned_bytes: self.inner.select_scanned.load(Ordering::Relaxed),
            select_returned_bytes: self.inner.select_returned.load(Ordering::Relaxed),
            plain_bytes: self.inner.plain_bytes.load(Ordering::Relaxed),
        }
    }

    /// Usage accumulated since an earlier snapshot.
    ///
    /// **Only sound when nothing else writes to this ledger in between.**
    /// Under concurrency, interleaved queries corrupt each other's deltas;
    /// use a [`CostLedger::child`] per query instead — its
    /// [`CostLedger::snapshot`] *is* the per-query usage.
    pub fn delta_since(&self, earlier: &Usage) -> Usage {
        let now = self.snapshot();
        Usage {
            requests: now.requests - earlier.requests,
            select_scanned_bytes: now.select_scanned_bytes - earlier.select_scanned_bytes,
            select_returned_bytes: now.select_returned_bytes - earlier.select_returned_bytes,
            plain_bytes: now.plain_bytes - earlier.plain_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_snapshots() {
        let l = CostLedger::new();
        for _ in 0..10 {
            l.add_request();
        }
        l.add_select_scanned(100);
        l.add_select_returned(40);
        l.add_plain_bytes(7);
        let u = l.snapshot();
        assert_eq!(u.requests, 10);
        assert_eq!(u.select_scanned_bytes, 100);
        assert_eq!(u.select_returned_bytes, 40);
        assert_eq!(u.plain_bytes, 7);
    }

    #[test]
    fn clones_share_counters() {
        let l = CostLedger::new();
        let l2 = l.clone();
        l2.add_select_scanned(5);
        assert_eq!(l.snapshot().select_scanned_bytes, 5);
    }

    #[test]
    fn delta_since() {
        let l = CostLedger::new();
        for _ in 0..3 {
            l.add_request();
        }
        let snap = l.snapshot();
        for _ in 0..4 {
            l.add_request();
        }
        l.add_plain_bytes(11);
        let d = l.delta_since(&snap);
        assert_eq!(d.requests, 4);
        assert_eq!(d.plain_bytes, 11);
    }

    #[test]
    fn children_roll_up_into_parents() {
        let root = CostLedger::new();
        let a = root.child();
        let b = root.child();
        let b_inner = b.child(); // nesting rolls up through the chain
        a.add_request();
        a.add_request();
        a.add_select_scanned(10);
        b.add_plain_bytes(5);
        b_inner.add_select_returned(7);
        assert_eq!(a.snapshot().requests, 2);
        assert_eq!(b.snapshot().select_returned_bytes, 7);
        assert_eq!(b_inner.snapshot().select_returned_bytes, 7);
        // Parent = sum of all scopes; direct writes still land too.
        root.add_request();
        let u = root.snapshot();
        assert_eq!(u.requests, 3);
        assert_eq!(u.select_scanned_bytes, 10);
        assert_eq!(u.select_returned_bytes, 7);
        assert_eq!(u.plain_bytes, 5);
        // Children never see each other or the parent's direct writes.
        assert_eq!(a.snapshot().plain_bytes, 0);
        assert_eq!(b.snapshot().select_scanned_bytes, 0);
    }

    #[test]
    fn joint_children_bill_both_parents_once() {
        let global = CostLedger::new();
        let node = global.child();
        let query = global.child();
        let leaf = query.joint_child(&node);
        for _ in 0..3 {
            leaf.add_request();
        }
        leaf.add_plain_bytes(10);
        // Both parents see the traffic...
        assert_eq!(node.snapshot().requests, 3);
        assert_eq!(query.snapshot().requests, 3);
        // ...and their shared ancestor counts it exactly once.
        assert_eq!(global.snapshot().requests, 3);
        assert_eq!(global.snapshot().plain_bytes, 10);
        // Dual decomposition: with every leaf joint, Σ node = Σ query =
        // global.
        let node2 = global.child();
        let query2 = global.child();
        let leaf2 = query2.joint_child(&node2);
        for _ in 0..5 {
            leaf2.add_request();
        }
        let nodes = node.snapshot().requests + node2.snapshot().requests;
        let queries = query.snapshot().requests + query2.snapshot().requests;
        assert_eq!(nodes, 8);
        assert_eq!(queries, 8);
        assert_eq!(global.snapshot().requests, 8);
    }

    #[test]
    fn concurrent_children_conserve_the_global_total() {
        let root = CostLedger::new();
        let children: Vec<CostLedger> = (0..8).map(|_| root.child()).collect();
        std::thread::scope(|s| {
            for child in &children {
                s.spawn(move || {
                    for _ in 0..1000 {
                        child.add_request();
                        child.add_select_scanned(3);
                    }
                });
            }
        });
        let mut sum = Usage::default();
        for child in &children {
            sum += child.snapshot();
        }
        assert_eq!(root.snapshot(), sum);
        assert_eq!(sum.requests, 8000);

        // Joint children racing: query i bills through a leaf shared with
        // node i % 2, all under one root. The root is an ancestor of both
        // parents and must still count every addition once.
        let root = CostLedger::new();
        let nodes: Vec<CostLedger> = (0..2).map(|_| root.child()).collect();
        let queries: Vec<CostLedger> = (0..8).map(|_| root.child()).collect();
        std::thread::scope(|s| {
            for (i, query) in queries.iter().enumerate() {
                let leaf = query.joint_child(&nodes[i % 2]);
                s.spawn(move || {
                    for _ in 0..1000 {
                        leaf.add_request();
                        leaf.add_select_scanned(3);
                        leaf.add_plain_bytes(i as u64);
                    }
                });
            }
        });
        let total = |ledgers: &[CostLedger]| {
            let mut sum = Usage::default();
            for l in ledgers {
                sum += l.snapshot();
            }
            sum
        };
        assert_eq!(root.snapshot(), total(&nodes));
        assert_eq!(root.snapshot(), total(&queries));
        assert_eq!(root.snapshot().requests, 8000);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let l = CostLedger::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = l.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        l.add_request();
                        l.add_select_scanned(2);
                    }
                });
            }
        });
        let u = l.snapshot();
        assert_eq!(u.requests, 8000);
        assert_eq!(u.select_scanned_bytes, 16_000);
    }
}
