//! The nine query shapes and the seeded streams built from them.
//!
//! The SQL texts are a copy of `pushdown_tpch::planner_suite` at the
//! commit that defined this benchmark. They are copied, not imported, so
//! that a later edit to the engine's suite cannot silently change what
//! the benchmark measures.

use pushdown_common::mix::splitmix64;

/// One query shape: a name, the table passed to the planner as the
/// primary table, and the client-dialect SQL.
pub struct Shape {
    pub name: &'static str,
    pub table: &'static str,
    pub sql: &'static str,
}

pub const SHAPES: [Shape; 9] = [
    Shape {
        name: "filter-selective",
        table: "lineitem",
        sql: "SELECT l_orderkey, l_extendedprice FROM lineitem \
              WHERE l_shipdate < DATE '1993-01-01'",
    },
    Shape {
        name: "filter-wide",
        table: "orders",
        sql: "SELECT * FROM orders WHERE o_totalprice > 1000",
    },
    Shape {
        name: "aggregate",
        table: "lineitem",
        sql: "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem \
              WHERE l_shipdate <= DATE '1998-09-02'",
    },
    Shape {
        name: "groupby-uniform",
        table: "orders",
        sql: "SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders \
              GROUP BY o_orderpriority",
    },
    Shape {
        name: "groupby-filtered",
        table: "lineitem",
        sql: "SELECT l_returnflag, SUM(l_quantity) FROM lineitem \
              WHERE l_shipdate < DATE '1996-01-01' GROUP BY l_returnflag",
    },
    Shape {
        name: "topk-100",
        table: "lineitem",
        sql: "SELECT * FROM lineitem ORDER BY l_extendedprice DESC LIMIT 100",
    },
    Shape {
        name: "topk-10",
        table: "orders",
        sql: "SELECT * FROM orders ORDER BY o_totalprice LIMIT 10",
    },
    Shape {
        name: "join-q3ish",
        table: "customer",
        sql: "SELECT o_orderdate, o_shippriority, SUM(o_totalprice) AS revenue \
              FROM customer JOIN orders ON c_custkey = o_custkey \
              WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' \
              GROUP BY o_orderdate, o_shippriority \
              ORDER BY revenue DESC, o_orderdate LIMIT 10",
    },
    Shape {
        name: "join-q12ish",
        table: "orders",
        sql: "SELECT l_shipmode, COUNT(*) AS n FROM orders \
              JOIN lineitem ON o_orderkey = l_orderkey \
              WHERE l_shipdate < DATE '1994-06-01' \
              GROUP BY l_shipmode ORDER BY l_shipmode",
    },
];

/// How a stream's blocks are composed. Every stream is a sequence of
/// blocks; each block holds the same multiset of shapes in a seeded
/// order. Measuring whole blocks keeps the query mix — and therefore
/// every modeled metric of an uncached workload — independent of the
/// seed and of how many queries fit in the run, so the seed moves only
/// what it should: order, cache history and per-query salts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Each block is a permutation of the nine shapes.
    Suite,
    /// Each block of 18 holds shape `i` (0-based rank) `ZIPF_COPIES[i]`
    /// times: the largest-remainder rounding of `18 × (1/(i+1)) / H₉`,
    /// i.e. Zipf with θ = 1.0 over the nine shapes.
    Zipf,
}

/// Copies per block of each shape in a Zipf stream, rank 1 first.
/// Rank order is suite order and does not rotate with the seed: the
/// shapes differ 10× in cost, so a seed that picked the hot shape would
/// turn every metric into a function of the seed.
const ZIPF_COPIES: [usize; 9] = [6, 3, 2, 2, 1, 1, 1, 1, 1];

impl StreamKind {
    pub fn block_len(self) -> usize {
        match self {
            StreamKind::Suite => SHAPES.len(),
            StreamKind::Zipf => ZIPF_COPIES.iter().sum(),
        }
    }

    /// Block number `block` of the stream for `seed`: shape indices in
    /// execution order (a seeded Fisher–Yates shuffle of the multiset).
    pub fn block(self, seed: u64, block: usize) -> Vec<usize> {
        let mut shapes: Vec<usize> = match self {
            StreamKind::Suite => (0..SHAPES.len()).collect(),
            StreamKind::Zipf => ZIPF_COPIES
                .iter()
                .enumerate()
                .flat_map(|(shape, &copies)| std::iter::repeat_n(shape, copies))
                .collect(),
        };
        let mut state = splitmix64(seed ^ (block as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        for i in (1..shapes.len()).rev() {
            state = splitmix64(state);
            shapes.swap(i, (state % (i as u64 + 1)) as usize);
        }
        shapes
    }
}

/// The scope salt of query `index` in the stream for `seed`
/// (`QueryContext::scoped_with_salt`).
pub fn query_salt(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}
