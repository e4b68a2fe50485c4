//! # pushdown-bloom
//!
//! Bloom filters tailored to the Bloom-join algorithm of paper §V.
//!
//! S3 Select has no bitwise operators and no binary data, so the paper
//! (§V-A2) encodes the bit array as a **string of `'0'`/`'1'` characters**
//! and tests membership with `SUBSTRING`. The hash functions must be
//! expressible in S3 Select SQL, which leaves *universal hashing* over
//! integers (§V-A1):
//!
//! ```text
//! h_{a,b}(x) = ((a*x + b) mod n) mod m      n prime ≥ m, 1 ≤ a < n, 0 ≤ b < n
//! ```
//!
//! Given a target false-positive rate `p` and `s` expected keys, the paper
//! uses the standard sizing (its §V-A1 formulas):
//!
//! ```text
//! k_p = log2(1/p)          (number of hash functions)
//! m_p = s·|ln p|/(ln 2)²   (bit-array length)
//! ```
//!
//! [`BloomFilter::sql_predicate`] renders the probe as the exact SQL shape
//! of the paper's Listing 1, and [`BloomBuilder`] implements the 256 KB
//! fallback ladder of §V-B1: degrade `p` until the SQL fits, and give up
//! (→ the caller reverts to a filtered join) when even `p ≈ 1` doesn't.

use pushdown_common::Value;
use pushdown_sql::ast::Func;
use pushdown_sql::{BinOp, Expr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One universal hash function `((a*x + b) % n) % m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniversalHash {
    pub a: u64,
    pub b: u64,
    /// Prime modulus, `n >= m`.
    pub n: u64,
    /// Bit-array length.
    pub m: u64,
}

impl UniversalHash {
    /// Evaluate on an integer key. Uses `rem_euclid` so negative keys map
    /// into range; the generated SQL mirrors this because TPC-H join keys
    /// are non-negative (documented restriction of the paper's own
    /// implementation, which "supports only integer join attributes").
    pub fn eval(&self, x: i64) -> u64 {
        let v = (self.a as i128 * x as i128 + self.b as i128).rem_euclid(self.n as i128);
        (v % self.m as i128) as u64
    }
}

/// Is `x` prime? (trial division — `m` is at most a few hundred thousand).
fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Smallest prime ≥ `x`.
pub fn next_prime(x: u64) -> u64 {
    let mut c = x.max(2);
    while !is_prime(c) {
        c += 1;
    }
    c
}

/// Number of hash functions for false-positive rate `p`: `k = log2(1/p)`,
/// rounded to the nearest integer, at least 1.
pub fn optimal_k(p: f64) -> u32 {
    ((1.0 / p).log2().round() as u32).max(1)
}

/// Bit-array length for `s` keys at rate `p`: `m = s·|ln p|/(ln 2)²`,
/// at least 8 bits.
pub fn optimal_m(s: usize, p: f64) -> u64 {
    let m = (s as f64) * p.ln().abs() / (std::f64::consts::LN_2 * std::f64::consts::LN_2);
    (m.ceil() as u64).max(8)
}

/// A Bloom filter over integer keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: u64,
    hashes: Vec<UniversalHash>,
    keys_added: usize,
}

impl BloomFilter {
    /// Build an empty filter sized for `expected_keys` at false-positive
    /// rate `p`, with hash parameters drawn deterministically from `seed`.
    pub fn with_rate(expected_keys: usize, p: f64, seed: u64) -> BloomFilter {
        let m = optimal_m(expected_keys, p);
        let k = optimal_k(p);
        Self::with_geometry(m, k, seed)
    }

    /// Build with explicit geometry (used by the size-capped builder).
    ///
    /// Each hash function gets its **own** prime modulus, all well above
    /// the bit-array size. With a single shared modulus `n`, any two keys
    /// congruent mod `n` collide in *every* hash function at once, which
    /// floors the false-positive rate near `keys/n` no matter how many
    /// hashes are used. Distinct primes break that systematic collision
    /// while keeping `a·x + b` small enough for the S3 Select engine's
    /// checked 64-bit integer arithmetic.
    pub fn with_geometry(m: u64, k: u32, seed: u64) -> BloomFilter {
        BloomFilter {
            bits: vec![0u64; (m as usize).div_ceil(64)],
            m,
            hashes: universal_hashes(m, k, seed),
            keys_added: 0,
        }
    }

    pub fn keys_added(&self) -> usize {
        self.keys_added
    }

    pub fn hashes(&self) -> &[UniversalHash] {
        &self.hashes
    }

    /// Add an integer key.
    pub fn insert(&mut self, key: i64) {
        for h in &self.hashes {
            let bit = h.eval(key);
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.keys_added += 1;
    }

    /// Membership test: `false` is definite, `true` may be a false
    /// positive.
    pub fn contains(&self, key: i64) -> bool {
        self.hashes.iter().all(|h| {
            let bit = h.eval(key);
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// The bit array as the `'0'`/`'1'` string S3 Select probes with
    /// `SUBSTRING` (paper §V-A2: "we use strings of 1's and 0's to
    /// represent the bit array").
    pub fn to_bit_string(&self) -> String {
        let mut s = String::with_capacity(self.m as usize);
        for i in 0..self.m {
            let set = self.bits[(i / 64) as usize] & (1 << (i % 64)) != 0;
            s.push(if set { '1' } else { '0' });
        }
        s
    }

    /// The probe predicate in the exact shape of paper Listing 1:
    ///
    /// ```sql
    /// SUBSTRING('1000…101', ((a * CAST(attr AS INT) + b) % n) % m + 1, 1) = '1'
    ///   AND …  -- one conjunct per hash function
    /// ```
    pub fn sql_predicate(&self, attr: &str) -> Expr {
        self.predicate(attr, Encoding::Bits)
    }

    /// The bit array hex-encoded, 4 bits per character, left-to-right
    /// (bit 1 of the array is the most significant bit of the first hex
    /// digit). Pads the tail with zero bits.
    pub fn to_hex_string(&self) -> String {
        let mut s = String::with_capacity((self.m as usize).div_ceil(4));
        let bit = |i: u64| -> u32 {
            if i < self.m && self.bits[(i / 64) as usize] & (1 << (i % 64)) != 0 {
                1
            } else {
                0
            }
        };
        let mut i = 0;
        while i < self.m {
            let nibble = (bit(i) << 3) | (bit(i + 1) << 2) | (bit(i + 2) << 1) | bit(i + 3);
            s.push(char::from_digit(nibble, 16).unwrap());
            i += 4;
        }
        s
    }

    /// **Extension** (paper §X, Suggestion 3): the probe predicate with a
    /// hex-encoded bit array tested by the extended dialect's `BIT_AT`
    /// function — 4× smaller SQL than [`BloomFilter::sql_predicate`]'s
    /// `'0'/'1'` string (true binary support would be 8×):
    ///
    /// ```sql
    /// BIT_AT('a3f…', ((a * CAST(attr AS INT) + b) % n) % m + 1) = 1
    /// ```
    pub fn sql_predicate_binary(&self, attr: &str) -> Expr {
        self.predicate(attr, Encoding::Hex)
    }

    /// The probe predicate with the bit array in `encoding`: one term per
    /// hash function, ANDed.
    pub fn predicate(&self, attr: &str, encoding: Encoding) -> Expr {
        let array = Expr::Literal(Value::Str(match encoding {
            Encoding::Bits => self.to_bit_string(),
            Encoding::Hex => self.to_hex_string(),
        }));
        let term = |h: &UniversalHash| {
            let int = |x: u64| Expr::int(x as i64);
            let key = Expr::Cast {
                expr: Box::new(Expr::col(attr)),
                dtype: pushdown_common::DataType::Int,
            };
            let hash = Expr::binary(int(h.a), BinOp::Mul, key);
            let hash = Expr::binary(hash, BinOp::Add, int(h.b));
            let hash = Expr::binary(hash, BinOp::Mod, int(h.n));
            let hash = Expr::binary(hash, BinOp::Mod, int(h.m));
            let pos = Expr::binary(hash, BinOp::Add, int(1));
            let (func, args, set) = match encoding {
                Encoding::Bits => (
                    Func::Substring,
                    vec![array.clone(), pos, int(1)],
                    Expr::str("1"),
                ),
                Encoding::Hex => (Func::BitAt, vec![array.clone(), pos], int(1)),
            };
            Expr::eq(Expr::Call { func, args }, set)
        };
        let terms = self.hashes.iter().map(term).collect();
        Expr::conjunction(terms).expect("at least one hash function")
    }

    /// The length of [`BloomFilter::predicate`]'s text for a filter of `m`
    /// bits and these `hashes` on `attr`, from the geometry alone: per
    /// hash its template, the bit array (`m` characters, or `⌈m/4⌉` hex
    /// digits) and the digits of `a`, `b`, `n` and `m`, and an ` AND `
    /// between terms.
    fn predicate_len(hashes: &[UniversalHash], m: u64, attr: &str, encoding: Encoding) -> usize {
        let digits = |x: u64| x.to_string().len();
        // The text around the array, `a`, the key, `b`, `n` and `m`.
        let (template, array) = match encoding {
            Encoding::Bits => (
                [
                    "SUBSTRING('",
                    "', (",
                    " * CAST(",
                    " AS INT) + ",
                    ") % ",
                    " % ",
                    " + 1, 1) = '1'",
                ],
                m as usize,
            ),
            Encoding::Hex => (
                [
                    "BIT_AT('",
                    "', (",
                    " * CAST(",
                    " AS INT) + ",
                    ") % ",
                    " % ",
                    " + 1) = 1",
                ],
                m.div_ceil(4) as usize,
            ),
        };
        let fixed = template.iter().map(|t| t.len()).sum::<usize>() + array;
        let attr = Expr::col(attr).to_string().len();
        let term = |h: &UniversalHash| {
            fixed + attr + digits(h.a) + digits(h.b) + digits(h.n) + digits(h.m)
        };
        let terms: usize = hashes.iter().map(term).sum();
        terms + " AND ".len() * hashes.len().saturating_sub(1)
    }
}

/// How a filter's bit array is written into its probe predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// A `'0'`/`'1'` character per bit, probed with `SUBSTRING` (paper
    /// §V-A2, Listing 1).
    Bits,
    /// Four bits per hex digit, probed with the extended dialect's
    /// `BIT_AT` (§X Suggestion 3).
    Hex,
}

/// `k` universal hash functions into `m` bits, drawn deterministically
/// from `seed`, each with its own prime modulus (see
/// [`BloomFilter::with_geometry`]).
fn universal_hashes(m: u64, k: u32, seed: u64) -> Vec<UniversalHash> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = next_prime(m.max(1 << 20) + 1);
    (0..k)
        .map(|_| {
            let h = UniversalHash {
                a: rng.random_range(1..n),
                b: rng.random_range(0..n),
                n,
                m,
            };
            n = next_prime(n + 1);
            h
        })
        .collect()
}

/// Outcome of planning a Bloom filter under the S3 Select SQL size limit.
#[derive(Debug, Clone, PartialEq)]
pub enum BloomPlan {
    /// A filter fits at the requested rate.
    AsRequested { fpr: f64 },
    /// The requested rate would exceed the limit; this degraded (higher)
    /// rate fits (paper §V-B1: "PushdownDB detects this case and increases
    /// the false positive rate").
    Degraded { requested: f64, fpr: f64 },
    /// No useful filter fits; fall back to a filtered join (§V-B1: "falls
    /// back to not using a Bloom filter at all").
    Fallback,
}

/// Plans and builds Bloom filters under the service's SQL text limit.
#[derive(Debug, Clone, Copy)]
pub struct BloomBuilder {
    /// Maximum SQL expression size; S3 Select's documented limit is 256 KB
    /// (paper §V-B1).
    pub max_sql_bytes: usize,
    /// Hash-parameter seed (fixed by default for reproducibility).
    pub seed: u64,
}

impl Default for BloomBuilder {
    fn default() -> Self {
        BloomBuilder {
            max_sql_bytes: 256 * 1024,
            seed: 0x5eed_b100,
        }
    }
}

impl BloomBuilder {
    /// Decide what is achievable for `s` keys at requested rate `p`, the
    /// filter written in `encoding`.
    pub fn plan(&self, s: usize, p: f64, attr: &str, encoding: Encoding) -> BloomPlan {
        if self.fits(s, p, attr, encoding) {
            return BloomPlan::AsRequested { fpr: p };
        }
        // Degrade geometrically until it fits or becomes useless.
        let mut q = p;
        while q < 0.5 {
            q = (q * 4.0).min(0.5);
            if self.fits(s, q, attr, encoding) {
                return BloomPlan::Degraded {
                    requested: p,
                    fpr: q,
                };
            }
        }
        BloomPlan::Fallback
    }

    /// Whether the predicate of the filter [`BloomBuilder::build`] makes
    /// for `s` keys at rate `p` renders within the limit: its exact
    /// length, from its geometry ([`BloomFilter::predicate_len`]).
    fn fits(&self, s: usize, p: f64, attr: &str, encoding: Encoding) -> bool {
        let m = optimal_m(s, p);
        let hashes = universal_hashes(m, optimal_k(p), self.seed);
        BloomFilter::predicate_len(&hashes, m, attr, encoding) <= self.max_sql_bytes
    }

    /// Build a filter for the given keys at (possibly degraded) rate,
    /// planned in the paper's `'0'`/`'1'` encoding
    /// ([`BloomFilter::sql_predicate`]). Returns `None` when the plan is
    /// [`BloomPlan::Fallback`].
    pub fn build(&self, keys: &[i64], p: f64, attr: &str) -> Option<(BloomFilter, BloomPlan)> {
        self.build_encoded(keys, p, attr, Encoding::Bits)
    }

    /// [`BloomBuilder::build`], the filter planned for `encoding`.
    pub fn build_encoded(
        &self,
        keys: &[i64],
        p: f64,
        attr: &str,
        encoding: Encoding,
    ) -> Option<(BloomFilter, BloomPlan)> {
        let plan = self.plan(keys.len().max(1), p, attr, encoding);
        let rate = match &plan {
            BloomPlan::AsRequested { fpr } => *fpr,
            BloomPlan::Degraded { fpr, .. } => *fpr,
            BloomPlan::Fallback => return None,
        };
        let mut f = BloomFilter::with_rate(keys.len().max(1), rate, self.seed);
        for &k in keys {
            f.insert(k);
        }
        Some((f, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::{DataType, Row, Schema};
    use pushdown_sql::bind::Binder;
    use pushdown_sql::eval::eval_predicate;

    #[test]
    fn paper_sizing_formulas() {
        // k = log2(1/p): p=0.01 -> 6.64 -> 7; p=0.5 -> 1; p=0.0001 -> 13.3 -> 13.
        assert_eq!(optimal_k(0.01), 7);
        assert_eq!(optimal_k(0.5), 1);
        assert_eq!(optimal_k(0.0001), 13);
        // m = s|ln p|/(ln2)^2: s=1000, p=0.01 -> 9585.06 -> 9586.
        let m = optimal_m(1000, 0.01);
        assert!((9585..=9587).contains(&m), "m = {m}");
    }

    #[test]
    fn primes() {
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(90), 97);
        assert_eq!(next_prime(97), 97);
        assert!(is_prime(104729));
        assert!(!is_prime(104730));
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<i64> = (0..5000).map(|i| i * 7 + 3).collect();
        let mut f = BloomFilter::with_rate(keys.len(), 0.01, 42);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            assert!(f.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_is_near_target() {
        let keys: Vec<i64> = (0..10_000).collect();
        let mut f = BloomFilter::with_rate(keys.len(), 0.01, 7);
        for &k in &keys {
            f.insert(k);
        }
        let trials = 50_000;
        let fp = (10_000..10_000 + trials).filter(|&k| f.contains(k)).count();
        let rate = fp as f64 / trials as f64;
        assert!(
            rate < 0.05,
            "false positive rate {rate} far above the 0.01 target"
        );
    }

    #[test]
    fn negative_keys_are_handled() {
        let mut f = BloomFilter::with_rate(100, 0.01, 3);
        for k in [-5i64, -1000, i64::MIN + 1, 17] {
            f.insert(k);
            assert!(f.contains(k));
        }
    }

    #[test]
    fn bit_string_matches_bits() {
        let mut f = BloomFilter::with_geometry(64, 3, 1);
        f.insert(123);
        let s = f.to_bit_string();
        assert_eq!(s.len(), 64);
        assert_eq!(
            s.chars().filter(|&c| c == '1').count() as u32,
            f.bits.iter().map(|w| w.count_ones()).sum::<u32>()
        );
        for h in f.hashes() {
            assert_eq!(s.as_bytes()[h.eval(123) as usize], b'1');
        }
    }

    /// The generated SQL predicate, evaluated by the shared SQL engine,
    /// must agree exactly with the in-memory `contains` — this is the
    /// contract the Bloom join relies on.
    #[test]
    fn sql_predicate_agrees_with_contains() {
        let keys: Vec<i64> = (0..300).map(|i| i * 11 % 997).collect();
        let mut f = BloomFilter::with_rate(keys.len(), 0.05, 99);
        for &k in &keys {
            f.insert(k);
        }
        let schema = Schema::from_pairs(&[("o_custkey", DataType::Int)]);
        let pred = f.sql_predicate("o_custkey");
        let bound = Binder::new(&schema).bind_expr(&pred).unwrap();
        for probe in 0..2000i64 {
            let row = Row::new(vec![Value::Int(probe)]);
            let sql_says = eval_predicate(&bound, &row).unwrap();
            assert_eq!(sql_says, f.contains(probe), "disagreement on {probe}");
        }
    }

    /// Suggestion 3: the hex/`BIT_AT` predicate agrees bit-for-bit with
    /// the `'0'/'1'`-string predicate and with `contains`.
    #[test]
    fn binary_predicate_agrees_with_string_predicate() {
        let keys: Vec<i64> = (0..200).map(|i| i * 13 % 611).collect();
        let mut f = BloomFilter::with_rate(keys.len(), 0.03, 17);
        for &k in &keys {
            f.insert(k);
        }
        // Hex encoding round-trips the bit string.
        let bits = f.to_bit_string();
        let hex = f.to_hex_string();
        assert_eq!(hex.len(), bits.len().div_ceil(4));
        for (i, b) in bits.bytes().enumerate() {
            let nibble = (hex.as_bytes()[i / 4] as char).to_digit(16).unwrap();
            let bit = (nibble >> (3 - (i % 4))) & 1;
            assert_eq!(bit == 1, b == b'1', "bit {i}");
        }
        // SQL-size win: ~4x smaller.
        let text_len = f.sql_predicate("k").to_string().len();
        let bin_len = f.sql_predicate_binary("k").to_string().len();
        assert!(
            bin_len * 3 < text_len,
            "binary {bin_len} vs text {text_len}"
        );
        // Evaluation equivalence via the shared engine.
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let p1 = Binder::new(&schema)
            .bind_expr(&f.sql_predicate("k"))
            .unwrap();
        let p2 = Binder::new(&schema)
            .bind_expr(&f.sql_predicate_binary("k"))
            .unwrap();
        for probe in 0..1500i64 {
            let row = Row::new(vec![Value::Int(probe)]);
            assert_eq!(
                eval_predicate(&p1, &row).unwrap(),
                eval_predicate(&p2, &row).unwrap(),
                "probe {probe}"
            );
            assert_eq!(eval_predicate(&p2, &row).unwrap(), f.contains(probe));
        }
    }

    #[test]
    fn sql_predicate_round_trips_through_parser() {
        let mut f = BloomFilter::with_rate(50, 0.1, 31);
        for k in 0..50 {
            f.insert(k);
        }
        let pred = f.sql_predicate("x");
        let text = pred.to_string();
        let reparsed = pushdown_sql::parse_expr(&text).unwrap();
        assert_eq!(reparsed, pred);
    }

    #[test]
    fn sql_predicate_has_listing_1_shape() {
        let mut f = BloomFilter::with_geometry(68, 1, 5);
        f.insert(10);
        let text = f.sql_predicate("attr").to_string();
        // SUBSTRING('...', ((a * CAST(attr AS INT) + b) % n) % m + 1, 1) = '1'
        assert!(text.starts_with("SUBSTRING('"), "{text}");
        assert!(text.contains("CAST(attr AS INT)"), "{text}");
        assert!(text.contains("% 68 + 1, 1) = '1'"), "{text}");
    }

    #[test]
    fn builder_fits_small_sets() {
        let b = BloomBuilder::default();
        assert_eq!(
            b.plan(1000, 0.01, "k", Encoding::Bits),
            BloomPlan::AsRequested { fpr: 0.01 }
        );
        let (f, _) = b.build(&(0..1000).collect::<Vec<_>>(), 0.01, "k").unwrap();
        assert!(f.sql_predicate("k").to_string().len() <= b.max_sql_bytes);
    }

    /// A limit exactly the rendered length fits; a byte less does not.
    #[test]
    fn builder_plans_against_the_rendered_length() {
        let keys: Vec<i64> = (0..40).map(|i| i * 7).collect();
        for encoding in [Encoding::Bits, Encoding::Hex] {
            let (f, _) = BloomBuilder::default()
                .build_encoded(&keys, 0.01, "o_custkey", encoding)
                .unwrap();
            let len = f.predicate("o_custkey", encoding).to_string().len();
            let at = |max_sql_bytes| BloomBuilder {
                max_sql_bytes,
                ..Default::default()
            };
            let planned = at(len).plan(keys.len(), 0.01, "o_custkey", encoding);
            assert_eq!(planned, BloomPlan::AsRequested { fpr: 0.01 });
            let planned = at(len - 1).plan(keys.len(), 0.01, "o_custkey", encoding);
            assert_ne!(planned, BloomPlan::AsRequested { fpr: 0.01 });
        }
    }

    #[test]
    fn builder_degrades_then_falls_back() {
        // A tight limit forces degradation.
        let tight = BloomBuilder {
            max_sql_bytes: 40_000,
            ..Default::default()
        };
        match tight.plan(10_000, 0.0001, "k", Encoding::Bits) {
            BloomPlan::Degraded { requested, fpr } => {
                assert_eq!(requested, 0.0001);
                assert!(fpr > 0.0001);
            }
            other => panic!("expected degradation, got {other:?}"),
        }
        // An impossible limit forces fallback.
        let impossible = BloomBuilder {
            max_sql_bytes: 512,
            ..Default::default()
        };
        assert_eq!(
            impossible.plan(1_000_000, 0.01, "k", Encoding::Bits),
            BloomPlan::Fallback
        );
        assert!(impossible
            .build(&(0..1_000_000).collect::<Vec<_>>(), 0.01, "k")
            .is_none());
    }

    #[test]
    fn degraded_filter_still_has_no_false_negatives() {
        let tight = BloomBuilder {
            max_sql_bytes: 40_000,
            ..Default::default()
        };
        let keys: Vec<i64> = (0..10_000).collect();
        let (f, plan) = tight.build(&keys, 0.0001, "k").unwrap();
        assert!(matches!(plan, BloomPlan::Degraded { .. }));
        for &k in &keys {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn determinism_across_builds() {
        let mk = || {
            let mut f = BloomFilter::with_rate(100, 0.01, 2024);
            for k in 0..100 {
                f.insert(k);
            }
            f.to_bit_string()
        };
        assert_eq!(mk(), mk());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn never_false_negative(
            keys in proptest::collection::vec(any::<i64>(), 1..500),
            p in 0.001f64..0.5,
            seed in any::<u64>(),
        ) {
            let mut f = BloomFilter::with_rate(keys.len(), p, seed);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                prop_assert!(f.contains(k));
            }
        }

        /// The length the builder plans against is the rendered
        /// predicate's, in both encodings, whatever the keys, rate, hash
        /// seed and column name.
        #[test]
        fn predicate_len_is_the_rendered_length(
            keys in proptest::collection::vec(any::<i64>(), 1..300),
            p in 0.0001f64..0.6,
            seed in any::<u64>(),
            attr in "[a-z_]{1,12}",
        ) {
            let mut f = BloomFilter::with_rate(keys.len(), p, seed);
            for &k in &keys {
                f.insert(k);
            }
            for encoding in [Encoding::Bits, Encoding::Hex] {
                let rendered = f.predicate(&attr, encoding).to_string().len();
                let computed = BloomFilter::predicate_len(f.hashes(), f.m, &attr, encoding);
                prop_assert_eq!(computed, rendered);
            }
        }

        #[test]
        fn hash_values_in_range(
            a in 1u64..1000, b in 0u64..1000, m in 8u64..10000, x in any::<i64>(),
        ) {
            let n = next_prime(m);
            let h = UniversalHash { a: (a % n).max(1), b, n, m };
            prop_assert!(h.eval(x) < m);
        }
    }
}
