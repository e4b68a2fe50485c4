//! Deterministic, dependency-free hashing/mixing primitives shared by
//! the seeded subsystems.
//!
//! The store's fault plan, the workload generator's query mix and the
//! chaos salts all derive from **one** pair of functions, so seed-replay
//! documentation ("install the same plan, scope with the same salt")
//! stays true by construction — a change here changes every consumer in
//! lockstep rather than silently desynchronizing them.

/// SplitMix64 — the standard 64-bit finalizer. Bijective, so distinct
/// inputs keep distinct outputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a byte stream (64-bit).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A [`std::hash::Hasher`] over [`splitmix64`]: one finalizer round per
/// eight bytes written. Unkeyed and deterministic, so it is for tables
/// keyed by values the program itself holds (the load-time statistics
/// pass counts distinct values with it) — not for keys an adversary
/// picks, which keep the standard library's keyed default.
#[derive(Debug, Default, Clone, Copy)]
pub struct MixHasher(u64);

/// `HashSet<T, MixBuildHasher>` / `HashMap<K, V, MixBuildHasher>`.
pub type MixBuildHasher = std::hash::BuildHasherDefault<MixHasher>;

impl std::hash::Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_hasher_spreads_small_keys_and_reads_every_byte() {
        use std::hash::{BuildHasher, Hash};
        let hash = |v: &dyn Fn(&mut MixHasher)| {
            let mut h = MixBuildHasher::default().build_hasher();
            v(&mut h);
            std::hash::Hasher::finish(&h)
        };
        // Consecutive integers land far apart (a table indexes by the
        // low bits and tags by the high ones).
        let d = (hash(&|h| 41i64.hash(h)) ^ hash(&|h| 42i64.hash(h))).count_ones();
        assert!(d > 16, "avalanche too weak: {d} bits");
        // A difference in any byte — the unaligned tail included — and
        // in the order of two writes changes the hash.
        let base = hash(&|h| "0123456789abc".hash(h));
        assert_ne!(base, hash(&|h| "0123456789abd".hash(h)));
        assert_ne!(base, hash(&|h| "1123456789abc".hash(h)));
        assert_ne!(base, hash(&|h| "0123456789ab".hash(h)));
        assert_ne!(
            hash(&|h| (1u32, 2u32).hash(h)),
            hash(&|h| (2u32, 1u32).hash(h))
        );
        let set: std::collections::HashSet<&str, MixBuildHasher> =
            ["a", "b", "a", ""].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // A tiny avalanche check: flipping one input bit flips many
        // output bits.
        let d = (splitmix64(42) ^ splitmix64(43)).count_ones();
        assert!(d > 16, "avalanche too weak: {d} bits");
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // Known FNV-1a 64 test vector: "a" → 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
    }
}
