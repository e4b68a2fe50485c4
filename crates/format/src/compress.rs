//! A small LZ-family block codec.
//!
//! The paper's Parquet tables use Snappy (§IX); no third-party compressor
//! is on the allowed dependency list, so ColumnarLite compresses column
//! chunks with this self-contained LZSS-style codec. It is greedy and
//! byte-oriented — unspectacular ratios but deterministic, fast, and good
//! enough to reproduce the paper's "compressed Parquet is ~70% of the
//! original size" regime on text-heavy chunks.
//!
//! ## Wire format
//!
//! A sequence of ops, each introduced by a control byte `C`:
//!
//! * `C < 0x80` — literal run: the next `C + 1` bytes are copied verbatim
//!   (runs longer than 128 are split);
//! * `C >= 0x80` — match: copy `(C - 0x80) + MIN_MATCH` bytes from
//!   `distance` bytes back, where `distance` is the following `u16` LE
//!   (1-based; may overlap the output for RLE-style repeats).

const MIN_MATCH: usize = 4;
/// The longest match (131): no input byte decompresses to more bytes
/// than this.
pub(crate) const MAX_MATCH: usize = 0x7f + MIN_MATCH;
const MAX_DISTANCE: usize = u16::MAX as usize;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Match-finder state reused across [`Compressor::compress`] calls: the
/// 128 KB position table is allocated once per writer instead of once
/// per column chunk. Output bytes do not depend on reuse — the table is
/// reset at the start of every call.
pub struct Compressor {
    /// Last input position seen for each 4-byte hash (`u32::MAX` = none).
    table: Vec<u32>,
}

impl Default for Compressor {
    fn default() -> Self {
        Compressor {
            table: vec![u32::MAX; 1 << HASH_BITS],
        }
    }
}

impl Compressor {
    /// Compress `input`. The output always round-trips through
    /// [`decompress`]; it may be larger than the input for incompressible
    /// data (callers store whichever is smaller, see the columnar writer).
    pub fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        // Positions are kept as `u32`; `u32::MAX` marks an empty slot.
        assert!(
            input.len() < u32::MAX as usize,
            "compress block must be under 4 GiB"
        );
        let table = &mut self.table;
        table.fill(u32::MAX);
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut i = 0;
        let mut literal_start = 0;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
            let mut start = from;
            while start < to {
                let run = (to - start).min(128);
                out.push((run - 1) as u8);
                out.extend_from_slice(&input[start..start + run]);
                start += run;
            }
        };

        while i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let candidate = table[h] as usize;
            table[h] = i as u32;
            let found = candidate != u32::MAX as usize
                && i - candidate <= MAX_DISTANCE
                && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH];
            if found {
                // Extend the match.
                let mut len = MIN_MATCH;
                let max_len = (input.len() - i).min(MAX_MATCH);
                while len < max_len && input[candidate + len] == input[i + len] {
                    len += 1;
                }
                flush_literals(&mut out, literal_start, i, input);
                out.push(0x80 | (len - MIN_MATCH) as u8);
                let dist = (i - candidate) as u16;
                out.extend_from_slice(&dist.to_le_bytes());
                // Seed the hash table inside the match so later data can
                // refer back into it (sparsely, for speed).
                let end = i + len;
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < end {
                    table[hash4(&input[j..])] = j as u32;
                    j += 2;
                }
                i = end;
                literal_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, literal_start, input.len(), input);
        out
    }
}

/// One-shot [`Compressor::compress`] with a fresh table.
pub fn compress(input: &[u8]) -> Vec<u8> {
    Compressor::default().compress(input)
}

/// Decompress a block produced by [`compress`]. `expected_len` guards
/// against corrupt metadata — and sizes the output no larger than `input`
/// could expand to (`MAX_MATCH` bytes per input byte), so a corrupt length
/// fails instead of allocating.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(expected_len.min(input.len().saturating_mul(MAX_MATCH)));
    let mut i = 0;
    while i < input.len() {
        let c = input[i];
        i += 1;
        if c < 0x80 {
            let run = c as usize + 1;
            if i + run > input.len() {
                return Err("literal run past end of block".into());
            }
            out.extend_from_slice(&input[i..i + run]);
            i += run;
        } else {
            let len = (c & 0x7f) as usize + MIN_MATCH;
            if i + 2 > input.len() {
                return Err("truncated match distance".into());
            }
            let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() {
                return Err(format!(
                    "match distance {dist} outside window of {}",
                    out.len()
                ));
            }
            // A match may overlap itself (RLE, `dist < len`): the output
            // from `start` on repeats with period `dist`, so each pass
            // re-copies everything that exists of it, doubling the run.
            // `copied` is a multiple of `dist` before every pass, which
            // is what lets each pass restart at `start`.
            let start = out.len() - dist;
            let mut copied = 0;
            while copied < len {
                let n = (len - copied).min(dist + copied);
                out.extend_from_within(start..start + n);
                copied += n;
            }
        }
        if out.len() > expected_len {
            return Err(format!(
                "decompressed size {} exceeds expected {expected_len}",
                out.len()
            ));
        }
    }
    if out.len() != expected_len {
        return Err(format!(
            "decompressed {} bytes, expected {expected_len}",
            out.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_text_compresses() {
        let data: Vec<u8> = "the quick brown fox|".repeat(500).into_bytes();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "repetitive text should compress well: {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn rle_style_overlapping_matches() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 300, "RLE data: {} -> {}", data.len(), c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_data_round_trips() {
        // Pseudo-random bytes (xorshift) — should round-trip even though
        // compression gains nothing.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn csv_like_data() {
        let mut data = String::new();
        for i in 0..2000 {
            data.push_str(&format!(
                "{},Customer#{:09},{}.{:02}\n",
                i,
                i,
                i * 7 % 999,
                i % 100
            ));
        }
        let data = data.into_bytes();
        let c = compress(&data);
        assert!(c.len() < data.len(), "csv: {} -> {}", data.len(), c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        let good = compress(b"hello hello hello hello hello");
        // Wrong expected length.
        assert!(decompress(&good, 5).is_err());
        assert!(decompress(&good, 500).is_err());
        // Truncated stream.
        assert!(decompress(&good[..good.len() - 1], 29).is_err());
        // A match referring before the start of output.
        let bogus = vec![0x80, 0x10, 0x00];
        assert!(decompress(&bogus, 4).is_err());
    }

    #[test]
    fn long_matches_split_correctly() {
        // A 10 KB block of a 200-byte repeating unit exercises max-length
        // matches and literal-run splitting (unit > 128 bytes).
        let unit: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let data: Vec<u8> = unit.iter().cycle().take(10_000).copied().collect();
        round_trip(&data);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = compress(&data);
            let d = decompress(&c, data.len()).unwrap();
            prop_assert_eq!(d, data);
        }

        #[test]
        fn round_trips_low_entropy_bytes(data in proptest::collection::vec(0u8..4, 0..4096)) {
            let c = compress(&data);
            let d = decompress(&c, data.len()).unwrap();
            prop_assert_eq!(d, data);
        }
    }
}
