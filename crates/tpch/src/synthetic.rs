//! Synthetic workloads for the group-by (§VI-C) and Parquet (§IX)
//! experiments.
//!
//! * [`uniform_group_table`] — the Fig 5 table: 10 grouping columns whose
//!   column *i* holds `2^(i+1)` uniformly sized groups, plus 10 float
//!   value columns;
//! * [`zipf_group_table`] — the Fig 6/7 table: each grouping column has
//!   100 groups whose sizes follow a Zipfian distribution with parameter
//!   θ (θ = 1.3 puts ≈ 59 % of rows in the four largest groups, matching
//!   the paper's quoted statistic);
//! * [`wide_float_table`] — the Fig 11 tables: 1/10/20 columns of random
//!   limited-precision floats.

use pushdown_common::{DataType, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf sampler over `{0, …, n-1}` with exponent theta (θ = 0 ⇒ uniform).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn group_value_schema(group_cols: usize, value_cols: usize) -> Schema {
    let mut names: Vec<(String, DataType)> = Vec::new();
    for g in 0..group_cols {
        names.push((format!("g{g}"), DataType::Int));
    }
    for v in 0..value_cols {
        names.push((format!("v{v}"), DataType::Float));
    }
    let pairs: Vec<(&str, DataType)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::from_pairs(&pairs)
}

/// Fig 5's table: grouping column `gI` has `2^(I+1)` uniform groups
/// (g0: 2 groups … g9: 1024 groups); 10 float value columns.
pub fn uniform_group_table(rows: usize, seed: u64) -> (Schema, Vec<Row>) {
    let schema = group_value_schema(10, 10);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let data = (0..rows)
        .map(|_| {
            let mut vals = Vec::with_capacity(20);
            for g in 0..10u32 {
                let n_groups = 2i64 << g;
                vals.push(Value::Int(rng.random_range(0..n_groups)));
            }
            for _ in 0..10 {
                vals.push(Value::Float(
                    (rng.random_range(0..1_000_000) as f64) / 100.0,
                ));
            }
            Row::new(vals)
        })
        .collect();
    (schema, data)
}

/// Fig 6/7's table: every grouping column has 100 groups, sizes Zipfian
/// with the given θ; 10 float value columns.
pub fn zipf_group_table(rows: usize, theta: f64, seed: u64) -> (Schema, Vec<Row>) {
    let schema = group_value_schema(10, 10);
    let zipf = Zipf::new(100, theta);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21FF);
    let data = (0..rows)
        .map(|_| {
            let mut vals = Vec::with_capacity(20);
            for _ in 0..10 {
                vals.push(Value::Int(zipf.sample(&mut rng) as i64));
            }
            for _ in 0..10 {
                vals.push(Value::Float(
                    (rng.random_range(0..1_000_000) as f64) / 100.0,
                ));
            }
            Row::new(vals)
        })
        .collect();
    (schema, data)
}

/// Fig 11's tables: `cols` float columns of limited-precision randoms
/// ("rounded to four decimals", §IX). Column `c0` doubles as the filter
/// column (uniform in [0,1), so a predicate `c0 < s` has selectivity `s`).
pub fn wide_float_table(rows: usize, cols: usize, seed: u64) -> (Schema, Vec<Row>) {
    let names: Vec<(String, DataType)> = (0..cols)
        .map(|c| (format!("c{c}"), DataType::Float))
        .collect();
    let pairs: Vec<(&str, DataType)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A7);
    let data = (0..rows)
        .map(|_| {
            Row::new(
                (0..cols)
                    .map(|_| Value::Float(rng.random_range(0..10_000) as f64 / 10_000.0))
                    .collect(),
            )
        })
        .collect();
    (schema, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_matches_paper_statistic() {
        // Paper §VI-C2: θ = 1.3 ⇒ "59% of rows belong to the four largest
        // groups" (of 100). The CDF at rank 4 is that share.
        let z = Zipf::new(100, 1.3);
        let share = z.cdf[3];
        assert!((0.55..0.63).contains(&share), "top-4 share {share}");
        // θ = 0 is uniform.
        let u = Zipf::new(100, 0.0);
        assert!((u.cdf[3] - 0.04).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_is_in_range_and_skewed() {
        let z = Zipf::new(100, 1.3);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 4000, "group 0 got {}", counts[0]);
        let total: u32 = counts.iter().sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn uniform_table_shape() {
        let (schema, rows) = uniform_group_table(1000, 1);
        assert_eq!(schema.len(), 20);
        assert_eq!(rows.len(), 1000);
        // g0 has 2 groups, g4 has 32.
        for r in &rows {
            assert!((0..2).contains(&r[0].as_i64().unwrap()));
            assert!((0..32).contains(&r[4].as_i64().unwrap()));
        }
        let distinct_g4: std::collections::HashSet<i64> =
            rows.iter().map(|r| r[4].as_i64().unwrap()).collect();
        assert_eq!(distinct_g4.len(), 32);
    }

    #[test]
    fn wide_table_shape_and_precision() {
        let (schema, rows) = wide_float_table(500, 20, 3);
        assert_eq!(schema.len(), 20);
        for r in rows.iter().step_by(50) {
            for v in r.values() {
                let f = v.as_f64().unwrap();
                assert!((0.0..1.0).contains(&f));
                // Four-decimal precision (modulo float representation).
                let scaled = f * 10_000.0;
                assert!((scaled - scaled.round()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn determinism() {
        assert_eq!(
            zipf_group_table(100, 1.1, 5).1,
            zipf_group_table(100, 1.1, 5).1
        );
        assert_ne!(
            zipf_group_table(100, 1.1, 5).1,
            zipf_group_table(100, 1.1, 6).1
        );
    }
}
