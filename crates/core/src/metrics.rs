//! Query metrics: phase-structured resource accounting.
//!
//! Every algorithm in the paper is naturally *phase-structured* (a Bloom
//! join has a build phase then a probe phase; sampling top-K has a
//! sampling phase then a scanning phase; …). [`QueryMetrics`] records a
//! serial sequence of **phase groups**; the phases *within* a group run
//! concurrently (e.g. a filtered join loading both tables at once), so
//! group time is the max of its members and query time is the sum of the
//! groups (plus fixed query startup).

use pushdown_common::perf::{PerfModel, PhaseStats};
use pushdown_common::pricing::{CostBreakdown, Pricing, Usage};

/// One named phase with its resource footprint.
#[derive(Debug, Clone)]
pub struct Phase {
    pub label: String,
    pub stats: PhaseStats,
}

/// Phases that run concurrently.
#[derive(Debug, Clone)]
pub struct PhaseGroup {
    pub phases: Vec<Phase>,
}

impl PhaseGroup {
    /// Group duration: slowest member.
    pub fn seconds(&self, model: &PerfModel) -> f64 {
        PerfModel::parallel(
            &self
                .phases
                .iter()
                .map(|p| model.phase_seconds(&p.stats))
                .collect::<Vec<_>>(),
        )
    }
}

/// The full, phase-structured footprint of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    pub groups: Vec<PhaseGroup>,
}

impl QueryMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a phase that runs by itself.
    pub fn push_serial(&mut self, label: impl Into<String>, stats: PhaseStats) {
        self.groups.push(PhaseGroup {
            phases: vec![Phase {
                label: label.into(),
                stats,
            }],
        });
    }

    /// Append a group of concurrent phases.
    pub fn push_parallel(&mut self, phases: Vec<(String, PhaseStats)>) {
        self.groups.push(PhaseGroup {
            phases: phases
                .into_iter()
                .map(|(label, stats)| Phase { label, stats })
                .collect(),
        });
    }

    /// Append all of `other`'s groups (sub-query composition).
    pub fn extend(&mut self, other: &QueryMetrics) {
        self.groups.extend(other.groups.iter().cloned());
    }

    /// Modeled end-to-end runtime in seconds.
    pub fn runtime(&self, model: &PerfModel) -> f64 {
        let body: f64 = self.groups.iter().map(|g| g.seconds(model)).sum();
        model.query_seconds(body)
    }

    /// Total billable usage across all phases.
    pub fn usage(&self) -> Usage {
        let mut u = Usage::default();
        for g in &self.groups {
            for p in &g.phases {
                u.requests += p.stats.requests + p.stats.point_requests;
                u.select_scanned_bytes += p.stats.s3_scanned_bytes;
                u.select_returned_bytes += p.stats.select_returned_bytes;
                u.plain_bytes += p.stats.plain_bytes;
            }
        }
        u
    }

    /// Dollar cost: compute from the modeled runtime, the rest from usage.
    pub fn cost(&self, model: &PerfModel, pricing: &Pricing) -> CostBreakdown {
        pricing.cost(&self.usage(), self.runtime(model))
    }

    /// Per-phase durations, flattened, for the figure harnesses that plot
    /// phase breakdowns (Fig 6, Fig 8).
    pub fn phase_seconds(&self, model: &PerfModel) -> Vec<(String, f64)> {
        self.groups
            .iter()
            .flat_map(|g| {
                g.phases
                    .iter()
                    .map(|p| (p.label.clone(), model.phase_seconds(&p.stats)))
            })
            .collect()
    }

    /// Duration of all phases whose label contains `needle`.
    pub fn seconds_for(&self, model: &PerfModel, needle: &str) -> f64 {
        self.groups
            .iter()
            .flat_map(|g| g.phases.iter())
            .filter(|p| p.label.contains(needle))
            .map(|p| model.phase_seconds(&p.stats))
            .sum()
    }

    /// Sum of `select_returned + plain` bytes (the "Bytes Returned" series
    /// of Figs 6 and 8).
    pub fn bytes_returned(&self) -> u64 {
        let u = self.usage();
        u.select_returned_bytes + u.plain_bytes
    }

    /// Project the total billable usage by `factor`, rounding **once** at
    /// the aggregate level. This is the accounting-correct projection for
    /// multi-phase plans: `self.scaled(factor).usage()` rounds every phase
    /// independently and drifts by up to half a unit per phase, so
    /// `scaled(a).usage() + scaled(b).usage() != scaled_usage` in general
    /// (see `Usage::scaled`). Use [`QueryMetrics::scaled`] for the runtime
    /// model (which needs the per-phase structure) and this for dollars.
    pub fn scaled_usage(&self, factor: f64) -> Usage {
        self.usage().scaled(factor)
    }

    /// Dollar cost of the projection by `factor`: runtime from the
    /// per-phase scaled footprint, billable bytes scaled once at the
    /// aggregate level.
    pub fn scaled_cost(&self, factor: f64, model: &PerfModel, pricing: &Pricing) -> CostBreakdown {
        pricing.cost(
            &self.scaled_usage(factor),
            self.scaled(factor).runtime(model),
        )
    }

    /// Project all extensive quantities by `factor` (measurement at small
    /// scale factor → paper's SF 10).
    pub fn scaled(&self, factor: f64) -> QueryMetrics {
        QueryMetrics {
            groups: self
                .groups
                .iter()
                .map(|g| PhaseGroup {
                    phases: g
                        .phases
                        .iter()
                        .map(|p| Phase {
                            label: p.label.clone(),
                            stats: p.stats.scaled(factor),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(plain: u64) -> PhaseStats {
        PhaseStats {
            plain_bytes: plain,
            requests: 1,
            ..Default::default()
        }
    }

    #[test]
    fn serial_groups_add_parallel_groups_max() {
        let model = PerfModel::default();
        let mut serial = QueryMetrics::new();
        serial.push_serial("a", stats(1_000_000_000));
        serial.push_serial("b", stats(2_000_000_000));
        let mut parallel = QueryMetrics::new();
        parallel.push_parallel(vec![
            ("a".into(), stats(1_000_000_000)),
            ("b".into(), stats(2_000_000_000)),
        ]);
        let t_serial = serial.runtime(&model);
        let t_parallel = parallel.runtime(&model);
        assert!(t_parallel < t_serial);
        // Parallel = startup + max; serial = startup + sum.
        let a = model.phase_seconds(&stats(1_000_000_000));
        let b = model.phase_seconds(&stats(2_000_000_000));
        assert!((t_serial - (model.params.query_startup + a + b)).abs() < 1e-9);
        assert!((t_parallel - (model.params.query_startup + b)).abs() < 1e-9);
    }

    #[test]
    fn usage_sums_phases() {
        let mut m = QueryMetrics::new();
        m.push_serial(
            "x",
            PhaseStats {
                requests: 2,
                s3_scanned_bytes: 10,
                select_returned_bytes: 5,
                plain_bytes: 3,
                ..Default::default()
            },
        );
        m.push_serial(
            "y",
            PhaseStats {
                requests: 1,
                plain_bytes: 7,
                ..Default::default()
            },
        );
        let u = m.usage();
        assert_eq!(u.requests, 3);
        assert_eq!(u.select_scanned_bytes, 10);
        assert_eq!(u.plain_bytes, 10);
        assert_eq!(m.bytes_returned(), 15);
    }

    #[test]
    fn cost_splits_components() {
        let model = PerfModel::default();
        let pricing = Pricing::us_east();
        let mut m = QueryMetrics::new();
        m.push_serial(
            "scan",
            PhaseStats {
                requests: 1000,
                s3_scanned_bytes: 10_000_000_000,
                select_returned_bytes: 1_000_000_000,
                ..Default::default()
            },
        );
        let c = m.cost(&model, &pricing);
        assert!(c.scan > 0.0 && c.transfer > 0.0 && c.request > 0.0 && c.compute > 0.0);
        assert!((c.scan - 0.02).abs() < 1e-9);
    }

    #[test]
    fn phase_labels_and_filters() {
        let model = PerfModel::default();
        let mut m = QueryMetrics::new();
        m.push_serial("sampling", stats(1_000_000));
        m.push_serial("scanning", stats(2_000_000));
        let all = m.phase_seconds(&model);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "sampling");
        assert!(m.seconds_for(&model, "sampling") > 0.0);
        assert!(m.seconds_for(&model, "nope") == 0.0);
    }

    #[test]
    fn scaled_usage_rounds_once_across_phases() {
        // 9 phases of 5 bytes each, factor 1.15: per-phase rounding gives
        // 9 × round(5.75) = 54; the aggregate path gives round(45 × 1.15)
        // = round(51.75) = 52, within half a unit of exact.
        let mut m = QueryMetrics::new();
        for i in 0..9 {
            m.push_serial(
                format!("p{i}"),
                PhaseStats {
                    select_returned_bytes: 5,
                    ..Default::default()
                },
            );
        }
        let per_phase = m.scaled(1.15).usage().select_returned_bytes;
        let once = m.scaled_usage(1.15).select_returned_bytes;
        assert_eq!(per_phase, 54);
        assert_eq!(once, 52);
        assert!((once as f64 - 45.0 * 1.15).abs() <= 0.5);
        // And the invariant the adaptive projections rely on: the single
        // rounding equals scaling the summed usage.
        assert_eq!(m.scaled_usage(1.15), m.usage().scaled(1.15));
    }

    #[test]
    fn scaling_projects_linearly() {
        let mut m = QueryMetrics::new();
        m.push_serial(
            "x",
            PhaseStats {
                plain_bytes: 100,
                requests: 1,
                point_requests: 2,
                ..Default::default()
            },
        );
        let s = m.scaled(100.0);
        assert_eq!(s.usage().plain_bytes, 10_000);
        // Bulk requests stay (layout constant); point requests scale.
        assert_eq!(s.usage().requests, 1 + 200);
    }
}
