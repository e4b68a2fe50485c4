//! Query metrics: phase-structured resource accounting.
//!
//! Every algorithm in the paper is naturally *phase-structured* (a Bloom
//! join has a build phase then a probe phase; sampling top-K has a
//! sampling phase then a scanning phase; …). [`QueryMetrics`] records a
//! serial sequence of **phase groups**; the phases *within* a group run
//! concurrently (e.g. a filtered join loading both tables at once), so
//! group time is the max of its members and query time is the sum of the
//! groups (plus fixed query startup).
//!
//! # What a phase is
//!
//! A phase is a **pipeline between breakers**, and [`QueryMetrics::stack`]
//! is the one place that says so — the plan executor
//! ([`crate::plan::execute`]) and the pricer
//! ([`crate::cost::predict_plan`]) both call it once per interior
//! operator, so executed and predicted phase lists cannot drift:
//!
//! * a scan leaf opens a serial phase ([`QueryMetrics::push_serial`]);
//! * a **streaming** operator — residual filter, project, the probe side
//!   and own CPU of a join — adds its [`PhaseStats`] to the
//!   open serial phase below it: its rows never rest, so it pays no
//!   `phase_startup` of its own and its CPU sits under the same `max` as
//!   the scan that feeds it;
//! * a **breaker** — group-by, scalar aggregate, sort, group-by merge —
//!   adds its stats the same way and then closes the phase: it has to
//!   see its whole input before anything above it starts. The hash build
//!   that drains a join's build side closes that side's phase too
//!   ([`QueryMetrics::join_sides`]); the join reports its CPU, build
//!   included, once, streaming over the probe side;
//! * after a closed phase or a parallel group (two concurrent loads, a
//!   scan leaf's per-node phases on a cluster, per-node group-bys) the
//!   next operator opens a new serial phase;
//! * a staged operator (Bloom join, top-K threshold, hybrid split) runs
//!   its first child to the end — closed, like a join's build side — and
//!   then its second ([`QueryMetrics::join_sides`]). A hybrid split whose
//!   grouping column has a catalog dictionary
//!   ([`crate::catalog::Table::dictionary`]) has no first child: it
//!   is its second phase alone, `{hybrid: s3-side aggregation ‖ hybrid:
//!   server-side aggregation + group-by}`, one group; so is a top-K
//!   threshold the catalog's tails hold
//!   ([`crate::catalog::ColumnStats::tails`]), `{scanning phase + sort}`
//!   — unless its scan finds the rows changed since load, and runs again
//!   as a `rescanning phase` after it.
//!
//! So a baseline join under `GROUP BY … ORDER BY` is two groups —
//! `{load a ‖ load b} {hash join + project + group-by}` — and so is a
//! Bloom join, the paper's two (§V-A2): `{select a} {bloom probe b +
//! hash join (bloom) + project + group-by}`. The ORDER BY is no phase:
//! a grouping operator applies it to its finished groups inside its own
//! breaker ([`crate::plan::Order`]).

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

/// How an interior operator sits in its pipeline (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Rows pass through: the operator joins the open phase below it.
    Streaming,
    /// The operator holds its whole input: it joins the open phase below
    /// it and ends it.
    Breaker,
}

/// The full, phase-structured footprint of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    pub groups: Vec<PhaseGroup>,
    /// The last group is a serial phase whose pipeline has not met a
    /// breaker yet: operators stacked on it run inside it.
    open: bool,
}

impl QueryMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a phase that runs by itself, open to the streaming
    /// operators stacked on it.
    pub fn push_serial(&mut self, label: impl Into<String>, stats: PhaseStats) {
        self.groups.push(PhaseGroup {
            phases: vec![Phase {
                label: label.into(),
                stats,
            }],
        });
        self.open = true;
    }

    /// Append a group of concurrent phases. Nothing joins a parallel
    /// group: the next operator opens a phase of its own.
    pub fn push_parallel(&mut self, phases: Vec<(String, PhaseStats)>) {
        self.groups.push(PhaseGroup {
            phases: phases
                .into_iter()
                .map(|(label, stats)| Phase { label, stats })
                .collect(),
        });
        self.open = false;
    }

    /// Append all of `other`'s groups (sub-query composition); the last
    /// phase stays as open as `other` left it.
    pub fn extend(&mut self, other: &QueryMetrics) {
        self.groups.extend(other.groups.iter().cloned());
        self.open = other.open;
    }

    /// **The phase rule** (module docs): stack one interior operator on
    /// what ran below it. Its footprint joins the open serial phase, or
    /// opens a new one after a closed phase or a parallel group; a
    /// breaker then closes the phase it is in.
    pub fn stack(&mut self, label: &str, stats: PhaseStats, flow: Flow) {
        match self.groups.last_mut() {
            Some(group) if self.open => {
                let phase = &mut group.phases[0];
                phase.label = format!("{} + {label}", phase.label);
                phase.stats.merge(&stats);
            }
            _ => self.push_serial(label, stats),
        }
        self.open = flow == Flow::Streaming;
    }

    /// Rename the scan phases a staged operator's child opened: every
    /// label starting with `from` starts with `to` instead (`select t` →
    /// `bloom probe t`, `sampling phase`, …).
    pub fn relabel(&mut self, from: &str, to: &str) {
        for phase in self.groups.iter_mut().flat_map(|g| &mut g.phases) {
            if let Some(rest) = phase.label.strip_prefix(from) {
                phase.label = format!("{to}{rest}");
            }
        }
    }

    /// End the pipeline of the last phase without adding to it: the hash
    /// build that drains a join's build side, and the end of a staged
    /// operator's first child.
    pub fn close(&mut self) {
        self.open = false;
    }

    /// Compose the two sides of a join, build first. `concurrent` sides
    /// that are one phase each load side by side in one parallel group;
    /// anything else runs build, then probe — the build side closed by
    /// its hash build, the probe side as open as it was, so the join's
    /// own work streams into the probe's phase.
    pub fn join_sides(mut build: QueryMetrics, probe: QueryMetrics, concurrent: bool) -> Self {
        if concurrent && build.groups.len() == 1 && probe.groups.len() == 1 {
            let phases = build.groups.into_iter().chain(probe.groups);
            return QueryMetrics {
                groups: vec![PhaseGroup {
                    phases: phases.flat_map(|g| g.phases).collect(),
                }],
                open: false,
            };
        }
        build.close();
        build.extend(&probe);
        build
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
            open: self.open,
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

    fn cpu(units: u64) -> PhaseStats {
        PhaseStats {
            server_cpu_units: units,
            ..Default::default()
        }
    }

    fn shape(m: &QueryMetrics) -> Vec<Vec<(&str, u64)>> {
        fn phase(p: &Phase) -> (&str, u64) {
            (p.label.as_str(), p.stats.server_cpu_units)
        }
        m.groups
            .iter()
            .map(|g| g.phases.iter().map(phase).collect())
            .collect()
    }

    /// The phase rule, case by case.
    #[test]
    fn a_phase_is_a_pipeline_between_breakers() {
        // Streaming operators join the scan's phase; a breaker joins it
        // and ends it; the next operator opens a phase of its own.
        let mut m = QueryMetrics::new();
        m.push_serial("load t", cpu(10));
        m.stack("residual filter", cpu(1), Flow::Streaming);
        m.stack("project", cpu(2), Flow::Streaming);
        m.stack("group-by", cpu(4), Flow::Breaker);
        m.stack("sort", cpu(8), Flow::Breaker);
        m.stack("project", cpu(16), Flow::Streaming);
        assert_eq!(
            shape(&m),
            vec![
                vec![("load t + residual filter + project + group-by", 17)],
                vec![("sort", 8)],
                vec![("project", 16)],
            ]
        );
        // Work is regrouped, never added or lost.
        let phases = m.groups.iter().flat_map(|g| &g.phases);
        assert_eq!(phases.map(|p| p.stats.server_cpu_units).sum::<u64>(), 41);

        // Two single loads run side by side, and nothing joins a
        // parallel group.
        let leaf = |label: &str| {
            let mut m = QueryMetrics::new();
            m.push_serial(label, cpu(1));
            m
        };
        let mut join = QueryMetrics::join_sides(leaf("load a"), leaf("load b"), true);
        join.stack("hash join", cpu(5), Flow::Streaming);
        join.stack("aggregate", cpu(1), Flow::Breaker);
        assert_eq!(
            shape(&join),
            vec![
                vec![("load a", 1), ("load b", 1)],
                vec![("hash join + aggregate", 6)]
            ]
        );

        // Serial sides (a Bloom join; a build side that is a join
        // itself): the hash build ends the build side's pipeline, and
        // the join streams over the probe side's.
        let mut bloom = QueryMetrics::join_sides(leaf("select a"), leaf("bloom probe b"), false);
        bloom.stack("hash join (bloom)", cpu(5), Flow::Streaming);
        assert_eq!(
            shape(&bloom),
            vec![
                vec![("select a", 1)],
                vec![("bloom probe b + hash join (bloom)", 6)]
            ]
        );
        let mut deep = QueryMetrics::join_sides(join, leaf("load c"), true);
        deep.stack("hash join", cpu(3), Flow::Streaming);
        assert_eq!(deep.groups.len(), 3);
        assert_eq!(shape(&deep)[2], vec![("load c + hash join", 4)]);

        // A closed pipeline takes nothing: the next operator opens its
        // own phase.
        let mut closed = leaf("select t");
        closed.close();
        closed.stack("sort", cpu(2), Flow::Breaker);
        assert_eq!(
            shape(&closed),
            vec![vec![("select t", 1)], vec![("sort", 2)]]
        );
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
