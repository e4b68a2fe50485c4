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
//! is the one place that says so. One crate-private layer (`shape`)
//! applies it, names the phases and composes a join's sides and a staged
//! operator's children, for the plan executor
//! ([`crate::plan::execute`]), which fills it with measured footprints,
//! and the pricer ([`crate::cost::predict_plan`]), which fills it with
//! estimated ones — so executed and predicted phase lists cannot drift:
//!
//! * a scan leaf opens a serial phase ([`QueryMetrics::push_serial`]);
//! * a **streaming** operator — residual filter, project, the probe side
//!   and own CPU of a join — adds its [`PhaseStats`] to the
//!   open phase below it: its rows never rest, so it pays no
//!   `phase_startup` of its own and its CPU sits under the same `max` as
//!   the scan that feeds it;
//! * a **breaker** — group-by, scalar aggregate, sort, group-by merge —
//!   adds its stats the same way and then closes the phase: it has to
//!   see its whole input before anything above it starts. The hash build
//!   that drains a join's build side closes that side's phase too
//!   ([`QueryMetrics::join_sides`]); the join reports its CPU, build
//!   included, once, streaming over the probe side;
//! * a **pipelined** hash join ([`Sides::Pipelined`]) loads its probe
//!   side while its build side loads: its build side is one scan under
//!   streaming operators, and the two sides go side by side in one group,
//!   the build's phase first and the probe's pipeline, last, still open —
//!   so the join and the streaming operators above it run inside the
//!   probe's phase, and a pipelined probe side keeps a chain of them one
//!   group (`{load c ‖ load a ‖ load b + hash join + hash join}`). The
//!   join probes nothing before its build side is in, so pricing its CPU
//!   at the probe's pace holds while the build is the shorter load, as a
//!   dimension table's is. Under a segment cache too (`{cached load a ‖
//!   cached load b + hash join + …}`): both sides read the cache as it
//!   was when the join started, and the join applies what they did to it
//!   afterwards, build side first, so the two loads race for nothing;
//! * after a closed phase or a group with none open (two concurrent
//!   loads, a scan leaf's per-node phases on a cluster, per-node
//!   group-bys) the next operator opens a new serial phase;
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
//! So a baseline join under `GROUP BY … ORDER BY` is one group on one
//! node — `{load a ‖ load b + hash join + project + group-by}` — while a
//! Bloom join is the paper's two (§V-A2): `{select a} {bloom probe b +
//! hash join (bloom) + project + group-by}`. A join that does not
//! pipeline (on a cluster, over a breaker or a join on its build side)
//! is two: `{load a ‖ load b} {hash join + …}` where both sides are one
//! group, build then probe otherwise. The ORDER
//! BY is no phase: a grouping operator applies it to its finished groups
//! inside its own breaker ([`crate::plan::Order`]).

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

/// How a join's two sides ran ([`QueryMetrics::join_sides`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sides {
    /// Build, then probe: a staged operator's two children.
    Serial,
    /// Side by side, the operator above after both: two loads whose
    /// groups merge when each side is one group.
    Concurrent,
    /// The probe side loads while the build side does, and the join
    /// streams over it once the build side is in (a pipelined hash join,
    /// [`crate::plan`]).
    Pipelined,
}

/// The full, phase-structured footprint of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    pub groups: Vec<PhaseGroup>,
    /// The last phase of the last group is a pipeline that has not met a
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
    /// what ran below it. Its footprint joins the open phase — a serial
    /// one, or a pipelined join's probe beside its build — or opens a new
    /// one after a closed phase or a parallel group; a breaker then
    /// closes the phase it is in.
    pub fn stack(&mut self, label: &str, stats: PhaseStats, flow: Flow) {
        match self.groups.last_mut().and_then(|g| g.phases.last_mut()) {
            Some(phase) if self.open => {
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

    /// Compose the two sides of a join, build first, as they ran
    /// (`sides`). The build side is closed by its hash build; the probe
    /// side stays as open as it was, so the join's own work streams into
    /// the probe's phase. [`Sides::Pipelined`] sides — an open build phase
    /// and a probe side of one group — share one group, the build's phase
    /// first, the probe's pipeline last and open. Two sides of one group
    /// each that ran [`Sides::Concurrent`] (or pipelined in another shape)
    /// merge into one parallel group, nothing open. Anything else runs
    /// build, then probe.
    pub fn join_sides(mut build: QueryMetrics, probe: QueryMetrics, sides: Sides) -> Self {
        let one = |m: &QueryMetrics| m.groups.len() == 1;
        let pipelined = sides == Sides::Pipelined && build.open;
        if sides != Sides::Serial && one(&build) && one(&probe) {
            let phases = build.groups.into_iter().chain(probe.groups);
            return QueryMetrics {
                groups: vec![PhaseGroup {
                    phases: phases.flat_map(|g| g.phases).collect(),
                }],
                open: pipelined && probe.open,
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

        let leaf = |label: &str| {
            let mut m = QueryMetrics::new();
            m.push_serial(label, cpu(1));
            m
        };
        // Two concurrent loads: nothing joins their group, so the join
        // above them opens a phase of its own.
        let mut join = QueryMetrics::join_sides(leaf("load a"), leaf("load b"), Sides::Concurrent);
        join.stack("hash join", cpu(5), Flow::Streaming);
        assert_eq!(
            shape(&join),
            vec![vec![("load a", 1), ("load b", 1)], vec![("hash join", 5)]]
        );

        // A pipelined join: the two loads run side by side, and the join
        // and what streams above it run inside the probe's phase.
        let mut piped = QueryMetrics::join_sides(leaf("load a"), leaf("load b"), Sides::Pipelined);
        piped.stack("hash join", cpu(5), Flow::Streaming);
        let mut aggregated = piped.clone();
        aggregated.stack("aggregate", cpu(1), Flow::Breaker);
        assert_eq!(
            shape(&aggregated),
            vec![vec![("load a", 1), ("load b + hash join + aggregate", 7)]]
        );
        // A pipelined probe side keeps a chain one group, its pipeline
        // last; a join on the build side runs first, closed by the hash
        // build.
        let mut chain = QueryMetrics::join_sides(leaf("load c"), piped.clone(), Sides::Pipelined);
        chain.stack("hash join", cpu(3), Flow::Streaming);
        assert_eq!(
            shape(&chain),
            vec![vec![
                ("load c", 1),
                ("load a", 1),
                ("load b + hash join + hash join", 9)
            ]]
        );
        let mut deep = QueryMetrics::join_sides(piped, leaf("load c"), Sides::Serial);
        deep.stack("hash join", cpu(3), Flow::Streaming);
        assert_eq!(
            shape(&deep),
            vec![
                vec![("load a", 1), ("load b + hash join", 6)],
                vec![("load c + hash join", 4)]
            ]
        );

        // Serial sides (a Bloom join; a build side of two groups): the
        // hash build ends the build side's pipeline, and the join streams
        // over the probe side's.
        let mut bloom =
            QueryMetrics::join_sides(leaf("select a"), leaf("bloom probe b"), Sides::Serial);
        bloom.stack("hash join (bloom)", cpu(5), Flow::Streaming);
        assert_eq!(
            shape(&bloom),
            vec![
                vec![("select a", 1)],
                vec![("bloom probe b + hash join (bloom)", 6)]
            ]
        );
        let mut over_bloom = QueryMetrics::join_sides(bloom, leaf("load c"), Sides::Concurrent);
        over_bloom.stack("hash join", cpu(3), Flow::Streaming);
        assert_eq!(over_bloom.groups.len(), 3);
        assert_eq!(shape(&over_bloom)[2], vec![("load c + hash join", 4)]);

        // Pipelined sides of another shape — a probe side its own breaker
        // closed, a build side that is not an open scan — load side by
        // side, and the join opens a phase after them.
        let mut grouped = leaf("load b");
        grouped.stack("group-by", cpu(2), Flow::Breaker);
        let mut over_groups = QueryMetrics::join_sides(leaf("load a"), grouped, Sides::Pipelined);
        over_groups.stack("hash join", cpu(5), Flow::Streaming);
        assert_eq!(
            shape(&over_groups),
            vec![
                vec![("load a", 1), ("load b + group-by", 3)],
                vec![("hash join", 5)]
            ]
        );
        let mut built = leaf("load a");
        built.close();
        let mut closed_build = QueryMetrics::join_sides(built, leaf("load b"), Sides::Pipelined);
        closed_build.stack("hash join", cpu(5), Flow::Streaming);
        assert_eq!(closed_build.groups.len(), 2);

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
