//! # pushdown-bench
//!
//! Experiment harnesses that regenerate **every figure of the paper's
//! evaluation** (Figs 1–11 and the §X ablations) from the Rust
//! reproduction, the cache tier's figure beyond the paper, and criterion
//! micro-benchmarks of the columnar kernels.
//!
//! Each `experiments::figNN` module exposes a `run(size)` function that
//! executes the experiment and returns structured rows, a `SIZE` and a
//! `figure()` that runs it at that size, checks the paper's *shape*
//! claims (who wins, where the crossovers are) on those rows as named
//! gates (the module's `check`), and returns a [`figure::Figure`]. `experiments::FIGURES` lists
//! every figure; the `figures` binary prints them readably and
//! `tests/paper_figures.rs` pins them to the bit, and both fail when a
//! gate does.
//!
//! Conventions:
//!
//! * experiments run at a small scale factor and **project** extensive
//!   quantities to the paper's scale (SF 10 TPC-H / 10 GB synthetic)
//!   before applying the performance model — see `PhaseStats::scaled`;
//!   the two top-K figures are reported at bench scale instead because
//!   the sample size `S` is an absolute parameter that does not project;
//! * costs use the paper's US-East price book;
//! * everything is deterministic (seeded generators + analytic clock).

pub mod experiments;
pub mod figure;
pub mod workload;

use pushdown_common::pricing::CostBreakdown;
pub use pushdown_core::planner::{run_candidate, Tune};
use pushdown_core::{QueryContext, QueryOutput};

/// One measured configuration: modeled runtime and cost.
#[derive(Debug, Clone, Copy)]
pub struct Measure {
    pub runtime: f64,
    pub cost: CostBreakdown,
    pub bytes_returned: u64,
}

impl Measure {
    /// Measure a query output, projecting extensive quantities by
    /// `factor` first (1.0 = no projection). Billable bytes are scaled
    /// once at the aggregate level (`QueryMetrics::scaled_usage`) so
    /// multi-phase projections do not accumulate per-phase rounding.
    /// The metrics must account for exactly what the query billed.
    pub fn of(ctx: &QueryContext, out: &QueryOutput, factor: f64) -> Measure {
        assert_eq!(
            out.metrics.usage(),
            out.billed,
            "metrics disagree with the bill"
        );
        let usage = out.metrics.scaled_usage(factor);
        let runtime = out.metrics.scaled(factor).runtime(&ctx.model);
        Measure {
            runtime,
            cost: ctx.pricing.cost(&usage, runtime),
            bytes_returned: usage.select_returned_bytes + usage.plain_bytes,
        }
    }
}
