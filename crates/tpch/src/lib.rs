//! # pushdown-tpch
//!
//! Workloads for the PushdownDB experiments:
//!
//! * [`schema`] / [`gen`] — a deterministic, seeded TPC-H-style data
//!   generator (the paper's 10 GB `dbgen` CSV dataset, §III, scaled by an
//!   arbitrary scale factor);
//! * [`load`] — partitioned upload into the simulated store;
//! * [`synthetic`] — the synthetic group-by tables of §VI-C (uniform and
//!   Zipf-skewed group sizes) and the wide float tables of §IX;
//! * [`queries`] — TPC-H Q1, Q3, Q6, Q14, Q17, Q19, the Fig 10 suite, as
//!   statements the planner lowers and runs under any
//!   `pushdown_core::Strategy` (Q14 and Q17 compose lowered sub-plans),
//!   and the nine-shape planner-dialect suite.

pub mod gen;
pub mod load;
pub mod queries;
pub mod schema;
pub mod synthetic;

pub use gen::TpchGen;
pub use load::{load_tpch, tpch_context, TpchTables};
pub use queries::{planner_suite, PlannerQuery, TpchQuery, SUITE};
