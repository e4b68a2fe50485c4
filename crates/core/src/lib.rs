//! # pushdown-core
//!
//! The PushdownDB engine (paper §III): a bare-bones, row-oriented
//! analytics engine whose one design question is *what to push into the
//! storage service*. It executes real queries against the simulated S3 +
//! S3 Select substrate and accounts every byte, request and operator so
//! the paper's runtime/cost figures can be regenerated deterministically.
//!
//! Layers, bottom-up:
//!
//! * [`catalog`] — partitioned tables in the object store and loaders;
//! * [`scan`] — the data paths: plain GET scans, S3 Select scans (with
//!   partition-parallelism, aggregate merging, early-stop LIMIT), and
//!   cache-aware scans reading through the store's segment cache;
//! * [`ops`] — compute-node operators (filter/project/hash join/hash
//!   aggregation/heap top-K) with CPU metering;
//! * [`index`] — the §IV-A byte-range index tables;
//! * [`algos`] — Fig 1's private helpers: the §IV-A indexed filter and
//!   its §X fetch modes;
//! * [`plan`] — the physical-plan IR: one scan leaf whose source is a
//!   field (plain GET, the hybrid caching tier, or S3 Select — whole or
//!   cut short to a sample), joins, group-by, sort/top-K, project/limit and the
//!   staged operators (Bloom join, top-K threshold, CASE-WHEN and hybrid
//!   group-by) as one operator DAG, driven by a single push-based
//!   executor. The paper's §IV–§VII algorithms are compositions of these
//!   operators and have no executor of their own;
//! * [`joinplan`] — lowering of a statement, a join of *n ≥ 1* tables,
//!   to the named candidate plans the planner prices;
//! * [`cost`] — the analytical cost estimator: one walker
//!   (`predict_plan`) prices every node of a candidate plan — scan
//!   leaves (per node, on a cluster), joins, operators, staged operators by the
//!   estimated outcome of the SQL they write — from catalog statistics,
//!   over one snapshot per table per query, using the same models that
//!   score measurements, and composes the phases and the operator report
//!   through the layer the executor composes its measurements through;
//! * [`planner`] — the one front-end: every query lowers to named
//!   candidate plans, and one function prices, picks (a preference list
//!   for the fixed strategies, the argmin-dollar plan for
//!   [`planner::Strategy::Adaptive`]), runs and explains them;
//! * [`metrics`] / [`output`] — phase-structured accounting that the
//!   analytical performance model turns into seconds and dollars, and
//!   the one statement of what a phase is (a pipeline between breakers);
//!   one private layer (`shape`) builds a plan node's phases and report
//!   from its children's, which the executor fills with measurements and
//!   the estimator with estimates;
//! * [`context`] — wiring (store, Select engine, models, the
//!   [`catalog::Catalog`] that resolves join tables by name).

pub mod algos;
pub mod catalog;
pub mod cluster;
pub mod context;
pub mod cost;
pub mod index;
pub mod joinplan;
pub mod metrics;
pub mod ops;
pub mod output;
pub mod plan;
pub mod planner;
mod pool;
pub mod scan;
mod shape;

pub use catalog::{
    upload_columnar_table, upload_csv_table, Catalog, ColumnStats, Table, TableStats,
};
pub use cluster::{Cluster, NodeSnapshot};
pub use context::QueryContext;
pub use cost::{Estimator, Estimators, PlanPrediction};
pub use index::{build_index, IndexTable};
pub use metrics::QueryMetrics;
pub use output::QueryOutput;
pub use plan::{OpReport, PlanNode, PlanOp};
pub use planner::{execute_sql, execute_sql_verbose, Explain, Strategy};
