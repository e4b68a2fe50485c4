//! The paper's pushdown algorithms that are **not** trees of plan-IR
//! operators, one module per operator family:
//!
//! * [`filter`] — the §IV-A indexed filter;
//! * [`groupby`] — S3-side / hybrid group-by (§VI);
//! * [`topk`] — server-side / sampling top-K (§VII);
//! * [`whatif`] — the §X what-if variants against the extended engine.
//!
//! The rule ([`crate::plan::AlgoOp`]): an algorithm lives here when a
//! later phase's SQL is computed from an earlier phase's result — the
//! distinct groups, the sample's populous groups, the sample's K-th
//! value, the index's byte ranges. Everything whose statements are known
//! at lowering time is a composition of the plan IR's operators
//! ([`crate::plan`]), lowered as named candidates by
//! [`crate::joinplan`]: the §V joins (baseline / filtered / Bloom), the
//! §IV server-side / S3-side filter, the §VIII-Q6 scalar aggregate and
//! the §VI server-side / filtered group-by.

pub mod filter;
pub mod groupby;
pub mod topk;
pub mod whatif;
