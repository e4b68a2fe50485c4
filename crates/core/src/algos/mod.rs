//! The paper's pushdown algorithms, one module per operator family:
//!
//! * [`filter`] — server-side / S3-side / indexed filtering (paper §IV);
//! * [`groupby`] — server-side / filtered / S3-side / hybrid group-by (§VI);
//! * [`topk`] — server-side / sampling top-K (§VII);
//! * [`whatif`] — the §X what-if variants against the extended engine.
//!
//! The §V joins (baseline / filtered / Bloom) are not here: they are
//! compositions of the plan IR's operators ([`crate::plan`]), lowered as
//! named candidates by [`crate::joinplan`].

pub mod filter;
pub mod groupby;
pub mod topk;
pub mod whatif;
