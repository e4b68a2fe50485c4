//! # pushdown-common
//!
//! Shared foundation for the PushdownDB reproduction of
//! *"PushdownDB: Accelerating a DBMS using S3 Computation"* (ICDE 2020).
//!
//! This crate contains everything the other crates agree on:
//!
//! * [`value`] — the dynamic [`value::Value`] type and
//!   [`value::DataType`] enum used for rows flowing through the
//!   engine and through the simulated S3 Select service.
//! * [`date`] — proleptic-Gregorian date arithmetic (days since the Unix
//!   epoch), used by the TPC-H date columns.
//! * [`schema`] — named, typed record schemas.
//! * [`row`] — row and row-batch containers.
//! * [`columnar`] — typed column batches ([`columnar::ColumnarBatch`])
//!   for vectorized execution with late materialization.
//! * [`pricing`] — the AWS US-East price constants the paper computes its
//!   dollar costs with, and [`pricing::CostBreakdown`].
//! * [`ledger`] — thread-safe, scoped accounting of bytes scanned /
//!   returned / transferred and HTTP requests issued, mirroring what an
//!   AWS bill would be computed from; per-query child ledgers roll up
//!   atomically into the store-global one.
//! * [`retry`] — the uniform bounded-backoff retry policy shared by every
//!   request path (whole-object, range, multi-range and Select requests).
//! * [`perf`] — the deterministic analytical performance model that maps
//!   ledger quantities to simulated elapsed seconds (the paper's testbed —
//!   an r4.8xlarge behind a 10 GigE link — is not available, so elapsed
//!   time is modeled rather than measured; see the README's
//!   "Performance model calibration" section).
//! * [`error`] — the shared error type.
//! * [`tmp`] — self-cleaning temp directories for the persistent-cache
//!   test and bench suites (no `tempfile` crate offline).

pub mod columnar;
pub mod date;
pub mod error;
pub mod fmtutil;
pub mod ledger;
pub mod mix;
pub mod perf;
pub mod pricing;
#[cfg(test)]
mod proptests;
pub mod retry;
pub mod row;
pub mod schema;
pub mod tmp;
pub mod value;

pub use columnar::{Column, ColumnData, ColumnarBatch, SelVec};
pub use error::{Error, Result};
pub use ledger::CostLedger;
pub use perf::{PerfModel, PhaseStats};
pub use pricing::{CostBreakdown, Pricing};
pub use retry::RetryPolicy;
pub use row::Row;
pub use schema::{Field, Schema};
pub use tmp::TempDir;
pub use value::{DataType, Value};
