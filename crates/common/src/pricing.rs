//! AWS price constants and dollar-cost computation.
//!
//! These are the exact US-East (N. Virginia) prices the paper lists in
//! §II-B and uses for every cost figure:
//!
//! * S3 Select **data scanned**: $0.002 per GB
//! * S3 Select **data returned**: $0.0007 per GB
//! * HTTP GET requests: $0.0004 per 1,000 requests
//! * Compute: $2.128 per hour (r4.8xlarge, the paper's server)
//! * In-region data transfer for plain GETs: free
//! * Storage: excluded (paper §II-B excludes it: independent of queries)

use std::ops::{Add, AddAssign};

const GB: f64 = 1_000_000_000.0;

/// Price book. Defaults to the paper's US-East prices; tests and ablations
/// can construct alternatives (e.g. the "computation-aware pricing" thought
/// experiment from paper §X, Suggestion 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// $/GB scanned by S3 Select.
    pub scan_per_gb: f64,
    /// $/GB returned by S3 Select.
    pub select_return_per_gb: f64,
    /// $/GB transferred by plain GETs (0 within a region, the paper's setup).
    pub plain_transfer_per_gb: f64,
    /// $ per 1,000 HTTP GET requests (plain and Select alike).
    pub per_1k_requests: f64,
    /// $/hour for the compute instance.
    pub compute_per_hour: f64,
}

impl Default for Pricing {
    fn default() -> Self {
        Pricing {
            scan_per_gb: 0.002,
            select_return_per_gb: 0.0007,
            plain_transfer_per_gb: 0.0,
            per_1k_requests: 0.0004,
            compute_per_hour: 2.128,
        }
    }
}

impl Pricing {
    /// The paper's price book (same as `Default`).
    pub fn us_east() -> Self {
        Self::default()
    }

    /// Dollar cost of one query given its resource footprint and modeled
    /// runtime, split into the paper's four components.
    pub fn cost(&self, usage: &Usage, runtime_secs: f64) -> CostBreakdown {
        CostBreakdown {
            compute: runtime_secs / 3600.0 * self.compute_per_hour,
            request: usage.requests as f64 / 1000.0 * self.per_1k_requests,
            scan: usage.select_scanned_bytes as f64 / GB * self.scan_per_gb,
            transfer: usage.select_returned_bytes as f64 / GB * self.select_return_per_gb
                + usage.plain_bytes as f64 / GB * self.plain_transfer_per_gb,
        }
    }
}

/// Raw billable resource consumption of a query (what the ledger collects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// HTTP GET requests issued (plain + S3 Select).
    pub requests: u64,
    /// Bytes scanned by S3 Select while processing queries.
    pub select_scanned_bytes: u64,
    /// Bytes returned by S3 Select responses.
    pub select_returned_bytes: u64,
    /// Bytes returned by plain (non-Select) GETs.
    pub plain_bytes: u64,
}

impl Usage {
    /// Scale all byte/request quantities by a factor — used to project
    /// results measured at a small TPC-H scale factor to the paper's SF 10
    /// (every quantity is linear in table size).
    ///
    /// Each field is rounded to integer units exactly **once**, so scaling
    /// is *not* distributive over addition: `scaled(a) + scaled(b)` may
    /// differ from `scaled(a + b)` by up to one unit per operand. When
    /// projecting a multi-phase plan, **sum first, then scale once** —
    /// that is what `QueryMetrics::scaled_usage` does — rather than
    /// scaling each phase and summing, which drifts by up to half a unit
    /// per phase. The test below pins this invariant.
    pub fn scaled(&self, factor: f64) -> Usage {
        let s = |v: u64| ((v as f64) * factor).round() as u64;
        Usage {
            requests: s(self.requests),
            select_scanned_bytes: s(self.select_scanned_bytes),
            select_returned_bytes: s(self.select_returned_bytes),
            plain_bytes: s(self.plain_bytes),
        }
    }
}

impl Add for Usage {
    type Output = Usage;
    fn add(self, rhs: Usage) -> Usage {
        Usage {
            requests: self.requests + rhs.requests,
            select_scanned_bytes: self.select_scanned_bytes + rhs.select_scanned_bytes,
            select_returned_bytes: self.select_returned_bytes + rhs.select_returned_bytes,
            plain_bytes: self.plain_bytes + rhs.plain_bytes,
        }
    }
}

impl AddAssign for Usage {
    fn add_assign(&mut self, rhs: Usage) {
        *self = *self + rhs;
    }
}

/// A query's dollar cost, split exactly as the paper's stacked cost bars:
/// compute / request / scan / transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    pub compute: f64,
    pub request: f64,
    pub scan: f64,
    pub transfer: f64,
}

impl CostBreakdown {
    pub fn total(&self) -> f64 {
        self.compute + self.request + self.scan + self.transfer
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;
    fn add(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            compute: self.compute + rhs.compute,
            request: self.request + rhs.request,
            scan: self.scan + rhs.scan,
            transfer: self.transfer + rhs.transfer,
        }
    }
}

impl AddAssign for CostBreakdown {
    fn add_assign(&mut self, rhs: CostBreakdown) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let p = Pricing::us_east();
        assert_eq!(p.scan_per_gb, 0.002);
        assert_eq!(p.select_return_per_gb, 0.0007);
        assert_eq!(p.per_1k_requests, 0.0004);
        assert_eq!(p.compute_per_hour, 2.128);
        assert_eq!(p.plain_transfer_per_gb, 0.0);
    }

    #[test]
    fn cost_arithmetic_matches_paper_formulae() {
        let p = Pricing::us_east();
        let usage = Usage {
            requests: 10_000,
            select_scanned_bytes: 10 * 1_000_000_000, // 10 GB scanned
            select_returned_bytes: 1_000_000_000,     // 1 GB returned
            plain_bytes: 5 * 1_000_000_000,           // free in-region
        };
        let c = p.cost(&usage, 3600.0); // one hour of compute
        assert!((c.compute - 2.128).abs() < 1e-12);
        assert!((c.request - 0.004).abs() < 1e-12);
        assert!((c.scan - 0.02).abs() < 1e-12);
        assert!((c.transfer - 0.0007).abs() < 1e-12);
        assert!((c.total() - (2.128 + 0.004 + 0.02 + 0.0007)).abs() < 1e-12);
    }

    #[test]
    fn plain_gets_are_free_in_region() {
        let p = Pricing::us_east();
        let usage = Usage {
            requests: 0,
            select_scanned_bytes: 0,
            select_returned_bytes: 0,
            plain_bytes: 100 * 1_000_000_000,
        };
        assert_eq!(p.cost(&usage, 0.0).total(), 0.0);
    }

    #[test]
    fn usage_scaling_is_linear() {
        let u = Usage {
            requests: 100,
            select_scanned_bytes: 1000,
            select_returned_bytes: 500,
            plain_bytes: 300,
        };
        let s = u.scaled(10.0);
        assert_eq!(s.requests, 1000);
        assert_eq!(s.select_scanned_bytes, 10_000);
        assert_eq!(s.select_returned_bytes + s.plain_bytes, 8000);
    }

    #[test]
    fn scaling_is_rounded_once_at_the_aggregate_level() {
        // Per-part rounding drifts: each of 10 parts of 3 bytes scaled by
        // 1.25 rounds 3.75 → 4 (total 40), while the summed 30 bytes scale
        // to exactly 37.5 → 38. Projections must therefore scale the *sum*.
        let part = Usage {
            select_scanned_bytes: 3,
            ..Default::default()
        };
        let factor = 1.25;
        let mut summed = Usage::default();
        let mut per_part = Usage::default();
        for _ in 0..10 {
            summed += part;
            per_part += part.scaled(factor);
        }
        let once = summed.scaled(factor);
        assert_eq!(once.select_scanned_bytes, 38);
        assert_eq!(per_part.select_scanned_bytes, 40);
        // The aggregate-level rounding is within half a unit of exact.
        let exact = 30.0 * factor;
        assert!((once.select_scanned_bytes as f64 - exact).abs() <= 0.5);
    }

    #[test]
    fn usage_addition() {
        let a = Usage {
            requests: 1,
            select_scanned_bytes: 2,
            select_returned_bytes: 3,
            plain_bytes: 4,
        };
        let mut b = a;
        b += a;
        assert_eq!(b.requests, 2);
        assert_eq!(b.plain_bytes, 8);
    }
}
