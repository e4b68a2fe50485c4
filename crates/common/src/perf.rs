//! The deterministic analytical performance model.
//!
//! The paper measures wall-clock time on an r4.8xlarge EC2 instance reading
//! a 10 GB TPC-H dataset from S3 over a 10 GigE link. Neither that machine
//! nor S3 is available here, so PushdownDB-rs executes queries *for real*
//! over the simulated store but computes elapsed time *analytically* from
//! the measured resource footprint. This keeps every figure deterministic
//! and hardware-independent while preserving the bottleneck structure that
//! shapes the paper's results:
//!
//! 1. **the wire** — S3→EC2 network bandwidth (10 GigE);
//! 2. **storage-side scanning** — S3 Select scans at a high aggregate rate
//!    that *degrades with expression complexity* (long CASE-WHEN chains,
//!    many Bloom SUBSTRING conjuncts — paper §V-B3, §VI-C);
//! 3. **server-side ingest** — the compute node deserializes rows much
//!    more slowly than the wire delivers them, and S3 Select *responses*
//!    parse more slowly than bulk plain-GET reads (the event-stream
//!    framing the paper's testbed suffered from);
//! 4. **per-request overheads** — every HTTP round trip pays latency, and
//!    only a bounded number are in flight (paper §IV-B: the indexing
//!    strategy collapses under "excessive" per-row GETs).
//!
//! Within a *phase* the three byte streams are pipelined, so phase time is
//! the **max** of the three, plus request latency. Phases compose serially
//! (e.g. the Bloom join's build and probe, paper §V-A2) or in parallel
//! (e.g. a filtered join loading both tables at once).
//!
//! Every parameter is documented on [`PerfParams`]; the README's
//! "Performance model calibration" section derives the calibration from
//! the paper's figures, and the tests at the bottom of this file pin the
//! calibration targets.

/// Model parameters. Defaults are calibrated against the paper (see below
/// and the README's "Performance model calibration"); experiments can
/// perturb them for ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfParams {
    /// S3 → compute-node network bandwidth, bytes/s. The paper's testbed
    /// has a 10 GigE NIC: 1.25 GB/s.
    pub net_bw: f64,
    /// Server-side ingest rate for *plain GET* data (bulk CSV
    /// deserialization on the compute node), bytes/s.
    pub parse_plain_bw: f64,
    /// Server-side ingest rate for *S3 Select response* data, bytes/s.
    /// Select responses arrive as a framed event stream and parse
    /// substantially more slowly than bulk reads — this asymmetry is what
    /// makes "filtered" variants no faster than baselines when they return
    /// most of the table (paper Fig 2) yet much faster when selective.
    pub parse_select_bw: f64,
    /// Server-side ingest rate for *ColumnarLite* partition bytes, bytes/s.
    /// Typed column chunks decode straight into column vectors — no field
    /// splitting, no text-to-value conversion — so they ingest far faster
    /// than CSV. Calibrated once, in PR 6, from the `kernels` criterion
    /// bench (`cargo bench --bench kernels`, decode group): straight-to-batch
    /// decode measured 217–242 MiB/s vs 59–65 MiB/s for the CSV row reader
    /// of the time, a 3.7× ratio. The absolute rates are dev-container
    /// numbers, so the model keeps [`PerfParams::parse_plain_bw`] anchored
    /// to the paper testbed and scales by that ratio: 3.7 × 160e6 ≈ 590e6.
    /// 590e6 is a frozen model constant: the CSV reader has since become
    /// ~2.6× faster (the same bench now gives ~1.5×), which says nothing
    /// about the modeled testbed, so the ratio is *not* to be re-taken by
    /// hand. README "Performance model calibration" has the history;
    /// re-deriving constants by script is ROADMAP item E-2.
    pub parse_cl_bw: f64,
    /// Aggregate storage-side scan rate of S3 Select across all partitions
    /// of a table, bytes/s, for a trivial expression.
    pub s3_scan_bw: f64,
    /// Fractional slowdown of the storage-side scan per expression *term*
    /// (a CASE-WHEN arm, a Bloom-hash SUBSTRING conjunct, a predicate
    /// comparison). Scan rate becomes `s3_scan_bw / (1 + coeff * terms)`.
    pub expr_term_coeff: f64,
    /// Read bandwidth of the **mem tier** of the local segment cache,
    /// bytes/s. Cache hits move no bytes over the wire and issue no
    /// requests; they pay this local scan rate instead (and the usual
    /// parse cost — the bytes still deserialize on the compute node).
    pub cache_read_bw: f64,
    /// Read bandwidth of the **disk tier** of the local segment cache
    /// (the paper's r4.8xlarge instance storage), bytes/s. Like mem-tier
    /// hits, disk hits bill nothing — they cost only this slower local
    /// read plus parse. The benchmark's `cache.serve_disk_mbps` probe
    /// (`crates/bench/src/bin/perf`) measures this tier's serve rate on
    /// a file-backed tier, beside `cache.serve_mem_mbps` for the mem
    /// tier; that rate is the host's page cache and file system, not the
    /// modeled instance storage. The rate here therefore comes from the
    /// modeled hardware: SATA-SSD/EBS-class instance storage streams at
    /// ~0.25× of the memory-scan anchor [`PerfParams::cache_read_bw`], so
    /// 0.25 × 2.0e9 = 500e6 — squarely between the mem tier and the
    /// 10 GigE wire. See README "Performance model calibration" for how
    /// to re-derive.
    pub disk_read_bw: f64,
    /// Sequential **write** bandwidth of the persistent disk tier's
    /// segment files, bytes/s. Persisting a segment (straight-to-disk
    /// fill or mem→disk demotion) streams its bytes through this rate on
    /// the scope's virtual clock. SSD-class media writes slower than it
    /// reads under fsync pressure, so the default sits at 0.8× of
    /// [`PerfParams::disk_read_bw`]: 0.8 × 500e6 = 400e6.
    pub disk_write_bw: f64,
    /// Seconds one fsync barrier costs. The durability protocol issues
    /// at most two per commit (the segment log, then the manifest whose
    /// records reference it), however many segments and evictions the
    /// commit covers; a cached scan commits once, at its end. 500 µs is a mid-range SSD flush; NVMe with a
    /// capacitor-backed cache would be ~10×, disks ~20× the other way.
    pub fsync_latency: f64,
    /// Node-to-node bandwidth inside the cluster, bytes/s (each node's
    /// share of the exchange fabric). Exchanged bytes never touch S3 —
    /// they are not billable [`crate::pricing::Usage`] — but they take
    /// wall-clock time, which the compute price turns into dollars; that
    /// is how the optimizer weighs what a plan ships between nodes.
    pub exchange_bw: f64,
    /// Round-trip latency of one HTTP request, seconds.
    pub request_latency: f64,
    /// Maximum concurrently in-flight requests the compute node sustains.
    pub max_inflight: usize,
    /// Seconds of server CPU per operator "work unit" (roughly: one row
    /// visited by one non-trivial operator — hash probe, heap push, ...).
    /// A row that is never built costs none: a grouping operator over a
    /// join folds each match in place, so the join charges one unit per
    /// build and per probe row and the group table one per match (plus
    /// one where a projection computes an argument), not a unit for the
    /// joined row and another for projecting it.
    pub cpu_per_unit: f64,
    /// Fixed per-phase overhead (process/queue spin-up), seconds.
    pub phase_startup: f64,
    /// Fixed per-query overhead (planning, connection setup), seconds.
    pub query_startup: f64,
}

impl Default for PerfParams {
    fn default() -> Self {
        PerfParams {
            net_bw: 1.25e9,
            parse_plain_bw: 160e6,
            parse_select_bw: 80e6,
            parse_cl_bw: 590e6,
            s3_scan_bw: 2.4e9,
            cache_read_bw: 2.0e9,
            disk_read_bw: 500e6,
            disk_write_bw: 400e6,
            fsync_latency: 0.5e-3,
            exchange_bw: 1.25e9,
            expr_term_coeff: 0.05,
            request_latency: 0.010,
            max_inflight: 32,
            cpu_per_unit: 100e-9,
            phase_startup: 0.1,
            query_startup: 0.4,
        }
    }
}

/// Resource footprint of one execution phase, filled in by the executor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// **Bulk** HTTP requests: one per table partition (scan fan-out).
    /// Partition count is a *layout* constant — scaling a measurement to a
    /// larger scale factor grows the objects, not their number — so these
    /// do not scale (see [`PhaseStats::scaled`]).
    pub requests: u64,
    /// **Point** HTTP requests: one per row (the §IV-A index fetches).
    /// These are proportional to data size and scale linearly.
    pub point_requests: u64,
    /// Bytes scanned storage-side by S3 Select.
    pub s3_scanned_bytes: u64,
    /// Bytes returned by S3 Select responses.
    pub select_returned_bytes: u64,
    /// Bytes returned by plain GETs.
    pub plain_bytes: u64,
    /// Bytes served from the **local segment cache** (no request, no
    /// wire, no storage-side scan — and nothing billable: these never
    /// reach [`crate::pricing::Usage`]). They still parse on the compute
    /// node and read at [`PerfParams::cache_read_bw`].
    pub cache_bytes: u64,
    /// Bytes served from the segment cache's **disk tier** (partial-hit
    /// scans read them at [`PerfParams::disk_read_bw`]). Like
    /// `cache_bytes`: no request, no wire, no storage-side scan, nothing
    /// billable — but slower than a mem-tier hit, which is exactly the
    /// gradient the cost estimator weighs mem-hit vs disk-hit vs
    /// gap-fetch on.
    pub disk_bytes: u64,
    /// Bytes this phase ships between cluster nodes (a node's partition
    /// rows travelling to the operator above the scan, a group-by's
    /// shuffled rows crossing the exchange fabric). Intra-cluster traffic: zero
    /// requests, zero S3 bytes, nothing billable — it costs time at
    /// [`PerfParams::exchange_bw`], and time costs compute dollars.
    pub exchange_bytes: u64,
    /// Server-side operator work units (see [`PerfParams::cpu_per_unit`]).
    pub server_cpu_units: u64,
    /// Number of terms in the pushed-down expression (0 if no pushdown).
    pub expr_terms: u32,
    /// The subset of `plain_bytes + cache_bytes` that is ColumnarLite-
    /// encoded and therefore ingests at [`PerfParams::parse_cl_bw`]
    /// instead of [`PerfParams::parse_plain_bw`]. Keyed on the *table
    /// format*, never on which execution path ran, so row and columnar
    /// execution of the same scan report identical stats. Not billable:
    /// this never reaches [`crate::pricing::Usage`].
    pub cl_parse_bytes: u64,
}

impl PhaseStats {
    /// Merge another phase's footprint into this one (for phases whose
    /// sub-streams are fully pipelined together).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.requests += other.requests;
        self.point_requests += other.point_requests;
        self.s3_scanned_bytes += other.s3_scanned_bytes;
        self.select_returned_bytes += other.select_returned_bytes;
        self.plain_bytes += other.plain_bytes;
        self.cache_bytes += other.cache_bytes;
        self.disk_bytes += other.disk_bytes;
        self.exchange_bytes += other.exchange_bytes;
        self.server_cpu_units += other.server_cpu_units;
        self.expr_terms = self.expr_terms.max(other.expr_terms);
        self.cl_parse_bytes += other.cl_parse_bytes;
    }

    /// Scale extensive quantities by `factor` — projects a measurement
    /// taken at a small scale factor to the paper's SF 10. Bytes, CPU
    /// units and point requests are linear in table size; bulk (per-
    /// partition) requests and expression terms are layout/plan constants
    /// and stay fixed.
    pub fn scaled(&self, factor: f64) -> PhaseStats {
        let s = |v: u64| ((v as f64) * factor).round() as u64;
        PhaseStats {
            requests: self.requests,
            point_requests: s(self.point_requests),
            s3_scanned_bytes: s(self.s3_scanned_bytes),
            select_returned_bytes: s(self.select_returned_bytes),
            plain_bytes: s(self.plain_bytes),
            cache_bytes: s(self.cache_bytes),
            disk_bytes: s(self.disk_bytes),
            exchange_bytes: s(self.exchange_bytes),
            server_cpu_units: s(self.server_cpu_units),
            expr_terms: self.expr_terms,
            cl_parse_bytes: s(self.cl_parse_bytes),
        }
    }
}

/// The analytical clock: maps phase footprints to simulated seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfModel {
    pub params: PerfParams,
}

impl PerfModel {
    pub fn new(params: PerfParams) -> Self {
        PerfModel { params }
    }

    /// Effective storage-side scan bandwidth for an expression with the
    /// given number of terms.
    pub fn effective_scan_bw(&self, expr_terms: u32) -> f64 {
        self.params.s3_scan_bw / (1.0 + self.params.expr_term_coeff * expr_terms as f64)
    }

    /// Simulated duration of one phase.
    ///
    /// The three byte flows (storage scan, wire, server ingest) are
    /// pipelined, so the phase runs at the pace of the slowest; request
    /// latency is paid up front, amortized over the in-flight window.
    pub fn phase_seconds(&self, s: &PhaseStats) -> f64 {
        let p = &self.params;
        let total_requests = s.requests + s.point_requests;
        let inflight = p.max_inflight.min(total_requests.max(1) as usize).max(1) as f64;
        let latency = total_requests as f64 * p.request_latency / inflight;
        let scan = s.s3_scanned_bytes as f64 / self.effective_scan_bw(s.expr_terms);
        let wire = (s.select_returned_bytes + s.plain_bytes) as f64 / p.net_bw;
        // Both cache tiers share the local IO path: mem bytes stream at
        // the fast rate, disk-tier bytes at the instance-storage rate.
        let local = s.cache_bytes as f64 / p.cache_read_bw + s.disk_bytes as f64 / p.disk_read_bw;
        let xchg = s.exchange_bytes as f64 / p.exchange_bw;
        // ColumnarLite bytes (a subset of plain + cache + disk bytes)
        // ingest at their own, faster rate; everything else parses as
        // CSV text.
        let moved = s.plain_bytes + s.cache_bytes + s.disk_bytes;
        let cl = s.cl_parse_bytes.min(moved);
        let server = (moved - cl) as f64 / p.parse_plain_bw
            + cl as f64 / p.parse_cl_bw
            + s.select_returned_bytes as f64 / p.parse_select_bw
            + s.server_cpu_units as f64 * p.cpu_per_unit;
        p.phase_startup + latency + scan.max(wire).max(server).max(local).max(xchg)
    }

    /// Compose phases that run one after another.
    pub fn serial(&self, phases: &[PhaseStats]) -> f64 {
        phases.iter().map(|s| self.phase_seconds(s)).sum()
    }

    /// Compose independent sub-plans that run concurrently: the slower one
    /// determines elapsed time.
    pub fn parallel(durations: &[f64]) -> f64 {
        durations.iter().copied().fold(0.0, f64::max)
    }

    /// Total query time: startup plus the given already-composed body.
    pub fn query_seconds(&self, body_seconds: f64) -> f64 {
        self.params.query_startup + body_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    fn model() -> PerfModel {
        PerfModel::default()
    }

    /// Paper Fig 1a: server-side filter of the SF-10 lineitem table
    /// (7.25 GB) should land near 30 s and the S3-side filter near a tenth
    /// of that ("a dramatic 10x").
    #[test]
    fn calibration_filter_gap() {
        let m = model();
        let server = m.phase_seconds(&PhaseStats {
            requests: 800,
            plain_bytes: 7_250_000_000,
            server_cpu_units: 60_000_000,
            ..Default::default()
        });
        let s3 = m.phase_seconds(&PhaseStats {
            requests: 800,
            s3_scanned_bytes: 7_250_000_000,
            select_returned_bytes: 7_250_000, // selectivity 1e-3
            expr_terms: 1,
            ..Default::default()
        });
        let speedup = server / s3;
        assert!(
            (7.0..22.0).contains(&speedup),
            "server {server:.1}s / s3 {s3:.1}s = {speedup:.1}x, want ~10x"
        );
    }

    /// Paper Fig 1b: the S3-side filter's cost is scan-dominated and in the
    /// same ballpark as the compute-dominated server-side filter (the paper
    /// reports +24%; we accept parity within a factor ~1.5 either way).
    #[test]
    fn calibration_filter_cost_parity() {
        use crate::pricing::{Pricing, Usage};
        let m = model();
        let pr = Pricing::us_east();

        let server_t = m.phase_seconds(&PhaseStats {
            requests: 800,
            plain_bytes: 7_250_000_000,
            server_cpu_units: 60_000_000,
            ..Default::default()
        });
        let server_cost = pr
            .cost(
                &Usage {
                    requests: 800,
                    plain_bytes: 7_250_000_000,
                    ..Default::default()
                },
                server_t,
            )
            .total();

        let s3_t = m.phase_seconds(&PhaseStats {
            requests: 800,
            s3_scanned_bytes: 7_250_000_000,
            select_returned_bytes: 7_250_000,
            expr_terms: 1,
            ..Default::default()
        });
        let s3_cost = pr
            .cost(
                &Usage {
                    requests: 800,
                    select_scanned_bytes: 7_250_000_000,
                    select_returned_bytes: 7_250_000,
                    ..Default::default()
                },
                s3_t,
            )
            .total();

        let ratio = s3_cost / server_cost;
        assert!(
            (0.35..1.6).contains(&ratio),
            "s3 ${s3_cost:.4} / server ${server_cost:.4} = {ratio:.2}"
        );
    }

    /// Paper Fig 1: the indexing strategy collapses once per-row GETs
    /// dominate — at selectivity 1e-2 on 60 M rows, request latency alone
    /// should push runtime far past the S3-side filter.
    #[test]
    fn calibration_indexing_collapse() {
        let m = model();
        let idx_high_sel = m.phase_seconds(&PhaseStats {
            point_requests: 600_000, // 1e-2 of 60M rows
            plain_bytes: 72_500_000,
            ..Default::default()
        });
        let s3_filter = 3.5;
        assert!(
            idx_high_sel > 20.0 * s3_filter,
            "indexing at 1e-2 = {idx_high_sel:.0}s should dwarf the S3 filter"
        );
        // ...but stay cheap when selective.
        let idx_low_sel = m.phase_seconds(&PhaseStats {
            point_requests: 60, // 1e-6
            plain_bytes: 7_250,
            ..Default::default()
        });
        assert!(idx_low_sel < 1.0);
    }

    /// Paper Fig 5a: filtered group-by (returning 25% of a 10 GB table via
    /// Select) beats the server-side full load by roughly the paper's 64%,
    /// and the effect does not depend on the group count.
    #[test]
    fn calibration_groupby_filtered_vs_server() {
        let m = model();
        let server = m.phase_seconds(&PhaseStats {
            requests: 1000,
            plain_bytes: 10 * GB,
            server_cpu_units: 55_000_000,
            ..Default::default()
        });
        let filtered = m.phase_seconds(&PhaseStats {
            requests: 1000,
            s3_scanned_bytes: 10 * GB,
            select_returned_bytes: 2_500_000_000,
            server_cpu_units: 55_000_000,
            expr_terms: 5,
            ..Default::default()
        });
        let gain = server / filtered;
        assert!(
            (1.2..2.2).contains(&gain),
            "server {server:.1}s / filtered {filtered:.1}s = {gain:.2} (paper: 1.64)"
        );
    }

    /// Paper Fig 4: Bloom-join scan rate degrades with the hash-function
    /// count; a 14-conjunct filter (FPR 1e-4) scans measurably slower than
    /// a 7-conjunct one (FPR 0.01).
    #[test]
    fn expression_complexity_slows_scans() {
        let m = model();
        let fast = m.effective_scan_bw(7);
        let slow = m.effective_scan_bw(14);
        assert!(slow < fast);
        assert!(m.effective_scan_bw(0) == m.params.s3_scan_bw);
        let ratio = fast / slow;
        assert!((1.2..2.0).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn phases_compose() {
        let m = model();
        let a = PhaseStats {
            plain_bytes: GB,
            ..Default::default()
        };
        let b = PhaseStats {
            s3_scanned_bytes: GB,
            ..Default::default()
        };
        let serial = m.serial(&[a, b]);
        assert!((serial - (m.phase_seconds(&a) + m.phase_seconds(&b))).abs() < 1e-12);
        let par = PerfModel::parallel(&[1.0, 3.0, 2.0]);
        assert_eq!(par, 3.0);
        assert!(m.query_seconds(5.0) > 5.0);
    }

    #[test]
    fn scaling_is_linear_in_extensive_quantities() {
        let s = PhaseStats {
            requests: 10,
            point_requests: 4,
            s3_scanned_bytes: 100,
            select_returned_bytes: 50,
            plain_bytes: 20,
            cache_bytes: 30,
            disk_bytes: 25,
            exchange_bytes: 40,
            server_cpu_units: 5,
            expr_terms: 7,
            cl_parse_bytes: 12,
        };
        let t = s.scaled(100.0);
        assert_eq!(t.requests, 10, "bulk requests are a layout constant");
        assert_eq!(t.point_requests, 400, "point requests are per-row");
        assert_eq!(t.s3_scanned_bytes, 10_000);
        assert_eq!(t.cache_bytes, 3_000, "cache bytes scale with data");
        assert_eq!(t.disk_bytes, 2_500, "disk-tier bytes scale with data");
        assert_eq!(t.exchange_bytes, 4_000, "exchange bytes scale with data");
        assert_eq!(t.expr_terms, 7, "expr terms are intensive");
        assert_eq!(t.cl_parse_bytes, 1_200, "columnar bytes scale with data");
    }

    /// ColumnarLite partitions ingest at their own (faster) parse rate;
    /// the same bytes as CSV are parse-bound at `parse_plain_bw`.
    #[test]
    fn columnar_bytes_parse_faster_than_csv_bytes() {
        let m = model();
        let csv = PhaseStats {
            plain_bytes: GB,
            ..Default::default()
        };
        let clt = PhaseStats {
            plain_bytes: GB,
            cl_parse_bytes: GB,
            ..Default::default()
        };
        let t_csv = m.phase_seconds(&csv);
        let t_clt = m.phase_seconds(&clt);
        assert!(t_clt < t_csv, "{t_clt} vs {t_csv}");
        // cl_parse_bytes can never exceed the bytes actually moved.
        let clamped = PhaseStats {
            plain_bytes: GB,
            cl_parse_bytes: 5 * GB,
            ..Default::default()
        };
        assert!((m.phase_seconds(&clamped) - t_clt).abs() < 1e-12);
    }

    /// Cache hits pay local scan + parse, never wire, scan or latency:
    /// a cached phase is no slower than the same bytes as plain GETs and
    /// strictly faster once request latency is in play.
    #[test]
    fn cached_phases_cost_local_scan_and_parse_only() {
        let m = model();
        let cached = PhaseStats {
            cache_bytes: GB,
            ..Default::default()
        };
        let remote = PhaseStats {
            requests: 100,
            plain_bytes: GB,
            ..Default::default()
        };
        let t_cached = m.phase_seconds(&cached);
        let t_remote = m.phase_seconds(&remote);
        assert!(t_cached < t_remote, "{t_cached} vs {t_remote}");
        // Parse-bound: the dominant term is bytes / parse_plain_bw.
        let parse = GB as f64 / m.params.parse_plain_bw;
        assert!((t_cached - (m.params.phase_startup + parse)).abs() < 1e-9);
    }

    /// Disk-tier hits pay the slower instance-storage read plus parse:
    /// dearer than a mem hit, still cheaper than refetching over the
    /// wire with request latency — the three-way gradient Adaptive
    /// weighs. Exact: `local = cache/cache_bw + disk/disk_bw`.
    #[test]
    fn disk_tier_hits_sit_between_mem_hits_and_remote_fetches() {
        let m = model();
        // ColumnarLite bytes, so parse does not mask the local read rate.
        let mem_hit = m.phase_seconds(&PhaseStats {
            cache_bytes: GB,
            cl_parse_bytes: GB,
            ..Default::default()
        });
        let disk_hit = m.phase_seconds(&PhaseStats {
            disk_bytes: GB,
            cl_parse_bytes: GB,
            ..Default::default()
        });
        let remote = m.phase_seconds(&PhaseStats {
            requests: 2000,
            plain_bytes: GB,
            cl_parse_bytes: GB,
            ..Default::default()
        });
        assert!(mem_hit < disk_hit, "{mem_hit} vs {disk_hit}");
        assert!(disk_hit < remote, "{disk_hit} vs {remote}");
        // A half-and-half partial hit reads each tier at its own rate.
        let split = m.phase_seconds(&PhaseStats {
            cache_bytes: GB / 2,
            disk_bytes: GB / 2,
            ..Default::default()
        });
        let local =
            (GB / 2) as f64 / m.params.cache_read_bw + (GB / 2) as f64 / m.params.disk_read_bw;
        let parse = GB as f64 / m.params.parse_plain_bw;
        assert!((split - (m.params.phase_startup + local.max(parse))).abs() < 1e-9);
        // Disk bytes count toward the ColumnarLite parse clamp too.
        let cl = m.phase_seconds(&PhaseStats {
            disk_bytes: GB,
            cl_parse_bytes: 2 * GB,
            ..Default::default()
        });
        let cl_exact = m.phase_seconds(&PhaseStats {
            disk_bytes: GB,
            cl_parse_bytes: GB,
            ..Default::default()
        });
        assert!((cl - cl_exact).abs() < 1e-12);
    }

    /// Exchange traffic is pipelined with the other byte streams and
    /// paced by its own (inter-node) bandwidth; it never bills usage.
    #[test]
    fn exchange_bytes_cost_time_not_dollars_of_bytes() {
        let m = model();
        let quiet = m.phase_seconds(&PhaseStats::default());
        let shipped = m.phase_seconds(&PhaseStats {
            exchange_bytes: 10 * GB,
            ..Default::default()
        });
        let expected = 10.0 * GB as f64 / m.params.exchange_bw;
        assert!((shipped - quiet - expected).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PhaseStats {
            requests: 1,
            plain_bytes: 10,
            expr_terms: 3,
            ..Default::default()
        };
        a.merge(&PhaseStats {
            requests: 2,
            s3_scanned_bytes: 5,
            expr_terms: 7,
            ..Default::default()
        });
        assert_eq!(a.requests, 3);
        assert_eq!(a.plain_bytes, 10);
        assert_eq!(a.s3_scanned_bytes, 5);
        assert_eq!(a.expr_terms, 7);
    }

    #[test]
    fn zero_phase_costs_only_startup() {
        let m = model();
        let t = m.phase_seconds(&PhaseStats::default());
        assert!((t - m.params.phase_startup).abs() < 1e-12);
    }
}
