//! Billed $ / bytes vs segment-cache **tier budgets** under a
//! Zipf-skewed repeated workload (the tiered caching layer, beyond the
//! paper): a (mem, disk) grid showing the three-way mem/disk/remote
//! frontier. Emits `BENCH_fig_cache.json` next to the table so the perf
//! trajectory is tracked across PRs.
//! Usage: `fig_cache [scale_factor] [queries] [seed] [theta]`
//! (defaults 0.002, 48, 42, 1.0).

use pushdown_bench::experiments::fig_cache as fig;
use pushdown_bench::table::print_table;
use pushdown_common::fmtutil;
use std::fmt::Write as _;

/// The swept (mem_fraction, disk_fraction) grid: the PR-5 mem-only
/// sweep, then disk tiers stacked behind a RAM-constrained mem budget.
const GRID: &[(f64, f64)] = &[
    (0.0, 0.0),
    (0.1, 0.0),
    (0.5, 0.0),
    (1.0, 0.0),
    (0.1, 0.5),
    (0.1, 1.0),
    (0.5, 1.0),
];

/// The restart-leg (mem, disk) points (ISSUE 10): a disk-only tier
/// holding the whole dataset (the zero-rebill gate), the same disk tier
/// behind constrained RAM, and an *undersized* disk tier whose constant
/// eviction churn exercises the manifest-compaction bound.
const RESTART_GRID: &[(f64, f64)] = &[(0.0, 1.0), (0.1, 1.0), (0.0, 0.25)];

fn budget_label(bytes: u64) -> String {
    if bytes == 0 {
        "off".to_string()
    } else {
        fmtutil::bytes(bytes)
    }
}

fn write_restart_json(out: &mut String, res: &fig::FigRestartResult) {
    out.push_str(",\n  \"restart\": [");
    for (i, r) in res.rows.iter().enumerate() {
        let m = r.manifest.unwrap_or_default();
        let _ = write!(
            out,
            "{}\n    {{\"mem_budget\": {}, \"disk_budget\": {}, \"warm_dollars\": {:.9}, \
             \"restart_dollars\": {:.9}, \"warm_remote_bytes\": {}, \"restart_remote_bytes\": {}, \
             \"recovered_segments\": {}, \"recovered_bytes\": {}, \"recovery_wall_s\": {:.6}, \
             \"restart_disk_hit_ratio\": {:.6}, \"manifest_records\": {}, \
             \"manifest_live_puts\": {}, \"manifest_live_layouts\": {}, \"manifest_bytes\": {}, \
             \"fsyncs\": {}, \"commits\": {}, \"compactions\": {}, \"persisted_bytes\": {}}}",
            if i == 0 { "" } else { "," },
            r.mem_budget,
            r.disk_budget,
            r.warm.total_dollars,
            r.restart.total_dollars,
            r.warm_remote,
            r.restart_remote,
            r.recovered_segments,
            r.recovered_bytes,
            r.recovery_wall_s,
            r.restart_disk_hit_ratio(),
            m.records,
            m.live_puts,
            m.live_layouts,
            m.manifest_bytes,
            r.persisted(|c| c.fsyncs),
            r.persisted(|c| c.commits),
            r.persisted(|c| c.compactions),
            r.persisted(|c| c.persisted_bytes),
        );
    }
    out.push_str("\n  ]");
}

fn write_json(res: &fig::FigCacheResult) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"queries\": {}, \"seed\": {}, \"theta\": {}, \"dataset_bytes\": {},\n  \"rows\": [",
        res.queries, res.seed, res.theta, res.dataset_bytes
    );
    for (i, r) in res.rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"mem_budget\": {}, \"disk_budget\": {}, \"billed_dollars\": {:.9}, \
             \"remote_bytes\": {}, \"saved_fraction\": {:.6}, \"mem_hit_bytes\": {}, \
             \"disk_hit_bytes\": {}, \"fill_bytes\": {}, \"mem_hit_ratio\": {:.6}, \
             \"disk_hit_ratio\": {:.6}, \"virtual_makespan_s\": {:.6}, \"failed\": {}}}",
            if i == 0 { "" } else { "," },
            r.mem_budget,
            r.disk_budget,
            r.report.total_dollars,
            r.remote_bytes,
            r.saved_fraction,
            r.mem_hit_bytes(),
            r.cache.disk_hit_bytes,
            r.cache.fill_bytes,
            r.mem_hit_ratio(),
            r.disk_hit_ratio(),
            r.report.virtual_makespan_s,
            r.report.failed,
        );
    }
    out.push_str("\n  ]");
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.002);
    let queries: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(48);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let theta: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    // The experiment always runs the cache-disabled reference for the
    // saved-fraction column; the (0, 0) point just surfaces it as a row.
    let res = fig::run(sf, seed, queries, theta, GRID).expect("fig_cache");
    print_table(
        &format!(
            "Fig cache — {} Zipf(θ={}) queries (seed {}), dataset {}",
            res.queries,
            res.theta,
            res.seed,
            fmtutil::bytes(res.dataset_bytes),
        ),
        &[
            "mem",
            "disk",
            "billed $",
            "remote bytes",
            "saved",
            "mem hit%",
            "disk hit%",
            "demoted",
            "failed",
        ],
        &res.rows
            .iter()
            .map(|r| {
                vec![
                    budget_label(r.mem_budget),
                    budget_label(r.disk_budget),
                    format!("${:.6}", r.report.total_dollars),
                    fmtutil::bytes(r.remote_bytes),
                    format!("{:.0}%", r.saved_fraction * 100.0),
                    format!("{:.0}%", r.mem_hit_ratio() * 100.0),
                    format!("{:.0}%", r.disk_hit_ratio() * 100.0),
                    r.cache.demotions.to_string(),
                    r.report.failed.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    // The restart leg (ISSUE 10): persistent disk tier warmed, dropped,
    // recovered, replayed.
    let restart = fig::run_restart(sf, seed, queries, theta, RESTART_GRID).expect("restart leg");
    print_table(
        &format!(
            "Fig cache restart — persistent tier recovered across a restart (seed {})",
            restart.seed
        ),
        &[
            "mem",
            "disk",
            "warm remote",
            "restart remote",
            "recovered",
            "recovery s",
            "disk hit%",
            "manifest",
            "fsyncs/commits",
        ],
        &restart
            .rows
            .iter()
            .map(|r| {
                let m = r.manifest.unwrap_or_default();
                vec![
                    budget_label(r.mem_budget),
                    budget_label(r.disk_budget),
                    fmtutil::bytes(r.warm_remote),
                    fmtutil::bytes(r.restart_remote),
                    fmtutil::bytes(r.recovered_bytes),
                    format!("{:.3}", r.recovery_wall_s),
                    format!("{:.0}%", r.restart_disk_hit_ratio() * 100.0),
                    format!("{}/{} live", m.live_puts + m.live_layouts, m.records),
                    format!(
                        "{}/{}",
                        r.persisted(|c| c.fsyncs),
                        r.persisted(|c| c.commits)
                    ),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut json = write_json(&res);
    write_restart_json(&mut json, &restart);
    json.push_str("\n}\n");
    std::fs::write("BENCH_fig_cache.json", &json).expect("write BENCH_fig_cache.json");
    println!(
        "\nWrote BENCH_fig_cache.json ({} sweep + {} restart rows).",
        res.rows.len(),
        restart.rows.len()
    );

    // Gate 1 (PR 5): a full-dataset mem budget serves the whole repeated
    // stream locally after the cold fills.
    let full_mem = res
        .rows
        .iter()
        .find(|r| r.mem_budget >= res.dataset_bytes && r.disk_budget == 0)
        .expect("full mem-budget row in the grid");
    println!(
        "Full-dataset mem budget avoids {:.0}% of remotely scanned bytes.",
        full_mem.saved_fraction * 100.0
    );
    if full_mem.saved_fraction < 0.5 {
        eprintln!("ERROR: expected a >= 50% reduction when the hot set fits the mem budget");
        std::process::exit(1);
    }

    // Gate 2 (PR 9): stacking a disk tier larger than RAM behind the
    // same constrained mem budget must keep cutting remote bytes —
    // demoted segments stay servable locally instead of re-billing.
    let mem_only = res
        .rows
        .iter()
        .find(|r| r.mem_budget > 0 && r.mem_budget < res.dataset_bytes && r.disk_budget == 0)
        .expect("constrained mem-only row in the grid");
    let with_disk = res
        .rows
        .iter()
        .filter(|r| r.mem_budget == mem_only.mem_budget && r.disk_budget > r.mem_budget)
        .max_by_key(|r| r.disk_budget)
        .expect("disk > mem row at the same mem budget");
    let drop = 1.0 - with_disk.remote_bytes as f64 / mem_only.remote_bytes.max(1) as f64;
    println!(
        "Disk tier ({} behind {} mem) cuts remote bytes a further {:.0}% vs mem-only.",
        fmtutil::bytes(with_disk.disk_budget),
        fmtutil::bytes(with_disk.mem_budget),
        drop * 100.0
    );
    if drop < 0.2 {
        eprintln!(
            "ERROR: expected a disk tier larger than RAM to cut remote billed bytes by >= 20% \
             vs mem-only at the same mem budget"
        );
        std::process::exit(1);
    }

    // Gate 6: a cache never costs money. Rent-or-buy fills a table only
    // once what reading it remotely has cost covers the fill, so no
    // budget bills more than the cache-off run (to a hundredth of a
    // percent).
    let off = res
        .rows
        .iter()
        .find(|r| r.mem_budget == 0 && r.disk_budget == 0)
        .expect("cache-off row in the grid");
    for r in &res.rows {
        let ratio = r.report.total_dollars / off.report.total_dollars;
        if ratio > 1.0001 {
            eprintln!(
                "ERROR: (mem {}, disk {}) bills ${:.9}, {:+.3}% over the cache-off ${:.9}",
                r.mem_budget,
                r.disk_budget,
                r.report.total_dollars,
                (ratio - 1.0) * 100.0,
                off.report.total_dollars,
            );
            std::process::exit(1);
        }
    }
    println!("No cache budget bills more than the cache-off run.");

    // Gate 3 (ISSUE 10): restart economics. With a disk tier holding
    // the whole dataset, everything disk-resident at shutdown must be
    // recovered and serve the post-restart replay exactly like the
    // pre-restart warm pass — no remote re-billing of persisted bytes.
    let full_disk = restart
        .rows
        .iter()
        .find(|r| r.mem_budget == 0 && r.disk_budget >= restart.dataset_bytes)
        .expect("full disk-budget restart row");
    println!(
        "Restart over a full-dataset disk tier: {} recovered, warm remote {} vs restart remote {}.",
        fmtutil::bytes(full_disk.recovered_bytes),
        fmtutil::bytes(full_disk.warm_remote),
        fmtutil::bytes(full_disk.restart_remote),
    );
    if full_disk.recovered_segments == 0 {
        eprintln!("ERROR: restart must recover the persisted disk tier");
        std::process::exit(1);
    }
    if full_disk.restart_remote != full_disk.warm_remote || full_disk.restart_remote != 0 {
        eprintln!(
            "ERROR: segments disk-resident at shutdown must bill 0 remote bytes after recovery \
             (warm {}, restart {})",
            full_disk.warm_remote, full_disk.restart_remote
        );
        std::process::exit(1);
    }

    // Gate 7: a mem tier in front of the disk tier writes nothing more
    // to it. A segment promoted to mem keeps its log copy, so demoting
    // it again appends nothing and a restart recovers it: with the same
    // full-dataset disk tier behind a constrained mem budget, the replay
    // re-bills no remote bytes and the leg persists no more than the
    // disk-only row.
    let fronted = restart
        .rows
        .iter()
        .find(|r| r.mem_budget > 0 && r.disk_budget >= restart.dataset_bytes)
        .expect("mem-fronted full disk-budget restart row");
    let persisted = |r: &fig::FigRestartRow| r.persisted(|c| c.persisted_bytes);
    println!(
        "Restart behind {} of mem: restart remote {}, persisted {} (disk-only row {}).",
        fmtutil::bytes(fronted.mem_budget),
        fmtutil::bytes(fronted.restart_remote),
        fmtutil::bytes(persisted(fronted)),
        fmtutil::bytes(persisted(full_disk)),
    );
    if fronted.restart_remote != 0 || persisted(fronted) > persisted(full_disk) {
        eprintln!(
            "ERROR: a mem tier in front must add no disk writes and lose nothing at a restart \
             (restart remote {} B, persisted {} B vs the disk-only row's {} B)",
            fronted.restart_remote,
            persisted(fronted),
            persisted(full_disk)
        );
        std::process::exit(1);
    }

    // Gate 4 (ISSUE 10): the manifest stays compact under eviction
    // churn — dead Put/Del records are garbage-collected once they
    // outnumber live state, so the undersized-disk point's manifest is
    // bounded by its live residency, not by workload length.
    let churn = restart
        .rows
        .iter()
        .find(|r| r.mem_budget == 0 && r.disk_budget < restart.dataset_bytes)
        .expect("undersized-disk restart row");
    let m = churn.manifest.unwrap_or_default();
    let live = m.live_puts + m.live_layouts;
    println!(
        "Churned manifest after the restart leg: {} records for {} live entries.",
        m.records, live
    );
    if m.records > 128.max(8 * live) {
        eprintln!(
            "ERROR: manifest compaction bound violated: {} records for {} live entries",
            m.records, live
        );
        std::process::exit(1);
    }

    // Gate 5 (ISSUE 14): group commit. Every fsync of either incarnation
    // belongs to a commit, a compaction or an invalidation, each at most
    // two barriers — however many segments the stream persisted.
    for r in &restart.rows {
        if !r.fsyncs_within_commit_bound() {
            eprintln!(
                "ERROR: group-commit bound violated at (mem {}, disk {}): {} fsyncs for {} commits \
                 + {} compactions",
                r.mem_budget,
                r.disk_budget,
                r.persisted(|c| c.fsyncs),
                r.persisted(|c| c.commits),
                r.persisted(|c| c.compactions),
            );
            std::process::exit(1);
        }
    }
}
