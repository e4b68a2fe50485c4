//! The paper's figures, pinned to the bit: one line per row of Figs 1–9
//! and 11 and of the §X ablations of Suggestions 1–4 (at the scale
//! `tests/figure_shapes.rs` runs them) and per row
//! of Fig 10 plus its two geo-means, under
//! `tests/golden/paper_figures.txt`. Every column is a modeled runtime
//! and a dollar total, each written as its `f64` bit pattern (the
//! decimal beside it is for the reader). The figures are deterministic —
//! seeded generators, analytic clock — so a change to the phase model,
//! to `PerfParams` or to an operator's CPU charge shows up here as a
//! diff *in the paper's figures*, not only as `figure_shapes` still
//! passing. A change that means to move them re-blesses the file once
//! and says which columns moved and why.
//!
//! `PAPER_FIGURES_BLESS=1 cargo test --test paper_figures` rewrites the
//! file from the run; without it a mismatch prints the differing lines.

use pushdown_bench::experiments as ex;
use pushdown_bench::Measure;
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/paper_figures.txt";

fn bits(value: f64) -> String {
    format!("{:016x} ({value:.6})", value.to_bits())
}

fn column(line: &mut String, name: &str, m: &Measure) {
    let _ = write!(
        line,
        " | {name}: s={} $={}",
        bits(m.runtime),
        bits(m.cost.total())
    );
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for r in ex::fig01_filter::run(30_000).unwrap() {
        let mut line = format!("fig01 selectivity={:e}", r.selectivity);
        column(&mut line, "server", &r.server);
        column(&mut line, "s3", &r.s3);
        column(&mut line, "indexed", &r.indexed);
        out.push(line);
    }
    for r in ex::fig02_join_customer::run(0.004).unwrap() {
        let mut line = format!("fig02 c_acctbal<={}", r.upper_acctbal);
        column(&mut line, "baseline", &r.baseline);
        column(&mut line, "filtered", &r.filtered);
        column(&mut line, "bloom", &r.bloom);
        out.push(line);
    }
    for r in ex::fig03_join_orders::run(0.004).unwrap() {
        let mut line = format!("fig03 o_orderdate<{}", r.upper_orderdate.unwrap_or("none"));
        column(&mut line, "baseline", &r.baseline);
        column(&mut line, "filtered", &r.filtered);
        column(&mut line, "bloom", &r.bloom);
        out.push(line);
    }
    let fig4 = ex::fig04_join_fpr::run(0.004).unwrap();
    let mut line = "fig04 fixed".to_string();
    column(&mut line, "baseline", &fig4.baseline);
    column(&mut line, "filtered", &fig4.filtered);
    out.push(line);
    for r in &fig4.sweep {
        let mut line = format!("fig04 fpr={}", r.fpr);
        column(&mut line, "bloom", &r.bloom);
        out.push(line);
    }
    for r in ex::fig05_groupby_uniform::run(20_000).unwrap() {
        let mut line = format!("fig05 groups={}", r.n_groups);
        column(&mut line, "server", &r.server);
        column(&mut line, "filtered", &r.filtered);
        column(&mut line, "s3-side", &r.s3_side);
        out.push(line);
    }
    for r in ex::fig06_hybrid_split::run(20_000).unwrap() {
        let mut line = format!(
            "fig06 s3_groups={} | s3: s={} | server: s={}",
            r.s3_groups,
            bits(r.s3_seconds),
            bits(r.server_seconds)
        );
        column(&mut line, "total", &r.total);
        out.push(line);
    }
    for r in ex::fig07_groupby_skew::run(20_000).unwrap() {
        let mut line = format!("fig07 theta={}", r.theta);
        column(&mut line, "server", &r.server);
        column(&mut line, "filtered", &r.filtered);
        column(&mut line, "hybrid", &r.hybrid);
        out.push(line);
    }
    for r in ex::fig08_topk_sample::run(0.004, 50).unwrap().sweep {
        let mut line = format!(
            "fig08 sample={} | sampling: s={} | scanning: s={}",
            r.sample_size,
            bits(r.sampling_seconds),
            bits(r.scanning_seconds)
        );
        column(&mut line, "total", &r.total);
        out.push(line);
    }
    for r in ex::fig09_topk_k::run(0.004).unwrap() {
        let mut line = format!("fig09 k={}", r.k);
        column(&mut line, "server", &r.server);
        column(&mut line, "sampling", &r.sampling);
        out.push(line);
    }
    let fig10 = ex::fig10_tpch::run(0.003).unwrap();
    for r in &fig10.rows {
        let mut line = format!("fig10 {}", r.name);
        column(&mut line, "baseline", &r.baseline);
        column(&mut line, "optimized", &r.optimized);
        out.push(line);
    }
    out.push(format!(
        "fig10 geo-mean | speedup={} | cost-ratio={}",
        bits(fig10.geo_mean_speedup),
        bits(fig10.geo_mean_cost_ratio)
    ));
    for r in ex::fig11_parquet::run(8_000).unwrap() {
        let mut line = format!("fig11 columns={} selectivity={}", r.columns, r.selectivity);
        column(&mut line, "csv", &r.csv);
        column(&mut line, "columnar", &r.columnar);
        let _ = write!(line, " | size-ratio={}", bits(r.size_ratio));
        out.push(line);
    }
    for r in ex::ablation::run_index_ablation(20_000).unwrap() {
        let mut line = format!("ablation-index selectivity={:e}", r.selectivity);
        column(&mut line, "single-range", &r.single_range);
        column(&mut line, "multi-range", &r.multi_range);
        column(&mut line, "in-s3", &r.in_s3);
        out.push(line);
    }
    let bloom = ex::ablation::run_bloom_ablation(0.004).unwrap();
    let mut line = "ablation-bloom".to_string();
    column(&mut line, "string", &bloom.string_join);
    column(&mut line, "binary", &bloom.binary_join);
    out.push(line);
    for r in ex::ablation::run_groupby_ablation(10_000).unwrap() {
        let mut line = format!("ablation-groupby groups={}", r.n_groups);
        column(&mut line, "case-when", &r.case_when);
        column(&mut line, "native", &r.native);
        out.push(line);
    }
    out
}

#[test]
fn join_figures_and_the_suite_read_as_pinned() {
    let lines = lines();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("PAPER_FIGURES_BLESS").is_some() {
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(want.len(), lines.len(), "row count");
    let diffs: Vec<String> = want
        .iter()
        .zip(&lines)
        .filter(|(w, g)| **w != g.as_str())
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "a pinned figure moved\n{}",
        diffs.join("\n")
    );
}
