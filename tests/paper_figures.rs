//! The paper's figures, pinned to the bit: one line per row of every
//! figure in `pushdown_bench::experiments::FIGURES` — Figs 1–11, the §X
//! ablations of Suggestions 1–5 and the cache tier's figure, each at its
//! module's `SIZE` — under `tests/golden/paper_figures.txt`, in the exact
//! form of `pushdown_bench::figure` (every number an `f64` bit pattern,
//! the decimal beside it for the reader). The `figures` binary prints the
//! same rows readably. The figures are deterministic — seeded
//! generators, analytic clock — so a change to the phase model, to
//! `PerfParams` or to an operator's CPU charge shows up here as a diff
//! *in the paper's figures*, not only as the paper's claims still
//! holding. A change that means to move them re-blesses the file once
//! and says which columns moved and why.
//!
//! One test per figure compares that figure's lines — those whose first
//! word is its name — so the figures run side by side, once each, and a
//! failure names its figure. Each `figure()` first holds its rows to
//! the paper's claims (its gates), so a test also fails, naming the
//! figure and the gate, when a claim breaks, blessing or not.
//! `PAPER_FIGURES_BLESS=1 cargo test --test paper_figures` rewrites the
//! whole file from one run of `FIGURES`, in their order; without it a
//! mismatch prints the differing lines.

use pushdown_bench::experiments::*;
use pushdown_bench::figure::{Figure, Form};
use pushdown_common::Result;

const GOLDEN: &str = "tests/golden/paper_figures.txt";

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

fn blessing() -> bool {
    std::env::var_os("PAPER_FIGURES_BLESS").is_some()
}

/// Run `figure` and compare its lines with the golden lines that carry
/// its `name`.
fn pinned(name: &str, figure: fn() -> Result<Figure>) {
    if blessing() {
        return;
    }
    let lines = figure()
        .unwrap_or_else(|e| panic!("{e}"))
        .lines(Form::Exact);
    let named = |line: &str| line.split(' ').next() == Some(name);
    assert!(
        lines.iter().all(|l| named(l)),
        "{name}: a line of another name"
    );
    let golden = std::fs::read_to_string(golden_path()).expect("golden file present");
    let want: Vec<&str> = golden.lines().filter(|l| named(l)).collect();
    assert_eq!(want.len(), lines.len(), "{name}: row count");
    let diffs: Vec<String> = want
        .iter()
        .zip(&lines)
        .filter(|(w, g)| **w != g.as_str())
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{name}: a pinned figure moved\n{}",
        diffs.join("\n")
    );
}

/// One test per figure, and the figures' names in `FIGURES` order.
macro_rules! pin {
    ($($test:ident: $name:literal => $figure:path,)*) => {
        $(
            #[test]
            fn $test() {
                pinned($name, $figure);
            }
        )*
        const NAMES: &[&str] = &[$($name),*];
    };
}

pin! {
    fig01: "fig01" => fig01_filter::figure,
    fig02: "fig02" => fig02_join_customer::figure,
    fig03: "fig03" => fig03_join_orders::figure,
    fig04: "fig04" => fig04_join_fpr::figure,
    fig05: "fig05" => fig05_groupby_uniform::figure,
    fig06: "fig06" => fig06_hybrid_split::figure,
    fig07: "fig07" => fig07_groupby_skew::figure,
    fig08: "fig08" => fig08_topk_sample::figure,
    fig09: "fig09" => fig09_topk_k::figure,
    fig10: "fig10" => fig10_tpch::figure,
    fig11: "fig11" => fig11_parquet::figure,
    ablation_index: "ablation-index" => ablation::index_figure,
    ablation_bloom: "ablation-bloom" => ablation::bloom_figure,
    ablation_groupby: "ablation-groupby" => ablation::groupby_figure,
    ablation_pricing: "ablation-pricing" => ablation::pricing_figure,
    fig_cache: "fig-cache" => fig_cache::figure,
}

/// The golden file is every figure's block, once each, in `FIGURES`
/// order, and a figure test exists per block. Under
/// `PAPER_FIGURES_BLESS` this is the test that rewrites the file.
#[test]
fn the_golden_file_holds_each_figure_once_in_order() {
    if blessing() {
        let lines: Vec<String> = FIGURES
            .iter()
            .flat_map(|figure| figure().unwrap().lines(Form::Exact))
            .collect();
        std::fs::write(golden_path(), lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden file present");
    let mut blocks: Vec<&str> = golden
        .lines()
        .map(|l| l.split(' ').next().unwrap_or(""))
        .collect();
    blocks.dedup();
    assert_eq!(blocks, NAMES, "one block per figure, in FIGURES order");
    assert_eq!(FIGURES.len(), NAMES.len(), "one test per figure");
}
