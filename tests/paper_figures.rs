//! The paper's figures, pinned to the bit: one line per row of every
//! figure in `pushdown_bench::experiments::FIGURES` — Figs 1–11 and the
//! §X ablations of Suggestions 1–5, each at its module's `SIZE` — under
//! `tests/golden/paper_figures.txt`, in the exact form of
//! `pushdown_bench::figure` (every number an `f64` bit pattern, the
//! decimal beside it for the reader). The `figures` binary prints the
//! same rows readably. The figures are deterministic — seeded
//! generators, analytic clock — so a change to the phase model, to
//! `PerfParams` or to an operator's CPU charge shows up here as a diff
//! *in the paper's figures*, not only as `figure_shapes` still passing.
//! A change that means to move them re-blesses the file once and says
//! which columns moved and why.
//!
//! `PAPER_FIGURES_BLESS=1 cargo test --test paper_figures` rewrites the
//! file from the run; without it a mismatch prints the differing lines.

use pushdown_bench::experiments::FIGURES;
use pushdown_bench::figure::Form;

const GOLDEN: &str = "tests/golden/paper_figures.txt";

fn lines() -> Vec<String> {
    FIGURES
        .iter()
        .flat_map(|figure| figure().unwrap().lines(Form::Exact))
        .collect()
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
