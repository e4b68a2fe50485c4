//! Prints every figure (Figs 1–11, the §X ablations and the cache
//! tier's figure) at the size `tests/golden/paper_figures.txt` pins, one
//! titled block each, and exits non-zero when a figure fails, the cache
//! figure's gates included:
//! `cargo run --release -p pushdown-bench --bin figures`.

use pushdown_bench::experiments::FIGURES;
use pushdown_bench::figure::Form;

fn main() {
    for figure in FIGURES {
        let figure = figure().expect("figure runs");
        println!("\n== {} ==", figure.title);
        for line in figure.lines(Form::Readable) {
            println!("{line}");
        }
    }
}
