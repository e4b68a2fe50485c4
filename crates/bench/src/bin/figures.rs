//! Prints every figure (Figs 1–11, the §X ablations and the cache
//! tier's figure) at the size `tests/golden/paper_figures.txt` pins, one
//! titled block each. A figure whose run fails, or whose rows break one
//! of its paper claims (its gates), prints no block: the binary goes on
//! with the rest, writes each failure to stderr as `<figure>: gate
//! <gate>: <row>` (the error's message), and exits non-zero at the end:
//! `cargo run --release -p pushdown-bench --bin figures`.

use pushdown_bench::experiments::FIGURES;
use pushdown_bench::figure::Form;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut failed = 0;
    for figure in FIGURES {
        match figure() {
            Ok(figure) => {
                println!("\n== {} ==", figure.title);
                for line in figure.lines(Form::Readable) {
                    println!("{line}");
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}", e.message());
            }
        }
    }
    if failed == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("{failed} of {} figures failed", FIGURES.len());
    ExitCode::FAILURE
}
