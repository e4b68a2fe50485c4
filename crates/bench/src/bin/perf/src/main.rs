//! `perf` — the repo's benchmark: five TPC-H workloads measured on two
//! clocks (wall and modeled), per-layer probes, and a bench-side trace.
//! See README.md beside this package for the metric dictionary.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perf --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>] [--check-repeat]
//! ```
//!
//! `--workload` runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--all` re-executes this binary
//! once per workload, so peak memory and allocator state are per
//! workload.

mod dataset;
mod json;
mod probes;
mod report;
mod suite;
mod trace;
mod workload;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 12.0;

pub struct Options {
    pub workload: Option<String>,
    pub all: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check_repeat: bool,
    pub out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perf (--workload <name> | --all) [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--out <dir>] [--check-repeat]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    // Build products and results stay under the build directory, which
    // is git-ignored, never in the repository root.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut o = Options {
        workload: None,
        all: false,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_repeat: false,
        out: PathBuf::from(target).join("perf"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--all" => o.all = true,
            "--check-repeat" => o.check_repeat = true,
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => o.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (&o.workload, o.all) {
        (Some(_), true) => Err("--workload and --all exclude each other".into()),
        (None, false) => Err("one of --workload and --all is required".into()),
        (Some(name), false) if workload::find(name).is_none() => {
            Err(format!("unknown workload {name}"))
        }
        _ => Ok(o),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("perf: cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let outcome = if opts.all || opts.check_repeat {
        report::run_children(&opts)
    } else {
        let spec = workload::find(opts.workload.as_deref().unwrap_or_default())
            .expect("parse_args checked the name");
        report::run_one(spec, &opts)
    };
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(1)
        }
    }
}

/// The line that ends a run's standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as u64)),
        ("failed", Json::Int(failed as u64)),
        ("metrics", metrics),
    ])
}
