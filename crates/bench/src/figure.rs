//! The paper's figures as data: every experiment returns one [`Figure`],
//! and one line writer renders it — exactly for the golden file
//! (`tests/paper_figures.rs`), readably for the `figures` binary. A line
//! is the figure's name, the row's label, then ` | `-separated cells.
//! Before a figure takes its rows it holds them to its paper claims
//! (`Figure::gate`), so both callers fail when a claim does.

use crate::Measure;
use pushdown_common::{fmtutil, Error, Result};

/// One value of a figure row.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A modeled runtime and its dollar total: `name: s=… $=…`.
    Measure(Measure),
    /// Modeled seconds: `name: s=…`.
    Secs(f64),
    /// Dollars: `name: $=…`.
    Dollars(f64),
    /// A dimensionless ratio: `name=…`.
    Ratio(f64),
    /// An exact count: `name=…`.
    Count(u64),
    /// A label, such as the plan a strategy ran: `name=…`.
    Text(String),
}

/// How a line writes its numbers.
#[derive(Debug, Clone, Copy)]
pub enum Form {
    /// `f64` bit pattern, the decimal beside it for the reader.
    Exact,
    /// `fmtutil::secs` / `fmtutil::dollars`, ratios to three places.
    Readable,
}

/// One row: a label (which may be empty) and its named cells.
#[derive(Debug, Clone)]
struct Row {
    label: String,
    cells: Vec<(&'static str, Cell)>,
}

/// One experiment's rows under one name (the prefix of every line) and
/// one title.
#[derive(Debug, Clone)]
pub struct Figure {
    name: &'static str,
    pub title: &'static str,
    rows: Vec<Row>,
}

impl Figure {
    pub fn new(name: &'static str, title: &'static str) -> Figure {
        Figure {
            name,
            title,
            rows: Vec::new(),
        }
    }

    /// One paper claim the rows of this figure must hold: `Ok` when it
    /// `holds`, else the `Err` that names the figure, the gate and, by
    /// `what`, the row that breaks it. A `figure()` checks its gates on
    /// the rows it just computed, before it adds them, and returns the
    /// first that fails.
    pub(crate) fn gate(
        &self,
        gate: &str,
        holds: bool,
        what: impl FnOnce() -> String,
    ) -> Result<()> {
        if holds {
            return Ok(());
        }
        Err(Error::Other(format!(
            "{}: gate {gate}: {}",
            self.name,
            what()
        )))
    }

    /// Append a row.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<(&'static str, Cell)>) {
        let label = label.into();
        self.rows.push(Row { label, cells });
    }

    /// One line per row, numbers written in `form`.
    pub fn lines(&self, form: Form) -> Vec<String> {
        let secs = |v| form.number("s=", v, fmtutil::secs);
        let dollars = |v| form.number("$=", v, fmtutil::dollars);
        self.rows
            .iter()
            .map(|row| {
                let mut line = self.name.to_string();
                if !row.label.is_empty() {
                    line = format!("{line} {}", row.label);
                }
                for (name, cell) in &row.cells {
                    let cell = match cell {
                        Cell::Measure(m) => {
                            format!("{name}: {} {}", secs(m.runtime), dollars(m.cost.total()))
                        }
                        Cell::Secs(v) => format!("{name}: {}", secs(*v)),
                        Cell::Dollars(v) => format!("{name}: {}", dollars(*v)),
                        Cell::Ratio(v) => {
                            format!("{name}={}", form.number("", *v, |v| format!("{v:.3}")))
                        }
                        Cell::Count(n) => format!("{name}={n}"),
                        Cell::Text(t) => format!("{name}={t}"),
                    };
                    line = format!("{line} | {cell}");
                }
                line
            })
            .collect()
    }
}

impl Form {
    /// `v` as `tag` and its bit pattern, or as `readable` writes it.
    fn number(self, tag: &str, v: f64, readable: fn(f64) -> String) -> String {
        match self {
            Form::Exact => format!("{tag}{:016x} ({v:.6})", v.to_bits()),
            Form::Readable => readable(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::pricing::CostBreakdown;

    fn measure(runtime: f64, compute: f64) -> Measure {
        Measure {
            runtime,
            cost: CostBreakdown {
                compute,
                request: 0.0,
                scan: 0.0,
                transfer: 0.0,
            },
            bytes_returned: 0,
        }
    }

    #[test]
    fn a_failing_gate_names_its_figure_and_itself() {
        let figure = Figure::new("demo", "Demo");
        assert_eq!(figure.gate("holds", true, || unreachable!()), Ok(()));
        let err = figure
            .gate("s3-faster", false, || "selectivity 1e-2: 2 s vs 1 s".into())
            .unwrap_err();
        assert_eq!(
            err.message(),
            "demo: gate s3-faster: selectivity 1e-2: 2 s vs 1 s"
        );
    }

    #[test]
    fn every_cell_kind_renders_exactly_and_readably() {
        let mut figure = Figure::new("demo", "Demo");
        figure.row(
            "k=1",
            vec![
                ("total", Cell::Measure(measure(2.5, 0.25))),
                ("phase", Cell::Secs(0.004)),
                ("scan", Cell::Dollars(0.0005)),
                ("ratio", Cell::Ratio(0.5)),
                ("bytes", Cell::Count(42)),
                ("pick", Cell::Text("Join[bloom]".into())),
            ],
        );
        figure.row("", vec![("run", Cell::Measure(measure(12.0, 0.0)))]);
        assert_eq!(
            figure.lines(Form::Exact),
            [
                "demo k=1 \
                 | total: s=4004000000000000 (2.500000) $=3fd0000000000000 (0.250000) \
                 | phase: s=3f70624dd2f1a9fc (0.004000) \
                 | scan: $=3f40624dd2f1a9fc (0.000500) \
                 | ratio=3fe0000000000000 (0.500000) | bytes=42 | pick=Join[bloom]",
                "demo | run: s=4028000000000000 (12.000000) $=0000000000000000 (0.000000)",
            ]
        );
        assert_eq!(
            figure.lines(Form::Readable),
            [
                "demo k=1 | total: 2.50 s $0.2500 | phase: 4.0 ms | scan: $0.00050 \
                 | ratio=0.500 | bytes=42 | pick=Join[bloom]",
                "demo | run: 12.0 s $0.00000",
            ]
        );
    }
}
