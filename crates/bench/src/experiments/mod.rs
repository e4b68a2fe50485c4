//! One module per paper figure. Every `run` function is deterministic,
//! takes any size and returns structured rows, gate-free; every
//! `figure()` runs its module's `run` at the module's `SIZE`, holds the
//! rows to the paper's claims about them (its gates, `Figure::gate`,
//! in the module's `check`), and returns them as a [`Figure`] — or the
//! first failing gate's `Err`, naming the figure, the gate and the row.
//! The `figures` binary prints them and `tests/paper_figures.rs` pins
//! them, so both fail when a claim does; `tests/figure_shapes.rs` runs
//! every `check` on hand-built rows. `fig_cache`, the cache tier's budget
//! grid beyond the paper, is one more such figure.

use crate::figure::Figure;
use pushdown_common::Result;

pub mod ablation;
pub mod fig01_filter;
pub mod fig02_join_customer;
pub mod fig03_join_orders;
pub mod fig04_join_fpr;
pub mod fig05_groupby_uniform;
pub mod fig06_hybrid_split;
pub mod fig07_groupby_skew;
pub mod fig08_topk_sample;
pub mod fig09_topk_k;
pub mod fig10_tpch;
pub mod fig11_parquet;
pub mod fig_cache;

/// Every figure, in the order of `tests/golden/paper_figures.txt`.
pub const FIGURES: &[fn() -> Result<Figure>] = &[
    fig01_filter::figure,
    fig02_join_customer::figure,
    fig03_join_orders::figure,
    fig04_join_fpr::figure,
    fig05_groupby_uniform::figure,
    fig06_hybrid_split::figure,
    fig07_groupby_skew::figure,
    fig08_topk_sample::figure,
    fig09_topk_k::figure,
    fig10_tpch::figure,
    fig11_parquet::figure,
    ablation::index_figure,
    ablation::bloom_figure,
    ablation::groupby_figure,
    ablation::pricing_figure,
    fig_cache::figure,
];
