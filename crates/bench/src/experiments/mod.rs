//! One module per paper figure. Every `run` function is deterministic
//! and returns structured rows, which `tests/figure_shapes.rs` asserts
//! shapes on; every `figure()` runs its module's `run` at the module's
//! `SIZE` and returns the rows as a [`Figure`], which the `figures`
//! binary prints and `tests/paper_figures.rs` pins. `fig_cache`, the
//! cache tier's budget grid beyond the paper, is one more such figure;
//! its `figure()` also checks the grid's seven gates.

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
