//! One module per paper figure. Every `run` function is deterministic
//! and returns structured rows; binaries print them, integration tests
//! assert their shapes.

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
