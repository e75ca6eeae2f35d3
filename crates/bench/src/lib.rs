//! Experiment harness reproducing every table and figure of the Xatu
//! paper's evaluation.
//!
//! Each experiment module owns one paper artifact and prints the same
//! rows/series the paper reports through `xatu_metrics::table`. Run them
//! via the `figures` binary:
//!
//! ```text
//! cargo run --release -p xatu-bench --bin figures -- <id|all>
//! ```
//!
//! Ids: `fig2 fig3 fig4a fig4b fig4c fig8 fig9 fig10 fig11 fig12 fig13
//! fig15 fig17 fig18 tab2`. Criterion micro-benchmarks (`cargo bench`)
//! cover the §5.3 prototype numbers (feature extraction and per-detection
//! latency).

pub mod experiments;
pub mod json;
pub mod score;

pub use experiments::run_experiment;
pub use experiments::EXPERIMENT_IDS;
