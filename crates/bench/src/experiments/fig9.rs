//! Fig 9 — ROC curves of Xatu vs RF over the test period.
//!
//! Minute-level ROC against ground-truth anomaly intervals: each test
//! minute of each (customer, type) is a sample; the score is the
//! attack-likelihood (1 − survival for Xatu, RF probability for RF).

use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_metrics::roc::{auc, tpr_at_fpr};
use xatu_metrics::table::Table;

/// Runs the Fig 9 ROC comparison.
pub fn run(seed: u64) -> String {
    let mut cfg = PipelineConfig::sweep(seed);
    cfg.with_fnm = false;
    let prepared = Pipeline::new(cfg).prepare();
    let report = prepared.evaluate(0.1);

    let mut table = Table::new(
        "Fig 9: ROC over test minutes",
        &["system", "AUC", "TPR@1%FPR", "TPR@4.8%FPR", "TPR@10%FPR"],
    );
    let mut curves_out = String::new();
    for (name, curve) in &report.roc {
        if curve.is_empty() {
            table.row(&[
                name.clone(),
                "n/a".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        table.row(&[
            name.clone(),
            format!("{:.4}", auc(curve)),
            format!(
                "{:.1}%",
                100.0 * tpr_at_fpr(curve, 0.01).unwrap_or(f64::NAN)
            ),
            format!(
                "{:.1}%",
                100.0 * tpr_at_fpr(curve, 0.048).unwrap_or(f64::NAN)
            ),
            format!(
                "{:.1}%",
                100.0 * tpr_at_fpr(curve, 0.10).unwrap_or(f64::NAN)
            ),
        ]);
        // A compact sampled curve for plotting.
        curves_out.push_str(&format!("\n{name} curve (fpr,tpr): "));
        let stride = (curve.len() / 12).max(1);
        for p in curve.iter().step_by(stride) {
            curves_out.push_str(&format!("({:.3},{:.3}) ", p.fpr, p.tpr));
        }
    }
    format!(
        "{}{}\n\n(paper: at 4.8% FPR Xatu reaches 95.4% TPR vs RF's 88.6%)\n",
        table.render(),
        curves_out
    )
}
