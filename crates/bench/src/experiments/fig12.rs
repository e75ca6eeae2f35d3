//! Fig 12 — contribution breakdown: auxiliary signals and ML design.
//!
//! Retrains Xatu under each feature-mask ablation (no-aux, +A1 … +A4+A5,
//! all) and the two ML ablations (no survival model, short-LSTM only),
//! reporting median and p10 effectiveness at a 0.1 % overhead bound.

use xatu_core::config::{LossKind, TimescaleMode};
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_features::frame::FeatureMask;
use xatu_metrics::percentile::Summary;
use xatu_metrics::table::Table;

/// One ablation variant.
struct Variant {
    name: &'static str,
    mask: FeatureMask,
    loss: LossKind,
    mode: TimescaleMode,
}

/// Runs the Fig 12 ablation sweep (each variant is a full retrain).
pub fn run(seed: u64) -> String {
    let variants = [
        Variant {
            name: "no aux (V only)",
            mask: FeatureMask::volumetric_only(),
            loss: LossKind::Survival,
            mode: TimescaleMode::All,
        },
        Variant {
            name: "V + A1",
            mask: FeatureMask::with_single_aux(1),
            loss: LossKind::Survival,
            mode: TimescaleMode::All,
        },
        Variant {
            name: "V + A2",
            mask: FeatureMask::with_single_aux(2),
            loss: LossKind::Survival,
            mode: TimescaleMode::All,
        },
        Variant {
            name: "V + A3",
            mask: FeatureMask::with_single_aux(3),
            loss: LossKind::Survival,
            mode: TimescaleMode::All,
        },
        Variant {
            name: "V + A4 + A5",
            mask: FeatureMask {
                v: true,
                a1: false,
                a2: false,
                a3: false,
                a4: true,
                a5: true,
            },
            loss: LossKind::Survival,
            mode: TimescaleMode::All,
        },
        Variant {
            name: "Xatu (all)",
            mask: FeatureMask::all(),
            loss: LossKind::Survival,
            mode: TimescaleMode::All,
        },
        Variant {
            name: "w/o survival (BCE)",
            mask: FeatureMask::all(),
            loss: LossKind::CrossEntropy,
            mode: TimescaleMode::All,
        },
        Variant {
            name: "short LSTM only",
            mask: FeatureMask::all(),
            loss: LossKind::Survival,
            mode: TimescaleMode::ShortOnly,
        },
    ];

    let mut table = Table::new(
        "Fig 12: effectiveness contribution of aux signals & ML design (0.1% bound)",
        &[
            "variant",
            "eff p10",
            "eff median",
            "delay median",
            "detected",
        ],
    );

    for v in &variants {
        let mut cfg = PipelineConfig::mini(seed);
        cfg.with_rf = false;
        cfg.overhead_bound = 0.1;
        cfg.with_fnm = false;
        cfg.xatu.feature_mask = v.mask;
        cfg.xatu.loss = v.loss;
        cfg.xatu.timescale_mode = v.mode;
        let report = Pipeline::new(cfg).run();
        let xatu = report.system("Xatu").expect("xatu evaluated");
        let eff = Summary::p10_50_90(&xatu.effectiveness_values());
        table.row(&[
            v.name.to_string(),
            format!("{:.1}%", 100.0 * eff.lo),
            format!("{:.1}%", 100.0 * eff.median),
            format!("{:+.1}", xatu.delay.summary().median),
            format!("{}/{}", xatu.detected, xatu.delay.total()),
        ]);
    }

    format!(
        "{}\n(paper shape: every auxiliary signal helps over no-aux; A4+A5 contribute most for \
         UDP/DNS-amp, A1/A2 most for TCP types; removing the survival loss or the coarse \
         timescales costs several points of median effectiveness)\n",
        table.render()
    )
}
