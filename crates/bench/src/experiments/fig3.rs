//! Fig 3 — the cost/benefit of naïve uniform early detection.
//!
//! For every ground-truth attack, a hypothetical detector fires exactly
//! `N` minutes before the real CDet alert. Sweeping N = 0..15 yields the
//! effectiveness curve (Fig 3(a)) and the cumulative scrubbing-overhead
//! curve (Fig 3(b)), broken down by attack-duration class.

use xatu_core::eval::build_ground_truth;
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_metrics::areas::{integrate_areas, ScrubWindow};
use xatu_metrics::effectiveness::DurationClass;
use xatu_metrics::overhead::CustomerOverhead;
use xatu_metrics::percentile::mean;
use xatu_metrics::table::Table;

/// Runs the Fig 3 sweep.
pub fn run(seed: u64) -> String {
    // Only phase-A artifacts are needed: CDet alerts + volumes. Use the
    // small world without models for speed.
    let mut cfg = PipelineConfig::sweep(seed);
    cfg.with_rf = false;
    cfg.with_fnm = false;
    cfg.xatu.epochs = 0; // no model needed for this figure
    let prepared = Pipeline::new(cfg).prepare();
    let volumes = prepared.volumes();
    let gt = build_ground_truth(&prepared.cdet_alerts, volumes);

    let classes = [
        (Some(DurationClass::Short), "short"),
        (Some(DurationClass::Medium), "medium"),
        (Some(DurationClass::Long), "long"),
        (None, "overall"),
    ];

    let mut eff_table = Table::new(
        "Fig 3(a): mean effectiveness vs minutes-early (per duration class)",
        &["N early", "short", "medium", "long", "overall"],
    );
    let mut ovh_table = Table::new(
        "Fig 3(b): cumulative overhead vs minutes-early (per duration class)",
        &["N early", "short", "medium", "long", "overall"],
    );

    for n_early in [0u32, 1, 3, 5, 8, 10, 12, 15] {
        let mut eff_cells = vec![format!("{n_early}")];
        let mut ovh_cells = vec![format!("{n_early}")];
        for (class, _) in &classes {
            let mut effs = Vec::new();
            let mut overhead = CustomerOverhead::new();
            for e in &gt {
                if let Some(c) = class {
                    if DurationClass::of(e.duration()) != *c {
                        continue;
                    }
                }
                let det = e.cdet_detected.saturating_sub(n_early);
                let base = e.anomaly_start.saturating_sub(30);
                let volume = volumes.bytes_range(e.customer, e.attack_type, base, e.mitigation_end);
                let areas = integrate_areas(
                    &volume,
                    base,
                    e.anomaly_start,
                    e.mitigation_end,
                    &[ScrubWindow {
                        start: det,
                        end: e.mitigation_end,
                    }],
                );
                effs.push(areas.effectiveness());
                overhead.add(e.customer.0 & 0xFFFF, &areas);
            }
            let eff = mean(&effs).unwrap_or(f64::NAN);
            let ovh = mean(&overhead.ratios()).unwrap_or(f64::NAN);
            eff_cells.push(format!("{:.1}%", 100.0 * eff));
            ovh_cells.push(format!("{:.2}%", 100.0 * ovh));
        }
        eff_table.row(&eff_cells);
        ovh_table.row(&ovh_cells);
    }

    format!(
        "{}\n{}\n(paper shape: effectiveness saturates toward 100% by ~15 min early; overhead rises with N, steepest for long attacks; at N=0 short attacks are the least mitigated)\n",
        eff_table.render(),
        ovh_table.render()
    )
}
