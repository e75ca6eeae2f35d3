//! Fig 10 — per-attack-type effectiveness and detection delay at a fixed
//! 0.1 % overhead bound, for all four systems.

use super::threshold_row;
use xatu_core::pipeline::{EvalReport, Pipeline, PipelineConfig};
use xatu_metrics::effectiveness::summary_by_type;
use xatu_metrics::table::Table;
use xatu_netflow::attack::AttackType;

/// Runs the Fig 10 per-type breakdown.
pub fn run(seed: u64) -> String {
    let cfg = PipelineConfig::sweep(seed);
    let prepared = Pipeline::new(cfg).prepare();
    let report = prepared.evaluate(0.1);

    let mut eff = Table::new(
        "Fig 10(a): median effectiveness per attack type (scaled 10% overhead bound)",
        &["type", "NetScout", "FastNetMon", "RF", "Xatu", "# events"],
    );
    let mut delay = Table::new(
        "Fig 10(b): median detection delay per attack type (minutes)",
        &["type", "NetScout", "FastNetMon", "RF", "Xatu"],
    );

    for ty in AttackType::ALL {
        let n_events = report
            .gt_test
            .iter()
            .filter(|e| e.attack_type == ty)
            .count();
        if n_events == 0 {
            continue;
        }
        let mut eff_cells = vec![ty.label().to_string()];
        let mut delay_cells = vec![ty.label().to_string()];
        for name in ["NetScout", "FastNetMon", "RF", "Xatu"] {
            match report.system(name) {
                Some(s) => {
                    let e = summary_by_type(&s.records, ty.index());
                    eff_cells.push(if e.median.is_nan() {
                        "n/a".into()
                    } else {
                        format!("{:.1}%", 100.0 * e.median)
                    });
                    // Per-type delay: recompute from records of this type.
                    let delays: Vec<f64> = s
                        .records
                        .iter()
                        .zip(s.delay.values_with_miss_penalty())
                        .filter(|(r, _)| r.attack_type == ty.index())
                        .map(|(_, d)| d)
                        .collect();
                    delay_cells.push(
                        xatu_metrics::percentile::percentile(&delays, 50.0)
                            .map_or("n/a".into(), |v| format!("{v:+.1}")),
                    );
                }
                None => {
                    eff_cells.push("n/a".into());
                    delay_cells.push("n/a".into());
                }
            }
        }
        eff_cells.push(format!("{n_events}"));
        eff.row(&eff_cells);
        delay.row(&delay_cells);
    }

    format!(
        "{}\n{}\n{}\n(paper shape: Xatu's median effectiveness is highest for every type — 100% \
         for UDP vs NetScout 75.2/FNM 84.6; ICMP is easy for everyone; RF sits between the \
         CDets and Xatu)\n",
        eff.render(),
        delay.render(),
        served(&report).render()
    )
}

/// The thresholds the run served: each type's Xatu and RF threshold with
/// its calibration outcome, at the figure's one bound.
fn served(report: &EvalReport) -> Table {
    let mut served = Table::new(
        "Fig 10: thresholds served (type, threshold, calibration outcome)",
        &["bound", "Xatu", "RF"],
    );
    served.row(&threshold_row(report));
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table names every served type of both systems with its
    /// threshold and calibration outcome, at the figure's bound.
    #[test]
    fn served_table_names_each_types_threshold_and_outcome() {
        let cfg = PipelineConfig {
            with_rf: true,
            ..PipelineConfig::smoke_test(9)
        };
        let report = Pipeline::new(cfg).prepare().evaluate(0.1);
        assert!(!report.xatu_thresholds.is_empty() && !report.rf_thresholds.is_empty());
        let table = served(&report).render();
        assert!(table.contains("10.000%"), "{table}");
        for (thresholds, outcomes) in [
            (&report.xatu_thresholds, &report.xatu_calibration),
            (&report.rf_thresholds, &report.rf_calibration),
        ] {
            assert_eq!(thresholds.len(), outcomes.len());
            for ((ty, th), (ty_c, outcome)) in thresholds.iter().zip(outcomes) {
                assert_eq!(ty, ty_c);
                let named = format!("{ty:?} {th:.3e} {}", outcome.name());
                assert!(table.contains(&named), "{table} lacks {named:?}");
            }
        }
    }
}
