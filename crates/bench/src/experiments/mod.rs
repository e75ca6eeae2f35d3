//! The per-figure experiment runners.

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig15;
pub mod fig17;
pub mod fig18;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod tab2;

use xatu_core::pipeline::{served_thresholds, EvalReport};
use xatu_metrics::table::Table;

/// All experiment ids, in paper order.
pub const EXPERIMENT_IDS: [&str; 14] = [
    "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig15", "fig17", "fig18",
];

/// Runs one experiment by id; returns its printed report.
///
/// # Panics
/// Panics on an unknown id.
pub fn run_experiment(id: &str, seed: u64) -> String {
    match id {
        "fig2" => fig2::run(seed),
        "fig3" => fig3::run(seed),
        "fig4a" => fig4::run_4a(seed),
        "fig4b" => fig4::run_4b(seed),
        "fig4c" => fig4::run_4c(seed),
        "fig8" => fig8::run(seed),
        "fig9" => fig9::run(seed),
        "fig10" => fig10::run(seed),
        "fig11" => fig11::run(seed),
        "fig12" => fig12::run(seed),
        "fig13" => fig13::run(seed),
        "fig15" => fig15::run(seed),
        "fig17" => fig17::run(seed),
        "fig18" => fig18::run(seed),
        "tab2" => tab2::run(seed),
        other => panic!("unknown experiment id '{other}'"),
    }
}

/// One bound's row of served thresholds: the bound, then each type's Xatu
/// and RF threshold with its calibration outcome ("n/a" for a system that
/// serves none).
pub(crate) fn threshold_row(report: &EvalReport) -> Vec<String> {
    let cell = |line: String| if line.is_empty() { "n/a".into() } else { line };
    vec![
        format!("{:.3}%", 100.0 * report.bound),
        cell(served_thresholds(
            &report.xatu_thresholds,
            &report.xatu_calibration,
        )),
        cell(served_thresholds(
            &report.rf_thresholds,
            &report.rf_calibration,
        )),
    ]
}

/// The thresholds a figure's run served: each type's Xatu and RF
/// threshold with its calibration outcome, at the run's one bound.
pub(crate) fn served(figure: &str, report: &EvalReport) -> Table {
    let mut served = Table::new(
        &format!("{figure}: thresholds served (type, threshold, calibration outcome)"),
        &["bound", "Xatu", "RF"],
    );
    served.row(&threshold_row(report));
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use xatu_core::pipeline::{Pipeline, PipelineConfig};

    /// The table names every served type of both systems with its
    /// threshold and calibration outcome, at the run's bound, under the
    /// figure's title.
    #[test]
    fn served_table_names_each_types_threshold_and_outcome() {
        let cfg = PipelineConfig {
            with_rf: true,
            ..PipelineConfig::smoke_test(9)
        };
        let report = Pipeline::new(cfg).prepare().evaluate(0.1);
        assert!(!report.xatu_thresholds.is_empty() && !report.rf_thresholds.is_empty());
        let table = served("Fig 9", &report).render();
        assert!(table.contains("Fig 9: thresholds served"), "{table}");
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
