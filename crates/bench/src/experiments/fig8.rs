//! Fig 8 — effectiveness, detection delay and scrubbing overhead of
//! NetScout, FastNetMon, RF and Xatu across scrubbing-overhead bounds.
//!
//! The flagship comparison. One `prepare()` (simulate → CDet → train →
//! validation scores) is reused across the bound sweep; each bound needs
//! only a re-calibration plus a fresh auto-regressive test run.

use super::threshold_row;
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_metrics::percentile::Summary;
use xatu_metrics::table::{fmt_summary, Table};

/// The overhead bounds swept (fractions, shown as % in the output).
///
/// The paper sweeps 0.025 %–5 %. Our world has ~40× less cumulative
/// attack volume per customer, so the equivalent operating points sit at
/// proportionally larger ratios; the sweep covers the same regime — from
/// "barely any extra scrubbing" to "generous" — at this scale.
pub const BOUNDS: [f64; 4] = [0.001, 0.01, 0.1, 0.3];

/// Runs the Fig 8 sweep.
pub fn run(seed: u64) -> String {
    let cfg = PipelineConfig::default_eval(seed);
    let prepared = Pipeline::new(cfg).prepare();

    let mut eff = Table::new(
        "Fig 8(a): mitigation effectiveness (median [p10, p90]) vs overhead bound",
        &["bound", "NetScout", "FastNetMon", "RF", "Xatu"],
    );
    let mut delay = Table::new(
        "Fig 8(b): detection delay minutes (median [p10, p90]) vs overhead bound",
        &["bound", "NetScout", "FastNetMon", "RF", "Xatu"],
    );
    let mut ovh = Table::new(
        "Fig 8(c): per-customer scrubbing overhead (median [p25, p75]) vs overhead bound",
        &["bound", "NetScout", "FastNetMon", "RF", "Xatu"],
    );
    let mut served = Table::new(
        "Fig 8: thresholds served at each bound (type, threshold, calibration outcome)",
        &["bound", "Xatu", "RF"],
    );

    for bound in BOUNDS {
        let report = prepared.evaluate(bound);
        let mut eff_cells = vec![format!("{:.3}%", 100.0 * bound)];
        let mut delay_cells = eff_cells.clone();
        let mut ovh_cells = eff_cells.clone();
        for name in ["NetScout", "FastNetMon", "RF", "Xatu"] {
            match report.system(name) {
                Some(s) => {
                    let e = Summary::p10_50_90(&s.effectiveness_values());
                    eff_cells.push(format!(
                        "{:.1}% [{:.1}, {:.1}]",
                        100.0 * e.median,
                        100.0 * e.lo,
                        100.0 * e.hi
                    ));
                    delay_cells.push(fmt_summary(&s.delay.summary(), 1));
                    ovh_cells.push(fmt_summary(&s.overhead.summary(), 4));
                }
                None => {
                    eff_cells.push("n/a".into());
                    delay_cells.push("n/a".into());
                    ovh_cells.push("n/a".into());
                }
            }
        }
        eff.row(&eff_cells);
        delay.row(&delay_cells);
        ovh.row(&ovh_cells);
        served.row(&threshold_row(&report));
    }

    format!(
        "{}\n{}\n{}\n{}\n(paper shape: Xatu's effectiveness exceeds NetScout by ~40-54 pp and FNM by \
         ~26-39 pp across bounds; Xatu's median delay 1-2 min vs NetScout 11.5 and FNM 5; \
         Xatu's p75 overhead stays within each bound)\n",
        eff.render(),
        delay.render(),
        ovh.render(),
        served.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each bound's row names every served type of both systems with its
    /// threshold and calibration outcome.
    #[test]
    fn threshold_row_names_each_types_threshold_and_outcome() {
        let cfg = PipelineConfig {
            with_rf: true,
            ..PipelineConfig::smoke_test(9)
        };
        let report = Pipeline::new(cfg).prepare().evaluate(0.01);
        assert!(!report.xatu_thresholds.is_empty() && !report.rf_thresholds.is_empty());
        let row = threshold_row(&report);
        assert_eq!(row[0], "1.000%");
        for (cell, thresholds, outcomes) in [
            (&row[1], &report.xatu_thresholds, &report.xatu_calibration),
            (&row[2], &report.rf_thresholds, &report.rf_calibration),
        ] {
            assert_eq!(thresholds.len(), outcomes.len());
            for ((ty, th), (ty_c, outcome)) in thresholds.iter().zip(outcomes) {
                assert_eq!(ty, ty_c);
                let named = format!("{ty:?} {th:.3e} {}", outcome.name());
                assert!(cell.contains(&named), "{cell:?} lacks {named:?}");
            }
        }
    }
}
