//! Fig 18 (Appendix H) — sensitivity analysis across Xatu's components.
//!
//! Six sweeps, each a retrain of the pipeline at sweep scale:
//!
//! * (a) CDet independence — labels from NetScout vs FastNetMon.
//! * (b) LSTM contribution — drop one timescale at a time.
//! * (c) Timescale choice — (1,5,10) vs (1,10,60) vs (10,60,120).
//! * (d) Survival vs cross-entropy training.
//! * (e) Hidden units sweep.
//! * (f) History length sweep (long-series span).
//! * (g) Adversarial worst offenders — the pulse-wave and low-and-slow
//!   evasion scenarios from the scenario matrix, replayed against the
//!   volumetric CDets and the booster.

use xatu_core::config::{LossKind, TimescaleMode};
use xatu_core::pipeline::{EvalReport, Pipeline, PipelineConfig};
use xatu_core::scenarios::{run_scenario, ScenarioRunConfig};
use xatu_metrics::percentile::Summary;
use xatu_metrics::table::Table;
use xatu_simnet::ScenarioFamily;

fn xatu_row(report: &EvalReport) -> (f64, f64, f64) {
    let xatu = report.system("Xatu").expect("xatu evaluated");
    let eff = Summary::p10_50_90(&xatu.effectiveness_values());
    (eff.lo, eff.median, xatu.delay.summary().median)
}

fn run_variant<F>(seed: u64, tweak: F) -> (f64, f64, f64)
where
    F: FnOnce(&mut PipelineConfig),
{
    let mut cfg = PipelineConfig::mini(seed);
    cfg.with_rf = false;
    cfg.with_fnm = false;
    cfg.overhead_bound = 0.1;
    tweak(&mut cfg);
    let report = Pipeline::new(cfg).run();
    xatu_row(&report)
}

/// Runs all six sensitivity sweeps.
pub fn run(seed: u64) -> String {
    let mut out = String::new();

    // (a) CDet independence: NetScout labels vs FastNetMon labels. Our
    // pipeline labels with the NetScout-style CDet; the FNM-labelled
    // variant swaps the label source.
    let mut a = Table::new(
        "Fig 18(a): label-source independence",
        &["labels from", "eff p10", "eff median", "delay med"],
    );
    let (lo, med, d) = run_variant(seed, |_| {});
    a.row(&[
        "NetScout-style CDet".into(),
        format!("{:.1}%", 100.0 * lo),
        format!("{:.1}%", 100.0 * med),
        format!("{d:+.1}"),
    ]);
    let (lo, med, d) = run_variant(seed, |cfg| cfg.label_with_fnm = true);
    a.row(&[
        "FastNetMon-style CDet".into(),
        format!("{:.1}%", 100.0 * lo),
        format!("{:.1}%", 100.0 * med),
        format!("{d:+.1}"),
    ]);
    out.push_str(&a.render());
    out.push('\n');

    // (b) LSTM contribution.
    let mut b = Table::new(
        "Fig 18(b): contribution of each LSTM",
        &["variant", "eff p10", "eff median", "delay med"],
    );
    for (name, mode) in [
        ("all three", TimescaleMode::All),
        ("w/o short", TimescaleMode::NoShort),
        ("w/o medium", TimescaleMode::NoMedium),
        ("w/o long", TimescaleMode::NoLong),
    ] {
        let (lo, med, d) = run_variant(seed, |cfg| cfg.xatu.timescale_mode = mode);
        b.row(&[
            name.into(),
            format!("{:.1}%", 100.0 * lo),
            format!("{:.1}%", 100.0 * med),
            format!("{d:+.1}"),
        ]);
    }
    out.push_str(&b.render());
    out.push('\n');

    // (c) Timescale choice.
    let mut c = Table::new(
        "Fig 18(c): choice of pooling timescales",
        &["(short,med,long) min", "eff p10", "eff median", "delay med"],
    );
    for ts in [(1u32, 5u32, 10u32), (1, 10, 60), (10, 60, 120)] {
        let (lo, med, d) = run_variant(seed, |cfg| {
            cfg.xatu.timescales = ts;
            // Keep covered wall-clock spans comparable.
            if ts.0 > 1 {
                cfg.xatu.short_len = 30;
            }
        });
        c.row(&[
            format!("({},{},{})", ts.0, ts.1, ts.2),
            format!("{:.1}%", 100.0 * lo),
            format!("{:.1}%", 100.0 * med),
            format!("{d:+.1}"),
        ]);
    }
    out.push_str(&c.render());
    out.push('\n');

    // (d) Survival vs classification loss.
    let mut dt = Table::new(
        "Fig 18(d): survival loss vs binary cross-entropy",
        &["loss", "eff p10", "eff median", "delay med"],
    );
    for (name, loss) in [
        ("survival (SAFE)", LossKind::Survival),
        ("cross-entropy", LossKind::CrossEntropy),
    ] {
        let (lo, med, d) = run_variant(seed, |cfg| cfg.xatu.loss = loss);
        dt.row(&[
            name.into(),
            format!("{:.1}%", 100.0 * lo),
            format!("{:.1}%", 100.0 * med),
            format!("{d:+.1}"),
        ]);
    }
    out.push_str(&dt.render());
    out.push('\n');

    // (e) Hidden units.
    let mut e = Table::new(
        "Fig 18(e): hidden units",
        &["hidden", "eff p10", "eff median", "delay med"],
    );
    for hidden in [8usize, 16, 24] {
        let (lo, med, d) = run_variant(seed, |cfg| cfg.xatu.hidden = hidden);
        e.row(&[
            format!("{hidden}"),
            format!("{:.1}%", 100.0 * lo),
            format!("{:.1}%", 100.0 * med),
            format!("{d:+.1}"),
        ]);
    }
    out.push_str(&e.render());
    out.push('\n');

    // (f) History length (long-series span in days at 60-min pooling).
    let mut f = Table::new(
        "Fig 18(f): history length",
        &["days", "eff p10", "eff median", "delay med"],
    );
    for days in [2usize, 4] {
        let (lo, med, d) = run_variant(seed, |cfg| cfg.xatu.long_len = days * 24);
        f.row(&[
            format!("{days}"),
            format!("{:.1}%", 100.0 * lo),
            format!("{:.1}%", 100.0 * med),
            format!("{d:+.1}"),
        ]);
    }
    out.push_str(&f.render());
    out.push('\n');

    // (g) Adversarial worst offenders: the two scenario-matrix families
    // that defeat EWMA/sustain volumetric detection outright. Trains the
    // smoke pipeline once and replays each family through the full
    // detector matrix (see `bench_scenarios` for all four families).
    let mut g = Table::new(
        "Fig 18(g): adversarial worst offenders",
        &[
            "family",
            "detector",
            "detected",
            "delay med",
            "overhead min",
        ],
    );
    let base = PipelineConfig::smoke_test(seed);
    let prepared = Pipeline::new(base).prepare();
    let cfg = ScenarioRunConfig {
        world: base.world,
        xatu: base.xatu,
        threshold: 0.5,
    };
    // A smoke world where no type reaches `min_positives` trains no
    // booster, and the matrix has nothing to replay.
    if prepared.models.is_empty() {
        out.push_str("Fig 18(g): this seed's smoke world trains no model; skipped\n");
        return out + SHAPES;
    }
    for family in [ScenarioFamily::PulseWave, ScenarioFamily::LowAndSlow] {
        let report = run_scenario(&prepared.models, &cfg, family).expect("scenario run");
        for s in &report.scores {
            g.row(&[
                family.name().into(),
                s.detector.into(),
                format!("{}/{}", s.detected, s.total),
                if s.median_delay.is_finite() {
                    format!("{:.1}", s.median_delay)
                } else {
                    "—".into()
                },
                format!("{}", s.overhead_minutes),
            ]);
        }
    }
    out.push_str(&g.render());
    out + SHAPES
}

/// The paper's shapes, printed under the tables.
const SHAPES: &str = "\n(paper shapes: (a) both label sources work; (b) dropping the short LSTM \
     hurts most; (c) the (1,10,60) choice beats coarser and finer; (d) survival beats \
     cross-entropy, especially at the p10; (e) effectiveness saturates with enough hidden \
     units; (f) longer history helps up to ~10 days then flattens; (g) pulse trains and \
     low-and-slow ramps evade the EWMA/sustain volumetric detectors while the \
     auxiliary-signal booster still catches them)\n";
