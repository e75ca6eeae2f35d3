//! Adversarial scenario matrix: per-family × per-detector detection stats.
//!
//! Trains the smoke-scale pipeline once, then replays every composed
//! scenario family — multi-vector, pulse-wave, low-and-slow, carpet-bomb —
//! through the full detector matrix: the NetScout-style and
//! FastNetMon-style volumetric CDets and the Xatu survival booster. For
//! each (family, detector) cell it reports
//! detection rate, median detection delay and overhead alert-minutes, as
//! `BENCH_scenarios.json`.
//!
//! ```text
//! cargo run --release -p xatu-bench --bin bench_scenarios -- [seed]
//! cargo run --release -p xatu-bench --bin bench_scenarios -- --smoke
//! ```
//!
//! The full run exits non-zero unless at least one family has the
//! auxiliary-signal booster strictly beating both volumetric baselines —
//! the tentpole claim the committed baseline pins. It also replays one
//! family at 1 and 4 worker threads and requires every recorded survival
//! to match bit for bit.
//!
//! `--smoke` is the CI gate: no training (untrained model), one evasive
//! family, the thread-determinism bit check plus the pulse-train-evades-
//! NetScout invariant.

use xatu_bench::json::Value;
use xatu_core::model::XatuModel;
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_core::scenarios::{run_scenario, ScenarioReport, ScenarioRunConfig};
use xatu_netflow::attack::AttackType;
use xatu_simnet::ScenarioFamily;

/// Does the survival booster strictly beat both
/// volumetric detectors on this family? More spans detected wins; on a
/// tie, detecting the same spans strictly earlier (lower median) wins.
fn booster_beats_volumetric(report: &ScenarioReport) -> bool {
    let det = |name: &str| report.score(name).map_or(0, |s| s.detected);
    let delay = |name: &str| {
        report.score(name).map_or(f64::INFINITY, |s| {
            if s.median_delay.is_finite() {
                s.median_delay
            } else {
                f64::INFINITY
            }
        })
    };
    let vol_det = det("netscout").max(det("fastnetmon"));
    let vol_delay = delay("netscout").min(delay("fastnetmon"));
    let boost_det = det("xatu_booster");
    let boost_delay = delay("xatu_booster");
    boost_det > vol_det || (boost_det == vol_det && boost_det > 0 && boost_delay < vol_delay)
}

fn family_json(report: &ScenarioReport) -> Value {
    let detectors = report
        .scores
        .iter()
        .map(|s| {
            let rate = if s.total > 0 {
                s.detected as f64 / s.total as f64
            } else {
                0.0
            };
            Value::Row(vec![
                ("detector", Value::str(s.detector)),
                ("detected", Value::num(s.detected)),
                ("spans", Value::num(s.total)),
                ("detection_rate", Value::fixed(rate, 3)),
                ("median_delay_min", Value::fixed(s.median_delay, 2)),
                ("overhead_minutes", Value::num(s.overhead_minutes)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("family", Value::str(report.family.name())),
        ("spans", Value::num(report.spans.len())),
        (
            "booster_beats_volumetric",
            Value::Bool(booster_beats_volumetric(report)),
        ),
        ("detectors", Value::Arr(detectors)),
    ])
}

/// Bit-compares two runs' recorded survivals; exits non-zero on mismatch.
fn require_bit_identical(tag: &str, r1: &ScenarioReport, r4: &ScenarioReport) {
    let same = r1.survivals.len() == r4.survivals.len()
        && r1
            .survivals
            .iter()
            .zip(&r4.survivals)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        if let Some(i) = r1
            .survivals
            .iter()
            .zip(&r4.survivals)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            eprintln!(
                "[bench_scenarios] {tag}: first divergence at sample {i}: {} vs {}",
                r1.survivals[i], r4.survivals[i],
            );
        }
        eprintln!("[bench_scenarios] SURVIVAL MISMATCH between threads=1 and threads=4");
        std::process::exit(1);
    }
    eprintln!("[bench_scenarios] {tag}: bit-identical at threads=1 and threads=4");
}

fn scenario_cfg(base: &PipelineConfig, threads: usize) -> ScenarioRunConfig {
    let mut xatu = base.xatu;
    xatu.threads = threads;
    ScenarioRunConfig {
        world: base.world,
        xatu,
        threshold: 0.5,
    }
}

/// The CI gate: untrained model, one evasive family, determinism +
/// evasion invariants. Fast enough to run on every push.
fn smoke(seed: u64) {
    let base = PipelineConfig::smoke_test(seed);
    let models = vec![(
        AttackType::UdpFlood,
        XatuModel::new(&scenario_cfg(&base, 1).xatu),
    )];
    let cfg1 = scenario_cfg(&base, 1);
    let r1 = run_scenario(&models, &cfg1, ScenarioFamily::PulseWave).expect("smoke run");
    let cfg4 = scenario_cfg(&base, 4);
    let r4 = run_scenario(&models, &cfg4, ScenarioFamily::PulseWave).expect("smoke run");
    if !r1.all_finite() {
        eprintln!("[bench_scenarios] smoke: non-finite survival recorded");
        std::process::exit(1);
    }
    require_bit_identical("smoke pulse_wave", &r1, &r4);
    let ns = r1.score("netscout").expect("netscout row");
    if ns.detected != 0 {
        eprintln!(
            "[bench_scenarios] smoke: pulse train no longer evades the \
             NetScout sustain ({}/{} detected)",
            ns.detected, ns.total,
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_scenarios] smoke OK: pulse train evades NetScout (0/{} spans), \
         {} survivals recorded",
        ns.total,
        r1.survivals.len(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        let seed = args
            .iter()
            .filter(|a| *a != "--smoke")
            .find_map(|a| a.parse().ok())
            .unwrap_or(9);
        smoke(seed);
        return;
    }
    let seed: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(9);

    let base = PipelineConfig::smoke_test(seed);
    let prepared = Pipeline::new(base).prepare();
    assert!(
        !prepared.models.is_empty(),
        "smoke pipeline trains at least one model"
    );

    let cfg = scenario_cfg(&base, 1);
    let mut families = Vec::new();
    let mut wins: Vec<&'static str> = Vec::new();
    for family in ScenarioFamily::ALL {
        let report = run_scenario(&prepared.models, &cfg, family).expect("scenario run");
        assert!(
            report.all_finite(),
            "family {}: non-finite survival",
            family.name()
        );
        if booster_beats_volumetric(&report) {
            wins.push(family.name());
        }
        for s in &report.scores {
            eprintln!(
                "[bench_scenarios] {:>12} | {:>12}: {}/{} detected, median delay {:.2} min, \
                 overhead {} min",
                family.name(),
                s.detector,
                s.detected,
                s.total,
                s.median_delay,
                s.overhead_minutes,
            );
        }
        families.push(family_json(&report));
    }

    let json = Value::Obj(vec![
        ("seed", Value::num(seed)),
        ("threshold", Value::num(0.5)),
        ("customers", Value::num(base.world.n_customers)),
        (
            "booster_wins_families",
            Value::Arr(wins.iter().map(|&w| Value::str(w)).collect()),
        ),
        ("families", Value::Arr(families)),
    ])
    .render();
    std::fs::write("BENCH_scenarios.json", &json).expect("write bench json");
    println!("{json}");
    eprintln!("[bench_scenarios] wrote BENCH_scenarios.json");

    if wins.is_empty() {
        eprintln!(
            "[bench_scenarios] NO family where the booster beats the volumetric \
             baselines — the tentpole claim regressed"
        );
        std::process::exit(1);
    }

    // Thread-count determinism on a trained model over the densest family.
    let r1 = run_scenario(&prepared.models, &cfg, ScenarioFamily::MultiVector).expect("run");
    let cfg4 = scenario_cfg(&base, 4);
    let r4 = run_scenario(&prepared.models, &cfg4, ScenarioFamily::MultiVector).expect("run");
    require_bit_identical("multi_vector", &r1, &r4);
}
