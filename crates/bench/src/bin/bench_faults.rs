//! Fault-injection benchmark: what degraded input costs the detector.
//!
//! Trains the smoke-scale pipeline once, then replays the same seeded
//! world through [`run_faulted`] under every built-in fault schedule —
//! clean, collector outages, per-customer gaps, duplicated/late flows,
//! sampling renegotiation, CDet feed dropouts (sustained and flapping),
//! and everything at once. Every schedule runs twice: **solo** (the
//! survival booster alone, falling back to volumetric-only features while
//! the CDet feed is silent) and **fused** (the same booster with the
//! unsupervised autoencoder companion attached, which scores the customers
//! instead while the feed is dark). For each schedule it reports
//! ground-truth detection coverage and mean detection delay for both
//! detectors against the clean baseline, plus the fault, degradation and
//! fusion counters, as `BENCH_faults_<label>.json`.
//!
//! ```text
//! cargo run --release -p xatu-bench --bin bench_faults -- [label] [seed] [customers]
//! cargo run --release -p xatu-bench --bin bench_faults -- [label] --smoke [seed...]
//! ```
//!
//! The optional third argument overrides the smoke world's customer count
//! (the committed baseline keeps the default), scaling the fault sweep to
//! larger fleets without touching the preset. `--smoke` runs the fast CI
//! subset on every seed listed (default 9): clean + cdet_dropout only, a
//! short companion training run, the fusion gates and the thread-count bit
//! gates; no JSON file is written.
//!
//! A seed whose smoke world trains no model (no attack type reaches
//! `min_positives`) prints its positives per type, writes nothing and
//! exits 2, so a seed sweep can tell it from a failed gate (exit 1).
//!
//! The run doubles as the streaming determinism check: the "everything"
//! schedule (cdet_dropout under `--smoke`) is replayed at 1 and 4 worker
//! threads — solo and fused — and the binary exits non-zero unless every
//! recorded survival matches bit for bit. It also enforces the fusion
//! contract, seed by seed: on a schedule whose feed never goes dark the
//! fused run equals the solo run (survivals and alerts); on
//! `cdet_dropout` the fused detector detects at least as many events as
//! the solo one, and at seed 9 it strictly improves coverage or delay.
//! Summed over the seeds run, fused must detect strictly more
//! `cdet_dropout` events than solo.

use xatu_bench::json::Value;
use xatu_core::ae_trainer::{
    new_autoencoder, reconstruction_errors, train_autoencoder, volumetric_windows_from_samples,
    AeTrainConfig,
};
use xatu_core::eval::GtEvent;
use xatu_core::faulted::{run_faulted, FaultReport, FaultedRunConfig, RunControl};
use xatu_core::fusion::{Companion, ErrorNormalizer};
use xatu_core::model::XatuModel;
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_features::frame::VOLUMETRIC_WIDTH;
use xatu_netflow::attack::AttackType;
use xatu_simnet::{FaultSchedule, World, BUILTIN_SCHEDULES};

/// Detection stats for one schedule: how many ground-truth events of the
/// benched attack type got an overlapping Xatu alert, and how late.
struct Coverage {
    detected: usize,
    total: usize,
    mean_delay: f64,
}

fn coverage(report: &FaultReport, gt: &[GtEvent], ty: AttackType) -> Coverage {
    let mut detected = 0usize;
    let mut total = 0usize;
    let mut delay_sum = 0.0;
    for ev in gt.iter().filter(|e| e.attack_type == ty) {
        total += 1;
        let hit = report
            .alerts
            .iter()
            .filter(|a| {
                a.customer == ev.customer
                    && a.detected_at >= ev.anomaly_start
                    && a.detected_at <= ev.mitigation_end
            })
            .map(|a| a.detected_at)
            .min();
        if let Some(at) = hit {
            detected += 1;
            delay_sum += (at - ev.anomaly_start) as f64;
        }
    }
    Coverage {
        detected,
        total,
        mean_delay: if detected > 0 {
            delay_sum / detected as f64
        } else {
            f64::NAN
        },
    }
}

fn run(
    model: &XatuModel,
    ty: AttackType,
    threshold: f64,
    cfg: &PipelineConfig,
    schedule: FaultSchedule,
    threads: usize,
    companion: Option<&Companion>,
) -> FaultReport {
    let mut xatu = cfg.xatu;
    xatu.threads = threads;
    let fcfg = FaultedRunConfig {
        world: cfg.world,
        xatu,
        schedule,
        companion: companion.cloned(),
    };
    run_faulted(model.clone(), ty, threshold, &fcfg, RunControl::Full).expect("faulted run")
}

/// True when the two reports' survivals match bit for bit.
fn same_bits(r1: &FaultReport, r4: &FaultReport) -> bool {
    r1.survivals.len() == r4.survivals.len()
        && r1
            .survivals
            .iter()
            .zip(&r4.survivals)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Exits non-zero unless the two reports' survivals match bit for bit.
fn bit_gate(r1: &FaultReport, r4: &FaultReport, what: &str) {
    if !same_bits(r1, r4) {
        if let Some(i) = r1
            .survivals
            .iter()
            .zip(&r4.survivals)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            let n = r1.customers.len();
            eprintln!(
                "[bench_faults] first divergence ({what}): minute {} customer {:?}: {} vs {}",
                r1.first_minute + (i / n) as u32,
                r1.customers[i % n],
                r1.survivals[i],
                r4.survivals[i],
            );
        }
        eprintln!("[bench_faults] SURVIVAL MISMATCH ({what}) between threads=1 and threads=4");
        std::process::exit(1);
    }
    eprintln!("[bench_faults] {what} stream bit-identical at threads=1 and threads=4");
}

/// The seed whose `cdet_dropout` run must strictly improve on solo in
/// coverage or delay: the committed baseline's.
const STRICT_SEED: u64 = 9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let label = pos
        .first()
        .map(|s| s.as_str())
        .unwrap_or("current")
        .to_string();
    let num = |s: &&String| -> u64 { s.parse().expect("seeds and customer counts are numbers") };
    // `--smoke` takes any number of seeds, a full run one seed and a
    // customer count.
    let (mut seeds, customers): (Vec<u64>, Option<usize>) = if smoke {
        (pos.iter().skip(1).map(num).collect(), None)
    } else {
        let seeds = pos.get(1).map(num).into_iter().collect();
        (seeds, pos.get(2).map(|s| num(s) as usize))
    };
    if seeds.is_empty() {
        seeds.push(STRICT_SEED);
    }

    let (mut solo, mut fused) = (0, 0);
    for &seed in &seeds {
        let (s, f) = bench_seed(seed, smoke, &label, customers);
        solo += s;
        fused += f;
    }
    // Summed over the seeds, the companion must buy back coverage while
    // the CDet feed is down.
    if fused <= solo {
        eprintln!(
            "[bench_faults] FUSION REGRESSION on cdet_dropout over seeds {seeds:?}: \
             solo detects {solo}, fused {fused}"
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_faults] fusion gate passed over seeds {seeds:?}: cdet_dropout solo {solo} -> fused {fused}"
    );
}

/// Benches one seed — every schedule solo and fused, the JSON file unless
/// `smoke`, and the seed's gates (exiting 1 on a failed one) — and
/// returns the `cdet_dropout` events solo and fused detect.
fn bench_seed(seed: u64, smoke: bool, label: &str, customers: Option<usize>) -> (usize, usize) {
    let mut cfg = PipelineConfig::smoke_test(seed);
    if let Some(n) = customers {
        cfg.world.n_customers = n;
    }
    let prepared = Pipeline::new(cfg).prepare();

    // Bench the attack type with the most ground truth among those that
    // actually trained a model.
    let Some((ty, model)) = prepared.models.iter().max_by_key(|(ty, _)| {
        prepared
            .ground_truth
            .iter()
            .filter(|e| e.attack_type == *ty)
            .count()
    }) else {
        // No type reached `min_positives`: nothing to bench at this seed.
        let mut positives = [0usize; AttackType::ALL.len()];
        for s in &prepared.bundle.positives {
            positives[s.meta.attack_type.index()] += 1;
        }
        let per_type: Vec<String> = AttackType::ALL
            .iter()
            .zip(positives)
            .map(|(t, n)| format!("{t:?} {n}"))
            .collect();
        eprintln!(
            "[bench_faults] seed {seed} trains no model: positives {} (min_positives {}); no JSON written",
            per_type.join(", "),
            cfg.xatu.min_positives,
        );
        std::process::exit(2);
    };
    let threshold = 0.5;
    let total_minutes = World::new(cfg.world).total_minutes();
    let n_customers = cfg.world.n_customers;

    // Train the unsupervised companion on the prepared dataset's benign
    // windows and calibrate its normalizer on the same windows' errors.
    let ae_cfg = AeTrainConfig {
        seed: seed.wrapping_add(0xAE),
        threads: 1,
        epochs: if smoke { 8 } else { 30 },
        ..AeTrainConfig::default()
    };
    let benign = volumetric_windows_from_samples(&prepared.bundle.negatives);
    assert!(!benign.is_empty(), "smoke dataset has benign windows");
    let mut ae = new_autoencoder(VOLUMETRIC_WIDTH, &ae_cfg);
    train_autoencoder(&mut ae, &benign, &ae_cfg).expect("companion training");
    let norm = ErrorNormalizer::from_benign_errors(&reconstruction_errors(&ae, &benign));
    let companion = Companion {
        ae,
        norm,
        window: cfg.xatu.window,
    };
    eprintln!(
        "[bench_faults] companion trained on {} benign windows, error bounds {:?}",
        benign.len(),
        companion.norm.bounds(),
    );

    let schedules: Vec<&str> = if smoke {
        vec!["clean", "cdet_dropout"]
    } else {
        BUILTIN_SCHEDULES.to_vec()
    };

    let mut rows = Vec::new();
    let mut clean_delay = f64::NAN;
    let mut dropout_gate: Option<(Coverage, Coverage)> = None;
    let mut lit_diverged = Vec::new();
    for name in &schedules {
        let schedule =
            FaultSchedule::builtin(name, total_minutes, n_customers).expect("builtin resolves");
        let solo = run(model, *ty, threshold, &cfg, schedule.clone(), 1, None);
        let fused = run(model, *ty, threshold, &cfg, schedule, 1, Some(&companion));
        assert!(
            solo.all_finite(),
            "schedule {name}: non-finite solo survival"
        );
        assert!(
            fused.all_finite(),
            "schedule {name}: non-finite fused survival"
        );
        let cov = coverage(&solo, &prepared.ground_truth, *ty);
        let fcov = coverage(&fused, &prepared.ground_truth, *ty);
        if *name == "clean" {
            clean_delay = cov.mean_delay;
        }
        let delta = cov.mean_delay - clean_delay;
        let c = &solo.counts;
        let fc = &fused.counts;
        rows.push(Value::Row(vec![
            ("schedule", Value::str(*name)),
            ("detected", Value::num(cov.detected)),
            ("gt_events", Value::num(cov.total)),
            ("mean_delay_min", Value::fixed(cov.mean_delay, 2)),
            ("delay_delta_vs_clean", Value::fixed(delta, 2)),
            ("alerts", Value::num(solo.alerts.len())),
            ("detected_fused", Value::num(fcov.detected)),
            ("mean_delay_fused_min", Value::fixed(fcov.mean_delay, 2)),
            ("alerts_fused", Value::num(fused.alerts.len())),
            ("fusion_engaged", Value::num(fc.fusion_engaged)),
            ("fusion_recovered", Value::num(fc.fusion_recovered)),
            ("fusion_ae_minutes", Value::num(fc.fusion_ae_minutes)),
            ("bins_suppressed", Value::num(c.bins_suppressed)),
            ("gaps_imputed", Value::num(c.gaps_imputed)),
            ("cold_restarts", Value::num(c.cold_restarts)),
            ("cdet_down_minutes", Value::num(c.cdet_down_minutes)),
            (
                "degraded_feature_minutes",
                Value::num(c.degraded_feature_minutes),
            ),
        ]));
        eprintln!(
            "[bench_faults] {name:>14}: solo {}/{} @ {:.2} min (Δ {:+.2}), \
             fused {}/{} @ {:.2} min, {} fusion transitions",
            cov.detected,
            cov.total,
            cov.mean_delay,
            delta,
            fcov.detected,
            fcov.total,
            fcov.mean_delay,
            fc.fusion_engaged + fc.fusion_recovered,
        );
        let lit = c.degraded_feature_minutes == 0;
        if lit && !(same_bits(&solo, &fused) && solo.alerts == fused.alerts) {
            lit_diverged.push(*name);
        }
        if *name == "cdet_dropout" {
            dropout_gate = Some((cov, fcov));
        }
    }

    if !smoke {
        let json = Value::Obj(vec![
            ("label", Value::str(label)),
            ("seed", Value::num(seed)),
            ("attack_type", Value::str(format!("{ty:?}"))),
            ("threshold", Value::num(threshold)),
            ("total_minutes", Value::num(total_minutes)),
            ("customers", Value::num(n_customers)),
            ("fusion_mode", Value::str("dark_only")),
            ("schedules", Value::Arr(rows)),
        ])
        .render();
        let path = format!("BENCH_faults_{label}.json");
        std::fs::write(&path, &json).expect("write bench json");
        println!("{json}");
        eprintln!("[bench_faults] wrote {path}");
    }

    // Fusion contract: a lit feed leaves the fused run the solo run, and
    // while the CDet feed is down the companion must not lose coverage
    // against the volumetric-only fallback (at STRICT_SEED it must buy
    // back coverage or delay).
    if !lit_diverged.is_empty() {
        eprintln!("[bench_faults] seed {seed}: fused != solo on lit schedules {lit_diverged:?}");
        std::process::exit(1);
    }
    let (solo, fused) = dropout_gate.expect("cdet_dropout ran");
    let improved = fused.detected > solo.detected
        || (fused.detected >= solo.detected && fused.mean_delay < solo.mean_delay);
    if fused.detected < solo.detected || (seed == STRICT_SEED && !improved) {
        eprintln!(
            "[bench_faults] FUSION REGRESSION on cdet_dropout, seed {seed}: solo {}/{} @ {:.2}, \
             fused {}/{} @ {:.2}",
            solo.detected,
            solo.total,
            solo.mean_delay,
            fused.detected,
            fused.total,
            fused.mean_delay,
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_faults] seed {seed}: fusion gates passed: cdet_dropout solo {}/{} @ {:.2} -> fused {}/{} @ {:.2}",
        solo.detected, solo.total, solo.mean_delay, fused.detected, fused.total, fused.mean_delay,
    );

    // Thread-count determinism under fault load, solo and fused: every
    // recorded survival must match bit for bit between 1 and 4 workers.
    let gate_schedule = if smoke { "cdet_dropout" } else { "everything" };
    let schedule = FaultSchedule::builtin(gate_schedule, total_minutes, n_customers)
        .expect("builtin resolves");
    let r1 = run(model, *ty, threshold, &cfg, schedule.clone(), 1, None);
    let r4 = run(model, *ty, threshold, &cfg, schedule.clone(), 4, None);
    bit_gate(&r1, &r4, &format!("solo {gate_schedule}"));
    let f1 = run(
        model,
        *ty,
        threshold,
        &cfg,
        schedule.clone(),
        1,
        Some(&companion),
    );
    let f4 = run(model, *ty, threshold, &cfg, schedule, 4, Some(&companion));
    bit_gate(&f1, &f4, &format!("fused {gate_schedule}"));
    (solo.detected, fused.detected)
}
