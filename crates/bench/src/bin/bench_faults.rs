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
//! instead while the feed is dark). Both are scored by the headline's
//! `eval::evaluate_system` against the benched type's ground truth and
//! the clean world's volumes: events detected, detected within
//! `XatuConfig::window` minutes of onset (`timely`), median delay (and its
//! change against the clean schedule), median mitigation effectiveness
//! and p75 per-customer overhead. With the fault, degradation and fusion
//! counters they are written to `BENCH_faults_<label>.json`.
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
//! the solo one, and as many timely ones; at seed 9 it strictly improves
//! detection or median delay, and strictly improves the timely count.
//! Summed over the seeds run, fused must detect strictly more
//! `cdet_dropout` events than solo, and strictly more timely ones.

use xatu_bench::json::Value;
use xatu_bench::score::{fields, require_bit_identical};
use xatu_core::ae_trainer::{
    new_autoencoder, reconstruction_errors, train_autoencoder, volumetric_windows_from_samples,
    AeTrainConfig,
};
use xatu_core::eval::{evaluate_system, intervals_of, GtEvent, SystemEval};
use xatu_core::faulted::{run_faulted, FaultReport, FaultedRunConfig, RunControl};
use xatu_core::fusion::{Companion, ErrorNormalizer};
use xatu_core::model::XatuModel;
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_features::frame::VOLUMETRIC_WIDTH;
use xatu_netflow::attack::AttackType;
use xatu_simnet::{FaultSchedule, World, BUILTIN_SCHEDULES};

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

/// Exits 1 unless the two reports' survivals match bit for bit.
fn bit_gate(r1: &FaultReport, r4: &FaultReport, what: &str) {
    require_bit_identical(
        "bench_faults",
        what,
        &r1.customers,
        r1.first_minute,
        &r1.survivals,
        &r4.survivals,
    );
}

/// The seed whose `cdet_dropout` run must strictly improve on solo in
/// detection or median delay, and in the timely count: the committed
/// baseline's.
const STRICT_SEED: u64 = 9;

/// `detected/events (timely within window) @ median delay`.
fn brief(e: &SystemEval, window: u32) -> String {
    format!(
        "{}/{} ({} within {window} min) @ {:.2} min",
        e.detected,
        e.records.len(),
        e.timely(window),
        e.median_delay(),
    )
}

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

    // `cdet_dropout` events detected and detected timely, solo then
    // fused, summed over the seeds.
    let mut sums = [(0, 0); 2];
    for &seed in &seeds {
        for (sum, (detected, timely)) in sums
            .iter_mut()
            .zip(bench_seed(seed, smoke, &label, customers))
        {
            sum.0 += detected;
            sum.1 += timely;
        }
    }
    let [(solo, solo_timely), (fused, fused_timely)] = sums;
    // Summed over the seeds, the companion must buy back detections, and
    // timely ones, while the CDet feed is down.
    if fused <= solo || fused_timely <= solo_timely {
        eprintln!(
            "[bench_faults] FUSION REGRESSION on cdet_dropout over seeds {seeds:?}: \
             solo detects {solo} ({solo_timely} timely), fused {fused} ({fused_timely} timely)"
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_faults] fusion gate passed over seeds {seeds:?}: cdet_dropout solo {solo} -> fused {fused} \
         (timely: solo {solo_timely} -> fused {fused_timely})"
    );
}

/// Benches one seed — every schedule solo and fused, the JSON file unless
/// `smoke`, and the seed's gates (exiting 1 on a failed one) — and
/// returns the `cdet_dropout` events detected and detected timely, solo
/// then fused.
fn bench_seed(
    seed: u64,
    smoke: bool,
    label: &str,
    customers: Option<usize>,
) -> [(usize, usize); 2] {
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
    let window = u32::try_from(cfg.xatu.window).expect("a detection window fits in u32 minutes");
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

    // The benched type's events, scored on the clean world's volumes: a
    // fault changes what the detector sees, not what the attack was.
    let gt: Vec<GtEvent> = prepared
        .ground_truth
        .iter()
        .filter(|e| e.attack_type == *ty)
        .copied()
        .collect();
    let score = |name: &str, r: &FaultReport| {
        let alerts = intervals_of(&r.alerts, total_minutes);
        evaluate_system(name, &alerts, &gt, prepared.volumes(), 0, total_minutes)
    };

    let mut rows = Vec::new();
    let mut clean_delay = f64::NAN;
    let mut dropout_gate: Option<(SystemEval, SystemEval)> = None;
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
        let (s, f) = (score("solo", &solo), score("fused", &fused));
        if *name == "clean" {
            clean_delay = s.median_delay();
        }
        let delta = s.median_delay() - clean_delay;
        let c = &solo.counts;
        let fc = &fused.counts;
        rows.push(Value::Row(vec![
            ("schedule", Value::str(*name)),
            ("solo", Value::Row(fields(&s, window))),
            ("delay_delta_vs_clean", Value::fixed(delta, 2)),
            ("alerts", Value::num(solo.alerts.len())),
            ("fused", Value::Row(fields(&f, window))),
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
            "[bench_faults] {name:>14}: solo {} (Δ {delta:+.2}), fused {}, {} fusion transitions",
            brief(&s, window),
            brief(&f, window),
            fc.fusion_engaged + fc.fusion_recovered,
        );
        let lit = c.degraded_feature_minutes == 0;
        let same_bits = solo
            .survivals
            .iter()
            .map(|v| v.to_bits())
            .eq(fused.survivals.iter().map(|v| v.to_bits()));
        if lit && !(same_bits && solo.alerts == fused.alerts) {
            lit_diverged.push(*name);
        }
        if *name == "cdet_dropout" {
            dropout_gate = Some((s, f));
        }
    }

    if !smoke {
        let json = Value::Obj(vec![
            ("label", Value::str(label)),
            ("seed", Value::num(seed)),
            ("attack_type", Value::str(format!("{ty:?}"))),
            ("threshold", Value::num(threshold)),
            ("window", Value::num(window)),
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
    // while the CDet feed is down the companion must not lose detections,
    // nor timely ones, against the volumetric-only fallback (at
    // STRICT_SEED it must buy back detections or delay, and timely ones).
    if !lit_diverged.is_empty() {
        eprintln!("[bench_faults] seed {seed}: fused != solo on lit schedules {lit_diverged:?}");
        std::process::exit(1);
    }
    let (solo, fused) = dropout_gate.expect("cdet_dropout ran");
    let (solo_timely, fused_timely) = (solo.timely(window), fused.timely(window));
    let improved = fused.detected > solo.detected
        || (fused.detected >= solo.detected && fused.median_delay() < solo.median_delay());
    let strict = seed == STRICT_SEED && !(improved && fused_timely > solo_timely);
    if fused.detected < solo.detected || fused_timely < solo_timely || strict {
        eprintln!(
            "[bench_faults] FUSION REGRESSION on cdet_dropout, seed {seed}: solo {}, fused {}",
            brief(&solo, window),
            brief(&fused, window),
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_faults] seed {seed}: fusion gates passed: cdet_dropout solo {} -> fused {}",
        brief(&solo, window),
        brief(&fused, window),
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
    [(solo.detected, solo_timely), (fused.detected, fused_timely)]
}
