//! Fault-injected streaming: the degradation and crash-safety contract.
//!
//! Three layers of assurance:
//!
//! 1. Every built-in fault schedule — collector outages, per-customer
//!    gaps, duplicated/late flows, sampling renegotiation, CDet feed
//!    dropouts, and all of them at once — streams end to end through
//!    [`run_faulted`] producing a finite score for every customer-minute.
//!    No panic, no NaN, no silently skipped minute.
//! 2. Checkpoint → kill → resume reproduces the uninterrupted run's
//!    scores bit for bit (0 ULP), at 1 and 4 threads, in any
//!    crash/resume thread-count combination.
//! 3. A property test drives the online detector directly with arbitrary
//!    seeded presence patterns and adversarial frame values (spikes,
//!    zeros, NaN, ±∞): outputs stay finite, out-of-order input is a typed
//!    error, and internal state never poisons later minutes.

use xatu::core::config::XatuConfig;
use xatu::core::faulted::{run_faulted, FaultReport, FaultedRunConfig, RunControl};
use xatu::core::fusion::ErrorNormalizer;
use xatu::core::model::XatuModel;
use xatu::core::online::{Companion, OnlineDetector};
use xatu::core::XatuError;
use xatu::features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
use xatu::netflow::addr::Ipv4;
use xatu::netflow::attack::AttackType;
use xatu::nn::init::Initializer;
use xatu::nn::LstmAutoencoder;
use xatu::simnet::{FaultSchedule, World, WorldConfig, BUILTIN_SCHEDULES};

use proptest::prelude::*;

/// A one-day, four-customer world: big enough for every fault window in
/// the built-in schedules, small enough to stream in seconds.
fn world_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        n_customers: 4,
        days: 1,
        ..WorldConfig::smoke_test(seed)
    }
}

fn run_cfg(seed: u64, threads: usize, schedule: FaultSchedule) -> FaultedRunConfig {
    FaultedRunConfig {
        world: world_cfg(seed),
        xatu: XatuConfig {
            seed: seed.wrapping_add(1),
            threads,
            ..XatuConfig::smoke_test()
        },
        schedule,
        companion: None,
    }
}

fn run(cfg: &FaultedRunConfig, control: RunControl<'_>) -> FaultReport {
    let model = XatuModel::new(&cfg.xatu);
    run_faulted(model, AttackType::UdpFlood, 0.5, cfg, control).expect("faulted run")
}

/// A companion whose normalizer scores every reconstruction error 0: the
/// fused score during full degradation is the autoencoder pseudo-survival
/// `1.0`, so these tests exercise the complete fusion path — rings,
/// scoring, ladder transitions, re-warm-up — with a deterministic,
/// training-free signal.
fn neutral_companion(window: usize) -> Companion {
    Companion {
        ae: LstmAutoencoder::new(VOLUMETRIC_WIDTH, 4, &mut Initializer::new(5)),
        norm: ErrorNormalizer::from_benign_errors(&[]),
        window,
    }
}

#[test]
fn every_builtin_schedule_streams_to_completion() {
    let total = World::new(world_cfg(11)).total_minutes();
    for name in BUILTIN_SCHEDULES {
        let schedule = FaultSchedule::builtin(name, total, 4).expect("builtin resolves");
        let report = run(&run_cfg(11, 1, schedule), RunControl::Full);
        assert_eq!(
            report.minutes_recorded, total,
            "schedule {name:?} skipped minutes"
        );
        assert_eq!(report.customers.len(), 4);
        assert!(
            report.all_finite(),
            "schedule {name:?} produced a non-finite survival"
        );
    }
}

#[test]
fn generated_schedules_stream_to_completion() {
    let total = World::new(world_cfg(23)).total_minutes();
    for seed in [0u64, 1, 2] {
        let schedule = FaultSchedule::generate(seed, total, 4);
        let report = run(&run_cfg(23, 2, schedule), RunControl::Full);
        assert_eq!(
            report.minutes_recorded, total,
            "seed {seed} skipped minutes"
        );
        assert!(
            report.all_finite(),
            "seed {seed} produced non-finite survival"
        );
    }
}

#[test]
fn kill_and_resume_is_bit_identical_across_thread_counts() {
    let total = World::new(world_cfg(42)).total_minutes();
    let schedule = FaultSchedule::builtin("everything", total, 4).expect("builtin resolves");
    let at = total / 2;
    let reference = run(&run_cfg(42, 1, schedule.clone()), RunControl::Full);
    assert!(reference.all_finite());

    let mut path = std::env::temp_dir();
    path.push(format!("xatu_ft_resume_{}", std::process::id()));

    // Crash at 4 threads, resume at both 1 and 4: every combination must
    // reproduce the single-threaded uninterrupted run exactly.
    let killed = run(
        &run_cfg(42, 4, schedule.clone()),
        RunControl::CheckpointAt {
            minute: at,
            path: &path,
            kill: true,
        },
    );
    assert_eq!(killed.minutes_recorded, at + 1);
    // The pre-crash prefix already matches the reference bit for bit.
    let n = killed.survivals.len();
    assert_eq!(bits(&killed.survivals), bits(&reference.survivals[..n]));

    for threads in [1usize, 4] {
        let resumed = run(
            &run_cfg(42, threads, schedule.clone()),
            RunControl::ResumeFrom { path: &path },
        );
        assert_eq!(resumed.first_minute, at + 1);
        assert_eq!(
            bits(&resumed.survivals),
            bits(&reference.survivals[n..]),
            "resume at {threads} threads diverged from the uninterrupted run"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cdet_flap_does_not_oscillate_the_ladder_or_alerts() {
    let total = World::new(world_cfg(31)).total_minutes();
    let schedule = FaultSchedule::builtin("cdet_flap", total, 4).expect("builtin resolves");
    let flaps = schedule.windows.len();
    assert!(flaps >= 4, "flap schedule too small to exercise hysteresis");

    let mut clean_cfg = run_cfg(31, 1, FaultSchedule::clean());
    clean_cfg.companion = Some(neutral_companion(clean_cfg.xatu.window));
    let clean = run(&clean_cfg, RunControl::Full);

    let mut flap_cfg = run_cfg(31, 1, schedule);
    flap_cfg.companion = Some(neutral_companion(flap_cfg.xatu.window));
    let flap = run(&flap_cfg, RunControl::Full);
    assert_eq!(flap.minutes_recorded, total);
    assert!(flap.all_finite());

    if xatu::obs::enabled() {
        // The ladder engages exactly once per down window and recovers
        // once per flap — no intra-flap chatter.
        assert_eq!(
            flap.counts.fusion_engaged, flaps as u64,
            "{:?}",
            flap.counts
        );
        assert_eq!(
            flap.counts.fusion_recovered, flaps as u64,
            "{:?}",
            flap.counts
        );
        assert!(flap.counts.fusion_ae_minutes > 0);
        assert!(flap.counts.degraded_feature_minutes > 0);
    }
    // Hysteresis: the quiet-period and re-warm-up ramp must absorb the
    // flapping. An oscillating ladder would raise (and end) an alert on
    // every cycle; the flap run may differ from the clean run, but not by
    // anything close to one alert per flap.
    let raised_clean = clean.alerts.len();
    let raised_flap = flap.alerts.len();
    assert!(
        raised_flap.saturating_sub(raised_clean) < flaps / 2,
        "alerts oscillated with the feed: clean {raised_clean}, flap {raised_flap}, flaps {flaps}"
    );
}

#[test]
fn fused_runs_are_bit_identical_across_thread_counts() {
    let total = World::new(world_cfg(53)).total_minutes();
    let schedule = FaultSchedule::builtin("cdet_dropout", total, 4).expect("builtin resolves");
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = run_cfg(53, threads, schedule.clone());
        cfg.companion = Some(neutral_companion(cfg.xatu.window));
        reports.push(run(&cfg, RunControl::Full));
    }
    let [one, four] = &reports[..] else {
        unreachable!()
    };
    assert!(one.all_finite());
    if xatu::obs::enabled() {
        assert!(one.counts.fusion_engaged > 0, "{:?}", one.counts);
        assert_eq!(one.counts, four.counts);
    }
    assert_eq!(
        bits(&one.survivals),
        bits(&four.survivals),
        "fused survivals diverged across thread counts"
    );
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// xorshift64*, so the property test's "arbitrary" stream is a pure
/// function of the proptest-chosen seed.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

proptest! {
    /// The online detector survives an arbitrary seeded stream of gaps,
    /// bursts, cold restarts and adversarial frame values without ever
    /// reporting a non-finite score or panicking.
    #[test]
    fn detector_survives_arbitrary_degraded_streams(seed in any::<u64>()) {
        let cfg = XatuConfig {
            timescales: (1, 3, 6),
            short_len: 8,
            medium_len: 6,
            long_len: 4,
            window: 6,
            hidden: 4,
            ..XatuConfig::smoke_test()
        };
        let mut det = OnlineDetector::new(
            XatuModel::new(&cfg),
            AttackType::TcpSyn,
            0.5,
            &cfg,
        );
        let mut rng = seed | 1;
        let mut minute = 0u32;
        for _ in 0..300 {
            let roll = next(&mut rng);
            // Jump 1..=40 minutes: mostly contiguous, sometimes an
            // imputable gap, occasionally past the cold-restart horizon.
            minute += 1 + (roll % 40).pow(2) as u32 / 40;
            let customer = Ipv4((roll >> 8) as u32 % 3);
            if roll.is_multiple_of(5) {
                let (h, s, _) = det
                    .observe_gap(customer, minute)
                    .expect("monotone minutes");
                prop_assert!(h.is_finite() && s.is_finite());
            } else {
                let mut frame = vec![0.0f64; NUM_FEATURES];
                for slot in frame.iter_mut() {
                    let v = next(&mut rng);
                    *slot = match v % 7 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => -1.0e12,
                        4 => 1.0e12,
                        5 => 0.0,
                        _ => (v % 1000) as f64 / 250.0,
                    };
                }
                let (h, s, _) = det
                    .observe(customer, minute, &frame)
                    .expect("monotone minutes");
                prop_assert!(h.is_finite() && s.is_finite(), "minute {minute}: {h} {s}");
            }
            prop_assert!(det.survival_of(customer).is_finite());
        }
        // Replaying an old minute is a typed error, not a panic, and must
        // leave the stream usable.
        det.observe_gap(Ipv4(0), minute + 1)
            .expect("monotone minutes");
        let err = det.observe_gap(Ipv4(0), 0).unwrap_err();
        prop_assert!(matches!(err, XatuError::OutOfOrderMinute { .. }));
        let (_, s, _) = det
            .observe_gap(Ipv4(0), minute + 2)
            .expect("stream still usable after rejected input");
        prop_assert!(s.is_finite());
    }
}
