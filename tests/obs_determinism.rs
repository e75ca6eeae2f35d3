//! Telemetry determinism: the obs snapshot of a full pipeline run —
//! counters, gauges, histograms and the event sequence — must be
//! bit-identical whether the parallel layers run on one thread or many.
//! Wall-clock spans and volatile (alloc) counters are exempt from the
//! digest by design; everything else is covered.

use xatu::core::pipeline::{EvalReport, Pipeline, PipelineConfig};
use xatu::netflow::attack::AttackType;
use xatu::obs::Snapshot;

fn run_report(seed: u64, threads: usize) -> EvalReport {
    let mut cfg = PipelineConfig::smoke_test(seed);
    cfg.with_fnm = true;
    cfg.xatu.threads = threads;
    Pipeline::new(cfg).prepare().evaluate(0.01)
}

/// What a smoke pipeline must read, on any thread count: the telemetry
/// digest, the calibrated thresholds' bits, and each system's detected /
/// total. A refactor of the pipeline's phases must leave all three alone;
/// a change meant to move them re-captures them and says so.
struct Pins {
    seed: u64,
    digest: u64,
    xatu_thresholds: &'static [(AttackType, u64)],
    detected: &'static [(&'static str, usize, usize)],
}

/// Seed 9 is a smoke world where a survival model actually trains, so
/// every instrumented layer (simnet, features, trainer, detector,
/// calibration) contributes to the snapshot being compared.
const SEED_9: Pins = Pins {
    seed: 9,
    digest: 0x7c0c_8eae_397d_6773,
    xatu_thresholds: &[(AttackType::UdpFlood, 0x3ee4_f8b5_88e3_68f1)],
    detected: &[("NetScout", 2, 2), ("FastNetMon", 1, 2), ("Xatu", 0, 2)],
};

/// The lowest model-training smoke seed whose Xatu heads raise test-period
/// alerts, so the alert path feeds the snapshot too. (Seed 4's heads
/// raised alerts only at the 0.9999 threshold a type with no validation
/// event used to calibrate to; it is now served unscored at the grid's
/// tightest threshold and raises none. Seed 8's UDP threshold was picked
/// at a validation objective of 0; it is now served degenerate at that
/// threshold and raises none.)
const SEED_17: Pins = Pins {
    seed: 17,
    digest: 0x2519_989b_54ed_7c51,
    xatu_thresholds: &[
        (AttackType::UdpFlood, 0x3ee4_f8b5_88e3_68f1),
        (AttackType::TcpAck, 0x3fe0_0048_6cd3_1816),
    ],
    detected: &[("NetScout", 1, 1), ("FastNetMon", 1, 1), ("Xatu", 1, 1)],
};

/// (telemetry digest, threshold bits per type, detected / total per system).
type Pinned<'a> = (u64, Vec<(AttackType, u64)>, Vec<(&'a str, usize, usize)>);

/// The pinned outputs of a report, in the shape of [`Pins`].
fn pinned(r: &EvalReport) -> Pinned<'_> {
    (
        r.obs.digest(),
        r.xatu_thresholds
            .iter()
            .map(|(ty, th)| (*ty, th.to_bits()))
            .collect(),
        r.systems
            .iter()
            .map(|s| (s.name.as_str(), s.detected, s.delay.total()))
            .collect(),
    )
}

/// Runs `pins.seed` at 1 and 4 threads, checks that the two runs agree
/// and read the pins, and returns the 1-thread snapshot.
fn identical_across_thread_counts(pins: &Pins) -> Snapshot {
    let (r1, r4) = (run_report(pins.seed, 1), run_report(pins.seed, 4));
    let (s1, s4) = (&r1.obs, &r4.obs);

    assert_eq!(
        s1.digest(),
        s4.digest(),
        "seed {}: telemetry digest diverges between 1 and 4 threads",
        pins.seed
    );
    assert_eq!(
        pinned(&r1),
        (
            pins.digest,
            pins.xatu_thresholds.to_vec(),
            pins.detected.to_vec()
        ),
        "seed {}: pinned pipeline outputs moved (digest is {:#018x})",
        pins.seed,
        s1.digest()
    );
    assert_eq!(pinned(&r1), pinned(&r4));

    // The digest equality above is the contract; these section-level
    // comparisons exist to localize a failure if it ever regresses.
    assert_eq!(s1.counters, s4.counters, "counter section diverges");
    assert_eq!(s1.histograms, s4.histograms, "histogram section diverges");
    assert_eq!(s1.events, s4.events, "event sequence diverges");
    for ((na, ga), (nb, gb)) in s1.gauges.iter().zip(&s4.gauges) {
        assert_eq!(na, nb);
        assert_eq!(ga.to_bits(), gb.to_bits(), "gauge {na} diverges");
    }
    r1.obs
}

#[test]
fn pipeline_telemetry_digest_is_identical_across_thread_counts() {
    let s1 = identical_across_thread_counts(&SEED_9);

    // The run actually recorded something from every instrumented layer.
    for name in [
        "simnet.flows_emitted",
        "features.frames_phase_a",
        "features.frames_phase_b",
        "train.samples",
        "train.batches",
    ] {
        assert!(s1.counter(name) > 0, "counter {name} not recorded");
    }
    assert!(
        s1.events.iter().any(|e| e.kind == "train.epoch"),
        "no train.epoch events recorded"
    );
    assert!(
        s1.histogram("online.survival").is_some_and(|h| h.count > 0),
        "survival histogram not populated"
    );
}

#[test]
fn alerting_pipeline_telemetry_is_identical_across_thread_counts() {
    let s1 = identical_across_thread_counts(&SEED_17);
    assert!(
        s1.counter("online.alerts_raised") > 0,
        "counter online.alerts_raised not recorded"
    );
}

#[test]
fn wall_and_volatile_sections_do_not_enter_the_digest() {
    let mut a = run_report(SEED_9.seed, 1).obs;
    let digest = a.digest();
    // Perturbing the digest-exempt sections must not move the digest;
    // perturbing a counter must.
    a.wall.clear();
    a.volatile.push(("synthetic.allocs".into(), 123));
    assert_eq!(a.digest(), digest, "wall/volatile leaked into the digest");
    a.counters.push(("synthetic.counter".into(), 1));
    assert_ne!(a.digest(), digest, "counters must be digested");
}
