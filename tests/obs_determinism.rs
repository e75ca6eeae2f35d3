//! Telemetry determinism: the obs snapshot of a full pipeline run —
//! counters, gauges, histograms and the event sequence — must be
//! bit-identical whether the parallel layers run on one thread or many.
//! Wall-clock spans and volatile (alloc) counters are exempt from the
//! digest by design; everything else is covered.

use xatu::core::pipeline::{EvalReport, Pipeline, PipelineConfig};
use xatu::netflow::attack::AttackType;

fn run_report(threads: usize) -> EvalReport {
    // Seed 9 is a smoke world where a survival model actually trains and
    // the online detector raises an alert, so every instrumented layer
    // (simnet, features, trainer, detector, calibration) contributes to
    // the snapshot being compared.
    let mut cfg = PipelineConfig::smoke_test(9);
    cfg.with_fnm = true;
    cfg.xatu.threads = threads;
    Pipeline::new(cfg).prepare().evaluate(0.01)
}

/// What the seed-9 smoke pipeline must read, on any thread count: the
/// telemetry digest, the calibrated thresholds' bits, and each system's
/// detected / total. A refactor of the pipeline's phases must leave all
/// three alone; a change meant to move them re-captures them and says so.
const DIGEST: u64 = 0x88ea_f2f0_2b81_6fa5;
const XATU_THRESHOLDS: &[(AttackType, u64)] = &[(AttackType::UdpFlood, 0x3fe0_0048_6cd3_1816)];
const DETECTED: &[(&str, usize, usize)] =
    &[("NetScout", 2, 2), ("FastNetMon", 1, 2), ("Xatu", 1, 2)];

/// (telemetry digest, threshold bits per type, detected / total per system).
type Pinned<'a> = (u64, Vec<(AttackType, u64)>, Vec<(&'a str, usize, usize)>);

/// The pinned outputs of a report, in the shape of the constants above.
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

#[test]
fn pipeline_telemetry_digest_is_identical_across_thread_counts() {
    let (r1, r4) = (run_report(1), run_report(4));
    let (s1, s4) = (&r1.obs, &r4.obs);

    assert_eq!(
        s1.digest(),
        s4.digest(),
        "telemetry digest diverges between 1 and 4 threads"
    );
    assert_eq!(
        pinned(&r1),
        (DIGEST, XATU_THRESHOLDS.to_vec(), DETECTED.to_vec()),
        "pinned pipeline outputs moved (digest is {:#018x})",
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

    // The run actually recorded something from every instrumented layer.
    for name in [
        "simnet.flows_emitted",
        "features.frames_phase_a",
        "features.frames_phase_b",
        "train.samples",
        "train.batches",
        "online.alerts_raised",
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
fn wall_and_volatile_sections_do_not_enter_the_digest() {
    let mut a = run_report(1).obs;
    let digest = a.digest();
    // Perturbing the digest-exempt sections must not move the digest;
    // perturbing a counter must.
    a.wall.clear();
    a.volatile.push(("synthetic.allocs".into(), 123));
    assert_eq!(a.digest(), digest, "wall/volatile leaked into the digest");
    a.counters.push(("synthetic.counter".into(), 1));
    assert_ne!(a.digest(), digest, "counters must be digested");
}
