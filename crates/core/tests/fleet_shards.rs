//! Shard-boundary bit-identity for the fleet batch step.
//!
//! The sharded dispatch carves the customer arenas into contiguous
//! blocks and the batched kernels tile each block — so the interesting
//! edge cases are small fleets around the tile/lane widths: `n` smaller
//! than `threads`, `n` not a multiple of the 4-customer tile or the
//! 8-customer SIMD lane width, and block boundaries landing mid-tile.
//! Every fleet size 1..=17 is driven through a schedule that mixes real
//! frames, explicit gaps, skips (catch-up imputation) and attack bursts,
//! and every minute's survivals and lifecycle events are required to be
//! **bit-identical** across thread counts — and between auto SIMD
//! dispatch and the forced-scalar reference, also across a mid-run
//! checkpoint. One row runs the same schedule at `XatuConfig::default()`
//! geometry, 64 customers at 1/2/4/16 threads and forced scalar, and
//! kills and resumes it through a checkpoint file.

use xatu_core::checkpoint::{load_detector, save_detector};
use xatu_core::config::XatuConfig;
use xatu_core::fleet::{FleetDetector, FleetInput};
use xatu_core::model::XatuModel;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::SimdLevel;

const MINUTES: u32 = 75;

fn addr(i: usize) -> Ipv4 {
    Ipv4(0x0a00_0100 + i as u32)
}

fn build(n: usize) -> FleetDetector {
    build_with(n, &XatuConfig::smoke_test())
}

fn build_with(n: usize, cfg: &XatuConfig) -> FleetDetector {
    let model = XatuModel::new(cfg);
    let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.35, cfg);
    for i in 0..n {
        det.add_customer(addr(i));
    }
    det
}

/// Deterministic per-(customer, minute) input: mostly benign frames,
/// periodic gaps and skips (to exercise imputation and catch-up), and a
/// per-customer attack burst late enough to clear warm-up.
fn fill(i: usize, _a: Ipv4, frame: &mut [f64], minute: u32) -> FleetInput {
    let key = i as u32 * 31 + minute;
    if key % 11 == 7 {
        return FleetInput::Skip;
    }
    if key % 7 == 3 {
        return FleetInput::Gap;
    }
    frame.fill(0.0);
    frame[0] = 0.02 + (i as f64) * 1e-3;
    frame[1] = 0.1;
    let burst_start = 40 + (i as u32 % 5) * 4;
    if minute >= burst_start && minute < burst_start + 8 {
        frame[0] = 2.0 + (minute - burst_start) as f64 * 0.4;
        frame[2] = 1.5;
    }
    FleetInput::Frame
}

/// Drives `det` for [`MINUTES`] at `threads`, returning every minute's
/// event log and the full per-customer survival trace (as raw bits).
fn run(mut det: FleetDetector, n: usize, threads: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    run_span(&mut det, n, threads, 0..MINUTES)
}

/// [`run`] over a span of minutes, leaving the detector usable.
fn run_span(
    det: &mut FleetDetector,
    n: usize,
    threads: usize,
    minutes: std::ops::Range<u32>,
) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut events = Vec::new();
    let mut survivals = Vec::new();
    for m in minutes {
        let evs = det
            .step_minute_batch(m, threads, |i, a, f| fill(i, a, f, m))
            .unwrap();
        // Events are Copy + PartialEq; hash-free bitwise compare via Debug
        // would be lossy, so keep a canonical encoding: (kind, customer,
        // detected_at, end).
        events.push(
            evs.iter()
                .map(|e| {
                    let (kind, al) = match e {
                        xatu_detectors::traits::DetectorEvent::Raised(a) => (1u64, a),
                        xatu_detectors::traits::DetectorEvent::Ended(a) => (2u64, a),
                    };
                    (kind << 62)
                        | ((al.customer.0 as u64) << 30)
                        | ((al.detected_at as u64) << 8)
                        | (al.mitigation_end.map_or(0xff, |e| e as u64) % 0xff)
                })
                .collect(),
        );
        for i in 0..n {
            survivals.push(det.survival_of(addr(i)).to_bits());
        }
    }
    (events, survivals)
}

#[test]
fn thread_count_is_bit_invariant_for_every_small_fleet() {
    for n in 1..=17usize {
        let reference = run(build(n), n, 1);
        for threads in [2usize, 4] {
            let got = run(build(n), n, threads);
            assert_eq!(
                reference.0, got.0,
                "events diverged at n = {n}, threads = {threads}"
            );
            assert_eq!(
                reference.1, got.1,
                "survival bits diverged at n = {n}, threads = {threads}"
            );
        }
    }
}

#[test]
fn more_threads_than_customers_clamps_cleanly() {
    // n < threads must behave exactly like threads = n (the clamp), not
    // panic or produce empty shards.
    for n in [1usize, 2, 3] {
        let reference = run(build(n), n, 1);
        let got = run(build(n), n, 16);
        assert_eq!(reference.0, got.0, "events diverged at n = {n}");
        assert_eq!(reference.1, got.1, "survival bits diverged at n = {n}");
    }
}

/// `smoke_test` with `hidden` units.
fn cfg_with(hidden: usize) -> XatuConfig {
    XatuConfig {
        hidden,
        ..XatuConfig::smoke_test()
    }
}

/// `det`, its kernels pinned to the scalar instantiation if `scalar`.
fn pinned(mut det: FleetDetector, scalar: bool) -> FleetDetector {
    if scalar {
        det.set_simd(SimdLevel::Scalar);
    }
    det
}

/// A fleet of `n` at `XatuConfig::default()` geometry (hidden 24, window
/// 30). With the untrained model's survival under the 0.9 threshold by the
/// end of an 8-minute warm-up, every customer raises as soon as it may, and
/// a stream past the 45-minute cap force-ends and raises again.
fn build_default(n: usize, scalar: bool) -> FleetDetector {
    let cfg = XatuConfig::default();
    let det = FleetDetector::new(XatuModel::new(&cfg), AttackType::UdpFlood, 0.9, &cfg);
    let mut det = pinned(det, scalar);
    det.set_warmup(8);
    for i in 0..n {
        det.add_customer(addr(i));
    }
    det
}

#[test]
fn default_geometry_is_thread_invariant_and_resumes_from_a_checkpoint_file() {
    const N: usize = 64;
    const END: u32 = 64;
    const CUT: u32 = 20;
    let reference = run_span(&mut build_default(N, false), N, 1, 0..END);
    let count = |kind: u64| {
        reference
            .0
            .iter()
            .flatten()
            .filter(|&&e| e >> 62 == kind)
            .count()
    };
    assert!(
        count(1) > 0 && count(2) > 0,
        "no alert both raised and ended: the lifecycle is not gated"
    );
    // The forced-scalar run is the plain kernel instantiation at 96 outputs
    // per matvec (four whole 24-wide chunks).
    for (threads, scalar) in [(2usize, false), (4, false), (16, false), (4, true)] {
        let got = run_span(&mut build_default(N, scalar), N, threads, 0..END);
        let what = format!("threads = {threads}, scalar = {scalar}");
        assert_eq!(reference.0, got.0, "events diverged, {what}");
        assert_eq!(reference.1, got.1, "survival bits diverged, {what}");
    }

    // Killed at minute CUT with alerts open, at 2 threads; written to and
    // read back from an XCK1 file; resumed at 4 threads through the force
    // ends and the second raises: the uninterrupted run.
    let mut killed = build_default(N, false);
    let head = run_span(&mut killed, N, 2, 0..CUT);
    let path = std::env::temp_dir().join(format!("xatu_fleet_shards_{}.xck", std::process::id()));
    save_detector(&path, &killed.to_checkpoint()).expect("checkpoint save");
    drop(killed);
    let ck = load_detector(&path).expect("checkpoint load");
    let _ = std::fs::remove_file(&path);
    let mut resumed = FleetDetector::from_checkpoint(&ck).expect("checkpoint restore");
    let tail = run_span(&mut resumed, N, 4, CUT..END);
    let events: Vec<_> = head.0.iter().chain(&tail.0).cloned().collect();
    let survivals: Vec<_> = head.1.iter().chain(&tail.1).copied().collect();
    assert_eq!(reference.0, events, "events diverged after resume");
    assert_eq!(
        reference.1, survivals,
        "survival bits diverged after resume"
    );
}

/// Every dispatch level this host has, scalar first, after a line for each
/// level it lacks.
fn levels() -> Vec<SimdLevel> {
    let levels = xatu_nn::simd::levels();
    for lacking in [SimdLevel::Avx2, SimdLevel::Avx512] {
        if !levels.contains(&lacking) {
            eprintln!("skipping {}: host lacks it", lacking.name());
        }
    }
    levels
}

#[test]
fn exact_forced_scalar_matches_auto_simd_dispatch_bitwise() {
    // The exact lane kernel widens across one customer's outputs, so the
    // fleet size only moves block boundaries; what matters is the output
    // count `4·hidden`, walked in 24-wide chunks (48-wide at AVX-512), then
    // 8-wide ones, then one at a time (`matrix::t_lanes`). Hidden 7 gives
    // 28 = 24 + 4×1 and hidden 9 gives 36 = 24 + 8 + 4×1, so both tails
    // run; hidden 13 gives 52 = 48 + 4×1 at AVX-512 (24 + 24 + 4×1 below).
    // The auto run is pinned to each level in turn, so a CI rerun under
    // `XATU_NO_SIMD=1` still reaches the wide ones.
    let levels = levels();
    for hidden in [7usize, 9, 13] {
        for n in [1usize, 3, 4, 7, 8, 9, 15, 16, 17] {
            for threads in [1usize, 4] {
                let scalar = run(pinned(build_with(n, &cfg_with(hidden)), true), n, threads);
                for &level in &levels[1..] {
                    let mut wide = build_with(n, &cfg_with(hidden));
                    wide.set_simd(level);
                    let wide = run(wide, n, threads);
                    let at = format!("hidden = {hidden}, n = {n}, threads = {threads}, {level:?}");
                    assert_eq!(wide.0, scalar.0, "events diverged at {at}");
                    assert_eq!(wide.1, scalar.1, "survival bits diverged at {at}");
                }
            }
        }
    }
}

#[test]
fn forced_scalar_matches_auto_across_a_mid_run_checkpoint() {
    // A checkpoint does not record the dispatch level: the resumed
    // detector follows the environment until `set_simd` pins it, and
    // pinned, auto and never-interrupted runs agree to the bit.
    let (n, threads, cut) = (9usize, 4usize, 37u32);
    let start = || build_with(n, &cfg_with(12));
    let whole = run(start(), n, threads);
    let mut first = start();
    let head = run_span(&mut first, n, threads, 0..cut);
    let ck = first.to_checkpoint();
    for level in levels() {
        let mut resumed = FleetDetector::from_checkpoint(&ck).expect("restore");
        resumed.set_simd(level);
        assert_eq!(resumed.simd_level(), level);
        let tail = run_span(&mut resumed, n, threads, cut..MINUTES);
        let events: Vec<_> = head.0.iter().chain(&tail.0).cloned().collect();
        let survivals: Vec<_> = head.1.iter().chain(&tail.1).copied().collect();
        assert_eq!(whole.0, events, "events diverged, {level:?}");
        assert_eq!(whole.1, survivals, "survival bits diverged, {level:?}");
    }
}
