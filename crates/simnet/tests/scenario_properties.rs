//! Property-based tests for the composable attack-vector layer.
//!
//! Three contracts the scenario matrix depends on:
//!
//! * **Phase/envelope invariants** — for arbitrary valid carriers and
//!   shapes, `phase()` boundaries are exact and the shaped envelope stays
//!   finite, non-negative and peak-bounded.
//! * **Overlapping additivity** — a vector's pre-sampling emission is
//!   bit-identical whether it runs alone or overlapped with other vectors
//!   on the same victim (each vector draws from its own
//!   `(carrier id, minute)`-seeded stream).
//! * **Composition determinism** — `compose` is a pure function of
//!   `(family, seed)`: spans, schedules and the shaped envelopes replay to
//!   the same digest, which is what lets `bench_scenarios` gate survival
//!   bits across thread counts.

use proptest::prelude::*;
use xatu_netflow::attack::AttackType;
use xatu_simnet::botnet::customer_addr;
use xatu_simnet::{
    compose, victim_signature_bytes, AttackEvent, AttackPhase, AttackVector, ScenarioFamily,
    VectorShape, World, WorldConfig,
};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn carrier(victim_idx: usize, ty: AttackType, onset: u32, len: u32, ramp: u32) -> AttackEvent {
    AttackEvent {
        id: 7,
        victim: customer_addr(victim_idx),
        attack_type: ty,
        botnet_id: 0,
        prep_start: onset.saturating_sub(60),
        onset,
        ramp_minutes: ramp,
        end: onset + len,
        peak_bpm: 4e7,
        ramp_dr: 1.0,
        wave_id: None,
        spoofed_frac: 0.2,
        spoof_detectable_frac: 0.5,
        ramp_volume_scale: 1.0,
        prep_intensity: 1.0,
    }
}

/// A tiny attack-free world sized for per-case stepping.
fn tiny_world(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        n_customers: 3,
        days: 1,
        n_chains: 0,
        sampling_rate: 1, // pre-sampling: additivity is exact
        ..WorldConfig::smoke_test(seed)
    }
}

proptest! {
    /// Phase boundaries are exact and every shaped envelope stays finite,
    /// non-negative and strictly peak-bounded, for arbitrary valid shapes.
    #[test]
    fn phase_and_envelope_invariants(
        onset in 100u32..4000,
        len in 1u32..120,
        ramp in 0u32..8,
        on in 1u32..6,
        off in 1u32..6,
        phase in 0u32..12,
        growth in 0.01f64..0.5,
    ) {
        let c = carrier(0, AttackType::UdpFlood, onset, len, ramp.min(len));
        prop_assert_eq!(c.validate(), Ok(()));
        // Boundary semantics, pinned: [prep_start, onset) prepares,
        // [onset, end) attacks, everything else is inactive.
        prop_assert_eq!(c.phase(c.prep_start.wrapping_sub(1)), AttackPhase::Inactive);
        prop_assert_eq!(c.phase(c.prep_start), AttackPhase::Preparation);
        prop_assert!(c.phase(c.onset) != AttackPhase::Preparation);
        prop_assert!(c.phase(c.onset) != AttackPhase::Inactive);
        prop_assert_eq!(c.phase(c.end), AttackPhase::Inactive);
        prop_assert_eq!(c.phase(c.end - 1) == AttackPhase::Plateau,
            c.end > c.onset + c.ramp_minutes);
        for shape in [
            VectorShape::Constant,
            VectorShape::Pulse { on, off, phase },
            VectorShape::LowAndSlow { growth },
        ] {
            let v = AttackVector { carrier: c.clone(), shape };
            prop_assert_eq!(v.validate(), Ok(()));
            for m in c.prep_start.saturating_sub(2)..c.end + 2 {
                let bpm = v.bpm_at(m);
                prop_assert!(bpm.is_finite());
                prop_assert!(bpm >= 0.0);
                prop_assert!(bpm <= c.peak_bpm * (1.0 + 1e-9));
                if m < c.onset || m >= c.end {
                    prop_assert_eq!(bpm, 0.0);
                }
            }
        }
    }

    /// A vector's pre-sampling emission on its victim is unchanged by
    /// co-resident overlapping vectors (the composability contract).
    #[test]
    fn overlapping_vectors_are_additive(
        seed in 0u64..200,
        on in 1u32..4,
        off in 1u32..4,
        phase in 0u32..6,
        stagger in 0u32..10,
    ) {
        let probe = AttackVector {
            carrier: carrier(0, AttackType::TcpSyn, 200, 30, 3),
            shape: VectorShape::Constant,
        };
        let other = AttackVector {
            carrier: carrier(0, AttackType::IcmpFlood, 200 + stagger, 30, 0),
            shape: VectorShape::Pulse { on, off, phase },
        };
        let sig = AttackType::TcpSyn.signature();
        let victim = probe.victim();
        let last = 232;

        let mut solo = World::new(tiny_world(seed));
        solo.inject_vector(probe.clone()).expect("valid vector");
        let mut overlapped = World::new(tiny_world(seed));
        overlapped.inject_vector(probe).expect("valid vector");
        overlapped.inject_vector(other).expect("valid vector");

        for minute in 0..last {
            let a = victim_signature_bytes(&solo.step(), victim, &sig);
            let b = victim_signature_bytes(&overlapped.step(), victim, &sig);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "minute {}", minute);
        }
    }

    /// `compose` is a pure function of `(family, seed)`: spans and the
    /// shaped schedule replay to the identical digest.
    #[test]
    fn composition_replays_to_the_same_digest(
        seed in 0u64..500,
        fam in 0usize..4,
    ) {
        let family = ScenarioFamily::ALL[fam];
        let base = WorldConfig::smoke_test(seed);
        let digest_of = |scn: &xatu_simnet::ComposedScenario| {
            let mut bytes = Vec::new();
            for span in &scn.spans {
                bytes.extend_from_slice(&span.victim.octets());
                bytes.extend_from_slice(&span.onset.to_le_bytes());
                bytes.extend_from_slice(&span.end.to_le_bytes());
            }
            for v in scn.world.vectors() {
                let (start, end) = v.active_range();
                bytes.extend_from_slice(&start.to_le_bytes());
                for m in (start..end).step_by(7) {
                    bytes.extend_from_slice(&v.bpm_at(m).to_bits().to_le_bytes());
                }
            }
            fnv1a64(&bytes)
        };
        let one = compose(family, &base);
        let two = compose(family, &base);
        prop_assert!(!one.spans.is_empty());
        for v in one.world.vectors() {
            prop_assert_eq!(v.validate(), Ok(()));
        }
        prop_assert_eq!(digest_of(&one), digest_of(&two));
    }
}
