//! The adversarial scenario matrix: evasion-aware composition of attack
//! vectors into named scenario families.
//!
//! Each family is a deterministic function of the base [`WorldConfig`]
//! (seed included): it builds a benign-only world at the base scale and
//! injects [`AttackVector`]s whose shapes are *tuned against the detector
//! time constants* in [`DetectorTimeConstants`]:
//!
//! * [`ScenarioFamily::MultiVector`] — three flood components (SYN + UDP +
//!   ICMP) overlapping on one victim with staggered onsets. The control
//!   family: loud enough that volumetric detectors should fire.
//! * [`ScenarioFamily::PulseWave`] — an on/off train whose on-run is one
//!   minute shorter than the CDet fast-path sustain, so every off minute
//!   resets the consecutive-anomaly counter and the volumetric detector
//!   never accumulates enough evidence.
//! * [`ScenarioFamily::LowAndSlow`] — a slow multiplicative ramp whose
//!   per-minute growth keeps the volume/EWMA-baseline ratio strictly under
//!   the anomaly multiplier (steady state ratio `1 + growth/alpha`), so the
//!   baseline absorbs the attack forever.
//! * [`ScenarioFamily::CarpetBomb`] — modest same-botnet floods across the
//!   whole customer prefix, each sized under the per-victim anomaly
//!   multiplier so no single victim looks anomalous.
//!
//! The composed schedule and ground-truth spans are pure functions of the
//! config; nothing here depends on thread count or wall clock.

use crate::attack::AttackEvent;
use crate::botnet::customer_addr;
use crate::config::WorldConfig;
use crate::vectors::{AttackVector, VectorShape};
use crate::world::World;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_netflow::MINUTES_PER_DAY;

/// SplitMix64 finalizer for deterministic scenario placement.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The volumetric-detector time constants the evasion scheduler tunes
/// against.
///
/// `xatu-simnet` deliberately does not depend on `xatu-detectors`, so these
/// mirror the `NetScoutConfig` defaults; `xatu-core` cross-checks the
/// mirror against the real detector in its tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectorTimeConstants {
    /// EWMA learning rate of the detector's per-channel baseline.
    pub ewma_alpha: f64,
    /// Anomaly multiplier over the baseline.
    pub multiplier: f64,
    /// Consecutive anomalous minutes required to raise.
    pub sustain: u32,
    /// Fast-path sustain at elevated volume.
    pub fast_sustain: u32,
}

impl DetectorTimeConstants {
    /// The NetScout-style CDet defaults.
    pub fn netscout_default() -> Self {
        DetectorTimeConstants {
            ewma_alpha: 0.02,
            multiplier: 6.0,
            sustain: 8,
            fast_sustain: 4,
        }
    }

    /// Pulse train `(on, off)` that defeats the sustain logic: the on-run
    /// stays one minute short of the fast-path sustain (every off minute
    /// resets the consecutive-anomaly counter), and the off-run is the
    /// shortest that still resets, maximizing delivered volume.
    pub fn evasive_pulse(&self) -> (u32, u32) {
        (self.fast_sustain.saturating_sub(1).max(1), 2)
    }

    /// Per-minute growth for a low-and-slow ramp that the EWMA baseline
    /// absorbs: at growth `g` the steady-state volume/baseline ratio is
    /// `1 + g/alpha`, so anything below `alpha * (multiplier - 1)` stays
    /// under the anomaly multiplier forever. The 0.8 safety factor covers
    /// the pre-steady-state transient.
    pub fn evasive_growth(&self) -> f64 {
        0.8 * self.ewma_alpha * (self.multiplier - 1.0)
    }
}

/// The scenario families of the adversarial matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// Overlapping SYN + UDP + ICMP flood components on one victim.
    MultiVector,
    /// On/off pulse train tuned under the CDet sustain logic.
    PulseWave,
    /// Slow multiplicative ramp tuned under the EWMA threshold.
    LowAndSlow,
    /// Modest same-botnet floods across the whole customer prefix.
    CarpetBomb,
}

impl ScenarioFamily {
    /// Every family, in matrix order.
    pub const ALL: [ScenarioFamily; 4] = [
        ScenarioFamily::MultiVector,
        ScenarioFamily::PulseWave,
        ScenarioFamily::LowAndSlow,
        ScenarioFamily::CarpetBomb,
    ];

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioFamily::MultiVector => "multi_vector",
            ScenarioFamily::PulseWave => "pulse_wave",
            ScenarioFamily::LowAndSlow => "low_and_slow",
            ScenarioFamily::CarpetBomb => "carpet_bomb",
        }
    }
}

/// Ground truth for one attacked victim in a composed scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioSpan {
    /// Attacked customer.
    pub victim: Ipv4,
    /// First anomalous minute.
    pub onset: u32,
    /// Exclusive end of the anomalous window.
    pub end: u32,
}

/// A composed scenario: the world with vectors injected, plus ground truth.
pub struct ComposedScenario {
    /// Which family this is.
    pub family: ScenarioFamily,
    /// The benign-only world with the family's vectors injected.
    pub world: World,
    /// Per-victim ground-truth spans (sorted by victim then onset).
    pub spans: Vec<ScenarioSpan>,
}

/// A carrier event template for scenario vectors. The world assigns the
/// final id at injection.
#[allow(clippy::too_many_arguments)]
fn carrier(
    victim: Ipv4,
    ty: AttackType,
    prep_start: u32,
    onset: u32,
    ramp_minutes: u32,
    end: u32,
    peak_bpm: f64,
    seed: u64,
) -> AttackEvent {
    AttackEvent {
        id: 0, // replaced by World::inject_vector
        victim,
        attack_type: ty,
        botnet_id: 0,
        prep_start,
        onset,
        ramp_minutes,
        end,
        peak_bpm,
        ramp_dr: 1.0,
        wave_id: None,
        spoofed_frac: 0.15 + 0.1 * (splitmix64(seed) % 3) as f64,
        spoof_detectable_frac: 0.5,
        ramp_volume_scale: 1.0,
        prep_intensity: 1.0,
    }
}

/// Composes one scenario family over a benign-only copy of `base`.
///
/// The returned world keeps `base`'s seed (same customers, benign
/// profiles, botnet ecosystem and blocklists) but drops the background
/// attack chains, so the matrix measures exactly the injected vectors.
pub fn compose(family: ScenarioFamily, base: &WorldConfig) -> ComposedScenario {
    let cfg = WorldConfig {
        n_chains: 0,
        ..*base
    };
    let mut world = World::new(cfg);
    let consts = DetectorTimeConstants::netscout_default();
    let total = world.total_minutes();
    let n = world.customers().len();
    assert!(n > 0, "scenario worlds need at least one customer");

    // Onset late enough for detector warmup and prep history, with head
    // room for the longest family (low-and-slow runs 150 minutes).
    let onset = (total * 3 / 5).min(total.saturating_sub(240));
    let prep_start = onset.saturating_sub(2 * MINUTES_PER_DAY);
    // Baselines up front: the injection loop needs `world` mutably.
    let baselines: Vec<f64> = world
        .customers()
        .iter()
        .map(|&c| {
            world
                .baseline_bpm(c)
                .expect("every customer has a baseline")
        })
        .collect();
    let victim_of = |k: u64| -> usize { (splitmix64(base.seed ^ k) % n as u64) as usize };

    let mut spans = Vec::new();
    match family {
        ScenarioFamily::MultiVector => {
            // The control family: three overlapping flood components,
            // each loud on its own signature channel, staggered by a few
            // minutes. Volumetric detectors should catch this.
            let vi = victim_of(0x11);
            let v = customer_addr(vi);
            let peak = (12.0 * baselines[vi]).max(1.5e7);
            let end = onset + 45;
            for (i, ty) in [
                AttackType::TcpSyn,
                AttackType::UdpFlood,
                AttackType::IcmpFlood,
            ]
            .into_iter()
            .enumerate()
            {
                let o = onset + 6 * i as u32;
                world
                    .inject_vector(AttackVector {
                        carrier: carrier(v, ty, prep_start, o, 4, end, peak, base.seed ^ i as u64),
                        shape: VectorShape::Constant,
                    })
                    .expect("composed multi-vector carrier is valid");
            }
            spans.push(ScenarioSpan {
                victim: v,
                onset,
                end,
            });
        }
        ScenarioFamily::PulseWave => {
            // On-run one short of the fast-path sustain: the CDet
            // consecutive-anomaly counter never reaches its trigger.
            let vi = victim_of(0x22);
            let v = customer_addr(vi);
            let (on, off) = consts.evasive_pulse();
            let peak = (30.0 * baselines[vi]).max(3.0e7);
            let end = onset + 60;
            world
                .inject_vector(AttackVector {
                    carrier: carrier(
                        v,
                        AttackType::UdpFlood,
                        prep_start,
                        onset,
                        0,
                        end,
                        peak,
                        base.seed ^ 0x22,
                    ),
                    shape: VectorShape::Pulse { on, off, phase: 0 },
                })
                .expect("composed pulse carrier is valid");
            spans.push(ScenarioSpan {
                victim: v,
                onset,
                end,
            });
        }
        ScenarioFamily::LowAndSlow => {
            // Growth below what the EWMA baseline absorbs: the ratio to
            // baseline never reaches the anomaly multiplier.
            let vi = victim_of(0x33);
            let v = customer_addr(vi);
            let growth = consts.evasive_growth();
            let peak = (40.0 * baselines[vi]).max(4.0e7);
            let end = onset + 150;
            world
                .inject_vector(AttackVector {
                    carrier: carrier(
                        v,
                        AttackType::UdpFlood,
                        prep_start,
                        onset,
                        0,
                        end,
                        peak,
                        base.seed ^ 0x33,
                    ),
                    shape: VectorShape::LowAndSlow { growth },
                })
                .expect("composed low-and-slow carrier is valid");
            spans.push(ScenarioSpan {
                victim: v,
                onset,
                end,
            });
        }
        ScenarioFamily::CarpetBomb => {
            // One botnet, every customer in the prefix, each flood sized
            // under the per-victim anomaly multiplier.
            let end = onset + 40;
            for (i, baseline) in baselines.iter().enumerate().take(n) {
                let v = customer_addr(i);
                let peak = (3.5 * baseline).max(2.0e6);
                let o = onset + (splitmix64(base.seed ^ 0x44 ^ i as u64) % 3) as u32;
                world
                    .inject_vector(AttackVector {
                        carrier: carrier(
                            v,
                            AttackType::UdpFlood,
                            prep_start,
                            o,
                            2,
                            end,
                            peak,
                            base.seed ^ 0x44 ^ i as u64,
                        ),
                        shape: VectorShape::Constant,
                    })
                    .expect("composed carpet carrier is valid");
                spans.push(ScenarioSpan {
                    victim: v,
                    onset: o,
                    end,
                });
            }
        }
    }
    spans.sort_by_key(|s| (s.victim, s.onset));
    ComposedScenario {
        family,
        world,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    #[test]
    fn evasive_tuning_sits_under_detector_constants() {
        let c = DetectorTimeConstants::netscout_default();
        let (on, off) = c.evasive_pulse();
        assert!(on < c.fast_sustain, "on-run must evade the fast path");
        assert!(on < c.sustain, "on-run must evade the slow path");
        assert!(off >= 1, "off minutes must reset the counter");
        let g = c.evasive_growth();
        // Steady-state ratio 1 + g/alpha stays under the multiplier.
        assert!(1.0 + g / c.ewma_alpha < c.multiplier);
        assert!(g > 0.0);
    }

    #[test]
    fn composition_is_deterministic_and_valid() {
        let base = WorldConfig::smoke_test(9);
        for family in ScenarioFamily::ALL {
            let a = compose(family, &base);
            let b = compose(family, &base);
            assert_eq!(a.spans, b.spans, "{family:?}");
            assert_eq!(a.world.vectors().len(), b.world.vectors().len());
            assert!(!a.spans.is_empty());
            for v in a.world.vectors() {
                v.validate().expect("composed vectors validate");
            }
            // Background chains are dropped; only vectors attack.
            assert!(a.world.events().is_empty(), "{family:?}");
            // Spans sit inside the simulated period.
            let total = a.world.total_minutes();
            for s in &a.spans {
                assert!(s.onset < s.end && s.end <= total, "{family:?}: {s:?}");
            }
        }
    }

    #[test]
    fn carpet_bomb_covers_the_whole_prefix() {
        let base = WorldConfig::smoke_test(5);
        let s = compose(ScenarioFamily::CarpetBomb, &base);
        assert_eq!(s.spans.len(), s.world.customers().len());
        let victims: std::collections::HashSet<_> = s.spans.iter().map(|x| x.victim).collect();
        assert_eq!(victims.len(), s.spans.len(), "one span per victim");
    }

    #[test]
    fn multi_vector_overlaps_three_components_on_one_victim() {
        let base = WorldConfig::smoke_test(7);
        let s = compose(ScenarioFamily::MultiVector, &base);
        assert_eq!(s.world.vectors().len(), 3);
        let victims: std::collections::HashSet<_> =
            s.world.vectors().iter().map(|v| v.victim()).collect();
        assert_eq!(victims.len(), 1, "all components hit one victim");
        let types: std::collections::HashSet<_> =
            s.world.vectors().iter().map(|v| v.attack_type()).collect();
        assert_eq!(types.len(), 3, "three distinct flood components");
        // The components genuinely overlap in time.
        let span = s.spans[0];
        let m = span.onset + 20;
        assert!(s.world.vectors().iter().all(|v| v.bpm_at(m) > 0.0));
    }
}
