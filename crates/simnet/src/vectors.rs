//! Composable attack vectors: shape-modulated traffic on a carrier event.
//!
//! An [`AttackVector`] wraps a carrier [`AttackEvent`] — which supplies the
//! victim, attack type, botnet, preparation window and peak volume — with a
//! [`VectorShape`] that modulates the anomalous volume minute by minute.
//! Several vectors can overlap in time on one victim (multi-vector floods,
//! carpet-bombing across a prefix) because each vector emits from its own
//! `(carrier id, minute)`-seeded RNG: a vector's flows are bit-identical
//! whether it runs alone or alongside others, so composed emission is
//! exactly the concatenation of the individual emissions.
//!
//! The shapes are the evasive envelopes real attackers use against
//! threshold detectors:
//!
//! * [`VectorShape::Constant`] — the carrier's own ramp-then-plateau.
//! * [`VectorShape::Pulse`] — an on/off train; with the on-run shorter
//!   than a detector's sustain requirement, every off minute resets the
//!   detector's consecutive-anomaly counter.
//! * [`VectorShape::LowAndSlow`] — a slow multiplicative ramp across the
//!   whole anomalous window; with per-minute growth below what an EWMA
//!   baseline absorbs, the volume/baseline ratio stays under the anomaly
//!   multiplier forever.

use crate::attack::{AttackEvent, AttackPhase, InvalidEvent, RAMP_DR_FLOOR};
use crate::botnet::Botnet;
use xatu_netflow::addr::{Ipv4, Subnet24};
use xatu_netflow::attack::AttackType;
use xatu_netflow::record::FlowRecord;

/// How a vector modulates its carrier's anomalous volume over time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VectorShape {
    /// The carrier's own ramp-then-plateau envelope, unmodified.
    Constant,
    /// An on/off pulse train over the anomalous span: `on` minutes at the
    /// carrier's envelope volume, then `off` minutes of silence, repeating.
    Pulse {
        /// Minutes per burst (≥ 1).
        on: u32,
        /// Silent minutes between bursts (≥ 1).
        off: u32,
        /// Phase offset into the cycle at the onset minute.
        phase: u32,
    },
    /// A slow multiplicative ramp spanning the whole anomalous window:
    /// volume multiplies by `1 + growth` each minute and lands exactly on
    /// the carrier's peak at the final minute before `end`.
    LowAndSlow {
        /// Per-minute fractional growth (finite, > 0).
        growth: f64,
    },
}

/// One composable attack vector: a carrier event plus a volume shape.
#[derive(Clone, Debug)]
pub struct AttackVector {
    /// Supplies victim, type, botnet, prep window, peak and RNG identity.
    pub carrier: AttackEvent,
    /// Modulates the carrier's anomalous volume.
    pub shape: VectorShape,
}

impl AttackVector {
    /// Validates the carrier and the shape parameters.
    pub fn validate(&self) -> Result<(), InvalidEvent> {
        self.carrier.validate()?;
        match self.shape {
            VectorShape::Constant => Ok(()),
            VectorShape::Pulse { on, off, .. } => {
                if on == 0 || off == 0 {
                    // A degenerate train is either always-on (Constant) or
                    // always-off (no attack); both are misconfigurations.
                    Err(InvalidEvent::EmptyAttack {
                        onset: self.carrier.onset,
                        end: self.carrier.onset.saturating_add(on),
                    })
                } else {
                    Ok(())
                }
            }
            VectorShape::LowAndSlow { growth } => {
                if growth.is_finite() && growth > 0.0 {
                    Ok(())
                } else {
                    Err(InvalidEvent::BadRampRate(growth))
                }
            }
        }
    }

    /// The victim this vector targets.
    pub fn victim(&self) -> Ipv4 {
        self.carrier.victim
    }

    /// The attack type of the emitted flows.
    pub fn attack_type(&self) -> AttackType {
        self.carrier.attack_type
    }

    /// `[first, last)` minutes where the vector can emit anything at all.
    pub fn active_range(&self) -> (u32, u32) {
        (self.carrier.prep_start, self.carrier.end)
    }

    /// Shape-modulated anomalous volume (bytes/minute) at `minute`.
    pub fn bpm_at(&self, minute: u32) -> f64 {
        let attacking = matches!(
            self.carrier.phase(minute),
            AttackPhase::RampUp | AttackPhase::Plateau
        );
        if !attacking {
            return 0.0;
        }
        match self.shape {
            VectorShape::Constant => self.carrier.anomalous_bpm(minute),
            VectorShape::Pulse { on, off, phase } => {
                let t = minute - self.carrier.onset;
                let cycle = on.saturating_add(off).max(1);
                if (t.wrapping_add(phase)) % cycle < on.max(1) {
                    self.carrier.anomalous_bpm(minute)
                } else {
                    0.0
                }
            }
            VectorShape::LowAndSlow { growth } => {
                let d = self.carrier.duration() as f64;
                let t = (minute - self.carrier.onset) as f64;
                let g = if growth.is_finite() {
                    growth.max(RAMP_DR_FLOOR)
                } else {
                    RAMP_DR_FLOOR
                };
                // Lands exactly on the peak at the final minute (t = d-1).
                self.carrier.peak_bpm * (1.0 + g).powf(t - (d - 1.0))
            }
        }
    }

    /// Emits the vector's flows for one minute. Preparation probing is the
    /// carrier's; attack minutes emit at the shape-modulated volume.
    ///
    /// # Panics
    /// As [`AttackEvent::emit`].
    pub fn emit(
        &self,
        minute: u32,
        botnet: &Botnet,
        resolvers: &[Subnet24],
        out: &mut Vec<FlowRecord>,
    ) {
        match self.carrier.phase(minute) {
            AttackPhase::Inactive => {}
            AttackPhase::Preparation => self.carrier.emit_prep(minute, botnet, resolvers, out),
            AttackPhase::RampUp | AttackPhase::Plateau => {
                self.carrier
                    .emit_attack_volume(minute, self.bpm_at(minute), botnet, resolvers, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::botnet::Ecosystem;
    use crate::config::WorldConfig;

    fn carrier() -> AttackEvent {
        AttackEvent {
            id: 3,
            victim: Ipv4::from_octets(20, 0, 0, 1),
            attack_type: AttackType::TcpSyn,
            botnet_id: 0,
            prep_start: 0,
            onset: 1000,
            ramp_minutes: 4,
            end: 1060,
            peak_bpm: 5e7,
            ramp_dr: 1.0,
            wave_id: None,
            spoofed_frac: 0.2,
            spoof_detectable_frac: 0.5,
            ramp_volume_scale: 1.0,
            prep_intensity: 1.0,
        }
    }

    fn eco() -> Ecosystem {
        Ecosystem::build(&WorldConfig::smoke_test(1))
    }

    #[test]
    fn constant_shape_matches_carrier() {
        let v = AttackVector {
            carrier: carrier(),
            shape: VectorShape::Constant,
        };
        for m in 990..1070 {
            assert_eq!(v.bpm_at(m), v.carrier.anomalous_bpm(m), "minute {m}");
        }
    }

    #[test]
    fn pulse_duty_cycle_is_exact() {
        let v = AttackVector {
            carrier: carrier(),
            shape: VectorShape::Pulse {
                on: 3,
                off: 2,
                phase: 0,
            },
        };
        // Plateau minutes: on for 3, off for 2, repeating from the onset.
        for t in 10..40u32 {
            let m = 1000 + t;
            let expect_on = t % 5 < 3;
            let bpm = v.bpm_at(m);
            if expect_on {
                assert_eq!(bpm, v.carrier.anomalous_bpm(m), "t={t}");
            } else {
                assert_eq!(bpm, 0.0, "t={t}");
            }
        }
        // Outside the anomalous window nothing pulses.
        assert_eq!(v.bpm_at(999), 0.0);
        assert_eq!(v.bpm_at(1060), 0.0);
    }

    #[test]
    fn pulse_off_minutes_emit_no_attack_flows() {
        let v = AttackVector {
            carrier: carrier(),
            shape: VectorShape::Pulse {
                on: 3,
                off: 2,
                phase: 0,
            },
        };
        let eco = eco();
        let mut on_flows = Vec::new();
        let mut off_flows = Vec::new();
        v.emit(1010, &eco.botnets[0], &eco.resolvers, &mut on_flows);
        v.emit(1013, &eco.botnets[0], &eco.resolvers, &mut off_flows);
        assert!(!on_flows.is_empty());
        assert!(off_flows.is_empty());
    }

    #[test]
    fn low_and_slow_grows_multiplicatively_to_peak() {
        let v = AttackVector {
            carrier: carrier(),
            shape: VectorShape::LowAndSlow { growth: 0.08 },
        };
        let last = 1059;
        assert!((v.bpm_at(last) - v.carrier.peak_bpm).abs() < 1.0);
        let mut prev = v.bpm_at(1000);
        assert!(prev > 0.0 && prev < v.carrier.peak_bpm);
        for m in 1001..=last {
            let cur = v.bpm_at(m);
            assert!(((cur / prev) - 1.08).abs() < 1e-9, "minute {m}");
            prev = cur;
        }
    }

    #[test]
    fn vector_validation_rejects_degenerate_shapes() {
        let ok = AttackVector {
            carrier: carrier(),
            shape: VectorShape::Pulse {
                on: 3,
                off: 2,
                phase: 1,
            },
        };
        assert_eq!(ok.validate(), Ok(()));
        let bad_pulse = AttackVector {
            carrier: carrier(),
            shape: VectorShape::Pulse {
                on: 0,
                off: 2,
                phase: 0,
            },
        };
        assert!(bad_pulse.validate().is_err());
        let bad_slow = AttackVector {
            carrier: carrier(),
            shape: VectorShape::LowAndSlow { growth: 0.0 },
        };
        assert!(bad_slow.validate().is_err());
        let mut bad_carrier = ok.clone();
        bad_carrier.carrier.end = bad_carrier.carrier.onset;
        assert!(bad_carrier.validate().is_err());
    }

    #[test]
    fn emission_is_independent_of_minute_order() {
        let v = AttackVector {
            carrier: carrier(),
            shape: VectorShape::Constant,
        };
        let eco = eco();
        let mut a = Vec::new();
        let mut b = Vec::new();
        v.emit(1020, &eco.botnets[0], &eco.resolvers, &mut a);
        v.emit(1021, &eco.botnets[0], &eco.resolvers, &mut b);
        let mut a2 = Vec::new();
        v.emit(1020, &eco.botnets[0], &eco.resolvers, &mut a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
