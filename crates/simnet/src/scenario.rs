//! Canned scenarios for experiments and examples.
//!
//! Each scenario is just a [`WorldConfig`] recipe (plus, for the scripted
//! single-attack case, a hand-built schedule) so experiments stay
//! reproducible and self-describing.

use crate::attack::AttackEvent;
use crate::botnet::customer_addr;
use crate::config::WorldConfig;
use crate::world::World;
use xatu_netflow::attack::AttackType;
use xatu_netflow::MINUTES_PER_DAY;

/// The default evaluation world (Fig 8/9/10 scale).
pub fn default_eval(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..WorldConfig::default()
    }
}

/// A small world for retrain-heavy sweeps (Fig 12/17/18).
pub fn sweep(seed: u64) -> WorldConfig {
    WorldConfig::small(seed)
}

/// The §6.4 volume-changing attacker: anomalous ramp traffic scaled by
/// `scale` (auxiliary preparation signals untouched).
pub fn volume_changing(seed: u64, scale: f64) -> WorldConfig {
    WorldConfig {
        seed,
        ramp_volume_scale: scale,
        ..WorldConfig::mini(seed)
    }
}

/// The §6.4 rate-changing attacker: ramp `dR` pinned to `dr`.
pub fn rate_changing(seed: u64, dr: f64) -> WorldConfig {
    WorldConfig {
        seed,
        ramp_dr_override: Some(dr),
        ..WorldConfig::mini(seed)
    }
}

/// An attacker that suppresses auxiliary signals entirely (no preparation
/// probing) — the evasion discussed in §8.
pub fn no_prep(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        prep_intensity: 0.0,
        ..WorldConfig::small(seed)
    }
}

/// A world with **no attacks at all** — the false-positive stress test.
pub fn benign_only(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        n_chains: 0,
        ..WorldConfig::small(seed)
    }
}

/// The Fig 2 case study: one scripted UDP flood against customer 0, with a
/// long preparation phase, embedded in a small world.
pub fn single_udp_attack(seed: u64) -> (World, AttackEvent) {
    let cfg = WorldConfig {
        seed,
        n_customers: 4,
        days: 12,
        n_chains: 0,
        ..WorldConfig::default()
    };
    let mut world = World::new(cfg);
    let onset = 10 * MINUTES_PER_DAY + 9; // minute 9 of day 10's window
    let event = AttackEvent {
        id: 0,
        victim: customer_addr(0),
        attack_type: AttackType::UdpFlood,
        botnet_id: 0,
        prep_start: onset - 10 * MINUTES_PER_DAY,
        onset,
        ramp_minutes: 6,
        end: onset + 25,
        peak_bpm: 20.0 * 1e6 * 60.0 / 8.0, // 20 Mbps
        ramp_dr: 1.0,
        wave_id: None,
        spoofed_frac: 0.2,
        spoof_detectable_frac: 0.5,
        ramp_volume_scale: 1.0,
        prep_intensity: 1.0,
    };
    world
        .inject_event(event.clone())
        .expect("the scripted Fig 2 event is valid");
    (world, event)
}

impl World {
    /// Injects a scripted event into the schedule (test/scenario support).
    /// Invalid events — zero-length, inverted, prep after onset, degenerate
    /// ramp rates, spoofed fractions outside `[0, 1]`, a botnet the world
    /// does not have — are rejected instead of silently scheduled.
    pub fn inject_event(&mut self, event: AttackEvent) -> Result<(), crate::attack::InvalidEvent> {
        event.validate()?;
        self.check_botnet(&event)?;
        let idx = self.events().len();
        self.push_event_internal(event, idx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackPhase;

    #[test]
    fn scripted_attack_emits_during_plateau() {
        let (mut world, event) = single_udp_attack(3);
        assert_eq!(world.events().len(), 1);
        let mut peak_seen = 0.0f64;
        let sig = event.attack_type.signature();
        for _ in 0..(event.end).min(world.total_minutes()) {
            let bins = world.step();
            // Graceful lookup: a victim with no flows this minute (or
            // outside the customer set) contributes 0.0, not a panic.
            let vol = crate::world::victim_signature_bytes(&bins, event.victim, &sig);
            peak_seen = peak_seen.max(vol);
        }
        assert!(
            peak_seen > event.peak_bpm * 0.5,
            "peak {peak_seen} vs {}",
            event.peak_bpm
        );
    }

    #[test]
    fn inject_event_rejects_invalid_events() {
        // Regression: scripted pulse trains could schedule zero-length or
        // inverted events that later panicked mid-stream.
        let (mut world, event) = single_udp_attack(4);
        let mut bad = event.clone();
        bad.end = bad.onset;
        assert!(world.inject_event(bad).is_err());
        let mut bad = event.clone();
        bad.ramp_dr = -1.0;
        assert!(world.inject_event(bad).is_err());
        assert_eq!(world.events().len(), 1, "rejected events are not kept");
    }

    #[test]
    fn scheduler_events_all_pass_validation() {
        // The generator's own schedule must satisfy the same contract
        // scripted events are held to.
        let w = World::new(WorldConfig::smoke_test(6));
        for e in w.events() {
            e.validate().expect("scheduled event validates");
        }
    }

    #[test]
    fn benign_only_schedules_nothing() {
        let w = World::new(benign_only(1));
        assert!(w.events().is_empty());
    }

    #[test]
    fn rate_changing_pins_dr() {
        let w = World::new(rate_changing(1, 2.5));
        for e in w.events() {
            assert_eq!(e.ramp_dr, 2.5);
        }
    }

    #[test]
    fn volume_changing_scales_ramp() {
        let w = World::new(volume_changing(1, 0.25));
        for e in w.events() {
            assert_eq!(e.ramp_volume_scale, 0.25);
        }
    }

    #[test]
    fn no_prep_silences_preparation_phase() {
        let w = World::new(no_prep(1));
        for e in w.events() {
            assert_eq!(e.prep_intensity, 0.0);
            assert_eq!(e.phase(e.prep_start), AttackPhase::Preparation);
        }
    }
}
