//! The streaming world: merges benign and attack traffic, applies sampling,
//! and exposes ground truth.

use crate::attack::{AttackEvent, InvalidEvent};
use crate::benign::BenignProfile;
use crate::botnet::{customer_addr, Ecosystem};
use crate::config::WorldConfig;
use crate::schedule::build_schedule;
use crate::vectors::AttackVector;
use std::collections::HashMap;
use xatu_netflow::addr::{Ipv4, Prefix, Subnet24};
use xatu_netflow::attack::Signature;
use xatu_netflow::binning::MinuteFlows;
use xatu_netflow::record::FlowRecord;
use xatu_netflow::sampler::{PacketSampler, SamplingMode};
use xatu_obs::Counter;

/// Id namespace for injected vectors, far above any scheduled event id, so
/// a vector's per-(id, minute) emission RNG never collides with an event's.
const VECTOR_ID_BASE: usize = 1 << 32;

/// The bin for `victim` in one minute's emission, if the victim is a
/// customer of this world. Replaces the old panicking `.find(..).unwrap()`
/// lookups: victims outside the customer set (or suppressed bins) resolve
/// to `None` instead of a panic.
pub fn victim_bin(bins: &[MinuteFlows], victim: Ipv4) -> Option<&MinuteFlows> {
    bins.iter().find(|b| b.customer == victim)
}

/// Signature-matching sampling-upscaled bytes delivered to `victim` in one
/// minute's bins; `0.0` when the victim emitted no flows this minute or is
/// not a customer at all.
pub fn victim_signature_bytes(bins: &[MinuteFlows], victim: Ipv4, sig: &Signature) -> f64 {
    victim_bin(bins, victim).map_or(0.0, |bin| {
        bin.flows
            .iter()
            .filter(|f| sig.matches(f))
            .map(|f| f.est_bytes() as f64)
            .sum()
    })
}

/// Generation-side telemetry, accumulated while the world streams.
///
/// Plain counters embedded in the (sequential) emission loop, so they are
/// deterministic in the seed and free to read; the pipeline folds them into
/// its obs registry after each streaming phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldObs {
    /// True flows generated before sampling (benign + attack).
    pub flows_generated: Counter,
    /// Attack-emitted flows before sampling.
    pub attack_flows_generated: Counter,
    /// Flows that survived the packet sampler.
    pub flows_emitted: Counter,
    /// Minutes stepped.
    pub minutes_stepped: Counter,
}

/// A running simulated ISP.
///
/// `Clone` is cheap relative to a re-simulation and is how the pipeline
/// checkpoints the stream (e.g. at the validation/test boundary).
#[derive(Clone)]
pub struct World {
    cfg: WorldConfig,
    customers: Vec<Ipv4>,
    benign: Vec<BenignProfile>,
    ecosystem: Ecosystem,
    schedule: Vec<AttackEvent>,
    /// Events indexed by victim for fast per-minute lookup.
    by_victim: HashMap<Ipv4, Vec<usize>>,
    /// Injected composable vectors (scenario matrix), in injection order.
    vectors: Vec<AttackVector>,
    /// Vectors indexed by victim for fast per-minute lookup.
    vec_by_victim: HashMap<Ipv4, Vec<usize>>,
    sampler: PacketSampler,
    minute: u32,
    obs: WorldObs,
}

impl World {
    /// Builds a world from a configuration. Deterministic in `cfg.seed`.
    pub fn new(cfg: WorldConfig) -> Self {
        let customers: Vec<Ipv4> = (0..cfg.n_customers).map(customer_addr).collect();
        let benign: Vec<BenignProfile> = customers
            .iter()
            .enumerate()
            .map(|(i, &c)| BenignProfile::new(&cfg, i, c))
            .collect();
        let ecosystem = Ecosystem::build(&cfg);
        let mut schedule = build_schedule(&cfg);
        // Re-anchor attack peaks to each victim's own traffic level: a
        // flood's defining property is overwhelming *this* victim (real
        // attacks run 10-1000x the target's normal volume), so peaks are
        // lognormal multiples of the victim's baseline (median ~12x)
        // rather than absolute rates. The absolute sample from the
        // schedule acts as a floor so attacks on tiny customers still
        // clear detector floors.
        {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let idx_of: HashMap<Ipv4, usize> =
                customers.iter().enumerate().map(|(i, &c)| (c, i)).collect();
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x45d9f3b).wrapping_add(3));
            for e in &mut schedule {
                if let Some(&vi) = idx_of.get(&e.victim) {
                    let base: f64 = benign[vi].base_bpm();
                    let z = {
                        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                        let u2: f64 = rng.random();
                        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                    };
                    let rel = 12.0 * (0.8 * z).exp();
                    e.peak_bpm = (base * rel).max(e.peak_bpm * 0.2);
                }
            }
        }
        let mut by_victim: HashMap<Ipv4, Vec<usize>> = HashMap::new();
        for (i, e) in schedule.iter().enumerate() {
            by_victim.entry(e.victim).or_default().push(i);
        }
        let sampler = PacketSampler::new(
            cfg.sampling_rate,
            SamplingMode::Systematic,
            cfg.seed.wrapping_add(0xABCD),
        );
        World {
            cfg,
            customers,
            benign,
            ecosystem,
            schedule,
            by_victim,
            vectors: Vec::new(),
            vec_by_victim: HashMap::new(),
            sampler,
            minute: 0,
            obs: WorldObs::default(),
        }
    }

    /// Generation telemetry accumulated so far.
    pub fn obs(&self) -> &WorldObs {
        &self.obs
    }

    /// Attacks in the ground-truth schedule.
    pub fn attacks_scheduled(&self) -> usize {
        self.schedule.len()
    }

    /// Already-sampled flows the sampler rejected (should stay 0; a
    /// non-zero value means a caller double-sampled).
    pub fn sampler_double_sample_rejects(&self) -> u64 {
        self.sampler.double_sample_rejects()
    }

    /// The configuration the world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Customer addresses, index-aligned with emission order.
    pub fn customers(&self) -> &[Ipv4] {
        &self.customers
    }

    /// The full ground-truth attack schedule, sorted by onset.
    pub fn events(&self) -> &[AttackEvent] {
        &self.schedule
    }

    /// The attacker ecosystem (for audits and signal studies).
    pub fn ecosystem(&self) -> &Ecosystem {
        &self.ecosystem
    }

    /// Blocklist feed entries: `(category index 0..11, /24)`.
    pub fn blocklist_feed(&self) -> Vec<(usize, Subnet24)> {
        self.ecosystem.blocklist_feed()
    }

    /// BGP announcements for the spoof classifier.
    pub fn routed_prefixes(&self) -> Vec<(Prefix, u32)> {
        Ecosystem::routed_prefixes()
    }

    /// Total minutes the world will simulate.
    pub fn total_minutes(&self) -> u32 {
        self.cfg.total_minutes()
    }

    /// The current minute (the one `step` will produce next).
    pub fn minute(&self) -> u32 {
        self.minute
    }

    /// True when the configured period is exhausted.
    pub fn finished(&self) -> bool {
        self.minute >= self.total_minutes()
    }

    /// Appends a scripted event (used by `scenario::single_udp_attack`).
    pub(crate) fn push_event_internal(&mut self, mut event: AttackEvent, id: usize) {
        event.id = id;
        let idx = self.schedule.len();
        self.by_victim.entry(event.victim).or_default().push(idx);
        self.schedule.push(event);
    }

    /// Injected composable vectors, in injection order.
    pub fn vectors(&self) -> &[AttackVector] {
        &self.vectors
    }

    /// The victim's benign baseline volume (bytes/minute), if a customer.
    /// Scenario composers size attack peaks relative to this.
    pub fn baseline_bpm(&self, customer: Ipv4) -> Option<f64> {
        self.customers
            .iter()
            .position(|&c| c == customer)
            .map(|i| self.benign[i].base_bpm())
    }

    /// Injects a composable attack vector. The carrier id is reassigned
    /// into the vector id namespace (unique per injection, disjoint from
    /// scheduled event ids), so each vector's emission RNG is independent
    /// of every co-resident event and vector. Rejects invalid vectors.
    pub fn inject_vector(&mut self, mut vector: AttackVector) -> Result<(), InvalidEvent> {
        vector.carrier.id = VECTOR_ID_BASE + self.vectors.len();
        vector.validate()?;
        let idx = self.vectors.len();
        self.vec_by_victim
            .entry(vector.victim())
            .or_default()
            .push(idx);
        self.vectors.push(vector);
        Ok(())
    }

    /// Advances one minute: returns one [`MinuteFlows`] bin per customer,
    /// post-sampling, in customer order.
    pub fn step(&mut self) -> Vec<MinuteFlows> {
        let minute = self.minute;
        assert!(
            minute < self.total_minutes(),
            "world stepped past its configured period"
        );
        self.minute += 1;
        self.obs.minutes_stepped.inc();

        let mut out = Vec::with_capacity(self.customers.len());
        let mut scratch: Vec<FlowRecord> = Vec::with_capacity(128);
        for (i, &customer) in self.customers.iter().enumerate() {
            scratch.clear();
            self.benign[i].emit(minute, &mut scratch);
            let benign_flows = scratch.len();
            if let Some(event_ids) = self.by_victim.get(&customer) {
                for &ei in event_ids {
                    let e = &self.schedule[ei];
                    // Cheap range check before the full emit.
                    if minute >= e.prep_start && minute < e.end {
                        e.emit(
                            minute,
                            &self.ecosystem.botnets[e.botnet_id],
                            &self.ecosystem.resolvers,
                            &mut scratch,
                        );
                    }
                }
            }
            if let Some(vec_ids) = self.vec_by_victim.get(&customer) {
                for &vi in vec_ids {
                    let v = &self.vectors[vi];
                    let (first, last) = v.active_range();
                    if minute >= first && minute < last {
                        v.emit(
                            minute,
                            &self.ecosystem.botnets[v.carrier.botnet_id],
                            &self.ecosystem.resolvers,
                            &mut scratch,
                        );
                    }
                }
            }
            self.obs.flows_generated.add(scratch.len() as u64);
            self.obs
                .attack_flows_generated
                .add((scratch.len() - benign_flows) as u64);
            let flows: Vec<FlowRecord> = scratch
                .iter()
                .filter_map(|f| self.sampler.sample(*f))
                .collect();
            self.obs.flows_emitted.add(flows.len() as u64);
            out.push(MinuteFlows {
                minute,
                customer,
                flows,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackPhase;
    use xatu_netflow::attack::AttackType;

    fn world(seed: u64) -> World {
        World::new(WorldConfig::smoke_test(seed))
    }

    #[test]
    fn step_yields_one_bin_per_customer() {
        let mut w = world(1);
        let bins = w.step();
        assert_eq!(bins.len(), w.customers().len());
        for (bin, &c) in bins.iter().zip(w.customers()) {
            assert_eq!(bin.customer, c);
            assert_eq!(bin.minute, 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = world(2);
        let mut b = world(2);
        for _ in 0..50 {
            let ba = a.step();
            let bb = b.step();
            for (x, y) in ba.iter().zip(&bb) {
                assert_eq!(x.flows, y.flows);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = world(3);
        let mut b = world(4);
        let fa: u64 = a.step().iter().map(|b| b.total_bytes()).sum();
        let fb: u64 = b.step().iter().map(|b| b.total_bytes()).sum();
        assert_ne!(fa, fb);
    }

    #[test]
    fn attack_minutes_carry_signature_matching_surge() {
        let mut w = world(5);
        let events: Vec<AttackEvent> = w.events().to_vec();
        assert!(!events.is_empty(), "smoke world should schedule attacks");
        let e = events
            .iter()
            .find(|e| e.phase(e.onset + e.ramp_minutes) == AttackPhase::Plateau)
            .expect("an event with a plateau")
            .clone();
        let sig = e.attack_type.signature();
        // Run to a plateau minute, measuring matching volume.
        let mut quiet = 0.0f64;
        let mut during = 0.0f64;
        let total = w.total_minutes();
        for m in 0..total.min(e.end + 1) {
            let bins = w.step();
            let vol = victim_signature_bytes(&bins, e.victim, &sig);
            if m + 1 == e.onset.saturating_sub(120) {
                quiet = vol;
            }
            if m >= e.onset + e.ramp_minutes && m < e.end {
                during = during.max(vol);
            }
        }
        assert!(
            during > 4.0 * quiet.max(1.0),
            "attack volume {during} vs quiet {quiet}"
        );
    }

    #[test]
    fn sampling_is_applied() {
        let mut w = world(6);
        let bins = w.step();
        for bin in bins {
            for f in bin.flows {
                assert_eq!(f.sampling, w.cfg.sampling_rate);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stepped past")]
    fn stepping_past_the_end_panics() {
        let mut w = world(7);
        for _ in 0..=w.total_minutes() {
            w.step();
        }
    }

    #[test]
    fn generation_telemetry_tracks_emission() {
        let mut w = world(9);
        let mut emitted = 0u64;
        for _ in 0..30 {
            emitted += w.step().iter().map(|b| b.flows.len() as u64).sum::<u64>();
        }
        let obs = w.obs();
        if xatu_obs::enabled() {
            assert_eq!(obs.minutes_stepped.get(), 30);
            assert_eq!(obs.flows_emitted.get(), emitted);
            assert!(obs.flows_generated.get() >= obs.flows_emitted.get());
            assert!(obs.flows_generated.get() >= obs.attack_flows_generated.get());
        } else {
            assert_eq!(obs.minutes_stepped.get(), 0);
        }
        assert_eq!(w.sampler_double_sample_rejects(), 0);
        assert_eq!(w.attacks_scheduled(), w.events().len());
    }

    #[test]
    fn victim_bin_lookups_are_graceful_for_absent_victims() {
        // Regression: the old `.find(..).unwrap()` pattern panicked when a
        // victim emitted no flows in a minute — e.g. a scripted event whose
        // victim is outside the customer set. The helpers resolve to
        // None / 0.0 instead.
        let mut w = world(11);
        let outsider = Ipv4::from_octets(203, 0, 113, 7);
        assert!(!w.customers().contains(&outsider));
        let mut e = w.events()[0].clone();
        e.victim = outsider;
        w.inject_event(e.clone()).expect("valid scripted event");
        let sig = e.attack_type.signature();
        for _ in 0..3 {
            let bins = w.step();
            assert!(victim_bin(&bins, outsider).is_none());
            assert_eq!(victim_signature_bytes(&bins, outsider, &sig), 0.0);
            // Present victims still resolve.
            let c = w.customers()[0];
            assert!(victim_bin(&bins, c).is_some());
        }
    }

    #[test]
    fn injected_vectors_emit_and_validate() {
        use crate::vectors::{AttackVector, VectorShape};
        let mut cfg = WorldConfig::smoke_test(12);
        cfg.n_chains = 0; // no background attacks polluting the volumes
        let mut w = World::new(cfg);
        let victim = w.customers()[0];
        let peak = 20.0 * w.baseline_bpm(victim).expect("victim is a customer");
        let carrier = AttackEvent {
            id: 0,
            victim,
            attack_type: AttackType::UdpFlood,
            botnet_id: 0,
            prep_start: 0,
            onset: 5,
            ramp_minutes: 0,
            end: 30,
            peak_bpm: peak,
            ramp_dr: 1.0,
            wave_id: None,
            spoofed_frac: 0.2,
            spoof_detectable_frac: 0.5,
            ramp_volume_scale: 1.0,
            prep_intensity: 1.0,
        };
        let sig = carrier.attack_type.signature();
        w.inject_vector(AttackVector {
            carrier: carrier.clone(),
            shape: VectorShape::Pulse {
                on: 3,
                off: 2,
                phase: 0,
            },
        })
        .expect("valid vector");
        assert_eq!(w.vectors().len(), 1);

        // Invalid vectors are rejected, not scheduled.
        let mut bad = carrier.clone();
        bad.end = bad.onset;
        assert!(w
            .inject_vector(AttackVector {
                carrier: bad,
                shape: VectorShape::Constant,
            })
            .is_err());
        assert_eq!(w.vectors().len(), 1);

        // The pulse train shows up in emitted volume: on-minutes loud,
        // off-minutes back at benign level.
        let mut on_vol = 0.0f64;
        let mut off_vol = 0.0f64;
        for m in 0..30 {
            let bins = w.step();
            let vol = victim_signature_bytes(&bins, victim, &sig);
            if m >= 5 {
                let t = m - 5;
                if t % 5 < 3 {
                    on_vol = on_vol.max(vol);
                } else {
                    off_vol = off_vol.max(vol);
                }
            }
        }
        assert!(
            on_vol > 4.0 * off_vol.max(1.0),
            "pulse on {on_vol} vs off {off_vol}"
        );
    }

    #[test]
    fn vector_emission_is_independent_of_co_resident_vectors() {
        use crate::vectors::{AttackVector, VectorShape};
        // Exact additivity: with sampling off, a vector's flows are
        // bit-identical whether it runs alone or with another vector on the
        // same victim — composed emission is the concatenation of parts.
        let mut cfg = WorldConfig::smoke_test(13);
        cfg.sampling_rate = 1;
        cfg.n_chains = 0;
        let build = |with_second: bool| -> World {
            let mut w = World::new(cfg);
            let victim = w.customers()[0];
            let mk = |ty: AttackType| AttackEvent {
                id: 0,
                victim,
                attack_type: ty,
                botnet_id: 0,
                prep_start: 0,
                onset: 5,
                ramp_minutes: 2,
                end: 40,
                peak_bpm: 4e7,
                ramp_dr: 1.0,
                wave_id: None,
                spoofed_frac: 0.2,
                spoof_detectable_frac: 0.5,
                ramp_volume_scale: 1.0,
                prep_intensity: 1.0,
            };
            w.inject_vector(AttackVector {
                carrier: mk(AttackType::TcpSyn),
                shape: VectorShape::Constant,
            })
            .unwrap();
            if with_second {
                w.inject_vector(AttackVector {
                    carrier: mk(AttackType::IcmpFlood),
                    shape: VectorShape::Pulse {
                        on: 3,
                        off: 2,
                        phase: 0,
                    },
                })
                .unwrap();
            }
            w
        };
        let mut solo = build(false);
        let mut both = build(true);
        let victim = solo.customers()[0];
        let syn = AttackType::TcpSyn.signature();
        for _ in 0..40 {
            let a = solo.step();
            let b = both.step();
            let fa: Vec<_> = victim_bin(&a, victim)
                .map(|bin| bin.flows.iter().filter(|f| syn.matches(f)).collect())
                .unwrap_or_default();
            let fb: Vec<_> = victim_bin(&b, victim)
                .map(|bin| bin.flows.iter().filter(|f| syn.matches(f)).collect())
                .unwrap_or_default();
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn blocklist_feed_covers_botnet_space() {
        let w = world(8);
        let feed = w.blocklist_feed();
        assert!(!feed.is_empty());
        for (cat, s) in feed {
            assert!(cat < 11);
            assert_eq!(s.base().octets()[0], 60);
        }
    }

    #[test]
    fn event_types_cover_multiple_kinds() {
        // With the default mix, a full-size schedule has ≥3 distinct types.
        let w = World::new(WorldConfig::default());
        let kinds: std::collections::HashSet<AttackType> =
            w.events().iter().map(|e| e.attack_type).collect();
        assert!(kinds.len() >= 3, "only {kinds:?}");
    }
}
