//! Attack events and their traffic emission.
//!
//! An [`AttackEvent`] has three traffic phases:
//!
//! * **Preparation** (`prep_start .. onset`): a growing subset of the
//!   botnet sends low-rate probes at the future victim. Participation and
//!   rate intensify as onset approaches (reproducing Fig 15's rising
//!   re-appearance curves).
//! * **Ramp-up** (`onset .. onset + ramp_minutes`): anomalous traffic grows
//!   from a small seed by a factor `(1 + dR)` per minute (Appendix G's
//!   `dR = max |dv/dt|` parameterisation) until it reaches the peak.
//! * **Plateau** (`.. end`): full-rate attack until the event ends.
//!
//! Emission is deterministic given the event and minute.

use crate::botnet::{Botnet, Ecosystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_netflow::record::{FlowRecord, Protocol, TcpFlags};
use xatu_netflow::MINUTES_PER_DAY;

/// SplitMix64 finalizer used for deterministic per-(event, subnet, day)
/// participation gating.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Smallest ramp rate [`AttackEvent::anomalous_bpm`] will honor.
///
/// Scripted events should pass [`AttackEvent::validate`]; this floor is the
/// defensive backstop for events that reach emission unvalidated. A `dR` at
/// or below `-1` turns the `powf` base non-positive (`±∞` at exactly `-1`,
/// sign-alternating garbage below it) and `dR == 0` flattens the whole ramp
/// at full peak; clamping to a tiny positive rate keeps the ramp finite,
/// non-negative, and strictly below the peak.
pub const RAMP_DR_FLOOR: f64 = 1e-3;

/// Why a scripted [`AttackEvent`] was rejected by [`AttackEvent::validate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvalidEvent {
    /// `end <= onset`: the anomalous phase would be empty or inverted.
    EmptyAttack {
        /// Ground-truth onset minute.
        onset: u32,
        /// Exclusive end minute.
        end: u32,
    },
    /// `prep_start > onset`: preparation cannot begin after the onset.
    PrepAfterOnset {
        /// First preparation minute.
        prep_start: u32,
        /// Ground-truth onset minute.
        onset: u32,
    },
    /// The ramp is longer than the attack itself.
    RampExceedsDuration {
        /// Scheduled ramp length, minutes.
        ramp_minutes: u32,
        /// Onset-to-end duration, minutes.
        duration: u32,
    },
    /// `ramp_dr` is non-finite or not strictly positive (with a non-empty
    /// ramp, such a rate cannot grow toward the peak).
    BadRampRate(f64),
    /// `peak_bpm` is non-finite or negative.
    BadPeak(f64),
    /// `spoofed_frac` or `spoof_detectable_frac` is not a probability in
    /// `[0, 1]`.
    BadFraction(f64),
    /// `botnet_id` names no botnet of the world it is injected into.
    UnknownBotnet {
        /// The event's botnet id.
        botnet_id: usize,
        /// Botnets in the world's ecosystem.
        botnets: usize,
    },
}

impl std::fmt::Display for InvalidEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidEvent::EmptyAttack { onset, end } => {
                write!(f, "empty or inverted attack: onset {onset}, end {end}")
            }
            InvalidEvent::PrepAfterOnset { prep_start, onset } => {
                write!(f, "preparation starts after onset: {prep_start} > {onset}")
            }
            InvalidEvent::RampExceedsDuration {
                ramp_minutes,
                duration,
            } => write!(f, "ramp of {ramp_minutes} min exceeds duration {duration}"),
            InvalidEvent::BadRampRate(dr) => write!(f, "invalid ramp rate dR = {dr}"),
            InvalidEvent::BadPeak(p) => write!(f, "invalid peak volume {p}"),
            InvalidEvent::BadFraction(p) => write!(f, "spoofed fraction {p} is not in [0, 1]"),
            InvalidEvent::UnknownBotnet { botnet_id, botnets } => {
                write!(f, "botnet {botnet_id} does not exist ({botnets} botnets)")
            }
        }
    }
}

impl std::error::Error for InvalidEvent {}

/// Which phase an attack event is in at a given minute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackPhase {
    /// Before preparation begins (or after the end).
    Inactive,
    /// Low-rate probing by future attack sources.
    Preparation,
    /// Anomalous traffic ramping toward the peak.
    RampUp,
    /// Full-rate attack.
    Plateau,
}

/// One scheduled attack with full ground truth.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttackEvent {
    /// Stable id.
    pub id: usize,
    /// Victim customer.
    pub victim: Ipv4,
    /// Attack type.
    pub attack_type: AttackType,
    /// Botnet conducting the attack.
    pub botnet_id: usize,
    /// First minute of preparation probing.
    pub prep_start: u32,
    /// Ground-truth onset of anomalous traffic.
    pub onset: u32,
    /// Minutes from onset until peak rate is reached.
    pub ramp_minutes: u32,
    /// Last minute of the attack (exclusive).
    pub end: u32,
    /// Peak anomalous volume, bytes/minute.
    pub peak_bpm: f64,
    /// Ramp rate `dR` (rate multiplies by `1 + dR` each ramp minute).
    pub ramp_dr: f64,
    /// Correlated-wave id, if this attack is part of a multi-customer wave.
    pub wave_id: Option<usize>,
    /// Fraction of attack flows with spoofed sources.
    pub spoofed_frac: f64,
    /// Of the spoofed flows, the fraction that are detectably spoofed.
    pub spoof_detectable_frac: f64,
    /// Scale on ramp-phase volume (§6.4 volume-changing attacker).
    pub ramp_volume_scale: f64,
    /// Scale on preparation probing (0 = no auxiliary signals).
    pub prep_intensity: f64,
}

impl AttackEvent {
    /// Checks the event for the degenerate shapes scripted pulse trains
    /// can construct. The scheduler's own events always pass; scripted
    /// events should be validated before injection ([`crate::World::inject_event`]
    /// does so).
    pub fn validate(&self) -> Result<(), InvalidEvent> {
        if !self.peak_bpm.is_finite() || self.peak_bpm < 0.0 {
            return Err(InvalidEvent::BadPeak(self.peak_bpm));
        }
        if self.end <= self.onset {
            return Err(InvalidEvent::EmptyAttack {
                onset: self.onset,
                end: self.end,
            });
        }
        if self.prep_start > self.onset {
            return Err(InvalidEvent::PrepAfterOnset {
                prep_start: self.prep_start,
                onset: self.onset,
            });
        }
        if self.ramp_minutes > self.duration() {
            return Err(InvalidEvent::RampExceedsDuration {
                ramp_minutes: self.ramp_minutes,
                duration: self.duration(),
            });
        }
        if self.ramp_minutes > 0 && !(self.ramp_dr.is_finite() && self.ramp_dr > 0.0) {
            return Err(InvalidEvent::BadRampRate(self.ramp_dr));
        }
        // Emission draws a Bernoulli trial on each; outside `[0, 1]` (NaN
        // included) the draw panics.
        for p in [self.spoofed_frac, self.spoof_detectable_frac] {
            if !(0.0..=1.0).contains(&p) {
                return Err(InvalidEvent::BadFraction(p));
            }
        }
        Ok(())
    }

    /// Attack duration from onset to end, minutes. Inverted events
    /// (`end < onset`) saturate to 0 rather than wrapping.
    pub fn duration(&self) -> u32 {
        self.end.saturating_sub(self.onset)
    }

    /// The phase at `minute`.
    ///
    /// Boundary semantics (pinned by tests):
    /// * `end <= onset` — the event has no anomalous phase at all; minutes
    ///   in `[prep_start, end)` are `Preparation`, everything else
    ///   `Inactive`. It never reaches `RampUp` or `Plateau`.
    /// * `ramp_minutes == 0` — the onset minute goes straight to `Plateau`.
    /// * `prep_start == onset` — there is no preparation window; the event
    ///   is `Inactive` right up to the onset.
    pub fn phase(&self, minute: u32) -> AttackPhase {
        if minute < self.prep_start || minute >= self.end {
            AttackPhase::Inactive
        } else if minute < self.onset {
            AttackPhase::Preparation
        } else if minute < self.onset.saturating_add(self.ramp_minutes) {
            AttackPhase::RampUp
        } else {
            AttackPhase::Plateau
        }
    }

    /// Anomalous volume (bytes/minute) at `minute`, before spoofing split.
    pub fn anomalous_bpm(&self, minute: u32) -> f64 {
        match self.phase(minute) {
            AttackPhase::Inactive | AttackPhase::Preparation => 0.0,
            AttackPhase::RampUp => {
                // Seed volume grows by (1 + dR) per minute and is scaled so
                // the ramp lands exactly on peak_bpm at ramp_minutes.
                let t = (minute - self.onset) as f64;
                let n = self.ramp_minutes as f64;
                let dr = if self.ramp_dr.is_finite() {
                    self.ramp_dr.max(RAMP_DR_FLOOR)
                } else {
                    RAMP_DR_FLOOR
                };
                let growth = (1.0 + dr).powf(t - n); // < 1 while t < n
                self.peak_bpm * growth * self.ramp_volume_scale
            }
            AttackPhase::Plateau => self.peak_bpm,
        }
    }

    /// Fraction of the botnet participating in preparation at `minute`
    /// (rises from ~0.15 ten days out to ~0.9 the day before; Fig 15).
    pub fn prep_participation(&self, minute: u32) -> f64 {
        if self.phase(minute) != AttackPhase::Preparation {
            return 0.0;
        }
        let days_out = (self.onset - minute) as f64 / MINUTES_PER_DAY as f64;
        let total_days = (self.onset - self.prep_start) as f64 / MINUTES_PER_DAY as f64;
        let frac = 1.0 - days_out / total_days.max(1e-9);
        (0.15 + 0.75 * frac).clamp(0.0, 1.0)
    }

    /// Emits the event's flows for one minute.
    ///
    /// # Panics
    /// Panics if a DNS amplification event is given no `resolvers`, if
    /// `botnet` has no subnets, or if the event's spoofed fractions are not
    /// in `[0, 1]` ([`AttackEvent::validate`] rejects those).
    pub fn emit(
        &self,
        minute: u32,
        botnet: &Botnet,
        resolvers: &[xatu_netflow::addr::Subnet24],
        out: &mut Vec<FlowRecord>,
    ) {
        match self.phase(minute) {
            AttackPhase::Inactive => {}
            AttackPhase::Preparation => self.emit_prep(minute, botnet, resolvers, out),
            AttackPhase::RampUp | AttackPhase::Plateau => {
                self.emit_attack(minute, botnet, resolvers, out)
            }
        }
    }

    fn rng_for(&self, minute: u32) -> StdRng {
        StdRng::seed_from_u64(
            (self.id as u64).wrapping_mul(0x5851_F42D_4C95_7F2D) ^ (minute as u64) << 20,
        )
    }

    pub(crate) fn emit_prep(
        &self,
        minute: u32,
        botnet: &Botnet,
        resolvers: &[xatu_netflow::addr::Subnet24],
        out: &mut Vec<FlowRecord>,
    ) {
        if self.prep_intensity <= 0.0 {
            return;
        }
        let mut rng = self.rng_for(minute);
        let participation = self.prep_participation(minute) * self.prep_intensity;
        // Probes are *weak and intermittent* (§3.1): each participating
        // subnet sends only a few probes per hour even right before the
        // onset. The auxiliary signal's strength at attack time comes from
        // the attack volume itself flowing from known-bad sources, not
        // from the probing.
        let hours_out = (self.onset - minute) as f64 / 60.0;
        let probe_prob = (0.02 + 0.08 / (1.0 + hours_out / 12.0)).min(0.1);
        let sources: &dyn Fn(usize, &mut StdRng) -> Ipv4 =
            if self.attack_type == AttackType::DnsAmplification {
                &|k, rng| resolvers[k % resolvers.len()].host(rng.random_range(1..255))
            } else {
                &|k, rng| botnet.host(k, rng.random_range(1..255))
            };
        let n_subnets = if self.attack_type == AttackType::DnsAmplification {
            resolvers.len()
        } else {
            botnet.subnets.len()
        };
        let day = minute / MINUTES_PER_DAY;
        for k in 0..n_subnets {
            // Participation gates *which* subnets are active on a given
            // day (deterministically per event/subnet/day), reproducing
            // Fig 15's rising re-appearance curve: far from the onset only
            // a small subset of the eventual attackers probes at all.
            let gate = splitmix64((self.id as u64) << 32 ^ (k as u64) << 16 ^ day as u64) as f64
                / u64::MAX as f64;
            if gate >= participation {
                continue;
            }
            if !rng.random_bool(probe_prob.clamp(0.0, 1.0)) {
                continue;
            }
            let src = sources(k, &mut rng);
            let bytes = rng.random_range(200..2000u64);
            out.push(self.flow_of_type(minute, src, bytes, &mut rng));
        }
    }

    fn emit_attack(
        &self,
        minute: u32,
        botnet: &Botnet,
        resolvers: &[xatu_netflow::addr::Subnet24],
        out: &mut Vec<FlowRecord>,
    ) {
        self.emit_attack_volume(minute, self.anomalous_bpm(minute), botnet, resolvers, out);
    }

    /// Emits one minute of attack flows at an explicit anomalous volume —
    /// the shared kernel behind [`AttackEvent::emit`] and the shape-
    /// modulated [`crate::vectors::AttackVector`] emission. Deterministic
    /// in `(self.id, minute)` and independent of co-resident events.
    pub(crate) fn emit_attack_volume(
        &self,
        minute: u32,
        volume: f64,
        botnet: &Botnet,
        resolvers: &[xatu_netflow::addr::Subnet24],
        out: &mut Vec<FlowRecord>,
    ) {
        let mut rng = self.rng_for(minute);
        if !volume.is_finite() || volume < 1.0 {
            return;
        }
        let n_flows = rng.random_range(40..80usize);
        let per_flow = volume / n_flows as f64;
        for k in 0..n_flows {
            let src = if self.attack_type == AttackType::DnsAmplification {
                // Reflection: sources are open resolvers, never spoofed
                // from the victim's viewpoint.
                resolvers[k % resolvers.len()].host(rng.random_range(1..255))
            } else if rng.random_bool(self.spoofed_frac) {
                // Spoofed addresses come from a bounded per-event pool
                // (attack tools cycle a limited spoof range); unbounded
                // per-flow randomness would swamp the distinct-source
                // statistics that Fig 4(a) measures.
                let pooled = (self.id as u64) << 8 | (k % 24) as u64;
                if rng.random_bool(self.spoof_detectable_frac) {
                    Ecosystem::spoofed_detectable(pooled)
                } else {
                    Ecosystem::spoofed_undetectable(pooled)
                }
            } else {
                botnet.host(k, rng.random_range(1..255))
            };
            let bytes = (per_flow * rng.random_range(0.6..1.4)).max(60.0) as u64;
            out.push(self.flow_of_type(minute, src, bytes, &mut rng));
        }
    }

    /// Builds one flow of this attack's type.
    fn flow_of_type(&self, minute: u32, src: Ipv4, bytes: u64, rng: &mut StdRng) -> FlowRecord {
        let (proto, src_port, dst_port, flags, bytes_per_pkt) = match self.attack_type {
            AttackType::UdpFlood => (
                Protocol::Udp,
                rng.random_range(1024..65535),
                rng.random_range(1..65535),
                TcpFlags::default(),
                900,
            ),
            AttackType::TcpAck => (
                Protocol::Tcp,
                rng.random_range(1024..65535),
                rng.random_range(1..1024),
                TcpFlags::ACK,
                80,
            ),
            AttackType::TcpSyn => (
                Protocol::Tcp,
                rng.random_range(1024..65535),
                if rng.random_bool(0.5) { 80 } else { 443 },
                TcpFlags::SYN,
                60,
            ),
            AttackType::TcpRst => (
                Protocol::Tcp,
                rng.random_range(1024..65535),
                rng.random_range(1..1024),
                TcpFlags::RST,
                60,
            ),
            AttackType::DnsAmplification => (
                Protocol::Udp,
                53,
                rng.random_range(1024..65535),
                TcpFlags::default(),
                1200,
            ),
            AttackType::IcmpFlood => (Protocol::Icmp, 0, 0, TcpFlags::default(), 1000),
        };
        FlowRecord {
            minute,
            src,
            dst: self.victim,
            proto,
            src_port,
            dst_port,
            tcp_flags: flags,
            bytes,
            packets: (bytes / bytes_per_pkt).max(1),
            sampling: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn event(ty: AttackType) -> AttackEvent {
        AttackEvent {
            id: 1,
            victim: Ipv4::from_octets(20, 0, 0, 1),
            attack_type: ty,
            botnet_id: 0,
            prep_start: 0,
            onset: 14_400, // day 10
            ramp_minutes: 6,
            end: 14_430,
            peak_bpm: 1e8,
            ramp_dr: 1.0,
            wave_id: None,
            spoofed_frac: 0.3,
            spoof_detectable_frac: 0.5,
            ramp_volume_scale: 1.0,
            prep_intensity: 1.0,
        }
    }

    fn botnet() -> Botnet {
        let eco = Ecosystem::build(&WorldConfig::smoke_test(1));
        eco.botnets[0].clone()
    }

    fn resolvers() -> Vec<xatu_netflow::addr::Subnet24> {
        Ecosystem::build(&WorldConfig::smoke_test(1)).resolvers
    }

    #[test]
    fn phases_are_ordered() {
        let e = event(AttackType::UdpFlood);
        assert_eq!(e.phase(0), AttackPhase::Preparation);
        assert_eq!(e.phase(14_399), AttackPhase::Preparation);
        assert_eq!(e.phase(14_400), AttackPhase::RampUp);
        assert_eq!(e.phase(14_406), AttackPhase::Plateau);
        assert_eq!(e.phase(14_430), AttackPhase::Inactive);
        assert_eq!(e.duration(), 30);
    }

    #[test]
    fn ramp_reaches_peak_exactly() {
        let e = event(AttackType::UdpFlood);
        let at_peak = e.anomalous_bpm(14_406);
        assert!((at_peak - 1e8).abs() < 1.0);
        // During ramp, strictly below the peak and growing.
        let v0 = e.anomalous_bpm(14_400);
        let v3 = e.anomalous_bpm(14_403);
        assert!(v0 < v3 && v3 < at_peak);
        // dR=1 means doubling per minute.
        assert!((v3 / v0 - 8.0).abs() < 1e-6);
    }

    #[test]
    fn prep_participation_rises_toward_onset() {
        let e = event(AttackType::UdpFlood);
        let early = e.prep_participation(0);
        let late = e.prep_participation(14_000);
        assert!(late > early, "late={late} early={early}");
        assert!(early >= 0.15 && late <= 0.9 + 1e-9);
    }

    #[test]
    fn prep_participation_gates_subnet_presence_by_day() {
        // Fig 15's mechanism: far from the onset only a subset of the
        // eventual attackers probes; close to it, most do.
        let e = event(AttackType::UdpFlood);
        let b = botnet();
        let r = resolvers();
        let distinct_on_day = |day: u32| -> usize {
            let mut set = std::collections::HashSet::new();
            for m in day * 1440..(day + 1) * 1440 {
                let mut flows = Vec::new();
                e.emit(m, &b, &r, &mut flows);
                for f in flows {
                    set.insert(f.src.subnet24());
                }
            }
            set.len()
        };
        let early = distinct_on_day(0); // ~10 days out
        let late = distinct_on_day(9); // the day before onset
        assert!(
            late > early,
            "participation must rise toward the onset: early={early} late={late}"
        );
        assert!(
            early < b.subnets.len(),
            "far-out probing must not include every subnet: {early}"
        );
    }

    #[test]
    fn prep_flows_come_from_botnet_space() {
        let e = event(AttackType::UdpFlood);
        let b = botnet();
        let r = resolvers();
        let mut flows = Vec::new();
        for m in 13_000..13_200 {
            e.emit(m, &b, &r, &mut flows);
        }
        assert!(!flows.is_empty(), "prep probes expected");
        assert!(flows.iter().all(|f| f.src.octets()[0] == 60));
        // Probes are small.
        assert!(flows.iter().all(|f| f.bytes < 2000));
    }

    #[test]
    fn attack_flows_match_signature() {
        for ty in AttackType::ALL {
            let mut e = event(ty);
            e.spoofed_frac = 0.0;
            let b = botnet();
            let r = resolvers();
            let mut flows = Vec::new();
            e.emit(14_410, &b, &r, &mut flows);
            let sig = ty.signature();
            assert!(!flows.is_empty(), "{ty:?}");
            assert!(
                flows.iter().all(|f| sig.matches(f)),
                "{ty:?} flows must match own signature"
            );
        }
    }

    #[test]
    fn plateau_volume_is_near_peak() {
        let e = event(AttackType::TcpAck);
        let b = botnet();
        let r = resolvers();
        let mut flows = Vec::new();
        e.emit(14_415, &b, &r, &mut flows);
        let vol: f64 = flows.iter().map(|f| f.bytes as f64).sum();
        assert!((vol / 1e8 - 1.0).abs() < 0.25, "vol={vol}");
    }

    #[test]
    fn dns_amp_sources_are_resolvers() {
        let e = event(AttackType::DnsAmplification);
        let b = botnet();
        let r = resolvers();
        let mut flows = Vec::new();
        e.emit(14_410, &b, &r, &mut flows);
        assert!(flows.iter().all(|f| f.src.octets()[0] == 70));
        assert!(flows.iter().all(|f| f.src_port == 53));
    }

    #[test]
    fn spoofed_fraction_appears_for_syn() {
        let mut e = event(AttackType::TcpSyn);
        e.spoofed_frac = 1.0;
        e.spoof_detectable_frac = 1.0;
        let b = botnet();
        let r = resolvers();
        let mut flows = Vec::new();
        e.emit(14_410, &b, &r, &mut flows);
        assert!(flows
            .iter()
            .all(|f| f.src.is_bogon() || f.src.octets()[0] == 90));
    }

    #[test]
    fn zero_prep_intensity_silences_preparation() {
        let mut e = event(AttackType::UdpFlood);
        e.prep_intensity = 0.0;
        let b = botnet();
        let r = resolvers();
        let mut flows = Vec::new();
        for m in 10_000..12_000 {
            e.emit(m, &b, &r, &mut flows);
        }
        assert!(flows.is_empty());
    }

    #[test]
    fn ramp_volume_scale_shrinks_ramp_only() {
        let mut e = event(AttackType::UdpFlood);
        e.ramp_volume_scale = 0.1;
        assert!(e.anomalous_bpm(14_403) < event(AttackType::UdpFlood).anomalous_bpm(14_403));
        // Plateau unaffected.
        assert_eq!(e.anomalous_bpm(14_415), 1e8);
    }

    #[test]
    fn ramp_dr_edge_cases_stay_finite_and_bounded() {
        // Regression: pre-fix, dR = -1 made the powf base 0 with a negative
        // exponent (+∞), dR < -1 produced sign-alternating values outside
        // [0, peak], and dR = 0 flattened the whole ramp at full peak.
        for dr in [-2.0, -1.5, -1.0, -0.5, 0.0, f64::NAN, f64::INFINITY] {
            let mut e = event(AttackType::UdpFlood);
            e.ramp_dr = dr;
            for m in e.onset..e.onset + e.ramp_minutes {
                let bpm = e.anomalous_bpm(m);
                assert!(bpm.is_finite(), "dr={dr} minute={m}: bpm={bpm}");
                assert!(
                    (0.0..=e.peak_bpm).contains(&bpm),
                    "dr={dr} minute={m}: bpm={bpm} outside [0, {}]",
                    e.peak_bpm
                );
                assert!(
                    bpm < e.peak_bpm,
                    "dr={dr} minute={m}: ramp flattened at the peak"
                );
            }
            // Emission must survive the degenerate rate too.
            let b = botnet();
            let r = resolvers();
            let mut flows = Vec::new();
            e.emit(e.onset + 2, &b, &r, &mut flows);
        }
    }

    #[test]
    fn validate_rejects_malformed_events() {
        let ok = event(AttackType::UdpFlood);
        assert_eq!(ok.validate(), Ok(()));

        let mut e = event(AttackType::UdpFlood);
        e.end = e.onset; // zero-length
        assert!(matches!(
            e.validate(),
            Err(InvalidEvent::EmptyAttack { .. })
        ));
        e.end = e.onset - 1; // inverted
        assert!(matches!(
            e.validate(),
            Err(InvalidEvent::EmptyAttack { .. })
        ));

        let mut e = event(AttackType::UdpFlood);
        e.prep_start = e.onset + 1;
        assert!(matches!(
            e.validate(),
            Err(InvalidEvent::PrepAfterOnset { .. })
        ));

        let mut e = event(AttackType::UdpFlood);
        e.ramp_minutes = e.duration() + 1;
        assert!(matches!(
            e.validate(),
            Err(InvalidEvent::RampExceedsDuration { .. })
        ));

        for dr in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let mut e = event(AttackType::UdpFlood);
            e.ramp_dr = dr;
            assert!(
                matches!(e.validate(), Err(InvalidEvent::BadRampRate(_))),
                "dr={dr} must be rejected"
            );
        }

        let mut e = event(AttackType::UdpFlood);
        e.peak_bpm = f64::NAN;
        assert!(matches!(e.validate(), Err(InvalidEvent::BadPeak(_))));

        // Errors render for operators.
        let msg = InvalidEvent::BadRampRate(-1.0).to_string();
        assert!(msg.contains("-1"), "{msg}");
    }

    #[test]
    fn boundary_semantics_are_pinned() {
        // end == onset: no anomalous phase, ever.
        let mut e = event(AttackType::UdpFlood);
        e.end = e.onset;
        assert_eq!(e.duration(), 0);
        assert_eq!(e.phase(e.onset), AttackPhase::Inactive);
        assert_eq!(e.phase(e.onset - 1), AttackPhase::Preparation);
        assert_eq!(e.anomalous_bpm(e.onset), 0.0);

        // Inverted (end < onset): duration saturates, phases never pass
        // Preparation, volume stays zero.
        let mut e = event(AttackType::UdpFlood);
        e.end = e.onset - 100;
        assert_eq!(e.duration(), 0);
        for m in [e.prep_start, e.end - 1, e.end, e.onset, e.onset + 10] {
            let p = e.phase(m);
            assert!(
                p == AttackPhase::Inactive || p == AttackPhase::Preparation,
                "minute {m}: {p:?}"
            );
            assert_eq!(e.anomalous_bpm(m), 0.0, "minute {m}");
        }

        // ramp_minutes == 0: straight to plateau at the onset.
        let mut e = event(AttackType::UdpFlood);
        e.ramp_minutes = 0;
        assert_eq!(e.validate(), Ok(()));
        assert_eq!(e.phase(e.onset), AttackPhase::Plateau);
        assert_eq!(e.anomalous_bpm(e.onset), e.peak_bpm);

        // prep_start == onset: no preparation window at all.
        let mut e = event(AttackType::UdpFlood);
        e.prep_start = e.onset;
        assert_eq!(e.validate(), Ok(()));
        assert_eq!(e.phase(e.onset - 1), AttackPhase::Inactive);
        assert_eq!(e.phase(e.onset), AttackPhase::RampUp);
        let b = botnet();
        let r = resolvers();
        let mut flows = Vec::new();
        for m in 0..e.onset {
            e.emit(m, &b, &r, &mut flows);
        }
        assert!(flows.is_empty(), "no prep probes without a prep window");
    }

    #[test]
    fn emission_is_deterministic() {
        let e = event(AttackType::UdpFlood);
        let b = botnet();
        let r = resolvers();
        let mut f1 = Vec::new();
        let mut f2 = Vec::new();
        e.emit(14_410, &b, &r, &mut f1);
        e.emit(14_410, &b, &r, &mut f2);
        assert_eq!(f1, f2);
    }
}
