//! Benign traffic model.
//!
//! Each customer gets a log-normal base volume with a diurnal sinusoid, a
//! weekly modulation, per-minute log-normal noise, and occasional benign
//! flash crowds (sudden legitimate traffic surges lasting tens of minutes).
//! Flash crowds matter: they are the benign spikes that make naive
//! sensitivity increases expensive (§1), so Xatu must learn to tell them
//! apart from attack ramps via auxiliary signals.

use crate::botnet::Ecosystem;
use crate::config::WorldConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::record::{FlowRecord, Protocol, TcpFlags};
use xatu_netflow::MINUTES_PER_DAY;

/// Per-customer benign traffic profile.
#[derive(Clone, Debug)]
pub struct BenignProfile {
    customer: Ipv4,
    /// Base volume, bytes/minute.
    base_bpm: f64,
    /// Diurnal phase offset (minutes).
    phase: f64,
    /// Diurnal amplitude in [0, 1).
    diurnal_amp: f64,
    /// Active flash crowd, if any: (end minute, multiplier).
    flash: Option<(u32, f64)>,
    /// Per-customer RNG.
    rng: StdRng,
    flash_prob: f64,
}

impl BenignProfile {
    /// Builds the profile for customer `i`.
    pub fn new(cfg: &WorldConfig, i: usize, customer: Ipv4) -> Self {
        let mut rng = StdRng::seed_from_u64(
            cfg.seed
                .wrapping_mul(0xA24B_AED4)
                .wrapping_add(i as u64 * 7919 + 13),
        );
        let z = standard_normal(&mut rng);
        let base_bpm = cfg.benign_median_bpm * (cfg.benign_sigma * z).exp();
        BenignProfile {
            customer,
            base_bpm,
            phase: rng.random_range(0.0..MINUTES_PER_DAY as f64),
            diurnal_amp: rng.random_range(0.3..0.6),
            flash: None,
            rng,
            flash_prob: cfg.flash_crowd_prob,
        }
    }

    /// The expected benign volume at `minute` (before noise).
    pub fn expected_bpm(&self, minute: u32) -> f64 {
        let day_frac =
            ((minute as f64 + self.phase) % MINUTES_PER_DAY as f64) / MINUTES_PER_DAY as f64;
        let diurnal = 1.0 + self.diurnal_amp * (std::f64::consts::TAU * day_frac).sin();
        let week_frac = (minute as f64 / (7.0 * MINUTES_PER_DAY as f64)).fract();
        let weekly = 1.0 + 0.15 * (std::f64::consts::TAU * week_frac).sin();
        self.base_bpm * diurnal * weekly
    }

    /// Emits the benign flows for one minute.
    pub fn emit(&mut self, minute: u32, out: &mut Vec<FlowRecord>) {
        // Flash-crowd lifecycle.
        if let Some((end, _)) = self.flash {
            if minute >= end {
                self.flash = None;
            }
        }
        if self.flash.is_none() && self.rng.random_bool(self.flash_prob) {
            let dur = self.rng.random_range(10..40);
            let mult = self.rng.random_range(3.0..6.5);
            self.flash = Some((minute + dur, mult));
        }

        let mut volume = self.expected_bpm(minute);
        // Log-normal minute noise, sigma 0.25.
        volume *= (0.25 * standard_normal(&mut self.rng)).exp();
        if let Some((_, mult)) = self.flash {
            volume *= mult;
        }

        // Split the volume across a Poisson-ish number of flows.
        let n_flows = self.rng.random_range(12..28usize);
        let per_flow = volume / n_flows as f64;
        for k in 0..n_flows {
            let src = Ecosystem::benign_source(
                (minute as u64) << 24 | (self.customer.0 as u64) << 8 | k as u64,
            );
            let roll: f64 = self.rng.random();
            let (proto, src_port, dst_port, flags) = if roll < 0.70 {
                // Web-ish TCP.
                let dport = if self.rng.random_bool(0.5) { 443 } else { 80 };
                (
                    Protocol::Tcp,
                    self.rng.random_range(1024..65535),
                    dport,
                    TcpFlags::ACK.union(TcpFlags::PSH),
                )
            } else if roll < 0.95 {
                // UDP: DNS answers, NTP, media.
                let sport = match self.rng.random_range(0..3) {
                    0 => 53,
                    1 => 123,
                    _ => self.rng.random_range(1024..65535),
                };
                (
                    Protocol::Udp,
                    sport,
                    self.rng.random_range(1024..65535),
                    TcpFlags::default(),
                )
            } else {
                (Protocol::Icmp, 0, 0, TcpFlags::default())
            };
            let bytes = (per_flow * self.rng.random_range(0.5..1.5)).max(64.0) as u64;
            let packets = (bytes / 700).max(1);
            out.push(FlowRecord {
                minute,
                src,
                dst: self.customer,
                proto,
                src_port,
                dst_port,
                tcp_flags: flags,
                bytes,
                packets,
                sampling: 1,
            });
        }
    }

    /// The customer this profile serves.
    pub fn customer(&self) -> Ipv4 {
        self.customer
    }

    /// Base volume (diagnostics).
    pub fn base_bpm(&self) -> f64 {
        self.base_bpm
    }
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::botnet::customer_addr;

    fn profile(seed: u64) -> BenignProfile {
        let cfg = WorldConfig {
            seed,
            ..WorldConfig::default()
        };
        BenignProfile::new(&cfg, 0, customer_addr(0))
    }

    #[test]
    fn deterministic_emission() {
        let mut a = profile(5);
        let mut b = profile(5);
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        for m in 0..100 {
            a.emit(m, &mut fa);
            b.emit(m, &mut fb);
        }
        assert_eq!(fa, fb);
    }

    #[test]
    fn diurnal_pattern_is_visible() {
        let p = profile(7);
        let vols: Vec<f64> = (0..MINUTES_PER_DAY).map(|m| p.expected_bpm(m)).collect();
        let max = vols.iter().cloned().fold(f64::MIN, f64::max);
        let min = vols.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.5, "diurnal swing too small: {}", max / min);
    }

    #[test]
    fn emitted_volume_tracks_expected() {
        let mut p = profile(9);
        let mut total = 0.0;
        let mut expected = 0.0;
        for m in 0..500 {
            let mut flows = Vec::new();
            p.emit(m, &mut flows);
            // Skip flash-crowd minutes for this average check.
            if p.flash.is_none() {
                total += flows.iter().map(|f| f.bytes as f64).sum::<f64>();
                expected += p.expected_bpm(m);
            }
        }
        let ratio = total / expected;
        assert!((0.7..1.4).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn flash_crowds_eventually_happen_and_end() {
        let cfg = WorldConfig {
            seed: 11,
            flash_crowd_prob: 0.05,
            ..WorldConfig::default()
        };
        let mut p = BenignProfile::new(&cfg, 0, customer_addr(0));
        let mut saw_flash = false;
        let mut saw_quiet_after = false;
        for m in 0..2000 {
            let mut flows = Vec::new();
            p.emit(m, &mut flows);
            if p.flash.is_some() {
                saw_flash = true;
            } else if saw_flash {
                saw_quiet_after = true;
            }
        }
        assert!(saw_flash && saw_quiet_after);
    }

    #[test]
    fn flows_target_the_customer() {
        let mut p = profile(13);
        let mut flows = Vec::new();
        p.emit(0, &mut flows);
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.dst == customer_addr(0)));
        assert!(flows.iter().all(|f| f.bytes >= 64 && f.packets >= 1));
    }

    #[test]
    fn base_volumes_vary_across_customers() {
        let cfg = WorldConfig::default();
        let bases: Vec<f64> = (0..10)
            .map(|i| BenignProfile::new(&cfg, i, customer_addr(i)).base_bpm())
            .collect();
        let max = bases.iter().cloned().fold(f64::MIN, f64::max);
        let min = bases.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > min * 1.5, "heterogeneity expected");
    }
}
