//! World configuration.

use serde::{Deserialize, Serialize};
use xatu_netflow::MINUTES_PER_DAY;

/// Full configuration of a simulated ISP world.
///
/// Defaults give a laptop-scale world that a full pipeline run (simulate →
/// detect → extract → train → evaluate) finishes in minutes; the paper-scale
/// values are noted per field.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed; every stream of randomness derives from it.
    pub seed: u64,
    /// Number of customer networks (paper: >1000).
    pub n_customers: usize,
    /// Simulated days (paper: 100).
    pub days: u32,
    /// Router sampling rate 1:N applied to all flows (paper: 1:1–1:10,000).
    pub sampling_rate: u32,

    // --- benign traffic ---
    /// Median benign customer volume, bytes/minute (≈1 Mbps).
    pub benign_median_bpm: f64,
    /// Log-normal sigma of per-customer base volume.
    pub benign_sigma: f64,
    /// Probability per customer-minute of starting a benign flash crowd.
    pub flash_crowd_prob: f64,

    // --- attacker ecosystem ---
    /// Number of botnets.
    pub n_botnets: usize,
    /// Member /24 subnets per botnet.
    pub botnet_subnets: usize,
    /// Fraction of botnet subnets present on public blocklists.
    pub blocklisted_frac: f64,
    /// Fraction of attack flows using spoofed sources (SYN/UDP attacks).
    pub spoofed_frac: f64,
    /// Fraction of spoofed flows that are *detectably* spoofed (bogon or
    /// unrouted); the rest imitate routed space and evade the classifier,
    /// mirroring the paper's "we likely miss much-spoofed traffic".
    pub spoof_detectable_frac: f64,

    // --- attack schedule ---
    /// Expected number of attack chains (victim × botnet relationships).
    pub n_chains: usize,
    /// Mean attacks per chain.
    pub chain_len_mean: f64,
    /// Probability that the next attack in a chain repeats the same type
    /// (paper: 97.9 %).
    pub same_type_prob: f64,
    /// Days of preparation probing before each chain's attacks (paper:
    /// signals visible up to 10 days out).
    pub prep_days: f64,
    /// Fraction of chains that are part of correlated multi-customer waves.
    pub wave_frac: f64,
    /// Scale factor applied to anomalous traffic during the ramp-up period
    /// (before a CDet-style detector would fire). 1.0 = unmodified; the
    /// §6.4 volume-changing attacker lowers this.
    pub ramp_volume_scale: f64,
    /// Override of the ramp-up rate `dR` (Appendix G). `None` samples per
    /// attack; the §6.4 rate-changing attacker pins it.
    pub ramp_dr_override: Option<f64>,
    /// Scale factor on preparation-phase probing (0 disables preparation
    /// signals entirely — an attacker evading auxiliary signals).
    pub prep_intensity: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 1,
            n_customers: 24,
            days: 28,
            sampling_rate: 10,
            benign_median_bpm: 7.5e6, // ~1 Mbps
            benign_sigma: 1.0,
            flash_crowd_prob: 2.5e-4,
            n_botnets: 10,
            botnet_subnets: 24,
            blocklisted_frac: 0.55,
            spoofed_frac: 0.3,
            spoof_detectable_frac: 0.4,
            n_chains: 19,
            chain_len_mean: 24.0,
            same_type_prob: 0.979,
            prep_days: 10.0,
            wave_frac: 0.3,
            ramp_volume_scale: 1.0,
            ramp_dr_override: None,
            prep_intensity: 1.0,
        }
    }
}

impl WorldConfig {
    /// Total simulated minutes, saturating at `u32::MAX` (a period of
    /// over 8,000 years).
    pub fn total_minutes(&self) -> u32 {
        self.days.saturating_mul(MINUTES_PER_DAY)
    }

    /// A tiny world for unit tests and smoke runs (seconds, not minutes).
    pub fn smoke_test(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_customers: 6,
            days: 4,
            n_botnets: 3,
            botnet_subnets: 10,
            n_chains: 6,
            chain_len_mean: 3.0,
            prep_days: 2.0,
            ..WorldConfig::default()
        }
    }

    /// A minimal world for retrain-heavy sweeps (one run ≈ a minute).
    pub fn mini(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_customers: 8,
            days: 10,
            n_botnets: 5,
            botnet_subnets: 12,
            n_chains: 6,
            chain_len_mean: 12.0,
            prep_days: 3.0,
            ..WorldConfig::default()
        }
    }

    /// A small world for fast sweep experiments (Fig 12/18 retrain loops).
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_customers: 16,
            days: 18,
            n_botnets: 6,
            botnet_subnets: 16,
            n_chains: 12,
            chain_len_mean: 18.0,
            prep_days: 6.0,
            ..WorldConfig::default()
        }
    }
}
