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

/// A [`WorldConfig`] setting the simulator cannot run with
/// ([`WorldConfig::validate`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvalidConfig {
    /// A probability or fraction outside `[0, 1]`, or NaN.
    NotAFraction {
        /// The field's name.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A count the simulator divides by or draws from is zero.
    Zero {
        /// The field's name.
        field: &'static str,
    },
}

impl InvalidConfig {
    /// The name of the offending field.
    pub fn field(&self) -> &'static str {
        match self {
            InvalidConfig::NotAFraction { field, .. } | InvalidConfig::Zero { field } => field,
        }
    }
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidConfig::NotAFraction { field, value } => {
                write!(f, "WorldConfig::{field} = {value} is not in [0, 1]")
            }
            InvalidConfig::Zero { field } => write!(f, "WorldConfig::{field} must not be 0"),
        }
    }
}

impl std::error::Error for InvalidConfig {}

impl WorldConfig {
    /// Checks the settings the simulator would otherwise panic on deep
    /// inside a run, and names the first bad field: every probability or
    /// fraction must lie in `[0, 1]`, the sampling rate and the subnets per
    /// botnet must be positive, and a schedule with attack chains needs a
    /// botnet to draw their sources from.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let fractions = [
            ("flash_crowd_prob", self.flash_crowd_prob),
            ("blocklisted_frac", self.blocklisted_frac),
            ("spoofed_frac", self.spoofed_frac),
            ("spoof_detectable_frac", self.spoof_detectable_frac),
            ("same_type_prob", self.same_type_prob),
            ("wave_frac", self.wave_frac),
        ];
        for (field, value) in fractions {
            if !(0.0..=1.0).contains(&value) {
                return Err(InvalidConfig::NotAFraction { field, value });
            }
        }
        let zero = if self.sampling_rate == 0 {
            Some("sampling_rate")
        } else if self.botnet_subnets == 0 {
            Some("botnet_subnets")
        } else if self.n_chains > 0 && self.n_botnets == 0 {
            Some("n_botnets")
        } else {
            None
        };
        zero.map_or(Ok(()), |field| Err(InvalidConfig::Zero { field }))
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    /// `cfg` with one field changed fails validation naming that field.
    fn rejects(field: &str, change: impl FnOnce(&mut WorldConfig)) {
        let mut cfg = WorldConfig::smoke_test(1);
        change(&mut cfg);
        let err = cfg.validate().expect_err(field);
        assert_eq!(err.field(), field);
        assert!(err.to_string().contains(field), "{err}");
    }

    #[test]
    fn the_presets_are_valid() {
        for cfg in [
            WorldConfig::default(),
            WorldConfig::smoke_test(1),
            WorldConfig::mini(1),
            WorldConfig::small(1),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn flash_crowd_prob_must_be_a_probability() {
        rejects("flash_crowd_prob", |c| c.flash_crowd_prob = -1e-9);
        rejects("flash_crowd_prob", |c| c.flash_crowd_prob = f64::NAN);
    }

    #[test]
    fn blocklisted_frac_must_be_a_fraction() {
        rejects("blocklisted_frac", |c| c.blocklisted_frac = 1.5);
        rejects("blocklisted_frac", |c| c.blocklisted_frac = f64::NAN);
    }

    #[test]
    fn spoofed_frac_must_be_a_fraction() {
        rejects("spoofed_frac", |c| c.spoofed_frac = -0.1);
        rejects("spoofed_frac", |c| c.spoofed_frac = f64::INFINITY);
    }

    #[test]
    fn spoof_detectable_frac_must_be_a_fraction() {
        rejects("spoof_detectable_frac", |c| c.spoof_detectable_frac = 2.0);
        rejects("spoof_detectable_frac", |c| {
            c.spoof_detectable_frac = f64::NAN
        });
    }

    #[test]
    fn same_type_prob_must_be_a_probability() {
        rejects("same_type_prob", |c| c.same_type_prob = 1.0 + f64::EPSILON);
        rejects("same_type_prob", |c| c.same_type_prob = f64::NAN);
    }

    #[test]
    fn wave_frac_must_be_a_fraction() {
        rejects("wave_frac", |c| c.wave_frac = -1.0);
        rejects("wave_frac", |c| c.wave_frac = f64::NAN);
    }

    #[test]
    fn sampling_rate_must_be_positive() {
        rejects("sampling_rate", |c| c.sampling_rate = 0);
    }

    #[test]
    fn botnet_subnets_must_be_positive() {
        rejects("botnet_subnets", |c| c.botnet_subnets = 0);
    }

    /// Attack chains draw their sources from a botnet; a world without
    /// chains needs none.
    #[test]
    fn attack_chains_need_a_botnet() {
        rejects("n_botnets", |c| c.n_botnets = 0);
        let quiet = WorldConfig {
            n_botnets: 0,
            n_chains: 0,
            ..WorldConfig::smoke_test(1)
        };
        assert_eq!(quiet.validate(), Ok(()));
    }

    /// The bounds are inclusive.
    #[test]
    fn zero_and_one_are_fractions() {
        let edges = WorldConfig {
            flash_crowd_prob: 0.0,
            blocklisted_frac: 1.0,
            spoofed_frac: 0.0,
            spoof_detectable_frac: 1.0,
            same_type_prob: 1.0,
            wave_frac: 0.0,
            ..WorldConfig::smoke_test(1)
        };
        assert_eq!(edges.validate(), Ok(()));
    }

    /// The first bad field is the one named.
    #[test]
    fn the_first_bad_field_is_named() {
        let mut cfg = WorldConfig::smoke_test(1);
        cfg.wave_frac = 2.0;
        cfg.botnet_subnets = 0;
        cfg.flash_crowd_prob = f64::NAN;
        assert_eq!(cfg.validate().unwrap_err().field(), "flash_crowd_prob");
    }
}
