//! Attack scheduling: serial chains, type transitions, correlated waves.
//!
//! Reproduces the §3.3 measurement structure:
//!
//! * Attacks come in per-victim *chains* conducted by one botnet; the next
//!   attack in a chain repeats the previous type with probability ~0.979
//!   (Fig 4(b): 43.0 K of 43.9 K consecutive pairs share a type).
//! * When the type does change, specific transitions dominate: SYN → RST
//!   (probing the same TCP resource), DNS-amp → UDP and ICMP → UDP
//!   (escalating to raw volume).
//! * A configurable fraction of chains is grouped into *waves*: the same
//!   botnet attacks several customers with onsets staggered by ~5 minutes
//!   (Fig 4(c)).
//! * Durations skew short (63 % < 5 min, 77 % < 10 min per the paper's
//!   motivation) and peaks skew low (75 % below 21 Mbps).

use crate::attack::AttackEvent;
use crate::botnet::customer_addr;
use crate::config::WorldConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xatu_netflow::attack::AttackType;
use xatu_netflow::MINUTES_PER_DAY;

/// Base popularity of each attack type when a chain starts (Table 2 mix).
fn initial_type(rng: &mut StdRng) -> AttackType {
    let roll: f64 = rng.random();
    // UDP 26.3 %, TCP ACK 62.0 %, TCP SYN 1.4 %, TCP RST 1.1 %,
    // DNS Amp 7.2 %, ICMP 2.0 %.
    if roll < 0.263 {
        AttackType::UdpFlood
    } else if roll < 0.883 {
        AttackType::TcpAck
    } else if roll < 0.897 {
        AttackType::TcpSyn
    } else if roll < 0.908 {
        AttackType::TcpRst
    } else if roll < 0.980 {
        AttackType::DnsAmplification
    } else {
        AttackType::IcmpFlood
    }
}

/// The next type in a chain, honouring the same-type probability and the
/// paper's named cross-type transitions.
pub fn next_type(prev: AttackType, same_type_prob: f64, rng: &mut StdRng) -> AttackType {
    if rng.random_bool(same_type_prob) {
        return prev;
    }
    match prev {
        // "TCP SYN attacks are sometimes followed by TCP RST attacks".
        AttackType::TcpSyn if rng.random_bool(0.6) => AttackType::TcpRst,
        // "DNS amplification … followed by UDP flood attacks".
        AttackType::DnsAmplification if rng.random_bool(0.6) => AttackType::UdpFlood,
        // "0.1 % of ICMP attacks are followed by UDP flood attacks".
        AttackType::IcmpFlood if rng.random_bool(0.5) => AttackType::UdpFlood,
        _ => loop {
            // The changed-type branch must actually change the type.
            let next = initial_type(rng);
            if next != prev {
                break next;
            }
        },
    }
}

/// Samples an attack duration in minutes, matching the paper's §2.3
/// statistics for *CDet-alerted* attacks: "nearly 74 % of attacks are
/// shorter than 20 minutes", with a meaningful short tail (short attacks
/// exist and are the hardest to mitigate) and a long tail out to 90 min.
pub fn sample_duration(rng: &mut StdRng) -> u32 {
    let roll: f64 = rng.random();
    if roll < 0.30 {
        rng.random_range(3..5)
    } else if roll < 0.55 {
        rng.random_range(5..10)
    } else if roll < 0.74 {
        rng.random_range(10..20)
    } else {
        rng.random_range(20..90)
    }
}

/// Samples a peak volume (bytes/minute): log-normal with 75 % below
/// 21 Mbps.
pub fn sample_peak_bpm(rng: &mut StdRng) -> f64 {
    const MBPS_TO_BPM: f64 = 1e6 * 60.0 / 8.0;
    // Median 9 Mbps, sigma ~1.25 → P(X < 21 Mbps) ≈ 0.75.
    let z = {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    9.0 * MBPS_TO_BPM * (1.25 * z).exp()
}

/// Samples a ramp rate `dR` per type (ICMP ramps fast; others moderate).
pub fn sample_ramp_dr(ty: AttackType, rng: &mut StdRng) -> f64 {
    match ty {
        AttackType::IcmpFlood => rng.random_range(2.0..4.0),
        AttackType::UdpFlood | AttackType::DnsAmplification => rng.random_range(0.5..2.0),
        _ => rng.random_range(0.3..1.5),
    }
}

/// Builds the full attack schedule for a world.
///
/// # Panics
/// With `cfg.n_chains > 0`: panics if `n_botnets` is zero, if a wave draws
/// its customers from none (`n_customers` zero), if `wave_frac` or
/// `same_type_prob` is not in `[0, 1]`, or if `chain_len_mean` is negative
/// or NaN.
pub fn build_schedule(cfg: &WorldConfig) -> Vec<AttackEvent> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0xC2B2_AE35).wrapping_add(99));
    let total = cfg.total_minutes();
    let prep_minutes = (cfg.prep_days * MINUTES_PER_DAY as f64) as u32;
    let mut events = Vec::new();
    let mut next_id = 0usize;
    let mut next_wave = 0usize;

    // Victims are dealt round-robin from a shuffled deck so chains rarely
    // interleave on one customer — preserving the paper's clean per-victim
    // serial structure (Fig 4(b)) even in a small world.
    let chained = cfg.n_chains.min(cfg.n_customers);
    let mut victim_deck: Vec<usize> = (0..chained.max(1)).collect();
    for i in (1..victim_deck.len()).rev() {
        victim_deck.swap(i, rng.random_range(0..=i));
    }

    for chain_i in 0..cfg.n_chains {
        let botnet_id = rng.random_range(0..cfg.n_botnets);
        let victim_idx = victim_deck[chain_i % victim_deck.len()];
        // Waves: this chain's attacks replicate onto 2–3 extra customers
        // with 5-minute staggers. Extras are drawn from customers that do
        // not host their own chains when any exist, so per-victim alert
        // streams keep the paper's clean serial same-type structure
        // (Fig 4(b)) while waves still correlate customers (Fig 4(c)).
        let wave = if rng.random_bool(cfg.wave_frac) {
            let unchained = cfg
                .n_customers
                .saturating_sub(cfg.n_chains.min(cfg.n_customers));
            let extras: Vec<usize> = (0..rng.random_range(2..4usize))
                .map(|_| {
                    if unchained > 0 {
                        cfg.n_customers - 1 - rng.random_range(0..unchained)
                    } else {
                        rng.random_range(0..cfg.n_customers)
                    }
                })
                .filter(|&v| v != victim_idx)
                .collect();
            next_wave += 1;
            Some((next_wave - 1, extras))
        } else {
            None
        };

        let n_attacks = (sample_poissonish(cfg.chain_len_mean, &mut rng)).max(1);
        let mut ty = initial_type(&mut rng);
        // First onset: two days in (enough history for pooled contexts
        // and detector baselines), spread over the full period. Earlier
        // chains simply have their preparation phase clipped at minute 0.
        let earliest = (2 * MINUTES_PER_DAY).min(total / 3) + 2 * 60;
        if earliest >= total {
            continue;
        }
        // Chains begin in the first third of the period and run forward;
        // their length (below) is sized so serial attacks keep arriving
        // throughout the train/validation/test timeline.
        // 35 % of a `u32` fits a `u32`; the product may not.
        let start_region = u32::try_from(u64::from(total) * 35 / 100).unwrap_or(total);
        let start_region_end = start_region.max(earliest + 1);
        let mut onset = rng.random_range(earliest..start_region_end);
        for _ in 0..n_attacks {
            if onset.saturating_add(10) >= total {
                break;
            }
            let duration = sample_duration(&mut rng);
            let peak = sample_peak_bpm(&mut rng);
            let dr = cfg
                .ramp_dr_override
                .unwrap_or_else(|| sample_ramp_dr(ty, &mut rng));
            // Ramp long enough to land on the peak from a 1 % seed:
            // (1+dR)^n = 100 → n = ln(100)/ln(1+dR), capped by duration.
            let ramp =
                ((100.0f64.ln() / (1.0 + dr).ln()).ceil() as u32).clamp(1, duration.max(2) - 1);
            let emit_for = |victim_idx: usize,
                            onset: u32,
                            wave_id: Option<usize>,
                            events: &mut Vec<AttackEvent>,
                            next_id: &mut usize| {
                let end = onset.saturating_add(duration).min(total);
                events.push(AttackEvent {
                    id: *next_id,
                    victim: customer_addr(victim_idx),
                    attack_type: ty,
                    botnet_id,
                    prep_start: onset.saturating_sub(prep_minutes),
                    onset,
                    ramp_minutes: ramp,
                    end,
                    peak_bpm: peak,
                    ramp_dr: dr,
                    wave_id,
                    spoofed_frac: match ty {
                        AttackType::TcpSyn => cfg.spoofed_frac * 2.0,
                        AttackType::DnsAmplification => 0.0,
                        _ => cfg.spoofed_frac,
                    }
                    .min(0.95),
                    spoof_detectable_frac: cfg.spoof_detectable_frac,
                    ramp_volume_scale: cfg.ramp_volume_scale,
                    prep_intensity: cfg.prep_intensity,
                });
                *next_id += 1;
            };
            emit_for(
                victim_idx,
                onset,
                wave.as_ref().map(|(id, _)| *id),
                &mut events,
                &mut next_id,
            );
            if let Some((wave_id, extras)) = &wave {
                for (j, &extra) in extras.iter().enumerate() {
                    // At most three extras: `j` is below 3.
                    let staggered = onset.saturating_add(5 * (j as u32 + 1));
                    if staggered.saturating_add(10) < total {
                        emit_for(extra, staggered, Some(*wave_id), &mut events, &mut next_id);
                    }
                }
            }
            // Gap to the next attack in the chain: hours to ~1.5 days.
            let gap = rng.random_range(4 * 60..36 * 60);
            onset = onset.saturating_add(duration + gap);
            ty = next_type(ty, cfg.same_type_prob, &mut rng);
            if onset >= total {
                break;
            }
        }
    }
    events.sort_by_key(|e| e.onset);
    // Re-assign ids in onset order for readability.
    for (i, e) in events.iter_mut().enumerate() {
        e.id = i;
    }
    events
}

/// A cheap Poisson-ish sampler (geometric mixture; exact distribution is
/// irrelevant, only the mean matters for schedule density).
fn sample_poissonish(mean: f64, rng: &mut StdRng) -> usize {
    let mut n = 0usize;
    let p = 1.0 / (1.0 + mean);
    while !rng.random_bool(p) && n < 200 {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<AttackEvent> {
        build_schedule(&WorldConfig {
            seed,
            ..WorldConfig::default()
        })
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let a = schedule(5);
        let b = schedule(5);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.onset, y.onset);
            assert_eq!(x.attack_type, y.attack_type);
        }
        assert!(a.windows(2).all(|w| w[0].onset <= w[1].onset));
    }

    #[test]
    fn durations_match_section_2_3() {
        let mut rng = StdRng::seed_from_u64(1);
        let durs: Vec<u32> = (0..5000).map(|_| sample_duration(&mut rng)).collect();
        let under20 = durs.iter().filter(|&&d| d < 20).count() as f64 / 5000.0;
        let under5 = durs.iter().filter(|&&d| d < 5).count() as f64 / 5000.0;
        assert!((under20 - 0.74).abs() < 0.03, "under20={under20}");
        assert!((under5 - 0.30).abs() < 0.03, "under5={under5}");
    }

    #[test]
    fn peaks_skew_low() {
        const MBPS_TO_BPM: f64 = 1e6 * 60.0 / 8.0;
        let mut rng = StdRng::seed_from_u64(2);
        let peaks: Vec<f64> = (0..5000).map(|_| sample_peak_bpm(&mut rng)).collect();
        let under21 = peaks.iter().filter(|&&p| p < 21.0 * MBPS_TO_BPM).count() as f64 / 5000.0;
        assert!((under21 - 0.75).abs() < 0.05, "under21={under21}");
    }

    #[test]
    fn same_type_transitions_dominate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut same = 0;
        let n = 20_000;
        for _ in 0..n {
            let prev = initial_type(&mut rng);
            if next_type(prev, 0.979, &mut rng) == prev {
                same += 1;
            }
        }
        let frac = same as f64 / n as f64;
        assert!((frac - 0.979).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn syn_transitions_prefer_rst() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut rst = 0;
        let mut changed = 0;
        for _ in 0..20_000 {
            let next = next_type(AttackType::TcpSyn, 0.0, &mut rng);
            if next != AttackType::TcpSyn {
                changed += 1;
                if next == AttackType::TcpRst {
                    rst += 1;
                }
            }
        }
        assert!(rst as f64 / changed as f64 > 0.5);
    }

    #[test]
    fn chains_share_victim_and_botnet() {
        let events = schedule(7);
        // Consecutive same-victim events mostly share a botnet (chains).
        use std::collections::HashMap;
        let mut per_victim: HashMap<_, Vec<&AttackEvent>> = HashMap::new();
        for e in &events {
            per_victim.entry(e.victim).or_default().push(e);
        }
        let mut same_type_pairs = 0usize;
        let mut pairs = 0usize;
        for evs in per_victim.values() {
            for w in evs.windows(2) {
                pairs += 1;
                if w[0].attack_type == w[1].attack_type {
                    same_type_pairs += 1;
                }
            }
        }
        if pairs > 20 {
            let frac = same_type_pairs as f64 / pairs as f64;
            assert!(frac > 0.7, "serial same-type fraction {frac}");
        }
    }

    #[test]
    fn waves_are_staggered_on_distinct_customers() {
        let events = build_schedule(&WorldConfig {
            seed: 11,
            wave_frac: 1.0,
            ..WorldConfig::default()
        });
        use std::collections::HashMap;
        let mut waves: HashMap<usize, Vec<&AttackEvent>> = HashMap::new();
        for e in &events {
            if let Some(w) = e.wave_id {
                waves.entry(w).or_default().push(e);
            }
        }
        assert!(!waves.is_empty());
        let mut saw_multi = false;
        for evs in waves.values() {
            let mut by_onset: Vec<_> = evs.iter().collect();
            by_onset.sort_by_key(|e| e.onset);
            for w in by_onset.windows(2) {
                if w[0].onset != w[1].onset {
                    let gap = w[1].onset - w[0].onset;
                    // Staggering of small multiples of 5 minutes (or chain gaps).
                    if gap <= 15 {
                        saw_multi = true;
                        assert_eq!(gap % 5, 0, "stagger gap {gap}");
                    }
                }
            }
        }
        assert!(saw_multi, "expected at least one staggered wave");
    }

    #[test]
    fn prep_precedes_onset_by_configured_days() {
        let cfg = WorldConfig::default();
        let events = build_schedule(&cfg);
        for e in &events {
            assert!(e.prep_start <= e.onset);
            let prep_len = e.onset - e.prep_start;
            assert!(
                prep_len <= (cfg.prep_days * MINUTES_PER_DAY as f64) as u32,
                "prep too long"
            );
        }
    }

    #[test]
    fn events_fit_inside_the_period() {
        let cfg = WorldConfig::default();
        let events = build_schedule(&cfg);
        for e in &events {
            assert!(e.end <= cfg.total_minutes());
            assert!(e.onset < e.end);
            assert!(e.ramp_minutes >= 1);
        }
    }
}
