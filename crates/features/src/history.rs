//! Per-customer attack-history features (auxiliary signal A4).
//!
//! Table 1: "attack severity (low, medium, high) for each attack type" — 18
//! features. Each (type, severity) slot carries an exponentially-decaying
//! recency indicator: 1.0 at the minute an attack of that type/severity was
//! last recorded, decaying with a configurable half-life. This encodes both
//! *which* attacks a customer historically receives and *how recently*,
//! which is what makes serial same-type attacks (Fig 4(b): ~98 % of
//! consecutive pairs share a type) predictable.

use std::collections::HashMap;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::{AttackType, Severity};

/// Default half-life: two days — attack knowledge is useful for days
/// (Fig 15) but not forever.
pub const DEFAULT_HALF_LIFE_MIN: f64 = 2.0 * 24.0 * 60.0;

/// Per-customer attack-history tracker.
#[derive(Clone, Debug)]
pub struct AttackHistory {
    /// customer -> [type × severity] last-event minute.
    last_event: HashMap<Ipv4, [[Option<u32>; 3]; 6]>,
    half_life_min: f64,
}

impl AttackHistory {
    /// Creates a tracker with the default half-life.
    pub fn new() -> Self {
        Self::with_half_life(DEFAULT_HALF_LIFE_MIN)
    }

    /// Creates a tracker with a custom half-life (minutes).
    ///
    /// # Panics
    /// Panics if `half_life_min` is not positive.
    pub fn with_half_life(half_life_min: f64) -> Self {
        assert!(half_life_min > 0.0, "half-life must be positive");
        AttackHistory {
            last_event: HashMap::new(),
            half_life_min,
        }
    }

    /// Records an attack of `ty` with `severity` on `customer` at `minute`.
    pub fn record(&mut self, customer: Ipv4, ty: AttackType, severity: Severity, minute: u32) {
        let slots = self.last_event.entry(customer).or_insert([[None; 3]; 6]);
        let slot = &mut slots[ty.index()][severity.index()];
        *slot = Some(slot.map_or(minute, |m| m.max(minute)));
    }

    /// The 18 A4 features for `customer` at `now`, in (type-major,
    /// severity-minor) order.
    pub fn features(&self, customer: Ipv4, now: u32) -> [f64; 18] {
        let mut out = [0.0; 18];
        let Some(slots) = self.last_event.get(&customer) else {
            return out;
        };
        let decay = std::f64::consts::LN_2 / self.half_life_min;
        for (ti, per_type) in slots.iter().enumerate() {
            for (si, slot) in per_type.iter().enumerate() {
                if let Some(m) = slot {
                    let age = now.saturating_sub(*m) as f64;
                    out[ti * 3 + si] = (-decay * age).exp();
                }
            }
        }
        out
    }

    /// The most recent attack type recorded for a customer, if any.
    pub fn last_attack_type(&self, customer: Ipv4) -> Option<AttackType> {
        let slots = self.last_event.get(&customer)?;
        let mut best: Option<(u32, AttackType)> = None;
        for (ti, per_type) in slots.iter().enumerate() {
            for slot in per_type.iter().flatten() {
                if best.is_none_or(|(m, _)| *slot > m) {
                    best = Some((*slot, AttackType::ALL[ti]));
                }
            }
        }
        best.map(|(_, t)| t)
    }
}

impl Default for AttackHistory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cust() -> Ipv4 {
        Ipv4::from_octets(10, 0, 0, 1)
    }

    #[test]
    fn fresh_customer_is_all_zero() {
        let h = AttackHistory::new();
        assert_eq!(h.features(cust(), 100), [0.0; 18]);
    }

    #[test]
    fn recorded_attack_lights_its_slot() {
        let mut h = AttackHistory::new();
        h.record(cust(), AttackType::TcpSyn, Severity::High, 500);
        let f = h.features(cust(), 500);
        let idx = AttackType::TcpSyn.index() * 3 + Severity::High.index();
        assert_eq!(f[idx], 1.0);
        assert_eq!(f.iter().filter(|&&v| v > 0.0).count(), 1);
    }

    #[test]
    fn decay_halves_at_half_life() {
        let mut h = AttackHistory::with_half_life(100.0);
        h.record(cust(), AttackType::UdpFlood, Severity::Low, 0);
        let f = h.features(cust(), 100);
        assert!((f[0] - 0.5).abs() < 1e-9);
        let f = h.features(cust(), 200);
        assert!((f[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn newer_event_wins() {
        let mut h = AttackHistory::with_half_life(100.0);
        h.record(cust(), AttackType::UdpFlood, Severity::Low, 0);
        h.record(cust(), AttackType::UdpFlood, Severity::Low, 400);
        let f = h.features(cust(), 400);
        assert_eq!(f[0], 1.0);
    }

    #[test]
    fn last_attack_type_is_most_recent() {
        let mut h = AttackHistory::new();
        h.record(cust(), AttackType::UdpFlood, Severity::Low, 10);
        h.record(cust(), AttackType::IcmpFlood, Severity::High, 20);
        assert_eq!(h.last_attack_type(cust()), Some(AttackType::IcmpFlood));
        assert_eq!(h.last_attack_type(Ipv4(1)), None);
    }

    #[test]
    fn out_of_order_record_does_not_regress() {
        let mut h = AttackHistory::with_half_life(100.0);
        h.record(cust(), AttackType::UdpFlood, Severity::Low, 400);
        h.record(cust(), AttackType::UdpFlood, Severity::Low, 0); // stale
        assert_eq!(h.features(cust(), 400)[0], 1.0);
    }
}
