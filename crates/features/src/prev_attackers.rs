//! Previous-attacker tracker (auxiliary signal A2).
//!
//! §5.1: "we determine previous attacker addresses by identifying all
//! sources of traffic matching the alert signature for the time from the
//! CDet's alert to the CDet's mitigation-end notice." The tracker keeps one
//! per-customer set of /24s, with the minute each subnet was last seen
//! attacking, and an optional retention horizon (entries older than the
//! horizon stop matching — attacker infrastructure churns).
//!
//! During training/validation the sets are populated from CDet alerts;
//! during testing Xatu feeds its *own* detections back in (§5.3), which is
//! what makes the system auto-regressive.

use std::collections::HashMap;
use xatu_netflow::addr::{Ipv4, Subnet24};

/// Per-customer previous-attacker sets.
#[derive(Clone, Debug)]
pub struct PrevAttackerTracker {
    /// customer -> (attacker /24 -> last-seen minute)
    sets: HashMap<Ipv4, HashMap<Subnet24, u32>>,
    retention_minutes: Option<u32>,
}

impl PrevAttackerTracker {
    /// Creates a tracker that never forgets.
    pub fn new() -> Self {
        PrevAttackerTracker {
            sets: HashMap::new(),
            retention_minutes: None,
        }
    }

    /// Creates a tracker with a retention horizon in minutes.
    pub fn with_retention(minutes: u32) -> Self {
        PrevAttackerTracker {
            sets: HashMap::new(),
            retention_minutes: Some(minutes),
        }
    }

    /// Records that `src` sent signature-matching traffic to `customer`
    /// during an attack at `minute`.
    pub fn record(&mut self, customer: Ipv4, src: Ipv4, minute: u32) {
        let entry = self
            .sets
            .entry(customer)
            .or_default()
            .entry(src.subnet24())
            .or_insert(minute);
        *entry = (*entry).max(minute);
    }

    /// True if `src`'s /24 previously attacked `customer` (within the
    /// retention horizon, evaluated at `now`).
    pub fn is_previous_attacker(&self, customer: Ipv4, src: Ipv4, now: u32) -> bool {
        self.view(customer, now).contains(src)
    }

    /// `customer`'s set as seen at `now`: the customer is looked up here,
    /// once, and every source of its bin is then tested against the view.
    pub(crate) fn view(&self, customer: Ipv4, now: u32) -> PrevAttackerView<'_> {
        PrevAttackerView {
            set: self.sets.get(&customer),
            retention_minutes: self.retention_minutes,
            now,
        }
    }

    /// Number of attacker /24s remembered for a customer.
    pub fn attacker_count(&self, customer: Ipv4) -> usize {
        self.sets.get(&customer).map_or(0, HashMap::len)
    }

    /// Iterates remembered attacker subnets for a customer.
    pub fn attackers_of(&self, customer: Ipv4) -> impl Iterator<Item = Subnet24> + '_ {
        self.sets
            .get(&customer)
            .into_iter()
            .flat_map(|m| m.keys().copied())
    }

    /// Drops entries older than the retention horizon (housekeeping).
    pub fn prune(&mut self, now: u32) {
        if let Some(ret) = self.retention_minutes {
            for set in self.sets.values_mut() {
                set.retain(|_, &mut last| now.saturating_sub(last) <= ret);
            }
        }
    }
}

/// One customer's previous attackers at one minute.
pub(crate) struct PrevAttackerView<'a> {
    set: Option<&'a HashMap<Subnet24, u32>>,
    retention_minutes: Option<u32>,
    now: u32,
}

impl PrevAttackerView<'_> {
    /// True if `src`'s /24 is in the set and inside the retention horizon.
    pub(crate) fn contains(&self, src: Ipv4) -> bool {
        let Some(&last_seen) = self.set.and_then(|set| set.get(&src.subnet24())) else {
            return false;
        };
        match self.retention_minutes {
            None => true,
            Some(ret) => self.now.saturating_sub(last_seen) <= ret,
        }
    }
}

impl Default for PrevAttackerTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4::from_octets(a, b, c, d)
    }

    #[test]
    fn records_at_slash24_granularity() {
        let mut t = PrevAttackerTracker::new();
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 100);
        assert!(t.is_previous_attacker(ip(9, 9, 9, 9), ip(1, 2, 3, 250), 200));
        assert!(!t.is_previous_attacker(ip(9, 9, 9, 9), ip(1, 2, 4, 4), 200));
    }

    #[test]
    fn customer_scoped() {
        let mut t = PrevAttackerTracker::new();
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 100);
        assert!(!t.is_previous_attacker(ip(8, 8, 8, 8), ip(1, 2, 3, 4), 200));
    }

    #[test]
    fn retention_expires_old_attackers() {
        let mut t = PrevAttackerTracker::with_retention(1000);
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 100);
        assert!(t.is_previous_attacker(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 1100));
        assert!(!t.is_previous_attacker(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 1101));
    }

    #[test]
    fn re_seeing_refreshes_last_seen() {
        let mut t = PrevAttackerTracker::with_retention(100);
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 100);
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 5), 500); // same /24, later
        assert!(t.is_previous_attacker(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 550));
    }

    #[test]
    fn prune_removes_expired() {
        let mut t = PrevAttackerTracker::with_retention(10);
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 0);
        t.record(ip(9, 9, 9, 9), ip(4, 5, 6, 7), 95);
        t.prune(100);
        assert_eq!(t.attacker_count(ip(9, 9, 9, 9)), 1);
    }

    #[test]
    fn counts_and_iteration() {
        let mut t = PrevAttackerTracker::new();
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 4), 0);
        t.record(ip(9, 9, 9, 9), ip(1, 2, 3, 9), 0); // same /24
        t.record(ip(9, 9, 9, 9), ip(2, 2, 2, 2), 0);
        assert_eq!(t.attacker_count(ip(9, 9, 9, 9)), 2);
        assert_eq!(t.attackers_of(ip(9, 9, 9, 9)).count(), 2);
        assert_eq!(t.attacker_count(ip(1, 1, 1, 1)), 0);
    }
}
