//! Correlated-attack clustering coefficient (auxiliary signal A5).
//!
//! §3.3/Appendix B: the same attacker groups hit several customers in
//! staggered waves; the paper quantifies this with the bipartite clustering
//! coefficient of Latapy et al. over the attacker-/24 ↔ customer incidence
//! graph, in three neighbour-overlap variants ("dot, min, max", Table 1).
//!
//! For customers `u, v` with attacker-neighbourhoods `N(u), N(v)`:
//!
//! ```text
//! cc_dot(u,v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|      (Jaccard)
//! cc_min(u,v) = |N(u) ∩ N(v)| / min(|N(u)|, |N(v)|)
//! cc_max(u,v) = |N(u) ∩ N(v)| / max(|N(u)|, |N(v)|)
//! ```
//!
//! and the per-customer coefficient is the mean over every other customer
//! with a non-empty neighbourhood. Incidence is recorded over a sliding
//! window so the coefficient rises as correlated waves approach (Fig 16).

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use xatu_netflow::addr::{Ipv4, Subnet24};

/// The three overlap variants, in Table 1 feature order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClusteringCoefficients {
    /// Jaccard overlap.
    pub dot: f64,
    /// Intersection over the smaller neighbourhood.
    pub min: f64,
    /// Intersection over the larger neighbourhood.
    pub max: f64,
}

impl ClusteringCoefficients {
    /// As a fixed 3-element feature slice.
    pub fn as_array(&self) -> [f64; 3] {
        [self.dot, self.min, self.max]
    }
}

/// Sliding-window bipartite incidence graph of attacker /24s vs customers.
#[derive(Clone, Debug)]
pub struct ClusteringTracker {
    window_minutes: u32,
    /// FIFO of (minute, attacker, customer) incidences for expiry.
    events: VecDeque<(u32, Subnet24, Ipv4)>,
    /// customer -> attacker -> multiplicity (within the window). A
    /// BTreeMap so the averaging loop in [`Self::coefficients`] visits
    /// peers in address order: floating-point accumulation order is part
    /// of the determinism contract, and a hash map would randomize it
    /// (and the result's low bits) per process.
    neighbours: BTreeMap<Ipv4, BTreeMap<Subnet24, u32>>,
}

impl ClusteringTracker {
    /// Creates a tracker with the given sliding window.
    ///
    /// # Panics
    /// Panics if `window_minutes` is zero.
    pub fn new(window_minutes: u32) -> Self {
        assert!(window_minutes > 0, "window must be positive");
        ClusteringTracker {
            window_minutes,
            events: VecDeque::new(),
            neighbours: BTreeMap::new(),
        }
    }

    /// Records that attacker subnet `attacker` sent attack-phase traffic to
    /// `customer` at `minute`. Call [`expire`](Self::expire) as time moves.
    pub fn record(&mut self, minute: u32, attacker: Subnet24, customer: Ipv4) {
        self.events.push_back((minute, attacker, customer));
        *self
            .neighbours
            .entry(customer)
            .or_default()
            .entry(attacker)
            .or_insert(0) += 1;
    }

    /// Expires incidences older than the window relative to `now`.
    pub fn expire(&mut self, now: u32) {
        while let Some(&(minute, attacker, customer)) = self.events.front() {
            if now.saturating_sub(minute) <= self.window_minutes {
                break;
            }
            self.events.pop_front();
            if let Some(set) = self.neighbours.get_mut(&customer) {
                if let Some(count) = set.get_mut(&attacker) {
                    *count -= 1;
                    if *count == 0 {
                        set.remove(&attacker);
                    }
                }
                if set.is_empty() {
                    self.neighbours.remove(&customer);
                }
            }
        }
    }

    /// The three clustering coefficients for `customer`, averaged over all
    /// other customers with active neighbourhoods. Zero when the customer
    /// has no active attackers or no peers exist.
    pub fn coefficients(&self, customer: Ipv4) -> ClusteringCoefficients {
        let Some(mine) = self.neighbours.get(&customer) else {
            return ClusteringCoefficients::default();
        };
        if mine.is_empty() {
            return ClusteringCoefficients::default();
        }
        let mut acc = ClusteringCoefficients::default();
        let mut peers = 0usize;
        for (other, theirs) in &self.neighbours {
            if *other == customer || theirs.is_empty() {
                continue;
            }
            let shared = shared_keys(mine, theirs);
            let inter = shared as f64;
            let union = (mine.len() + theirs.len() - shared) as f64;
            let (a, b) = (mine.len() as f64, theirs.len() as f64);
            acc.dot += inter / union;
            acc.min += inter / a.min(b);
            acc.max += inter / a.max(b);
            peers += 1;
        }
        if peers == 0 {
            return ClusteringCoefficients::default();
        }
        let inv = 1.0 / peers as f64;
        ClusteringCoefficients {
            dot: acc.dot * inv,
            min: acc.min * inv,
            max: acc.max * inv,
        }
    }

    /// Number of customers with active neighbourhoods.
    pub fn active_customers(&self) -> usize {
        self.neighbours.len()
    }
}

/// `|N(u) ∩ N(v)|` by one merge over the two key ranges, which the maps
/// already hold in order.
fn shared_keys(u: &BTreeMap<Subnet24, u32>, v: &BTreeMap<Subnet24, u32>) -> usize {
    let (mut us, mut vs) = (u.keys(), v.keys());
    let (mut a, mut b) = (us.next(), vs.next());
    let mut shared = 0;
    while let (Some(x), Some(y)) = (a, b) {
        match x.cmp(y) {
            Ordering::Less => a = us.next(),
            Ordering::Greater => b = vs.next(),
            Ordering::Equal => {
                shared += 1;
                a = us.next();
                b = vs.next();
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sn(x: u32) -> Subnet24 {
        Subnet24(x)
    }

    fn cust(x: u32) -> Ipv4 {
        Ipv4(0x0A00_0000 + x)
    }

    /// The pre-merge `coefficients`, frozen: two `HashSet`s per peer.
    fn reference_coefficients(t: &ClusteringTracker, customer: Ipv4) -> ClusteringCoefficients {
        let Some(mine) = t.neighbours.get(&customer) else {
            return ClusteringCoefficients::default();
        };
        if mine.is_empty() {
            return ClusteringCoefficients::default();
        }
        let my_set: HashSet<&Subnet24> = mine.keys().collect();
        let mut acc = ClusteringCoefficients::default();
        let mut peers = 0usize;
        for (other, theirs) in &t.neighbours {
            if *other == customer || theirs.is_empty() {
                continue;
            }
            let their_set: HashSet<&Subnet24> = theirs.keys().collect();
            let inter = my_set.intersection(&their_set).count() as f64;
            let union = my_set.union(&their_set).count() as f64;
            let (a, b) = (my_set.len() as f64, their_set.len() as f64);
            acc.dot += inter / union;
            acc.min += inter / a.min(b);
            acc.max += inter / a.max(b);
            peers += 1;
        }
        if peers == 0 {
            return ClusteringCoefficients::default();
        }
        let inv = 1.0 / peers as f64;
        ClusteringCoefficients {
            dot: acc.dot * inv,
            min: acc.min * inv,
            max: acc.max * inv,
        }
    }

    proptest::proptest! {
        #[test]
        fn coefficients_match_hashset_reference_bitwise(
            ops in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..250),
        ) {
            let mut t = ClusteringTracker::new(10);
            let mut now = 0u32;
            for op in ops {
                now += op & 1;
                if op >> 1 & 7 == 0 {
                    t.expire(now);
                } else {
                    t.record(now, sn((op >> 8) % 12), cust((op >> 16) % 9));
                }
                // cust(9) never has a neighbourhood.
                for c in 0..10 {
                    let got = t.coefficients(cust(c)).as_array();
                    let want = reference_coefficients(&t, cust(c)).as_array();
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "customer {c}");
                }
            }
        }
    }

    #[test]
    fn isolated_customer_has_zero_coefficients() {
        let mut t = ClusteringTracker::new(60);
        t.record(0, sn(1), cust(1));
        let c = t.coefficients(cust(1));
        assert_eq!(c, ClusteringCoefficients::default());
        assert_eq!(t.coefficients(cust(99)), ClusteringCoefficients::default());
    }

    #[test]
    fn identical_neighbourhoods_are_fully_clustered() {
        let mut t = ClusteringTracker::new(60);
        for c in [cust(1), cust(2)] {
            t.record(0, sn(1), c);
            t.record(0, sn(2), c);
        }
        let c = t.coefficients(cust(1));
        assert_eq!(c.dot, 1.0);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.max, 1.0);
    }

    #[test]
    fn partial_overlap_orders_variants() {
        let mut t = ClusteringTracker::new(60);
        // cust1: {1, 2}; cust2: {2, 3, 4}.
        t.record(0, sn(1), cust(1));
        t.record(0, sn(2), cust(1));
        t.record(0, sn(2), cust(2));
        t.record(0, sn(3), cust(2));
        t.record(0, sn(4), cust(2));
        let c = t.coefficients(cust(1));
        assert!((c.dot - 0.25).abs() < 1e-12); // 1/4
        assert!((c.min - 0.5).abs() < 1e-12); // 1/2
        assert!((c.max - 1.0 / 3.0).abs() < 1e-12); // 1/3
        assert!(c.min >= c.dot && c.dot >= c.max - 1e-12 || c.min >= c.max);
    }

    #[test]
    fn disjoint_neighbourhoods_are_zero() {
        let mut t = ClusteringTracker::new(60);
        t.record(0, sn(1), cust(1));
        t.record(0, sn(2), cust(2));
        assert_eq!(t.coefficients(cust(1)), ClusteringCoefficients::default());
    }

    #[test]
    fn expiry_removes_old_incidences() {
        let mut t = ClusteringTracker::new(10);
        t.record(0, sn(1), cust(1));
        t.record(0, sn(1), cust(2));
        assert_eq!(t.coefficients(cust(1)).dot, 1.0);
        t.expire(100);
        assert_eq!(t.coefficients(cust(1)), ClusteringCoefficients::default());
        assert_eq!(t.active_customers(), 0);
    }

    #[test]
    fn multiplicity_survives_partial_expiry() {
        let mut t = ClusteringTracker::new(10);
        t.record(0, sn(1), cust(1));
        t.record(8, sn(1), cust(1)); // same incidence refreshed
        t.record(8, sn(1), cust(2));
        t.expire(11); // first event expires; second remains
        assert_eq!(t.coefficients(cust(1)).dot, 1.0);
    }

    #[test]
    fn coefficient_rises_as_groups_converge() {
        // Fig 16 shape: as a shared group attacks more customers, the
        // average coefficient rises.
        let mut t = ClusteringTracker::new(60);
        t.record(0, sn(1), cust(1));
        t.record(0, sn(9), cust(2)); // unrelated at first
        let before = t.coefficients(cust(1)).dot;
        t.record(5, sn(1), cust(2)); // group 1 expands to cust2
        let after = t.coefficients(cust(1)).dot;
        assert!(after > before);
    }
}
