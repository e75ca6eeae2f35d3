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
//!
//! The overlaps are **state**, maintained on write. The graph changes only
//! when an (attacker, customer) edge is born or dies, so
//! [`ClusteringTracker::record`] / [`expire`](ClusteringTracker::expire)
//! adjust `|N(u) ∩ N(v)|` for the customers that attacker already reaches
//! at that moment — O(deg(attacker) · log C) per edge birth or death,
//! O(log) for a refresh — and
//! [`coefficients`](ClusteringTracker::coefficients) reads the stored
//! integers: O(overlapping peers · log C), whatever the neighbourhood
//! sizes. Every map is ordered; attacker /24s are exporter-supplied keys
//! and are never hashed (DESIGN.md §18).

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

/// One active customer's side of the graph.
#[derive(Clone, Debug, Default)]
struct Neighbourhood {
    /// `|N(u)|`: distinct attacker /24s within the window.
    degree: u32,
    /// peer -> `|N(u) ∩ N(peer)|`, non-zero entries only. Address-ordered
    /// so the averaging loop in [`ClusteringTracker::coefficients`] adds
    /// peers in address order: floating-point accumulation order is part
    /// of the determinism contract, and a hash map would randomize it
    /// (and the result's low bits) per process.
    overlaps: BTreeMap<Ipv4, u32>,
}

/// Sliding-window bipartite incidence graph of attacker /24s vs customers.
#[derive(Clone, Debug)]
pub struct ClusteringTracker {
    window_minutes: u32,
    /// FIFO of (minute, attacker, customer) incidences for expiry.
    events: VecDeque<(u32, Subnet24, Ipv4)>,
    /// (attacker, customer) -> multiplicity within the window. The one
    /// incidence store, attacker-major: an attacker's customers are one
    /// key range, which is what an edge birth or death has to walk.
    edges: BTreeMap<(Subnet24, Ipv4), u32>,
    /// Customers with a non-empty neighbourhood.
    customers: BTreeMap<Ipv4, Neighbourhood>,
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
            edges: BTreeMap::new(),
            customers: BTreeMap::new(),
        }
    }

    /// Records that attacker subnet `attacker` sent attack-phase traffic to
    /// `customer` at `minute`. Call [`expire`](Self::expire) as time moves.
    ///
    /// Minutes must be non-decreasing from one call to the next: expiry is
    /// FIFO and stops at the first incidence still inside the window, so an
    /// incidence recorded behind a newer one would outlive the window by
    /// its lag.
    pub fn record(&mut self, minute: u32, attacker: Subnet24, customer: Ipv4) {
        debug_assert!(
            self.events.back().is_none_or(|&(last, ..)| last <= minute),
            "record minutes must be non-decreasing"
        );
        self.events.push_back((minute, attacker, customer));
        let count = self.edges.entry((attacker, customer)).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.customers.entry(customer).or_default().degree += 1;
            self.shift_overlaps(attacker, customer, true);
        }
    }

    /// Expires incidences older than the window relative to `now`.
    pub fn expire(&mut self, now: u32) {
        while let Some(&(minute, attacker, customer)) = self.events.front() {
            if now.saturating_sub(minute) <= self.window_minutes {
                break;
            }
            self.events.pop_front();
            let count = self
                .edges
                .get_mut(&(attacker, customer))
                .expect("a queued incidence has its edge");
            *count -= 1;
            if *count > 0 {
                continue;
            }
            self.edges.remove(&(attacker, customer));
            self.shift_overlaps(attacker, customer, false);
            let hood = self
                .customers
                .get_mut(&customer)
                .expect("an edge's customer is active");
            hood.degree -= 1;
            if hood.degree == 0 {
                self.customers.remove(&customer);
            }
        }
    }

    /// Edge `(attacker, customer)` was born or died: moves `customer`'s
    /// overlap with every other customer `attacker` reaches — one key range
    /// of the attacker-major store — by one, in both directions.
    fn shift_overlaps(&mut self, attacker: Subnet24, customer: Ipv4, born: bool) {
        let reached = (attacker, Ipv4(0))..=(attacker, Ipv4(u32::MAX));
        for (&(_, peer), _) in self.edges.range(reached) {
            if peer == customer {
                continue;
            }
            for (u, v) in [(customer, peer), (peer, customer)] {
                let hood = self
                    .customers
                    .get_mut(&u)
                    .expect("an edge's customer is active");
                let shared = hood.overlaps.entry(v).or_insert(0);
                if born {
                    *shared += 1;
                } else if *shared == 1 {
                    hood.overlaps.remove(&v);
                } else {
                    *shared -= 1;
                }
            }
        }
    }

    /// The three clustering coefficients for `customer`, averaged over all
    /// other customers with active neighbourhoods. Zero when the customer
    /// has no active attackers or no peers exist.
    ///
    /// Only overlapping peers are visited. A disjoint peer's three terms are
    /// `0 / x = +0.0`, and adding `+0.0` to a running sum that is never
    /// `-0.0` leaves its bits alone, so skipping it changes nothing.
    pub fn coefficients(&self, customer: Ipv4) -> ClusteringCoefficients {
        let Some(mine) = self.customers.get(&customer) else {
            return ClusteringCoefficients::default();
        };
        let peers = self.customers.len() - 1;
        if peers == 0 {
            return ClusteringCoefficients::default();
        }
        let a = mine.degree as f64;
        let mut acc = ClusteringCoefficients::default();
        for (peer, &shared) in &mine.overlaps {
            let theirs = self.customers[peer].degree;
            let inter = shared as f64;
            let union = (mine.degree + theirs - shared) as f64;
            let b = theirs as f64;
            acc.dot += inter / union;
            acc.min += inter / a.min(b);
            acc.max += inter / a.max(b);
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
        self.customers.len()
    }

    /// Number of distinct (attacker /24, customer) edges within the window.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of unordered customer pairs sharing at least one attacker.
    pub fn overlap_pairs(&self) -> usize {
        self.customers
            .values()
            .map(|h| h.overlaps.len())
            .sum::<usize>()
            / 2
    }
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

    /// The tracker restated from the op log alone: per-customer multiplicity
    /// maps and a FIFO, the layout `ClusteringTracker` had before overlaps
    /// became state. Shares no field with the implementation.
    struct Model {
        window: u32,
        events: VecDeque<(u32, Subnet24, Ipv4)>,
        neighbours: BTreeMap<Ipv4, BTreeMap<Subnet24, u32>>,
    }

    impl Model {
        fn new(window: u32) -> Self {
            Model {
                window,
                events: VecDeque::new(),
                neighbours: BTreeMap::new(),
            }
        }

        fn record(&mut self, minute: u32, attacker: Subnet24, customer: Ipv4) {
            self.events.push_back((minute, attacker, customer));
            *self
                .neighbours
                .entry(customer)
                .or_default()
                .entry(attacker)
                .or_insert(0) += 1;
        }

        fn expire(&mut self, now: u32) {
            while let Some(&(minute, attacker, customer)) = self.events.front() {
                if now.saturating_sub(minute) <= self.window {
                    break;
                }
                self.events.pop_front();
                let set = self.neighbours.get_mut(&customer).unwrap();
                let count = set.get_mut(&attacker).unwrap();
                *count -= 1;
                if *count == 0 {
                    set.remove(&attacker);
                }
                if set.is_empty() {
                    self.neighbours.remove(&customer);
                }
            }
        }

        /// The pre-merge `coefficients`, frozen: two `HashSet`s per peer,
        /// every active peer visited.
        fn coefficients(&self, customer: Ipv4) -> ClusteringCoefficients {
            let Some(mine) = self.neighbours.get(&customer) else {
                return ClusteringCoefficients::default();
            };
            let my_set: HashSet<&Subnet24> = mine.keys().collect();
            let mut acc = ClusteringCoefficients::default();
            let mut peers = 0usize;
            for (other, theirs) in &self.neighbours {
                if *other == customer {
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
    }

    impl ClusteringTracker {
        /// Recounts the derived state from `edges` and `events` by brute
        /// force: every multiplicity, every `|N(u)|`, every overlap in both
        /// directions, and that nothing else is stored.
        fn check_invariants(&self) {
            let mut queued: BTreeMap<(Subnet24, Ipv4), u32> = BTreeMap::new();
            for &(_, attacker, customer) in &self.events {
                *queued.entry((attacker, customer)).or_insert(0) += 1;
            }
            assert_eq!(self.edges, queued, "multiplicities");
            let mut sets: BTreeMap<Ipv4, HashSet<Subnet24>> = BTreeMap::new();
            for &(attacker, customer) in self.edges.keys() {
                sets.entry(customer).or_default().insert(attacker);
            }
            assert!(self.customers.keys().eq(sets.keys()), "active customers");
            for (u, hood) in &self.customers {
                assert_eq!(hood.degree as usize, sets[u].len(), "|N({u:?})|");
                let recount: BTreeMap<Ipv4, u32> = sets
                    .iter()
                    .filter(|(v, _)| *v != u)
                    .map(|(v, set)| (*v, set.intersection(&sets[u]).count() as u32))
                    .filter(|&(_, shared)| shared > 0)
                    .collect();
                assert_eq!(hood.overlaps, recount, "overlaps of {u:?}");
                for (v, shared) in &hood.overlaps {
                    assert_eq!(self.customers[v].overlaps[u], *shared, "symmetry");
                }
            }
        }
    }

    /// Customers `0..SHARING` draw from the shared attacker pool (and are
    /// carpet-bombed together); the next `PRIVATE` only ever see an attacker
    /// of their own, so they are active without overlapping anyone; the
    /// last one is never recorded.
    const SHARING: u32 = 36;
    const PRIVATE: u32 = 3;
    const WINDOW: u32 = 10;

    proptest::proptest! {
        #[test]
        fn coefficients_match_op_log_model_bitwise(
            ops in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..70),
        ) {
            let mut t = ClusteringTracker::new(WINDOW);
            let mut model = Model::new(WINDOW);
            let mut now = 0u32;
            for op in ops {
                now += op & 1;
                let shared = sn((op >> 8) % 12);
                let c = (op >> 16) % (SHARING + PRIVATE);
                let mut writes = Vec::new();
                match op >> 1 & 15 {
                    0 | 1 => {}
                    // Silence long enough to expire the tracker to empty;
                    // later ops re-record into it.
                    2 => now += WINDOW + 1,
                    // Carpet bomb: one attacker, at least 32 customers.
                    3 | 4 => writes.extend((0..32 + c % 5).map(|v| (shared, v))),
                    // The customer's own /24 (multiplicity > 1 on repeats).
                    _ if c >= SHARING || op >> 5 & 3 == 0 => writes.push((sn(100 + c), c)),
                    _ => writes.push((shared, c)),
                }
                for (attacker, customer) in writes {
                    t.record(now, attacker, cust(customer));
                    model.record(now, attacker, cust(customer));
                }
                if op >> 1 & 15 <= 2 {
                    t.expire(now);
                    model.expire(now);
                }
                t.check_invariants();
                for c in 0..=SHARING + PRIVATE {
                    let got = t.coefficients(cust(c)).as_array();
                    let want = model.coefficients(cust(c)).as_array();
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "customer {c}");
                }
            }
        }
    }

    #[test]
    fn tracker_is_empty_once_every_event_has_expired() {
        let mut t = ClusteringTracker::new(WINDOW);
        // cust 1 and 2 share sn(1) from minute 0; cust 3 joins at minute 4
        // with a refresh of cust 2's edge (multiplicity 2).
        t.record(0, sn(1), cust(1));
        t.record(0, sn(1), cust(2));
        t.record(0, sn(7), cust(1));
        t.record(4, sn(1), cust(2));
        t.record(4, sn(1), cust(3));
        assert_eq!(
            (t.active_customers(), t.edge_count(), t.overlap_pairs()),
            (3, 4, 3)
        );
        t.expire(WINDOW); // minute 0 is still inside the window
        assert_eq!(
            (t.active_customers(), t.edge_count(), t.overlap_pairs()),
            (3, 4, 3)
        );
        // cust 1's last attacker dies while its peers stay active: it and
        // every overlap entry naming it go, on both sides.
        t.expire(WINDOW + 1);
        t.check_invariants();
        assert_eq!(
            (t.active_customers(), t.edge_count(), t.overlap_pairs()),
            (2, 2, 1)
        );
        assert_eq!(t.coefficients(cust(1)), ClusteringCoefficients::default());
        assert_eq!(t.coefficients(cust(2)).dot, 1.0);
        t.expire(4 + WINDOW + 1);
        t.check_invariants();
        assert_eq!(
            (t.active_customers(), t.edge_count(), t.overlap_pairs()),
            (0, 0, 0)
        );
        assert!(t.events.is_empty() && t.edges.is_empty() && t.customers.is_empty());
    }

    #[test]
    fn in_order_records_leave_exactly_when_the_window_passes() {
        let mut t = ClusteringTracker::new(WINDOW);
        for minute in 0..5 {
            t.record(minute, sn(minute), cust(1));
        }
        for minute in 0..5 {
            t.expire(minute + WINDOW);
            assert_eq!(t.edge_count() as u32, 5 - minute, "at the horizon");
            t.expire(minute + WINDOW + 1);
            assert_eq!(t.edge_count() as u32, 4 - minute, "just past it");
        }
    }

    /// Expiry is FIFO: an incidence recorded behind a newer one would sit
    /// in the queue past its window, so `record` refuses it in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn record_rejects_a_minute_older_than_its_predecessor() {
        let mut t = ClusteringTracker::new(WINDOW);
        t.record(5, sn(1), cust(1));
        t.record(4, sn(2), cust(1));
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
