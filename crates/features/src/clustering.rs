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
//! at that moment — O(deg(attacker) · log C) per edge birth or death, one
//! keyed lookup for a refresh — and
//! [`coefficients`](ClusteringTracker::coefficients) reads the stored
//! integers: O(overlapping peers), whatever the neighbourhood sizes.
//!
//! Edges live in a slab addressed by `u32` handles, and the expiry queue
//! holds one entry per edge-minute, not one per flow. Attacker /24s are
//! exporter-supplied keys: by DESIGN.md §18's rule they meet only the
//! standard library's keyed hasher, as `PrevAttackerTracker`'s keys do, and
//! no iteration over a hashed map reaches an output.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
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

/// The end of a list through the slab; as a customer id, a free slot.
const NIL: u32 = u32::MAX;

/// One slab slot: a live (attacker /24, customer) edge or a free slot.
#[derive(Clone, Copy, Debug)]
struct Edge {
    attacker: Subnet24,
    /// Dense customer id, [`NIL`] in a free slot.
    customer: u32,
    /// The newest minute the edge was recorded at. The queue entry that
    /// carries it is the one that kills the edge.
    last_seen: u32,
    /// The attacker's next live edge, or in a free slot the next free one.
    next: u32,
}

/// `|N(u) ∩ N(peer)|` for one overlapping peer.
#[derive(Clone, Copy, Debug)]
struct Overlap {
    peer: Ipv4,
    /// The peer's dense id.
    id: u32,
    shared: u32,
}

/// One customer's side of the graph, under a dense id that lives as long as
/// the tracker. Inactive while its degree is zero.
#[derive(Clone, Debug)]
struct Customer {
    addr: Ipv4,
    /// `|N(u)|`: distinct attacker /24s within the window.
    degree: u32,
    /// Non-zero overlaps only, sorted by peer address so the averaging loop
    /// in [`ClusteringTracker::coefficients`] adds peers in address order:
    /// floating-point accumulation order is part of the determinism
    /// contract.
    overlaps: Vec<Overlap>,
}

/// Sliding-window bipartite incidence graph of attacker /24s vs customers.
#[derive(Clone, Debug)]
pub struct ClusteringTracker {
    window_minutes: u32,
    /// The expiry FIFO of (minute, edge handle) entries, run-length
    /// encoded: `queued` holds the handles in push order, `minutes` each
    /// distinct minute with the number of entries pushed at it. An entry is
    /// pushed when an edge's last-seen minute advances; one whose minute is
    /// no longer its edge's last-seen minute is stale and is dropped when
    /// it reaches the front.
    minutes: VecDeque<(u32, u32)>,
    queued: VecDeque<u32>,
    /// Edge slots, free ones chained through `next` from `free`.
    slab: Vec<Edge>,
    free: u32,
    /// (attacker, customer) -> handle of the live edge.
    edges: HashMap<(Subnet24, Ipv4), u32>,
    /// Attacker -> head of its list of live edges through the slab. A list
    /// is walked only when one of its edges is born or dies.
    heads: HashMap<Subnet24, u32>,
    /// Customer address -> dense id, an index into `customers`.
    ids: HashMap<Ipv4, u32>,
    customers: Vec<Customer>,
    /// Customers with a non-zero degree.
    active: usize,
    /// Unordered customer pairs sharing at least one attacker.
    pairs: usize,
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
            minutes: VecDeque::new(),
            queued: VecDeque::new(),
            slab: Vec::new(),
            free: NIL,
            edges: HashMap::new(),
            heads: HashMap::new(),
            ids: HashMap::new(),
            customers: Vec::new(),
            active: 0,
            pairs: 0,
        }
    }

    /// Records that attacker subnet `attacker` sent attack-phase traffic to
    /// `customer` at `minute`. Call [`expire`](Self::expire) as time moves.
    ///
    /// Minutes must be non-decreasing from one call to the next: expiry is
    /// FIFO and stops at the first entry still inside the window, so an
    /// incidence recorded behind a newer one would outlive the window by
    /// its lag.
    ///
    /// # Panics
    /// Panics if `u32::MAX` edges are live or `u32::MAX` customers have
    /// been seen: handles and ids are `u32`s.
    pub fn record(&mut self, minute: u32, attacker: Subnet24, customer: Ipv4) {
        debug_assert!(
            self.minutes.back().is_none_or(|&(last, _)| last <= minute),
            "record minutes must be non-decreasing"
        );
        let handle = match self.edges.entry((attacker, customer)) {
            Entry::Occupied(edge) => {
                let handle = *edge.get();
                let edge = &mut self.slab[handle as usize];
                if edge.last_seen != minute {
                    edge.last_seen = minute;
                    self.enqueue(minute, handle);
                }
                return;
            }
            Entry::Vacant(slot) => {
                let handle = match self.free {
                    NIL => handle_of(self.slab.len()),
                    free => free,
                };
                *slot.insert(handle)
            }
        };
        self.enqueue(minute, handle);
        self.birth(handle, minute, attacker, customer);
    }

    /// Pushes the queue entry `(minute, handle)`.
    fn enqueue(&mut self, minute: u32, handle: u32) {
        match self.minutes.back_mut() {
            Some((last, entries)) if *last == minute => *entries += 1,
            _ => self.minutes.push_back((minute, 1)),
        }
        self.queued.push_back(handle);
    }

    /// Fills slot `handle` with a new edge and moves its customer's overlap
    /// with every customer `attacker` already reaches up by one.
    fn birth(&mut self, handle: u32, minute: u32, attacker: Subnet24, customer: Ipv4) {
        let id = match self.ids.entry(customer) {
            Entry::Occupied(id) => *id.get(),
            Entry::Vacant(slot) => {
                let id = handle_of(self.customers.len());
                self.customers.push(Customer {
                    addr: customer,
                    degree: 0,
                    overlaps: Vec::new(),
                });
                *slot.insert(id)
            }
        };
        let head = self.heads.insert(attacker, handle).unwrap_or(NIL);
        let mut at = head;
        while let Some(&peer) = self.slab.get(at as usize) {
            self.shift_pair(id, peer.customer, true);
            at = peer.next;
        }
        let edge = Edge {
            attacker,
            customer: id,
            last_seen: minute,
            next: head,
        };
        match self.slab.get_mut(handle as usize) {
            Some(slot) => {
                self.free = slot.next;
                *slot = edge;
            }
            None => self.slab.push(edge),
        }
        let hood = &mut self.customers[id as usize];
        hood.degree += 1;
        if hood.degree == 1 {
            self.active += 1;
        }
    }

    /// Expires incidences older than the window relative to `now`.
    pub fn expire(&mut self, now: u32) {
        while let Some(&(minute, entries)) = self.minutes.front() {
            if now.saturating_sub(minute) <= self.window_minutes {
                break;
            }
            self.minutes.pop_front();
            for _ in 0..entries {
                let Some(handle) = self.queued.pop_front() else {
                    break;
                };
                let edge = self.slab[handle as usize];
                if edge.customer != NIL && edge.last_seen == minute {
                    self.death(handle, edge);
                }
            }
        }
    }

    /// Live edge `handle` dies: its customer's overlap with every other
    /// customer its attacker reaches moves down by one, and its slot is
    /// unlinked from the attacker's list and freed.
    fn death(&mut self, handle: u32, edge: Edge) {
        let mut before = None;
        let mut prev = NIL;
        let mut at = self.heads.get(&edge.attacker).copied().unwrap_or(NIL);
        while let Some(&peer) = self.slab.get(at as usize) {
            if at == handle {
                before = Some(prev);
            } else {
                self.shift_pair(edge.customer, peer.customer, false);
            }
            prev = at;
            at = peer.next;
        }
        debug_assert!(before.is_some(), "a live edge is on its attacker's list");
        match before {
            Some(NIL) if edge.next == NIL => {
                self.heads.remove(&edge.attacker);
            }
            Some(NIL) => {
                self.heads.insert(edge.attacker, edge.next);
            }
            Some(prev) => self.slab[prev as usize].next = edge.next,
            None => {}
        }
        let hood = &mut self.customers[edge.customer as usize];
        self.edges.remove(&(edge.attacker, hood.addr));
        hood.degree -= 1;
        if hood.degree == 0 {
            debug_assert!(hood.overlaps.is_empty(), "an inactive customer overlaps");
            hood.overlaps = Vec::new();
            self.active -= 1;
        }
        self.slab[handle as usize] = Edge {
            customer: NIL,
            next: self.free,
            ..edge
        };
        self.free = handle;
    }

    /// Moves the overlap of customers `u` and `v` by one, in both
    /// directions, and counts the pair when it crosses zero.
    fn shift_pair(&mut self, u: u32, v: u32, born: bool) {
        let (addr_u, addr_v) = (
            self.customers[u as usize].addr,
            self.customers[v as usize].addr,
        );
        let crossed = shift(&mut self.customers[u as usize].overlaps, addr_v, v, born);
        shift(&mut self.customers[v as usize].overlaps, addr_u, u, born);
        if crossed {
            if born {
                self.pairs += 1;
            } else {
                self.pairs -= 1;
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
        let Some(mine) = self
            .ids
            .get(&customer)
            .map(|&id| &self.customers[id as usize])
            .filter(|mine| mine.degree > 0)
        else {
            return ClusteringCoefficients::default();
        };
        let peers = self.active - 1;
        if peers == 0 {
            return ClusteringCoefficients::default();
        }
        let a = mine.degree as f64;
        let mut acc = ClusteringCoefficients::default();
        for overlap in &mine.overlaps {
            let theirs = self.customers[overlap.id as usize].degree;
            let shared = overlap.shared;
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
        self.active
    }

    /// Number of distinct (attacker /24, customer) edges within the window.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of unordered customer pairs sharing at least one attacker.
    pub fn overlap_pairs(&self) -> usize {
        self.pairs
    }
}

/// A slab length or customer count as the next `u32` handle or id; `NIL`
/// stays reserved.
fn handle_of(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&handle| handle != NIL)
        .expect("fewer than u32::MAX edges and customers")
}

/// Moves the overlap with `peer` (dense id `id`) in an address-sorted list
/// by one; true when the entry was created or removed.
fn shift(overlaps: &mut Vec<Overlap>, peer: Ipv4, id: u32, born: bool) -> bool {
    match overlaps.binary_search_by_key(&peer, |o| o.peer) {
        Ok(at) if born => {
            overlaps[at].shared += 1;
            false
        }
        Ok(at) if overlaps[at].shared > 1 => {
            overlaps[at].shared -= 1;
            false
        }
        Ok(at) => {
            overlaps.remove(at);
            true
        }
        Err(at) if born => {
            overlaps.insert(
                at,
                Overlap {
                    peer,
                    id,
                    shared: 1,
                },
            );
            true
        }
        Err(_) => {
            debug_assert!(false, "a dying edge's peers overlap");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, HashSet};

    fn sn(x: u32) -> Subnet24 {
        Subnet24(x)
    }

    fn cust(x: u32) -> Ipv4 {
        Ipv4(0x0A00_0000 + x)
    }

    /// The tracker restated from the op log alone: per-customer multiplicity
    /// maps and a FIFO of every incidence, the layout `ClusteringTracker`
    /// had before overlaps became state. Shares no field with the
    /// implementation.
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

        fn edge_count(&self) -> usize {
            self.neighbours.values().map(BTreeMap::len).sum()
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
        /// The queue's (minute, handle) entries, front first.
        fn entries(&self) -> Vec<(u32, u32)> {
            let minutes = self.minutes.iter();
            let runs = minutes.flat_map(|&(minute, n)| std::iter::repeat_n(minute, n as usize));
            runs.zip(self.queued.iter().copied()).collect()
        }

        /// Recounts the derived state by brute force: the slab's live and
        /// free slots, the edge map, each live edge's last-seen minute
        /// against its newest queued one, the attacker lists, every
        /// `|N(u)|`, every overlap in both directions, and the three
        /// counters.
        fn check_invariants(&self) {
            let slot = |handle: u32| self.slab[handle as usize];
            let live: BTreeSet<u32> = (0..self.slab.len() as u32)
                .filter(|&h| slot(h).customer != NIL)
                .collect();
            let mut free = BTreeSet::new();
            let mut at = self.free;
            while at != NIL {
                assert!(free.insert(at), "the free list loops");
                assert_eq!(slot(at).customer, NIL, "a free slot holds an edge");
                at = slot(at).next;
            }
            assert_eq!(live.len() + free.len(), self.slab.len(), "lost slots");

            assert_eq!(self.edges.len(), live.len(), "edge_count");
            for (&(attacker, customer), &handle) in &self.edges {
                let edge = slot(handle);
                assert!(live.contains(&handle), "the edge map names a free slot");
                assert_eq!(edge.attacker, attacker, "edge map key");
                assert_eq!(self.customers[edge.customer as usize].addr, customer);
            }

            let runs: Vec<u32> = self.minutes.iter().map(|&(_, n)| n).collect();
            assert!(runs.iter().all(|&n| n > 0), "an empty run");
            let in_runs: u32 = runs.iter().sum();
            assert_eq!(in_runs as usize, self.queued.len(), "run lengths");
            let minutes = self.minutes.iter().map(|&(minute, _)| minute);
            assert!(
                minutes.clone().zip(minutes.skip(1)).all(|(a, b)| a < b),
                "run minutes"
            );
            let mut newest: BTreeMap<u32, u32> = BTreeMap::new();
            for (minute, handle) in self.entries() {
                assert!(live.contains(&handle), "a queued handle is live");
                let before = newest.insert(handle, minute);
                assert!(before < Some(minute), "one entry per edge-minute");
            }
            for &handle in &live {
                assert_eq!(
                    newest.get(&handle),
                    Some(&slot(handle).last_seen),
                    "last-seen minute of edge {handle}"
                );
            }

            let mut listed = BTreeSet::new();
            for (&attacker, &head) in &self.heads {
                assert_ne!(head, NIL, "an empty list keeps its head");
                let mut at = head;
                while at != NIL {
                    assert_eq!(slot(at).attacker, attacker, "list of {attacker:?}");
                    assert!(listed.insert(at), "edge {at} listed twice");
                    at = slot(at).next;
                }
            }
            assert_eq!(listed, live, "the attacker lists hold the live edges");

            let mut sets: BTreeMap<Ipv4, BTreeSet<Subnet24>> = BTreeMap::new();
            for &handle in &live {
                let edge = slot(handle);
                let customer = self.customers[edge.customer as usize].addr;
                sets.entry(customer).or_default().insert(edge.attacker);
            }
            assert_eq!(self.ids.len(), self.customers.len(), "ids");
            for (&customer, &id) in &self.ids {
                assert_eq!(
                    self.customers[id as usize].addr, customer,
                    "id of {customer:?}"
                );
            }
            let none = BTreeSet::new();
            let mut entries = 0;
            for (id, hood) in self.customers.iter().enumerate() {
                let u = hood.addr;
                let mine = sets.get(&u).unwrap_or(&none);
                assert_eq!(hood.degree as usize, mine.len(), "|N({u:?})|");
                let recount: Vec<(Ipv4, u32)> = sets
                    .iter()
                    .filter(|(v, _)| **v != u)
                    .map(|(v, set)| (*v, set.intersection(mine).count() as u32))
                    .filter(|&(_, shared)| shared > 0)
                    .collect();
                let stored: Vec<(Ipv4, u32)> =
                    hood.overlaps.iter().map(|o| (o.peer, o.shared)).collect();
                assert_eq!(stored, recount, "overlaps of {u:?}, in address order");
                for o in &hood.overlaps {
                    let peer = &self.customers[o.id as usize];
                    assert_eq!(peer.addr, o.peer, "peer id");
                    let back = peer.overlaps.iter().find(|b| b.peer == u);
                    assert_eq!(back.map(|b| (b.id, b.shared)), Some((id as u32, o.shared)));
                }
                entries += hood.overlaps.len();
            }
            assert_eq!(self.active, sets.len(), "active_customers");
            assert_eq!(self.pairs * 2, entries, "overlap_pairs");
        }

        /// After `expire(now)` with every record at or before `now`, each
        /// live edge holds at most one queue entry per minute of the window.
        fn check_queue_bound(&self) {
            let bound = self.edge_count() * (self.window_minutes as usize + 1);
            assert!(
                self.queued.len() <= bound,
                "{} > {bound}",
                self.queued.len()
            );
        }
    }

    /// Customers `0..SHARING` draw from the shared attacker pool (and are
    /// carpet-bombed together); the next `PRIVATE` only ever see an attacker
    /// of their own, so they are active without overlapping anyone; the
    /// last one is never recorded.
    const SHARING: u32 = 36;
    const PRIVATE: u32 = 3;
    const WINDOW: u32 = 10;
    /// Hostile attacker sets: every /24 of one /16, and a stride-256
    /// progression (one /24 in each of consecutive /16s).
    const ONE_SLASH16: u32 = 0x3C_4100;
    const STRIDE_256: u32 = 0x2A_0007;

    /// Drives the tracker and the model through the same writes and holds
    /// everything the tracker reports to the model.
    fn record_both(
        t: &mut ClusteringTracker,
        model: &mut Model,
        now: u32,
        writes: &[(Subnet24, u32)],
    ) {
        for &(attacker, customer) in writes {
            t.record(now, attacker, cust(customer));
            model.record(now, attacker, cust(customer));
        }
    }

    fn expire_both(t: &mut ClusteringTracker, model: &mut Model, now: u32) {
        t.expire(now);
        model.expire(now);
        t.check_queue_bound();
    }

    fn assert_matches_model(t: &ClusteringTracker, model: &Model) {
        t.check_invariants();
        assert_eq!(
            t.active_customers(),
            model.neighbours.len(),
            "active customers"
        );
        assert_eq!(t.edge_count(), model.edge_count(), "edges");
        for c in 0..=SHARING + PRIVATE {
            let got = t.coefficients(cust(c)).as_array();
            let want = model.coefficients(cust(c)).as_array();
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "customer {c}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn coefficients_match_op_log_model_bitwise(
            ops in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..90),
        ) {
            let mut t = ClusteringTracker::new(WINDOW);
            let mut model = Model::new(WINDOW);
            let mut now = 0u32;
            for op in ops {
                now += op & 1;
                let pick = op >> 8;
                let shared = sn(pick % 12);
                let c = (op >> 16) % (SHARING + PRIVATE);
                let kind = op >> 1 & 15;
                let mut writes = Vec::new();
                match kind {
                    0 | 1 => {}
                    // Silence long enough to expire the tracker to empty;
                    // later ops re-record into it, so edges are reborn and
                    // customers return.
                    2 => now += WINDOW + 1,
                    // The newest minute's incidences land exactly on the
                    // horizon, `now − minute == window`, and stay.
                    3 => now += WINDOW,
                    // Carpet bomb: one attacker, at least 32 customers.
                    4 | 5 => writes.extend((0..32 + c % 5).map(|v| (shared, v))),
                    // One edge repeated inside one minute.
                    6 => writes.extend((0..2 + pick % 3).map(|_| (shared, c % SHARING))),
                    // Hostile sets: /24s of one /16 and a stride-256
                    // progression, each over a few sharing customers.
                    7 => writes.extend(
                        (0..4).map(|k| (sn(ONE_SLASH16 + (pick + 37 * k) % 256), (c + k) % SHARING)),
                    ),
                    8 => writes.extend(
                        (0..4).map(|k| (sn(STRIDE_256 + 256 * ((pick + k) % 16)), (c + 3 * k) % SHARING)),
                    ),
                    // The customer's own /24 (repeats refresh it).
                    _ if c >= SHARING || op >> 5 & 3 == 0 => writes.push((sn(100 + c), c)),
                    _ => writes.push((shared, c)),
                }
                record_both(&mut t, &mut model, now, &writes);
                if kind <= 3 {
                    expire_both(&mut t, &mut model, now);
                }
                assert_matches_model(&t, &model);
            }
        }
    }

    #[test]
    fn tracker_is_empty_once_every_event_has_expired() {
        let mut t = ClusteringTracker::new(WINDOW);
        // cust 1 and 2 share sn(1) from minute 0; cust 3 joins at minute 4
        // with a refresh of cust 2's edge.
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
        // every overlap entry naming it go, on both sides. cust 2's stale
        // minute-0 entry leaves the queue without touching its edge.
        t.expire(WINDOW + 1);
        t.check_invariants();
        assert_eq!(
            (t.active_customers(), t.edge_count(), t.overlap_pairs()),
            (2, 2, 1)
        );
        assert_eq!(t.entries(), [(4, 1), (4, 3)]);
        assert_eq!(t.coefficients(cust(1)), ClusteringCoefficients::default());
        assert_eq!(t.coefficients(cust(2)).dot, 1.0);
        t.expire(4 + WINDOW + 1);
        t.check_invariants();
        assert_eq!(
            (t.active_customers(), t.edge_count(), t.overlap_pairs()),
            (0, 0, 0)
        );
        assert!(t.minutes.is_empty() && t.queued.is_empty());
        assert!(t.edges.is_empty() && t.heads.is_empty());
        assert!(t
            .customers
            .iter()
            .all(|c| c.degree == 0 && c.overlaps.is_empty()));
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

    /// The queue grows with edge-minutes, not with flows: repeats of one
    /// edge inside a minute queue nothing, and an entry its edge has moved
    /// past is dropped without touching the edge.
    #[test]
    fn repeats_inside_a_minute_queue_one_entry() {
        let mut t = ClusteringTracker::new(WINDOW);
        for _ in 0..5 {
            t.record(3, sn(1), cust(1));
            t.record(3, sn(1), cust(2));
        }
        assert_eq!(t.entries(), [(3, 0), (3, 1)]);
        t.record(4, sn(1), cust(1));
        t.record(4, sn(1), cust(1));
        assert_eq!(t.entries(), [(3, 0), (3, 1), (4, 0)]);
        t.check_invariants();
        t.expire(3 + WINDOW + 1);
        t.check_invariants();
        assert_eq!((t.edge_count(), t.entries()), (1, vec![(4, 0)]));
        t.expire(4 + WINDOW);
        assert_eq!(t.edge_count(), 1, "exactly on the horizon");
        t.expire(4 + WINDOW + 1);
        assert_eq!((t.edge_count(), t.queued.len(), t.minutes.len()), (0, 0, 0));
    }

    /// A dead edge's slot is reused by the next birth, and a customer whose
    /// last edge died keeps its id and returns under it.
    #[test]
    fn edges_are_reborn_into_freed_slots_and_customers_return() {
        let mut t = ClusteringTracker::new(WINDOW);
        let mut model = Model::new(WINDOW);
        let carpet: Vec<(Subnet24, u32)> = (0..4).map(|c| (sn(1), c)).collect();
        record_both(&mut t, &mut model, 0, &carpet);
        record_both(&mut t, &mut model, 0, &[(sn(2), 0)]);
        record_both(&mut t, &mut model, 5, &[(sn(2), 1)]);
        assert_matches_model(&t, &model);
        expire_both(&mut t, &mut model, WINDOW + 1);
        assert_matches_model(&t, &model);
        assert_eq!((t.active_customers(), t.edge_count()), (1, 1));
        assert_eq!(t.customers[0].degree, 0, "customer 0 is inactive");
        // Customer 0 returns on the attacker it lost, beside customer 1.
        record_both(&mut t, &mut model, WINDOW + 2, &[(sn(2), 0), (sn(1), 3)]);
        assert_matches_model(&t, &model);
        assert_eq!(
            (t.slab.len(), t.customers.len()),
            (6, 4),
            "no slot or id grew"
        );
        assert_eq!(t.ids[&cust(0)], 0);
        assert_eq!(t.coefficients(cust(0)).dot, 0.5);
        expire_both(&mut t, &mut model, 5 + WINDOW + 1);
        assert_matches_model(&t, &model);
        expire_both(&mut t, &mut model, 3 * WINDOW);
        assert_matches_model(&t, &model);
        assert_eq!(t.edge_count(), 0);
    }

    /// Attacker sets shaped against a hash of the address (every /24 of a
    /// /16; one /24 in each of 256 consecutive /16s) over a carpet of
    /// customers, born, refreshed and expired against the model.
    #[test]
    fn hostile_attacker_sets_match_the_model() {
        let mut t = ClusteringTracker::new(WINDOW);
        let mut model = Model::new(WINDOW);
        for (minute, base, stride) in [(0, ONE_SLASH16, 1), (3, STRIDE_256, 256)] {
            let writes: Vec<(Subnet24, u32)> = (0..256)
                .map(|k| (sn(base + stride * k), k % 7))
                .chain((0..40).map(|k| (sn(base + stride * 255), k % SHARING)))
                .collect();
            record_both(&mut t, &mut model, minute, &writes);
            assert_matches_model(&t, &model);
        }
        for now in [WINDOW, WINDOW + 1, 3 + WINDOW + 1] {
            expire_both(&mut t, &mut model, now);
            assert_matches_model(&t, &model);
        }
        assert_eq!(t.edge_count(), 0);
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
