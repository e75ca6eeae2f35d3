//! Per-(customer, minute) flow binning.
//!
//! Xatu extracts features "for every minute of original NetFlow data"
//! (§5.3). The [`MinuteBinner`] groups an unordered stream of flow records
//! into [`MinuteFlows`] bins, one per destination customer per minute, and
//! releases completed bins in timestamp order once the watermark advances.

use crate::addr::Ipv4;
use crate::record::FlowRecord;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// All flows destined to one customer during one minute.
#[derive(Clone, Debug, Default)]
pub struct MinuteFlows {
    /// Minute timestamp of the bin.
    pub minute: u32,
    /// Customer (destination) address the bin belongs to.
    pub customer: Ipv4,
    /// The flows, in arrival order.
    pub flows: Vec<FlowRecord>,
}

impl MinuteFlows {
    /// Total upscaled bytes in the bin, saturating at `u64::MAX`: a v5
    /// record upscales to under 2^46 bytes, so some 2^18 of them in one bin
    /// could wrap a plain sum.
    pub fn total_bytes(&self) -> u64 {
        self.flows
            .iter()
            .fold(0, |sum: u64, f| sum.saturating_add(f.est_bytes()))
    }

    /// Total upscaled packets in the bin, saturating at `u64::MAX`.
    pub fn total_packets(&self) -> u64 {
        self.flows
            .iter()
            .fold(0, |sum: u64, f| sum.saturating_add(f.est_packets()))
    }
}

/// Streaming binner with a watermark.
///
/// Flows may arrive slightly out of order (NetFlow export delay is about one
/// minute in the paper's dataset); bins are only released when
/// [`MinuteBinner::advance_watermark`] moves past their minute, which mirrors
/// a collector's export-delay handling.
///
/// A flow finds its bin in constant time whatever the arrival order: the
/// pending bins sit in one `Vec`, indexed by an open-addressed table of
/// positions keyed by `(minute, customer)` under a hash keyed once per
/// binner, so an exporter cannot aim destinations at one slot. A new bin
/// reserves the flow count its customer had in the last release.
#[derive(Clone)]
pub struct MinuteBinner {
    /// Pending bins, in no particular order.
    bins: Vec<MinuteFlows>,
    /// Open-addressed index over `bins`: each slot is [`EMPTY`] or a
    /// position in `bins`. Its length is a power of two, more than twice
    /// `bins.len()`.
    slots: Vec<u32>,
    /// Odd multiplier of the slot hash, drawn once per binner.
    mul: u64,
    /// Flow count of each customer's newest bin in the last release,
    /// sorted by customer: the capacity a new bin of that customer
    /// reserves.
    hint: Vec<(Ipv4, u32)>,
    watermark: u32,
    late_drops: u64,
    /// Most slots one lookup or insertion has inspected.
    #[cfg(test)]
    longest_probe: usize,
}

/// An unused slot of the index.
const EMPTY: u32 = u32::MAX;
/// Slots of a fresh index.
const MIN_SLOTS: usize = 64;

/// The slot a `(minute, customer)` key's probe starts at, in a table of
/// `2^bits` slots. The key is multiplied by the binner's odd multiplier,
/// its high half folded down, then multiply-shifted to `bits`: a plain
/// multiply-shift maps a run of consecutive or evenly strided addresses to
/// a few clusters for about one multiplier in a hundred.
#[inline]
fn home(minute: u32, customer: Ipv4, mul: u64, bits: u32) -> usize {
    let z = ((u64::from(minute) << 32) | u64::from(customer.0)).wrapping_mul(mul);
    let z = (z ^ (z >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // A table has at least `MIN_SLOTS` slots, so the shift is below 64,
    // and the result is below `2^bits`: a slot of the table.
    (z >> (64 - bits)) as usize
}

/// An odd multiplier drawn from the standard library's per-process
/// random hash keys.
fn draw_multiplier() -> u64 {
    RandomState::new().hash_one(0x5EED_u64) | 1
}

impl Default for MinuteBinner {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MinuteBinner {
    /// The bins and counters; the index and its hash key stay out.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MinuteBinner")
            .field("bins", &self.bins)
            .field("watermark", &self.watermark)
            .field("late_drops", &self.late_drops)
            .finish_non_exhaustive()
    }
}

impl MinuteBinner {
    /// Creates an empty binner with watermark 0.
    pub fn new() -> Self {
        MinuteBinner {
            bins: Vec::new(),
            slots: vec![EMPTY; MIN_SLOTS],
            mul: draw_multiplier(),
            hint: Vec::new(),
            watermark: 0,
            late_drops: 0,
            #[cfg(test)]
            longest_probe: 0,
        }
    }

    /// Adds a flow to its (minute, customer) bin. Flows older than the
    /// watermark are counted as late drops and discarded.
    #[inline]
    pub fn push(&mut self, flow: FlowRecord) {
        if flow.minute < self.watermark {
            self.late_drops += 1;
            return;
        }
        let at = match self.find(flow.minute, flow.dst) {
            Ok(at) => at,
            Err(slot) => self.open_bin(slot, flow.minute, flow.dst),
        };
        self.bins[at].flows.push(flow);
    }

    /// The position in `bins` of the `(minute, customer)` bin, or the
    /// empty slot where its probe ended.
    #[inline]
    fn find(&mut self, minute: u32, customer: Ipv4) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = home(
            minute,
            customer,
            self.mul,
            self.slots.len().trailing_zeros(),
        );
        // Triangular probing: steps 1, 2, 3, ... visit every slot of a
        // power-of-two table, and the index is never full.
        let mut step = 1;
        let found = loop {
            let at = self.slots[slot];
            if at == EMPTY {
                break Err(slot);
            }
            let bin = &self.bins[at as usize];
            if bin.minute == minute && bin.customer == customer {
                break Ok(at as usize);
            }
            slot = (slot + step) & mask;
            step += 1;
        };
        #[cfg(test)]
        {
            self.longest_probe = self.longest_probe.max(step);
        }
        found
    }

    /// Opens the `(minute, customer)` bin at the empty `slot` its probe
    /// ended on, growing the index when it would be half full; returns the
    /// bin's position. Once per bin, so kept out of `push`'s inlined body.
    #[cold]
    #[inline(never)]
    fn open_bin(&mut self, slot: usize, minute: u32, customer: Ipv4) -> usize {
        let at = self.bins.len();
        // Every pending bin holds a flow (40 B), so 2^32 - 1 of them would
        // need 160 GiB: positions stay below `EMPTY`.
        let id = u32::try_from(at)
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("fewer than 2^32 - 1 pending bins");
        let reserve = self
            .hint
            .binary_search_by_key(&customer, |&(c, _)| c)
            .map_or(0, |i| self.hint[i].1 as usize);
        self.bins.push(MinuteFlows {
            minute,
            customer,
            flows: Vec::with_capacity(reserve),
        });
        if 2 * self.bins.len() >= self.slots.len() {
            self.reindex(2 * self.slots.len());
        } else {
            self.slots[slot] = id;
        }
        at
    }

    /// Rebuilds the index over `bins` at `size` slots (a power of two).
    fn reindex(&mut self, size: usize) {
        if self.slots.len() == size {
            self.slots.fill(EMPTY);
        } else {
            self.slots = vec![EMPTY; size];
        }
        let mask = size - 1;
        let bits = size.trailing_zeros();
        for (at, bin) in self.bins.iter().enumerate() {
            let mut slot = home(bin.minute, bin.customer, self.mul, bits);
            let mut step = 1;
            while self.slots[slot] != EMPTY {
                slot = (slot + step) & mask;
                step += 1;
            }
            // `open_bin` admitted every position below `EMPTY`.
            self.slots[slot] = at as u32;
            #[cfg(test)]
            {
                self.longest_probe = self.longest_probe.max(step);
            }
        }
    }

    /// Advances the watermark to `minute` and returns every completed bin
    /// with `bin.minute < minute`, ordered by (minute, customer).
    pub fn advance_watermark(&mut self, minute: u32) -> Vec<MinuteFlows> {
        self.watermark = self.watermark.max(minute);
        let watermark = self.watermark;
        let mut out = Vec::new();
        let mut at = 0;
        while at < self.bins.len() {
            if self.bins[at].minute < watermark {
                out.push(self.bins.swap_remove(at));
            } else {
                at += 1;
            }
        }
        // A call that releases nothing keeps the last release's hint.
        if out.is_empty() {
            return out;
        }
        out.sort_unstable_by_key(|bin| (bin.minute, bin.customer));

        // The hint: each released customer's newest flow count. The sort
        // is stable, so a customer's bins stay in minute order and the
        // dedup keeps the last.
        self.hint.clear();
        self.hint.extend(out.iter().map(|bin| {
            let count = u32::try_from(bin.flows.len()).unwrap_or(u32::MAX);
            (bin.customer, count)
        }));
        self.hint.sort_by_key(|&(customer, _)| customer);
        self.hint.dedup_by(|newer, older| {
            let same = newer.0 == older.0;
            if same {
                older.1 = newer.1;
            }
            same
        });

        // Size the index for the bins kept plus one bin per customer just
        // released, below half full.
        let expected = self.bins.len() + self.hint.len();
        self.reindex((2 * expected + 1).next_power_of_two().max(MIN_SLOTS));
        out
    }

    /// Number of flows dropped for arriving behind the watermark.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Number of bins currently buffered.
    pub fn pending(&self) -> usize {
        self.bins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Protocol, TcpFlags};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The binner as it was before the slot index: one ordered map from
    /// `(minute, customer)` to its bin. The reference the index must equal
    /// after every call.
    #[derive(Clone, Debug, Default)]
    pub struct ReferenceBinner {
        bins: BTreeMap<(u32, Ipv4), MinuteFlows>,
        watermark: u32,
        late_drops: u64,
    }

    impl ReferenceBinner {
        /// Creates an empty binner with watermark 0.
        pub fn new() -> Self {
            Self::default()
        }

        /// Adds a flow to its (minute, customer) bin. Flows older than the
        /// watermark are counted as late drops and discarded.
        pub fn push(&mut self, flow: FlowRecord) {
            if flow.minute < self.watermark {
                self.late_drops += 1;
                return;
            }
            let key = (flow.minute, flow.dst);
            let bin = self.bins.entry(key).or_insert_with(|| MinuteFlows {
                minute: flow.minute,
                customer: flow.dst,
                ..MinuteFlows::default()
            });
            bin.flows.push(flow);
        }

        /// Advances the watermark to `minute` and returns every completed bin
        /// with `bin.minute < minute`, ordered by (minute, customer).
        pub fn advance_watermark(&mut self, minute: u32) -> Vec<MinuteFlows> {
            self.watermark = self.watermark.max(minute);
            let mut out = Vec::new();
            // BTreeMap keys are ordered, so split off the completed range.
            let keep = self.bins.split_off(&(self.watermark, Ipv4(0)));
            for (_, bin) in std::mem::replace(&mut self.bins, keep) {
                out.push(bin);
            }
            out
        }

        /// Number of flows dropped for arriving behind the watermark.
        pub fn late_drops(&self) -> u64 {
            self.late_drops
        }

        /// Number of bins currently buffered.
        pub fn pending(&self) -> usize {
            self.bins.len()
        }
    }

    /// Panics unless the two releases hold the same bins, in the same
    /// order, with the same flows in the same order.
    fn assert_same_release(got: &[MinuteFlows], want: &[MinuteFlows]) {
        assert_eq!(got.len(), want.len(), "bins released");
        for (g, w) in got.iter().zip(want) {
            assert_eq!((g.minute, g.customer), (w.minute, w.customer));
            assert_eq!(
                g.flows, w.flows,
                "flows of ({}, {:?})",
                w.minute, w.customer
            );
        }
    }

    /// Panics unless the binner and the reference agree on their counters.
    fn assert_same_state(b: &MinuteBinner, r: &ReferenceBinner) {
        assert_eq!(b.late_drops(), r.late_drops(), "late drops");
        assert_eq!(b.pending(), r.pending(), "pending bins");
    }

    fn flow(minute: u32, dst: u32, bytes: u64) -> FlowRecord {
        FlowRecord {
            minute,
            src: Ipv4(99),
            dst: Ipv4(dst),
            proto: Protocol::Udp,
            src_port: 1,
            dst_port: 2,
            tcp_flags: TcpFlags::default(),
            bytes,
            packets: 1,
            sampling: 1,
        }
    }

    #[test]
    fn bins_by_minute_and_customer() {
        let mut b = MinuteBinner::new();
        b.push(flow(0, 1, 10));
        b.push(flow(0, 2, 20));
        b.push(flow(1, 1, 30));
        let done = b.advance_watermark(1);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].customer, Ipv4(1));
        assert_eq!(done[0].total_bytes(), 10);
        assert_eq!(done[1].customer, Ipv4(2));
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn ordered_release() {
        let mut b = MinuteBinner::new();
        b.push(flow(2, 1, 1));
        b.push(flow(0, 1, 1));
        b.push(flow(1, 1, 1));
        let done = b.advance_watermark(3);
        let minutes: Vec<u32> = done.iter().map(|d| d.minute).collect();
        assert_eq!(minutes, vec![0, 1, 2]);
    }

    #[test]
    fn late_flows_are_dropped_and_counted() {
        let mut b = MinuteBinner::new();
        b.advance_watermark(5);
        b.push(flow(3, 1, 1));
        assert_eq!(b.late_drops(), 1);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn totals_saturate_instead_of_wrapping() {
        // The largest record v5 can carry: u32::MAX octets at 1:16383.
        let mut f = flow(0, 1, u64::from(u32::MAX));
        f.packets = u64::from(u32::MAX);
        f.sampling = 0x3FFF;
        let bin = MinuteFlows {
            minute: 0,
            customer: Ipv4(1),
            flows: vec![f; 1 << 19],
        };
        assert_eq!(bin.total_bytes(), u64::MAX);
        assert_eq!(bin.total_packets(), u64::MAX);
    }

    #[test]
    fn totals_upscale_sampling() {
        let mut b = MinuteBinner::new();
        let mut f = flow(0, 1, 10);
        f.sampling = 100;
        f.packets = 2;
        b.push(f);
        let done = b.advance_watermark(1);
        assert_eq!(done[0].total_bytes(), 1000);
        assert_eq!(done[0].total_packets(), 200);
    }

    /// One flow whose `bytes` carries its arrival number, so a release
    /// that reorders a bin's flows fails the comparison.
    fn numbered(minute: u32, dst: Ipv4, seq: u64) -> FlowRecord {
        FlowRecord {
            dst,
            ..flow(minute, 0, seq)
        }
    }

    proptest! {
        /// Random streams — late flows, small and large destination pools,
        /// repeated, empty and backward watermark moves — leave the binner
        /// equal to the ordered-map reference after every call.
        #[test]
        fn equals_the_ordered_map_reference(
            ops in proptest::collection::vec(any::<u64>(), 0..1500),
            pool_bits in 0u32..17,
            strided in any::<bool>(),
            span in 1u32..5,
        ) {
            let mut b = MinuteBinner::new();
            let mut r = ReferenceBinner::new();
            let pool = 1u64 << pool_bits;
            for (seq, op) in ops.into_iter().enumerate() {
                let base = r.watermark;
                if op % 16 == 0 {
                    // Forward by 0..=span, or backward by up to 3 minutes.
                    let arg = (op >> 4) as u32;
                    let to = if arg & 1 == 0 {
                        base + (arg >> 1) % (span + 1)
                    } else {
                        base.saturating_sub((arg >> 1) % 4)
                    };
                    assert_same_release(&b.advance_watermark(to), &r.advance_watermark(to));
                } else {
                    // Minutes from two behind the watermark to `span` ahead.
                    let minute = (base + ((op >> 4) as u32) % (span + 3)).saturating_sub(2);
                    let pick = (op >> 20) % pool;
                    let dst = if strided {
                        Ipv4((pick as u32) << 16)
                    } else {
                        Ipv4(0x0A00_0000 + pick as u32)
                    };
                    let f = numbered(minute, dst, seq as u64);
                    b.push(f);
                    r.push(f);
                }
                assert_same_state(&b, &r);
            }
            let end = r.watermark + span + 3;
            assert_same_release(&b.advance_watermark(end), &r.advance_watermark(end));
            assert_same_state(&b, &r);
        }
    }

    /// 65,536 destinations in one minute, as a /16 in address order and as
    /// a stride-2^16 progression: the release equals the reference's, no
    /// probe inspects 64 slots, and the next release of 32 customers
    /// leaves only those 32 in the capacity hint.
    #[test]
    fn hostile_destinations_keep_probes_short_and_the_hint_small() {
        let slash16: Vec<Ipv4> = (0..1u32 << 16).map(|i| Ipv4(0x0A0B_0000 | i)).collect();
        let strided: Vec<Ipv4> = (0..1u32 << 16).map(|i| Ipv4(i << 16)).collect();
        for dsts in [slash16, strided] {
            let mut b = MinuteBinner::new();
            let mut r = ReferenceBinner::new();
            for (seq, &dst) in dsts.iter().enumerate() {
                let f = numbered(7, dst, seq as u64);
                b.push(f);
                r.push(f);
            }
            assert_same_state(&b, &r);
            assert!(b.longest_probe < 64, "longest probe {}", b.longest_probe);
            assert_same_release(&b.advance_watermark(8), &r.advance_watermark(8));
            assert_eq!(b.hint.len(), 1 << 16);

            let customers: Vec<Ipv4> = (0..32).map(|c| Ipv4(0xC000_0200 + c)).collect();
            for round in 0..3 {
                for &c in &customers {
                    let f = numbered(8, c, round);
                    b.push(f);
                    r.push(f);
                }
            }
            assert_same_release(&b.advance_watermark(9), &r.advance_watermark(9));
            assert_same_state(&b, &r);
            let held: Vec<(Ipv4, u32)> = customers.iter().map(|&c| (c, 3)).collect();
            assert_eq!(b.hint, held);
            assert!(b.longest_probe < 64, "longest probe {}", b.longest_probe);
        }
    }

    #[test]
    fn a_new_bin_reserves_its_customers_last_count() {
        let mut b = MinuteBinner::new();
        for k in 0..100 {
            b.push(flow(0, 1, k));
        }
        b.push(flow(0, 2, 0));
        b.advance_watermark(1);
        b.push(flow(1, 1, 0));
        b.push(flow(1, 3, 0));
        assert!(b.bins[0].flows.capacity() >= 100);
        // A customer absent from the last release reserves nothing extra.
        assert!(b.bins[1].flows.capacity() < 100);
    }

    #[test]
    fn debug_shows_the_bins_but_not_the_hash_key() {
        let mut b = MinuteBinner::new();
        b.push(flow(0, 1, 10));
        let shown = format!("{b:?}");
        assert!(shown.contains("watermark"), "{shown}");
        assert!(!shown.contains("mul"), "{shown}");
        assert!(!shown.contains(&b.mul.to_string()), "{shown}");
    }
}
