//! The 63-feature volumetric block.
//!
//! Computed over one minute of flows toward one customer, optionally
//! restricted by a source predicate (the A1/A2/A3 blocks apply the same
//! computation to blocklisted / previous-attacker / spoofed sources).
//!
//! Layout (width 63), with `(†)` meaning a bytes and a packets variant:
//!
//! ```text
//!  0      unique source /32 addresses
//!  1..5   mean, max of per-flow traffic (†)             — 4
//!  5..11  UDP, TCP, ICMP traffic (†)                    — 6
//! 11..21  traffic from 5 popular source ports (†)       — 10
//! 21..31  traffic to 5 popular destination ports (†)    — 10
//! 31..43  traffic with 6 TCP flags (†)                  — 12
//! 43..63  traffic from 10 popular countries (†)         — 20
//! ```
//!
//! Appendix D pins the port list to {0, 53, 80, 123, 443} and the country
//! list to the ten in [`xatu_netflow::country::Country::POPULAR`]. Byte/packet counts use the
//! sampling-upscaled estimates, and all counts are log-compressed with
//! `ln(1+x)` so the LSTM sees bounded dynamic range (raw totals span nine
//! orders of magnitude).
//!
//! The arithmetic has one definition, shared by [`volumetric_block`] and
//! the fused V/A1/A2/A3 pass of [`crate::table1::FeatureExtractor`]: a
//! flow is reduced once to `FlowFacts` and added to one `BlockAcc` per
//! block that selects it. A block sums its flows in arrival order, so the
//! number of blocks fed in one walk does not change any `f64` (DESIGN.md
//! §18).

use crate::frame::VOLUMETRIC_WIDTH;
use xatu_netflow::country::CountryMapper;
use xatu_netflow::record::{FlowRecord, Protocol, TcpFlags};

/// The five "popular ports" of Appendix D.
pub const POPULAR_PORTS: [u16; 5] = [0, 53, 80, 123, 443];

/// Log-compression applied to every count feature, scaled so typical
/// byte counts land near 1–3: raw `ln(1+x)` spans ~0–25 across nine
/// decades of traffic volume, which would saturate the LSTM gates after
/// the 273-wide input projection (|z| ≈ √n·σ_w·x). The divisor keeps the
/// post-projection pre-activations in the responsive range of tanh/σ.
#[inline]
pub fn compress(x: f64) -> f64 {
    x.max(0.0).ln_1p() / 8.0
}

/// Number of (bytes, packets) pairs after the five scalar features.
const PAIRS: usize = (VOLUMETRIC_WIDTH - idx::UDP_BYTES) / 2;
// First pair of each family, in feature order.
const PAIR_PROTO: usize = 0;
const PAIR_SRC_PORT: usize = (idx::SRC_PORTS - idx::UDP_BYTES) / 2;
const PAIR_DST_PORT: usize = (idx::DST_PORTS - idx::UDP_BYTES) / 2;
const PAIR_TCP_FLAG: usize = (idx::TCP_FLAGS - idx::UDP_BYTES) / 2;
const PAIR_COUNTRY: usize = (idx::COUNTRIES - idx::UDP_BYTES) / 2;

/// What one flow contributes to any block that selects it: its upscaled
/// volume and the set of (bytes, packets) pairs it lands in.
pub(crate) struct FlowFacts {
    bytes: f64,
    packets: f64,
    /// Bit `i` set: the flow counts toward pair `i` (at most once each).
    pairs: u32,
}

impl FlowFacts {
    pub(crate) fn of(f: &FlowRecord, mapper: &CountryMapper) -> Self {
        let mut pairs = 0u32;
        match f.proto {
            Protocol::Udp => pairs |= 1 << PAIR_PROTO,
            Protocol::Tcp => {
                pairs |= 1 << (PAIR_PROTO + 1);
                for (i, flag) in TcpFlags::ALL.iter().enumerate() {
                    if f.tcp_flags.has(*flag) {
                        pairs |= 1 << (PAIR_TCP_FLAG + i);
                    }
                }
            }
            Protocol::Icmp => pairs |= 1 << (PAIR_PROTO + 2),
            Protocol::Other(_) => {}
        }
        if let Some(i) = POPULAR_PORTS.iter().position(|&pp| pp == f.src_port) {
            pairs |= 1 << (PAIR_SRC_PORT + i);
        }
        if let Some(i) = POPULAR_PORTS.iter().position(|&pp| pp == f.dst_port) {
            pairs |= 1 << (PAIR_DST_PORT + i);
        }
        if let Some(i) = mapper.country(f.src).popular_index() {
            pairs |= 1 << (PAIR_COUNTRY + i);
        }
        FlowFacts {
            bytes: f.est_bytes() as f64,
            packets: f.est_packets() as f64,
            pairs,
        }
    }
}

/// Running sums of one volumetric block.
#[derive(Clone, Copy)]
pub(crate) struct BlockAcc {
    n_flows: usize,
    sum: [f64; 2],
    max: [f64; 2],
    pairs: [[f64; 2]; PAIRS],
}

impl BlockAcc {
    pub(crate) const EMPTY: BlockAcc = BlockAcc {
        n_flows: 0,
        sum: [0.0; 2],
        max: [0.0; 2],
        pairs: [[0.0; 2]; PAIRS],
    };

    #[inline]
    pub(crate) fn add(&mut self, f: &FlowFacts) {
        self.n_flows += 1;
        self.sum[0] += f.bytes;
        self.sum[1] += f.packets;
        self.max[0] = self.max[0].max(f.bytes);
        self.max[1] = self.max[1].max(f.packets);
        let mut rest = f.pairs;
        while rest != 0 {
            let pair = &mut self.pairs[rest.trailing_zeros() as usize];
            pair[0] += f.bytes;
            pair[1] += f.packets;
            rest &= rest - 1;
        }
    }

    /// The finished block, given the number of distinct sources among the
    /// flows added.
    ///
    /// Most of a sparse bin's sums are still the `+0.0` they started as, and
    /// `compress(+0.0)` is `+0.0`: those skip the `ln_1p` call. A sum only
    /// ever adds non-negative values to `+0.0`, so `-0.0` — the one zero
    /// `compress` could return differently — cannot reach here.
    pub(crate) fn finish(&self, unique_sources: usize) -> [f64; VOLUMETRIC_WIDTH] {
        let mut out = [0.0f64; VOLUMETRIC_WIDTH];
        if self.n_flows == 0 {
            return out;
        }
        let n = self.n_flows as f64;
        let scalars = [
            unique_sources as f64,
            self.sum[0] / n,
            self.max[0],
            self.sum[1] / n,
            self.max[1],
        ];
        for (o, &v) in out
            .iter_mut()
            .zip(scalars.iter().chain(self.pairs.as_flattened()))
        {
            if v != 0.0 {
                *o = compress(v);
            }
        }
        out
    }
}

/// Number of blocks one source key can be counted toward (V, A1, A2, A3).
pub const SOURCE_CLASSES: usize = 4;

/// Key for [`distinct_sources`]: the source address above a bitmask of
/// the blocks (bit `k` = block `k`) its flows were selected into. The
/// mask must be the same for every flow of one source, which holds when
/// selection depends on the source address alone.
#[inline]
pub fn source_key(src: u32, classes: u8) -> u64 {
    debug_assert!(usize::from(classes) < 1 << SOURCE_CLASSES);
    u64::from(src) << SOURCE_CLASSES | u64::from(classes)
}

/// Bin size from which [`distinct_sources`] orders its keys by radix.
/// Measured (DESIGN.md §18): the counters of the three passes alone cost a
/// comparison sort of ~250 keys, and the two meet between 500 and 750 keys
/// depending on what the addresses look like.
const RADIX_MIN_KEYS: u32 = 768;

/// The radix digits as (shift, width), low digit first: 11 + 11 + 10 = the
/// 32 address bits, which sit above the class bits of a key.
const DIGITS: [(u32, u32); 3] = {
    let low = SOURCE_CLASSES as u32;
    [(low, 11), (low + 11, 11), (low + 22, 10)]
};

/// Digit `PASS` of `key`.
#[inline(always)]
fn digit<const PASS: usize>(key: u64) -> usize {
    let (shift, width) = DIGITS[PASS];
    (key >> shift) as usize & ((1 << width) - 1)
}

/// XORs the low digit of the address into the two digits above it: a
/// one-to-one map of the address that leaves the class bits alone, so equal
/// sources still meet, and nothing else about the order matters. Sources
/// come in runs that share their upper bits (the hosts of a subnet, the
/// subnets of a region), and consecutive keys with one digit value make a
/// counting pass wait on its own last store; after this, keys whose low
/// digits differ differ in every digit.
#[inline(always)]
fn spread_low_digit(key: u64) -> u64 {
    let low = digit::<0>(key) as u64;
    key ^ low << DIGITS[1].0 ^ (low & ((1 << DIGITS[2].1) - 1)) << DIGITS[2].0
}

/// One counting pass: `src` into `dst` by digit `PASS`, stable. `slots[d]`
/// is where the next key with digit `d` goes.
#[inline(always)]
fn scatter<const PASS: usize>(src: &[u64], dst: &mut [u64], slots: &mut [u32; 1 << 11]) {
    for &key in src {
        let slot = &mut slots[digit::<PASS>(key)];
        // Always in range: the slots of a digit value end where the next
        // value's begin. Written without a panicking index, the loop runs
        // twice as fast.
        debug_assert!((*slot as usize) < dst.len());
        if let Some(out) = dst.get_mut(*slot as usize) {
            *out = key;
        }
        *slot += 1;
    }
}

/// Brings equal sources together in three counting passes over the address
/// bits, each stable, so each keeps the order of the ones before it. The
/// class bits ride along unsorted: one source has one key. The keys come
/// back in [`spread_low_digit`]'s image.
fn radix_sort_by_source(keys: &mut Vec<u64>) {
    // One walk of the keys fills all three histograms; each then becomes
    // the first output slot of its digit values.
    let mut slots = [[0u32; 1 << 11]; 3];
    for key in keys.iter_mut() {
        *key = spread_low_digit(*key);
        slots[0][digit::<0>(*key)] += 1;
        slots[1][digit::<1>(*key)] += 1;
        slots[2][digit::<2>(*key)] += 1;
    }
    for slots in &mut slots {
        let mut next = 0;
        for slot in slots.iter_mut() {
            next += std::mem::replace(slot, next);
        }
    }
    let mut other = vec![0u64; keys.len()];
    scatter::<0>(keys, &mut other, &mut slots[0]);
    scatter::<1>(&other, keys, &mut slots[1]);
    scatter::<2>(keys, &mut other, &mut slots[2]);
    *keys = other;
}

/// Distinct sources per block: brings equal keys together once and counts
/// each source, where its run of equal keys starts, toward the blocks in
/// its mask; `keys` is scratch and comes back reordered. The addresses are
/// exporter-supplied, so the cost must not be theirs to steer: neither a
/// hash set with a weak hasher nor one whose cost an attacker can choose
/// is used here. A small bin is sorted by comparison, O(n log n) whatever
/// the values; a large one by a fixed number of counting passes over the
/// address bits, O(n) whatever the values. Which of the two runs depends
/// on the bin's size alone.
pub fn distinct_sources(keys: &mut Vec<u64>) -> [usize; SOURCE_CLASSES] {
    // The radix counts in `u32`s; a bin too large for them is sorted.
    match u32::try_from(keys.len()) {
        Ok(n) if n >= RADIX_MIN_KEYS => radix_sort_by_source(keys),
        _ => keys.sort_unstable(),
    }
    let mut counts = [0usize; SOURCE_CLASSES];
    let mut last = None;
    for &key in keys.iter() {
        if last != Some(key) {
            for (k, c) in counts.iter_mut().enumerate() {
                *c += (key >> k & 1) as usize;
            }
        }
        last = Some(key);
    }
    counts
}

/// Computes the 63-feature volumetric block over the flows selected by
/// `select`. Pass `|_| true` for the V block.
pub fn volumetric_block<F>(
    flows: &[FlowRecord],
    mapper: &CountryMapper,
    mut select: F,
) -> [f64; VOLUMETRIC_WIDTH]
where
    F: FnMut(&FlowRecord) -> bool,
{
    let mut acc = BlockAcc::EMPTY;
    let mut sources = Vec::new();
    for f in flows {
        if select(f) {
            acc.add(&FlowFacts::of(f, mapper));
            sources.push(source_key(f.src.0, 1));
        }
    }
    acc.finish(distinct_sources(&mut sources)[0])
}

/// Feature index helpers into a volumetric block.
pub mod idx {
    /// Unique source count.
    pub const UNIQUE_SOURCES: usize = 0;
    /// Mean flow bytes.
    pub const MEAN_BYTES: usize = 1;
    /// Max flow bytes.
    pub const MAX_BYTES: usize = 2;
    /// UDP bytes.
    pub const UDP_BYTES: usize = 5;
    /// TCP bytes.
    pub const TCP_BYTES: usize = 7;
    /// ICMP bytes.
    pub const ICMP_BYTES: usize = 9;
    /// Start of the per-source-port (bytes, packets) pairs.
    pub const SRC_PORTS: usize = 11;
    /// Start of the per-destination-port pairs.
    pub const DST_PORTS: usize = 21;
    /// Start of the per-TCP-flag pairs.
    pub const TCP_FLAGS: usize = 31;
    /// Start of the per-country pairs.
    pub const COUNTRIES: usize = 43;
}

/// The pre-fusion block, frozen: its own walk over the flows, its own
/// `HashSet` of sources. Tests hold [`volumetric_block`] and the fused
/// extractor to it bit for bit; nothing else may call it.
#[cfg(test)]
pub(crate) fn reference_block<F>(
    flows: &[FlowRecord],
    mapper: &CountryMapper,
    mut select: F,
) -> [f64; VOLUMETRIC_WIDTH]
where
    F: FnMut(&FlowRecord) -> bool,
{
    let mut out = [0.0f64; VOLUMETRIC_WIDTH];
    let mut sources: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut n_flows = 0usize;
    let mut sum_bytes = 0.0f64;
    let mut sum_packets = 0.0f64;
    let mut max_bytes = 0.0f64;
    let mut max_packets = 0.0f64;
    // (bytes, packets) accumulators.
    let mut proto = [[0.0f64; 2]; 3]; // UDP, TCP, ICMP
    let mut sport = [[0.0f64; 2]; 5];
    let mut dport = [[0.0f64; 2]; 5];
    let mut flags = [[0.0f64; 2]; 6];
    let mut country = [[0.0f64; 2]; 10];

    for f in flows {
        if !select(f) {
            continue;
        }
        let b = f.est_bytes() as f64;
        let p = f.est_packets() as f64;
        sources.insert(f.src.0);
        n_flows += 1;
        sum_bytes += b;
        sum_packets += p;
        max_bytes = max_bytes.max(b);
        max_packets = max_packets.max(p);
        match f.proto {
            Protocol::Udp => {
                proto[0][0] += b;
                proto[0][1] += p;
            }
            Protocol::Tcp => {
                proto[1][0] += b;
                proto[1][1] += p;
            }
            Protocol::Icmp => {
                proto[2][0] += b;
                proto[2][1] += p;
            }
            Protocol::Other(_) => {}
        }
        if let Some(i) = POPULAR_PORTS.iter().position(|&pp| pp == f.src_port) {
            sport[i][0] += b;
            sport[i][1] += p;
        }
        if let Some(i) = POPULAR_PORTS.iter().position(|&pp| pp == f.dst_port) {
            dport[i][0] += b;
            dport[i][1] += p;
        }
        if f.proto == Protocol::Tcp {
            for (i, flag) in TcpFlags::ALL.iter().enumerate() {
                if f.tcp_flags.has(*flag) {
                    flags[i][0] += b;
                    flags[i][1] += p;
                }
            }
        }
        if let Some(i) = mapper.country(f.src).popular_index() {
            country[i][0] += b;
            country[i][1] += p;
        }
    }

    let mean_bytes = if n_flows > 0 {
        sum_bytes / n_flows as f64
    } else {
        0.0
    };
    let mean_packets = if n_flows > 0 {
        sum_packets / n_flows as f64
    } else {
        0.0
    };

    out[0] = compress(sources.len() as f64);
    out[1] = compress(mean_bytes);
    out[2] = compress(max_bytes);
    out[3] = compress(mean_packets);
    out[4] = compress(max_packets);
    let mut k = 5;
    for pair in proto
        .iter()
        .chain(&sport)
        .chain(&dport)
        .chain(&flags)
        .chain(&country)
    {
        out[k] = compress(pair[0]);
        out[k + 1] = compress(pair[1]);
        k += 2;
    }
    debug_assert_eq!(k, VOLUMETRIC_WIDTH);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xatu_netflow::addr::Ipv4;

    fn flow(src: u32, proto: Protocol, sport: u16, flags: TcpFlags, bytes: u64) -> FlowRecord {
        FlowRecord {
            minute: 0,
            src: Ipv4(src),
            dst: Ipv4(42),
            proto,
            src_port: sport,
            dst_port: 80,
            tcp_flags: flags,
            bytes,
            packets: bytes / 100,
            sampling: 1,
        }
    }

    #[test]
    fn empty_flows_give_zero_block() {
        let mapper = CountryMapper::new();
        let block = volumetric_block(&[], &mapper, |_| true);
        assert!(block.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unique_sources_counted_once() {
        let mapper = CountryMapper::new();
        let flows = vec![
            flow(1, Protocol::Udp, 53, TcpFlags::default(), 1000),
            flow(1, Protocol::Udp, 53, TcpFlags::default(), 1000),
            flow(2, Protocol::Udp, 53, TcpFlags::default(), 1000),
        ];
        let block = volumetric_block(&flows, &mapper, |_| true);
        assert!((block[idx::UNIQUE_SOURCES] - compress(2.0)).abs() < 1e-12);
    }

    #[test]
    fn protocol_disaggregation() {
        let mapper = CountryMapper::new();
        let flows = vec![
            flow(1, Protocol::Udp, 1, TcpFlags::default(), 1000),
            flow(2, Protocol::Tcp, 1, TcpFlags::ACK, 2000),
            flow(3, Protocol::Icmp, 0, TcpFlags::default(), 300),
        ];
        let block = volumetric_block(&flows, &mapper, |_| true);
        assert!((block[idx::UDP_BYTES] - compress(1000.0)).abs() < 1e-12);
        assert!((block[idx::TCP_BYTES] - compress(2000.0)).abs() < 1e-12);
        assert!((block[idx::ICMP_BYTES] - compress(300.0)).abs() < 1e-12);
    }

    #[test]
    fn popular_src_port_bucketing() {
        let mapper = CountryMapper::new();
        let flows = vec![
            flow(1, Protocol::Udp, 53, TcpFlags::default(), 500),
            flow(2, Protocol::Udp, 9999, TcpFlags::default(), 700), // unpopular
        ];
        let block = volumetric_block(&flows, &mapper, |_| true);
        // Port 53 is POPULAR_PORTS[1] -> bytes at SRC_PORTS + 2*1.
        assert!((block[idx::SRC_PORTS + 2] - compress(500.0)).abs() < 1e-12);
        // Port 0 bucket untouched.
        assert_eq!(block[idx::SRC_PORTS], 0.0);
    }

    #[test]
    fn tcp_flags_only_counted_for_tcp() {
        let mapper = CountryMapper::new();
        // A UDP flow with garbage flag bits must not pollute flag features.
        let flows = vec![flow(1, Protocol::Udp, 1, TcpFlags(0xFF), 1000)];
        let block = volumetric_block(&flows, &mapper, |_| true);
        for i in 0..12 {
            assert_eq!(block[idx::TCP_FLAGS + i], 0.0);
        }
    }

    #[test]
    fn multi_flag_flows_count_in_each_flag_bucket() {
        let mapper = CountryMapper::new();
        let flows = vec![flow(
            1,
            Protocol::Tcp,
            1,
            TcpFlags::SYN.union(TcpFlags::ACK),
            800,
        )];
        let block = volumetric_block(&flows, &mapper, |_| true);
        // SYN is TcpFlags::ALL[0], ACK is ALL[1].
        assert!(block[idx::TCP_FLAGS] > 0.0);
        assert!(block[idx::TCP_FLAGS + 2] > 0.0);
        assert_eq!(block[idx::TCP_FLAGS + 4], 0.0); // RST untouched
    }

    #[test]
    fn selector_restricts_the_block() {
        let mapper = CountryMapper::new();
        let flows = vec![
            flow(1, Protocol::Udp, 1, TcpFlags::default(), 1000),
            flow(2, Protocol::Udp, 1, TcpFlags::default(), 9000),
        ];
        let all = volumetric_block(&flows, &mapper, |_| true);
        let only1 = volumetric_block(&flows, &mapper, |f| f.src == Ipv4(1));
        assert!(only1[idx::UDP_BYTES] < all[idx::UDP_BYTES]);
        assert!((only1[idx::UNIQUE_SOURCES] - compress(1.0)).abs() < 1e-12);
    }

    /// A flow decoded from two random words: few distinct sources, ports
    /// and protocols, so every pair and repeated sources are hit.
    fn flow_from(w: u64, v: u64) -> FlowRecord {
        const PORTS: [u16; 8] = [0, 53, 80, 123, 443, 22, 8080, 50_000];
        FlowRecord {
            minute: 0,
            src: Ipv4((((w >> 8) as u32 % 6) << 16) | ((w >> 16) as u32 % 5)),
            dst: Ipv4(42),
            proto: match w & 3 {
                0 => Protocol::Udp,
                1 => Protocol::Tcp,
                2 => Protocol::Icmp,
                _ => Protocol::Other(47),
            },
            src_port: PORTS[(w >> 24) as usize % 8],
            dst_port: PORTS[(w >> 32) as usize % 8],
            tcp_flags: TcpFlags((w >> 40) as u8),
            bytes: v % 1_000_003,
            packets: (v >> 32) % 1_009,
            sampling: 1 + (w >> 48) as u32 % 1000,
        }
    }

    proptest::proptest! {
        #[test]
        fn block_matches_frozen_reference_bitwise(
            words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..400),
            keep in 0u32..6,
        ) {
            let mapper = CountryMapper::new();
            let flows: Vec<FlowRecord> = words
                .chunks_exact(2)
                .map(|w| flow_from(w[0], w[1]))
                .collect();
            // Selection by source, as the A1/A2/A3 predicates select.
            let select = |f: &FlowRecord| keep == 0 || (f.src.0 >> 16).is_multiple_of(keep);
            let got = volumetric_block(&flows, &mapper, select);
            let want = reference_block(&flows, &mapper, select);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "feature {i}");
            }
        }
    }

    /// `distinct_sources` before the radix, frozen: a comparison sort, a
    /// `dedup`, a bit count per class.
    fn distinct_by_sort_and_dedup(keys: &[u64]) -> [usize; SOURCE_CLASSES] {
        let mut keys = keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let mut counts = [0usize; SOURCE_CLASSES];
        for key in keys {
            for (k, c) in counts.iter_mut().enumerate() {
                *c += (key >> k & 1) as usize;
            }
        }
        counts
    }

    /// SplitMix64's output function.
    fn mix(x: u64) -> u64 {
        let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[test]
    fn distinct_sources_match_sort_and_dedup_on_both_sides_of_the_cutoff() {
        // Each shape maps a random word to an address; the classes are a
        // function of the address, as `source_key` asks.
        type Shape = (&'static str, fn(u64) -> u32);
        let shapes: [Shape; 8] = [
            ("one address", |_| 0xC0A8_0101),
            ("spread", |w| w as u32),
            ("equal low 11 bits", |w| (w as u32) << 11 | 0x2A5),
            ("equal middle 11 bits", |w| {
                w as u32 & !(0x7FF << 11) | 0x155 << 11
            }),
            ("equal high 10 bits", |w| w as u32 >> 10 | 0x2AA << 22),
            ("one /16", |w| 0x3C07_0000 | w as u32 & 0xFFFF),
            ("two addresses", |w| if w & 1 == 0 { 0 } else { u32::MAX }),
            ("hosts of a few /24s", |w| {
                0x1E00_0000 | (w as u32 % 19) << 8 | (w >> 32) as u32 & 0xFF
            }),
        ];
        let cutoff = RADIX_MIN_KEYS as usize;
        for (shape, address) in shapes {
            for n in [0, 1, 2, cutoff - 1, cutoff, cutoff + 1, 2400, 5000] {
                // Every source about `repeat` times, in no order.
                for repeat in [1, 3] {
                    let mut keys: Vec<u64> = (0..n as u64)
                        .map(|i| {
                            let src = address(mix(mix(i) % (n as u64 / repeat).max(1) + 1));
                            source_key(src, 1 | (mix(src.into()) as u8 & 0xE))
                        })
                        .collect();
                    let want = distinct_by_sort_and_dedup(&keys);
                    assert_eq!(distinct_sources(&mut keys), want, "{shape}, {n} keys");
                    assert_eq!(keys.len(), n);
                    assert!(want[0] <= n && want.iter().all(|&c| c <= want[0]));
                }
            }
        }
    }

    /// The two ends of `finish`'s zero skipping: a block no flow reached
    /// (returned without a `compress` call) and a one-flow block (most sums
    /// still `+0.0`) carry the frozen reference's bits, sign of zero included.
    #[test]
    fn empty_and_one_flow_blocks_match_frozen_reference_bitwise() {
        let mapper = CountryMapper::new();
        let one = [flow(7, Protocol::Tcp, 443, TcpFlags::SYN, 1500)];
        for flows in [&one[..0], &one[..]] {
            let got = volumetric_block(flows, &mapper, |_| true);
            let want = reference_block(flows, &mapper, |_| true);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{} flows, feature {i}",
                    flows.len()
                );
            }
        }
    }

    #[test]
    fn compression_is_monotone_and_zero_at_zero() {
        assert_eq!(compress(0.0), 0.0);
        assert!(compress(10.0) < compress(100.0));
        assert_eq!(compress(-5.0), 0.0, "negative counts clamp");
    }
}
