//! IPv4 addresses and prefixes.
//!
//! The simulator and feature extractor work with plain `u32` IPv4 addresses
//! wrapped in [`Ipv4`] for type safety, plus two prefix abstractions:
//!
//! * [`Subnet24`] — the `/24` aggregation the paper applies to all blocklist
//!   and attacker bookkeeping ("We convert all the IP addresses and subnets in
//!   these blocklists to /24 subnets", §5.1).
//! * [`Prefix`] — an arbitrary-length CIDR prefix, used by the spoof
//!   classifier's routed-prefix and origin-AS tables.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An IPv4 address, stored host-order.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds an address from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// The `/24` subnet containing this address.
    pub const fn subnet24(self) -> Subnet24 {
        Subnet24(self.0 >> 8)
    }

    /// True if the address falls in any of the RFC 1918 private ranges.
    pub const fn is_rfc1918(self) -> bool {
        let o = self.0;
        // 10.0.0.0/8
        (o >> 24) == 10
            // 172.16.0.0/12
            || (o >> 20) == 0xAC1
            // 192.168.0.0/16
            || (o >> 16) == 0xC0A8
    }

    /// True if the address falls in the RFC 6598 shared-address space
    /// (100.64.0.0/10).
    pub const fn is_rfc6598(self) -> bool {
        (self.0 >> 22) == (100u32 << 2 | 1)
    }

    /// True if the address is loopback (127.0.0.0/8), link-local
    /// (169.254.0.0/16), or in the 0.0.0.0/8 "this network" block — the
    /// special-use blocks of RFC 5735/5737.
    pub const fn is_special_use(self) -> bool {
        let o = self.0;
        (o >> 24) == 127 || (o >> 16) == 0xA9FE || (o >> 24) == 0
            // TEST-NET-1/2/3 (192.0.2.0/24, 198.51.100.0/24, 203.0.113.0/24)
            || (o >> 8) == 0xC00002
            || (o >> 8) == 0xC63364
            || (o >> 8) == 0xCB0071
            // 240.0.0.0/4 reserved, includes broadcast
            || (o >> 28) == 0xF
    }

    /// True if the address is a *bogon*: any address that must never appear
    /// as a legitimate Internet source (RFC 1918, RFC 6598, special use).
    pub const fn is_bogon(self) -> bool {
        self.is_rfc1918() || self.is_rfc6598() || self.is_special_use()
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A `/24` subnet, stored as the upper 24 bits of its base address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Subnet24(pub u32);

impl Subnet24 {
    /// The base (`.0`) address of the subnet.
    pub const fn base(self) -> Ipv4 {
        Ipv4(self.0 << 8)
    }

    /// The `i`-th host in the subnet (`i` is truncated to 8 bits).
    pub const fn host(self, i: u8) -> Ipv4 {
        Ipv4((self.0 << 8) | i as u32)
    }

    /// True if `addr` belongs to this subnet.
    pub const fn contains(self, addr: Ipv4) -> bool {
        (addr.0 >> 8) == self.0
    }
}

impl fmt::Debug for Subnet24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/24", self.base())
    }
}

impl fmt::Display for Subnet24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An arbitrary CIDR prefix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prefix {
    /// Network base address; bits below `len` are zero.
    pub base: u32,
    /// Prefix length, 0..=32.
    pub len: u8,
}

impl Prefix {
    /// Builds a prefix, masking `base` down to `len` bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(base: Ipv4, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            base: base.0 & Self::mask(len),
            len,
        }
    }

    /// The network mask for a prefix length.
    pub const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// True if `addr` falls inside this prefix.
    pub const fn contains(&self, addr: Ipv4) -> bool {
        (addr.0 & Self::mask(self.len)) == self.base
    }

    /// True if `other` is fully contained in `self`.
    pub const fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && (other.base & Self::mask(self.len)) == self.base
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv4(self.base), self.len)
    }
}

/// A longest-prefix-match table mapping prefixes to values.
///
/// Used by the spoof classifier for the routed-prefix table (addresses not
/// covered by any BGP-announced prefix are "unrouted", §5.1) and for the
/// prefix → origin-AS table ("invalid source addresses not originated from
/// the AS that announces the corresponding prefix").
#[derive(Clone, Debug)]
pub struct PrefixTable<V> {
    // One flat bucket per prefix length, sorted by base at `build`;
    // lookup binary-searches the non-empty buckets, longest first.
    buckets: Vec<Vec<(u32, V)>>, // buckets[len] -> (base, value)
    /// Bit `len` set: `buckets[len]` is non-empty.
    lengths: u64,
}

impl<V: Clone> Default for PrefixTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> PrefixTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PrefixTable {
            buckets: (0..=32).map(|_| Vec::new()).collect(),
            lengths: 0,
        }
    }

    /// Inserts a prefix → value mapping. Later inserts of the same prefix
    /// shadow earlier ones on lookup.
    pub fn insert(&mut self, prefix: Prefix, value: V) {
        self.buckets[prefix.len as usize].push((prefix.base, value));
        self.lengths |= 1 << prefix.len;
    }

    /// Sorts buckets for binary search, keeping the last insert of each
    /// prefix. Must be called after the last `insert` and before the first
    /// `lookup`.
    pub fn build(&mut self) {
        for b in &mut self.buckets {
            // Stable, so equal bases stay in insertion order …
            b.sort_by_key(|(base, _)| *base);
            // … and `dedup_by` hands over (later, earlier-kept): move the
            // later value into the slot that stays.
            b.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: Ipv4) -> Option<(&V, u8)> {
        let mut lengths = self.lengths;
        while lengths != 0 {
            let len = (63 - lengths.leading_zeros()) as u8;
            lengths &= !(1 << len);
            let bucket = &self.buckets[len as usize];
            let masked = addr.0 & Prefix::mask(len);
            if let Ok(i) = bucket.binary_search_by_key(&masked, |(base, _)| *base) {
                return Some((&bucket[i].1, len));
            }
        }
        None
    }

    /// Number of entries across all prefix lengths.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip() {
        let a = Ipv4::from_octets(192, 168, 1, 42);
        assert_eq!(a.octets(), [192, 168, 1, 42]);
        assert_eq!(format!("{a}"), "192.168.1.42");
    }

    #[test]
    fn subnet24_contains_its_hosts() {
        let s = Ipv4::from_octets(10, 1, 2, 3).subnet24();
        assert_eq!(s.base(), Ipv4::from_octets(10, 1, 2, 0));
        for i in [0u8, 1, 127, 255] {
            assert!(s.contains(s.host(i)));
        }
        assert!(!s.contains(Ipv4::from_octets(10, 1, 3, 0)));
    }

    #[test]
    fn rfc1918_detection() {
        assert!(Ipv4::from_octets(10, 0, 0, 1).is_rfc1918());
        assert!(Ipv4::from_octets(172, 16, 0, 1).is_rfc1918());
        assert!(Ipv4::from_octets(172, 31, 255, 255).is_rfc1918());
        assert!(!Ipv4::from_octets(172, 32, 0, 1).is_rfc1918());
        assert!(Ipv4::from_octets(192, 168, 5, 5).is_rfc1918());
        assert!(!Ipv4::from_octets(192, 169, 0, 1).is_rfc1918());
        assert!(!Ipv4::from_octets(8, 8, 8, 8).is_rfc1918());
    }

    #[test]
    fn rfc6598_detection() {
        assert!(Ipv4::from_octets(100, 64, 0, 1).is_rfc6598());
        assert!(Ipv4::from_octets(100, 127, 255, 255).is_rfc6598());
        assert!(!Ipv4::from_octets(100, 128, 0, 0).is_rfc6598());
        assert!(!Ipv4::from_octets(100, 63, 255, 255).is_rfc6598());
    }

    #[test]
    fn bogon_detection() {
        assert!(Ipv4::from_octets(127, 0, 0, 1).is_bogon());
        assert!(Ipv4::from_octets(0, 1, 2, 3).is_bogon());
        assert!(Ipv4::from_octets(169, 254, 9, 9).is_bogon());
        assert!(Ipv4::from_octets(192, 0, 2, 7).is_bogon());
        assert!(Ipv4::from_octets(255, 255, 255, 255).is_bogon());
        assert!(!Ipv4::from_octets(8, 8, 8, 8).is_bogon());
        assert!(!Ipv4::from_octets(1, 1, 1, 1).is_bogon());
    }

    #[test]
    fn prefix_masking_and_contains() {
        let p = Prefix::new(Ipv4::from_octets(10, 20, 30, 40), 16);
        assert_eq!(p.base, Ipv4::from_octets(10, 20, 0, 0).0);
        assert!(p.contains(Ipv4::from_octets(10, 20, 255, 1)));
        assert!(!p.contains(Ipv4::from_octets(10, 21, 0, 1)));
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
        assert_eq!(Prefix::mask(24), 0xFFFF_FF00);
    }

    #[test]
    fn prefix_covers() {
        let p8 = Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 8);
        let p16 = Prefix::new(Ipv4::from_octets(10, 20, 0, 0), 16);
        assert!(p8.covers(&p16));
        assert!(!p16.covers(&p8));
        assert!(p8.covers(&p8));
    }

    #[test]
    fn prefix_table_longest_match() {
        let mut t = PrefixTable::new();
        t.insert(Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 8), "coarse");
        t.insert(Prefix::new(Ipv4::from_octets(10, 20, 0, 0), 16), "fine");
        t.build();
        let (v, len) = t.lookup(Ipv4::from_octets(10, 20, 1, 1)).unwrap();
        assert_eq!((*v, len), ("fine", 16));
        let (v, len) = t.lookup(Ipv4::from_octets(10, 99, 1, 1)).unwrap();
        assert_eq!((*v, len), ("coarse", 8));
        assert!(t.lookup(Ipv4::from_octets(11, 0, 0, 1)).is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn prefix_table_last_insert_of_a_prefix_wins() {
        let mut t = PrefixTable::new();
        let p = Prefix::new(Ipv4::from_octets(20, 5, 0, 0), 16);
        // Neighbours on both sides, so the duplicates sit mid-bucket where
        // a binary search may land on any of them.
        for third in 0..8u8 {
            t.insert(Prefix::new(Ipv4::from_octets(20, third, 0, 0), 16), 1000);
        }
        for asn in [100, 200, 300] {
            t.insert(p, asn);
        }
        t.build();
        assert_eq!(t.lookup(Ipv4::from_octets(20, 5, 9, 9)), Some((&300, 16)));
        assert_eq!(t.len(), 8, "one entry per distinct prefix");
        // A re-announcement after a build shadows what the build kept.
        t.insert(p, 400);
        t.build();
        assert_eq!(t.lookup(Ipv4::from_octets(20, 5, 9, 9)), Some((&400, 16)));
    }

    #[test]
    fn prefix_table_skips_empty_lengths_but_keeps_longest_match() {
        let mut t = PrefixTable::new();
        for first in [10u8, 20, 30] {
            t.insert(
                Prefix::new(Ipv4::from_octets(first, 0, 0, 0), 8),
                first as u32,
            );
        }
        t.insert(Prefix::new(Ipv4::from_octets(20, 5, 0, 0), 16), 2005);
        t.build();
        assert_eq!(t.lookup(Ipv4::from_octets(20, 5, 1, 1)), Some((&2005, 16)));
        assert_eq!(t.lookup(Ipv4::from_octets(20, 6, 1, 1)), Some((&20, 8)));
        assert_eq!(t.lookup(Ipv4::from_octets(30, 5, 1, 1)), Some((&30, 8)));
        assert_eq!(t.lookup(Ipv4::from_octets(40, 5, 1, 1)), None);
        // /0 and /32 are the ends of the length mask.
        t.insert(Prefix::new(Ipv4(0), 0), 0);
        t.insert(Prefix::new(Ipv4::from_octets(40, 5, 1, 1), 32), 32);
        t.build();
        assert_eq!(t.lookup(Ipv4::from_octets(40, 5, 1, 1)), Some((&32, 32)));
        assert_eq!(t.lookup(Ipv4::from_octets(40, 5, 1, 2)), Some((&0, 0)));
    }
}
