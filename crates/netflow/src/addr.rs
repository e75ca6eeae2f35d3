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
//!
//! and [`Slash24Set`], the set of /24s the per-flow source tests (A1
//! blocklisted, A3 bogon-or-unrouted) read: a direct index, so a test costs
//! the same two loads whatever address an exporter sends.

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

    /// The blocks [`Ipv4::is_bogon`] covers, as prefixes — none longer than
    /// /24, so a [`Slash24Set`] can hold them (a test walks every /24 to
    /// keep the two in step).
    pub const BOGONS: [Prefix; 11] = [
        Prefix::literal(0, 0, 0, 0, 8),
        Prefix::literal(10, 0, 0, 0, 8),
        Prefix::literal(100, 64, 0, 0, 10),
        Prefix::literal(127, 0, 0, 0, 8),
        Prefix::literal(169, 254, 0, 0, 16),
        Prefix::literal(172, 16, 0, 0, 12),
        Prefix::literal(192, 0, 2, 0, 24),
        Prefix::literal(192, 168, 0, 0, 16),
        Prefix::literal(198, 51, 100, 0, 24),
        Prefix::literal(203, 0, 113, 0, 24),
        Prefix::literal(240, 0, 0, 0, 4),
    ];
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

    /// `a.b.c.d/len` in a constant table (`len` at most 32).
    const fn literal(a: u8, b: u8, c: u8, d: u8, len: u8) -> Self {
        Prefix {
            base: Ipv4::from_octets(a, b, c, d).0 & Self::mask(len),
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

    /// Every stored prefix, shortest first.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.buckets.iter().enumerate().flat_map(|(len, bucket)| {
            bucket.iter().map(move |&(base, _)| Prefix {
                base,
                len: len as u8,
            })
        })
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

/// One bit per /24 of a /16.
type Page = [u64; 4];

/// The two pages every /24 of a /16 can agree on, indexed by the bit.
const UNIFORM: [Page; 2] = [[0; 4], [u64::MAX; 4]];

/// A uniform page and the /16s pointing at it.
#[derive(Clone, Copy)]
struct SharedPage {
    /// Valid while `users > 0`.
    id: u16,
    users: u32,
}

/// A set of /24 subnets whose membership test is a direct index: two
/// dependent loads, no hash and no search, whatever the address and however
/// large the set. The addresses tested against it are exporter-supplied,
/// so its cost must not be theirs to steer.
///
/// A 65 536-entry directory gives every /16 its page of 256 bits, one per
/// /24. The /16s with no /24 in the set share one all-clear page and those
/// with every /24 in it share one all-set page, so only a *split* /16 owns
/// a page: 128 KB of directory plus 32 B per split /16. A page that becomes
/// uniform again is recycled.
///
/// Page ids fit the directory's `u16` by counting: the pages in use are one
/// per split /16 plus one per *kind* of uniform /16 present, which is at
/// most one per /16.
#[derive(Clone)]
pub struct Slash24Set {
    dir: Box<[u16; 1 << 16]>,
    pages: Vec<Page>,
    /// Ids of recycled pages.
    free: Vec<u16>,
    /// The all-clear and the all-set page.
    shared: [SharedPage; 2],
}

impl Slash24Set {
    /// The empty set.
    pub fn new() -> Self {
        Self::uniform(false)
    }

    /// The set of every /24.
    pub fn full() -> Self {
        Self::uniform(true)
    }

    fn uniform(member: bool) -> Self {
        let dir = vec![0u16; 1 << 16].into_boxed_slice();
        let mut shared = [SharedPage { id: 0, users: 0 }; 2];
        shared[usize::from(member)].users = 1 << 16;
        Slash24Set {
            dir: dir.try_into().expect("65 536 entries"),
            pages: vec![UNIFORM[usize::from(member)]],
            free: Vec::new(),
            shared,
        }
    }

    /// True if `addr`'s /24 is in the set.
    #[inline]
    pub fn contains(&self, addr: Ipv4) -> bool {
        let page = &self.pages[usize::from(self.dir[(addr.0 >> 16) as usize])];
        page[(addr.0 >> 14 & 3) as usize] >> (addr.0 >> 8 & 63) & 1 == 1
    }

    /// Adds one /24.
    pub fn insert(&mut self, subnet: Subnet24) {
        self.set(subnet, true);
    }

    /// Removes one /24.
    pub fn remove(&mut self, subnet: Subnet24) {
        self.set(subnet, false);
    }

    /// Adds every /24 of `prefix`.
    ///
    /// # Panics
    /// Panics if `prefix` is longer than /24: it has no whole /24.
    pub fn insert_prefix(&mut self, prefix: Prefix) {
        self.set_prefix(prefix, true);
    }

    /// Removes every /24 of `prefix`.
    ///
    /// # Panics
    /// Panics if `prefix` is longer than /24: it has no whole /24.
    pub fn remove_prefix(&mut self, prefix: Prefix) {
        self.set_prefix(prefix, false);
    }

    /// Number of /16s that own a page: those with some /24s in the set and
    /// some out of it.
    pub fn split_slash16s(&self) -> usize {
        let shared = self.shared.iter().filter(|s| s.users > 0).count();
        self.pages.len() - self.free.len() - shared
    }

    fn is_shared(&self, id: u16, member: bool) -> bool {
        let shared = self.shared[usize::from(member)];
        shared.users > 0 && shared.id == id
    }

    /// Takes /16 `hi` off the shared `member` page and returns the page it
    /// owns from here on, filled the same.
    fn detach(&mut self, hi: usize, member: bool) -> u16 {
        let shared = &mut self.shared[usize::from(member)];
        shared.users -= 1;
        if shared.users == 0 {
            // The last user keeps the page; it stops being the shared one.
            return shared.id;
        }
        let fill = UNIFORM[usize::from(member)];
        let id = match self.free.pop() {
            Some(id) => {
                self.pages[usize::from(id)] = fill;
                id
            }
            None => {
                self.pages.push(fill);
                u16::try_from(self.pages.len() - 1).expect("at most one page per /16")
            }
        };
        self.dir[hi] = id;
        id
    }

    /// Moves /16 `hi`, whose own page `id` has become uniform, onto the
    /// shared `member` page.
    fn attach(&mut self, hi: usize, id: u16, member: bool) {
        let shared = &mut self.shared[usize::from(member)];
        if shared.users == 0 {
            shared.id = id;
        } else {
            self.free.push(id);
            self.dir[hi] = shared.id;
        }
        shared.users += 1;
    }

    /// The page /16 `hi` owns, once it is off the shared `!member` page;
    /// `None` if every /24 of it is `member` already.
    fn owned(&mut self, hi: usize, member: bool) -> Option<u16> {
        let id = self.dir[hi];
        if self.is_shared(id, member) {
            None
        } else if self.is_shared(id, !member) {
            Some(self.detach(hi, !member))
        } else {
            Some(id)
        }
    }

    fn set(&mut self, subnet: Subnet24, member: bool) {
        let hi = (subnet.0 >> 8 & 0xFFFF) as usize;
        let Some(id) = self.owned(hi, member) else {
            return;
        };
        let page = &mut self.pages[usize::from(id)];
        let (word, bit) = ((subnet.0 >> 6 & 3) as usize, 1u64 << (subnet.0 & 63));
        if member {
            page[word] |= bit;
        } else {
            page[word] &= !bit;
        }
        if *page == UNIFORM[usize::from(member)] {
            self.attach(hi, id, member);
        }
    }

    fn set_slash16(&mut self, hi: usize, member: bool) {
        if let Some(id) = self.owned(hi, member) {
            self.pages[usize::from(id)] = UNIFORM[usize::from(member)];
            self.attach(hi, id, member);
        }
    }

    fn set_prefix(&mut self, prefix: Prefix, member: bool) {
        assert!(prefix.len <= 24, "{prefix:?} has no whole /24");
        let base = prefix.base & Prefix::mask(prefix.len);
        if prefix.len <= 16 {
            let first = (base >> 16) as usize;
            for hi in first..first + (1 << (16 - prefix.len)) {
                self.set_slash16(hi, member);
            }
        } else {
            let first = base >> 8;
            for subnet in first..first + (1 << (24 - prefix.len)) {
                self.set(Subnet24(subnet), member);
            }
        }
    }
}

impl Default for Slash24Set {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Slash24Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slash24Set")
            .field("empty_slash16s", &self.shared[0].users)
            .field("full_slash16s", &self.shared[1].users)
            .field("split_slash16s", &self.split_slash16s())
            .finish()
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
        let listed: Vec<Prefix> = t.prefixes().collect();
        assert_eq!(listed.len(), t.len());
        assert_eq!(listed[0], Prefix::new(Ipv4(0), 0));
        assert_eq!(listed[5], Prefix::new(Ipv4::from_octets(40, 5, 1, 1), 32));
    }

    #[test]
    fn bogon_prefixes_are_what_is_bogon_tests() {
        assert!(Ipv4::BOGONS.iter().all(|p| p.len <= 24));
        let mut set = Slash24Set::new();
        for p in Ipv4::BOGONS {
            set.insert_prefix(p);
        }
        // 0/8, 10/8, 127/8 and 240/4 are whole /16s; so are 100.64/10,
        // 172.16/12, 169.254/16, 192.168/16. Only the TEST-NETs split one.
        assert_eq!(set.split_slash16s(), 3);
        for s in 0..1u32 << 24 {
            let (first, last) = (Subnet24(s).host(0), Subnet24(s).host(255));
            assert_eq!(first.is_bogon(), last.is_bogon(), "{first}");
            assert_eq!(set.contains(first), first.is_bogon(), "{first}");
        }
    }

    #[test]
    fn slash24_set_single_subnets() {
        let mut set = Slash24Set::new();
        let s = Ipv4::from_octets(60, 7, 9, 1).subnet24();
        assert!(!set.contains(s.host(1)));
        set.insert(s);
        set.insert(s);
        assert!(set.contains(s.host(0)) && set.contains(s.host(255)));
        assert!(!set.contains(Ipv4::from_octets(60, 7, 8, 255)));
        assert!(!set.contains(Ipv4::from_octets(60, 7, 10, 0)));
        assert!(!set.contains(Ipv4::from_octets(60, 8, 9, 1)));
        assert_eq!(set.split_slash16s(), 1);
        set.remove(s);
        set.remove(s);
        assert!(!set.contains(s.host(1)));
        assert_eq!(set.split_slash16s(), 0);
        // A hand-built subnet above 24 bits indexes by its low 24.
        set.insert(Subnet24(0xFF00_0000 | s.0));
        assert!(set.contains(s.host(1)));
    }

    #[test]
    #[should_panic(expected = "no whole /24")]
    fn slash24_set_refuses_a_prefix_longer_than_24() {
        Slash24Set::new().insert_prefix(Prefix::new(Ipv4::from_octets(1, 2, 3, 0), 25));
    }

    /// Every /16 split at once is the most pages the set can need; the ids
    /// must still fit the directory, from either starting point.
    #[test]
    fn slash24_set_with_every_slash16_split() {
        for start_full in [false, true] {
            let mut set = if start_full {
                Slash24Set::full()
            } else {
                Slash24Set::new()
            };
            let flip = |set: &mut Slash24Set, s: Subnet24, member: bool| {
                if member {
                    set.insert(s)
                } else {
                    set.remove(s)
                }
            };
            for hi in 0..1u32 << 16 {
                flip(&mut set, Subnet24(hi << 8 | (hi & 0xFF)), !start_full);
            }
            assert_eq!(set.split_slash16s(), 1 << 16);
            for hi in (0..1u32 << 16).step_by(97) {
                let odd = Subnet24(hi << 8 | (hi & 0xFF));
                assert_eq!(set.contains(odd.host(9)), !start_full);
                assert_eq!(set.contains(Subnet24(odd.0 ^ 1).host(9)), start_full);
            }
            // Uniform again, the other way round: every page is recycled.
            for hi in 0..1u32 << 16 {
                set.set_prefix(Prefix::new(Ipv4(hi << 16), 16), !start_full);
            }
            assert_eq!(set.split_slash16s(), 0);
            assert_eq!(set.pages.len() - set.free.len(), 1);
            assert_eq!(set.contains(Ipv4(0x1234_5678)), !start_full);
        }
    }

    proptest::proptest! {
        /// Four /16s, five /24s in each, prefixes from the /14 that holds
        /// them down to one /24: pages are born, fill up, empty out and are
        /// recycled, and the shared pages gain and lose their last user.
        #[test]
        fn slash24_set_agrees_with_a_btreeset_model(
            ops in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..120),
            start_full in proptest::arbitrary::any::<bool>(),
        ) {
            use std::collections::BTreeSet;
            const BASE: u32 = 0x0A_0400; // 10.4.0.0/14, as a /24 number
            const THIRDS: [u32; 5] = [0, 1, 2, 3, 255];
            let universe = BASE - 256..BASE + 5 * 256;
            let (mut set, mut model) = (Slash24Set::new(), BTreeSet::new());
            if start_full {
                set = Slash24Set::full();
                model = universe.clone().map(Subnet24).collect();
            }
            for op in ops {
                let subnet = BASE + (op >> 8) % 4 * 256 + THIRDS[(op >> 12) as usize % 5];
                let len = [14, 15, 16, 17, 22, 23, 24][(op >> 16) as usize % 7];
                let prefix = Prefix::new(Subnet24(subnet).base(), len);
                let covered = (prefix.base >> 8..).take(1 << (24 - len)).map(Subnet24);
                match op % 8 {
                    0..=2 => {
                        set.insert(Subnet24(subnet));
                        model.insert(Subnet24(subnet));
                    }
                    3..=5 => {
                        set.remove(Subnet24(subnet));
                        model.remove(&Subnet24(subnet));
                    }
                    6 => {
                        set.insert_prefix(prefix);
                        model.extend(covered);
                    }
                    _ => {
                        set.remove_prefix(prefix);
                        covered.for_each(|s| {
                            model.remove(&s);
                        });
                    }
                }
                // The /14 and a /16 on either side of it.
                for s in universe.clone().map(Subnet24) {
                    assert_eq!(set.contains(s.host(op as u8)), model.contains(&s), "{s}");
                }
                let split = (BASE..BASE + 4 * 256)
                    .step_by(256)
                    .filter(|&hi| {
                        let n = model.range(Subnet24(hi)..Subnet24(hi + 256)).count();
                        0 < n && n < 256
                    })
                    .count();
                assert_eq!(set.split_slash16s(), split);
            }
        }
    }
}
