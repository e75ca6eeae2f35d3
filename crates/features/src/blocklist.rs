//! Public-blocklist store (auxiliary signal A1).
//!
//! §5.1: Xatu consumes 11 categories of public blocklists, converted to /24
//! subnets, collected over the observation period. The store keeps, per
//! /24, the set of categories listing it, supports feed updates (blocklists
//! churn), and answers "is this source blocklisted" with an optional
//! category filter — the latter drives the per-category ablation of
//! Fig 17 / Appendix E.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use xatu_netflow::addr::{Ipv4, Slash24Set, Subnet24};

/// The 11 blocklist categories modelled after the paper's selection
/// (DDoS sources, reflectors, VoIP attackers, C&C servers, and bots of
/// specific malware families).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlocklistCategory {
    /// Known DDoS attack sources.
    DdosSource,
    /// Abusable reflectors (open resolvers, NTP, memcached …).
    Reflector,
    /// VoIP/SIP attackers.
    Voip,
    /// Botnet command-and-control servers.
    CommandAndControl,
    /// Generic scanner lists.
    Scanner,
    /// Mirai-family bots.
    BotMirai,
    /// Gafgyt-family bots.
    BotGafgyt,
    /// Generic IoT bots.
    BotIot,
    /// Spam sources (weakly correlated but cheap).
    Spam,
    /// Bruteforcers (SSH/RDP).
    Bruteforce,
    /// Aggregated community blocklists.
    Community,
}

impl BlocklistCategory {
    /// All categories in a fixed order.
    pub const ALL: [BlocklistCategory; 11] = [
        BlocklistCategory::DdosSource,
        BlocklistCategory::Reflector,
        BlocklistCategory::Voip,
        BlocklistCategory::CommandAndControl,
        BlocklistCategory::Scanner,
        BlocklistCategory::BotMirai,
        BlocklistCategory::BotGafgyt,
        BlocklistCategory::BotIot,
        BlocklistCategory::Spam,
        BlocklistCategory::Bruteforce,
        BlocklistCategory::Community,
    ];

    /// Index into [`BlocklistCategory::ALL`] (declaration order).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// This category's bit in a [`BlocklistStore`] mask.
    const fn bit(self) -> u16 {
        1 << self.index()
    }

    /// Display label.
    pub const fn label(self) -> &'static str {
        match self {
            BlocklistCategory::DdosSource => "ddos-source",
            BlocklistCategory::Reflector => "reflector",
            BlocklistCategory::Voip => "voip",
            BlocklistCategory::CommandAndControl => "c2",
            BlocklistCategory::Scanner => "scanner",
            BlocklistCategory::BotMirai => "bot-mirai",
            BlocklistCategory::BotGafgyt => "bot-gafgyt",
            BlocklistCategory::BotIot => "bot-iot",
            BlocklistCategory::Spam => "spam",
            BlocklistCategory::Bruteforce => "bruteforce",
            BlocklistCategory::Community => "community",
        }
    }
}

/// The /24-granularity blocklist store.
///
/// Two views of one feed. The category store is a map from /24 to the
/// bitmask of categories listing it (bit `i` is `BlocklistCategory::ALL[i]`;
/// a /24 no category lists has no entry): it answers the per-category
/// questions and keeps the counts. Beside it, `listed` is the set of /24s
/// some *enabled* category lists, kept in step by every update, and it alone
/// answers [`BlocklistStore::contains`] — the test made once per flow on an
/// exporter-supplied source, which therefore is a direct index and never a
/// hash probe.
#[derive(Clone, Debug)]
pub struct BlocklistStore {
    masks: HashMap<Subnet24, u16>,
    /// Bitmask of the categories that currently match.
    enabled: u16,
    /// Entries per category.
    counts: [usize; 11],
    /// The /24s whose mask meets `enabled`.
    listed: Slash24Set,
}

const ALL_CATEGORIES: u16 = (1 << BlocklistCategory::ALL.len()) - 1;

impl BlocklistStore {
    /// Creates an empty store with every category enabled.
    pub fn new() -> Self {
        BlocklistStore {
            masks: HashMap::new(),
            enabled: ALL_CATEGORIES,
            counts: [0; 11],
            listed: Slash24Set::new(),
        }
    }

    /// Adds a /24 to a category (feed update).
    pub fn add(&mut self, category: BlocklistCategory, subnet: Subnet24) {
        let mask = self.masks.entry(subnet).or_insert(0);
        if *mask & category.bit() == 0 {
            *mask |= category.bit();
            self.counts[category.index()] += 1;
            if self.enabled & category.bit() != 0 {
                self.listed.insert(subnet);
            }
        }
    }

    /// Adds an address by its containing /24 (the paper's normalisation).
    pub fn add_addr(&mut self, category: BlocklistCategory, addr: Ipv4) {
        self.add(category, addr.subnet24());
    }

    /// Removes a /24 from a category (delisting).
    pub fn remove(&mut self, category: BlocklistCategory, subnet: Subnet24) {
        let Entry::Occupied(mut entry) = self.masks.entry(subnet) else {
            return;
        };
        let mask = entry.get_mut();
        if *mask & category.bit() == 0 {
            return;
        }
        *mask &= !category.bit();
        self.counts[category.index()] -= 1;
        if *mask & self.enabled == 0 {
            self.listed.remove(subnet);
        }
        if *mask == 0 {
            entry.remove();
        }
    }

    /// Enables/disables a category — the Fig 17 ablation switch. Disabled
    /// categories keep their entries but stop matching. Walks the category
    /// store once to bring `listed` in step.
    pub fn set_enabled(&mut self, category: BlocklistCategory, enabled: bool) {
        if (self.enabled & category.bit() != 0) == enabled {
            return;
        }
        if enabled {
            self.enabled |= category.bit();
        } else {
            self.enabled &= !category.bit();
        }
        for (&subnet, &mask) in &self.masks {
            if mask & category.bit() == 0 {
                continue;
            }
            if enabled {
                self.listed.insert(subnet);
            } else if mask & self.enabled == 0 {
                self.listed.remove(subnet);
            }
        }
    }

    fn mask_of(&self, addr: Ipv4) -> u16 {
        self.masks.get(&addr.subnet24()).copied().unwrap_or(0)
    }

    /// True if `addr`'s /24 is on any *enabled* blocklist.
    #[inline]
    pub fn contains(&self, addr: Ipv4) -> bool {
        self.listed.contains(addr)
    }

    /// True if `addr`'s /24 is on the given category (ignores enablement).
    pub fn contains_in(&self, category: BlocklistCategory, addr: Ipv4) -> bool {
        self.mask_of(addr) & category.bit() != 0
    }

    /// Number of /24 entries in a category.
    pub fn category_len(&self, category: BlocklistCategory) -> usize {
        self.counts[category.index()]
    }

    /// Total entries across categories (with multiplicity).
    pub fn total_len(&self) -> usize {
        self.counts.iter().sum()
    }
}

impl Default for BlocklistStore {
    /// Same as [`BlocklistStore::new`]: empty, every category enabled.
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4::from_octets(a, b, c, d)
    }

    #[test]
    fn slash24_normalisation() {
        let mut bl = BlocklistStore::new();
        bl.add_addr(BlocklistCategory::DdosSource, addr(1, 2, 3, 4));
        // Any host in the same /24 matches.
        assert!(bl.contains(addr(1, 2, 3, 200)));
        assert!(!bl.contains(addr(1, 2, 4, 4)));
    }

    #[test]
    fn category_isolation() {
        let mut bl = BlocklistStore::new();
        bl.add_addr(BlocklistCategory::Scanner, addr(5, 5, 5, 5));
        assert!(bl.contains_in(BlocklistCategory::Scanner, addr(5, 5, 5, 9)));
        assert!(!bl.contains_in(BlocklistCategory::Spam, addr(5, 5, 5, 9)));
    }

    #[test]
    fn disabling_a_category_stops_matches() {
        let mut bl = BlocklistStore::new();
        bl.add_addr(BlocklistCategory::BotMirai, addr(9, 9, 9, 9));
        assert!(bl.contains(addr(9, 9, 9, 1)));
        bl.set_enabled(BlocklistCategory::BotMirai, false);
        assert!(!bl.contains(addr(9, 9, 9, 1)));
        // contains_in ignores enablement (used by audits).
        assert!(bl.contains_in(BlocklistCategory::BotMirai, addr(9, 9, 9, 1)));
        bl.set_enabled(BlocklistCategory::BotMirai, true);
        assert!(bl.contains(addr(9, 9, 9, 1)));
    }

    #[test]
    fn delisting() {
        let mut bl = BlocklistStore::new();
        let s = addr(7, 7, 7, 0).subnet24();
        bl.add(BlocklistCategory::Community, s);
        assert_eq!(bl.category_len(BlocklistCategory::Community), 1);
        bl.remove(BlocklistCategory::Community, s);
        assert!(!bl.contains(addr(7, 7, 7, 7)));
        assert_eq!(bl.total_len(), 0);
    }

    #[test]
    fn duplicate_adds_are_idempotent() {
        let mut bl = BlocklistStore::new();
        bl.add_addr(BlocklistCategory::Voip, addr(3, 3, 3, 3));
        bl.add_addr(BlocklistCategory::Voip, addr(3, 3, 3, 77));
        assert_eq!(bl.category_len(BlocklistCategory::Voip), 1);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, c) in BlocklistCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn default_store_matches_like_new() {
        // The derived Default used to leave every category disabled, so a
        // defaulted store matched nothing.
        let mut bl = BlocklistStore::default();
        bl.add_addr(BlocklistCategory::Spam, addr(4, 4, 4, 4));
        assert!(bl.contains(addr(4, 4, 4, 9)));
    }

    /// The pre-bitmask layout: one /24 set per category and a flag each.
    struct SetModel {
        sets: [HashSet<Subnet24>; 11],
        enabled: [bool; 11],
    }

    proptest::proptest! {
        #[test]
        fn store_agrees_with_an_eleven_set_model(
            ops in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..300),
        ) {
            let mut bl = BlocklistStore::new();
            let mut model = SetModel {
                sets: Default::default(),
                enabled: [true; 11],
            };
            // Six /24s in four /16s and eleven categories: double adds,
            // removes of absent entries, emptied /24s and /16s all occur.
            const SUBNETS: [Subnet24; 6] = [
                Subnet24(0x01_0100),
                Subnet24(0x01_0101),
                Subnet24(0x01_01FF),
                Subnet24(0x01_0200),
                Subnet24(0x3C_0007),
                Subnet24(0xFF_FFFF),
            ];
            for op in ops {
                let cat = BlocklistCategory::ALL[(op >> 8) as usize % 11];
                let subnet = SUBNETS[(op >> 16) as usize % 6];
                match op % 5 {
                    0 | 1 => {
                        bl.add(cat, subnet);
                        model.sets[cat.index()].insert(subnet);
                    }
                    2 | 3 => {
                        bl.remove(cat, subnet);
                        model.sets[cat.index()].remove(&subnet);
                    }
                    _ => {
                        let on = op >> 24 & 1 == 1;
                        bl.set_enabled(cat, on);
                        model.enabled[cat.index()] = on;
                    }
                }
                // The six, and a neighbour no op ever lists.
                for subnet in SUBNETS.into_iter().chain([Subnet24(0x01_0102)]) {
                    let a = subnet.host(7);
                    let want = (0..11).any(|c| {
                        model.enabled[c] && model.sets[c].contains(&a.subnet24())
                    });
                    assert_eq!(bl.contains(a), want);
                    // The set `contains` reads is the category store's view.
                    assert_eq!(bl.contains(a), bl.mask_of(a) & bl.enabled != 0);
                    for c in BlocklistCategory::ALL {
                        assert_eq!(
                            bl.contains_in(c, a),
                            model.sets[c.index()].contains(&a.subnet24())
                        );
                    }
                }
                for c in BlocklistCategory::ALL {
                    assert_eq!(bl.category_len(c), model.sets[c.index()].len());
                }
                assert_eq!(bl.total_len(), model.sets.iter().map(HashSet::len).sum::<usize>());
                // A /24 whose last category was removed leaves no entry.
                assert!(bl.masks.values().all(|&m| m != 0));
            }
        }
    }
}
