//! Spoofed-source classifier (auxiliary signal A3).
//!
//! §5.1 defines three categories of "obviously spoofed" traffic:
//!
//! 1. **Bogon** sources — RFC 1918 private ranges, RFC 5735/5737 special-use
//!    blocks, RFC 6598 shared address space.
//! 2. **Unrouted** sources — addresses not covered by any BGP-announced
//!    prefix in RIS/RouteViews-style dumps.
//! 3. **Invalid-origin** sources — addresses whose observed ingress AS does
//!    not match (and is not in the customer cone of) the AS announcing the
//!    covering prefix.
//!
//! The classifier is deliberately conservative; the paper stresses it
//! "likely misses much-spoofed traffic", and the simulator reproduces that
//! by marking only a fraction of spoofed attack traffic with detectable
//! categories.

use xatu_netflow::addr::{Ipv4, Prefix, PrefixTable, Slash24Set};

/// Why a source was classified as spoofed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpoofReason {
    /// Bogon source address (RFC 1918 / 5735 / 6598).
    Bogon,
    /// No covering BGP-announced prefix.
    Unrouted,
    /// Ingress AS disagrees with the prefix's origin AS (and cone).
    InvalidOrigin,
}

/// An autonomous-system number.
pub type Asn = u32;

/// The spoof classifier with its routing tables.
#[derive(Clone, Debug, Default)]
pub struct SpoofClassifier {
    routed: PrefixTable<Asn>,
    /// For each origin AS: the set of ASes allowed to source its prefixes
    /// (the AS itself plus its "full cone" / multi-AS-organisation
    /// adjustments, §5.1).
    cones: std::collections::HashMap<Asn, Vec<Asn>>,
    /// What [`Self::build`] derived from `routed`; `None` while an
    /// announcement is newer than the last build.
    built: Option<Built>,
}

/// "Bogon or unrouted", precomputed per /24: what the ingress-less per-flow
/// test reads instead of the table.
#[derive(Clone, Debug)]
struct Built {
    spoofed: Slash24Set,
    /// The /24s of `spoofed` the set cannot speak for: no prefix of /24 or
    /// shorter covers them and one longer than /24 lies inside, so their
    /// addresses differ. `None` while the table holds no such prefix.
    mixed: Option<Slash24Set>,
}

impl SpoofClassifier {
    /// Creates an empty classifier (everything non-bogon is "unrouted").
    pub fn new() -> Self {
        Self::default()
    }

    /// Announces `prefix` with origin AS `asn`.
    pub fn announce(&mut self, prefix: Prefix, asn: Asn) {
        self.routed.insert(prefix, asn);
        self.built = None;
    }

    /// Allows `sibling` to legitimately source traffic for `origin`'s
    /// prefixes (customer cone / multi-AS organisation).
    pub fn allow_cone(&mut self, origin: Asn, sibling: Asn) {
        self.cones.entry(origin).or_default().push(sibling);
    }

    /// Finalises the routed-prefix table. Called automatically on first
    /// classification if forgotten.
    pub fn build(&mut self) {
        self.routed.build();
        // Unrouted is what no announcement covers. Only the answer has to
        // be uniform over a /24, so a more-specific under a covering prefix
        // changes nothing, and a /16 with neither a hole nor a TEST-NET in
        // it stays on a shared page.
        let mut spoofed = Slash24Set::full();
        let mut mixed: Option<Slash24Set> = None;
        // Shortest first: every prefix that can cover a /24 has been taken
        // out by the time the first one longer than /24 is looked at.
        for prefix in self.routed.prefixes() {
            if prefix.len <= 24 {
                spoofed.remove_prefix(prefix);
            } else if spoofed.contains(Ipv4(prefix.base)) {
                mixed
                    .get_or_insert_default()
                    .insert(Ipv4(prefix.base).subnet24());
            }
        }
        for bogon in Ipv4::BOGONS {
            spoofed.insert_prefix(bogon);
        }
        self.built = Some(Built { spoofed, mixed });
    }

    /// Builds the routed-prefix table if it is stale; no-op otherwise.
    /// Call before fanning classification out across threads with
    /// [`Self::classify_shared`].
    pub fn ensure_built(&mut self) {
        if self.built.is_none() {
            self.build();
        }
    }

    /// Classifies a source address given the AS it was observed entering
    /// from (`ingress_as`, `None` when unknown — e.g. sampled NetFlow
    /// without ingress attribution).
    pub fn classify(&mut self, src: Ipv4, ingress_as: Option<Asn>) -> Option<SpoofReason> {
        self.ensure_built();
        self.classify_shared(src, ingress_as)
    }

    /// Shared-read classification: identical to [`Self::classify`] but
    /// usable concurrently from many threads. The prefix table must have
    /// been finalised with [`Self::ensure_built`] first.
    pub fn classify_shared(&self, src: Ipv4, ingress_as: Option<Asn>) -> Option<SpoofReason> {
        if src.is_bogon() {
            return Some(SpoofReason::Bogon);
        }
        assert!(
            self.built.is_some(),
            "SpoofClassifier::classify_shared before ensure_built()"
        );
        let origin = match self.routed.lookup(src) {
            None => return Some(SpoofReason::Unrouted),
            Some((asn, _)) => *asn,
        };
        if let Some(ingress) = ingress_as {
            if ingress != origin
                && !self
                    .cones
                    .get(&origin)
                    .is_some_and(|cone| cone.contains(&ingress))
            {
                return Some(SpoofReason::InvalidOrigin);
            }
        }
        None
    }

    /// Is the source spoofed at all? Shared-read; requires
    /// [`Self::ensure_built`].
    ///
    /// Without an ingress AS the answer is "bogon or unrouted", which
    /// [`Self::build`] has precomputed per /24: the per-flow test of the
    /// feature extractor is two loads, whatever source an exporter sends.
    #[inline]
    pub fn is_spoofed_shared(&self, src: Ipv4, ingress_as: Option<Asn>) -> bool {
        if ingress_as.is_some() {
            return self.classify_shared(src, ingress_as).is_some();
        }
        let built = self
            .built
            .as_ref()
            .expect("SpoofClassifier::is_spoofed_shared before ensure_built()");
        built.spoofed.contains(src)
            && match &built.mixed {
                Some(mixed) if mixed.contains(src) => self.classify_shared(src, None).is_some(),
                _ => true,
            }
    }

    /// Number of announced prefixes.
    pub fn announced(&self) -> usize {
        self.routed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SpoofClassifier {
        let mut c = SpoofClassifier::new();
        c.announce(Prefix::new(Ipv4::from_octets(20, 0, 0, 0), 8), 100);
        c.announce(Prefix::new(Ipv4::from_octets(20, 5, 0, 0), 16), 200);
        c.allow_cone(100, 150);
        c.build();
        c
    }

    #[test]
    fn bogons_detected_first() {
        let mut c = table();
        assert_eq!(
            c.classify(Ipv4::from_octets(10, 1, 1, 1), Some(100)),
            Some(SpoofReason::Bogon)
        );
        assert_eq!(
            c.classify(Ipv4::from_octets(192, 168, 0, 1), None),
            Some(SpoofReason::Bogon)
        );
    }

    #[test]
    fn unrouted_detected() {
        let mut c = table();
        assert_eq!(
            c.classify(Ipv4::from_octets(30, 0, 0, 1), None),
            Some(SpoofReason::Unrouted)
        );
    }

    #[test]
    fn valid_origin_passes() {
        let mut c = table();
        assert_eq!(c.classify(Ipv4::from_octets(20, 1, 0, 1), Some(100)), None);
        // Longest prefix wins: 20.5/16 belongs to AS 200.
        assert_eq!(c.classify(Ipv4::from_octets(20, 5, 0, 1), Some(200)), None);
    }

    #[test]
    fn invalid_origin_detected() {
        let mut c = table();
        assert_eq!(
            c.classify(Ipv4::from_octets(20, 5, 0, 1), Some(100)),
            Some(SpoofReason::InvalidOrigin)
        );
    }

    #[test]
    fn cone_membership_allows_siblings() {
        let mut c = table();
        assert_eq!(c.classify(Ipv4::from_octets(20, 1, 0, 1), Some(150)), None);
        assert_eq!(
            c.classify(Ipv4::from_octets(20, 1, 0, 1), Some(999)),
            Some(SpoofReason::InvalidOrigin)
        );
    }

    #[test]
    fn unknown_ingress_is_benefit_of_the_doubt() {
        let mut c = table();
        assert_eq!(c.classify(Ipv4::from_octets(20, 1, 0, 1), None), None);
    }

    #[test]
    fn empty_table_marks_everything_unrouted() {
        let mut c = SpoofClassifier::new();
        assert_eq!(
            c.classify(Ipv4::from_octets(8, 8, 8, 8), None),
            Some(SpoofReason::Unrouted)
        );
    }

    /// Every address of the given /16s: the precomputed set against the
    /// table walk it replaces.
    fn assert_set_matches_table(c: &SpoofClassifier, slash16s: &[(u8, u8)]) {
        for &(a, b) in slash16s {
            for low in 0..=u16::MAX {
                let src = Ipv4(Ipv4::from_octets(a, b, 0, 0).0 | u32::from(low));
                assert_eq!(
                    c.is_spoofed_shared(src, None),
                    c.classify_shared(src, None).is_some(),
                    "{src}"
                );
            }
        }
    }

    fn split_slash16s(c: &SpoofClassifier) -> usize {
        c.built.as_ref().expect("built").spoofed.split_slash16s()
    }

    #[test]
    fn precomputed_set_matches_the_table_walk() {
        let p = |a, b, c, d, len| Prefix::new(Ipv4::from_octets(a, b, c, d), len);
        let mut c = SpoofClassifier::new();
        // A covering /8 with more-specifics under it, down to a /26: the
        // answer is "routed" throughout, so no /16 of it splits.
        c.announce(p(20, 0, 0, 0, 8), 100);
        c.announce(p(20, 5, 0, 0, 16), 200);
        c.announce(p(20, 5, 7, 0, 24), 201);
        c.announce(p(20, 5, 7, 64, 26), 202);
        // /16s with holes.
        c.announce(p(21, 4, 0, 0, 17), 300);
        c.announce(p(21, 4, 200, 0, 24), 301);
        c.announce(p(21, 5, 0, 0, 18), 302);
        c.announce(p(21, 5, 128, 0, 20), 303);
        // Prefixes longer than /24 with nothing over them: their /24s are
        // part routed, part not.
        c.announce(p(22, 1, 1, 128, 25), 400);
        c.announce(p(22, 1, 2, 4, 30), 401);
        c.announce(p(22, 1, 3, 77, 32), 402);
        // TEST-NET-1 and -2 inside routed /16s, one with a /25 announced
        // inside the TEST-NET itself; TEST-NET-3 inside an unrouted one.
        c.announce(p(192, 0, 0, 0, 16), 500);
        c.announce(p(192, 0, 2, 128, 25), 501);
        c.announce(p(198, 51, 0, 0, 16), 502);
        // Announced bogon space stays bogon.
        c.announce(p(10, 9, 0, 0, 16), 600);
        c.build();
        let probes = [
            (20, 4),
            (20, 5),
            (21, 3),
            (21, 4),
            (21, 5),
            (21, 6),
            (22, 1),
            (22, 2),
            (192, 0),
            (198, 51),
            (203, 0),
            (192, 167),
            (192, 168),
            (192, 169),
            (100, 63),
            (100, 64),
            (100, 127),
            (100, 128),
            (172, 15),
            (172, 16),
            (172, 31),
            (172, 32),
            (0, 0),
            (10, 9),
            (127, 0),
            (169, 254),
            (239, 255),
            (240, 0),
            (255, 255),
        ];
        assert_set_matches_table(&c, &probes);
        // 21.4 and 21.5 (holes), 192.0 and 198.51 (a TEST-NET in routed
        // space). 203.0 is spoofed with or without its TEST-NET, and 22.1's
        // /24s are unrouted as far as whole /24s go.
        assert_eq!(split_slash16s(&c), 4);
        let mixed = c
            .built
            .as_ref()
            .unwrap()
            .mixed
            .as_ref()
            .expect("long prefixes");
        assert_eq!(mixed.split_slash16s(), 1);
        assert!(c.is_spoofed_shared(Ipv4::from_octets(22, 1, 1, 127), None));
        assert!(!c.is_spoofed_shared(Ipv4::from_octets(22, 1, 1, 128), None));
        assert!(!c.is_spoofed_shared(Ipv4::from_octets(22, 1, 3, 77), None));
        assert!(c.is_spoofed_shared(Ipv4::from_octets(192, 0, 2, 200), None));

        // Re-announcement after a build: the set is rebuilt with the table.
        c.announce(p(22, 1, 1, 0, 24), 700); // covers the /25
        c.announce(p(203, 0, 0, 0, 16), 701); // TEST-NET-3 now stands out
        c.announce(p(21, 4, 128, 0, 17), 702); // fills 21.4's hole
        c.ensure_built();
        assert_set_matches_table(&c, &probes);
        assert_eq!(split_slash16s(&c), 5); // + 22.1 and 203.0, − 21.4
        assert!(!c.is_spoofed_shared(Ipv4::from_octets(22, 1, 1, 127), None));
    }

    #[test]
    fn a_table_without_long_prefixes_keeps_no_second_set() {
        let mut c = table();
        c.announce(Prefix::new(Ipv4::from_octets(20, 5, 7, 0), 25), 300); // covered
        c.ensure_built();
        assert!(c.built.as_ref().unwrap().mixed.is_none());
        assert_eq!(split_slash16s(&c), 0);
        // An ingress AS still goes to the table.
        assert!(c.is_spoofed_shared(Ipv4::from_octets(20, 5, 0, 1), Some(100)));
        assert!(!c.is_spoofed_shared(Ipv4::from_octets(20, 5, 0, 1), Some(200)));
    }

    #[test]
    #[should_panic(expected = "before ensure_built")]
    fn the_set_is_not_read_while_an_announcement_is_unbuilt() {
        let mut c = table();
        c.announce(Prefix::new(Ipv4::from_octets(30, 0, 0, 0), 8), 300);
        c.is_spoofed_shared(Ipv4::from_octets(30, 0, 0, 1), None);
    }
}
