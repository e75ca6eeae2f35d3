//! The Table 1 feature extractor.
//!
//! Ties the volumetric block and the five auxiliary trackers together to
//! produce one [`FeatureFrame`] per customer per minute.

use crate::blocklist::BlocklistStore;
use crate::clustering::ClusteringTracker;
use crate::frame::{offsets, FeatureFrame, FeatureMask, VOLUMETRIC_WIDTH};
use crate::history::AttackHistory;
use crate::prev_attackers::PrevAttackerTracker;
use crate::spoof::SpoofClassifier;
use crate::volumetric::{distinct_sources, source_key, BlockAcc, FlowFacts, SOURCE_CLASSES};
use xatu_netflow::binning::MinuteFlows;
use xatu_netflow::country::CountryMapper;

/// The full feature extractor with its auxiliary state (cloneable so the
/// pipeline can fork CDet-fed and Xatu-fed tracker streams at the test
/// boundary).
///
/// One extractor serves all customers: the trackers are internally keyed by
/// customer. Feed CDet (or Xatu's own) alerts into [`Self::history`],
/// [`Self::prev_attackers`] and [`Self::clustering`] as they arrive; feed
/// blocklist updates into [`Self::blocklists`].
#[derive(Clone)]
pub struct FeatureExtractor {
    /// Country attribution for the V-block country features.
    pub mapper: CountryMapper,
    /// A1: public blocklists.
    pub blocklists: BlocklistStore,
    /// A2: per-customer previous attackers.
    pub prev_attackers: PrevAttackerTracker,
    /// A3: spoof classifier.
    pub spoof: SpoofClassifier,
    /// A4: per-customer attack-severity history.
    pub history: AttackHistory,
    /// A5: cross-customer attacker-group clustering.
    pub clustering: ClusteringTracker,
    /// Ablation mask applied to every extracted frame.
    pub mask: FeatureMask,
}

impl FeatureExtractor {
    /// Creates an extractor with empty trackers, a 60-minute clustering
    /// window, and all features enabled.
    pub fn new() -> Self {
        FeatureExtractor {
            mapper: CountryMapper::new(),
            blocklists: BlocklistStore::new(),
            prev_attackers: PrevAttackerTracker::new(),
            spoof: SpoofClassifier::new(),
            history: AttackHistory::new(),
            clustering: ClusteringTracker::new(60),
            mask: FeatureMask::all(),
        }
    }

    /// Extracts the 273-feature frame for one customer-minute bin.
    pub fn extract(&mut self, bin: &MinuteFlows) -> FeatureFrame {
        self.spoof.ensure_built();
        self.extract_shared(bin)
    }

    /// Shared-read extraction: identical output to [`Self::extract`], but
    /// `&self`, so per-customer bins of one minute can be extracted
    /// concurrently. The spoof classifier must be finalised first
    /// ([`SpoofClassifier::ensure_built`]); [`Self::extract`] does that
    /// automatically.
    pub fn extract_shared(&self, bin: &MinuteFlows) -> FeatureFrame {
        let mut frame = FeatureFrame::zeros();
        let now = bin.minute;
        let customer = bin.customer;
        let mask = self.mask;

        // V and A1–A3 in one walk: each flow is reduced to its facts once,
        // its source is tested against each auxiliary set once, and it is
        // added, in arrival order, to every block that selects it. A
        // masked-out block selects nothing and stays zero.
        //
        // A3: ingress-AS attribution is not present in the flow records,
        // so only bogon/unrouted checks fire here — the invalid-origin
        // path is exercised when the caller classifies with explicit
        // ingress data.
        let prev_attackers = self.prev_attackers.view(customer, now);
        let mut blocks = [BlockAcc::EMPTY; SOURCE_CLASSES];
        let mut sources = Vec::with_capacity(bin.flows.len());
        for f in &bin.flows {
            let classes = 1
                | u8::from(mask.a1 && self.blocklists.contains(f.src)) << 1
                | u8::from(mask.a2 && prev_attackers.contains(f.src)) << 2
                | u8::from(mask.a3 && self.spoof.is_spoofed_shared(f.src, None)) << 3;
            let facts = FlowFacts::of(f, &self.mapper);
            for (k, block) in blocks.iter_mut().enumerate() {
                if classes >> k & 1 == 1 {
                    block.add(&facts);
                }
            }
            sources.push(source_key(f.src.0, classes));
        }
        let distinct = distinct_sources(&mut sources);
        for ((block, n), out) in blocks
            .iter()
            .zip(distinct)
            .zip(frame.0[offsets::V..offsets::A4].chunks_exact_mut(VOLUMETRIC_WIDTH))
        {
            out.copy_from_slice(&block.finish(n));
        }

        // A4: attack-history severities.
        if mask.a4 {
            let a4 = self.history.features(customer, now);
            frame.0[offsets::A4..offsets::A5].copy_from_slice(&a4);
        }

        // A5: clustering coefficients.
        if mask.a5 {
            let a5 = self.clustering.coefficients(customer).as_array();
            frame.0[offsets::A5..].copy_from_slice(&a5);
        }

        // The mask zeroes V too if disabled (only used in diagnostics).
        mask.apply(&mut frame);
        frame
    }
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocklist::BlocklistCategory;
    use xatu_netflow::addr::{Ipv4, Prefix};
    use xatu_netflow::attack::{AttackType, Severity};
    use xatu_netflow::record::{FlowRecord, Protocol, TcpFlags};

    fn flow(src: Ipv4, bytes: u64) -> FlowRecord {
        FlowRecord {
            minute: 100,
            src,
            dst: Ipv4::from_octets(10, 0, 0, 1),
            proto: Protocol::Udp,
            src_port: 4000,
            dst_port: 80,
            tcp_flags: TcpFlags::default(),
            bytes,
            packets: bytes / 100,
            sampling: 1,
        }
    }

    fn bin(flows: Vec<FlowRecord>) -> MinuteFlows {
        MinuteFlows {
            minute: 100,
            customer: Ipv4::from_octets(10, 0, 0, 1),
            flows,
        }
    }

    /// The pre-fusion `extract_shared`, frozen: one walk of the bin per
    /// block, each over the frozen reference block.
    fn extract_four_pass(ex: &FeatureExtractor, bin: &MinuteFlows) -> FeatureFrame {
        use crate::volumetric::reference_block;
        let mut frame = FeatureFrame::zeros();
        let (now, customer) = (bin.minute, bin.customer);
        let v = reference_block(&bin.flows, &ex.mapper, |_| true);
        frame.0[offsets::V..offsets::A1].copy_from_slice(&v);
        if ex.mask.a1 {
            let a1 = reference_block(&bin.flows, &ex.mapper, |f| ex.blocklists.contains(f.src));
            frame.0[offsets::A1..offsets::A2].copy_from_slice(&a1);
        }
        if ex.mask.a2 {
            let a2 = reference_block(&bin.flows, &ex.mapper, |f| {
                ex.prev_attackers.is_previous_attacker(customer, f.src, now)
            });
            frame.0[offsets::A2..offsets::A3].copy_from_slice(&a2);
        }
        if ex.mask.a3 {
            let a3 = reference_block(&bin.flows, &ex.mapper, |f| {
                ex.spoof.is_spoofed_shared(f.src, None)
            });
            frame.0[offsets::A3..offsets::A4].copy_from_slice(&a3);
        }
        if ex.mask.a4 {
            let a4 = ex.history.features(customer, now);
            frame.0[offsets::A4..offsets::A5].copy_from_slice(&a4);
        }
        if ex.mask.a5 {
            let a5 = ex.clustering.coefficients(customer).as_array();
            frame.0[offsets::A5..].copy_from_slice(&a5);
        }
        ex.mask.apply(&mut frame);
        frame
    }

    #[test]
    fn fused_pass_matches_frozen_four_pass_bitwise() {
        // The wider sweep (seeded worlds, dense bins, retention edges) is
        // the root package's tests/extract_equivalence.rs.
        let mut ex = FeatureExtractor::new();
        let cust = Ipv4::from_octets(10, 0, 0, 1);
        let listed = Ipv4::from_octets(66, 66, 66, 66);
        let repeat = Ipv4::from_octets(44, 44, 44, 44);
        ex.blocklists
            .add_addr(BlocklistCategory::DdosSource, listed);
        ex.prev_attackers.record(cust, repeat, 50);
        ex.prev_attackers.record(cust, listed, 60); // in A1 and A2 at once
        ex.spoof
            .announce(Prefix::new(Ipv4::from_octets(44, 0, 0, 0), 8), 100);
        ex.spoof.ensure_built();
        ex.history
            .record(cust, AttackType::UdpFlood, Severity::High, 90);
        let sources = [
            listed,
            repeat,
            Ipv4::from_octets(66, 66, 66, 1), // listed /24, other host
            Ipv4::from_octets(44, 1, 2, 3),   // routed, clean
            Ipv4::from_octets(192, 168, 1, 1), // bogon
            Ipv4::from_octets(8, 8, 8, 8),    // unrouted
        ];
        let mut flows = Vec::new();
        for i in 0..60u64 {
            let mut f = flow(sources[(i * 7 % 6) as usize], 900 + 37 * i);
            f.proto = [Protocol::Udp, Protocol::Tcp, Protocol::Icmp][(i % 3) as usize];
            f.tcp_flags = TcpFlags(i as u8);
            f.src_port = [53, 123, 4000][(i % 3) as usize];
            f.sampling = 1 + (i % 4) as u32 * 100;
            flows.push(f);
        }
        let masks = (1..=5)
            .map(FeatureMask::with_single_aux)
            .chain([FeatureMask::all(), FeatureMask::volumetric_only()]);
        for mask in masks {
            ex.mask = mask;
            for b in [bin(flows.clone()), bin(flows[..1].to_vec()), bin(vec![])] {
                let got = ex.extract_shared(&b);
                let want = extract_four_pass(&ex, &b);
                for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{mask:?} feature {i}");
                }
            }
        }
    }

    #[test]
    fn frame_is_273_wide() {
        let mut ex = FeatureExtractor::new();
        let f = ex.extract(&bin(vec![flow(Ipv4::from_octets(1, 1, 1, 1), 1000)]));
        assert_eq!(f.0.len(), 273);
    }

    #[test]
    fn a1_lights_up_for_blocklisted_sources() {
        let mut ex = FeatureExtractor::new();
        let bad = Ipv4::from_octets(66, 66, 66, 66);
        ex.blocklists.add_addr(BlocklistCategory::DdosSource, bad);
        let f = ex.extract(&bin(vec![
            flow(bad, 5000),
            flow(Ipv4::from_octets(1, 1, 1, 1), 5000),
        ]));
        // V sees both sources, A1 only the blocklisted one.
        assert!(f.volumetric()[0] > f.aux_block(1)[0]);
        assert!(f.aux_block(1)[0] > 0.0);
    }

    #[test]
    fn a2_lights_up_for_previous_attackers() {
        let mut ex = FeatureExtractor::new();
        let cust = Ipv4::from_octets(10, 0, 0, 1);
        let rep = Ipv4::from_octets(44, 44, 44, 44);
        ex.prev_attackers.record(cust, rep, 50);
        let f = ex.extract(&bin(vec![flow(rep, 3000)]));
        assert!(f.aux_block(2)[0] > 0.0);
        // A different customer's bin would not match.
        let other = MinuteFlows {
            minute: 100,
            customer: Ipv4::from_octets(10, 0, 0, 2),
            flows: vec![flow(rep, 3000)],
        };
        let f2 = ex.extract(&other);
        assert_eq!(f2.aux_block(2)[0], 0.0);
    }

    #[test]
    fn a3_lights_up_for_bogon_sources() {
        let mut ex = FeatureExtractor::new();
        // Announce something so the clean source is not "unrouted".
        ex.spoof.announce(
            xatu_netflow::addr::Prefix::new(Ipv4::from_octets(1, 0, 0, 0), 8),
            100,
        );
        let f = ex.extract(&bin(vec![
            flow(Ipv4::from_octets(192, 168, 1, 1), 2000), // bogon
            flow(Ipv4::from_octets(1, 1, 1, 1), 2000),     // routed
        ]));
        assert!(f.aux_block(3)[0] > 0.0);
        assert!(f.volumetric()[0] > f.aux_block(3)[0]);
    }

    #[test]
    fn a4_reflects_recorded_history() {
        let mut ex = FeatureExtractor::new();
        let cust = Ipv4::from_octets(10, 0, 0, 1);
        ex.history
            .record(cust, AttackType::UdpFlood, Severity::High, 100);
        let f = ex.extract(&bin(vec![flow(Ipv4::from_octets(1, 1, 1, 1), 1000)]));
        let idx = AttackType::UdpFlood.index() * 3 + Severity::High.index();
        assert_eq!(f.aux_block(4)[idx], 1.0);
    }

    #[test]
    fn a5_reflects_clustering() {
        let mut ex = FeatureExtractor::new();
        let cust = Ipv4::from_octets(10, 0, 0, 1);
        let peer = Ipv4::from_octets(10, 0, 0, 2);
        let grp = Ipv4::from_octets(77, 7, 7, 1).subnet24();
        ex.clustering.record(99, grp, cust);
        ex.clustering.record(99, grp, peer);
        let f = ex.extract(&bin(vec![flow(Ipv4::from_octets(1, 1, 1, 1), 1000)]));
        assert_eq!(f.aux_block(5), [1.0, 1.0, 1.0]);
    }

    #[test]
    fn mask_disables_blocks_at_extraction() {
        let mut ex = FeatureExtractor::new();
        let bad = Ipv4::from_octets(66, 66, 66, 66);
        ex.blocklists.add_addr(BlocklistCategory::DdosSource, bad);
        ex.mask = FeatureMask::volumetric_only();
        let f = ex.extract(&bin(vec![flow(bad, 5000)]));
        assert!(f.aux_block(1).iter().all(|&v| v == 0.0));
        assert!(f.volumetric()[0] > 0.0);
    }

    #[test]
    fn empty_bin_extracts_zeros_except_history() {
        let mut ex = FeatureExtractor::new();
        let f = ex.extract(&bin(vec![]));
        assert!(f.volumetric().iter().all(|&v| v == 0.0));
    }
}
