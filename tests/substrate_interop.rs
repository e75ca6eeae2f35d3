//! Cross-crate substrate tests: the pieces below the pipeline must agree
//! with each other (simulator ↔ detectors ↔ features ↔ metrics).

use std::collections::HashMap;
use xatu::core::eval::VolumeStore;
use xatu::detectors::netscout::NetScout;
use xatu::detectors::traits::{Detector, DetectorEvent};
use xatu::features::blocklist::BlocklistCategory;
use xatu::features::table1::FeatureExtractor;
use xatu::netflow::attack::AttackType;
use xatu::simnet::{World, WorldConfig};

/// The simulator's blocklist feed must light up the extractor's A1 block
/// during attacks conducted by blocklisted botnet members.
#[test]
fn blocklist_feed_reaches_a1_features() {
    let mut world = World::new(WorldConfig::smoke_test(13));
    let mut ex = FeatureExtractor::new();
    for (cat, subnet) in world.blocklist_feed() {
        ex.blocklists.add(BlocklistCategory::ALL[cat], subnet);
    }
    for (prefix, asn) in world.routed_prefixes() {
        ex.spoof.announce(prefix, asn);
    }
    ex.spoof.build();

    let events: Vec<_> = world.events().to_vec();
    assert!(!events.is_empty());
    let mut saw_a1_during_attack = false;
    while !world.finished() {
        let bins = world.step();
        let minute = bins[0].minute;
        for bin in &bins {
            let in_attack = events
                .iter()
                .any(|e| e.victim == bin.customer && minute >= e.onset && minute < e.end);
            if !in_attack {
                continue;
            }
            let frame = ex.extract(bin);
            if frame.aux_block(1).iter().any(|&v| v > 0.0) {
                saw_a1_during_attack = true;
            }
        }
        if saw_a1_during_attack {
            break;
        }
    }
    assert!(saw_a1_during_attack, "A1 never fired during any attack");
}

/// The CDet must detect a decent share of the simulator's scheduled
/// attacks — otherwise there is no label source and the whole premise
/// collapses.
#[test]
fn cdet_detects_most_scheduled_attacks() {
    let mut world = World::new(WorldConfig::smoke_test(17));
    let scheduled = world.events().len();
    assert!(scheduled > 0);
    let total = world.total_minutes();
    let mut volumes = VolumeStore::new(total);
    let mut netscout = NetScout::new();
    let mut raised = 0usize;
    while !world.finished() {
        let bins = world.step();
        let minute = bins[0].minute;
        for bin in &bins {
            volumes.record(bin);
            let live = volumes.channels(bin.customer, minute);
            for obs in live.iter().filter(|obs| obs.bytes > 0.0) {
                raised += netscout
                    .observe(obs)
                    .iter()
                    .filter(|e| matches!(e, DetectorEvent::Raised(_)))
                    .count();
            }
        }
    }
    // Many attacks are too small or too short for a conservative CDet —
    // that is the paper's whole premise — but a meaningful share must be
    // caught or there is no label stream at all.
    assert!(
        raised * 3 >= scheduled,
        "CDet raised {raised} alerts for {scheduled} scheduled attacks"
    );
}

/// Signature volumes recorded by the store must equal a direct per-flow
/// tally over the same stream.
#[test]
fn volume_store_matches_direct_tally() {
    let mut world = World::new(WorldConfig::smoke_test(19));
    let total = world.total_minutes();
    let mut volumes = VolumeStore::new(total);
    let mut direct: HashMap<(u32, u32), f64> = HashMap::new(); // (cust, minute)
    let sig = AttackType::UdpFlood.signature();
    for _ in 0..200 {
        let bins = world.step();
        for bin in &bins {
            volumes.record(bin);
            let v: f64 = bin
                .flows
                .iter()
                .filter(|f| sig.matches(f))
                .map(|f| f.est_bytes() as f64)
                .sum();
            if v > 0.0 {
                direct.insert((bin.customer.0, bin.minute), v);
            }
        }
    }
    for (&(cust, minute), &v) in &direct {
        let got = volumes.bytes_at(
            xatu::netflow::addr::Ipv4(cust),
            AttackType::UdpFlood,
            minute,
        );
        assert!((got - v).abs() < 1e-6, "mismatch at {cust}:{minute}");
    }
}

/// The spoof classifier and blocklists must agree with the address-plan
/// invariants the simulator guarantees.
#[test]
fn address_plan_invariants() {
    let world = World::new(WorldConfig::smoke_test(23));
    let mut ex = FeatureExtractor::new();
    for (prefix, asn) in world.routed_prefixes() {
        ex.spoof.announce(prefix, asn);
    }
    ex.spoof.build();
    // Benign space is routed; unannounced 90/8 is spoofed; RFC1918 bogon.
    use xatu::features::spoof::SpoofReason;
    use xatu::netflow::addr::Ipv4;
    assert_eq!(
        ex.spoof.classify(Ipv4::from_octets(30, 1, 2, 3), None),
        None
    );
    assert_eq!(
        ex.spoof.classify(Ipv4::from_octets(90, 1, 2, 3), None),
        Some(SpoofReason::Unrouted)
    );
    assert_eq!(
        ex.spoof.classify(Ipv4::from_octets(10, 1, 2, 3), None),
        Some(SpoofReason::Bogon)
    );
    // Every blocklist entry is inside botnet space.
    for (_, subnet) in world.blocklist_feed() {
        assert_eq!(subnet.base().octets()[0], 60);
    }
}
