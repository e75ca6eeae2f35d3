//! `FeatureExtractor::extract_shared` makes one pass over a bin and feeds
//! up to four block accumulators; before that it walked the bin once per
//! block. This file keeps the four-pass extractor, frozen and written
//! against public items only, and holds the one-pass extractor to it
//! `to_bits()`-equal on all 273 features. It lives in the root package
//! because tier-1's `cargo test -q` runs only the root package.

use std::collections::{BTreeMap, HashSet};
use xatu::features::blocklist::BlocklistCategory;
use xatu::features::frame::{offsets, VOLUMETRIC_WIDTH};
use xatu::features::prev_attackers::PrevAttackerTracker;
use xatu::features::volumetric::{compress, POPULAR_PORTS};
use xatu::features::{FeatureExtractor, FeatureFrame, FeatureMask};
use xatu::netflow::addr::{Ipv4, Prefix, Subnet24};
use xatu::netflow::attack::Severity;
use xatu::netflow::binning::MinuteFlows;
use xatu::netflow::country::CountryMapper;
use xatu::netflow::record::{FlowRecord, Protocol, TcpFlags};
use xatu::simnet::{World, WorldConfig};

// ---------------------------------------------------------------------
// The frozen reference. Do not "tidy" it toward the live code: its value
// is that it is the old code.
// ---------------------------------------------------------------------

fn reference_block(
    flows: &[FlowRecord],
    mapper: &CountryMapper,
    mut select: impl FnMut(&FlowRecord) -> bool,
) -> [f64; VOLUMETRIC_WIDTH] {
    let mut out = [0.0f64; VOLUMETRIC_WIDTH];
    let mut sources: HashSet<u32> = HashSet::new();
    let mut n_flows = 0usize;
    let mut sum_bytes = 0.0f64;
    let mut sum_packets = 0.0f64;
    let mut max_bytes = 0.0f64;
    let mut max_packets = 0.0f64;
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
    assert_eq!(k, VOLUMETRIC_WIDTH);
    out
}

fn extract_four_pass(ex: &FeatureExtractor, bin: &MinuteFlows) -> FeatureFrame {
    let mut frame = FeatureFrame::zeros();
    let now = bin.minute;
    let customer = bin.customer;

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

// ---------------------------------------------------------------------

fn all_masks() -> Vec<FeatureMask> {
    let mut masks = vec![FeatureMask::all(), FeatureMask::volumetric_only()];
    masks.extend((1..=5).map(FeatureMask::with_single_aux));
    masks
}

/// Asserts one-pass ≡ four-pass on `bin` under each of `masks`; returns
/// the full-mask frame.
fn assert_equivalent_under(
    ex: &mut FeatureExtractor,
    bin: &MinuteFlows,
    masks: &[FeatureMask],
    what: &str,
) -> FeatureFrame {
    ex.spoof.ensure_built();
    let mut full = None;
    for &mask in masks {
        ex.mask = mask;
        let got = ex.extract_shared(bin);
        let want = extract_four_pass(ex, bin);
        assert_eq!(got.0.len(), 273);
        for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: feature {i} under {mask:?} at minute {} for {}: {g} vs {w}",
                bin.minute,
                bin.customer,
            );
        }
        if mask == FeatureMask::all() {
            full = Some(got);
        }
    }
    ex.mask = FeatureMask::all();
    full.expect("masks include FeatureMask::all()")
}

fn assert_equivalent(ex: &mut FeatureExtractor, bin: &MinuteFlows, what: &str) -> FeatureFrame {
    assert_equivalent_under(ex, bin, &all_masks(), what)
}

const CUSTOMER: Ipv4 = Ipv4::from_octets(10, 0, 0, 1);
const MINUTE: u32 = 5000;

fn flow(src: Ipv4, i: u64) -> FlowRecord {
    const PORTS: [u16; 7] = [0, 53, 80, 123, 443, 22, 40_000];
    FlowRecord {
        minute: MINUTE,
        src,
        dst: CUSTOMER,
        proto: match i % 5 {
            0 | 1 => Protocol::Udp,
            2 | 3 => Protocol::Tcp,
            _ if i.is_multiple_of(2) => Protocol::Icmp,
            _ => Protocol::Other(47),
        },
        src_port: PORTS[(i % 7) as usize],
        dst_port: PORTS[(i / 7 % 7) as usize],
        tcp_flags: TcpFlags((i * 37) as u8),
        bytes: 64 + i * 7919 % 150_000,
        packets: 1 + i * 31 % 900,
        sampling: [1, 100, 1000][(i % 3) as usize],
    }
}

fn bin(flows: Vec<FlowRecord>) -> MinuteFlows {
    MinuteFlows {
        minute: MINUTE,
        customer: CUSTOMER,
        flows,
    }
}

/// An extractor with every auxiliary set loaded: a listed /24 per
/// category, two routed /8s and a /16, previous attackers and history for
/// `CUSTOMER`, and a clustering peer.
fn loaded_extractor() -> FeatureExtractor {
    let mut ex = FeatureExtractor::new();
    for (i, cat) in BlocklistCategory::ALL.into_iter().enumerate() {
        ex.blocklists
            .add_addr(cat, Ipv4::from_octets(60 + i as u8, 1, 1, 1));
    }
    ex.spoof
        .announce(Prefix::new(Ipv4::from_octets(60, 0, 0, 0), 6), 100);
    ex.spoof
        .announce(Prefix::new(Ipv4::from_octets(44, 0, 0, 0), 8), 200);
    ex.spoof
        .announce(Prefix::new(Ipv4::from_octets(44, 7, 0, 0), 16), 300);
    for third in 0..40u8 {
        ex.prev_attackers
            .record(CUSTOMER, Ipv4::from_octets(44, 7, third, 9), MINUTE - 100);
    }
    ex.prev_attackers
        .record(CUSTOMER, Ipv4::from_octets(61, 1, 1, 200), MINUTE - 5);
    ex.history.record(
        CUSTOMER,
        xatu::netflow::attack::AttackType::UdpFlood,
        Severity::Medium,
        MINUTE - 30,
    );
    let peer = Ipv4::from_octets(10, 0, 0, 2);
    let grp = |s: u8| Ipv4::from_octets(44, 7, s, 0).subnet24();
    for s in 0..6 {
        ex.clustering.record(MINUTE - 3, grp(s), CUSTOMER);
    }
    for s in [0, 2, 4] {
        ex.clustering.record(MINUTE - 2, grp(s), peer);
    }
    ex
}

/// Sources of every class: listed, listed-and-previous, previous, routed
/// clean, bogon, unrouted.
fn mixed_sources() -> Vec<Ipv4> {
    vec![
        Ipv4::from_octets(60, 1, 1, 7),
        Ipv4::from_octets(61, 1, 1, 7),
        Ipv4::from_octets(44, 7, 3, 1),
        Ipv4::from_octets(44, 9, 9, 9),
        Ipv4::from_octets(192, 168, 4, 4),
        Ipv4::from_octets(100, 64, 1, 1),
        Ipv4::from_octets(8, 8, 8, 8),
        Ipv4::from_octets(203, 0, 113, 5),
    ]
}

#[test]
fn empty_and_single_flow_bins() {
    let mut ex = loaded_extractor();
    let f = assert_equivalent(&mut ex, &bin(vec![]), "empty bin");
    assert!(f.0[..offsets::A4].iter().all(|&v| v == 0.0));
    for (i, src) in mixed_sources().into_iter().enumerate() {
        assert_equivalent(&mut ex, &bin(vec![flow(src, i as u64)]), "one flow");
    }
}

#[test]
fn bogon_unrouted_and_routed_sources_land_in_the_right_blocks() {
    let mut ex = loaded_extractor();
    let flows: Vec<FlowRecord> = mixed_sources()
        .into_iter()
        .enumerate()
        .map(|(i, s)| flow(s, i as u64))
        .collect();
    let f = assert_equivalent(&mut ex, &bin(flows), "mixed sources");
    // 8 sources; 2 listed; 2 previous; 2 bogon + 1 TEST-NET bogon + 1 unrouted.
    assert_eq!(f.volumetric()[0], compress(8.0));
    assert_eq!(f.aux_block(1)[0], compress(2.0));
    assert_eq!(f.aux_block(2)[0], compress(2.0));
    assert_eq!(f.aux_block(3)[0], compress(4.0));
}

#[test]
fn dense_bin_with_sources_repeating_within_and_across_slash24s() {
    let mut ex = loaded_extractor();
    let classes = mixed_sources();
    let mut flows = Vec::new();
    for i in 0..2400u64 {
        // 8 classes × 5 /24s × 7 hosts = 280 sources, each seen ~8 times,
        // interleaved so no block's flows are contiguous.
        let base = classes[(i % 8) as usize].0 & !0xFFFF;
        let (subnet, host) = ((i * 13 % 5) as u32, (i * 29 % 7) as u32 + 1);
        let src = Ipv4(base | (subnet << 8) | host);
        flows.push(flow(src, i));
    }
    let f = assert_equivalent(&mut ex, &bin(flows), "dense bin");
    for signal in 1..=3 {
        assert!(
            f.aux_block(signal)[0] > 0.0,
            "A{signal} empty in the dense bin"
        );
        assert!(f.aux_block(signal)[0] < f.volumetric()[0]);
    }
}

/// A bin large enough for the radix path of the distinct-source count,
/// its sources in /16s the two /24 sets answer from a page (part listed;
/// routed with holes; routed around a TEST-NET), from a shared page (every
/// /24 listed; nothing routed) and, for one /24 that holds a /25, from the
/// table walk. The per-flow predicates are held to independent oracles: a
/// plain set of the /24s fed to the blocklists, and `classify_shared`.
#[test]
fn dense_bin_with_sources_in_listed_and_in_split_slash16s() {
    let mut ex = loaded_extractor();
    let mut listed: HashSet<Subnet24> = (0..11u8)
        .map(|i| Ipv4::from_octets(60 + i, 1, 1, 1).subnet24())
        .collect();
    for third in 0..=255u8 {
        // 62.3/16 whole, every third /24 of 63.4/16.
        let whole = Ipv4::from_octets(62, 3, third, 0).subnet24();
        ex.blocklists.add(BlocklistCategory::Scanner, whole);
        listed.insert(whole);
        if third % 3 == 0 {
            let part = Ipv4::from_octets(63, 4, third, 0).subnet24();
            ex.blocklists.add(BlocklistCategory::BotMirai, part);
            ex.blocklists.add(BlocklistCategory::Spam, part);
            listed.insert(part);
        }
    }
    let p = |a, b, c, d, len| Prefix::new(Ipv4::from_octets(a, b, c, d), len);
    for (prefix, asn) in [
        (p(45, 1, 0, 0, 17), 400),   // 45.1/16: upper half unrouted …
        (p(45, 1, 200, 0, 24), 401), // … but for one /24
        (p(46, 2, 3, 128, 25), 402), // a /24 routed in its upper half only
        (p(192, 0, 0, 0, 16), 403),  // TEST-NET-1 inside routed space
        (p(198, 51, 0, 0, 16), 404), // TEST-NET-2 inside routed space
    ] {
        ex.spoof.announce(prefix, asn);
    }
    ex.spoof.ensure_built();

    let slash16s = [
        (62, 3),
        (63, 4),
        (45, 1),
        (46, 2),
        (192, 0),
        (198, 51),
        (203, 0),
        (60, 1),
        (44, 7),
    ];
    let mut flows = Vec::new();
    for i in 0..3000u64 {
        let (a, b) = slash16s[(i % 9) as usize];
        // Thirds around the edges that matter (2, 3, 100, 113, 127, 128,
        // 200) and hosts on both sides of a /25: 360 sources, ~8 flows each.
        let third = [0, 2, 3, 99, 100, 113, 127, 128, 200, 201][(i / 9 % 10) as usize];
        let host = [1, 127, 128, 254][(i / 90 % 4) as usize];
        flows.push(flow(Ipv4::from_octets(a, b, third, host), i));
    }
    let sources: HashSet<Ipv4> = flows.iter().map(|f| f.src).collect();
    let in_a1 = sources
        .iter()
        .filter(|s| listed.contains(&s.subnet24()))
        .count();
    let in_a3 = sources
        .iter()
        .filter(|&&s| ex.spoof.classify_shared(s, None).is_some())
        .count();
    assert_eq!(sources.len(), 360);
    assert!(in_a1 > 50 && in_a3 > 50 && in_a1 + in_a3 < sources.len());

    let f = assert_equivalent(&mut ex, &bin(flows), "dense bin, split /16s");
    assert_eq!(f.volumetric()[0], compress(sources.len() as f64));
    assert_eq!(f.aux_block(1)[0], compress(in_a1 as f64));
    assert_eq!(f.aux_block(3)[0], compress(in_a3 as f64));
}

#[test]
fn a_disabled_blocklist_category_stops_matching_in_both() {
    let mut ex = loaded_extractor();
    let flows: Vec<FlowRecord> = (0..11u8)
        .map(|i| flow(Ipv4::from_octets(60 + i, 1, 1, 3), i as u64))
        .collect();
    let b = bin(flows);
    let on = assert_equivalent(&mut ex, &b, "all categories");
    ex.blocklists.set_enabled(BlocklistCategory::Scanner, false);
    let off = assert_equivalent(&mut ex, &b, "scanner disabled");
    assert_eq!(on.aux_block(1)[0], compress(11.0));
    assert_eq!(off.aux_block(1)[0], compress(10.0));
}

#[test]
fn retention_horizon_at_and_just_past() {
    let src = Ipv4::from_octets(44, 7, 3, 1);
    for (age, remembered) in [(999, true), (1000, true), (1001, false)] {
        let mut ex = loaded_extractor();
        ex.prev_attackers = PrevAttackerTracker::with_retention(1000);
        ex.prev_attackers.record(CUSTOMER, src, MINUTE - age);
        let b = bin((0..5).map(|i| flow(src, i)).collect());
        let f = assert_equivalent(&mut ex, &b, "retention");
        assert_eq!(f.aux_block(2)[0] > 0.0, remembered, "age {age}");
    }
}

/// Seeded simulator minutes, with the trackers fed from the ground-truth
/// schedule as the pipeline feeds them from alerts, so A2, A4 and A5 are
/// live beside A1 and A3.
#[test]
fn seeded_world_minutes() {
    for (seed, retention) in [(3u64, None), (29, Some(600))] {
        let mut world = World::new(WorldConfig::smoke_test(seed));
        let mut ex = FeatureExtractor::new();
        if let Some(minutes) = retention {
            ex.prev_attackers = PrevAttackerTracker::with_retention(minutes);
        }
        for (cat, subnet) in world.blocklist_feed() {
            ex.blocklists.add(BlocklistCategory::ALL[cat], subnet);
        }
        for (prefix, asn) in world.routed_prefixes() {
            ex.spoof.announce(prefix, asn);
        }
        let events = world.events().to_vec();
        assert!(!events.is_empty());

        let mut lit = [false; 6];
        while !world.finished() {
            let bins = world.step();
            let minute = bins[0].minute;
            ex.clustering.expire(minute);
            // Every mask on every tenth minute, the full mask on all.
            let masks = if minute.is_multiple_of(10) {
                all_masks()
            } else {
                vec![FeatureMask::all()]
            };
            for bin in &bins {
                let f = assert_equivalent_under(&mut ex, bin, &masks, "world");
                lit[0] |= f.volumetric()[0] > 0.0;
                for (signal, lit) in lit.iter_mut().enumerate().skip(1) {
                    *lit |= f.aux_block(signal).iter().any(|&v| v > 0.0);
                }
            }
            for e in events
                .iter()
                .filter(|e| e.onset <= minute && minute < e.end)
            {
                if minute == e.onset {
                    ex.history
                        .record(e.victim, e.attack_type, Severity::High, minute);
                }
                let Some(bin) = bins.iter().find(|b| b.customer == e.victim) else {
                    continue;
                };
                for f in bin.flows.iter().take(24) {
                    ex.prev_attackers.record(e.victim, f.src, minute);
                    ex.clustering.record(minute, f.src.subnet24(), e.victim);
                }
            }
        }
        assert_eq!(lit, [true; 6], "seed {seed}: a block never lit (V, A1..A5)");
    }
}

// ---------------------------------------------------------------------
// A5 at the carpet-bomb shape. `extract_four_pass` above takes A5 from the
// live tracker, so this reference is separate: the attacker sets are
// rebuilt from the test's own op list, then the two-`HashSet` arithmetic
// `ClusteringTracker::coefficients` had before it kept overlaps as state.
// Frozen, like the block above.
// ---------------------------------------------------------------------

/// The tracker window `FeatureExtractor::new` configures.
const A5_WINDOW: u32 = 60;

/// Attacker sets of every customer with an incidence that `expire(expired_at)`
/// left alive, plus everything recorded since.
fn live_sets(ops: &[(u32, Subnet24, Ipv4)], expired_at: u32) -> BTreeMap<Ipv4, HashSet<Subnet24>> {
    let mut sets: BTreeMap<Ipv4, HashSet<Subnet24>> = BTreeMap::new();
    for &(minute, attacker, customer) in ops {
        if expired_at.saturating_sub(minute) <= A5_WINDOW {
            sets.entry(customer).or_default().insert(attacker);
        }
    }
    sets
}

fn reference_a5(sets: &BTreeMap<Ipv4, HashSet<Subnet24>>, customer: Ipv4) -> [f64; 3] {
    let Some(mine) = sets.get(&customer) else {
        return [0.0; 3];
    };
    let (mut dot, mut min, mut max) = (0.0f64, 0.0f64, 0.0f64);
    let mut peers = 0usize;
    for (other, theirs) in sets {
        if *other == customer {
            continue;
        }
        let inter = mine.intersection(theirs).count() as f64;
        let union = mine.union(theirs).count() as f64;
        let (a, b) = (mine.len() as f64, theirs.len() as f64);
        dot += inter / union;
        min += inter / a.min(b);
        max += inter / a.max(b);
        peers += 1;
    }
    if peers == 0 {
        return [0.0; 3];
    }
    let inv = 1.0 / peers as f64;
    [dot * inv, min * inv, max * inv]
}

/// `attack_storm`'s shape: every customer under alert at once, shared plus
/// private attacker /24s, written and read in the benchmark's order (all
/// writes of the minute, all extractions, then `expire`). Half the
/// customers fall silent early, so their edges die while their peers stay
/// active, and the run continues until the graph is empty.
#[test]
fn carpet_bomb_a5_matches_a_reference_rebuilt_from_the_op_list() {
    const CUSTOMERS: u32 = 36;
    const SHARED: u32 = 24;
    const START: u32 = 2000;
    let customer = |c: u32| Ipv4::from_octets(10, 0, c as u8, 1);
    let mut ex = FeatureExtractor::new();
    ex.spoof.ensure_built();
    let mut ops: Vec<(u32, Subnet24, Ipv4)> = Vec::new();
    let mut expired_at = 0u32;
    let (mut most_active, mut lit) = (0usize, 0usize);
    let mut shrank_while_peers_stayed = false;

    for minute in START..START + 90 {
        let m = minute - START;
        for c in 0..CUSTOMERS {
            // Odd customers are bombed for 10 minutes, even ones for 20.
            if m >= if c % 2 == 1 { 10 } else { 20 } {
                continue;
            }
            let mut writes = Vec::new();
            // The last customer only ever sees its own /24s: under alert,
            // active, overlapping nobody.
            if c != CUSTOMERS - 1 {
                writes.extend(
                    (0..SHARED)
                        .filter(|s| !(s + c + m).is_multiple_of(3))
                        .map(|s| Ipv4::from_octets(60, 1, s as u8, 0).subnet24()),
                );
            }
            // 0–3 private /24s, hit twice in the minute (multiplicity 2).
            for p in 0..c % 4 {
                let own = Ipv4::from_octets(61, c as u8, p as u8, 0).subnet24();
                writes.extend([own, own]);
            }
            for attacker in writes {
                ex.clustering.record(minute, attacker, customer(c));
                ops.push((minute, attacker, customer(c)));
            }
        }

        let sets = live_sets(&ops, expired_at);
        assert_eq!(ex.clustering.active_customers(), sets.len(), "minute {m}");
        for c in 0..CUSTOMERS {
            let bin = MinuteFlows {
                minute,
                customer: customer(c),
                flows: vec![],
            };
            let got = &ex.extract_shared(&bin).0[offsets::A5..];
            let want = reference_a5(&sets, customer(c));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "A5[{i}], customer {c}, minute {m}"
                );
            }
            lit += usize::from(got[0] > 0.0);
        }
        shrank_while_peers_stayed |= (1..most_active).contains(&sets.len());
        most_active = most_active.max(sets.len());

        ex.clustering.expire(minute);
        expired_at = minute;
    }
    assert_eq!(most_active, CUSTOMERS as usize);
    assert!(lit > 1000, "A5 lit on {lit} customer-minutes");
    assert!(shrank_while_peers_stayed);
    assert_eq!(ex.clustering.active_customers(), 0);
    assert_eq!(ex.clustering.edge_count(), 0);
    assert_eq!(ex.clustering.overlap_pairs(), 0);
}
