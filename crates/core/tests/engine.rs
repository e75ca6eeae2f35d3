//! The streaming engine at its boundaries: exporter bytes against binned
//! flows, hostile datagrams, rejected minutes, heads against no heads, and
//! the A5 window the hand-wired drivers forgot to slide.

use xatu_core::config::XatuConfig;
use xatu_core::engine::{AuxFeed, Engine, MinuteClose};
use xatu_core::fleet::{FleetDetector, FleetInput};
use xatu_core::model::XatuModel;
use xatu_core::pipeline::world_extractor;
use xatu_core::XatuError;
use xatu_detectors::netscout::NetScout;
use xatu_detectors::traits::DetectorEvent;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_netflow::binning::MinuteFlows;
use xatu_netflow::record::FlowRecord;
use xatu_netflow::v5::{encode_datagram, V5Error, MAX_RECORDS, RECORD_LEN};
use xatu_simnet::faults::MinuteDelivery;
use xatu_simnet::{compose, FaultSchedule, FaultedWorld, ScenarioFamily, World, WorldConfig};

/// A one-day, four-customer world, as `tests/fault_tolerance.rs` uses.
fn day_world(seed: u64) -> World {
    World::new(WorldConfig {
        n_customers: 4,
        days: 1,
        ..WorldConfig::smoke_test(seed)
    })
}

/// A seeded-but-untrained head serving near the model's resting survival
/// with a short warm-up, so raises, quiet ends and force-ends all fire.
fn head(ty: AttackType, xatu: &XatuConfig) -> FleetDetector {
    let mut head = FleetDetector::new(XatuModel::new(xatu), ty, 0.9, xatu);
    head.set_warmup(8);
    head
}

fn engine(world: &World, types: &[AttackType], threads: usize) -> Engine {
    let xatu = XatuConfig::smoke_test();
    Engine::new(
        world.customers(),
        Box::new(NetScout::new()),
        AuxFeed::new(world_extractor(world, &xatu)),
        types.iter().map(|&ty| head(ty, &xatu)).collect(),
        threads,
    )
}

/// The minute's flows as an exporter would send them: bin order, grouped
/// by sampling rate (first appearance first) since a v5 header carries one.
fn wire_order(d: &MinuteDelivery) -> Vec<FlowRecord> {
    let flows: Vec<FlowRecord> = d.bins.iter().flat_map(|b| &b.flows).copied().collect();
    let mut rates: Vec<u32> = Vec::new();
    for f in &flows {
        assert!(
            (1..=0x3FFF).contains(&f.sampling),
            "rate outside 14 bits: {f:?}"
        );
        if !rates.contains(&f.sampling) {
            rates.push(f.sampling);
        }
    }
    rates
        .iter()
        .flat_map(|&rate| flows.iter().filter(move |f| f.sampling == rate).copied())
        .collect()
}

/// [`wire_order`] cut into datagrams of at most 30 records of one rate.
fn encode_minute(d: &MinuteDelivery, sequence: &mut u32) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for run in wire_order(d).chunk_by(|a, b| a.sampling == b.sampling) {
        for chunk in run.chunks(MAX_RECORDS) {
            out.push(encode_datagram(chunk, *sequence, chunk[0].sampling as u16));
            *sequence = sequence.wrapping_add(chunk.len() as u32);
        }
    }
    out
}

/// What a binner makes of [`wire_order`]: per customer the on-time flows in
/// wire order; flows delivered late, still stamped with their own minute,
/// are behind the watermark and dropped.
fn as_binned(d: &MinuteDelivery) -> Vec<MinuteFlows> {
    let wire = wire_order(d);
    d.bins
        .iter()
        .map(|bin| MinuteFlows {
            minute: d.minute,
            customer: bin.customer,
            flows: wire
                .iter()
                .filter(|f| f.dst == bin.customer && f.minute == d.minute)
                .copied()
                .collect(),
        })
        .collect()
}

/// Everything a close returns except the stray count, floats as bits.
type CloseBits = (
    Vec<Option<Vec<u64>>>,
    bool,
    Vec<DetectorEvent>,
    Vec<(AttackType, DetectorEvent)>,
);

fn bits(c: &MinuteClose) -> CloseBits {
    let frames = c
        .frames
        .iter()
        .map(|f| {
            f.as_ref()
                .map(|f| f.0.iter().map(|v| v.to_bits()).collect())
        })
        .collect();
    (
        frames,
        c.degraded,
        c.cdet_events.clone(),
        c.fleet_events.clone(),
    )
}

#[test]
fn bytes_and_bins_close_identically_at_1_and_4_threads() {
    let world = day_world(11);
    let schedule = FaultSchedule::builtin("everything", world.total_minutes(), 4).expect("builtin");
    let types = [AttackType::UdpFlood, AttackType::TcpSyn];
    let mut from_bytes = [engine(&world, &types, 1), engine(&world, &types, 4)];
    let mut from_bins = [engine(&world, &types, 1), engine(&world, &types, 4)];
    let mut fw = FaultedWorld::new(world, schedule);
    let mut sequence = 0;
    let (mut late, mut gaps, mut events) = (0usize, 0usize, 0usize);
    while !fw.finished() {
        let d = fw.step();
        let datagrams = encode_minute(&d, &mut sequence);
        let binned = as_binned(&d);
        late += d
            .bins
            .iter()
            .flat_map(|b| &b.flows)
            .filter(|f| f.minute < d.minute)
            .count();
        let mut closes = Vec::new();
        for e in &mut from_bytes {
            for dgram in &datagrams {
                e.push_datagram(dgram).expect("own encoding parses");
            }
            closes.push(
                e.close_minute(d.minute, &d.present, d.cdet_up)
                    .expect("close"),
            );
        }
        for e in &mut from_bins {
            closes.push(
                e.close_bins(d.minute, &binned, &d.present, d.cdet_up)
                    .expect("close"),
            );
        }
        assert_eq!(closes[0].stray_bins, 0, "minute {}", d.minute);
        for other in &closes[1..] {
            assert_eq!(bits(&closes[0]), bits(other), "minute {}", d.minute);
        }
        gaps += closes[0].frames.iter().filter(|f| f.is_none()).count();
        events += closes[0].cdet_events.len() + closes[0].fleet_events.len();
    }
    // The schedule exercised what it is there for.
    assert!(
        late > 0 && gaps > 0 && events > 0,
        "{late} late, {gaps} gaps, {events} events"
    );
    // Every late flow was dropped by a binner and counted; bins bypass it.
    for (bytes, bins) in from_bytes.iter().zip(&from_bins) {
        assert_eq!((bytes.late_drops(), bins.late_drops()), (late as u64, 0));
        assert_eq!((bytes.pending_bins(), bins.pending_bins()), (0, 0));
    }
}

/// xorshift64*.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn hostile_datagrams_are_rejected_whole_and_change_nothing() {
    let mut world = day_world(17);
    let present = [true; 4];
    let mut clean = engine(&world, &[AttackType::UdpFlood], 1);
    let mut hostile = engine(&world, &[AttackType::UdpFlood], 1);
    let victim = world.customers()[0];
    let far = 70_000; // still inside the v5 millisecond clock
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut sequence = 0;
    for _ in 0..180 {
        let bins = world.step();
        let minute = bins[0].minute;
        let d = MinuteDelivery {
            minute,
            bins,
            present: present.to_vec(),
            cdet_up: true,
        };
        let datagrams = encode_minute(&d, &mut sequence);
        let valid = datagrams.first().expect("benign traffic every minute");
        let template = wire_order(&d)[0];

        let mut wrong_version = valid.clone();
        wrong_version[1] = 9;
        let mut overcounted = valid.clone();
        overcounted[3] += 1;
        let random: Vec<u8> = (0..next(&mut rng) % 200)
            .map(|_| next(&mut rng) as u8)
            .collect();
        for (bad, want) in [
            (&valid[..10], Some(V5Error::TooShort)),
            (&valid[..valid.len() - RECORD_LEN / 2], None),
            (&wrong_version[..], Some(V5Error::BadVersion(9))),
            (&overcounted[..], None),
            (&random[..], None),
        ] {
            let got = hostile
                .push_datagram(bad)
                .expect_err("hostile datagram accepted");
            assert!(want.is_none_or(|w| w == got), "{got:?}");
        }
        // Well-formed, but stamped far ahead of the feed — for a customer
        // and for an address nobody registered — and, every tenth minute,
        // an on-time flow for that unregistered address.
        let ahead = [victim, Ipv4(1)].map(|dst| FlowRecord {
            minute: far,
            dst,
            ..template
        });
        assert_eq!(hostile.push_datagram(&encode_datagram(&ahead, 0, 1)), Ok(2));
        // Well-formed, but stamped at the minute closed last: dropped, and
        // counted.
        if let Some(closed) = minute.checked_sub(1) {
            let late = FlowRecord {
                minute: closed,
                dst: victim,
                ..template
            };
            let before = hostile.late_drops();
            assert_eq!(
                hostile.push_datagram(&encode_datagram(&[late], 0, 1)),
                Ok(1)
            );
            assert_eq!(hostile.late_drops(), before + 1);
        }
        let unregistered = minute.is_multiple_of(10);
        if unregistered {
            let stray = FlowRecord {
                dst: Ipv4(1),
                ..template
            };
            assert_eq!(
                hostile.push_datagram(&encode_datagram(&[stray], 0, 1)),
                Ok(1)
            );
        }

        for dgram in &datagrams {
            let n = clean.push_datagram(dgram).expect("valid");
            assert_eq!(hostile.push_datagram(dgram), Ok(n));
        }
        let a = clean.close_minute(minute, &present, true).expect("close");
        let b = hostile.close_minute(minute, &present, true).expect("close");
        assert_eq!(bits(&a), bits(&b), "minute {minute}");
        assert_eq!((a.stray_bins, b.stray_bins), (0, usize::from(unregistered)));
    }
    for ty in AttackType::ALL {
        assert_eq!(hostile.volumes().bytes_at(victim, ty, far), 0.0);
    }
    // The flows stamped ahead are still waiting, one bin per address.
    assert_eq!((clean.late_drops(), clean.pending_bins()), (0, 0));
    assert_eq!(hostile.pending_bins(), 2);
}

#[test]
fn a_rejected_minute_is_an_error_and_the_next_one_closes() {
    let mut world = day_world(19);
    let present = [true; 4];
    let xatu = XatuConfig::smoke_test();
    // A head that was driven to minute 2 before the engine got it.
    let mut ahead = head(AttackType::UdpFlood, &xatu);
    for &c in world.customers() {
        ahead.add_customer(c);
    }
    ahead
        .step_minute_batch(2, 1, |_, _, _| FleetInput::Gap)
        .expect("fresh head");
    let mut with_head = Engine::new(
        world.customers(),
        Box::new(NetScout::new()),
        AuxFeed::new(world_extractor(&world, &xatu)),
        vec![ahead],
        1,
    );
    let mut headless = engine(&world, &[], 1);

    for minute in 0..6 {
        let bins = world.step();
        let want = headless
            .close_bins(minute, &bins, &present, true)
            .expect("close");
        match with_head.close_bins(minute, &bins, &present, true) {
            // The head's error comes back, and the engine's own state has
            // moved on regardless: minute 3 closes on the same frames.
            Err(XatuError::OutOfOrderMinute { last: 2, .. }) => assert!(minute <= 2),
            Ok(got) => {
                assert!(minute > 2);
                assert_eq!(got.frames, want.frames);
            }
            Err(e) => panic!("minute {minute}: {e}"),
        }
        // The engine's own clock: a minute at or before the newest closed
        // one is rejected before it touches anything.
        for stale in [minute, minute.saturating_sub(1)] {
            let err = headless
                .close_bins(stale, &bins, &present, true)
                .unwrap_err();
            assert_eq!(
                err,
                XatuError::OutOfOrderMinute {
                    customer: world.customers()[0],
                    minute: stale,
                    last: minute
                }
            );
        }
    }
}

#[test]
fn heads_do_not_change_the_frames() {
    let mut world = day_world(23);
    let present = [true; 4];
    let mut headless = engine(&world, &[], 1);
    let mut six = engine(&world, &AttackType::ALL, 1);
    let mut fleet_events = 0;
    for minute in 0..240 {
        let bins = world.step();
        let a = headless
            .close_bins(minute, &bins, &present, true)
            .expect("close");
        let b = six
            .close_bins(minute, &bins, &present, true)
            .expect("close");
        assert!(a.fleet_events.is_empty());
        assert_eq!(
            (&a.frames, &a.cdet_events),
            (&b.frames, &b.cdet_events),
            "minute {minute}"
        );
        fleet_events += b.fleet_events.len();
    }
    assert!(fleet_events > 0);
}

#[test]
fn the_a5_window_slides_once_cdet_alerts_are_old() {
    // A carpet bomb opens CDet alerts on several customers at once, so the
    // clustering graph gains edges; 61 minutes after the last of them
    // closed, the 60-minute window must hold none. (`run_scenario` and
    // `run_faulted` used to hold 1704 to the end of the run.)
    let mut world = compose(ScenarioFamily::CarpetBomb, &WorldConfig::smoke_test(9)).world;
    let mut e = engine(&world, &[], 1);
    let present = vec![true; e.customers().len()];
    let (mut open, mut last_end, mut peak_edges) = (0i64, 0, 0);
    let mut checked = 0;
    while !world.finished() {
        let minute = world.minute();
        let closed = e
            .close_bins(minute, &world.step(), &present, true)
            .expect("close");
        for ev in &closed.cdet_events {
            match ev {
                DetectorEvent::Raised(_) => open += 1,
                DetectorEvent::Ended(_) => {
                    open -= 1;
                    last_end = minute;
                }
            }
        }
        let edges = e.aux().extractor().clustering.edge_count();
        peak_edges = peak_edges.max(edges);
        if peak_edges > 0 && open == 0 && minute >= last_end + 61 {
            assert_eq!(
                edges, 0,
                "minute {minute}, last CDet alert ended at {last_end}"
            );
            checked += 1;
        }
    }
    assert!(
        peak_edges > 0 && checked > 0,
        "{peak_edges} edges at peak, {checked} minutes checked"
    );
}

/// Self-feeding forgets the alerts open in the feed when it starts. The
/// pipeline's test run starts it at the validation/test boundary, so a
/// CDet alert open there files no A4 severity when it ends, although the
/// CDet's events still reach the feed until the hand-over. Whether that
/// stays is decided where the served paths switch to self-fed.
#[test]
fn self_feeding_forgets_the_cdet_alerts_open_when_it_starts() {
    let mut world = compose(ScenarioFamily::CarpetBomb, &WorldConfig::smoke_test(9)).world;
    let mut cdet_fed = engine(&world, &[], 1);
    let present = vec![true; cdet_fed.customers().len()];
    let opened = loop {
        let minute = world.minute();
        let closed = cdet_fed
            .close_bins(minute, &world.step(), &present, true)
            .expect("close");
        if let Some(DetectorEvent::Raised(a)) = closed.cdet_events.first() {
            break *a;
        }
    };
    let mut self_fed = cdet_fed.clone();
    self_fed.self_feed_from(u32::MAX);
    let key = (opened.customer, opened.attack_type);
    let ended = loop {
        let minute = world.minute();
        let bins = world.step();
        let a = cdet_fed
            .close_bins(minute, &bins, &present, true)
            .expect("close");
        let b = self_fed
            .close_bins(minute, &bins, &present, true)
            .expect("close");
        assert_eq!(a.cdet_events, b.cdet_events, "one CDet, forked");
        if a.cdet_events
            .iter()
            .any(|ev| matches!(ev, DetectorEvent::Ended(e) if (e.customer, e.attack_type) == key))
        {
            break minute;
        }
    };
    let filed = |e: &Engine| {
        e.aux()
            .extractor()
            .history
            .last_attack_type(opened.customer)
    };
    assert_eq!(
        filed(&cdet_fed),
        Some(opened.attack_type),
        "the CDet-fed feed files the alert raised at {} and ended at {ended}",
        opened.detected_at
    );
    assert_eq!(filed(&self_fed), None, "the self-fed feed forgot it");
}

/// A known fault, pinned: the served path never prunes the A2 sets.
/// `FeatureExtractor::new` builds `PrevAttackerTracker` without a
/// retention horizon and nothing on the engine's path calls `prune`, so
/// every /24 that matched an alert's signature stays a previous attacker
/// of that customer for as long as the engine runs. Bounding it moves
/// frames; when it is bounded, this test is the one to change.
#[test]
fn an_alerted_customers_a2_set_never_shrinks_after_the_alert_ends() {
    let mut world = compose(ScenarioFamily::CarpetBomb, &WorldConfig::smoke_test(9)).world;
    let mut e = engine(&world, &[], 1);
    let customers = e.customers().to_vec();
    let present = vec![true; customers.len()];
    let a2 = |e: &Engine| -> Vec<usize> {
        let tracker = &e.aux().extractor().prev_attackers;
        customers
            .iter()
            .map(|&c| tracker.attacker_count(c))
            .collect()
    };
    let mut last = a2(&e);
    let mut ended: Vec<(Ipv4, u32, usize)> = Vec::new();
    let mut minute = 0;
    while !world.finished() {
        minute = world.minute();
        let closed = e
            .close_bins(minute, &world.step(), &present, true)
            .expect("close");
        let now = a2(&e);
        for (c, (&before, &after)) in customers.iter().zip(last.iter().zip(&now)) {
            assert!(after >= before, "{c}'s A2 set shrank at minute {minute}");
        }
        for ev in &closed.cdet_events {
            if let DetectorEvent::Ended(a) = ev {
                let at = customers.iter().position(|&c| c == a.customer);
                ended.push((a.customer, minute, at.map_or(0, |i| now[i])));
            }
        }
        last = now;
    }
    // The alert that ended first: its set was non-empty then and is at
    // least that size at the end of the run, days after the window of any
    // other tracker has slid past it.
    let &(customer, at, size) = ended.first().expect("a CDet alert ended");
    let end = customers
        .iter()
        .position(|&c| c == customer)
        .map(|i| last[i]);
    assert!(
        size > 0,
        "{customer}'s alert ended at {at} with an empty set"
    );
    assert!(
        end >= Some(size),
        "{customer}: {size} at minute {at}, {end:?} at {minute}"
    );
    assert!(
        minute >= at + 24 * 60,
        "the run ends a day after the alert ({at} -> {minute})"
    );
}
