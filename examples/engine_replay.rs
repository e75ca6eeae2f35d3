//! Running Xatu on a feed: NetFlow v5 datagrams in, per-type alerts out.
//!
//! ```text
//! cargo run --release --example engine_replay
//! ```
//!
//! A seeded smoke world stands in for the exporter: each minute's flows are
//! encoded as v5 datagrams, pushed into an [`Engine`] with one head per
//! attack type, and the minute is closed. The heads are untrained and serve
//! near their resting survival, so the alert lifecycle shows without a
//! training run; swap the world for a socket and the models for trained
//! ones (`Pipeline::prepare().models`), and this is the deployment loop.

use xatu::core::checkpoint::fnv1a64;
use xatu::core::engine::{AuxFeed, Engine};
use xatu::core::pipeline::world_extractor;
use xatu::core::{FleetDetector, XatuConfig, XatuModel};
use xatu::detectors::netscout::NetScout;
use xatu::detectors::traits::DetectorEvent;
use xatu::netflow::attack::AttackType;
use xatu::netflow::v5::{encode_datagram, MAX_RECORDS};
use xatu::simnet::{World, WorldConfig};

fn main() {
    let mut world = World::new(WorldConfig::smoke_test(9));
    let xatu = XatuConfig::smoke_test();
    let heads = AttackType::ALL.map(|ty| {
        let seed = ty.index() as u64; // a different untrained model per type
        FleetDetector::new(XatuModel::new(&XatuConfig { seed, ..xatu }), ty, 0.9, &xatu)
    });
    let aux = AuxFeed::new(world_extractor(&world, &xatu));
    let mut engine = Engine::new(
        world.customers(),
        Box::new(NetScout::new()),
        aux,
        heads.into(),
        xatu.threads,
    );
    let present = vec![true; engine.customers().len()];
    let sampling = world.config().sampling_rate as u16;

    let (mut raised, mut stream) = ([0usize; 7], Vec::new());
    while !world.finished() {
        let minute = world.minute();
        let flows: Vec<_> = world.step().into_iter().flat_map(|bin| bin.flows).collect();
        for (i, chunk) in flows.chunks(MAX_RECORDS).enumerate() {
            let dgram = encode_datagram(chunk, (i * MAX_RECORDS) as u32, sampling);
            engine.push_datagram(&dgram).expect("own encoding parses");
        }
        let closed = engine
            .close_minute(minute, &present, true)
            .expect("minutes ascend");
        // The CDet's events (slot 6), then each head's, into one stream.
        let cdet = closed.cdet_events.iter().map(|ev| (6, ev));
        let fleet = closed.fleet_events.iter().map(|(ty, ev)| (ty.index(), ev));
        for (slot, ev) in cdet.chain(fleet) {
            let (kind, a) = match ev {
                DetectorEvent::Raised(a) => (1u32, a),
                DetectorEvent::Ended(a) => (2, a),
            };
            raised[slot] += usize::from(kind == 1);
            for word in [kind, slot as u32, a.customer.0, a.detected_at, minute] {
                stream.extend(word.to_le_bytes());
            }
        }
    }
    println!(
        "{} minutes, {} customers, {} CDet alerts",
        world.minute(),
        present.len(),
        raised[6]
    );
    for ty in AttackType::ALL {
        println!("  {:>8}: {} alerts", ty.label(), raised[ty.index()]);
    }
    println!("event digest {:016x}", fnv1a64(&stream));
}
