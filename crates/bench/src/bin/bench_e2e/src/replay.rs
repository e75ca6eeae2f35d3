//! The measured path: one closed minute from v5 bytes to alerts, through
//! the layers' public functions only.
//!
//! `parse_datagram` → `MinuteBinner::{push, advance_watermark}` → CDet feed
//! (`VolumeStore::record` + `NetScout::observe` on the six signature
//! channels) → tracker writes → `FeatureExtractor::extract_shared` → six
//! per-type `FleetDetector::step_minute_batch`. The tracker glue is
//! `pub(crate)` in `xatu_core::pipeline` (`handle_alert_event`,
//! `update_trackers`, `build_extractor`), so it is restated here, wired as
//! `run_scenario` and `run_faulted` wire it.

use crate::trace::{layer, Probe};
use crate::wire::WireMinute;
use std::collections::BTreeMap;
use xatu_core::eval::VolumeStore;
use xatu_core::{FleetDetector, FleetInput, XatuConfig, XatuModel};
use xatu_detectors::netscout::NetScout;
use xatu_detectors::traits::{Detector, DetectorEvent, MinuteObservation};
use xatu_features::blocklist::BlocklistCategory;
use xatu_features::{FeatureExtractor, FeatureFrame};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::{AttackType, Severity};
use xatu_netflow::binning::{MinuteBinner, MinuteFlows};
use xatu_netflow::record::FlowRecord;
use xatu_netflow::v5::parse_datagram;
use xatu_simnet::World;

/// Datagrams handed over per read, as `recvmmsg` would: decode a batch,
/// bin a batch.
pub const DGRAM_BATCH: usize = 64;
/// Serving threshold of every fleet: near the untrained model's resting
/// survival, so raise / quiet-end / force-end all fire (as `bench_fleet`).
pub const THRESHOLD: f64 = 0.9;
/// Fleet warm-up, as `bench_fleet`: short enough that alerts are live
/// before the first timed minute.
pub const FLEET_WARMUP: u32 = 8;
/// Minutes of CDet-feed silence before frames fall back to their
/// volumetric block, as `run_faulted`'s smoke configuration.
pub const CDET_SILENCE_LIMIT: u32 = 10;

/// Work counted at the layer boundaries. The pass runner takes them (and
/// so zeroes them) when the warm-up ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub datagrams: u64,
    pub parse_errors: u64,
    pub flows_decoded: u64,
    pub bins_released: u64,
    /// Released bins that were not this minute's bin of a present customer.
    pub stray_bins: u64,
    pub cdet_alerts_raised: u64,
    pub tracker_records: u64,
    pub flows_extracted: u64,
    pub customer_minutes: u64,
    pub fleet_events: u64,
    /// `step_minute_batch` calls that returned `Err`.
    pub fleet_errors: u64,
}

/// Everything between the exporter's bytes and the alerts, for one pass.
pub struct Stack {
    pub customers: Vec<Ipv4>,
    binner: MinuteBinner,
    volumes: VolumeStore,
    cdet: NetScout,
    /// Open CDet alerts with their peak signature volume. A `BTreeMap`
    /// because tracker upkeep iterates it with side effects.
    active: BTreeMap<(Ipv4, AttackType), f64>,
    extractor: FeatureExtractor,
    /// One fleet per `AttackType::ALL`, sharing the minute's frames.
    pub fleets: Vec<FleetDetector>,
    cdet_silence: u32,
    decoded: Vec<Vec<FlowRecord>>,

    // The closed minute, kept until the next one opens so the untimed
    // gates can read it; released at the top of the next `close_minute`,
    // inside its timed span.
    /// One bin per present customer, in customer order.
    pub bins: Vec<MinuteFlows>,
    /// Customer index of each bin.
    pub slots: Vec<usize>,
    /// Per customer: the frame the fleets saw, or `None` for a gap.
    pub frames: Vec<Option<FeatureFrame>>,
    /// This minute's fleet events, tagged with the fleet's type index.
    pub events: Vec<(usize, DetectorEvent)>,
    /// Σ `est_bytes` over this minute's released bins.
    pub released_est_bytes: u64,

    pub c: Counters,
    pub pending_max: usize,
    pub active_alerts_max: usize,
}

impl Stack {
    /// Builds the stack for `world`'s customers: extractor loaded with the
    /// world's blocklist feed and routed prefixes, volume store sized to
    /// `end_minute`, six seeded-but-untrained per-type fleets.
    pub fn new(world: &World, end_minute: u32) -> Self {
        let customers = world.customers().to_vec();
        assert!(
            customers.windows(2).all(|w| w[0] < w[1]),
            "customer addresses ascend with the customer index"
        );
        let xatu = XatuConfig::default();
        let mut extractor = FeatureExtractor::new();
        for (cat, subnet) in world.blocklist_feed() {
            extractor
                .blocklists
                .add(BlocklistCategory::ALL[cat], subnet);
        }
        for (prefix, asn) in world.routed_prefixes() {
            extractor.spoof.announce(prefix, asn);
        }
        extractor.spoof.build();
        extractor.mask = xatu.feature_mask;
        let fleets = AttackType::ALL
            .iter()
            .map(|&ty| new_fleet(ty, &xatu, &customers))
            .collect();
        Stack {
            frames: vec![None; customers.len()],
            customers,
            binner: MinuteBinner::new(),
            volumes: VolumeStore::new(end_minute),
            cdet: NetScout::new(),
            active: BTreeMap::new(),
            extractor,
            fleets,
            cdet_silence: u32::MAX,
            decoded: Vec::with_capacity(DGRAM_BATCH),
            bins: Vec::new(),
            slots: Vec::new(),
            events: Vec::new(),
            released_est_bytes: 0,
            c: Counters::default(),
            pending_max: 0,
            active_alerts_max: 0,
        }
    }

    /// Flows the binner dropped for arriving behind the watermark.
    pub fn late_drops(&self) -> u64 {
        self.binner.late_drops()
    }

    /// Closes one minute: every datagram of the minute in, every alert of
    /// the minute out. This is the span the end-to-end metrics time.
    pub fn close_minute<P: Probe>(&mut self, wire: &WireMinute, probe: &mut P) {
        let minute = wire.minute;
        let root = probe.begin(layer::MINUTE_CLOSE, minute);
        self.bins.clear();
        self.slots.clear();
        self.events.clear();
        self.frames.iter_mut().for_each(|f| *f = None);

        for batch in wire.datagrams.chunks(DGRAM_BATCH) {
            let s = probe.begin(layer::DECODE, minute);
            for dgram in batch {
                match parse_datagram(dgram) {
                    Ok(flows) => {
                        self.c.flows_decoded += flows.len() as u64;
                        self.decoded.push(flows);
                    }
                    Err(_) => self.c.parse_errors += 1,
                }
            }
            probe.end(s);
            let s = probe.begin(layer::BINNING, minute);
            for flows in self.decoded.drain(..) {
                for f in flows {
                    self.binner.push(f);
                }
            }
            probe.end(s);
        }
        self.c.datagrams += wire.datagrams.len() as u64;
        self.pending_max = self.pending_max.max(self.binner.pending());
        let s = probe.begin(layer::BINNING, minute);
        let released = self.binner.advance_watermark(minute + 1);
        probe.end(s);

        // Glue: one bin per present customer, in customer order. A present
        // customer without flows gets the empty bin `World::step` would
        // have handed over; a lost export stays a gap.
        let s = probe.begin(layer::GLUE, minute);
        self.c.bins_released += released.len() as u64;
        self.released_est_bytes = 0;
        let mut released = released.into_iter().peekable();
        for (g, &customer) in self.customers.iter().enumerate() {
            let bin = match released.peek() {
                Some(b) if b.customer == customer && b.minute == minute && wire.present[g] => {
                    released.next().expect("peeked")
                }
                _ if wire.present[g] => MinuteFlows {
                    minute,
                    customer,
                    flows: Vec::new(),
                },
                _ => continue,
            };
            self.released_est_bytes += bin.total_bytes();
            self.bins.push(bin);
            self.slots.push(g);
        }
        self.c.stray_bins += released.count() as u64;
        probe.end(s);

        let s = probe.begin(layer::CDET_FEED, minute);
        for bin in &self.bins {
            self.volumes.record(bin);
        }
        if wire.cdet_up {
            self.cdet_silence = 0;
            for bin in &self.bins {
                for ty in AttackType::ALL {
                    let obs = MinuteObservation {
                        minute,
                        customer: bin.customer,
                        attack_type: ty,
                        bytes: self.volumes.bytes_at(bin.customer, ty, minute),
                        packets: self.volumes.packets_at(bin.customer, ty, minute),
                    };
                    for ev in self.cdet.observe(&obs) {
                        handle_alert_event(
                            &ev,
                            minute,
                            &self.volumes,
                            &mut self.extractor,
                            &mut self.active,
                            &mut self.c,
                        );
                    }
                }
            }
        } else {
            self.cdet_silence = self.cdet_silence.saturating_add(1);
        }
        self.active_alerts_max = self.active_alerts_max.max(self.active.len());
        probe.end(s);

        let s = probe.begin(layer::TRACKERS, minute);
        for bin in &self.bins {
            update_trackers(
                &mut self.extractor,
                bin,
                &mut self.active,
                &self.volumes,
                &mut self.c,
            );
        }
        probe.end(s);

        let s = probe.begin(layer::EXTRACT, minute);
        self.extractor.spoof.ensure_built();
        let degrade = self.cdet_silence > CDET_SILENCE_LIMIT;
        for (bin, &g) in self.bins.iter().zip(&self.slots) {
            let mut frame = self.extractor.extract_shared(bin);
            if degrade {
                frame.degrade_to_volumetric();
            }
            self.frames[g] = Some(frame);
            self.c.flows_extracted += bin.flows.len() as u64;
        }
        probe.end(s);

        let frames = &self.frames;
        for (t, fleet) in self.fleets.iter_mut().enumerate() {
            let s = probe.begin(layer::FLEET, minute);
            match fleet.step_minute_batch(minute, 1, fill_from(frames)) {
                Ok(events) => {
                    self.c.fleet_events += events.len() as u64;
                    self.events.extend(events.iter().map(|e| (t, *e)));
                }
                Err(_) => self.c.fleet_errors += 1,
            }
            probe.end(s);
        }

        let s = probe.begin(layer::TRACKERS, minute);
        self.extractor.clustering.expire(minute);
        probe.end(s);
        self.c.customer_minutes += self.customers.len() as u64;
        probe.end(root);
    }
}

/// `pipeline::handle_alert_event` without the alert log: a raised CDet
/// alert registers active scrubbing, an ended one records its severity in
/// the attack history.
fn handle_alert_event(
    ev: &DetectorEvent,
    minute: u32,
    volumes: &VolumeStore,
    extractor: &mut FeatureExtractor,
    active: &mut BTreeMap<(Ipv4, AttackType), f64>,
    c: &mut Counters,
) {
    match ev {
        DetectorEvent::Raised(a) => {
            c.cdet_alerts_raised += 1;
            let peak = volumes.bytes_at(a.customer, a.attack_type, minute);
            active.insert((a.customer, a.attack_type), peak);
        }
        DetectorEvent::Ended(a) => {
            if let Some(peak) = active.remove(&(a.customer, a.attack_type)) {
                extractor.history.record(
                    a.customer,
                    a.attack_type,
                    Severity::of_peak_bytes_per_minute(peak),
                    minute,
                );
            }
        }
    }
}

/// `pipeline::update_trackers`, ungated (CDet alerts are volume triggered):
/// while an alert is open, every signature-matching source enters the
/// previous-attacker set and the clustering graph.
fn update_trackers(
    extractor: &mut FeatureExtractor,
    bin: &MinuteFlows,
    active: &mut BTreeMap<(Ipv4, AttackType), f64>,
    volumes: &VolumeStore,
    c: &mut Counters,
) {
    for ((customer, ty), peak) in active.iter_mut() {
        if *customer != bin.customer {
            continue;
        }
        let sig = ty.signature();
        let mut any = false;
        for f in bin.flows.iter().filter(|f| sig.matches(f)) {
            extractor
                .prev_attackers
                .record(*customer, f.src, bin.minute);
            extractor
                .clustering
                .record(bin.minute, f.src.subnet24(), *customer);
            c.tracker_records += 1;
            any = true;
        }
        if any {
            *peak = peak.max(volumes.bytes_at(*customer, *ty, bin.minute));
        }
    }
}

/// The fill callback every fleet gets: the customer's frame, or a gap.
pub fn fill_from(
    frames: &[Option<FeatureFrame>],
) -> impl Fn(usize, Ipv4, &mut [f64]) -> FleetInput + Sync + '_ {
    move |g, _addr, buf| match &frames[g] {
        Some(frame) => {
            buf.copy_from_slice(&frame.0);
            FleetInput::Frame
        }
        None => FleetInput::Gap,
    }
}

/// A seeded-but-untrained exact-backend fleet over `customers`.
pub fn new_fleet(ty: AttackType, xatu: &XatuConfig, customers: &[Ipv4]) -> FleetDetector {
    let mut fleet = FleetDetector::new(XatuModel::new(xatu), ty, THRESHOLD, xatu);
    fleet.set_warmup(FLEET_WARMUP);
    for &c in customers {
        fleet.add_customer(c);
    }
    fleet
}
