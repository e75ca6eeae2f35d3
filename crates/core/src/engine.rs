//! The streaming engine: sampled NetFlow in, alerts out, one minute at a
//! time (§5.3) — the one definition of a minute close, in two layers.
//!
//! * [`AuxFeed`] pairs the Table 1 extractor with the alerts currently
//!   scrubbing. Every write to the A2/A4/A5 trackers, every read of them
//!   and every expiry goes through it, so *when* auxiliary state changes is
//!   decided here and nowhere else.
//! * [`Engine`] composes the minute binner, the signature-volume store, a
//!   live CDet of the caller's choice on the six signature channels, an
//!   [`AuxFeed`] (CDet-fed, or self-fed from a hand-over minute:
//!   [`Engine::self_feed_from`]), the CDet-silence fallback and zero or
//!   more per-type [`FleetDetector`] heads over a fixed customer list.
//!   [`Engine::push_datagram`] takes exporter bytes; the close comes at two
//!   depths sharing one body — [`Engine::close_minute`] from the binner,
//!   [`Engine::close_bins`] from flows a source has already binned, as
//!   every period of the offline [`crate::pipeline`] does.
//!
//! Inside a close: CDet events, then tracker writes, then extraction, then
//! the heads (and, self-fed, their events), then expiry — each step reads
//! what the one before settled (DESIGN.md §19 gives the reasons). `present`
//! and `cdet_up` are facts of the minute only the source knows — a lost export is the same bytes as a
//! silent customer, a dead alert feed the same events as a quiet one — so
//! the engine is told, and does not guess.

use crate::error::XatuError;
use crate::eval::VolumeStore;
use crate::fleet::{FleetDetector, FleetInput};
use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use xatu_detectors::traits::{Detector, DetectorEvent};
use xatu_features::frame::FeatureFrame;
use xatu_features::table1::FeatureExtractor;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::{AttackType, Severity};
use xatu_netflow::binning::{MinuteBinner, MinuteFlows};
use xatu_netflow::record::FlowRecord;
use xatu_netflow::v5::{parse_datagram_into, V5Error};
use xatu_par::{resolve_threads, WorkerPool};

/// Minutes of CDet-feed silence tolerated before frames are served
/// volumetric-only: auxiliary trackers frozen by a dead alert feed must not
/// be passed off as live evidence.
pub const CDET_SILENCE_LIMIT: u32 = 10;

/// The auxiliary-signal feed: the feature extractor and the alerts whose
/// matching traffic is being recorded into its trackers.
#[derive(Clone)]
pub struct AuxFeed {
    extractor: FeatureExtractor,
    /// Open alerts, each with the peak signature volume seen while open.
    /// A `BTreeMap` because [`AuxFeed::track`] walks it with tracker side
    /// effects: the order is part of what resume must reproduce bit for bit.
    open: BTreeMap<(Ipv4, AttackType), f64>,
    pool: ExtractPool,
}

/// Fewest flows in a minute's bins for [`AuxFeed::extract`] to wake its
/// workers; smaller minutes are extracted inline. Waking two parked
/// workers costs ~15–30 µs on a 2-vCPU host, so a minute pays for it from
/// ~60 µs of inline work. Measured per call there: `default_eval(11)`'s
/// minutes (24 bins, 400–900 flows) take 87–127 µs inline and 62–120 µs
/// on two workers, while `smoke_test(3)`'s (6 bins, ~120 flows) take
/// 13–20 µs inline and 27–28 µs on two, its rare 400–500-flow minutes
/// 37–52 µs and 56–66 µs.
const POOLED_MIN_FLOWS: usize = 256;

/// The parked workers [`AuxFeed::extract`] fans a minute out on, grown on
/// the first minute big enough to use them. A forked feed starts with
/// none of its own.
#[derive(Default)]
struct ExtractPool(WorkerPool);

impl Clone for ExtractPool {
    fn clone(&self) -> Self {
        ExtractPool::default()
    }
}

impl AuxFeed {
    /// A feed over `extractor`, with no alert open.
    pub fn new(extractor: FeatureExtractor) -> Self {
        AuxFeed {
            extractor,
            open: BTreeMap::new(),
            pool: ExtractPool::default(),
        }
    }

    /// The extractor and its trackers, read-only.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Applies a detector lifecycle event — CDet's, or Xatu's own when it
    /// runs auto-regressively: a raised alert starts scrubbing (A2/A5
    /// recording, peak tracking), an ended one files its severity in the A4
    /// history.
    fn on_event(&mut self, ev: &DetectorEvent, minute: u32, volumes: &VolumeStore) {
        match ev {
            DetectorEvent::Raised(a) => {
                let peak = volumes.bytes_at(a.customer, a.attack_type, minute);
                self.open.insert((a.customer, a.attack_type), peak);
            }
            DetectorEvent::Ended(a) => {
                if let Some(peak) = self.open.remove(&(a.customer, a.attack_type)) {
                    self.extractor.history.record(
                        a.customer,
                        a.attack_type,
                        Severity::of_peak_bytes_per_minute(peak),
                        minute,
                    );
                }
            }
        }
    }

    /// Per-minute tracker upkeep for one bin: while an alert on the bin's
    /// customer is open, every source matching its signature enters the
    /// previous-attacker set and the clustering graph, and the alert's peak
    /// follows the volume (§5.1: "all sources of traffic matching the alert
    /// signature for the time from the CDet's alert to the CDet's
    /// mitigation-end notice"). CDet alerts are volume-triggered, so their
    /// matching traffic is predominantly attack traffic.
    fn track(&mut self, bin: &MinuteFlows, volumes: &VolumeStore) {
        self.track_if(bin, volumes, |_, _| true);
    }

    /// [`AuxFeed::track`] for alerts that are Xatu's own. An early alert
    /// can fire before — or without — an attack; if its matching-but-benign
    /// sources entered the previous-attacker set, A2 would light up on
    /// normal traffic and keep the alert alive, a runaway auto-regressive
    /// loop. So sources are recorded only on minutes whose signature volume
    /// is corroborated as anomalous ([`VolumeStore::is_anomalous`]).
    fn track_gated(&mut self, bin: &MinuteFlows, volumes: &VolumeStore) {
        self.track_if(bin, volumes, |customer, ty| {
            volumes.is_anomalous(customer, ty, bin.minute)
        });
    }

    fn track_if(
        &mut self,
        bin: &MinuteFlows,
        volumes: &VolumeStore,
        admit: impl Fn(Ipv4, AttackType) -> bool,
    ) {
        for (&(customer, ty), peak) in self.open.iter_mut() {
            if customer != bin.customer || !admit(customer, ty) {
                continue;
            }
            let sig = ty.signature();
            let mut any = false;
            for f in bin.flows.iter().filter(|f| sig.matches(f)) {
                self.extractor
                    .prev_attackers
                    .record(customer, f.src, bin.minute);
                self.extractor
                    .clustering
                    .record(bin.minute, f.src.subnet24(), customer);
                any = true;
            }
            if any {
                *peak = peak.max(volumes.bytes_at(customer, ty, bin.minute));
            }
        }
    }

    /// One frame per bin, in bin order, extracted from the trackers as they
    /// stand; identical for every thread count. A minute of at least 256
    /// flows fans out across `threads` parked workers the feed keeps from
    /// minute to minute; a smaller one costs less inline than waking them.
    fn extract<B>(&mut self, threads: usize, bins: &[B]) -> Vec<FeatureFrame>
    where
        B: Borrow<MinuteFlows> + Sync,
    {
        self.extractor.spoof.ensure_built();
        let flows: usize = bins.iter().map(|b| b.borrow().flows.len()).sum();
        let threads = if flows < POOLED_MIN_FLOWS { 1 } else { threads };
        let extractor = &self.extractor;
        self.pool.0.map(threads, bins, |_, bin| {
            extractor.extract_shared(bin.borrow())
        })
    }

    /// Ends `minute`: slides the A5 clustering window past it.
    fn expire(&mut self, minute: u32) {
        self.extractor.clustering.expire(minute);
    }
}

/// The `fill` that steps a head over one close's frames, `frames[g]`
/// belonging to `customers[g]` (ascending): the frame of a present
/// customer, a gap for an absent one, a skip for an address not in
/// `customers`. Heads are looked up by address, not by position, so one
/// that arrived with customers of its own still reads the right frame.
pub(crate) fn fill_from<'a>(
    customers: &'a [Ipv4],
    frames: &'a [Option<FeatureFrame>],
) -> impl Fn(usize, Ipv4, &mut [f64]) -> FleetInput + Sync + Copy + 'a {
    move |_, addr, buf| match customers.binary_search(&addr) {
        Err(_) => FleetInput::Skip,
        Ok(g) => match &frames[g] {
            Some(frame) => {
                buf.copy_from_slice(&frame.0);
                FleetInput::Frame
            }
            None => FleetInput::Gap,
        },
    }
}

/// What one closed minute produced.
#[derive(Clone, Debug, PartialEq)]
pub struct MinuteClose {
    /// Per customer, in [`Engine::customers`] order: the frame the heads
    /// were stepped on, or `None` where the customer was absent (a gap).
    pub frames: Vec<Option<FeatureFrame>>,
    /// True when the CDet feed has been silent past [`CDET_SILENCE_LIMIT`]
    /// and `frames` carry their volumetric block only.
    pub degraded: bool,
    /// The CDet's lifecycle events of the minute, in emission order.
    pub cdet_events: Vec<DetectorEvent>,
    /// The heads' lifecycle events of the minute, head by head, each tagged
    /// with its head's attack type.
    pub fleet_events: Vec<(AttackType, DetectorEvent)>,
    /// Bins that were dropped: for another minute, for an address that is
    /// not registered, for a customer the source reported absent, or a
    /// second bin for the same customer.
    pub stray_bins: usize,
}

/// Bytes in, alerts out: everything between an exporter's datagrams and the
/// per-type alert streams, for a fixed set of customers.
///
/// The engine does not checkpoint itself. Its heads do (each
/// [`FleetDetector`] has the XCK1 detector checkpoint); everything else —
/// binner, volumes, CDet, trackers — is a deterministic function of the
/// feed and is rebuilt by closing the same minutes again, or forked whole
/// by `Clone`.
#[derive(Clone)]
pub struct Engine {
    customers: Vec<Ipv4>,
    threads: usize,
    binner: MinuteBinner,
    /// Decode buffer, reused across datagrams.
    decoded: Vec<FlowRecord>,
    volumes: VolumeStore,
    cdet: Box<dyn Detector>,
    aux: AuxFeed,
    /// The hand-over minute of a self-fed feed; `None` while CDet-fed.
    self_fed_from: Option<u32>,
    /// Minutes since the CDet feed was last up; `u32::MAX` before the first
    /// contact.
    cdet_silence: u32,
    heads: Vec<FleetDetector>,
    /// The newest minute closed.
    closed: Option<u32>,
}

impl Engine {
    /// An engine over `customers` (kept sorted by address, duplicates
    /// dropped), whose `cdet` feeds `aux`, stepping `heads` — any number of
    /// per-type detectors, none included — on `threads` workers
    /// ([`crate::XatuConfig::threads`]: 0 means the environment's choice).
    /// Every customer is registered with every head; thresholds and warm-up
    /// are whatever the heads were given. The feed starts CDet-fed.
    pub fn new(
        customers: &[Ipv4],
        cdet: Box<dyn Detector>,
        aux: AuxFeed,
        mut heads: Vec<FleetDetector>,
        threads: usize,
    ) -> Self {
        let mut customers = customers.to_vec();
        customers.sort_unstable();
        customers.dedup();
        for head in &mut heads {
            for &c in &customers {
                head.add_customer(c);
            }
        }
        Engine {
            customers,
            threads: resolve_threads(threads),
            binner: MinuteBinner::new(),
            decoded: Vec::new(),
            volumes: VolumeStore::new(0),
            cdet,
            aux,
            self_fed_from: None,
            cdet_silence: u32::MAX,
            heads,
            closed: None,
        }
    }

    /// The registered customers, ascending by address: the index space of
    /// `present` and of [`MinuteClose::frames`].
    pub fn customers(&self) -> &[Ipv4] {
        &self.customers
    }

    /// The signature volumes recorded so far.
    pub fn volumes(&self) -> &VolumeStore {
        &self.volumes
    }

    /// The signature volumes recorded so far, the engine given up.
    pub fn into_volumes(self) -> VolumeStore {
        self.volumes
    }

    /// The auxiliary-signal feed.
    pub fn aux(&self) -> &AuxFeed {
        &self.aux
    }

    /// The per-type heads, in the order they were handed in.
    pub fn heads(&self) -> &[FleetDetector] {
        &self.heads
    }

    /// The per-type heads, to retune between closes.
    pub fn heads_mut(&mut self) -> &mut [FleetDetector] {
        &mut self.heads
    }

    /// The engine with its heads dropped.
    pub fn without_heads(mut self) -> Self {
        self.heads.clear();
        self
    }

    /// Self-feeds the auxiliary feed (§5.3): the CDet's events reach it
    /// only for minutes before `handover`, the heads' events every minute
    /// once they have stepped, and upkeep records a source only on a minute
    /// whose volume is anomalous ([`VolumeStore::is_anomalous`]). The
    /// trackers are kept and the open alerts forgotten: a CDet alert open
    /// now files no A4 severity when it ends.
    pub fn self_feed_from(&mut self, handover: u32) {
        self.self_fed_from = Some(handover);
        self.aux.open.clear();
    }

    /// Flows the binner has dropped for being stamped at or behind the
    /// newest closed minute.
    pub fn late_drops(&self) -> u64 {
        self.binner.late_drops()
    }

    /// Bins waiting in the binner for a minute that has not been closed.
    pub fn pending_bins(&self) -> usize {
        self.binner.pending()
    }

    /// Decodes one NetFlow v5 datagram into the minute binner and returns
    /// how many flows it carried. A datagram that does not parse is
    /// rejected whole and changes nothing. Flows stamped behind the last
    /// closed minute are dropped by the binner ([`Engine::late_drops`]);
    /// flows stamped ahead wait in it for their minute to be closed
    /// ([`Engine::pending_bins`]).
    pub fn push_datagram(&mut self, bytes: &[u8]) -> Result<usize, V5Error> {
        self.decoded.clear();
        let n = parse_datagram_into(bytes, &mut self.decoded)?;
        for &flow in &self.decoded {
            self.binner.push(flow);
        }
        Ok(n)
    }

    /// Closes `minute` over the flows pushed so far.
    ///
    /// `present[g]` says whether customer `g`'s export arrived: a present
    /// customer with no flows gets an empty bin, an absent one is a gap the
    /// heads impute. `cdet_up` says whether the CDet alert feed is live.
    /// Minutes must ascend; one at or before the newest closed minute is
    /// rejected with [`XatuError::OutOfOrderMinute`] and changes nothing. A
    /// head that rejects the minute (it was driven ahead of the engine) has
    /// its error returned after the rest of the close has completed.
    ///
    /// # Panics
    /// If `present` does not hold one flag per registered customer.
    pub fn close_minute(
        &mut self,
        minute: u32,
        present: &[bool],
        cdet_up: bool,
    ) -> Result<MinuteClose, XatuError> {
        self.check_ascending(minute)?;
        let released = self.binner.advance_watermark(minute.saturating_add(1));
        self.close(
            minute,
            released.into_iter().map(Cow::Owned),
            present,
            cdet_up,
        )
    }

    /// Closes `minute` over flows the source has already binned — what
    /// `World::step` and `FaultedWorld::step` hand over — bypassing the
    /// binner; otherwise exactly [`Engine::close_minute`]. Bins need no
    /// particular order. An engine is driven at one depth or the other,
    /// not both.
    pub fn close_bins(
        &mut self,
        minute: u32,
        bins: &[MinuteFlows],
        present: &[bool],
        cdet_up: bool,
    ) -> Result<MinuteClose, XatuError> {
        self.check_ascending(minute)?;
        self.close(minute, bins.iter().map(Cow::Borrowed), present, cdet_up)
    }

    /// Forces every open alert of every head to end at `minute` (end of a
    /// run), head by head.
    pub fn close_all(&mut self, minute: u32) -> Vec<(AttackType, DetectorEvent)> {
        let mut out = Vec::new();
        for head in &mut self.heads {
            let ty = head.attack_type();
            out.extend(head.close_all(minute).into_iter().map(|e| (ty, e)));
        }
        out
    }

    fn check_ascending(&self, minute: u32) -> Result<(), XatuError> {
        match self.closed {
            Some(last) if minute <= last => Err(XatuError::OutOfOrderMinute {
                // Every customer is driven on every close, so the first is
                // as out of order as any.
                customer: self.customers.first().copied().unwrap_or(Ipv4(0)),
                minute,
                last,
            }),
            _ => Ok(()),
        }
    }

    fn close<'a>(
        &mut self,
        minute: u32,
        released: impl Iterator<Item = Cow<'a, MinuteFlows>>,
        present: &[bool],
        cdet_up: bool,
    ) -> Result<MinuteClose, XatuError> {
        let n = self.customers.len();
        assert_eq!(
            present.len(),
            n,
            "one presence flag per registered customer"
        );
        self.closed = Some(minute);

        // Route: at most one bin per present customer, the rest are strays.
        let mut routed: Vec<Option<Cow<'a, MinuteFlows>>> = vec![None; n];
        let mut stray_bins = 0;
        for bin in released {
            let slot = self
                .customers
                .binary_search(&bin.customer)
                .ok()
                .filter(|&g| bin.minute == minute && present[g] && routed[g].is_none());
            match slot {
                Some(g) => routed[g] = Some(bin),
                None => stray_bins += 1,
            }
        }
        let mut slots = Vec::with_capacity(n);
        let mut bins = Vec::with_capacity(n);
        for (g, bin) in routed.into_iter().enumerate() {
            if present[g] {
                slots.push(g);
                bins.push(bin.unwrap_or_else(|| {
                    Cow::Owned(MinuteFlows {
                        minute,
                        customer: self.customers[g],
                        flows: Vec::new(),
                    })
                }));
            }
        }

        // CDet sees only what the collector delivered, on every signature
        // channel; its events open and end alerts before any tracker write.
        for bin in &bins {
            self.volumes.record(bin);
        }
        let self_fed = self.self_fed_from.is_some();
        let feed_cdet = self.self_fed_from.is_none_or(|h| minute < h);
        let mut cdet_events = Vec::new();
        if cdet_up {
            self.cdet_silence = 0;
            for bin in &bins {
                for obs in self.volumes.channels(bin.customer, minute) {
                    for ev in self.cdet.observe(&obs) {
                        if feed_cdet {
                            self.aux.on_event(&ev, minute, &self.volumes);
                        }
                        cdet_events.push(ev);
                    }
                }
            }
        } else {
            self.cdet_silence = self.cdet_silence.saturating_add(1);
        }
        for bin in &bins {
            if self_fed {
                self.aux.track_gated(bin, &self.volumes);
            } else {
                self.aux.track(bin, &self.volumes);
            }
        }

        let degraded = self.cdet_silence > CDET_SILENCE_LIMIT;
        let mut frames: Vec<Option<FeatureFrame>> = vec![None; n];
        for (mut frame, &g) in self
            .aux
            .extract(self.threads, &bins)
            .into_iter()
            .zip(&slots)
        {
            if degraded {
                frame.degrade_to_volumetric();
            }
            frames[g] = Some(frame);
        }

        let fill = fill_from(&self.customers, &frames);
        let mut fleet_events = Vec::new();
        let mut first_err = None;
        for head in &mut self.heads {
            let ty = head.attack_type();
            match head.step_minute_batch(minute, self.threads, fill) {
                Ok(events) => fleet_events.extend(events.iter().map(|e| (ty, *e))),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if self_fed {
            for (_, ev) in &fleet_events {
                self.aux.on_event(ev, minute, &self.volumes);
            }
        }

        self.aux.expire(minute);
        match first_err {
            Some(e) => Err(e),
            None => Ok(MinuteClose {
                frames,
                degraded,
                cdet_events,
                fleet_events,
                stray_bins,
            }),
        }
    }
}
