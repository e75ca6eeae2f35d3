//! The streaming, auto-regressive Xatu detector.
//!
//! One [`OnlineDetector`] instance serves one attack type across all
//! customers, one customer-minute per call. It is the per-address
//! front-end of the detector core (`crate::detector`): each customer is
//! one row of the same arenas [`crate::fleet::FleetDetector`] batches
//! over — three dual LSTM states, an open medium/long pooling bucket and a
//! rolling survival ring over the last `window` hazards — driven through
//! the core's scalar row path. An alert is raised when the rolling
//! survival drops below the calibrated threshold and ends after it has
//! recovered for a quiet period — the "consistent detection" behaviour
//! §4.2 asks for. What this front-end adds is the optional unsupervised
//! [`Companion`], fused into the reported survival before the alert
//! lifecycle acts on it.
//!
//! Auto-regression (§5.3): the pipeline feeds every alert this detector
//! raises back into the A2/A4/A5 trackers of the feature extractor it is
//! served features from.
//!
//! # Degraded input
//!
//! Real collectors drop minutes, deliver flows late, and occasionally emit
//! garbage. The detector's contract under degradation:
//!
//! * **Out-of-order minutes are rejected**, never silently absorbed —
//!   [`OnlineDetector::observe`] returns
//!   [`XatuError::OutOfOrderMinute`](crate::error::XatuError) and leaves
//!   the customer's state untouched.
//! * **Short gaps are imputed** by zero-order hold: each missing minute
//!   replays the customer's last sanitized frame so LSTM clocks, pooling
//!   buckets and the survival window stay aligned with wall time.
//! * **Staleness widens uncertainty.** Every imputed minute grows a
//!   per-customer stale run; the reported survival is blended toward 1.0
//!   (no evidence of attack) as the run approaches the survival window, and
//!   *new* alerts are suppressed once the input is fully stale. An open
//!   alert can still end — a scrubbing centre must not hold traffic on
//!   evidence that no longer exists.
//! * **Long gaps cold-restart the customer**: beyond `3 × window` missing
//!   minutes the imputation would be fiction, so the state is rebuilt from
//!   scratch (ending any open alert) and warm-up runs again.
//! * **Non-finite feature values are zeroed** on ingestion, before they
//!   can poison the LSTM cell state; every replacement is counted.

use crate::checkpoint::DetectorCheckpoint;
use crate::config::XatuConfig;
use crate::detector::{
    observe_row, push_row, restore, Common, Hook, Ledger, Net, Numeric, RowScratch, Shard, Solo,
};
use crate::error::XatuError;
use crate::fusion::{fuse, ErrorNormalizer};
use crate::model::XatuModel;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::simd::SimdLevel;
use xatu_nn::{AeWorkspace, FrameArena, LstmAutoencoder};
use xatu_obs::{Counter, FixedHistogram, GAP_RUN_BOUNDS, SURVIVAL_BOUNDS};

/// Telemetry embedded in the detector hot path.
///
/// Plain counters and fixed-bucket histograms — one integer add (plus one
/// float compare chain per histogram) per observation, no locks, no
/// allocation, compiled out entirely without the `obs` feature. Alert
/// lifecycle counts and the survival distribution are functions of the
/// seeded input stream alone, so they are digest-safe when folded into a
/// [`xatu_obs::Registry`].
#[derive(Clone, Debug)]
pub struct DetectorObs {
    /// Alerts raised.
    pub raised: Counter,
    /// Alerts ended for any reason (includes force-ends; `close_all` ends
    /// are counted separately by the caller if needed).
    pub ended: Counter,
    /// Alerts ended *because* they hit `max_alert_minutes`.
    pub force_ended: Counter,
    /// Observations swallowed by per-customer warm-up suppression.
    pub warmup_suppressed: Counter,
    /// Distribution of rolling survival values over every observation.
    pub survival: FixedHistogram,
    /// Missing minutes filled by zero-order-hold imputation.
    pub gaps_imputed: Counter,
    /// Non-finite feature values zeroed on ingestion.
    pub values_sanitized: Counter,
    /// Out-of-order minutes rejected.
    pub out_of_order: Counter,
    /// Customer states rebuilt after a gap too long to impute.
    pub cold_restarts: Counter,
    /// Distribution of gap-run lengths (imputed or skipped minutes).
    pub gap_runs: FixedHistogram,
    /// Degradation-ladder transitions into companion-weighted fusion
    /// (the CDet feed went dark with a companion attached).
    pub fusion_engaged: Counter,
    /// Transitions back out of full companion weight (feed recovery
    /// started a re-warm-up ramp).
    pub fusion_recovered: Counter,
    /// Minutes whose reported survival actually included the companion's
    /// reconstruction score (ring full, companion attached).
    pub fusion_ae_minutes: Counter,
}

impl Default for DetectorObs {
    fn default() -> Self {
        DetectorObs {
            raised: Counter::new(),
            ended: Counter::new(),
            force_ended: Counter::new(),
            warmup_suppressed: Counter::new(),
            survival: FixedHistogram::new(SURVIVAL_BOUNDS),
            gaps_imputed: Counter::new(),
            values_sanitized: Counter::new(),
            out_of_order: Counter::new(),
            cold_restarts: Counter::new(),
            gap_runs: FixedHistogram::new(GAP_RUN_BOUNDS),
            fusion_engaged: Counter::new(),
            fusion_recovered: Counter::new(),
            fusion_ae_minutes: Counter::new(),
        }
    }
}

impl DetectorObs {
    /// Adds another recorder's counts into this one. The fleet detector's
    /// workers each record into their own `DetectorObs` and fold into the
    /// detector's aggregate in shard order after every batch; counter adds
    /// and bucket-wise histogram merges are order-independent, so the
    /// aggregate is identical for every thread count.
    pub fn merge_from(&mut self, other: &DetectorObs) {
        self.raised.add(other.raised.get());
        self.ended.add(other.ended.get());
        self.force_ended.add(other.force_ended.get());
        self.warmup_suppressed.add(other.warmup_suppressed.get());
        self.survival.merge(&other.survival);
        self.gaps_imputed.add(other.gaps_imputed.get());
        self.values_sanitized.add(other.values_sanitized.get());
        self.out_of_order.add(other.out_of_order.get());
        self.cold_restarts.add(other.cold_restarts.get());
        self.gap_runs.merge(&other.gap_runs);
        self.fusion_engaged.add(other.fusion_engaged.get());
        self.fusion_recovered.add(other.fusion_recovered.get());
        self.fusion_ae_minutes.add(other.fusion_ae_minutes.get());
    }

    /// Zeroes every counter and histogram in place, keeping allocations,
    /// so a per-worker recorder can be reused without allocating.
    pub fn reset(&mut self) {
        self.raised.reset();
        self.ended.reset();
        self.force_ended.reset();
        self.warmup_suppressed.reset();
        self.survival.reset();
        self.gaps_imputed.reset();
        self.values_sanitized.reset();
        self.out_of_order.reset();
        self.cold_restarts.reset();
        self.gap_runs.reset();
        self.fusion_engaged.reset();
        self.fusion_recovered.reset();
        self.fusion_ae_minutes.reset();
    }
}

/// The unsupervised reconstruction companion attached to a detector.
///
/// A trained [`LstmAutoencoder`] over the volumetric feature block (width
/// [`VOLUMETRIC_WIDTH`]) plus its benign-error calibration; [`fuse`]
/// combines its score with the survival score. The companion never sees
/// auxiliary features, so its score is unaffected when the CDet feed drops
/// — the degradation ladder shifts weight onto it instead of falling back
/// to volumetric-only thresholds.
#[derive(Clone, Debug)]
pub struct Companion {
    /// The trained autoencoder (`input_dim` must be [`VOLUMETRIC_WIDTH`]).
    pub ae: LstmAutoencoder,
    /// Benign-quantile reconstruction-error normalizer.
    pub norm: ErrorNormalizer,
    /// Window length (minutes) the autoencoder scores over.
    pub window: usize,
}

/// One customer's companion window: the last `window` volumetric slices
/// of the stream its LSTMs saw, real and imputed minutes alike.
#[derive(Clone)]
struct Ring {
    /// `window × VOLUMETRIC_WIDTH`, flat.
    buf: Vec<f64>,
    /// Next write slot (frame index, not scalar offset).
    head: usize,
    /// Frames written so far, saturating at the companion window.
    filled: usize,
}

impl Ring {
    fn new(window: usize) -> Self {
        Ring {
            buf: vec![0.0; window * VOLUMETRIC_WIDTH],
            head: 0,
            filled: 0,
        }
    }
}

/// The fusion hook for one row: the trained companion, that customer's
/// ring and the detector's shared scratch.
struct Fused<'a> {
    comp: &'a Companion,
    ring: &'a mut Ring,
    ws: &'a mut AeWorkspace,
    scratch: &'a mut FrameArena,
    /// Degradation shift for this minute (1 = score purely from the
    /// companion, 0 = the min of the two scores).
    ae_weight: f64,
}

impl Hook for Fused<'_> {
    /// Pushes the minute's volumetric slice and, once the ring holds a full
    /// window, blends the survival score with the autoencoder's
    /// reconstruction score. Until then (cold start, post-restore re-warm)
    /// the solo score passes through untouched.
    fn fuse(&mut self, obs: &mut DetectorObs, frame: &[f64], reported: f64) -> f64 {
        let (w, ring) = (self.comp.window, &mut *self.ring);
        let slot = |t: usize| t * VOLUMETRIC_WIDTH..(t + 1) * VOLUMETRIC_WIDTH;
        ring.buf[slot(ring.head)].copy_from_slice(&frame[..VOLUMETRIC_WIDTH]);
        ring.head = (ring.head + 1) % w;
        ring.filled = (ring.filled + 1).min(w);
        if ring.filled < w {
            return reported;
        }
        self.scratch.reset(VOLUMETRIC_WIDTH);
        for i in 0..w {
            self.scratch.push(&ring.buf[slot((ring.head + i) % w)]);
        }
        let err = self.comp.ae.reconstruction_error(self.scratch, self.ws);
        obs.fusion_ae_minutes.inc();
        fuse(reported, self.comp.norm.score(err), self.ae_weight)
    }

    fn cold_restart(&mut self) {
        *self.ring = Ring::new(self.comp.window);
    }
}

/// The streaming detector for one attack type.
#[derive(Clone)]
pub struct OnlineDetector {
    common: Common,
    ledger: Ledger,
    numeric: Numeric,
    row: RowScratch,
    /// Optional unsupervised companion; `None` leaves every observation
    /// bit-identical to a companion-free detector.
    companion: Option<Companion>,
    /// One ring per customer, by dense id; kept only while a companion is
    /// attached.
    rings: Vec<Ring>,
    /// Shared autoencoder workspace (scoring is sequential within one
    /// detector).
    ae_ws: AeWorkspace,
    /// Scratch window assembled from a customer's ring before scoring.
    ae_scratch: FrameArena,
    /// Ladder state: is the CDet feed currently considered dark?
    feed_degraded: bool,
    /// Re-warm-up minutes left on the companion-weight ramp (counts down
    /// after feed recovery).
    rewarm_left: u32,
    /// Full length of the re-warm-up ramp.
    rewarm_len: u32,
}

impl OnlineDetector {
    /// Wraps a trained model with a calibrated threshold.
    pub fn new(
        model: XatuModel,
        attack_type: AttackType,
        threshold: f64,
        cfg: &XatuConfig,
    ) -> Self {
        let numeric = Numeric::new(
            model.cfg.hidden,
            (cfg.short_len, cfg.medium_len, cfg.long_len),
        );
        Self::assemble(
            Common::new(model, attack_type, threshold, cfg),
            Ledger::default(),
            numeric,
        )
    }

    /// The level the kernels of this detector dispatch to: scalar under
    /// [`XatuConfig::no_simd`], else what the environment said when it was
    /// built or resumed (mirrors `FleetDetector::simd_level`).
    pub fn simd_level(&self) -> SimdLevel {
        self.common.simd()
    }

    fn assemble(common: Common, ledger: Ledger, numeric: Numeric) -> Self {
        OnlineDetector {
            rewarm_len: (common.window as u32).max(1),
            common,
            ledger,
            numeric,
            row: RowScratch::default(),
            companion: None,
            rings: Vec::new(),
            ae_ws: AeWorkspace::new(),
            ae_scratch: FrameArena::new(VOLUMETRIC_WIDTH),
            feed_degraded: false,
            rewarm_left: 0,
        }
    }

    /// Attaches the unsupervised companion. Every customer's companion ring
    /// is (re)built empty, so scoring re-warms over the next `window`
    /// minutes; the survival path itself is untouched until a ring fills.
    ///
    /// # Panics
    /// Panics if the autoencoder's input width is not [`VOLUMETRIC_WIDTH`]
    /// or the companion window is zero.
    pub fn set_companion(&mut self, companion: Companion) {
        assert_eq!(
            companion.ae.input_dim(),
            VOLUMETRIC_WIDTH,
            "companion autoencoder must score the volumetric block"
        );
        assert!(companion.window >= 1, "companion window must be >= 1");
        self.rings.clear();
        self.rings
            .resize_with(self.common.addrs.len(), || Ring::new(companion.window));
        self.companion = Some(companion);
    }

    /// The attached companion, if any.
    pub fn companion(&self) -> Option<&Companion> {
        self.companion.as_ref()
    }

    /// Once-per-minute ladder tick from the driving loop: `true` while the
    /// CDet feed is dark. With a companion attached, going dark shifts the
    /// fused score fully onto the companion ([`DetectorObs::fusion_engaged`]);
    /// recovery starts a linear re-warm-up ramp back to the configured
    /// combine ([`DetectorObs::fusion_recovered`]). Without a companion this
    /// only records the flag, changing nothing else.
    pub fn set_feed_degraded(&mut self, degraded: bool) {
        if self.companion.is_none() {
            self.feed_degraded = degraded;
            return;
        }
        if degraded && !self.feed_degraded {
            self.common.obs.fusion_engaged.inc();
            self.rewarm_left = 0;
        } else if !degraded && self.feed_degraded {
            self.common.obs.fusion_recovered.inc();
            self.rewarm_left = self.rewarm_len;
        } else if !degraded && self.rewarm_left > 0 {
            self.rewarm_left -= 1;
        }
        self.feed_degraded = degraded;
    }

    /// The current companion weight in `[0, 1]`: 1 while the feed is dark,
    /// ramping linearly back to 0 over the re-warm-up after recovery.
    /// Always 0 without a companion.
    pub fn companion_weight(&self) -> f64 {
        if self.companion.is_none() {
            return 0.0;
        }
        if self.feed_degraded {
            1.0
        } else if self.rewarm_len == 0 {
            0.0
        } else {
            (self.rewarm_left as f64 / self.rewarm_len as f64).clamp(0.0, 1.0)
        }
    }

    /// The detector's embedded telemetry.
    pub fn obs(&self) -> &DetectorObs {
        &self.common.obs
    }

    /// Zeroes the embedded telemetry — used when a cloned detector starts a
    /// fresh recording scope (the pipeline's test runs fork the phase-B
    /// checkpoint and must not re-count its observations).
    pub fn reset_obs(&mut self) {
        self.common.obs = DetectorObs::default();
    }

    /// The force-end cap, in minutes from `detected_at`.
    pub fn max_alert_minutes(&self) -> u32 {
        self.common.max_alert_minutes
    }

    /// Overrides the warm-up length (observations per customer before
    /// alerts may fire).
    pub fn set_warmup(&mut self, warmup: u32) {
        self.common.warmup = warmup;
    }

    /// The calibrated threshold.
    pub fn threshold(&self) -> f64 {
        self.common.threshold
    }

    /// Updates the threshold (re-calibration between periods).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.common.threshold = threshold;
    }

    /// The attack type this detector serves.
    pub fn attack_type(&self) -> AttackType {
        self.common.attack_type
    }

    /// Feeds one minute's feature frame for `customer`; returns the hazard,
    /// the (possibly staleness-blended) rolling survival, and any lifecycle
    /// events — including events from minutes imputed to bridge a gap since
    /// the customer's previous observation.
    ///
    /// Fails on a wrong-width frame or a minute at or before the
    /// customer's newest, leaving the customer state untouched in both
    /// cases.
    pub fn observe(
        &mut self,
        customer: Ipv4,
        minute: u32,
        frame: &[f64],
    ) -> Result<(f64, f64, Vec<DetectorEvent>), XatuError> {
        if frame.len() != NUM_FEATURES {
            return Err(XatuError::DimensionMismatch {
                expected: NUM_FEATURES,
                found: frame.len(),
            });
        }
        self.drive(customer, minute, Some(frame))
    }

    /// Drives `customer` through a minute known to be absent (collector
    /// outage, per-customer gap) without waiting for the next real frame:
    /// the minute is imputed immediately, so alert lifecycle decisions —
    /// in particular ending an alert whose evidence has gone stale — happen
    /// on time instead of retroactively.
    pub fn observe_gap(
        &mut self,
        customer: Ipv4,
        minute: u32,
    ) -> Result<(f64, f64, Vec<DetectorEvent>), XatuError> {
        self.drive(customer, minute, None)
    }

    /// Interns the customer and drives its row through the core's scalar
    /// row path, with the companion (if any) as the fusion hook.
    fn drive(
        &mut self,
        customer: Ipv4,
        minute: u32,
        frame: Option<&[f64]>,
    ) -> Result<(f64, f64, Vec<DetectorEvent>), XatuError> {
        let (j, new) = self.common.intern(customer);
        if new {
            push_row(&mut self.ledger, &mut self.numeric, self.common.window);
        }
        let ae_weight = self.companion_weight();
        let net = Net::new(&self.common.model, self.common.knobs());
        let mut sh = Shard::new(&mut self.ledger, &mut self.numeric, net.k.window);
        let (obs, row) = (&mut self.common.obs, &mut self.row);
        let mut events = Vec::new();
        let (hazard, survival) = match &self.companion {
            None => observe_row(
                &net,
                obs,
                &mut sh,
                j,
                customer,
                minute,
                frame,
                row,
                &mut Solo,
                &mut events,
            ),
            Some(comp) => {
                if self.rings.len() <= j {
                    self.rings.resize_with(j + 1, || Ring::new(comp.window));
                }
                let mut hook = Fused {
                    comp,
                    ring: &mut self.rings[j],
                    ws: &mut self.ae_ws,
                    scratch: &mut self.ae_scratch,
                    ae_weight,
                };
                observe_row(
                    &net,
                    obs,
                    &mut sh,
                    j,
                    customer,
                    minute,
                    frame,
                    row,
                    &mut hook,
                    &mut events,
                )
            }
        }?;
        Ok((hazard, survival, events))
    }

    /// The current rolling survival for a customer (1.0 if unseen).
    pub fn survival_of(&self, customer: Ipv4) -> f64 {
        self.common.survival_of(&self.ledger, customer)
    }

    /// Forces any open alerts to end at `minute` (end of evaluation), in
    /// the order the customers were first observed.
    pub fn close_all(&mut self, minute: u32) -> Vec<DetectorEvent> {
        self.common.close_all(&mut self.ledger, minute)
    }

    /// Snapshots the full detector — configuration, model parameters, and
    /// every customer's streaming state — into a checkpoint. Telemetry is
    /// deliberately excluded: counters restart at zero on resume and cover
    /// the resumed segment only. Companion state is not checkpointed
    /// either: a companion is re-attached after restore via
    /// [`OnlineDetector::set_companion`], which re-warms the rings.
    pub fn to_checkpoint(&mut self) -> DetectorCheckpoint {
        self.common.checkpoint(&self.ledger, &self.numeric)
    }

    /// Rebuilds a detector from a checkpoint, validating every invariant
    /// the streaming logic depends on. The result resumes bit-identically
    /// to the detector that was snapshotted. Validation failures surface as
    /// [`XatuError::InvalidCheckpoint`].
    pub fn from_checkpoint(ck: &DetectorCheckpoint) -> Result<Self, XatuError> {
        let (common, ledger, numeric) = restore(ck)?;
        Ok(Self::assemble(common, ledger, numeric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{Sample, SampleMeta};
    use crate::trainer::train;

    fn cfg() -> XatuConfig {
        XatuConfig {
            timescales: (1, 3, 6),
            short_len: 8,
            medium_len: 6,
            long_len: 4,
            window: 6,
            hidden: 5,
            epochs: 40,
            batch_size: 4,
            lr: 2e-2,
            ..XatuConfig::smoke_test()
        }
    }

    fn frame(v: f64) -> Vec<f64> {
        let mut f = vec![0.0; NUM_FEATURES];
        f[0] = v;
        f
    }

    /// Trains a model to fire when feature 0 ramps.
    fn trained_model(c: &XatuConfig) -> XatuModel {
        let mut samples = Vec::new();
        for i in 0..16 {
            let label = i % 2 == 0;
            let f32frame = |v: f32| -> Vec<f32> {
                let mut f = vec![0.0f32; NUM_FEATURES];
                f[0] = v;
                f
            };
            let window: Vec<Vec<f32>> = (0..c.window)
                .map(|t| {
                    if label && t >= 2 {
                        f32frame(2.0)
                    } else {
                        f32frame(0.05)
                    }
                })
                .collect();
            samples.push(Sample {
                short: vec![f32frame(0.05); c.short_len],
                medium: vec![f32frame(0.05); c.medium_len],
                long: vec![f32frame(0.05); c.long_len],
                window,
                label,
                event_step: c.window,
                anomaly_step: label.then_some(3),
                meta: SampleMeta {
                    customer: Ipv4(i as u32),
                    attack_type: AttackType::UdpFlood,
                    window_start: 0,
                },
            });
        }
        let mut model = XatuModel::new(c);
        train(&mut model, &samples, c).expect("training succeeds");
        model
    }

    fn obs(det: &mut OnlineDetector, cust: Ipv4, m: u32, v: f64) -> (f64, f64, Vec<DetectorEvent>) {
        det.observe(cust, m, &frame(v)).expect("in-order observe")
    }

    #[test]
    fn quiet_stream_never_alerts() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..200 {
            let (_, s, events) = obs(&mut det, Ipv4(1), m, 0.05);
            assert!(events.is_empty(), "minute {m}: survival {s}");
            if m > 30 {
                assert!(s > 0.5, "minute {m}: settled survival {s}");
            }
        }
    }

    #[test]
    fn ramp_triggers_alert_and_recovery_ends_it() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        let mut raised = None;
        let mut ended = None;
        for m in 0..300u32 {
            let v = if (100..140).contains(&m) { 2.0 } else { 0.05 };
            let (_, _, events) = obs(&mut det, Ipv4(1), m, v);
            for e in events {
                match e {
                    DetectorEvent::Raised(a) => raised = Some(a.detected_at),
                    DetectorEvent::Ended(a) => ended = Some(a.mitigation_end.unwrap()),
                }
            }
        }
        let raised = raised.expect("alert raised");
        let ended = ended.expect("alert ended");
        // Dual-state context promotion plus the rolling window add lag in
        // this tiny configuration; the alert must land on (or right after)
        // the surge, and must end once survival recovers.
        assert!((100..155).contains(&raised), "raised at {raised}");
        assert!(ended > raised, "ended at {ended}");
    }

    #[test]
    fn customers_are_independent() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        let mut cust2_alerts = 0;
        for m in 0..160u32 {
            let v1 = if m >= 100 { 2.0 } else { 0.05 };
            obs(&mut det, Ipv4(1), m, v1);
            let (_, _, ev) = obs(&mut det, Ipv4(2), m, 0.05);
            cust2_alerts += ev.len();
        }
        assert_eq!(cust2_alerts, 0);
        assert!(det.survival_of(Ipv4(1)) < det.survival_of(Ipv4(2)));
    }

    #[test]
    fn close_all_ends_open_alerts() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..130u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            obs(&mut det, Ipv4(1), m, v);
        }
        let events = det.close_all(130);
        assert_eq!(events.len(), 1);
        if let DetectorEvent::Ended(a) = events[0] {
            assert_eq!(a.mitigation_end, Some(130));
        }
    }

    /// `close_all` reports in the order customers were first observed,
    /// not in map order: the events feed alert logs that are compared
    /// across runs.
    #[test]
    fn close_all_reports_in_first_observe_order() {
        let c = cfg();
        // Untrained model, unreachable threshold, no warm-up: every
        // customer's first observation opens an alert.
        let mut det = OnlineDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 2.0, &c);
        det.set_warmup(0);
        let order = [0x50u32, 0x03, 0x91, 0x2a, 0x77, 0x10, 0xe4, 0x08].map(Ipv4);
        for cust in order {
            let (_, _, ev) = obs(&mut det, cust, 0, 0.05);
            assert!(matches!(ev[..], [DetectorEvent::Raised(_)]));
        }
        let closed: Vec<Ipv4> = det
            .close_all(1)
            .iter()
            .map(|e| match e {
                DetectorEvent::Raised(a) | DetectorEvent::Ended(a) => a.customer,
            })
            .collect();
        assert_eq!(closed, order);
    }

    #[test]
    fn stuck_alert_is_force_ended_at_the_cap() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // Quiet lead-in, then a surge that never recovers: the scrubbing
        // centre's cap must cut the alert loose at max_alert_minutes.
        let mut spans = Vec::new();
        for m in 0..300u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            let (_, _, events) = obs(&mut det, Ipv4(1), m, v);
            for e in events {
                if let DetectorEvent::Ended(a) = e {
                    spans.push((a.detected_at, a.mitigation_end.unwrap()));
                }
            }
        }
        assert!(!spans.is_empty(), "stuck alert was never force-ended");
        for (start, end) in &spans {
            assert_eq!(
                end - start,
                det.max_alert_minutes(),
                "span {start}..{end} not cut at the cap"
            );
        }
        if xatu_obs::enabled() {
            let obs = det.obs();
            // Every recorded end here is a force-end, and the detector
            // re-raises right after each one.
            assert_eq!(obs.force_ended.get(), spans.len() as u64);
            assert_eq!(obs.ended.get(), spans.len() as u64);
            assert!(obs.raised.get() > spans.len() as u64);
            // One customer, warmup = 2 * window observations suppressed.
            assert_eq!(obs.warmup_suppressed.get(), 2 * c.window as u64);
            assert_eq!(obs.survival.count(), 300);
        }
    }

    #[test]
    fn threshold_zero_never_fires() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.0, &c);
        for m in 0..150u32 {
            let (_, _, ev) = obs(&mut det, Ipv4(1), m, 2.0);
            assert!(ev.is_empty());
        }
    }

    #[test]
    fn out_of_order_minutes_are_rejected() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        obs(&mut det, Ipv4(1), 10, 0.05);
        let before = det.survival_of(Ipv4(1));
        // Repeat and regress both fail, and neither perturbs state.
        for bad in [10, 3] {
            match det.observe(Ipv4(1), bad, &frame(0.05)) {
                Err(XatuError::OutOfOrderMinute { minute, last, .. }) => {
                    assert_eq!(minute, bad);
                    assert_eq!(last, 10);
                }
                other => panic!("expected OutOfOrderMinute, got {other:?}"),
            }
        }
        assert_eq!(before.to_bits(), det.survival_of(Ipv4(1)).to_bits());
        // The stream continues normally afterwards.
        obs(&mut det, Ipv4(1), 11, 0.05);
        if xatu_obs::enabled() {
            assert_eq!(det.obs().out_of_order.get(), 2);
        }
    }

    #[test]
    fn wrong_width_frame_is_rejected() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        assert!(matches!(
            det.observe(Ipv4(1), 0, &[0.0; 4]),
            Err(XatuError::DimensionMismatch {
                expected: NUM_FEATURES,
                found: 4
            })
        ));
    }

    #[test]
    fn short_gaps_are_imputed_and_the_stream_survives() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..60u32 {
            obs(&mut det, Ipv4(1), m, 0.05);
        }
        // Skip minutes 60..=64; minute 65 must impute five ZOH steps.
        let (_, s, _) = obs(&mut det, Ipv4(1), 65, 0.05);
        assert!(s.is_finite() && s > 0.5, "post-gap survival {s}");
        for m in 66..120u32 {
            let (_, s, _) = obs(&mut det, Ipv4(1), m, 0.05);
            assert!(s.is_finite());
        }
        if xatu_obs::enabled() {
            assert_eq!(det.obs().gaps_imputed.get(), 5);
            assert_eq!(det.obs().cold_restarts.get(), 0);
            assert_eq!(det.obs().gap_runs.count(), 1);
            // Wall-clock accounting stays aligned: 120 driven minutes.
            assert_eq!(det.obs().survival.count(), 120);
        }
    }

    #[test]
    fn staleness_blends_survival_toward_one_and_suppresses_raises() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // Attack traffic throughout warm-up and beyond, but with the
        // threshold at 0.0 nothing can fire; then the feed goes dark.
        det.set_threshold(0.0);
        for m in 0..100u32 {
            obs(&mut det, Ipv4(1), m, 2.0);
        }
        det.set_threshold(0.5);
        let mut last = det.survival_of(Ipv4(1));
        assert!(last < 0.5, "attack survival {last}");
        // Drive explicit gap minutes: reported survival must rise
        // monotonically toward 1.0 as the ZOH evidence goes stale, and no
        // alert may be raised on fully stale input.
        for m in 100..120u32 {
            let (_, s, ev) = det.observe_gap(Ipv4(1), m).expect("in-order gap");
            // Essentially monotone: the ZOH hazard can wobble slightly as
            // coarse buckets complete, but the blend must dominate.
            assert!(
                s >= last - 0.05,
                "minute {m}: blend regressed {last} -> {s}"
            );
            assert!(
                !ev.iter().any(|e| matches!(e, DetectorEvent::Raised(_))),
                "raised on stale input at minute {m}"
            );
            last = s;
        }
        assert!(last > 0.9, "fully stale survival {last}");
    }

    #[test]
    fn open_alert_ends_while_the_feed_is_dark() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        let mut raised = false;
        for m in 0..115u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            let (_, _, ev) = obs(&mut det, Ipv4(1), m, v);
            raised |= ev.iter().any(|e| matches!(e, DetectorEvent::Raised(_)));
        }
        assert!(raised, "surge never raised");
        // Feed goes dark mid-alert: the staleness blend must recover the
        // survival and end the alert without any real frame arriving.
        let mut ended_at = None;
        for m in 115..160u32 {
            let (_, _, ev) = det.observe_gap(Ipv4(1), m).expect("in-order gap");
            if let Some(DetectorEvent::Ended(a)) =
                ev.iter().find(|e| matches!(e, DetectorEvent::Ended(_)))
            {
                ended_at = Some(a.mitigation_end.unwrap());
                break;
            }
        }
        let ended_at = ended_at.expect("alert never ended during the outage");
        assert!(ended_at < 140, "alert lingered until {ended_at}");
    }

    #[test]
    fn long_gaps_cold_restart_the_customer() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // Get an alert open, then vanish for far longer than 3×window.
        for m in 0..110u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            obs(&mut det, Ipv4(1), m, v);
        }
        let (_, s, ev) = obs(&mut det, Ipv4(1), 500, 0.05);
        assert!(
            ev.iter().any(|e| matches!(e, DetectorEvent::Ended(_))),
            "cold restart must end the open alert"
        );
        assert!(s.is_finite());
        if xatu_obs::enabled() {
            assert_eq!(det.obs().cold_restarts.get(), 1);
            assert_eq!(det.obs().gaps_imputed.get(), 0);
        }
        // Re-warm-up: the restarted customer cannot alert immediately.
        // Minute 500 was its first post-restart observation, so the
        // warm-up window covers minutes 500..500+warmup-1.
        for m in 501..(500 + det.common.warmup) {
            let (_, _, ev) = obs(&mut det, Ipv4(1), m, 2.0);
            assert!(ev.is_empty(), "alerted during re-warm-up at {m}");
        }
    }

    #[test]
    fn non_finite_frames_are_sanitized_not_propagated() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..40u32 {
            let mut f = frame(0.05);
            if m % 5 == 0 {
                f[0] = f64::NAN;
                f[17] = f64::INFINITY;
            }
            let (h, s, _) = det.observe(Ipv4(1), m, &f).expect("in-order");
            assert!(h.is_finite() && s.is_finite(), "minute {m}: {h} {s}");
        }
        assert!(det.survival_of(Ipv4(1)).is_finite());
        if xatu_obs::enabled() {
            assert_eq!(det.obs().values_sanitized.get(), 16);
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // A messy prefix: two customers, a surge, a gap, an open alert.
        for m in 0..130u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            if m != 57 && m != 58 {
                obs(&mut det, Ipv4(1), m, v);
            }
            obs(&mut det, Ipv4(2), m, 0.05);
        }
        let ck = det.to_checkpoint();
        let mut resumed = OnlineDetector::from_checkpoint(&ck).expect("restore");
        // Continue both detectors through recovery and a second surge.
        for m in 130..260u32 {
            let v = if (180..200).contains(&m) { 2.0 } else { 0.05 };
            let (h1, s1, e1) = obs(&mut det, Ipv4(1), m, v);
            let (h2, s2, e2) = obs(&mut resumed, Ipv4(1), m, v);
            assert_eq!(h1.to_bits(), h2.to_bits(), "hazard diverged at {m}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "survival diverged at {m}");
            assert_eq!(e1, e2, "events diverged at {m}");
            let (_, s1b, _) = obs(&mut det, Ipv4(2), m, 0.05);
            let (_, s2b, _) = obs(&mut resumed, Ipv4(2), m, 0.05);
            assert_eq!(s1b.to_bits(), s2b.to_bits(), "customer 2 diverged at {m}");
        }
    }

    /// `XatuConfig::no_simd` reaches this front-end too: the detector
    /// reports the scalar level and scores the same bits as the auto one.
    #[test]
    fn no_simd_config_pins_scalar_and_matches_auto_bitwise() {
        let c = cfg();
        let model = trained_model(&c);
        let forced_cfg = XatuConfig { no_simd: true, ..c };
        let mut auto = OnlineDetector::new(model.clone(), AttackType::UdpFlood, 0.5, &c);
        let mut forced = OnlineDetector::new(model, AttackType::UdpFlood, 0.5, &forced_cfg);
        assert_eq!(auto.simd_level(), xatu_nn::simd::detect());
        assert_eq!(forced.simd_level(), SimdLevel::Scalar);
        for m in 0..160u32 {
            if m == 57 || m == 58 {
                continue; // a gap, so imputed catch-up rows are compared too
            }
            let v = if (100..130).contains(&m) { 2.0 } else { 0.05 };
            let (h1, s1, e1) = obs(&mut auto, Ipv4(1), m, v);
            let (h2, s2, e2) = obs(&mut forced, Ipv4(1), m, v);
            assert_eq!(h1.to_bits(), h2.to_bits(), "hazard diverged at {m}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "survival diverged at {m}");
            assert_eq!(e1, e2, "events diverged at {m}");
        }
        // A checkpoint does not carry the level: the resumed detector
        // follows the environment again.
        let resumed = OnlineDetector::from_checkpoint(&forced.to_checkpoint()).expect("restore");
        assert_eq!(resumed.simd_level(), xatu_nn::simd::detect());
    }

    /// A companion whose normalizer is calibrated on this test's benign
    /// traffic (feature 0 at `0.05`). The autoencoder is untrained — the
    /// tests only need benign windows to score near 0 and attack windows
    /// near 1, which calibration alone guarantees.
    fn companion_for(c: &XatuConfig) -> Companion {
        use xatu_nn::init::Initializer;
        let ae = LstmAutoencoder::new(VOLUMETRIC_WIDTH, 4, &mut Initializer::new(3));
        let mut ws = AeWorkspace::new();
        let mut win = FrameArena::new(VOLUMETRIC_WIDTH);
        for _ in 0..c.window {
            let mut f = vec![0.0; VOLUMETRIC_WIDTH];
            f[0] = 0.05;
            win.push(&f);
        }
        let err = ae.reconstruction_error(&win, &mut ws);
        Companion {
            norm: ErrorNormalizer::from_benign_errors(&[err]),
            window: c.window,
            ae,
        }
    }

    #[test]
    fn companion_scores_attacks_while_the_feed_is_dark() {
        let c = cfg();
        // Untrained survival model: any alert below must come from the
        // companion, via the full-degradation weight.
        let mut det = OnlineDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 0.5, &c);
        det.set_companion(companion_for(&c));
        let mut raised_at = None;
        let mut ended_at = None;
        for m in 0..160u32 {
            det.set_feed_degraded(true);
            let v = if (60..80).contains(&m) { 2.0 } else { 0.05 };
            let (_, s, ev) = obs(&mut det, Ipv4(1), m, v);
            assert!(s.is_finite());
            for e in ev {
                match e {
                    DetectorEvent::Raised(a) if raised_at.is_none() => {
                        raised_at = Some(a.detected_at)
                    }
                    DetectorEvent::Ended(a) if ended_at.is_none() => ended_at = a.mitigation_end,
                    _ => {}
                }
            }
        }
        let raised_at = raised_at.expect("companion never raised during the surge");
        assert!(
            (60..80).contains(&raised_at),
            "companion raised at {raised_at}, surge was 60..80"
        );
        let ended_at = ended_at.expect("companion alert never ended");
        assert!(
            ended_at >= 80,
            "ended at {ended_at} before the surge cleared"
        );
        if xatu_obs::enabled() {
            assert_eq!(det.obs().fusion_engaged.get(), 1);
            assert_eq!(det.obs().fusion_recovered.get(), 0);
            // The ring fills after `window` minutes; every later minute is
            // companion-scored.
            assert_eq!(det.obs().fusion_ae_minutes.get(), 160 - c.window as u64 + 1);
        }
    }

    #[test]
    fn companion_weight_ramps_down_over_the_rewarm_window() {
        let c = cfg();
        let mut det = OnlineDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 0.5, &c);
        // Without a companion the ladder flag changes nothing.
        det.set_feed_degraded(true);
        assert_eq!(det.companion_weight(), 0.0);
        if xatu_obs::enabled() {
            assert_eq!(det.obs().fusion_engaged.get(), 0);
        }
        det.set_feed_degraded(false);

        det.set_companion(companion_for(&c));
        assert_eq!(det.companion_weight(), 0.0);
        det.set_feed_degraded(true);
        assert_eq!(det.companion_weight(), 1.0);
        det.set_feed_degraded(true);
        assert_eq!(det.companion_weight(), 1.0);
        // Recovery: full weight at the transition, then a strictly
        // decreasing ramp that reaches 0 and stays there.
        det.set_feed_degraded(false);
        let mut last = det.companion_weight();
        assert_eq!(last, 1.0);
        for _ in 0..2 * c.window {
            det.set_feed_degraded(false);
            let w = det.companion_weight();
            assert!(w <= last, "rewarm weight rose {last} -> {w}");
            last = w;
        }
        assert_eq!(last, 0.0);
        if xatu_obs::enabled() {
            assert_eq!(det.obs().fusion_engaged.get(), 1);
            assert_eq!(det.obs().fusion_recovered.get(), 1);
        }
    }

    #[test]
    fn companion_rings_rewarm_after_checkpoint_restore() {
        let c = cfg();
        let mut det = OnlineDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 0.5, &c);
        det.set_companion(companion_for(&c));
        for m in 0..40u32 {
            obs(&mut det, Ipv4(1), m, 0.05);
        }
        let ck = det.to_checkpoint();
        let mut resumed = OnlineDetector::from_checkpoint(&ck).expect("restore");
        assert!(
            resumed.companion().is_none(),
            "companion is not checkpointed"
        );
        resumed.set_companion(companion_for(&c));
        for m in 40..80u32 {
            let (_, s, _) = resumed.observe(Ipv4(1), m, &frame(0.05)).expect("in-order");
            assert!(s.is_finite());
        }
        if xatu_obs::enabled() {
            // The restored ring starts empty: the first `window - 1`
            // resumed minutes pass through solo, then scoring resumes.
            assert_eq!(
                resumed.obs().fusion_ae_minutes.get(),
                40 - c.window as u64 + 1
            );
        }
    }
}
