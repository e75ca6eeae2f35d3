//! The streaming detector for one attack type: every customer of a fleet,
//! a whole minute at a time, or one customer-minute at a time.
//!
//! [`FleetDetector`] drives the detector core (`crate::detector`) — its
//! rows, ladder, lifecycle and checkpoint — two ways:
//!
//! * **Batch path.** [`FleetDetector::step_minute_batch`] advances every
//!   registered customer through one minute: whole blocks of customers
//!   through one LSTM step at a time via the block kernel, which is pinned
//!   0-ULP identical to the row kernel. Rare ragged work (gap imputation)
//!   runs the row kernel on the same rows.
//! * **Row path.** [`FleetDetector::observe`] and
//!   [`FleetDetector::observe_gap`] drive one customer through one minute
//!   on the row kernel alone — the reference the tests hold the batch path
//!   to, bit for bit.
//! * **Sharding.** The id space is partitioned into contiguous blocks
//!   ([`xatu_par::block_ranges_into`]), each worker gets disjoint mutable
//!   views of every column, and events, survivals and telemetry are
//!   stitched back in block order — so all three are bit-identical for
//!   every thread count.
//! * **Companion.** An optional unsupervised [`Companion`] is fused into
//!   the reported survival before the alert lifecycle acts on it, on both
//!   paths, weighted by the degradation ladder
//!   [`FleetDetector::set_feed_degraded`] ticks.
//!
//! Per minute a worker runs three phases over its shard: **A** per row
//! (ordering, gap bridging, input, plan), **B** batched (dual-state steps
//! over runs of planned rows), **C** per row (survival and lifecycle
//! tails). Customers are independent, so the regrouping changes no value,
//! only the documented event order within a minute.
//!
//! # Degraded input
//!
//! Real collectors drop minutes, deliver flows late, and occasionally emit
//! garbage. The detector's contract under degradation:
//!
//! * **Out-of-order minutes are rejected**, never silently absorbed, with
//!   [`XatuError::OutOfOrderMinute`], leaving the customer's state
//!   untouched.
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
pub use crate::detector::DetectorObs;
use crate::detector::{
    catch_up, check_order, finish_row, ingest, push_row, restore, row_minute, take_rows, Common,
    Emitted, Ledger, Net, Numeric, RowScratch, Shard, DENSE, TIMESCALES,
};
use crate::error::XatuError;
use crate::fusion::{Companion, Fused, Ring};
use crate::model::XatuModel;
use xatu_detectors::alert::Alert;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::simd::{self, SimdLevel};
use xatu_nn::{AeWorkspace, FrameArena, OnlineBlockWorkspace};
use xatu_par::{block_ranges_into, WorkerPool};

/// Upper bound on concurrent shards per minute. Task slots live in a
/// fixed stack array of this size so the sharded dispatch allocates
/// nothing; `threads` is clamped to it (64 shards is far past the point
/// where per-shard stitch overhead dominates on any realistic host).
const MAX_SHARDS: usize = 64;

/// What the fill callback reports for one customer at one minute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetInput {
    /// The callback wrote a real feature frame into the buffer.
    Frame,
    /// The minute is known to be missing: impute it now (zero-order hold),
    /// exactly like [`FleetDetector::observe_gap`].
    Gap,
    /// The customer is not driven this minute at all; its clock does not
    /// advance, and the gap is bridged (imputed or cold-restarted) when it
    /// is next driven.
    Skip,
}

/// Per-worker reusable scratch. Steady-state batch steps through warm
/// workers allocate nothing. Worker 0 also serves the row path.
struct Worker {
    frame: Vec<f64>,
    row: RowScratch,
    block: OnlineBlockWorkspace,
    runs: Vec<(u32, u32)>,
    /// What catch-up (imputed or cold-restarted) minutes emitted.
    impute: Emitted,
    /// What the current minute emitted.
    life: Emitted,
    obs: DetectorObs,
    err: Option<XatuError>,
    /// Companion scoring scratch: the autoencoder's workspace and window.
    ae_ws: AeWorkspace,
    ae_window: FrameArena,
}

impl Worker {
    fn new() -> Self {
        Worker {
            frame: vec![0.0; NUM_FEATURES],
            row: RowScratch::default(),
            block: OnlineBlockWorkspace::default(),
            runs: Vec::new(),
            impute: Emitted::default(),
            life: Emitted::default(),
            obs: DetectorObs::default(),
            err: None,
            ae_ws: AeWorkspace::new(),
            ae_window: FrameArena::new(VOLUMETRIC_WIDTH),
        }
    }
}

/// This minute's companion vote, if one is attached: the companion and
/// the ladder's weight.
type Vote<'a> = Option<(&'a Companion, f64)>;

/// Row `j`'s fusion hook: the companion over that row's ring, or none.
fn hook<'a>(
    vote: Vote<'a>,
    rings: &'a mut [Ring],
    j: usize,
    ws: &'a mut AeWorkspace,
    scratch: &'a mut FrameArena,
) -> Option<Fused<'a>> {
    let (comp, ae_weight) = vote?;
    Some(Fused {
        comp,
        ring: &mut rings[j],
        ws,
        scratch,
        ae_weight,
    })
}

/// Maximal contiguous runs of rows whose flag has `mask` set.
fn collect_runs(flags: &[u8], mask: u8, out: &mut Vec<(u32, u32)>) {
    out.clear();
    let mut a = 0;
    while a < flags.len() {
        if flags[a] & mask == 0 {
            a += 1;
            continue;
        }
        let mut b = a + 1;
        while b < flags.len() && flags[b] & mask != 0 {
            b += 1;
        }
        out.push((a as u32, b as u32));
        a = b;
    }
}

/// One shard's share of a minute: its rows, their companion rings (empty
/// without a companion) and the worker that runs them.
struct Task<'a> {
    sh: Shard<'a>,
    rings: &'a mut [Ring],
    w: &'a mut Worker,
}

/// One shard through one minute.
fn run_shard<F>(
    net: &Net<'_>,
    addrs: &[Ipv4],
    minute: u32,
    fill: &F,
    vote: Vote<'_>,
    task: Task<'_>,
) where
    F: Fn(usize, Ipv4, &mut [f64]) -> FleetInput,
{
    let Task { mut sh, rings, w } = task;
    w.impute.clear();
    w.life.clear();
    w.err = None;
    let len = sh.len();

    // Phase A: ordering, gap bridging (imputed catch-up minutes run the
    // whole row path here), this minute's input and plan.
    for j in 0..len {
        sh.flags.iter_mut().for_each(|f| f[j] = 0);
        let addr = addrs[sh.start + j];
        let frame = match fill(sh.start + j, addr, &mut w.frame) {
            FleetInput::Skip => continue,
            FleetInput::Gap => None,
            FleetInput::Frame => Some(&w.frame[..]),
        };
        if let Err(e) = check_order(&mut w.obs, sh.last_minute[j], addr, minute) {
            w.err.get_or_insert(e);
            continue;
        }
        catch_up(
            net,
            &mut w.obs,
            &mut sh,
            j,
            addr,
            minute,
            &mut w.row,
            &mut hook(vote, rings, j, &mut w.ae_ws, &mut w.ae_window),
            &mut w.impute,
        );
        ingest(net, &mut w.obs, &mut sh, j, frame);
    }

    // Phase B: block steps over contiguous runs of rows planned DENSE.
    // Rows are independent and the block kernel is 0-ULP equal to the row
    // kernel, so run boundaries (and hence shard boundaries) cannot move
    // a bit.
    for t in 0..TIMESCALES {
        collect_runs(sh.flags[t], DENSE, &mut w.runs);
        for &(a, b) in &w.runs {
            let (a, b) = (a as usize, b as usize);
            let span = a * NUM_FEATURES..b * NUM_FEATURES;
            let xs = if t == 0 {
                &sh.frame[span]
            } else {
                &sh.partial[t - 1][span]
            };
            sh.dual[t].step_block(net.layers[t], a, b, xs, &mut w.block);
        }
    }

    // Phase C: survival and lifecycle tails, clock advance.
    for j in 0..len {
        if sh.flags[0][j] != 0 {
            let addr = addrs[sh.start + j];
            finish_row(
                net,
                &mut w.obs,
                &mut sh,
                j,
                addr,
                minute,
                &mut w.row.input,
                &mut hook(vote, rings, j, &mut w.ae_ws, &mut w.ae_window),
                &mut w.life,
            );
        }
    }
}

/// The streaming detector for one attack type.
///
/// Customers are registered with [`FleetDetector::add_customer`] (or on
/// their first [`FleetDetector::observe`]) and driven either a whole
/// minute at a time ([`FleetDetector::step_minute_batch`]) or one
/// customer-minute at a time; both paths drive the same rows through the
/// same core, and the differential tests compare every survival bit and
/// every lifecycle event.
#[derive(Clone)]
pub struct FleetDetector {
    common: Common,
    ledger: Ledger,
    numeric: Numeric,
    scratch: Scratch,
    /// Optional unsupervised companion; `None` leaves every observation
    /// bit-identical to a companion-free detector.
    companion: Option<Companion>,
    /// One ring per customer, by dense id; kept only while a companion is
    /// attached.
    rings: Vec<Ring>,
    /// Ladder state: is the CDet feed currently considered dark?
    feed_degraded: bool,
    /// Re-warm-up minutes left on the companion-weight ramp (counts down
    /// after feed recovery).
    rewarm_left: u32,
}

/// What a detector reuses from minute to minute but no customer owns.
#[derive(Default)]
struct Scratch {
    /// Per-worker scratch, one per shard of the widest minute so far.
    workers: Vec<Worker>,
    events: Vec<DetectorEvent>,
    /// Persistent fork-join workers for the `threads > 1` path, spawned
    /// lazily on the first sharded minute.
    pool: Option<WorkerPool>,
    /// Reusable buffer for the per-minute shard partition.
    ranges: Vec<(usize, usize)>,
}

impl Clone for Scratch {
    /// A cloned detector grows scratch and a worker pool of its own.
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl FleetDetector {
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

    fn assemble(common: Common, ledger: Ledger, numeric: Numeric) -> Self {
        FleetDetector {
            common,
            ledger,
            numeric,
            scratch: Scratch::default(),
            companion: None,
            rings: Vec::new(),
            feed_degraded: false,
            rewarm_left: 0,
        }
    }

    /// The level the kernels of this detector dispatch to.
    pub fn simd_level(&self) -> SimdLevel {
        self.common.simd
    }

    /// Sets the dispatch level of the model's kernels, clamped to what the
    /// host supports. [`SimdLevel::Scalar`] pins the reference path;
    /// results are bit-identical at every level.
    ///
    /// [`FleetDetector::new`] starts at the level [`XatuConfig::no_simd`]
    /// asks for. A checkpoint does not record the level, so a caller that
    /// resumes under a configuration calls this after
    /// [`FleetDetector::from_checkpoint`], which by itself follows the
    /// environment.
    pub fn set_simd(&mut self, level: SimdLevel) {
        self.common.simd = level.min(simd::supported());
        self.common.model.set_simd(self.common.simd);
    }

    /// Interns `addr`, returning its dense customer id. Idempotent: an
    /// already-registered address returns its existing id. New customers
    /// start in the cold state and go through warm-up.
    pub fn add_customer(&mut self, addr: Ipv4) -> usize {
        let (i, new) = self.common.intern(addr);
        if new {
            push_row(&mut self.ledger, &mut self.numeric, self.common.window);
            if let Some(comp) = &self.companion {
                self.rings.push(Ring::new(comp.window));
            }
        }
        i
    }

    /// Registered customer count.
    pub fn len(&self) -> usize {
        self.common.addrs.len()
    }

    /// True when no customer is registered.
    pub fn is_empty(&self) -> bool {
        self.common.addrs.is_empty()
    }

    /// Registered addresses in dense-id order.
    pub fn addrs(&self) -> &[Ipv4] {
        &self.common.addrs
    }

    /// The dense id of `addr`, if registered.
    pub fn customer_index(&self, addr: Ipv4) -> Option<usize> {
        self.common.id_of(addr)
    }

    /// The detector's embedded telemetry, identical for every thread
    /// count, histogram sums included.
    pub fn obs(&self) -> &DetectorObs {
        &self.common.obs
    }

    /// Zeroes the embedded telemetry — used when a cloned detector starts a
    /// fresh recording scope (the pipeline's test runs fork the phase-B
    /// state and must not re-count its observations).
    pub fn reset_obs(&mut self) {
        self.common.obs = DetectorObs::default();
    }

    /// Updates the threshold (re-calibration between periods).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.common.threshold = threshold;
    }

    /// Overrides the warm-up length (observations per customer before
    /// alerts may fire).
    pub fn set_warmup(&mut self, warmup: u32) {
        self.common.warmup = warmup;
    }

    /// The attack type this detector serves.
    pub fn attack_type(&self) -> AttackType {
        self.common.attack_type
    }

    /// The force-end cap, in minutes from `detected_at`.
    pub fn max_alert_minutes(&self) -> u32 {
        self.common.max_alert_minutes
    }

    /// The current rolling survival for a customer (1.0 if unseen).
    pub fn survival_of(&self, addr: Ipv4) -> f64 {
        let id = self.common.id_of(addr);
        id.map_or(1.0, |i| self.ledger.last_survival[i])
    }

    /// Measured per-customer arena footprint in bytes (excludes the
    /// interner, which adds roughly 16 bytes per customer, per-worker
    /// scratch, which is fleet-size-independent, and companion rings).
    pub fn bytes_per_customer(&self) -> usize {
        let addrs = &self.common.addrs;
        let bytes = self.ledger.bytes() + self.numeric.bytes();
        (bytes + addrs.capacity() * std::mem::size_of::<Ipv4>()) / addrs.len().max(1)
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
            .resize_with(self.len(), || Ring::new(companion.window));
        self.companion = Some(companion);
    }

    /// The attached companion, if any.
    pub fn companion(&self) -> Option<&Companion> {
        self.companion.as_ref()
    }

    /// The re-warm-up ramp's length after feed recovery: one window.
    fn rewarm_len(&self) -> u32 {
        (self.common.window as u32).max(1)
    }

    /// Once-per-minute ladder tick from the driving loop: `true` while the
    /// CDet feed is dark. With a companion attached, going dark shifts the
    /// fused score fully onto the companion ([`DetectorObs::fusion_engaged`]);
    /// recovery starts a linear re-warm-up ramp back to the configured
    /// combine ([`DetectorObs::fusion_recovered`]). Without a companion this
    /// only records the flag, changing nothing else.
    pub fn set_feed_degraded(&mut self, degraded: bool) {
        let was = std::mem::replace(&mut self.feed_degraded, degraded);
        if self.companion.is_none() {
            return;
        }
        if degraded && !was {
            self.common.obs.fusion_engaged.inc();
            self.rewarm_left = 0;
        } else if !degraded && was {
            self.common.obs.fusion_recovered.inc();
            self.rewarm_left = self.rewarm_len();
        } else if !degraded && self.rewarm_left > 0 {
            self.rewarm_left -= 1;
        }
    }

    /// The current companion weight in `[0, 1]`: 1 while the feed is dark,
    /// ramping linearly back to 0 over the re-warm-up after recovery.
    /// Always 0 without a companion.
    pub fn companion_weight(&self) -> f64 {
        if self.companion.is_none() {
            0.0
        } else if self.feed_degraded {
            1.0
        } else {
            (self.rewarm_left as f64 / self.rewarm_len() as f64).clamp(0.0, 1.0)
        }
    }

    /// Feeds one minute's feature frame for `customer` on the row path,
    /// registering the customer if new; returns the hazard, the (possibly
    /// staleness-blended, possibly fused) rolling survival, and any
    /// lifecycle events — including events from minutes imputed to bridge
    /// a gap since the customer's previous observation.
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

    /// One customer-minute through the core's row path — ordering, gap
    /// bridging, then `minute` itself — on worker 0's scratch.
    fn drive(
        &mut self,
        customer: Ipv4,
        minute: u32,
        frame: Option<&[f64]>,
    ) -> Result<(f64, f64, Vec<DetectorEvent>), XatuError> {
        let j = self.add_customer(customer);
        let workers = &mut self.scratch.workers;
        if workers.is_empty() {
            workers.push(Worker::new());
        }
        let ae_weight = self.companion_weight();
        let vote = self.companion.as_ref().map(|comp| (comp, ae_weight));
        let net = Net::new(&self.common.model, self.common.knobs());
        let sh = &mut Shard::new(&mut self.ledger, &mut self.numeric, net.k.window);
        let (obs, w) = (&mut self.common.obs, &mut self.scratch.workers[0]);
        check_order(obs, sh.last_minute[j], customer, minute)?;
        let hook = &mut hook(vote, &mut self.rings, j, &mut w.ae_ws, &mut w.ae_window);
        let (row, out) = (&mut w.row, &mut w.life);
        out.clear();
        catch_up(&net, obs, sh, j, customer, minute, row, hook, out);
        let (h, s) = row_minute(&net, obs, sh, j, customer, minute, frame, row, hook, out);
        out.record(obs);
        Ok((h, s, std::mem::take(&mut out.events)))
    }

    /// Advances every registered customer to `minute` across `threads`
    /// workers, and returns this minute's lifecycle events.
    ///
    /// `fill` is consulted once per customer, in id order within each
    /// shard: it may write a real frame into the provided
    /// [`NUM_FEATURES`]-wide buffer and return [`FleetInput::Frame`],
    /// declare the minute missing with [`FleetInput::Gap`], or leave the
    /// customer undriven with [`FleetInput::Skip`]. Per customer the
    /// semantics are exactly [`FleetDetector::observe`] /
    /// [`FleetDetector::observe_gap`], including gap bridging since the
    /// customer's last driven minute.
    ///
    /// Events are ordered: first all catch-up (imputation / cold-restart)
    /// events in customer-id order, then all current-minute lifecycle
    /// events in customer-id order — identical for every thread count,
    /// since shard boundaries never reorder ids. The survival histogram
    /// observes in the same order.
    ///
    /// A customer whose clock would run backwards (`minute` at or before
    /// its newest driven minute) is left untouched and counted, the rest
    /// of the fleet advances, and the first such violation (in id order)
    /// is returned as `Err` after the batch completes.
    pub fn step_minute_batch<F>(
        &mut self,
        minute: u32,
        threads: usize,
        fill: F,
    ) -> Result<&[DetectorEvent], XatuError>
    where
        F: Fn(usize, Ipv4, &mut [f64]) -> FleetInput + Sync,
    {
        let ae_weight = self.companion_weight();
        let vote = self.companion.as_ref().map(|comp| (comp, ae_weight));
        let s = &mut self.scratch;
        s.events.clear();
        let addrs = &self.common.addrs;
        if addrs.is_empty() {
            return Ok(&s.events);
        }
        let net = Net::new(&self.common.model, self.common.knobs());
        let threads = threads.clamp(1, addrs.len()).min(MAX_SHARDS);
        while s.workers.len() < threads {
            s.workers.push(Worker::new());
        }
        let mut whole = Shard::new(&mut self.ledger, &mut self.numeric, net.k.window);
        let mut rings = &mut self.rings[..];
        // The ranges live in reusable scratch, the shard views are carved
        // by borrow splitting, the task slots sit on the stack and the
        // worker threads are a persistent parked pool: zero allocations
        // per minute at any thread count once the pool has spun up.
        let active = if threads == 1 {
            let (sh, w) = (whole, &mut s.workers[0]);
            run_shard(&net, addrs, minute, &fill, vote, Task { sh, rings, w });
            1
        } else {
            block_ranges_into(addrs.len(), threads, &mut s.ranges);
            let parts = s.ranges.len();
            let pool = s.pool.get_or_insert_with(WorkerPool::default);
            pool.ensure_workers(parts - 1);
            let mut slots: [Option<Task<'_>>; MAX_SHARDS] = std::array::from_fn(|_| None);
            let shards = s.ranges.iter().zip(&mut s.workers).zip(&mut slots);
            for ((&(s, e), w), slot) in shards {
                let n = if vote.is_some() { e - s } else { 0 };
                *slot = Some(Task {
                    sh: whole.take_front(e - s),
                    rings: take_rows(&mut rings, n, 1),
                    w,
                });
            }
            pool.run_tasks(&mut slots[..parts], &|slot| {
                if let Some(task) = slot.take() {
                    run_shard(&net, addrs, minute, &fill, vote, task);
                }
            });
            parts
        };

        // Catch-up rows, then this minute's rows, then telemetry and the
        // first ordering violation — all in block order.
        let obs = &mut self.common.obs;
        let workers = &mut s.workers[..active];
        for w in workers.iter() {
            s.events.extend_from_slice(&w.impute.events);
            w.impute.record(obs);
        }
        for w in workers.iter() {
            s.events.extend_from_slice(&w.life.events);
            w.life.record(obs);
        }
        let mut first_err = None;
        for w in workers {
            obs.merge_from(&w.obs);
            w.obs.reset();
            if first_err.is_none() {
                first_err = w.err.take();
            }
        }
        first_err.map_or(Ok(&s.events), Err)
    }

    /// Forces any open alerts to end at `minute` (end of evaluation), in
    /// customer-id order.
    pub fn close_all(&mut self, minute: u32) -> Vec<DetectorEvent> {
        let mut events = Vec::new();
        for (slot, &customer) in self.ledger.active_since.iter_mut().zip(&self.common.addrs) {
            if let Some(detected_at) = slot.take() {
                self.common.obs.ended.inc();
                events.push(DetectorEvent::Ended(Alert {
                    customer,
                    attack_type: self.common.attack_type,
                    detected_at,
                    mitigation_end: Some(minute),
                }));
            }
        }
        events
    }

    /// Snapshots the full detector — configuration, model parameters, and
    /// every customer's streaming state, customers sorted by address — into
    /// the XCK1 detector record. Telemetry is deliberately excluded:
    /// counters restart at zero on resume and cover the resumed segment
    /// only. Companion state is not checkpointed either: a companion is
    /// re-attached after restore via [`FleetDetector::set_companion`],
    /// which re-warms the rings.
    pub fn to_checkpoint(&mut self) -> DetectorCheckpoint {
        self.common.checkpoint(&self.ledger, &self.numeric)
    }

    /// Rebuilds a detector from a checkpoint, validating every invariant
    /// the streaming logic depends on; it resumes bit-identically to the
    /// detector that was snapshotted. Dense ids are assigned in checkpoint
    /// (address) order. The kernels dispatch as the environment says; see
    /// [`FleetDetector::set_simd`] to resume under a configuration.
    /// Validation failures surface as [`XatuError::InvalidCheckpoint`].
    pub fn from_checkpoint(ck: &DetectorCheckpoint) -> Result<Self, XatuError> {
        let (common, ledger, numeric) = restore(ck)?;
        Ok(Self::assemble(common, ledger, numeric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use xatu_simnet::faults::{FaultKind, FaultSchedule, BUILTIN_SCHEDULES};

    fn cfg() -> XatuConfig {
        XatuConfig {
            timescales: (1, 3, 6),
            short_len: 8,
            medium_len: 6,
            long_len: 4,
            window: 6,
            hidden: 5,
            ..XatuConfig::smoke_test()
        }
    }

    const N_CUST: usize = 7;
    /// Near the untrained model's resting survival, so the alert lifecycle
    /// flaps: raises, quiet-ends and force-ends all fire.
    const THRESHOLD: f64 = 0.9;

    fn addr(c: usize) -> Ipv4 {
        Ipv4(0x0a00_0000 + c as u32)
    }

    /// Deterministic sparse-ish frames: a handful of scattered features, an
    /// occasional NaN (sanitization), a surge for customer 0 so alerts
    /// raise and end, and an *idle* customer (6): exactly all-zero frames
    /// outside a short burst, with one planted `-0.0`.
    fn frame(c: usize, m: u32, out: &mut [f64]) {
        out.fill(0.0);
        if c == 6 {
            if (100..112).contains(&m) {
                out[3] = 1.5 + m as f64 * 0.01;
                out[17] = -0.7;
            } else if m == 130 {
                out[9] = -0.0; // still an idle frame, bit-wise signed
            }
            return;
        }
        for k in 0..8usize {
            let idx = (c * 37 + m as usize * 13 + k * 29) % NUM_FEATURES;
            out[idx] = ((c + 1) as f64 * 0.17 + m as f64 * 0.031 + k as f64 * 0.71).sin();
        }
        if m % 23 == 3 && c % 3 == 0 {
            out[5] = f64::NAN;
        }
        if c == 0 && (60..90).contains(&m) {
            out[0] = 3.0;
        }
    }

    /// The degraded-input schedule: a short per-customer outage (imputed on
    /// return), explicit gap minutes, a long outage (cold restart: 50 > 3·6)
    /// and a late joiner.
    fn degradation(c: usize, m: u32) -> FleetInput {
        if c == 2 && (40..=45).contains(&m) {
            FleetInput::Skip
        } else if c == 3 && m % 17 == 0 && m > 0 {
            FleetInput::Gap
        } else if c == 4 && (50..100).contains(&m) {
            FleetInput::Skip
        } else if c == 5 && m < 20 {
            FleetInput::Skip
        } else {
            FleetInput::Frame
        }
    }

    /// Gap minutes of a built-in fault schedule as a detector sees them:
    /// collector outages hit everyone, customer gaps hit their customer.
    fn builtin_gaps(name: &str, total: u32) -> impl Fn(usize, u32) -> FleetInput + Sync {
        let plan = FaultSchedule::builtin(name, total, N_CUST).expect("builtin name");
        move |c, m| {
            let gap = plan.windows.iter().any(|w| {
                m >= w.start
                    && m < w.end
                    && match w.kind {
                        FaultKind::CollectorOutage => true,
                        FaultKind::CustomerGap => w.customer == Some(c),
                        _ => false,
                    }
            });
            if gap {
                FleetInput::Gap
            } else {
                FleetInput::Frame
            }
        }
    }

    type Schedule<'a> = &'a (dyn Fn(usize, u32) -> FleetInput + Sync);

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        /// `observe`: the row path, one customer per call.
        Row,
        /// `step_minute_batch` at this many threads: the block path.
        Exact(usize),
    }

    /// The two paths behind one driving interface.
    enum Front {
        Row(FleetDetector),
        Fleet(FleetDetector, usize),
    }

    impl Front {
        fn new(kind: Kind) -> Self {
            let c = cfg();
            let model = XatuModel::new(&c);
            match kind {
                Kind::Row => Front::Row(FleetDetector::new(
                    model,
                    AttackType::UdpFlood,
                    THRESHOLD,
                    &c,
                )),
                Kind::Exact(threads) => {
                    let mut det = FleetDetector::new(model, AttackType::UdpFlood, THRESHOLD, &c);
                    (0..N_CUST).for_each(|i| {
                        det.add_customer(addr(i));
                    });
                    Front::Fleet(det, threads)
                }
            }
        }

        fn load(kind: Kind, ck: &DetectorCheckpoint) -> Self {
            match kind {
                Kind::Row => Front::Row(FleetDetector::from_checkpoint(ck).expect("row restore")),
                Kind::Exact(threads) => Front::Fleet(
                    FleetDetector::from_checkpoint(ck).expect("fleet restore"),
                    threads,
                ),
            }
        }

        fn minute(&mut self, m: u32, schedule: Schedule<'_>) -> Vec<DetectorEvent> {
            match self {
                Front::Row(det) => {
                    let mut events = Vec::new();
                    let mut buf = vec![0.0; NUM_FEATURES];
                    for c in 0..N_CUST {
                        let out = match schedule(c, m) {
                            FleetInput::Skip => continue,
                            FleetInput::Gap => det.observe_gap(addr(c), m),
                            FleetInput::Frame => {
                                frame(c, m, &mut buf);
                                det.observe(addr(c), m, &buf)
                            }
                        };
                        events.extend(out.expect("in-order minute").2);
                    }
                    events
                }
                Front::Fleet(det, threads) => det
                    .step_minute_batch(m, *threads, |i, _a, out| {
                        let action = schedule(i, m);
                        if action == FleetInput::Frame {
                            frame(i, m, out);
                        }
                        action
                    })
                    .expect("in-order minute")
                    .to_vec(),
            }
        }

        fn survival_of(&self, a: Ipv4) -> f64 {
            match self {
                Front::Row(det) => det.survival_of(a),
                Front::Fleet(det, _) => det.survival_of(a),
            }
        }

        fn checkpoint(&mut self) -> DetectorCheckpoint {
            match self {
                Front::Row(det) => det.to_checkpoint(),
                Front::Fleet(det, _) => det.to_checkpoint(),
            }
        }

        fn obs(&self) -> &DetectorObs {
            match self {
                Front::Row(det) => det.obs(),
                Front::Fleet(det, _) => det.obs(),
            }
        }
    }

    /// Everything a front-end emitted over a span: every customer's
    /// survival after every minute, and the event stream.
    struct Trace {
        survivals: Vec<f64>,
        events: Vec<DetectorEvent>,
    }

    fn run(front: &mut Front, minutes: Range<u32>, schedule: Schedule<'_>) -> Trace {
        let mut t = Trace {
            survivals: Vec::new(),
            events: Vec::new(),
        };
        for m in minutes {
            t.events.extend(front.minute(m, schedule));
            t.survivals
                .extend((0..N_CUST).map(|c| front.survival_of(addr(c))));
        }
        t
    }

    /// Events keyed per customer: both paths preserve each customer's event
    /// order; only the cross-customer interleaving within a minute differs
    /// between the row path and a batch (documented on
    /// `step_minute_batch`).
    fn by_customer(events: &[DetectorEvent]) -> Vec<Vec<DetectorEvent>> {
        let mut out = vec![Vec::new(); N_CUST];
        for &e in events {
            let (DetectorEvent::Raised(a) | DetectorEvent::Ended(a)) = e;
            out[(a.customer.0 - addr(0).0) as usize].push(e);
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    /// Bit-equal survivals, equal per-customer event sequences.
    fn assert_bitwise(what: &str, a: &Trace, b: &Trace) {
        assert_eq!(
            bits(&a.survivals),
            bits(&b.survivals),
            "{what}: survival bits"
        );
        assert_eq!(
            by_customer(&a.events),
            by_customer(&b.events),
            "{what}: events"
        );
    }

    /// The differential harness: every built-in fault schedule plus the
    /// degradation schedule through the row path and the batch path at
    /// 1/2/4 threads (block kernel), asserting the documented relation
    /// between every pair, then a kill at mid-run and a resume of each path
    /// from the other's checkpoint.
    #[test]
    fn front_ends_agree_on_every_schedule() {
        let builtin: Vec<_> = BUILTIN_SCHEDULES
            .iter()
            .map(|name| (*name, builtin_gaps(name, 160)))
            .collect();
        let mut rows: Vec<(&str, u32, Schedule<'_>)> = vec![("degradation", 220, &degradation)];
        rows.extend(
            builtin
                .iter()
                .map(|(name, s)| (*name, 160, s as Schedule<'_>)),
        );

        for (name, total, schedule) in rows {
            let kill = total / 2 + 3;
            let kinds = [Kind::Row, Kind::Exact(2)];
            let mut fronts = kinds.map(Front::new);
            let head = fronts.each_mut().map(|f| run(f, 0..kill, schedule));
            let [row, exact] = &head;

            // Row ≡ batch, bitwise — scores, events, telemetry, state.
            assert_bitwise(&format!("{name}: row vs exact"), row, exact);
            assert!(
                !exact.events.is_empty() || name != "degradation",
                "no alert exercised"
            );
            if xatu_obs::enabled() {
                let (a, b) = (fronts[0].obs(), fronts[1].obs());
                for (what, x, y) in [
                    ("raised", &a.raised, &b.raised),
                    ("ended", &a.ended, &b.ended),
                    ("force_ended", &a.force_ended, &b.force_ended),
                    (
                        "warmup_suppressed",
                        &a.warmup_suppressed,
                        &b.warmup_suppressed,
                    ),
                    ("gaps_imputed", &a.gaps_imputed, &b.gaps_imputed),
                    ("values_sanitized", &a.values_sanitized, &b.values_sanitized),
                    ("cold_restarts", &a.cold_restarts, &b.cold_restarts),
                ] {
                    assert_eq!(x.get(), y.get(), "{name}: {what}");
                }
                assert_eq!(a.survival.counts(), b.survival.counts(), "{name}");
                assert_eq!(a.gap_runs.counts(), b.gap_runs.counts(), "{name}");
            }
            let cks = fronts.each_mut().map(Front::checkpoint);
            assert_eq!(cks[0], cks[1], "{name}: row and exact checkpoints differ");

            // Exact fleet: the whole event stream is thread-invariant.
            for threads in [1, 4] {
                let other = run(&mut Front::new(Kind::Exact(threads)), 0..kill, schedule);
                assert_eq!(
                    exact.events, other.events,
                    "{name}: {threads} threads, events"
                );
                assert_bitwise(
                    &format!("{name}: exact at {threads} threads"),
                    exact,
                    &other,
                );
            }

            // Kill, and resume each path from each path's file.
            let tail = fronts.each_mut().map(|f| run(f, kill..total, schedule));
            for (s, source) in kinds.iter().enumerate() {
                for target in kinds {
                    let what = format!("{name}: {source:?} checkpoint into {target:?}");
                    let resumed = run(&mut Front::load(target, &cks[s]), kill..total, schedule);
                    assert_bitwise(&what, &tail[s], &resumed);
                }
            }
        }
    }

    /// Every way a customer record can be corrupt, against the one loader:
    /// each is rejected with a message that names it.
    #[test]
    fn both_front_ends_reject_corrupt_checkpoints_identically() {
        let mut fleet = Front::new(Kind::Exact(2));
        run(&mut fleet, 0..50, &degradation);
        let good = fleet.checkpoint();
        assert!(FleetDetector::from_checkpoint(&good).is_ok());

        type Corrupt = fn(&mut DetectorCheckpoint);
        let table: [(&str, Corrupt, &str); 20] = [
            (
                "wrong period",
                |ck| ck.customers[0].dual[1].period += 1,
                "period",
            ),
            (
                "zero period",
                |ck| ck.customers[0].dual[1].period = 0,
                "dual-state period must be >= 1",
            ),
            (
                "wrong hidden",
                |ck| {
                    let d = &mut ck.customers[0].dual[2];
                    for v in [&mut d.aged_h, &mut d.aged_c, &mut d.fresh_h, &mut d.fresh_c] {
                        v.push(0.0);
                    }
                },
                "hidden size",
            ),
            (
                "wrong window",
                |ck| ck.customers[0].survival.0 = 99,
                "survival window",
            ),
            (
                "partial count at its granularity",
                |ck| ck.customers[0].med_partial.1 = 3,
                "granularity",
            ),
            (
                "non-finite scalar",
                |ck| ck.customers[0].last_survival = f64::INFINITY,
                "non-finite",
            ),
            (
                "non-finite state",
                |ck| ck.customers[0].dual[0].aged_h[0] = f64::NAN,
                "non-finite",
            ),
            (
                "duplicate address",
                |ck| {
                    let dup = ck.customers[0].clone();
                    ck.customers.push(dup);
                },
                "appears twice",
            ),
            (
                "short frame",
                |ck| ck.customers[0].last_frame.truncate(10),
                "last frame",
            ),
            (
                "ages out of range",
                |ck| ck.customers[0].dual[0].aged_age = 1000,
                "ages",
            ),
            (
                "fresh older than aged",
                |ck| {
                    let d = &mut ck.customers[0].dual[0];
                    d.fresh_age = d.aged_age + 1;
                },
                "dual-state ages out of range",
            ),
            (
                "one state vector longer",
                |ck| ck.customers[0].dual[1].fresh_c.push(0.0),
                "dual-state hidden sizes disagree",
            ),
            (
                "ring cursor",
                |ck| ck.customers[0].survival.2 = 6,
                "ring cursor",
            ),
            (
                "ring length",
                |ck| ck.customers[0].survival.1.push(0.0),
                "ring buffer length != window",
            ),
            (
                "ring overfilled",
                |ck| ck.customers[0].survival.3 = 7,
                "ring cursor out of range",
            ),
            (
                "negative ring sum",
                |ck| ck.customers[0].survival.4 = -1.0,
                "non-finite or negative hazard state",
            ),
            (
                "NaN ring sum",
                |ck| ck.customers[0].survival.4 = f64::NAN,
                "non-finite or negative hazard state",
            ),
            (
                "NaN ring slot",
                |ck| ck.customers[0].survival.1[0] = f64::NAN,
                "non-finite or negative hazard state",
            ),
            (
                "negative ring slot",
                |ck| ck.customers[0].survival.1[0] = -0.5,
                "non-finite or negative hazard state",
            ),
            (
                "missing parameter",
                |ck| {
                    ck.params.pop();
                },
                "parameters",
            ),
        ];
        for (what, corrupt, needle) in table {
            let mut bad = good.clone();
            corrupt(&mut bad);
            let err = FleetDetector::from_checkpoint(&bad)
                .map(drop)
                .expect_err(what)
                .to_string();
            assert!(err.contains(needle), "{what}: unexpected error {err:?}");
        }
    }

    #[test]
    fn fleet_is_bit_identical_across_thread_counts() {
        let [t1, t4, t3] = [1, 4, 3].map(|threads| {
            let mut front = Front::new(Kind::Exact(threads));
            let trace = run(&mut front, 0..140, &degradation);
            (trace, front)
        });
        for (other, what) in [(&t4, "4-thread"), (&t3, "3-thread")] {
            assert_eq!(
                t1.0.events, other.0.events,
                "1-thread vs {what} event streams"
            );
            assert_eq!(
                bits(&t1.0.survivals),
                bits(&other.0.survivals),
                "1-thread vs {what}"
            );
        }
        if xatu_obs::enabled() {
            let (a, b) = (t1.1.obs(), t4.1.obs());
            assert_eq!(a.survival.counts(), b.survival.counts());
            assert_eq!(a.survival.sum().to_bits(), b.survival.sum().to_bits());
            assert_eq!(a.gap_runs.sum().to_bits(), b.gap_runs.sum().to_bits());
            assert_eq!(a.raised.get(), b.raised.get());
        }
    }

    #[test]
    fn out_of_order_batch_is_reported_and_customer_untouched() {
        let mut front = Front::new(Kind::Exact(1));
        run(&mut front, 0..10, &degradation);
        let Front::Fleet(mut fleet, _) = front else {
            unreachable!()
        };
        let before = fleet.survival_of(addr(1));
        let err = fleet
            .step_minute_batch(5, 1, |i, _a, out| {
                if i == 1 {
                    frame(1, 5, out);
                    FleetInput::Frame
                } else {
                    FleetInput::Skip
                }
            })
            .expect_err("regressed minute must be rejected");
        assert!(matches!(
            err,
            XatuError::OutOfOrderMinute {
                customer,
                minute: 5,
                last: 9
            } if customer == addr(1)
        ));
        assert_eq!(before.to_bits(), fleet.survival_of(addr(1)).to_bits());
        // The stream continues normally afterwards.
        run(&mut Front::Fleet(fleet, 1), 10..11, &degradation);
    }

    #[test]
    fn close_all_ends_open_alerts() {
        let mut front = Front::new(Kind::Exact(2));
        run(&mut front, 0..60, &degradation);
        let Front::Fleet(mut fleet, _) = front else {
            unreachable!()
        };
        let open = fleet.ledger.active_since.iter().flatten().count();
        assert!(open > 0, "no alert open at close time");
        let events = fleet.close_all(60);
        assert_eq!(events.len(), open);
        assert!(events
            .iter()
            .all(|e| matches!(e, DetectorEvent::Ended(a) if a.mitigation_end == Some(60))));
        assert!(fleet.close_all(61).is_empty());
    }

    #[test]
    fn interner_and_budget_are_reported() {
        let Front::Fleet(mut fleet, _) = Front::new(Kind::Exact(1)) else {
            unreachable!()
        };
        assert_eq!(fleet.len(), N_CUST);
        assert_eq!(fleet.add_customer(addr(3)), 3, "re-adding is idempotent");
        assert_eq!(fleet.customer_index(addr(6)), Some(6));
        assert_eq!(fleet.customer_index(Ipv4(99)), None);
        assert_eq!(fleet.survival_of(Ipv4(99)), 1.0);
        let per = fleet.bytes_per_customer();
        // hidden 5, window 6: duals 3·4·5·8 = 480B, frames 3·273·8 ≈ 6.5KB.
        assert!(per > 6_000 && per < 64_000, "bytes/customer = {per}");
    }
}
