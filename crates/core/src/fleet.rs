//! The streaming detector for one attack type: every customer of a fleet,
//! a whole minute at a time, or one customer-minute at a time.
//!
//! [`FleetDetector`] keeps one record per customer and drives the detector
//! core (`crate::detector`) — its records, ladder, lifecycle and
//! checkpoint — two ways:
//!
//! * **Batch path.** [`FleetDetector::step_minute_batch`] advances every
//!   registered customer through one minute, one shard of customers per
//!   worker, in the three phases below.
//! * **Row path.** [`FleetDetector::observe`] and
//!   [`FleetDetector::observe_gap`] drive one customer through one minute
//!   — the reference the tests hold the batch path to, bit for bit. Both
//!   paths, and every imputed catch-up minute, advance the LSTM states
//!   through the same one step.
//! * **Sharding.** The id space is partitioned into contiguous blocks
//!   ([`xatu_par::block_ranges_into`]), each worker owns its block of
//!   records (a `&mut [Customer]` cut with `split_at_mut`), and events,
//!   survivals and telemetry are stitched back in block order — so all
//!   three are bit-identical for every thread count.
//! * **Companion.** An optional unsupervised [`Companion`] scores the
//!   customer instead of the survival model while the CDet feed is dark
//!   (`FleetDetector::set_feed_degraded`), before the alert lifecycle
//!   acts on the reported survival, on both paths.
//!
//! Per minute a worker runs three phases over its block: **A** per record
//! (ordering, gap bridging, input, plan), **B** per timescale (the LSTM
//! step of every record planned to step), **C** per record (survival and
//! lifecycle tails). The plan lives in the worker's scratch for the
//! minute, not in the records. Customers are independent, so the
//! regrouping changes no value, only the documented event order within a
//! minute.
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
    catch_up, check_order, finish_row, ingest, restore, row_minute, step_dense, Common, Customer,
    Due, Emitted, Net, RowScratch,
};
use crate::error::XatuError;
use crate::fusion::{Companion, Fused, Ring};
use crate::model::{XatuModel, TIMESCALES};
use xatu_detectors::alert::Alert;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::simd::{self, SimdLevel};
use xatu_nn::{AeWorkspace, FrameArena};
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
    /// This minute's plan for each record of the block: the [`Due`]
    /// timescales, or `None` for a record not driven.
    plan: Vec<Option<Due>>,
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
            plan: Vec::new(),
            impute: Emitted::default(),
            life: Emitted::default(),
            obs: DetectorObs::default(),
            err: None,
            ae_ws: AeWorkspace::new(),
            ae_window: FrameArena::new(VOLUMETRIC_WIDTH),
        }
    }
}

/// This minute's companion, if one is attached, and whether the feed is
/// dark (the companion votes).
type Vote<'a> = Option<(&'a Companion, bool)>;

/// A worker's fusion hook: the companion with its scratch, or none.
fn hook<'a>(
    vote: Vote<'a>,
    ws: &'a mut AeWorkspace,
    scratch: &'a mut FrameArena,
) -> Option<Fused<'a>> {
    let (comp, dark) = vote?;
    Some(Fused {
        comp,
        ws,
        scratch,
        dark,
    })
}

/// One shard's share of a minute: its block of records, the dense id of
/// the first, and the worker that runs them.
struct Task<'a> {
    start: usize,
    records: &'a mut [Customer],
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
    let Task { start, records, w } = task;
    let addrs = &addrs[start..start + records.len()];
    w.impute.clear();
    w.life.clear();
    w.err = None;
    w.plan.clear();
    w.plan.resize(records.len(), None);

    // Phase A: ordering, gap bridging (imputed catch-up minutes run the
    // whole row path here), this minute's input and plan.
    for (j, c) in records.iter_mut().enumerate() {
        let addr = addrs[j];
        let frame = match fill(start + j, addr, &mut w.frame) {
            FleetInput::Skip => continue,
            FleetInput::Gap => None,
            FleetInput::Frame => Some(&w.frame[..]),
        };
        if let Err(e) = check_order(&mut w.obs, c.last_minute, addr, minute) {
            w.err.get_or_insert(e);
            continue;
        }
        let hook = &mut hook(vote, &mut w.ae_ws, &mut w.ae_window);
        let (obs, row) = (&mut w.obs, &mut w.row);
        catch_up(net, obs, c, addr, minute, row, hook, &mut w.impute);
        w.plan[j] = Some(ingest(net, obs, c, frame));
    }

    // Phase B: the LSTM steps, timescale by timescale, of every record
    // planned to step. Records are independent, so shard boundaries cannot
    // move a bit. The loop stays timescale-major because fusing the three
    // phases into one pass per record measured slower: 3–4 % fewer
    // customer-minutes per second on fleet_wide and attack_storm (DESIGN
    // §13), and, rerun under `bench_e2e --trace 1`, 37.3 → 40.5 µs of step
    // time per customer-minute on fleet_wide (the split loop faster in 7
    // of 8 pairs) and 40.6 → 43.0 µs on attack_storm (5 of 8).
    for t in 0..TIMESCALES {
        for (c, due) in records.iter_mut().zip(&w.plan) {
            if let Some(due) = *due {
                step_dense(net, c, t, due, &mut w.row);
            }
        }
    }

    // Phase C: survival and lifecycle tails, clock advance.
    for ((c, due), &addr) in records.iter_mut().zip(&w.plan).zip(addrs) {
        if let Some(due) = *due {
            let hook = &mut hook(vote, &mut w.ae_ws, &mut w.ae_window);
            let (input, out) = (&mut w.row.input, &mut w.life);
            finish_row(net, &mut w.obs, c, due, addr, minute, input, hook, out);
        }
    }
}

/// The streaming detector for one attack type.
///
/// Customers are registered with [`FleetDetector::add_customer`] (or on
/// their first [`FleetDetector::observe`]) and driven either a whole
/// minute at a time ([`FleetDetector::step_minute_batch`]) or one
/// customer-minute at a time; both paths drive the same records through
/// the same core, and the differential tests compare every survival bit and
/// every lifecycle event.
#[derive(Clone)]
pub struct FleetDetector {
    common: Common,
    /// One record per customer, in dense-id order.
    customers: Vec<Customer>,
    scratch: Scratch,
    /// Optional unsupervised companion; `None` leaves every observation
    /// bit-identical to a companion-free detector. While one is attached,
    /// every record holds its companion window.
    companion: Option<Companion>,
    /// Is the CDet feed currently dark?
    feed_degraded: bool,
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
    ///
    /// # Panics
    /// Panics, naming the field, if `cfg.window` is 0 or above 2^15, or
    /// one of the model's timescale granularities is 0: shapes
    /// [`FleetDetector::from_checkpoint`] refuses too.
    pub fn new(
        model: XatuModel,
        attack_type: AttackType,
        threshold: f64,
        cfg: &XatuConfig,
    ) -> Self {
        let common = Common::new(model, attack_type, threshold, cfg);
        Self::assemble(common, Vec::new())
    }

    fn assemble(common: Common, customers: Vec<Customer>) -> Self {
        FleetDetector {
            common,
            customers,
            scratch: Scratch::default(),
            companion: None,
            feed_degraded: false,
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
    /// [`FleetDetector::new`] and [`FleetDetector::from_checkpoint`] start
    /// at the level the environment asks for (`XATU_NO_SIMD`, else the
    /// widest the host supports); this pins another.
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
            let mut c = Customer::new(&self.common.knobs());
            c.companion = (self.companion.as_ref()).map(|comp| Box::new(Ring::new(comp.window)));
            self.customers.push(c);
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

    /// The current rolling survival for a customer (1.0 if unseen).
    pub fn survival_of(&self, addr: Ipv4) -> f64 {
        let id = self.common.id_of(addr);
        id.map_or(1.0, |i| self.customers[i].last_survival)
    }

    /// Measured per-customer footprint in bytes: the records (their `Vec`'s
    /// capacity) with everything they own — live tail boxes and companion
    /// windows included — and the address list. Excludes the interner's
    /// map, which adds roughly 16 bytes per customer, and per-worker
    /// scratch, which is fleet-size-independent.
    pub fn bytes_per_customer(&self) -> usize {
        self.bytes() / self.len().max(1)
    }

    /// The footprint [`FleetDetector::bytes_per_customer`] divides.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let (records, addrs) = (&self.customers, &self.common.addrs);
        records.capacity() * size_of::<Customer>()
            + records.iter().map(Customer::heap_bytes).sum::<usize>()
            + addrs.capacity() * size_of::<Ipv4>()
    }

    /// Attaches the unsupervised companion. Every customer's companion ring
    /// is (re)built empty and re-warms over the next `window` minutes; the
    /// companion scores nobody before its ring fills, nor while the feed
    /// is lit.
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
        for c in &mut self.customers {
            c.companion = Some(Box::new(Ring::new(companion.window)));
        }
        self.companion = Some(companion);
    }

    /// The attached companion, if any.
    pub fn companion(&self) -> Option<&Companion> {
        self.companion.as_ref()
    }

    /// The once-per-minute rung tick, which the engine gives every head
    /// before it steps: `true` while the CDet feed is dark. With a
    /// companion attached, the companion scores every customer whose
    /// window is full while the feed is dark, and the solo survival is
    /// reported while it is lit; [`DetectorObs::fusion_engaged`] counts
    /// the dark onsets and [`DetectorObs::fusion_recovered`] the
    /// recoveries. Without a companion this only records the flag.
    pub(crate) fn set_feed_degraded(&mut self, degraded: bool) {
        let was = std::mem::replace(&mut self.feed_degraded, degraded);
        if self.companion.is_none() || degraded == was {
            return;
        }
        if degraded {
            self.common.obs.fusion_engaged.inc();
        } else {
            self.common.obs.fusion_recovered.inc();
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
        let dark = self.feed_degraded;
        let vote = self.companion.as_ref().map(|comp| (comp, dark));
        let net = Net::new(&self.common.model, self.common.knobs());
        let c = &mut self.customers[j];
        let (obs, w) = (&mut self.common.obs, &mut self.scratch.workers[0]);
        check_order(obs, c.last_minute, customer, minute)?;
        let hook = &mut hook(vote, &mut w.ae_ws, &mut w.ae_window);
        let (row, out) = (&mut w.row, &mut w.life);
        out.clear();
        catch_up(&net, obs, c, customer, minute, row, hook, out);
        let (h, s) = row_minute(&net, obs, c, customer, minute, frame, row, hook, out);
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
        let dark = self.feed_degraded;
        let vote = self.companion.as_ref().map(|comp| (comp, dark));
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
        let mut rest = &mut self.customers[..];
        // The ranges live in reusable scratch, the blocks are carved by
        // borrow splitting, the task slots sit on the stack and the worker
        // threads are a persistent parked pool: zero allocations per
        // minute at any thread count once the pool has spun up.
        let active = if threads == 1 {
            let task = Task {
                start: 0,
                records: rest,
                w: &mut s.workers[0],
            };
            run_shard(&net, addrs, minute, &fill, vote, task);
            1
        } else {
            block_ranges_into(addrs.len(), threads, &mut s.ranges);
            let parts = s.ranges.len();
            let pool = s.pool.get_or_insert_with(WorkerPool::default);
            pool.ensure_workers(parts - 1);
            let mut slots: [Option<Task<'_>>; MAX_SHARDS] = std::array::from_fn(|_| None);
            let shards = s.ranges.iter().zip(&mut s.workers).zip(&mut slots);
            for ((&(start, end), w), slot) in shards {
                let (records, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
                rest = tail;
                *slot = Some(Task { start, records, w });
            }
            pool.run_tasks(&mut slots[..parts], &|slot| {
                if let Some(task) = slot.take() {
                    run_shard(&net, addrs, minute, &fill, vote, task);
                }
            });
            parts
        };

        // Catch-up events, then this minute's, then telemetry and the
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
        for (c, &customer) in self.customers.iter_mut().zip(&self.common.addrs) {
            if let Some(detected_at) = c.active_since.take() {
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
        self.common.checkpoint(&self.customers)
    }

    /// Rebuilds a detector from a checkpoint, validating every invariant
    /// the streaming logic depends on; it resumes bit-identically to the
    /// detector that was snapshotted. Dense ids are assigned in checkpoint
    /// (address) order. The kernels dispatch as the environment says; see
    /// [`FleetDetector::set_simd`].
    /// Validation failures surface as [`XatuError::InvalidCheckpoint`].
    pub fn from_checkpoint(ck: &DetectorCheckpoint) -> Result<Self, XatuError> {
        let (common, customers) = restore(ck)?;
        Ok(Self::assemble(common, customers))
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
        if m % 23 == 3 && c.is_multiple_of(3) {
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
        } else if c == 3 && m.is_multiple_of(17) && m > 0 {
            FleetInput::Gap
        } else if (c == 4 && (50..100).contains(&m)) || (c == 5 && m < 20) {
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
    /// 1/2/4 threads, asserting the documented relation between every
    /// pair, then a kill at mid-run and a resume of each path from the
    /// other's checkpoint.
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
                |ck| ck.customers[0].partial[1].1 = 3,
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

    /// Every timescale pools at (2, 4, 8), the short one included: the row
    /// and batch paths agree bit for bit under the degradation schedule,
    /// and a run killed mid-bucket and resumed through a checkpoint file
    /// equals the uninterrupted one.
    #[test]
    fn front_ends_agree_and_resume_when_every_timescale_pools() {
        let c = XatuConfig {
            timescales: (2, 4, 8),
            ..cfg()
        };
        let model = XatuModel::new(&c);
        let new = || FleetDetector::new(model.clone(), AttackType::UdpFlood, THRESHOLD, &c);
        let mut buf = vec![0.0; NUM_FEATURES];
        let mut row = new();
        let mut batch = new();
        (0..N_CUST).for_each(|i| {
            batch.add_customer(addr(i));
        });
        let step = |det: &mut FleetDetector, m: u32| {
            det.step_minute_batch(m, 2, |i, _, out| {
                let action = degradation(i, m);
                if action == FleetInput::Frame {
                    frame(i, m, out);
                }
                action
            })
            .expect("in-order minute")
            .to_vec()
        };
        let (kill, total) = (101u32, 160u32);
        let path = std::env::temp_dir().join(format!("xatu_pooled_{}", std::process::id()));
        let mut resumed = None;
        for m in 0..total {
            for i in 0..N_CUST {
                match degradation(i, m) {
                    FleetInput::Skip => continue,
                    FleetInput::Gap => row.observe_gap(addr(i), m),
                    FleetInput::Frame => {
                        frame(i, m, &mut buf);
                        row.observe(addr(i), m, &buf)
                    }
                }
                .expect("in-order minute");
            }
            if m == kill {
                crate::checkpoint::save_detector(&path, &batch.to_checkpoint()).expect("save");
                let ck = crate::checkpoint::load_detector(&path).expect("load");
                let _ = std::fs::remove_file(&path);
                assert_eq!(ck, batch.to_checkpoint(), "checkpoint round trip");
                let open = ck.customers[0].partial.each_ref().map(|p| p.1);
                assert_eq!(open, [1, 1, 5], "buckets open at the kill");
                resumed = Some(FleetDetector::from_checkpoint(&ck).expect("restore"));
            }
            let events = step(&mut batch, m);
            if let Some(det) = &mut resumed {
                assert_eq!(step(det, m), events, "minute {m}: resumed events");
            }
            for i in 0..N_CUST {
                let want = batch.survival_of(addr(i)).to_bits();
                assert_eq!(row.survival_of(addr(i)).to_bits(), want, "minute {m}");
                if let Some(det) = &resumed {
                    assert_eq!(det.survival_of(addr(i)).to_bits(), want, "minute {m}");
                }
            }
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
        let open = fleet
            .customers
            .iter()
            .filter(|c| c.active_since.is_some())
            .count();
        assert!(open > 0, "no alert open at close time");
        let events = fleet.close_all(60);
        assert_eq!(events.len(), open);
        assert!(events
            .iter()
            .all(|e| matches!(e, DetectorEvent::Ended(a) if a.mitigation_end == Some(60))));
        assert!(fleet.close_all(61).is_empty());
    }

    /// `new` refuses a survival window of 0 or past 2^15 and a zero
    /// granularity with a panic that names the field, and a checkpoint of
    /// the same shape is refused by the same check.
    #[test]
    fn new_refuses_the_shapes_restore_refuses() {
        let good = FleetDetector::new(
            XatuModel::new(&cfg()),
            AttackType::UdpFlood,
            THRESHOLD,
            &cfg(),
        )
        .to_checkpoint();
        for (c, field) in [
            (XatuConfig { window: 0, ..cfg() }, "survival window 0 "),
            (
                XatuConfig {
                    window: (1 << 15) + 1,
                    ..cfg()
                },
                "survival window 32769 ",
            ),
            (
                XatuConfig {
                    timescales: (1, 0, 6),
                    ..cfg()
                },
                "timescale granularities [1, 0, 6]",
            ),
        ] {
            let model = XatuModel::new(&c);
            let new = std::panic::AssertUnwindSafe(|| {
                FleetDetector::new(model, AttackType::UdpFlood, THRESHOLD, &c)
            });
            let err = std::panic::catch_unwind(new).map(drop).expect_err(field);
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains(field), "{field}: {msg}");

            let mut ck = good.clone();
            ck.window = c.window as u64;
            ck.timescales = c.timescales;
            let err = FleetDetector::from_checkpoint(&ck)
                .map(drop)
                .expect_err(field);
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn interner_and_budget_are_reported() {
        use std::mem::size_of;
        let Front::Fleet(mut fleet, _) = Front::new(Kind::Exact(1)) else {
            unreachable!()
        };
        assert_eq!(fleet.len(), N_CUST);
        assert_eq!(fleet.add_customer(addr(3)), 3, "re-adding is idempotent");
        assert_eq!(fleet.customer_index(addr(6)), Some(6));
        assert_eq!(fleet.customer_index(Ipv4(99)), None);
        assert_eq!(fleet.survival_of(Ipv4(99)), 1.0);
        // Seven customers pushed one at a time, capacity as `Vec` grows it:
        // 8 records of 656 B (the frame's 63-f64 head inline) = 5,248 B.
        // Each record owns its dual states (3 timescales × 4 halves × 5
        // f64 = 480 B), its ring (6 f64 = 48 B) and two tail-free buckets
        // (medium and long, 520 B each; none for the granularity-1
        // timescale): 1,568 B, 10,976 B for seven. 8 addresses = 32 B.
        // 16,256 B in all.
        assert_eq!(size_of::<Customer>(), 656);
        assert_eq!(fleet.bytes(), 16_256);
        assert_eq!(fleet.bytes_per_customer(), 16_256 / N_CUST);

        // Customer 2's tail is set at minute 1 only: that adds a box to its
        // frame and to both open buckets. Turning off frees the frame's at
        // once and each bucket's at its reset (medium at minute 2, long at
        // minute 5).
        let tail = (NUM_FEATURES - VOLUMETRIC_WIDTH) * size_of::<f64>();
        let base = fleet.bytes();
        let step = |fleet: &mut FleetDetector, m: u32| {
            fleet
                .step_minute_batch(m, 1, |i, _, out| {
                    out.fill(0.0);
                    out[0] = 0.5;
                    if i == 2 && m == 1 {
                        out[VOLUMETRIC_WIDTH + 40] = 0.25;
                    }
                    FleetInput::Frame
                })
                .expect("in-order minute");
        };
        for (m, boxes) in [0, 3, 1, 1, 1, 0].into_iter().enumerate() {
            step(&mut fleet, m as u32);
            assert_eq!(fleet.bytes(), base + boxes * tail, "minute {m}");
        }

        // A companion adds every record's window: a 40-B ring and its
        // 6 × 63 f64 (3,024 B), 3,064 B per customer, which stepping
        // leaves as it is.
        let mut init = xatu_nn::init::Initializer::new(3);
        fleet.set_companion(Companion {
            ae: xatu_nn::LstmAutoencoder::new(VOLUMETRIC_WIDTH, 3, &mut init),
            norm: crate::fusion::ErrorNormalizer::new(0.0, 1.0),
            window: 6,
        });
        let with = base + N_CUST * 3_064;
        assert_eq!(size_of::<Ring>(), 40);
        assert_eq!(fleet.bytes(), with);
        assert_eq!(fleet.bytes_per_customer(), with / N_CUST);
        for m in 6..14 {
            step(&mut fleet, m);
        }
        assert_eq!(fleet.bytes(), with);
    }
}
