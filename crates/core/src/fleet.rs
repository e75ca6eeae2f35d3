//! Fleet-scale online detection: one detector instance serving 100k+
//! customers, a whole minute at a time.
//!
//! [`FleetDetector`] is the batch front-end of the detector core
//! ([`crate::detector`]): the same rows, ladder, lifecycle and checkpoint
//! as [`crate::online::OnlineDetector`], advanced for every registered
//! customer per call instead of one customer per call.
//!
//! * **Kernels.** [`FleetDetector::step_minute_batch`] advances whole
//!   blocks of customers through one LSTM step at a time via the block
//!   kernel, which is pinned 0-ULP identical to the row kernel. Rare
//!   ragged work (gap imputation) runs the row kernel on the same rows.
//! * **Sharding.** The id space is partitioned into contiguous blocks
//!   ([`xatu_par::block_ranges_into`]), each worker gets disjoint mutable
//!   views of every column, and events and telemetry are stitched back in
//!   block order — so alerts, survivals and histogram bucket counts are
//!   bit-identical for every thread count. (The one float a histogram
//!   accumulates, its diagnostic `sum`, is reduced per worker and is the
//!   only quantity outside that guarantee.)
//!
//! Per minute a worker runs three phases over its shard: **A** (per row)
//! validates ordering, bridges gaps, takes the minute's input and plans
//! which timescales step; **B** (batched) advances the dual states over
//! contiguous runs of planned rows; **C** (per row) runs the survival and
//! lifecycle tails. Customers are fully independent, so the regrouping
//! cannot change any value — only the (documented) event ordering within
//! a minute.

use crate::checkpoint::DetectorCheckpoint;
use crate::config::XatuConfig;
use crate::detector::{
    catch_up, check_order, finish_row, ingest, push_row, restore, Common, Ledger, Net, Numeric,
    RowScratch, Shard, Solo, DENSE, TIMESCALES,
};
use crate::error::XatuError;
use crate::model::XatuModel;
use crate::online::DetectorObs;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::NUM_FEATURES;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::simd::SimdLevel;
use xatu_nn::OnlineBlockWorkspace;
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
    /// exactly like [`crate::online::OnlineDetector::observe_gap`].
    Gap,
    /// The customer is not driven this minute at all; its clock does not
    /// advance, and the gap is bridged (imputed or cold-restarted) when it
    /// is next driven.
    Skip,
}

/// Per-worker reusable scratch. Steady-state batch steps through warm
/// workers allocate nothing.
struct Worker {
    frame: Vec<f64>,
    row: RowScratch,
    block: OnlineBlockWorkspace,
    runs: Vec<(u32, u32)>,
    impute_events: Vec<DetectorEvent>,
    life_events: Vec<DetectorEvent>,
    obs: DetectorObs,
    err: Option<XatuError>,
}

impl Worker {
    fn new() -> Self {
        Worker {
            frame: vec![0.0; NUM_FEATURES],
            row: RowScratch::default(),
            block: OnlineBlockWorkspace::default(),
            runs: Vec::new(),
            impute_events: Vec::new(),
            life_events: Vec::new(),
            obs: DetectorObs::default(),
            err: None,
        }
    }
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

/// One shard through one minute.
fn run_shard<F>(
    net: &Net<'_>,
    addrs: &[Ipv4],
    minute: u32,
    fill: &F,
    mut sh: Shard<'_>,
    w: &mut Worker,
) where
    F: Fn(usize, Ipv4, &mut [f64]) -> FleetInput,
{
    w.impute_events.clear();
    w.life_events.clear();
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
            &mut Solo,
            &mut w.impute_events,
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
                &mut Solo,
                &mut w.life_events,
            );
        }
    }
}

/// The fleet-scale streaming detector for one attack type.
///
/// Behaviourally identical to [`crate::online::OnlineDetector`] — both
/// drive the same rows through the same core, and the differential tests
/// compare every survival bit and every lifecycle event — advancing the
/// whole fleet through [`FleetDetector::step_minute_batch`].
pub struct FleetDetector {
    common: Common,
    ledger: Ledger,
    numeric: Numeric,
    /// Per-worker scratch, one per shard of the widest minute so far.
    workers: Vec<Worker>,
    events: Vec<DetectorEvent>,
    /// Persistent fork-join workers for the `threads > 1` path, spawned
    /// lazily on the first sharded minute.
    pool: Option<WorkerPool>,
    /// Reusable buffer for the per-minute shard partition.
    ranges: Vec<(usize, usize)>,
}

impl FleetDetector {
    /// Wraps a trained model with a calibrated threshold (mirrors
    /// [`crate::online::OnlineDetector::new`]).
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
            workers: Vec::new(),
            events: Vec::new(),
            pool: None,
            ranges: Vec::new(),
        }
    }

    /// The level the kernels of this detector dispatch to.
    pub fn simd_level(&self) -> SimdLevel {
        self.common.simd()
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
        self.common.set_simd(level);
    }

    /// Interns `addr`, returning its dense customer id. Idempotent: an
    /// already-registered address returns its existing id. New customers
    /// start in the cold state and go through warm-up, exactly like a
    /// first [`crate::online::OnlineDetector::observe`].
    pub fn add_customer(&mut self, addr: Ipv4) -> usize {
        let (i, new) = self.common.intern(addr);
        if new {
            push_row(&mut self.ledger, &mut self.numeric, self.common.window);
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

    /// The detector's embedded telemetry. Histogram bucket counts and all
    /// counters are bit-identical for every thread count; histogram `sum`
    /// fields are reduced per worker and may differ in rounding.
    pub fn obs(&self) -> &DetectorObs {
        &self.common.obs
    }

    /// Zeroes the embedded telemetry.
    pub fn reset_obs(&mut self) {
        self.common.obs = DetectorObs::default();
    }

    /// The calibrated threshold.
    pub fn threshold(&self) -> f64 {
        self.common.threshold
    }

    /// Updates the threshold (re-calibration between periods).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.common.threshold = threshold;
    }

    /// Overrides the warm-up length.
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
        self.common.survival_of(&self.ledger, addr)
    }

    /// Measured total arena footprint in bytes (excludes the interner,
    /// which adds roughly 16 bytes per customer, and per-worker scratch,
    /// which is fleet-size-independent).
    pub fn arena_bytes(&self) -> usize {
        self.ledger.bytes()
            + self.common.addrs.capacity() * std::mem::size_of::<Ipv4>()
            + self.numeric.bytes()
    }

    /// Measured per-customer state budget in bytes.
    pub fn bytes_per_customer(&self) -> usize {
        self.arena_bytes() / self.common.addrs.len().max(1)
    }

    /// Advances every registered customer to `minute` across `threads`
    /// workers, and returns this minute's lifecycle events.
    ///
    /// `fill` is consulted once per customer, in id order within each
    /// shard: it may write a real frame into the provided
    /// [`NUM_FEATURES`]-wide buffer and return [`FleetInput::Frame`],
    /// declare the minute missing with [`FleetInput::Gap`], or leave the
    /// customer undriven with [`FleetInput::Skip`]. Per customer the
    /// semantics are exactly [`crate::online::OnlineDetector::observe`] /
    /// [`observe_gap`](crate::online::OnlineDetector::observe_gap),
    /// including gap bridging since the customer's last driven minute.
    ///
    /// Events are ordered: first all catch-up (imputation / cold-restart)
    /// events in customer-id order, then all current-minute lifecycle
    /// events in customer-id order — identical for every thread count,
    /// since shard boundaries never reorder ids.
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
        self.events.clear();
        let addrs = &self.common.addrs;
        if addrs.is_empty() {
            return Ok(&self.events);
        }
        let net = Net::new(&self.common.model, self.common.knobs());
        let threads = threads.clamp(1, addrs.len()).min(MAX_SHARDS);
        while self.workers.len() < threads {
            self.workers.push(Worker::new());
        }
        let mut whole = Shard::new(&mut self.ledger, &mut self.numeric, net.k.window);
        // The ranges live in reusable scratch, the shard views are carved
        // by borrow splitting, the task slots sit on the stack and the
        // worker threads are a persistent parked pool: zero allocations
        // per minute at any thread count once the pool has spun up.
        let active = if threads == 1 {
            run_shard(&net, addrs, minute, &fill, whole, &mut self.workers[0]);
            1
        } else {
            block_ranges_into(addrs.len(), threads, &mut self.ranges);
            let parts = self.ranges.len();
            let pool = self.pool.get_or_insert_with(WorkerPool::default);
            pool.ensure_workers(parts - 1);
            let mut slots: [Option<(Shard<'_>, &mut Worker)>; MAX_SHARDS] =
                std::array::from_fn(|_| None);
            let shards = self.ranges.iter().zip(&mut self.workers).zip(&mut slots);
            for ((&(s, e), w), slot) in shards {
                *slot = Some((whole.take_front(e - s), w));
            }
            pool.run_tasks(&mut slots[..parts], &|slot| {
                if let Some((sh, w)) = slot.take() {
                    run_shard(&net, addrs, minute, &fill, sh, w);
                }
            });
            parts
        };

        // Catch-up events, then lifecycle events, then telemetry and the
        // first ordering violation — all in block order.
        let workers = &mut self.workers[..active];
        for w in workers.iter() {
            self.events.extend_from_slice(&w.impute_events);
        }
        for w in workers.iter() {
            self.events.extend_from_slice(&w.life_events);
        }
        let mut first_err = None;
        for w in workers {
            self.common.obs.merge_from(&w.obs);
            w.obs.reset();
            if first_err.is_none() {
                first_err = w.err.take();
            }
        }
        first_err.map_or(Ok(&self.events), Err)
    }

    /// Forces any open alerts to end at `minute` (end of evaluation), in
    /// customer-id order.
    pub fn close_all(&mut self, minute: u32) -> Vec<DetectorEvent> {
        self.common.close_all(&mut self.ledger, minute)
    }

    /// Snapshots the fleet into the *same* checkpoint format as
    /// [`crate::online::OnlineDetector::to_checkpoint`] (customers sorted
    /// by address), so the XCK1 container, the resume driver, and either
    /// front-end can load it interchangeably.
    pub fn to_checkpoint(&mut self) -> DetectorCheckpoint {
        self.common.checkpoint(&self.ledger, &self.numeric)
    }

    /// Rebuilds a fleet from a checkpoint — including one written by
    /// [`crate::online::OnlineDetector::to_checkpoint`]. Dense ids are
    /// assigned in checkpoint (address) order. The kernels dispatch as the
    /// environment says; see [`FleetDetector::set_simd`] to resume under a
    /// configuration.
    pub fn from_checkpoint(ck: &DetectorCheckpoint) -> Result<Self, XatuError> {
        let (common, ledger, numeric) = restore(ck)?;
        Ok(Self::assemble(common, ledger, numeric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineDetector;
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
        /// `OnlineDetector`: the scalar row path, one customer per call.
        Facade,
        /// Exact fleet at this many threads: the block path.
        Exact(usize),
    }

    /// The two front-ends behind one driving interface.
    enum Front {
        Online(OnlineDetector),
        Fleet(FleetDetector, usize),
    }

    impl Front {
        fn new(kind: Kind) -> Self {
            let c = cfg();
            let model = XatuModel::new(&c);
            match kind {
                Kind::Facade => Front::Online(OnlineDetector::new(
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
                Kind::Facade => {
                    Front::Online(OnlineDetector::from_checkpoint(ck).expect("façade restore"))
                }
                Kind::Exact(threads) => Front::Fleet(
                    FleetDetector::from_checkpoint(ck).expect("fleet restore"),
                    threads,
                ),
            }
        }

        fn minute(&mut self, m: u32, schedule: Schedule<'_>) -> Vec<DetectorEvent> {
            match self {
                Front::Online(det) => {
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
                Front::Online(det) => det.survival_of(a),
                Front::Fleet(det, _) => det.survival_of(a),
            }
        }

        fn checkpoint(&mut self) -> DetectorCheckpoint {
            match self {
                Front::Online(det) => det.to_checkpoint(),
                Front::Fleet(det, _) => det.to_checkpoint(),
            }
        }

        fn obs(&self) -> &DetectorObs {
            match self {
                Front::Online(det) => det.obs(),
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

    /// Events keyed per customer: every front-end preserves each customer's
    /// event order; only the cross-customer interleaving within a minute
    /// differs between the façade and a fleet (documented on
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
    /// degradation schedule through the façade (row path) and the exact
    /// fleet at 1/2/4 threads (block path), asserting the documented
    /// relation between every pair, then a kill at mid-run and a resume of
    /// every front-end from every other's checkpoint.
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
            let kinds = [Kind::Facade, Kind::Exact(2)];
            let mut fronts = kinds.map(Front::new);
            let head = fronts.each_mut().map(|f| run(f, 0..kill, schedule));
            let [facade, exact] = &head;

            // Façade ≡ exact, bitwise — scores, events, telemetry, state.
            assert_bitwise(&format!("{name}: façade vs exact"), facade, exact);
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
            assert_eq!(
                cks[0], cks[1],
                "{name}: façade and exact checkpoints differ"
            );

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

            // Kill, and resume every front-end from every other's file.
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

    /// Every way a customer record can be corrupt, against both loaders:
    /// each is rejected, with the same message.
    #[test]
    fn both_front_ends_reject_corrupt_checkpoints_identically() {
        let mut fleet = Front::new(Kind::Exact(2));
        run(&mut fleet, 0..50, &degradation);
        let good = fleet.checkpoint();
        assert!(FleetDetector::from_checkpoint(&good).is_ok());
        assert!(OnlineDetector::from_checkpoint(&good).is_ok());

        type Corrupt = fn(&mut DetectorCheckpoint);
        let table: [(&str, Corrupt, &str); 11] = [
            (
                "wrong period",
                |ck| ck.customers[0].dual[1].period += 1,
                "period",
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
                "ring cursor",
                |ck| ck.customers[0].survival.2 = 6,
                "ring cursor",
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
            let text = |e: Result<(), XatuError>| e.expect_err(what).to_string();
            let from_fleet = text(FleetDetector::from_checkpoint(&bad).map(drop));
            let from_online = text(OnlineDetector::from_checkpoint(&bad).map(drop));
            assert_eq!(from_fleet, from_online, "{what}: the loaders disagree");
            assert!(
                from_fleet.contains(needle),
                "{what}: unexpected error {from_fleet:?}"
            );
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
            assert_eq!(t1.1.obs().survival.counts(), t4.1.obs().survival.counts());
            assert_eq!(t1.1.obs().raised.get(), t4.1.obs().raised.get());
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
