//! The detector core: one definition of the streaming detector's state,
//! degradation ladder, alert lifecycle, telemetry and checkpoint, which
//! [`crate::fleet::FleetDetector`] drives on its row and batch paths.
//!
//! # State
//!
//! Every per-customer quantity is a column of a flat arena indexed by the
//! dense customer id the interner in [`Common`] hands out, with a fixed
//! per-customer stride. The columns come in two groups:
//!
//! * [`Ledger`] — what the tails read and write: the survival ring,
//!   pooling-bucket counts, alert lifecycle scalars, the newest driven
//!   minute, and three per-minute plan flags.
//! * [`Numeric`] — what the LSTM layers read and write: both halves of the
//!   three dual LSTM states, the two open pooling buckets and the
//!   zero-order-hold frame.
//!
//! A [`Shard`] is a set of disjoint mutable views of one contiguous block
//! of customers across all columns; [`Shard::take_front`] carves blocks
//! off for workers without allocating.
//!
//! # One scalar, one kernel
//!
//! Every column is `f64`, and every timescale steps through the model's
//! own [`Lstm`]: [`Lstm::step_online_slices`] on the row path,
//! [`Lstm::step_online_dual_block`] on the fleet's block path, pinned
//! bit-identical to two row steps. A row whose timescale takes part in a
//! minute runs the kernel; nothing is skipped or tabulated, so the stored
//! state is always the state.
//!
//! # One minute of one customer
//!
//! `ingest` (sanitize or zero-order-hold, feed both pooling buckets, plan
//! which timescales step) → LSTM steps → `finish_row` (retire consumed
//! buckets, survival tail, the companion's fusion hook, lifecycle tail).
//! [`row_minute`] runs that through the row kernel; the fleet's batch
//! worker runs the same `ingest` and `finish_row` around the block kernel.
//! Gaps since the customer's previous minute are bridged first by
//! [`catch_up`]: imputed minute by minute through [`row_minute`], or cold
//! restarted past `3 × window`. What the rows emit goes to an [`Emitted`]
//! in row order, for the caller to stitch.

use crate::checkpoint::{CustomerCheckpoint, DetectorCheckpoint, DualStateCheckpoint};
use crate::config::XatuConfig;
use crate::error::XatuError;
use crate::fusion::Fused;
use crate::model::{ModelConfig, XatuModel};
use std::collections::HashMap;
use std::ops::Range;
use xatu_detectors::alert::Alert;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::NUM_FEATURES;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::activations::softplus;
use xatu_nn::lstm::Lstm;
use xatu_nn::simd::{self, SimdLevel};
use xatu_nn::{Dense, OnlineBlockWorkspace, OnlineScratch, Params};
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
    /// Alerts ended for any reason, force-ends and `close_all` included.
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
    /// Adds another recorder's counts into this one: a fleet worker's, in
    /// shard order after every batch. Counters, bucket counts and the
    /// whole-minute `gap_runs` sum add exactly in any order; survivals,
    /// whose sum would not, are buffered in `Emitted` and observed in id
    /// order instead, so the aggregate is identical for every thread count.
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

/// What driven rows emit, in the order they were driven: lifecycle events
/// and, with telemetry on, every reported survival. Survivals are
/// buffered rather than observed where they are computed so that the
/// survival histogram's float sum accumulates in one fixed order, the
/// order [`Emitted::record`] is called in, whatever the thread count.
#[derive(Default)]
pub(crate) struct Emitted {
    pub events: Vec<DetectorEvent>,
    pub survivals: Vec<f64>,
}

impl Emitted {
    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.survivals.clear();
    }

    /// Observes the buffered survivals into `obs`, in order.
    pub(crate) fn record(&self, obs: &mut DetectorObs) {
        for &s in &self.survivals {
            obs.survival.observe(s);
        }
    }
}

/// The three timescales, in arena order: short, medium, long.
pub(crate) const TIMESCALES: usize = 3;

/// Plan flag: the row takes part in this minute (it is driven, or its
/// pooling bucket completed).
pub(crate) const RAN: u8 = 1;
/// Plan flag: the row takes part and the model's mode uses the timescale,
/// so its state steps through the LSTM kernel.
pub(crate) const DENSE: u8 = 2;

/// The immutable parts of a detector every worker shares: the layers,
/// the combiner head and the scalar knobs.
pub(crate) struct Net<'a> {
    pub layers: [&'a Lstm; TIMESCALES],
    pub head: &'a Dense,
    pub k: Knobs,
}

impl<'a> Net<'a> {
    pub(crate) fn new(model: &'a XatuModel, k: Knobs) -> Self {
        Net {
            layers: [model.lstm_short(), model.lstm_medium(), model.lstm_long()],
            head: model.head(),
            k,
        }
    }
}

/// The dual-state arena of one timescale: both halves of every customer's
/// bounded-context LSTM state as `n × hidden` row-major matrices and the
/// two context ages.
///
/// Training runs the LSTMs from a zero state over a context of `period`
/// steps; a single streaming state would instead accumulate thousands of
/// steps and drift off the training distribution. So each row keeps two
/// states that both step on every input: the *aged* one (context length in
/// `[period, 2·period)`) feeds the head, and on reaching `2·period` it is
/// replaced by the *fresh* one, which by then has exactly `period` steps
/// of context, and a zeroed fresh half starts again. Each half therefore
/// equals `Lstm::forward` over the inputs since it was last zeroed, which
/// a test in this module pins.
#[derive(Clone)]
pub(crate) struct DualArena {
    aged_h: Vec<f64>,
    aged_c: Vec<f64>,
    fresh_h: Vec<f64>,
    fresh_c: Vec<f64>,
    aged_age: Vec<u32>,
    fresh_age: Vec<u32>,
    period: u32,
    hidden: usize,
}

impl DualArena {
    fn new(hidden: usize, period: usize) -> Self {
        DualArena {
            aged_h: Vec::new(),
            aged_c: Vec::new(),
            fresh_h: Vec::new(),
            fresh_c: Vec::new(),
            aged_age: Vec::new(),
            fresh_age: Vec::new(),
            period: (period as u32).max(1),
            hidden,
        }
    }

    /// Appends one customer in the cold state: both halves zero, and the
    /// aged one counted as `period` steps old so the first promotion comes
    /// when the fresh one is fully warmed.
    fn push(&mut self) {
        let h = self.hidden;
        for col in [
            &mut self.aged_h,
            &mut self.aged_c,
            &mut self.fresh_h,
            &mut self.fresh_c,
        ] {
            col.resize(col.len() + h, 0.0);
        }
        self.aged_age.push(self.period);
        self.fresh_age.push(0);
    }

    /// Row `i`'s `[aged_h, aged_c, fresh_h, fresh_c]`.
    fn state(&self, i: usize) -> [&[f64]; 4] {
        let r = i * self.hidden..(i + 1) * self.hidden;
        [
            &self.aged_h[r.clone()],
            &self.aged_c[r.clone()],
            &self.fresh_h[r.clone()],
            &self.fresh_c[r],
        ]
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.aged_h.capacity()
            + self.aged_c.capacity()
            + self.fresh_h.capacity()
            + self.fresh_c.capacity())
            * size_of::<f64>()
            + (self.aged_age.capacity() + self.fresh_age.capacity()) * size_of::<u32>()
    }
}

/// A contiguous block of one [`DualArena`], owned mutably by one worker.
pub(crate) struct DualShard<'a> {
    aged_h: &'a mut [f64],
    aged_c: &'a mut [f64],
    fresh_h: &'a mut [f64],
    fresh_c: &'a mut [f64],
    aged_age: &'a mut [u32],
    fresh_age: &'a mut [u32],
    period: u32,
    hidden: usize,
}

/// Row `j` of an `n × NUM_FEATURES` column.
fn features(j: usize) -> Range<usize> {
    j * NUM_FEATURES..(j + 1) * NUM_FEATURES
}

/// Carves the next `n * per` elements off the front of `*rest` without
/// allocating.
pub(crate) fn take_rows<'a, T>(rest: &mut &'a mut [T], n: usize, per: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n * per);
    *rest = tail;
    head
}

impl<'a> DualShard<'a> {
    fn new(a: &'a mut DualArena) -> Self {
        DualShard {
            aged_h: &mut a.aged_h,
            aged_c: &mut a.aged_c,
            fresh_h: &mut a.fresh_h,
            fresh_c: &mut a.fresh_c,
            aged_age: &mut a.aged_age,
            fresh_age: &mut a.fresh_age,
            period: a.period,
            hidden: a.hidden,
        }
    }

    fn take_front(&mut self, n: usize) -> DualShard<'a> {
        let h = self.hidden;
        DualShard {
            aged_h: take_rows(&mut self.aged_h, n, h),
            aged_c: take_rows(&mut self.aged_c, n, h),
            fresh_h: take_rows(&mut self.fresh_h, n, h),
            fresh_c: take_rows(&mut self.fresh_c, n, h),
            aged_age: take_rows(&mut self.aged_age, n, 1),
            fresh_age: take_rows(&mut self.fresh_age, n, 1),
            period: self.period,
            hidden: h,
        }
    }

    fn row(&self, j: usize) -> Range<usize> {
        j * self.hidden..(j + 1) * self.hidden
    }

    /// Steps both halves of row `j` through the row kernel.
    fn step_one(&mut self, lstm: &Lstm, j: usize, x: &[f64], scratch: &mut OnlineScratch) {
        let r = self.row(j);
        lstm.step_online_slices(
            x,
            &mut self.aged_h[r.clone()],
            &mut self.aged_c[r.clone()],
            scratch,
        );
        lstm.step_online_slices(
            x,
            &mut self.fresh_h[r.clone()],
            &mut self.fresh_c[r],
            scratch,
        );
        self.tick(j);
    }

    /// Steps both halves of the contiguous run `a..b`, one block-kernel
    /// call. Rows are independent and block composition cannot move a
    /// bit, so this equals [`DualShard::step_one`] per row.
    pub(crate) fn step_block(
        &mut self,
        lstm: &Lstm,
        a: usize,
        b: usize,
        xs: &[f64],
        ws: &mut OnlineBlockWorkspace,
    ) {
        let r = a * self.hidden..b * self.hidden;
        lstm.step_online_dual_block(
            xs,
            b - a,
            &mut self.aged_h[r.clone()],
            &mut self.aged_c[r.clone()],
            &mut self.fresh_h[r.clone()],
            &mut self.fresh_c[r],
            ws,
        );
        for j in a..b {
            self.tick(j);
        }
    }

    /// The age bookkeeping of a step: both ages advance; at `2·period` the
    /// fresh half is promoted and a zeroed one takes its place.
    fn tick(&mut self, j: usize) {
        self.aged_age[j] += 1;
        self.fresh_age[j] += 1;
        if self.aged_age[j] >= 2 * self.period {
            let r = self.row(j);
            self.aged_h[r.clone()].copy_from_slice(&self.fresh_h[r.clone()]);
            self.aged_c[r.clone()].copy_from_slice(&self.fresh_c[r.clone()]);
            self.fresh_h[r.clone()].fill(0.0);
            self.fresh_c[r].fill(0.0);
            self.aged_age[j] = self.fresh_age[j];
            self.fresh_age[j] = 0;
        }
    }

    /// Back to the cold state [`DualArena::push`] appends.
    fn reset_row(&mut self, j: usize) {
        let r = self.row(j);
        self.aged_h[r.clone()].fill(0.0);
        self.aged_c[r.clone()].fill(0.0);
        self.fresh_h[r.clone()].fill(0.0);
        self.fresh_c[r].fill(0.0);
        self.aged_age[j] = self.period;
        self.fresh_age[j] = 0;
    }
}

/// The columns the tails read and write.
#[derive(Clone, Default)]
pub(crate) struct Ledger {
    ring_buf: Vec<f64>,
    ring_head: Vec<u32>,
    ring_filled: Vec<u32>,
    ring_sum: Vec<f64>,
    /// Frames in the open medium / long pooling bucket.
    count: [Vec<u32>; 2],
    pub active_since: Vec<Option<u32>>,
    quiet_run: Vec<u32>,
    pub last_survival: Vec<f64>,
    observed: Vec<u32>,
    stale_run: Vec<u32>,
    last_minute: Vec<Option<u32>>,
    /// Per-timescale plan flags ([`RAN`], [`DENSE`]); scratch, valid only
    /// inside one minute.
    flags: [Vec<u8>; TIMESCALES],
}

impl Ledger {
    /// Appends one customer in the cold state.
    fn push(&mut self, window: usize) {
        self.ring_buf.resize(self.ring_buf.len() + window, 0.0);
        self.ring_head.push(0);
        self.ring_filled.push(0);
        self.ring_sum.push(0.0);
        self.count.iter_mut().for_each(|c| c.push(0));
        self.active_since.push(None);
        self.quiet_run.push(0);
        self.last_survival.push(1.0);
        self.observed.push(0);
        self.stale_run.push(0);
        self.last_minute.push(None);
        self.flags.iter_mut().for_each(|f| f.push(0));
    }

    /// Measured footprint in bytes (capacities, not lengths).
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.ring_buf.capacity() + self.ring_sum.capacity() + self.last_survival.capacity())
            * size_of::<f64>()
            + (self.ring_head.capacity()
                + self.ring_filled.capacity()
                + self.count[0].capacity()
                + self.count[1].capacity()
                + self.quiet_run.capacity()
                + self.observed.capacity()
                + self.stale_run.capacity())
                * size_of::<u32>()
            + (self.active_since.capacity() + self.last_minute.capacity())
                * size_of::<Option<u32>>()
            + self.flags.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// The columns the LSTM layers read and write.
#[derive(Clone)]
pub(crate) struct Numeric {
    pub dual: [DualArena; TIMESCALES],
    /// Open medium / long pooling buckets, `n × NUM_FEATURES`. Between
    /// `ingest` and `finish_row` a completed row holds the *averaged*
    /// bucket (scaled in place).
    pub partial: [Vec<f64>; 2],
    /// Last sanitized frame (the zero-order-hold source).
    pub frame: Vec<f64>,
}

impl Numeric {
    pub(crate) fn new(hidden: usize, ctx: (usize, usize, usize)) -> Self {
        Numeric {
            dual: [ctx.0, ctx.1, ctx.2].map(|period| DualArena::new(hidden, period)),
            partial: [Vec::new(), Vec::new()],
            frame: Vec::new(),
        }
    }

    /// Appends one customer in the cold state.
    fn push(&mut self) {
        self.dual.iter_mut().for_each(DualArena::push);
        for col in self.partial.iter_mut().chain([&mut self.frame]) {
            col.resize(col.len() + NUM_FEATURES, 0.0);
        }
    }

    /// Measured footprint in bytes (capacities, not lengths).
    pub(crate) fn bytes(&self) -> usize {
        self.dual.iter().map(DualArena::bytes).sum::<usize>()
            + (self.partial[0].capacity() + self.partial[1].capacity() + self.frame.capacity())
                * std::mem::size_of::<f64>()
    }
}

/// Appends one cold customer to both column groups.
pub(crate) fn push_row(ledger: &mut Ledger, numeric: &mut Numeric, window: usize) {
    ledger.push(window);
    numeric.push();
}

/// Disjoint mutable views of every column for one contiguous customer
/// block. `start` is the global id of the first row.
pub(crate) struct Shard<'a> {
    pub start: usize,
    window: usize,
    pub dual: [DualShard<'a>; TIMESCALES],
    ring_buf: &'a mut [f64],
    ring_head: &'a mut [u32],
    ring_filled: &'a mut [u32],
    ring_sum: &'a mut [f64],
    pub partial: [&'a mut [f64]; 2],
    count: [&'a mut [u32]; 2],
    pub frame: &'a mut [f64],
    active_since: &'a mut [Option<u32>],
    quiet_run: &'a mut [u32],
    last_survival: &'a mut [f64],
    observed: &'a mut [u32],
    stale_run: &'a mut [u32],
    pub last_minute: &'a mut [Option<u32>],
    pub flags: [&'a mut [u8]; TIMESCALES],
}

impl<'a> Shard<'a> {
    /// Every registered customer as one shard.
    pub(crate) fn new(l: &'a mut Ledger, n: &'a mut Numeric, window: usize) -> Self {
        Shard {
            start: 0,
            window,
            dual: n.dual.each_mut().map(DualShard::new),
            ring_buf: &mut l.ring_buf,
            ring_head: &mut l.ring_head,
            ring_filled: &mut l.ring_filled,
            ring_sum: &mut l.ring_sum,
            partial: n.partial.each_mut().map(Vec::as_mut_slice),
            count: l.count.each_mut().map(Vec::as_mut_slice),
            frame: &mut n.frame,
            active_since: &mut l.active_since,
            quiet_run: &mut l.quiet_run,
            last_survival: &mut l.last_survival,
            observed: &mut l.observed,
            stale_run: &mut l.stale_run,
            last_minute: &mut l.last_minute,
            flags: l.flags.each_mut().map(Vec::as_mut_slice),
        }
    }

    /// Splits the first `n` customers off as their own shard; `self` keeps
    /// the rest.
    pub(crate) fn take_front(&mut self, n: usize) -> Shard<'a> {
        let (start, window) = (self.start, self.window);
        self.start += n;
        Shard {
            start,
            window,
            dual: self.dual.each_mut().map(|d| d.take_front(n)),
            ring_buf: take_rows(&mut self.ring_buf, n, window),
            ring_head: take_rows(&mut self.ring_head, n, 1),
            ring_filled: take_rows(&mut self.ring_filled, n, 1),
            ring_sum: take_rows(&mut self.ring_sum, n, 1),
            partial: self
                .partial
                .each_mut()
                .map(|p| take_rows(p, n, NUM_FEATURES)),
            count: self.count.each_mut().map(|c| take_rows(c, n, 1)),
            frame: take_rows(&mut self.frame, n, NUM_FEATURES),
            active_since: take_rows(&mut self.active_since, n, 1),
            quiet_run: take_rows(&mut self.quiet_run, n, 1),
            last_survival: take_rows(&mut self.last_survival, n, 1),
            observed: take_rows(&mut self.observed, n, 1),
            stale_run: take_rows(&mut self.stale_run, n, 1),
            last_minute: take_rows(&mut self.last_minute, n, 1),
            flags: self.flags.each_mut().map(|f| take_rows(f, n, 1)),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.last_minute.len()
    }

    /// Pushes `hazard` into row `j`'s ring of the last `window` hazards and
    /// returns the survival over them: streaming
    /// [`xatu_survival::rolling_survival`]. A non-finite hazard counts as
    /// zero, so an infinite one cannot turn the running sum into `NaN`
    /// when it rotates out.
    fn ring_push(&mut self, j: usize, hazard: f64) -> f64 {
        let w = self.window;
        let h = if hazard.is_finite() {
            hazard.max(0.0)
        } else {
            0.0
        };
        let hd = self.ring_head[j] as usize;
        let slot = &mut self.ring_buf[j * w + hd];
        self.ring_sum[j] += h - *slot;
        *slot = h;
        self.ring_head[j] = ((hd + 1) % w) as u32;
        self.ring_filled[j] = (self.ring_filled[j] + 1).min(w as u32);
        if self.ring_sum[j] < 0.0 {
            self.ring_sum[j] = 0.0;
        }
        (-self.ring_sum[j]).exp()
    }
}

/// Scalar knobs of one detector, copied out so workers share them freely.
#[derive(Clone, Copy)]
pub(crate) struct Knobs {
    attack_type: AttackType,
    threshold: f64,
    pub window: usize,
    quiet: u32,
    warmup: u32,
    max_alert_minutes: u32,
    /// Medium / long pooling granularity.
    gran: [u32; 2],
    /// Stale run at which the blend saturates and raises are suppressed.
    stale_limit: u32,
    /// Longest gap bridged by imputation; anything longer cold-restarts.
    max_imputed_gap: u32,
    hidden: usize,
    /// Which timescales the model's mode enables.
    used: [bool; TIMESCALES],
}

/// Scratch of the row path.
#[derive(Clone, Default)]
pub(crate) struct RowScratch {
    /// Scratch of the LSTM row step.
    step: OnlineScratch,
    /// Combiner input (`3·hidden`).
    pub input: Vec<f64>,
}

/// Rejects a minute at or before the customer's newest.
pub(crate) fn check_order(
    obs: &mut DetectorObs,
    last: Option<u32>,
    customer: Ipv4,
    minute: u32,
) -> Result<(), XatuError> {
    match last {
        Some(last) if minute <= last => {
            obs.out_of_order.inc();
            Err(XatuError::OutOfOrderMinute {
                customer,
                minute,
                last,
            })
        }
        _ => Ok(()),
    }
}

/// Rebuilds row `j` from scratch after an unbridgeable gap: ends any open
/// alert, resets every accumulator, re-enters warm-up. Leaves
/// `last_minute` alone.
fn cold_restart(
    k: &Knobs,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    out: &mut Emitted,
) {
    if let Some(detected_at) = sh.active_since[j].take() {
        obs.ended.inc();
        out.events.push(DetectorEvent::Ended(Alert {
            customer: addr,
            attack_type: k.attack_type,
            detected_at,
            mitigation_end: Some(minute),
        }));
    }
    sh.dual.iter_mut().for_each(|d| d.reset_row(j));
    let w = sh.window;
    sh.ring_buf[j * w..(j + 1) * w].fill(0.0);
    sh.ring_head[j] = 0;
    sh.ring_filled[j] = 0;
    sh.ring_sum[j] = 0.0;
    let r = features(j);
    for p in 0..2 {
        sh.partial[p][r.clone()].fill(0.0);
        sh.count[p][j] = 0;
    }
    sh.frame[r].fill(0.0);
    sh.quiet_run[j] = 0;
    sh.last_survival[j] = 1.0;
    sh.observed[j] = 0;
    sh.stale_run[j] = 0;
    obs.cold_restarts.inc();
}

/// Bridges the gap between row `j`'s newest minute and `minute` (which the
/// caller has checked is later): short gaps are imputed minute by minute,
/// long ones cold-restart the row (and its companion ring, if `hook` has
/// one).
#[allow(clippy::too_many_arguments)]
pub(crate) fn catch_up(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    row: &mut RowScratch,
    hook: &mut Option<Fused<'_>>,
    out: &mut Emitted,
) {
    let Some(last) = sh.last_minute[j] else {
        return;
    };
    let gap = minute - last - 1;
    if gap > net.k.max_imputed_gap {
        // Imputing hours of fiction would be slower *and* wronger than
        // admitting the context is gone.
        obs.gap_runs.observe(gap as f64);
        cold_restart(&net.k, obs, sh, j, addr, minute, out);
        if let Some(hook) = hook {
            hook.cold_restart();
        }
    } else {
        for m in last + 1..minute {
            row_minute(net, obs, sh, j, addr, m, None, row, hook, out);
        }
    }
}

/// Takes row `j`'s input for one minute — a real frame, sanitized into the
/// zero-order-hold buffer, or `None` to replay that buffer — feeds both
/// pooling buckets in the same pass, and plans the minute: the row's flag
/// for each timescale says whether it takes part and whether its state
/// steps through the LSTM kernel.
pub(crate) fn ingest(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_>,
    j: usize,
    frame: Option<&[f64]>,
) {
    let r = features(j);
    let [med, long] = &mut sh.partial;
    let (held, med, long) = (
        &mut sh.frame[r.clone()],
        &mut med[r.clone()],
        &mut long[r.clone()],
    );
    match frame {
        None => {
            sh.stale_run[j] += 1;
            obs.gaps_imputed.inc();
            for ((&v, m), l) in held.iter().zip(med).zip(long) {
                *m += v;
                *l += v;
            }
        }
        Some(raw) => {
            let mut replaced = 0u64;
            for (((dst, m), l), &x) in held.iter_mut().zip(med).zip(long).zip(raw) {
                let v = if x.is_finite() {
                    x
                } else {
                    replaced += 1;
                    0.0
                };
                *dst = v;
                *m += v;
                *l += v;
            }
            if replaced > 0 {
                obs.values_sanitized.add(replaced);
            }
            // A real frame ends any stale run.
            if sh.stale_run[j] > 0 {
                obs.gap_runs.observe(sh.stale_run[j] as f64);
                sh.stale_run[j] = 0;
            }
        }
    }
    let k = &net.k;
    let plan = |t: usize| RAN | if k.used[t] { DENSE } else { 0 };
    sh.flags[0][j] = plan(0);
    for p in 0..2 {
        sh.count[p][j] += 1;
        sh.flags[p + 1][j] = if sh.count[p][j] == k.gran[p] {
            let inv = 1.0 / k.gran[p] as f64;
            sh.partial[p][r.clone()].iter_mut().for_each(|v| *v *= inv);
            sh.count[p][j] = 0;
            plan(p + 1)
        } else {
            0
        };
    }
}

/// The aged hidden states through the combiner head, softplus hazard,
/// survival ring and staleness blend: `(hazard, reported survival)`.
fn survival_tail(net: &Net<'_>, sh: &mut Shard<'_>, j: usize, input: &mut Vec<f64>) -> (f64, f64) {
    let k = &net.k;
    let h = k.hidden;
    input.clear();
    input.resize(TIMESCALES * h, 0.0);
    for t in (0..TIMESCALES).filter(|&t| k.used[t]) {
        let d = &sh.dual[t];
        input[t * h..(t + 1) * h].copy_from_slice(&d.aged_h[d.row(j)]);
    }
    let mut logit = [0.0f64; 1];
    net.head.forward_into(input, &mut logit);
    let hazard = softplus(logit[0]);
    let raw = sh.ring_push(j, hazard);
    // With no fresh evidence the reported survival decays toward 1.0
    // ("nothing observable is wrong") as the stale run approaches the
    // survival window. The clean path reports `raw` untouched.
    let reported = if sh.stale_run[j] == 0 {
        raw
    } else {
        let w = sh.stale_run[j].min(k.stale_limit) as f64 / k.stale_limit as f64;
        raw + (1.0 - raw) * w
    };
    (hazard, reported)
}

/// Records the reported survival, applies the warm-up gate and walks the
/// alert lifecycle: raise, quiet end, force end at the cap.
#[allow(clippy::too_many_arguments)]
fn lifecycle_tail(
    k: &Knobs,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    reported: f64,
    out: &mut Emitted,
) {
    sh.last_survival[j] = reported;
    sh.observed[j] += 1;
    if xatu_obs::enabled() {
        out.survivals.push(reported);
    }
    if sh.observed[j] <= k.warmup {
        obs.warmup_suppressed.inc();
        return;
    }
    match sh.active_since[j] {
        None => {
            // Stale input can never *raise*: a new alert needs fresh
            // evidence, and an imputed minute only replays old evidence.
            // (Open alerts may still *end* on stale input, below.)
            if reported < k.threshold && sh.stale_run[j] == 0 {
                sh.active_since[j] = Some(minute);
                sh.quiet_run[j] = 0;
                obs.raised.inc();
                out.events.push(DetectorEvent::Raised(Alert {
                    customer: addr,
                    attack_type: k.attack_type,
                    detected_at: minute,
                    mitigation_end: None,
                }));
            }
        }
        Some(detected_at) => {
            let over_cap = minute.saturating_sub(detected_at) >= k.max_alert_minutes;
            if reported < k.threshold && !over_cap {
                sh.quiet_run[j] = 0;
                return;
            }
            sh.quiet_run[j] += 1;
            if sh.quiet_run[j] >= k.quiet || over_cap {
                sh.active_since[j] = None;
                sh.quiet_run[j] = 0;
                obs.ended.inc();
                if over_cap {
                    obs.force_ended.inc();
                }
                out.events.push(DetectorEvent::Ended(Alert {
                    customer: addr,
                    attack_type: k.attack_type,
                    detected_at,
                    mitigation_end: Some(minute),
                }));
            }
        }
    }
}

/// Everything after row `j`'s LSTM states have advanced: retire the
/// buckets this minute consumed, survival tail, the companion's fusion (if
/// `hook` has one), lifecycle tail, clock. Returns `(hazard, reported
/// survival)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_row(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    input: &mut Vec<f64>,
    hook: &mut Option<Fused<'_>>,
    out: &mut Emitted,
) -> (f64, f64) {
    let r = features(j);
    for p in 0..2 {
        if sh.flags[p + 1][j] != 0 {
            sh.partial[p][r.clone()].fill(0.0);
        }
    }
    let (hazard, reported) = survival_tail(net, sh, j, input);
    let reported = match hook {
        Some(hook) => hook.fuse(obs, &sh.frame[r], reported),
        None => reported,
    };
    lifecycle_tail(&net.k, obs, sh, j, addr, minute, reported, out);
    sh.last_minute[j] = Some(minute);
    (hazard, reported)
}

/// One customer through one minute on the row path: `ingest`, the
/// row kernel for every timescale planned [`DENSE`], `finish_row`.
/// `frame` is `None` for an imputed minute.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_minute(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    frame: Option<&[f64]>,
    row: &mut RowScratch,
    hook: &mut Option<Fused<'_>>,
    out: &mut Emitted,
) -> (f64, f64) {
    ingest(net, obs, sh, j, frame);
    let r = features(j);
    for t in 0..TIMESCALES {
        if sh.flags[t][j] & DENSE != 0 {
            let x = if t == 0 {
                &sh.frame[r.clone()]
            } else {
                &sh.partial[t - 1][r.clone()]
            };
            sh.dual[t].step_one(net.layers[t], j, x, &mut row.step);
        }
    }
    finish_row(net, obs, sh, j, addr, minute, &mut row.input, hook, out)
}

/// What the detector owns besides its rows: the model, the serving
/// configuration, the address interner and the telemetry.
#[derive(Clone)]
pub(crate) struct Common {
    pub model: XatuModel,
    pub attack_type: AttackType,
    pub threshold: f64,
    pub window: usize,
    quiet: u32,
    /// Per-customer observations to ignore before alerting: LSTM states
    /// need to settle from their cold start.
    pub warmup: u32,
    /// Training context lengths: the dual states reset on these periods so
    /// serving matches the training distribution.
    pub ctx_lens: (usize, usize, usize),
    /// The scrubbing centre stops diverting a customer's traffic once it
    /// runs clean (§2.1), so a stuck alert is force-ended after this many
    /// minutes and must re-trigger.
    pub max_alert_minutes: u32,
    /// Registered addresses in dense-id order.
    pub addrs: Vec<Ipv4>,
    index: HashMap<Ipv4, u32>,
    pub obs: DetectorObs,
    /// The dispatch level of the model's online kernels.
    pub simd: SimdLevel,
}

impl Common {
    /// The one place a model meets a configuration, for every front-end:
    /// [`XatuConfig::no_simd`] beats the environment and auto-detection.
    pub(crate) fn new(
        mut model: XatuModel,
        attack_type: AttackType,
        threshold: f64,
        cfg: &XatuConfig,
    ) -> Self {
        let simd = if cfg.no_simd {
            SimdLevel::Scalar
        } else {
            simd::detect()
        };
        model.set_simd(simd);
        Common {
            model,
            attack_type,
            threshold,
            window: cfg.window,
            quiet: 5,
            warmup: 2 * cfg.window as u32,
            ctx_lens: (cfg.short_len, cfg.medium_len, cfg.long_len),
            max_alert_minutes: 45,
            addrs: Vec::new(),
            index: HashMap::new(),
            obs: DetectorObs::default(),
            simd,
        }
    }

    pub(crate) fn knobs(&self) -> Knobs {
        let (_, med_gran, long_gran) = self.model.cfg.timescales;
        let (use_s, use_m, use_l) = self.model.cfg.mode.enabled();
        Knobs {
            attack_type: self.attack_type,
            threshold: self.threshold,
            window: self.window,
            quiet: self.quiet,
            warmup: self.warmup,
            max_alert_minutes: self.max_alert_minutes,
            gran: [med_gran, long_gran],
            stale_limit: (self.window as u32).max(1),
            max_imputed_gap: 3 * self.window as u32,
            hidden: self.model.cfg.hidden,
            used: [use_s, use_m, use_l],
        }
    }

    /// The dense id of `addr`, if registered.
    pub(crate) fn id_of(&self, addr: Ipv4) -> Option<usize> {
        self.index.get(&addr).map(|&i| i as usize)
    }

    /// The dense id of `addr`, registering it if new (second field).
    pub(crate) fn intern(&mut self, addr: Ipv4) -> (usize, bool) {
        if let Some(i) = self.id_of(addr) {
            return (i, false);
        }
        let i = self.addrs.len();
        self.index.insert(addr, i as u32);
        self.addrs.push(addr);
        (i, true)
    }

    /// Snapshots configuration, model parameters and every customer's
    /// streaming state (sorted by address). Telemetry is excluded:
    /// counters restart at zero on resume.
    pub(crate) fn checkpoint(&mut self, ledger: &Ledger, numeric: &Numeric) -> DetectorCheckpoint {
        let mut params = vec![0.0; self.model.param_count()];
        self.model.export_params_into(&mut params);
        let w = self.window;
        let mut order: Vec<usize> = (0..self.addrs.len()).collect();
        order.sort_unstable_by_key(|&i| self.addrs[i].0);
        let customers = order
            .into_iter()
            .map(|i| {
                let dual = std::array::from_fn(|t| {
                    let d = &numeric.dual[t];
                    let [aged_h, aged_c, fresh_h, fresh_c] = d.state(i).map(<[f64]>::to_vec);
                    DualStateCheckpoint {
                        aged_h,
                        aged_c,
                        fresh_h,
                        fresh_c,
                        aged_age: d.aged_age[i],
                        fresh_age: d.fresh_age[i],
                        period: d.period,
                    }
                });
                let r = features(i);
                CustomerCheckpoint {
                    addr: self.addrs[i].0,
                    dual,
                    survival: (
                        w as u64,
                        ledger.ring_buf[i * w..(i + 1) * w].to_vec(),
                        ledger.ring_head[i] as u64,
                        ledger.ring_filled[i] as u64,
                        ledger.ring_sum[i],
                    ),
                    med_partial: (numeric.partial[0][r.clone()].to_vec(), ledger.count[0][i]),
                    long_partial: (numeric.partial[1][r.clone()].to_vec(), ledger.count[1][i]),
                    active_since: ledger.active_since[i],
                    quiet_run: ledger.quiet_run[i],
                    last_survival: ledger.last_survival[i],
                    observed: ledger.observed[i],
                    last_frame: numeric.frame[r].to_vec(),
                    stale_run: ledger.stale_run[i],
                    last_minute: ledger.last_minute[i],
                }
            })
            .collect();
        DetectorCheckpoint {
            attack_type: self.attack_type,
            threshold: self.threshold,
            window: w as u64,
            quiet: self.quiet,
            warmup: self.warmup,
            ctx_lens: (
                self.ctx_lens.0 as u64,
                self.ctx_lens.1 as u64,
                self.ctx_lens.2 as u64,
            ),
            max_alert_minutes: self.max_alert_minutes,
            timescales: self.model.cfg.timescales,
            hidden: self.model.cfg.hidden as u64,
            mode: self.model.cfg.mode,
            params,
            customers,
        }
    }
}

/// Rebuilds a detector's state from a checkpoint, validating every
/// invariant the streaming logic depends on: shape agreement, finite
/// floats, consistent dual-state ages, periods that match the
/// checkpoint's context lengths, one record per address. Dense ids are
/// assigned in checkpoint (address) order. Failures surface as
/// [`XatuError::InvalidCheckpoint`].
pub(crate) fn restore(ck: &DetectorCheckpoint) -> Result<(Common, Ledger, Numeric), XatuError> {
    let bad = |reason: String| XatuError::invalid_checkpoint(reason);
    if ck.timescales.0 == 0 || ck.timescales.1 == 0 || ck.timescales.2 == 0 {
        return Err(bad("timescale granularities must be >= 1".into()));
    }
    let mut model = XatuModel::with_config(ModelConfig {
        timescales: ck.timescales,
        hidden: ck.hidden as usize,
        mode: ck.mode,
    });
    if ck.params.len() != model.param_count() {
        return Err(bad(format!(
            "checkpoint has {} parameters, model shape needs {}",
            ck.params.len(),
            model.param_count()
        )));
    }
    if ck.params.iter().any(|v| !v.is_finite()) {
        return Err(bad("non-finite model parameter".into()));
    }
    model.import_params_from(&ck.params);
    // A checkpoint does not record the level: resumed detectors follow the
    // environment.
    let simd = simd::detect();
    model.set_simd(simd);
    if ck.window == 0 {
        return Err(bad("survival window must be >= 1".into()));
    }
    let ctx_lens = (
        ck.ctx_lens.0 as usize,
        ck.ctx_lens.1 as usize,
        ck.ctx_lens.2 as usize,
    );
    let mut common = Common {
        model,
        attack_type: ck.attack_type,
        threshold: ck.threshold,
        window: ck.window as usize,
        quiet: ck.quiet,
        warmup: ck.warmup,
        ctx_lens,
        max_alert_minutes: ck.max_alert_minutes,
        addrs: Vec::new(),
        index: HashMap::with_capacity(ck.customers.len()),
        obs: DetectorObs::default(),
        simd,
    };
    let mut ledger = Ledger::default();
    let mut numeric = Numeric::new(ck.hidden as usize, ctx_lens);
    for c in &ck.customers {
        let (i, new) = common.intern(Ipv4(c.addr));
        if !new {
            return Err(bad(format!("customer {} appears twice", c.addr)));
        }
        push_row(&mut ledger, &mut numeric, common.window);
        restore_customer(&common, &mut ledger, &mut numeric, i, c)
            .map_err(|e| bad(format!("customer {}: {e}", c.addr)))?;
    }
    Ok((common, ledger, numeric))
}

/// Validates one customer's record and loads it into row `i`. Every check
/// runs on the record before any of it is copied into the arena: a state
/// the stepping logic can never reach (mismatched sizes, an age at or past
/// the promotion point, a poisoned ring) is rejected, not served.
fn restore_customer(
    common: &Common,
    ledger: &mut Ledger,
    numeric: &mut Numeric,
    i: usize,
    c: &CustomerCheckpoint,
) -> Result<(), String> {
    let hidden = common.model.cfg.hidden;
    for (d, arena) in c.dual.iter().zip(&numeric.dual) {
        if d.period == 0 {
            return Err("dual-state period must be >= 1".into());
        }
        let halves = [&d.aged_h, &d.aged_c, &d.fresh_h, &d.fresh_c];
        let h = d.aged_h.len();
        if halves.iter().any(|v| v.len() != h) {
            return Err("dual-state hidden sizes disagree".into());
        }
        if u64::from(d.aged_age) >= 2 * u64::from(d.period) || d.fresh_age > d.aged_age {
            return Err("dual-state ages out of range".into());
        }
        if halves.iter().any(|v| v.iter().any(|x| !x.is_finite())) {
            return Err("non-finite dual-state values".into());
        }
        if h != hidden {
            return Err(format!(
                "dual-state hidden size {h} does not match model hidden {hidden}"
            ));
        }
        if d.period != arena.period {
            return Err(format!(
                "dual-state period {} does not match the detector's context length {}",
                d.period, arena.period
            ));
        }
    }

    let w = common.window;
    let (cw, buf, head, filled, sum) = &c.survival;
    if *cw as usize != w {
        return Err(format!(
            "survival window {cw} does not match detector window {w}"
        ));
    }
    if buf.len() != w {
        return Err("ring buffer length != window".into());
    }
    if *head as usize >= w || *filled as usize > w {
        return Err("ring cursor out of range".into());
    }
    if !sum.is_finite() || *sum < 0.0 || buf.iter().any(|v| !v.is_finite() || *v < 0.0) {
        return Err("non-finite or negative hazard state".into());
    }

    let partials = [("medium", &c.med_partial), ("long", &c.long_partial)];
    for (name, partial) in partials {
        if partial.0.len() != NUM_FEATURES {
            return Err(format!(
                "{name} partial bucket has width {}",
                partial.0.len()
            ));
        }
        if partial.0.iter().any(|v| !v.is_finite()) {
            return Err(format!("non-finite value in {name} partial bucket"));
        }
    }
    let (_, med_gran, long_gran) = common.model.cfg.timescales;
    if c.med_partial.1 >= med_gran || c.long_partial.1 >= long_gran {
        return Err("partial bucket count at or past its granularity".into());
    }
    if c.last_frame.len() != NUM_FEATURES {
        return Err(format!("last frame has width {}", c.last_frame.len()));
    }
    if c.last_frame.iter().any(|v| !v.is_finite()) || !c.last_survival.is_finite() {
        return Err("non-finite value in customer scalars".into());
    }

    for (d, arena) in c.dual.iter().zip(&mut numeric.dual) {
        let r = i * hidden..(i + 1) * hidden;
        arena.aged_h[r.clone()].copy_from_slice(&d.aged_h);
        arena.aged_c[r.clone()].copy_from_slice(&d.aged_c);
        arena.fresh_h[r.clone()].copy_from_slice(&d.fresh_h);
        arena.fresh_c[r].copy_from_slice(&d.fresh_c);
        arena.aged_age[i] = d.aged_age;
        arena.fresh_age[i] = d.fresh_age;
    }
    ledger.ring_buf[i * w..(i + 1) * w].copy_from_slice(buf);
    ledger.ring_head[i] = *head as u32;
    ledger.ring_filled[i] = *filled as u32;
    ledger.ring_sum[i] = *sum;
    let r = features(i);
    for (p, (_, partial)) in partials.into_iter().enumerate() {
        numeric.partial[p][r.clone()].copy_from_slice(&partial.0);
        ledger.count[p][i] = partial.1;
    }
    numeric.frame[r].copy_from_slice(&c.last_frame);
    ledger.active_since[i] = c.active_since;
    ledger.quiet_run[i] = c.quiet_run;
    ledger.last_survival[i] = c.last_survival;
    ledger.observed[i] = c.observed;
    ledger.stale_run[i] = c.stale_run;
    ledger.last_minute[i] = c.last_minute;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xatu_nn::pooling::avg_pool;
    use xatu_survival::hazard::rolling_survival;

    /// Short periods, so a one-hour stream promotes every timescale's
    /// fresh half several times.
    fn cfg() -> XatuConfig {
        XatuConfig {
            timescales: (1, 3, 6),
            short_len: 4,
            medium_len: 2,
            long_len: 2,
            window: 5,
            hidden: 3,
            ..XatuConfig::smoke_test()
        }
    }

    /// A detector core with one cold customer in row 0.
    fn one_row(c: &XatuConfig) -> (Common, Ledger, Numeric) {
        let common = Common::new(XatuModel::new(c), AttackType::UdpFlood, 0.5, c);
        let mut ledger = Ledger::default();
        let mut numeric = Numeric::new(c.hidden, (c.short_len, c.medium_len, c.long_len));
        push_row(&mut ledger, &mut numeric, c.window);
        (common, ledger, numeric)
    }

    /// A sparse frame with a NaN now and then (sanitized to zero on ingest).
    fn frame(m: u32) -> Vec<f64> {
        let mut f = vec![0.0; NUM_FEATURES];
        for k in 0..6 {
            f[(m as usize * 41 + k * 53) % NUM_FEATURES] = (m as f64 * 0.37 + k as f64).sin();
        }
        if m % 11 == 4 {
            f[7] = f64::NAN;
        }
        f
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Each half of each timescale's dual row is `Lstm::forward` over the
    /// inputs that timescale consumed since the half was last zeroed.
    /// After `n` inputs at period `p`, the aged half started at input
    /// `p·(n/p − 1)` and the fresh one at `p·(n/p)` (both at 0 while
    /// `n < p`). The stream crosses at least two promotions on every
    /// timescale and holds imputed minutes, both explicit gaps and a
    /// skipped run that `catch_up` bridges.
    #[test]
    fn dual_rows_equal_forward_since_each_half_was_zeroed() {
        let c = cfg();
        let (mut common, mut ledger, mut numeric) = one_row(&c);
        let net = Net::new(&common.model, common.knobs());
        let grans = [1, c.timescales.1 as usize, c.timescales.2 as usize];
        let periods = [c.short_len, c.medium_len, c.long_len];
        let mut inputs: [Vec<Vec<f64>>; TIMESCALES] = Default::default();
        let mut held = vec![0.0; NUM_FEATURES];
        let (mut row, mut out) = (RowScratch::default(), Emitted::default());
        for m in 0..60u32 {
            let skipped = (30..33).contains(&m);
            let raw = (m % 7 != 3 && !skipped).then(|| frame(m));
            if let Some(raw) = &raw {
                for (h, &x) in held.iter_mut().zip(raw) {
                    *h = if x.is_finite() { x } else { 0.0 };
                }
            }
            inputs[0].push(held.clone());
            for t in 1..TIMESCALES {
                let minutes = &inputs[0];
                if minutes.len().is_multiple_of(grans[t]) {
                    let bucket = avg_pool(&minutes[minutes.len() - grans[t]..], grans[t]);
                    inputs[t].extend(bucket);
                }
            }
            if skipped {
                continue;
            }
            let mut sh = Shard::new(&mut ledger, &mut numeric, c.window);
            let (obs, addr) = (&mut common.obs, Ipv4(1));
            catch_up(
                &net, obs, &mut sh, 0, addr, m, &mut row, &mut None, &mut out,
            );
            let frame = raw.as_deref();
            row_minute(
                &net, obs, &mut sh, 0, addr, m, frame, &mut row, &mut None, &mut out,
            );

            for t in 0..TIMESCALES {
                let (n, p) = (inputs[t].len(), periods[t]);
                let (aged_from, fresh_from) = (p * (n / p).saturating_sub(1), p * (n / p));
                let want = |from: usize| {
                    let trace = net.layers[t].forward(&inputs[t][from..]);
                    (bits(trace.final_h()), bits(trace.final_c()))
                };
                let d = &numeric.dual[t];
                let [aged_h, aged_c, fresh_h, fresh_c] = d.state(0);
                let what = format!("timescale {t}, minute {m}, {n} inputs");
                assert_eq!(
                    (bits(aged_h), bits(aged_c)),
                    want(aged_from),
                    "{what}: aged"
                );
                assert_eq!(
                    (bits(fresh_h), bits(fresh_c)),
                    want(fresh_from),
                    "{what}: fresh"
                );
                let aged_age = if n < p { p + n } else { n - aged_from };
                assert_eq!(d.aged_age[0] as usize, aged_age, "{what}: aged age");
                assert_eq!(d.fresh_age[0] as usize, n - fresh_from, "{what}: fresh age");
            }
        }
        for t in 0..TIMESCALES {
            assert!(
                inputs[t].len() / periods[t] >= 3,
                "timescale {t}: fewer than two promotions"
            );
        }
    }

    /// The survival ring is `rolling_survival` over the hazards pushed,
    /// within 1e-12 (the ring moves its sum in one step, the batch function
    /// in two). A NaN, +∞ or negative hazard counts as zero, so survival
    /// stays finite and is exactly 1.0 again after `window` zero hazards.
    #[test]
    fn survival_ring_equals_rolling_survival() {
        let c = cfg();
        let (_, mut ledger, mut numeric) = one_row(&c);
        let mut sh = Shard::new(&mut ledger, &mut numeric, c.window);
        let hazards: Vec<f64> = (0..40)
            .map(|t| 0.3 * ((t as f64 * 0.7).sin() + 1.0) + if t % 9 == 0 { 2.0 } else { 0.0 })
            .collect();
        let want = rolling_survival(&hazards, c.window);
        for (t, (&h, &w)) in hazards.iter().zip(&want).enumerate() {
            let got = sh.ring_push(0, h);
            assert!((got - w).abs() < 1e-12, "t={t}: ring {got} vs batch {w}");
        }

        let (_, mut ledger, mut numeric) = one_row(&c);
        let mut sh = Shard::new(&mut ledger, &mut numeric, c.window);
        sh.ring_push(0, 0.5);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let s = sh.ring_push(0, bad);
            assert!(s.is_finite(), "hazard {bad} leaked into survival: {s}");
        }
        let mut s = 0.0;
        for _ in 0..c.window {
            s = sh.ring_push(0, 0.0);
        }
        assert_eq!(s, 1.0);
    }
}
