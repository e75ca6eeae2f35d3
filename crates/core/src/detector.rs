//! The detector core: one definition of the streaming detector's state,
//! degradation ladder, alert lifecycle, telemetry and checkpoint, which
//! [`crate::fleet::FleetDetector`] drives on its row and batch paths.
//!
//! # State
//!
//! Every per-customer quantity is a column of a flat arena indexed by the
//! dense customer id the interner in [`Common`] hands out, with a fixed
//! per-customer stride — except the auxiliary-signal tail of a frame-side
//! row, below. The columns come in two groups:
//!
//! * [`Ledger`] — what the tails read and write: the survival ring,
//!   pooling-bucket counts, alert lifecycle scalars, the newest driven
//!   minute, and three per-minute plan flags.
//! * [`Numeric`] — what the LSTM layers read and write: both halves of the
//!   three dual LSTM states, the open pooling bucket of every timescale
//!   coarser than a minute, and the zero-order-hold frame.
//!
//! The frame and the buckets are [`Rows`]: each `NUM_FEATURES`-wide row
//! keeps its volumetric head (`VOLUMETRIC_WIDTH`) inline at a fixed stride
//! and its A1–A5 tail in a box that exists only while some bit of it is
//! set, which on most minutes of most customers it is not. An absent tail
//! reads as zeros, so every value the kernels, the companion and the
//! checkpoint see is the dense row's, bit for bit.
//!
//! A timescale of granularity `g` closes a bucket every `g` minutes from
//! the row's first minute and steps its LSTM on the bucket's mean in the
//! minute that completes it; that minute's hazard reads the new state. A
//! granularity-1 timescale reads the held frame directly and keeps no
//! bucket or count column.
//!
//! A [`Shard`] is a set of disjoint mutable views of one contiguous block
//! of customers across all columns; [`Shard::take_front`] carves blocks
//! off for workers without allocating.
//!
//! # One scalar, one kernel
//!
//! Every column is `f64`, and every timescale steps through its layer of
//! the head's [`ServedModel`], built once from the trained model, on one
//! kernel: [`ServingLstm::step_online_dual`] advances both halves of a
//! row's dual state, each pinned bit-identical to
//! [`xatu_nn::Lstm::forward`]. The row path, imputed catch-up minutes and
//! the fleet's batch path all call it through [`DualShard::step`]. A row
//! whose timescale takes part in a minute runs the kernel; nothing is
//! skipped or tabulated, so the stored state is always the state.
//!
//! # One minute of one customer
//!
//! `ingest` (sanitize or zero-order-hold, feed the pooling buckets, plan
//! which timescales step) → LSTM steps ([`step_dense`], each on the row's
//! input read back densely into [`RowScratch`]) → `finish_row` (retire
//! consumed buckets, survival tail, the companion's fusion hook, lifecycle
//! tail). [`row_minute`] runs the three back to back; the fleet's batch
//! worker runs each as a phase over its shard.
//! Gaps since the customer's previous minute are bridged first by
//! [`catch_up`]: imputed minute by minute through [`row_minute`], or cold
//! restarted past `3 × window`. What the rows emit goes to an [`Emitted`]
//! in row order, for the caller to stitch.

use crate::checkpoint::{CustomerCheckpoint, DetectorCheckpoint, DualStateCheckpoint};
use crate::config::XatuConfig;
use crate::error::XatuError;
use crate::fusion::Fused;
use crate::model::{ModelConfig, ServedModel, XatuModel, TIMESCALES};
use std::collections::HashMap;
use std::ops::Range;
use xatu_detectors::alert::Alert;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::activations::softplus;
use xatu_nn::lstm::ServingLstm;
use xatu_nn::simd::{self, SimdLevel};
use xatu_nn::{Dense, OnlineWorkspace, Params};
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

/// Plan flag: the row is driven this minute.
pub(crate) const RAN: u8 = 1;
/// Plan flag: the timescale's bucket completed this minute.
const DUE: u8 = 2;
/// Plan flag: the bucket completed and the model's mode uses the
/// timescale, so its state steps through the LSTM kernel.
const DENSE: u8 = 4;

/// Longest survival window a checkpoint may carry: one ring of it is
/// 256 KB, and `3 × window` (the longest imputed gap) stays far inside
/// `u32`. Every preset uses 10–30.
const MAX_WINDOW: u64 = 1 << 15;

/// Timescale names, in arena order, for checkpoint errors.
const NAMES: [&str; TIMESCALES] = ["short", "medium", "long"];

/// The immutable parts of a detector every worker shares: the layers,
/// the combiner head and the scalar knobs.
pub(crate) struct Net<'a> {
    pub layers: [&'a ServingLstm; TIMESCALES],
    pub head: &'a Dense,
    pub k: Knobs,
}

impl<'a> Net<'a> {
    pub(crate) fn new(model: &'a ServedModel, k: Knobs) -> Self {
        Net {
            layers: model.layers.each_ref(),
            head: &model.head,
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

    /// Steps both halves of row `j` on input `x` through the layer's one
    /// online step, then ticks its ages.
    fn step(&mut self, lstm: &ServingLstm, j: usize, x: &[f64], ws: &mut OnlineWorkspace) {
        let r = self.row(j);
        lstm.step_online_dual(
            x,
            &mut self.aged_h[r.clone()],
            &mut self.aged_c[r.clone()],
            &mut self.fresh_h[r.clone()],
            &mut self.fresh_c[r],
            ws,
        );
        self.tick(j);
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
    /// Frames in each timescale's open pooling bucket (empty for a
    /// granularity-1 timescale).
    count: [Vec<u32>; TIMESCALES],
    pub active_since: Vec<Option<u32>>,
    quiet_run: Vec<u32>,
    pub last_survival: Vec<f64>,
    observed: Vec<u32>,
    stale_run: Vec<u32>,
    last_minute: Vec<Option<u32>>,
    /// Per-timescale plan flags ([`RAN`], [`DUE`], [`DENSE`]); scratch, valid only
    /// inside one minute.
    flags: [Vec<u8>; TIMESCALES],
}

impl Ledger {
    /// Appends one customer in the cold state.
    fn push(&mut self, window: usize, pooled: [bool; TIMESCALES]) {
        self.ring_buf.resize(self.ring_buf.len() + window, 0.0);
        self.ring_head.push(0);
        self.ring_filled.push(0);
        self.ring_sum.push(0.0);
        for (c, pooled) in self.count.iter_mut().zip(pooled) {
            c.resize(c.len() + usize::from(pooled), 0);
        }
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
                + self.count.iter().map(Vec::capacity).sum::<usize>()
                + self.quiet_run.capacity()
                + self.observed.capacity()
                + self.stale_run.capacity())
                * size_of::<u32>()
            + (self.active_since.capacity() + self.last_minute.capacity())
                * size_of::<Option<u32>>()
            + self.flags.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// Width of a row's auxiliary-signal tail: the A1–A5 features after the
/// volumetric block.
const TAIL_WIDTH: usize = NUM_FEATURES - VOLUMETRIC_WIDTH;

/// One row's auxiliary-signal tail, boxed.
type Tail = Box<[f64; TAIL_WIDTH]>;

/// A zeroed tail.
fn zero_tail() -> Tail {
    Box::new([0.0; TAIL_WIDTH])
}

/// True when some value has a set bit (`−0.0` counts).
fn any_set(v: &[f64]) -> bool {
    v.iter().any(|x| x.to_bits() != 0)
}

/// Copies `raw` into `dst`, non-finite values zeroed; returns how many.
fn sanitize(dst: &mut [f64], raw: &[f64]) -> u64 {
    let mut replaced = 0;
    for (d, &x) in dst.iter_mut().zip(raw) {
        *d = if x.is_finite() {
            x
        } else {
            replaced += 1;
            0.0
        };
    }
    replaced
}

/// Writes one row into the `NUM_FEATURES`-wide `out`: the head, then the
/// tail, zeros while it is absent.
fn read_row(head: &[f64], tail: Option<&Tail>, out: &mut [f64]) {
    let (h, t) = out.split_at_mut(VOLUMETRIC_WIDTH);
    h.copy_from_slice(head);
    match tail {
        Some(b) => t.copy_from_slice(&b[..]),
        None => t.fill(0.0),
    }
}

/// A column of `NUM_FEATURES`-wide frame-side rows, stored in two parts:
/// the volumetric head (`VOLUMETRIC_WIDTH`) inline, `n × VOLUMETRIC_WIDTH`,
/// and the auxiliary-signal tail in a per-row box that exists only while
/// some bit of it is set. An absent tail reads as `+0.0` throughout, so a
/// row's values are the dense row's, bit for bit; only where its zeros are
/// stored differs.
#[derive(Clone, Default)]
pub(crate) struct Rows {
    head: Vec<f64>,
    tail: Vec<Option<Tail>>,
}

impl Rows {
    /// Appends one zero row.
    fn push(&mut self) {
        self.head.resize(self.head.len() + VOLUMETRIC_WIDTH, 0.0);
        self.tail.push(None);
    }

    fn as_mut(&mut self) -> RowsMut<'_> {
        RowsMut {
            head: &mut self.head,
            tail: &mut self.tail,
        }
    }

    /// Row `i`, dense.
    fn to_dense(&self, i: usize) -> Vec<f64> {
        let mut out = vec![0.0; NUM_FEATURES];
        read_row(&self.head[heads(i)], self.tail[i].as_ref(), &mut out);
        out
    }

    /// Loads row `i` from a dense row: a tail with any set bit is boxed.
    fn load(&mut self, i: usize, dense: &[f64]) {
        let (head, tail) = dense.split_at(VOLUMETRIC_WIDTH);
        self.head[heads(i)].copy_from_slice(head);
        self.tail[i] = any_set(tail).then(|| {
            let mut b = zero_tail();
            b.copy_from_slice(tail);
            b
        });
    }

    /// Measured footprint in bytes: capacities, and every live tail.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.head.capacity() * size_of::<f64>()
            + self.tail.capacity() * size_of::<Option<Tail>>()
            + self.tail.iter().flatten().count() * size_of::<[f64; TAIL_WIDTH]>()
    }
}

/// Row `j`'s head in an `n × VOLUMETRIC_WIDTH` column.
fn heads(j: usize) -> Range<usize> {
    j * VOLUMETRIC_WIDTH..(j + 1) * VOLUMETRIC_WIDTH
}

/// A contiguous block of one [`Rows`] column, owned mutably by one worker.
pub(crate) struct RowsMut<'a> {
    head: &'a mut [f64],
    tail: &'a mut [Option<Tail>],
}

impl<'a> RowsMut<'a> {
    fn take_front(&mut self, n: usize) -> RowsMut<'a> {
        RowsMut {
            head: take_rows(&mut self.head, n, VOLUMETRIC_WIDTH),
            tail: take_rows(&mut self.tail, n, 1),
        }
    }

    /// Row `j`'s volumetric head.
    fn head(&self, j: usize) -> &[f64] {
        &self.head[heads(j)]
    }

    /// Writes row `j` into the `NUM_FEATURES`-wide `out`.
    fn read(&self, j: usize, out: &mut [f64]) {
        read_row(self.head(j), self.tail[j].as_ref(), out);
    }

    /// Sanitizes `raw` into row `j` and returns how many values were
    /// non-finite. The tail goes into the live box if there is one, which
    /// is freed if nothing in it is left set; otherwise a box is made only
    /// if some sanitized tail value has a set bit.
    fn sanitize_from(&mut self, j: usize, raw: &[f64]) -> u64 {
        let (head, tail) = raw.split_at(VOLUMETRIC_WIDTH);
        let replaced = sanitize(&mut self.head[heads(j)], head);
        let slot = &mut self.tail[j];
        if slot.is_none() && tail.iter().any(|x| x.is_finite() && x.to_bits() != 0) {
            *slot = Some(zero_tail());
        }
        let Some(b) = slot else {
            return replaced + tail.iter().filter(|x| !x.is_finite()).count() as u64;
        };
        let replaced = replaced + sanitize(&mut b[..], tail);
        if !any_set(&b[..]) {
            *slot = None;
        }
        replaced
    }

    /// Adds `frame`'s row `j` into this bucket's row `j`. A present frame
    /// tail adds into the bucket's box, made zeroed on first use; an
    /// absent one is `+0.0` throughout, which changes no bucket value but
    /// a `−0.0`. No stepped bucket holds one (sums start at `+0.0` and an
    /// averaged bucket is reset within its minute), but a restored one
    /// may, so an existing box still takes the zeros.
    fn accumulate(&mut self, j: usize, frame: &RowsMut<'_>) {
        for (b, &v) in self.head[heads(j)].iter_mut().zip(frame.head(j)) {
            *b += v;
        }
        match (&frame.tail[j], &mut self.tail[j]) {
            (Some(f), slot) => {
                let b = slot.get_or_insert_with(zero_tail);
                for (b, &v) in b.iter_mut().zip(f.iter()) {
                    *b += v;
                }
            }
            (None, Some(b)) => b.iter_mut().for_each(|v| *v += 0.0),
            (None, None) => {}
        }
    }

    /// Scales row `j` by `inv` in place.
    fn scale(&mut self, j: usize, inv: f64) {
        self.head[heads(j)].iter_mut().for_each(|v| *v *= inv);
        if let Some(b) = &mut self.tail[j] {
            b.iter_mut().for_each(|v| *v *= inv);
        }
    }

    /// Zeroes row `j`. Its tail box is kept, zeroed, when `keep_tail`;
    /// otherwise it is freed.
    fn reset(&mut self, j: usize, keep_tail: bool) {
        self.head[heads(j)].fill(0.0);
        match &mut self.tail[j] {
            Some(b) if keep_tail => b.fill(0.0),
            slot => *slot = None,
        }
    }
}

/// The columns the LSTM layers read and write.
#[derive(Clone)]
pub(crate) struct Numeric {
    pub dual: [DualArena; TIMESCALES],
    /// Each timescale's open pooling bucket, one row per customer (none
    /// for a granularity-1 timescale). Between `ingest` and `finish_row` a
    /// completed row holds the *averaged* bucket (scaled in place).
    pub partial: [Rows; TIMESCALES],
    /// Last sanitized frame (the zero-order-hold source).
    pub frame: Rows,
    /// Which timescales pool (granularity above 1).
    pooled: [bool; TIMESCALES],
}

impl Numeric {
    pub(crate) fn new(hidden: usize, ctx: [usize; TIMESCALES], gran: [u32; TIMESCALES]) -> Self {
        Numeric {
            dual: ctx.map(|period| DualArena::new(hidden, period)),
            partial: Default::default(),
            frame: Rows::default(),
            pooled: gran.map(|g| g > 1),
        }
    }

    /// Appends one customer in the cold state.
    fn push(&mut self) {
        self.dual.iter_mut().for_each(DualArena::push);
        for (col, pooled) in self.partial.iter_mut().zip(self.pooled) {
            if pooled {
                col.push();
            }
        }
        self.frame.push();
    }

    /// Measured footprint in bytes (capacities and live tails, not
    /// lengths).
    pub(crate) fn bytes(&self) -> usize {
        self.dual.iter().map(DualArena::bytes).sum::<usize>()
            + self.partial.iter().map(Rows::bytes).sum::<usize>()
            + self.frame.bytes()
    }
}

/// Appends one cold customer to both column groups.
pub(crate) fn push_row(ledger: &mut Ledger, numeric: &mut Numeric, window: usize) {
    ledger.push(window, numeric.pooled);
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
    pub partial: [RowsMut<'a>; TIMESCALES],
    count: [&'a mut [u32]; TIMESCALES],
    pub frame: RowsMut<'a>,
    pub pooled: [bool; TIMESCALES],
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
            partial: n.partial.each_mut().map(Rows::as_mut),
            count: l.count.each_mut().map(Vec::as_mut_slice),
            frame: n.frame.as_mut(),
            pooled: n.pooled,
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
            partial: std::array::from_fn(|t| {
                self.partial[t].take_front(n * usize::from(self.pooled[t]))
            }),
            count: std::array::from_fn(|t| {
                take_rows(&mut self.count[t], n, usize::from(self.pooled[t]))
            }),
            frame: self.frame.take_front(n),
            pooled: self.pooled,
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
    /// Pooling granularity of each timescale, in minutes.
    gran: [u32; TIMESCALES],
    /// Stale run at which the blend saturates and raises are suppressed.
    stale_limit: u32,
    /// Longest gap bridged by imputation; anything longer cold-restarts.
    max_imputed_gap: u32,
    hidden: usize,
    /// Which timescales the model's mode enables.
    used: [bool; TIMESCALES],
}

/// Scratch of one row's minute, reused from row to row.
#[derive(Clone, Default)]
pub(crate) struct RowScratch {
    /// Workspace of the LSTM step.
    step: OnlineWorkspace,
    /// Combiner input (`3·hidden`).
    pub input: Vec<f64>,
    /// The dense input row of one step (`NUM_FEATURES`).
    x: Vec<f64>,
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
    for t in (0..TIMESCALES).filter(|&t| sh.pooled[t]) {
        sh.partial[t].reset(j, false);
        sh.count[t][j] = 0;
    }
    sh.frame.reset(j, false);
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
/// zero-order-hold buffer, or `None` to replay that buffer — feeds it to
/// every timescale's open pooling bucket, and plans the minute: the row's
/// flag for each timescale says whether its bucket completed and whether
/// its state steps through the LSTM kernel. A granularity-1 timescale
/// completes a bucket every minute and steps on the held frame itself.
pub(crate) fn ingest(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_>,
    j: usize,
    frame: Option<&[f64]>,
) {
    match frame {
        None => {
            sh.stale_run[j] += 1;
            obs.gaps_imputed.inc();
        }
        Some(raw) => {
            let replaced = sh.frame.sanitize_from(j, raw);
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
    for t in 0..TIMESCALES {
        let due = !sh.pooled[t] || {
            sh.partial[t].accumulate(j, &sh.frame);
            sh.count[t][j] += 1;
            let due = sh.count[t][j] == k.gran[t];
            if due {
                sh.partial[t].scale(j, 1.0 / k.gran[t] as f64);
                sh.count[t][j] = 0;
            }
            due
        };
        sh.flags[t][j] = match (due, k.used[t]) {
            (false, _) => RAN,
            (true, false) => RAN | DUE,
            (true, true) => RAN | DUE | DENSE,
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
    // A bucket's tail box outlives its reset while the frame's tail is
    // set, so a steady tail allocates nothing from bucket to bucket.
    let keep_tail = sh.frame.tail[j].is_some();
    for t in (0..TIMESCALES).filter(|&t| sh.pooled[t]) {
        if sh.flags[t][j] & DUE != 0 {
            sh.partial[t].reset(j, keep_tail);
        }
    }
    let (hazard, reported) = survival_tail(net, sh, j, input);
    let reported = match hook {
        Some(hook) => hook.fuse(obs, sh.frame.head(j), reported),
        None => reported,
    };
    lifecycle_tail(&net.k, obs, sh, j, addr, minute, reported, out);
    sh.last_minute[j] = Some(minute);
    (hazard, reported)
}

/// Steps timescale `t` of row `j` if this minute planned it [`DENSE`]:
/// the row's input, its averaged bucket or for a granularity-1 timescale
/// the held frame, is read back densely into `row` and both halves of the
/// dual state advance on it.
pub(crate) fn step_dense(
    net: &Net<'_>,
    sh: &mut Shard<'_>,
    t: usize,
    j: usize,
    row: &mut RowScratch,
) {
    if sh.flags[t][j] & DENSE == 0 {
        return;
    }
    let rows = if sh.pooled[t] {
        &sh.partial[t]
    } else {
        &sh.frame
    };
    row.x.resize(NUM_FEATURES, 0.0);
    rows.read(j, &mut row.x);
    sh.dual[t].step(net.layers[t], j, &row.x, &mut row.step);
}

/// One customer through one minute on the row path: `ingest`, the LSTM
/// step of every timescale planned [`DENSE`], `finish_row`. `frame` is
/// `None` for an imputed minute.
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
    for t in 0..TIMESCALES {
        step_dense(net, sh, t, j, row);
    }
    finish_row(net, obs, sh, j, addr, minute, &mut row.input, hook, out)
}

/// What the detector owns besides its rows: the served model, the serving
/// configuration, the address interner and the telemetry.
#[derive(Clone)]
pub(crate) struct Common {
    pub model: ServedModel,
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
        model: XatuModel,
        attack_type: AttackType,
        threshold: f64,
        cfg: &XatuConfig,
    ) -> Self {
        let simd = if cfg.no_simd {
            SimdLevel::Scalar
        } else {
            simd::detect()
        };
        let mut model = ServedModel::new(model);
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
        Knobs {
            attack_type: self.attack_type,
            threshold: self.threshold,
            window: self.window,
            quiet: self.quiet,
            warmup: self.warmup,
            max_alert_minutes: self.max_alert_minutes,
            gran: self.model.cfg.gran(),
            stale_limit: (self.window as u32).max(1),
            max_imputed_gap: 3 * self.window as u32,
            hidden: self.model.cfg.hidden,
            used: self.model.cfg.used(),
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

    /// Snapshots configuration, model parameters (the served layers
    /// transposed back) and every customer's streaming state (sorted by
    /// address). Telemetry is excluded: counters restart at zero on resume.
    pub(crate) fn checkpoint(&self, ledger: &Ledger, numeric: &Numeric) -> DetectorCheckpoint {
        let mut model = self.model.to_model();
        let mut params = vec![0.0; model.param_count()];
        model.export_params_into(&mut params);
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
                    partial: std::array::from_fn(|t| {
                        if numeric.pooled[t] {
                            (numeric.partial[t].to_dense(i), ledger.count[t][i])
                        } else {
                            (Vec::new(), 0)
                        }
                    }),
                    active_since: ledger.active_since[i],
                    quiet_run: ledger.quiet_run[i],
                    last_survival: ledger.last_survival[i],
                    observed: ledger.observed[i],
                    last_frame: numeric.frame.to_dense(i),
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
/// checkpoint's context lengths, one record per address in ascending
/// address order (the order a checkpoint is written in, so a restored
/// detector writes the same bytes again). Dense ids are assigned in that
/// order. Nothing is allocated at a size the record's own data does not
/// bound. Failures surface as [`XatuError::InvalidCheckpoint`].
pub(crate) fn restore(ck: &DetectorCheckpoint) -> Result<(Common, Ledger, Numeric), XatuError> {
    let bad = |reason: String| XatuError::invalid_checkpoint(reason);
    if ck.timescales.0 == 0 || ck.timescales.1 == 0 || ck.timescales.2 == 0 {
        return Err(bad("timescale granularities must be >= 1".into()));
    }
    if ck.window == 0 || ck.window > MAX_WINDOW {
        return Err(bad(format!(
            "survival window {} outside 1..={MAX_WINDOW}",
            ck.window
        )));
    }
    // Each LSTM alone holds 4·hidden·NUM_FEATURES input weights: a hidden
    // size the parameters cannot cover is refused before a model of that
    // size is built.
    let wx = ck.hidden.checked_mul(4 * NUM_FEATURES as u64);
    if wx.is_none_or(|wx| wx > ck.params.len() as u64) {
        return Err(bad(format!(
            "checkpoint has {} parameters, too few for hidden size {}",
            ck.params.len(),
            ck.hidden
        )));
    }
    let mut model = XatuModel::with_config(ModelConfig {
        timescales: ck.timescales,
        hidden: ck.hidden as usize,
        mode: ck.mode,
    });
    let model_gran = model.cfg.gran();
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
    let mut model = ServedModel::new(model);
    model.set_simd(simd);
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
    let mut numeric = Numeric::new(
        ck.hidden as usize,
        [ctx_lens.0, ctx_lens.1, ctx_lens.2],
        model_gran,
    );
    let mut prev = None;
    for c in &ck.customers {
        let (i, new) = common.intern(Ipv4(c.addr));
        if !new {
            return Err(bad(format!("customer {} appears twice", c.addr)));
        }
        if prev.is_some_and(|p| p > c.addr) {
            return Err(bad(format!("customer {} out of address order", c.addr)));
        }
        prev = Some(c.addr);
        restore_customer(&common, &mut ledger, &mut numeric, i, c)
            .map_err(|e| bad(format!("customer {}: {e}", c.addr)))?;
    }
    Ok((common, ledger, numeric))
}

/// Validates one customer's record, then appends row `i` and loads the
/// record into it. Every check runs before the row exists: a state the
/// stepping logic can never reach (mismatched sizes, an age at or past
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

    for (((name, gran), pooled), (sum, count)) in NAMES
        .into_iter()
        .zip(common.model.cfg.gran())
        .zip(numeric.pooled)
        .zip(&c.partial)
    {
        if sum.len() != usize::from(pooled) * NUM_FEATURES {
            return Err(format!("{name} partial bucket has width {}", sum.len()));
        }
        if sum.iter().any(|v| !v.is_finite()) {
            return Err(format!("non-finite value in {name} partial bucket"));
        }
        if *count >= gran {
            return Err(format!(
                "{name} partial bucket count at or past its granularity"
            ));
        }
    }
    if c.last_frame.len() != NUM_FEATURES {
        return Err(format!("last frame has width {}", c.last_frame.len()));
    }
    if c.last_frame.iter().any(|v| !v.is_finite()) || !c.last_survival.is_finite() {
        return Err("non-finite value in customer scalars".into());
    }

    push_row(ledger, numeric, w);

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
    for (t, (sum, count)) in c.partial.iter().enumerate() {
        if numeric.pooled[t] {
            numeric.partial[t].load(i, sum);
            ledger.count[t][i] = *count;
        }
    }
    numeric.frame.load(i, &c.last_frame);
    ledger.active_since[i] = c.active_since;
    ledger.quiet_run[i] = c.quiet_run;
    ledger.last_survival[i] = c.last_survival;
    ledger.observed[i] = c.observed;
    ledger.stale_run[i] = c.stale_run;
    ledger.last_minute[i] = c.last_minute;
    Ok(())
}

/// The frame-side rows as they were before the auxiliary-signal tail was
/// carved off: every zero-order-hold frame and pooling bucket a dense
/// `NUM_FEATURES`-wide row, and `ingest`, `finish_row` and `cold_restart`
/// over them. The ledger-side columns and the dual states are the live
/// ones, driven through a live [`Shard`]; only the frame-side rows live
/// here. Kept as the reference the live rows are pinned to.
#[cfg(test)]
mod before_sparse {
    use super::*;

    /// Row `j` of an `n × NUM_FEATURES` column.
    fn features(j: usize) -> Range<usize> {
        j * NUM_FEATURES..(j + 1) * NUM_FEATURES
    }

    /// The dense frame-side columns, `n × NUM_FEATURES` each.
    pub(super) struct Dense {
        pub partial: [Vec<f64>; TIMESCALES],
        pub frame: Vec<f64>,
        pooled: [bool; TIMESCALES],
    }

    impl Dense {
        pub(super) fn new(gran: [u32; TIMESCALES]) -> Self {
            Dense {
                partial: Default::default(),
                frame: Vec::new(),
                pooled: gran.map(|g| g > 1),
            }
        }

        pub(super) fn push(&mut self) {
            for (col, pooled) in self.partial.iter_mut().zip(self.pooled) {
                col.resize(col.len() + usize::from(pooled) * NUM_FEATURES, 0.0);
            }
            self.frame.resize(self.frame.len() + NUM_FEATURES, 0.0);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn cold_restart(
        k: &Knobs,
        obs: &mut DetectorObs,
        sh: &mut Shard<'_>,
        d: &mut Dense,
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
        for t in (0..TIMESCALES).filter(|&t| sh.pooled[t]) {
            d.partial[t][r.clone()].fill(0.0);
            sh.count[t][j] = 0;
        }
        d.frame[r].fill(0.0);
        sh.quiet_run[j] = 0;
        sh.last_survival[j] = 1.0;
        sh.observed[j] = 0;
        sh.stale_run[j] = 0;
        obs.cold_restarts.inc();
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn catch_up(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        sh: &mut Shard<'_>,
        d: &mut Dense,
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
            obs.gap_runs.observe(gap as f64);
            cold_restart(&net.k, obs, sh, d, j, addr, minute, out);
            if let Some(hook) = hook {
                hook.cold_restart();
            }
        } else {
            for m in last + 1..minute {
                row_minute(net, obs, sh, d, j, addr, m, None, row, hook, out);
            }
        }
    }

    fn ingest(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        sh: &mut Shard<'_>,
        d: &mut Dense,
        j: usize,
        frame: Option<&[f64]>,
    ) {
        let r = features(j);
        match frame {
            None => {
                sh.stale_run[j] += 1;
                obs.gaps_imputed.inc();
            }
            Some(raw) => {
                let mut replaced = 0u64;
                for (dst, &x) in d.frame[r.clone()].iter_mut().zip(raw) {
                    *dst = if x.is_finite() {
                        x
                    } else {
                        replaced += 1;
                        0.0
                    };
                }
                if replaced > 0 {
                    obs.values_sanitized.add(replaced);
                }
                if sh.stale_run[j] > 0 {
                    obs.gap_runs.observe(sh.stale_run[j] as f64);
                    sh.stale_run[j] = 0;
                }
            }
        }
        let k = &net.k;
        for t in 0..TIMESCALES {
            let due = !sh.pooled[t] || {
                let bucket = &mut d.partial[t][r.clone()];
                for (b, &v) in bucket.iter_mut().zip(&d.frame[r.clone()]) {
                    *b += v;
                }
                sh.count[t][j] += 1;
                let due = sh.count[t][j] == k.gran[t];
                if due {
                    let inv = 1.0 / k.gran[t] as f64;
                    bucket.iter_mut().for_each(|v| *v *= inv);
                    sh.count[t][j] = 0;
                }
                due
            };
            sh.flags[t][j] = match (due, k.used[t]) {
                (false, _) => RAN,
                (true, false) => RAN | DUE,
                (true, true) => RAN | DUE | DENSE,
            };
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_row(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        sh: &mut Shard<'_>,
        d: &mut Dense,
        j: usize,
        addr: Ipv4,
        minute: u32,
        input: &mut Vec<f64>,
        hook: &mut Option<Fused<'_>>,
        out: &mut Emitted,
    ) -> (f64, f64) {
        let r = features(j);
        for t in (0..TIMESCALES).filter(|&t| sh.pooled[t]) {
            if sh.flags[t][j] & DUE != 0 {
                d.partial[t][r.clone()].fill(0.0);
            }
        }
        let (hazard, reported) = survival_tail(net, sh, j, input);
        let reported = match hook {
            Some(hook) => hook.fuse(obs, &d.frame[r], reported),
            None => reported,
        };
        lifecycle_tail(&net.k, obs, sh, j, addr, minute, reported, out);
        sh.last_minute[j] = Some(minute);
        (hazard, reported)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn row_minute(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        sh: &mut Shard<'_>,
        d: &mut Dense,
        j: usize,
        addr: Ipv4,
        minute: u32,
        frame: Option<&[f64]>,
        row: &mut RowScratch,
        hook: &mut Option<Fused<'_>>,
        out: &mut Emitted,
    ) -> (f64, f64) {
        ingest(net, obs, sh, d, j, frame);
        let r = features(j);
        for t in 0..TIMESCALES {
            if sh.flags[t][j] & DENSE != 0 {
                let x = if sh.pooled[t] {
                    &d.partial[t][r.clone()]
                } else {
                    &d.frame[r.clone()]
                };
                sh.dual[t].step(net.layers[t], j, x, &mut row.step);
            }
        }
        finish_row(net, obs, sh, d, j, addr, minute, &mut row.input, hook, out)
    }

    /// The live checkpoint with the dense frame-side rows written in.
    pub(super) fn checkpoint(
        common: &Common,
        ledger: &Ledger,
        numeric: &Numeric,
        d: &Dense,
    ) -> DetectorCheckpoint {
        let mut ck = common.checkpoint(ledger, numeric);
        for c in &mut ck.customers {
            let r = features(common.id_of(Ipv4(c.addr)).expect("registered"));
            c.last_frame = d.frame[r.clone()].to_vec();
            for (t, (sum, _)) in c.partial.iter_mut().enumerate() {
                if d.pooled[t] {
                    *sum = d.partial[t][r.clone()].to_vec();
                }
            }
        }
        ck
    }
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
        let (s, m, l) = c.timescales;
        let mut numeric =
            Numeric::new(c.hidden, [c.short_len, c.medium_len, c.long_len], [s, m, l]);
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
        // The trained layers the served ones were built from.
        let trained = XatuModel::new(&c);
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
                    let trace = trained.layers()[t].forward(&inputs[t][from..]);
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

    /// Serving runs one pooling schedule at every timescale triple, the
    /// short timescale included: bucket `k` of a timescale of granularity
    /// `g` is the mean of minutes `[k·g, (k+1)·g)` from the row's first
    /// minute, and each half of that timescale's dual row is
    /// `Lstm::forward` over the bucket means since the half was last
    /// zeroed. Checked on the row path at every minute that completes a
    /// long bucket, across at least two promotions of every timescale.
    #[test]
    fn every_timescale_steps_on_the_schedules_buckets() {
        for timescales in [(1, 10, 60), (1, 3, 6), (2, 4, 8), (10, 60, 120)] {
            let c = XatuConfig {
                timescales,
                short_len: 3,
                medium_len: 2,
                long_len: 2,
                ..cfg()
            };
            let model = XatuModel::new(&c);
            let layers = model.layers().clone();
            let gran = model.cfg.gran().map(|g| g as usize);
            let periods = [c.short_len, c.medium_len, c.long_len];
            let mut det = crate::fleet::FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
            let frames: Vec<Vec<f64>> = (0..6 * gran[2] as u32 + 1).map(frame).collect();
            // What ingest holds: non-finite values zeroed.
            let held: Vec<Vec<f64>> = frames
                .iter()
                .map(|f| {
                    f.iter()
                        .map(|&x| if x.is_finite() { x } else { 0.0 })
                        .collect()
                })
                .collect();
            for (m, f) in frames.iter().enumerate() {
                det.observe(Ipv4(1), m as u32, f).expect("in-order minute");
                if (m + 1) % gran[2] != 0 {
                    continue;
                }
                let ck = det.to_checkpoint();
                for t in 0..TIMESCALES {
                    let (g, p) = (gran[t], periods[t]);
                    let n = (m + 1) / g;
                    let want = |from: usize| {
                        let trace = layers[t].forward(&avg_pool(&held[from * g..n * g], g));
                        (bits(trace.final_h()), bits(trace.final_c()))
                    };
                    let d = &ck.customers[0].dual[t];
                    let what = format!("{timescales:?}, timescale {t}, minute {m}");
                    let aged_from = p * (n / p).saturating_sub(1);
                    assert_eq!(
                        (bits(&d.aged_h), bits(&d.aged_c)),
                        want(aged_from),
                        "{what}"
                    );
                    assert_eq!(
                        (bits(&d.fresh_h), bits(&d.fresh_c)),
                        want(p * (n / p)),
                        "{what}"
                    );
                }
            }
        }
    }

    /// The parent's row path over [`before_sparse::Dense`] rows, for the
    /// differential test: one customer-minute at a time, like
    /// `FleetDetector::observe`, with an optional companion.
    struct Reference {
        common: Common,
        ledger: Ledger,
        numeric: Numeric,
        dense: before_sparse::Dense,
        companion: Option<crate::fusion::Companion>,
        rings: Vec<crate::fusion::Ring>,
        row: RowScratch,
        ae_ws: xatu_nn::AeWorkspace,
        ae_window: xatu_nn::FrameArena,
    }

    impl Reference {
        fn new(model: XatuModel, c: &XatuConfig) -> Self {
            let gran = model.cfg.gran();
            let hidden = model.cfg.hidden;
            Reference {
                common: Common::new(model, AttackType::UdpFlood, DIFF_THRESHOLD, c),
                ledger: Ledger::default(),
                numeric: Numeric::new(hidden, [c.short_len, c.medium_len, c.long_len], gran),
                dense: before_sparse::Dense::new(gran),
                companion: None,
                rings: Vec::new(),
                row: RowScratch::default(),
                ae_ws: xatu_nn::AeWorkspace::new(),
                ae_window: xatu_nn::FrameArena::new(VOLUMETRIC_WIDTH),
            }
        }

        fn observe(&mut self, addr: Ipv4, minute: u32, frame: Option<&[f64]>) -> Emitted {
            let (j, new) = self.common.intern(addr);
            if new {
                push_row(&mut self.ledger, &mut self.numeric, self.common.window);
                self.dense.push();
                if let Some(comp) = &self.companion {
                    self.rings.push(crate::fusion::Ring::new(comp.window));
                }
            }
            let net = Net::new(&self.common.model, self.common.knobs());
            let sh = &mut Shard::new(&mut self.ledger, &mut self.numeric, net.k.window);
            let obs = &mut self.common.obs;
            check_order(obs, sh.last_minute[j], addr, minute).expect("in-order minute");
            let hook = &mut self.companion.as_ref().map(|comp| Fused {
                comp,
                ring: &mut self.rings[j],
                ws: &mut self.ae_ws,
                scratch: &mut self.ae_window,
                ae_weight: 0.0,
            });
            let mut out = Emitted::default();
            let d = &mut self.dense;
            let row = &mut self.row;
            before_sparse::catch_up(&net, obs, sh, d, j, addr, minute, row, hook, &mut out);
            before_sparse::row_minute(
                &net, obs, sh, d, j, addr, minute, frame, row, hook, &mut out,
            );
            out.record(obs);
            out
        }

        fn checkpoint(&self) -> DetectorCheckpoint {
            before_sparse::checkpoint(&self.common, &self.ledger, &self.numeric, &self.dense)
        }
    }

    const DIFF_CUSTOMERS: usize = 6;
    /// Near the untrained model's resting survival, so alerts raise and end.
    const DIFF_THRESHOLD: f64 = 0.9;

    fn diff_addr(c: usize) -> Ipv4 {
        Ipv4(0x0a00_0000 + c as u32)
    }

    /// Customer `c`'s frame at minute `m`. Every row has a volumetric
    /// head; the auxiliary-signal tail is steady (0), flaps on uneven runs
    /// (1), appears, persists and vanishes (2), is set only by `−0.0` or
    /// lone non-finite values now and then (3; `−0.0` alone at minute 67,
    /// the frame the kill checkpoints), never set (4), or set most minutes
    /// around a cold restart (5). NaN and ±∞ land in both parts.
    fn diff_frame(c: usize, m: u32) -> Vec<f64> {
        let tail = NUM_FEATURES - VOLUMETRIC_WIDTH;
        let mut f = vec![0.0; NUM_FEATURES];
        let mu = m as usize;
        for k in 0..4 {
            f[(c * 7 + mu * 5 + k * 11) % VOLUMETRIC_WIDTH] =
                ((c as f64 + 1.0) * 0.3 + m as f64 * 0.07 + k as f64).sin();
        }
        if c == 0 && (60..75).contains(&m) {
            f[0] = 3.0;
        }
        let set = match c {
            0 => true,
            1 => (m / 3 + m / 7).is_multiple_of(2),
            2 => (20..50).contains(&m) || (90..93).contains(&m),
            3 => m % 9 == 1,
            4 => false,
            _ => !m.is_multiple_of(4),
        };
        if set {
            for k in 0..5 {
                f[VOLUMETRIC_WIDTH + (c * 31 + mu * 17 + k * 43) % tail] =
                    ((c + k) as f64 * 0.2 + m as f64 * 0.05).cos();
            }
        }
        match (c, m % 13) {
            (2, 5) => f[VOLUMETRIC_WIDTH + 100] = f64::NAN,
            (3, 7) => f[VOLUMETRIC_WIDTH + 7] = f64::INFINITY,
            (1, 9) => f[VOLUMETRIC_WIDTH + 150] = f64::NEG_INFINITY,
            (5, 3) => f[2] = f64::NAN,
            (4, 4) => f[VOLUMETRIC_WIDTH + 9] = f64::NAN,
            _ => {}
        }
        if c == 3 && m % 6 == 1 {
            f[VOLUMETRIC_WIDTH + 55] = -0.0;
            f[9] = -0.0;
        }
        f
    }

    /// Explicit gaps and a short skip (imputed on return) on customers 1
    /// and 4, a skip past `3 × window` on customer 5 (a cold restart).
    fn diff_input(c: usize, m: u32) -> crate::fleet::FleetInput {
        use crate::fleet::FleetInput;
        match c {
            4 if m % 11 == 6 => FleetInput::Gap,
            4 if (80..84).contains(&m) => FleetInput::Skip,
            1 if (40..43).contains(&m) => FleetInput::Skip,
            1 if m % 17 == 8 => FleetInput::Gap,
            5 if (30..50).contains(&m) => FleetInput::Skip,
            _ => FleetInput::Frame,
        }
    }

    /// One minute of the whole scenario on a live detector: the row path
    /// (`threads` `None`) or the batch path.
    fn diff_live(
        det: &mut crate::fleet::FleetDetector,
        threads: Option<usize>,
        m: u32,
    ) -> Vec<DetectorEvent> {
        use crate::fleet::FleetInput;
        let Some(threads) = threads else {
            let mut events = Vec::new();
            for c in 0..DIFF_CUSTOMERS {
                let out = match diff_input(c, m) {
                    FleetInput::Skip => continue,
                    FleetInput::Gap => det.observe_gap(diff_addr(c), m),
                    FleetInput::Frame => det.observe(diff_addr(c), m, &diff_frame(c, m)),
                };
                events.extend(out.expect("in-order minute").2);
            }
            return events;
        };
        det.step_minute_batch(m, threads, |i, _, out| {
            let action = diff_input(i, m);
            if action == FleetInput::Frame {
                out.copy_from_slice(&diff_frame(i, m));
            }
            action
        })
        .expect("in-order minute")
        .to_vec()
    }

    /// Events in a stable per-customer order: the batch path emits a
    /// minute's catch-up events before its lifecycle events, the row path
    /// customer by customer.
    fn by_customer(mut events: Vec<DetectorEvent>) -> Vec<DetectorEvent> {
        events.sort_by_key(|e| {
            let (DetectorEvent::Raised(a) | DetectorEvent::Ended(a)) = e;
            a.customer.0
        });
        events
    }

    /// The live frame-side rows against [`before_sparse`]'s dense ones, on
    /// the row path and the batch path at 1 and 4 threads, at (1, 3, 6)
    /// and (2, 4, 8), with and without a companion: every survival bit
    /// after every minute, every event, the sanitized and imputed counts,
    /// and the checkpoint bytes. Without a companion, each live path is
    /// also killed at minute 68, while tails are set in frames and open
    /// buckets, and resumed from its checkpoint on the row path and on the
    /// batch path at 4 threads.
    #[test]
    fn frame_rows_equal_the_frozen_dense_rows() {
        use crate::fleet::FleetDetector;
        const KILL: u32 = 68;
        const TOTAL: u32 = 130;
        for timescales in [(1, 3, 6), (2, 4, 8)] {
            for with_companion in [false, true] {
                let c = XatuConfig {
                    timescales,
                    ..cfg()
                };
                let what = format!("{timescales:?}, companion {with_companion}");
                let model = XatuModel::new(&c);
                let comp = with_companion.then(|| {
                    use crate::fusion::{Companion, ErrorNormalizer};
                    let ae = xatu_nn::LstmAutoencoder::new(
                        VOLUMETRIC_WIDTH,
                        3,
                        &mut xatu_nn::init::Initializer::new(3),
                    );
                    let mut win = xatu_nn::FrameArena::new(VOLUMETRIC_WIDTH);
                    for m in 0..c.window as u32 {
                        win.push(&diff_frame(4, m)[..VOLUMETRIC_WIDTH]);
                    }
                    let err = ae.reconstruction_error(&win, &mut xatu_nn::AeWorkspace::new());
                    Companion {
                        norm: ErrorNormalizer::from_benign_errors(&[err, 2.0 * err]),
                        window: c.window,
                        ae,
                    }
                });
                let mut reference = Reference::new(model.clone(), &c);
                reference.companion = comp.clone();
                let paths = [None, Some(1), Some(4)];
                let mut live = paths.map(|threads| {
                    let mut det =
                        FleetDetector::new(model.clone(), AttackType::UdpFlood, DIFF_THRESHOLD, &c);
                    if threads.is_some() {
                        (0..DIFF_CUSTOMERS).for_each(|i| {
                            det.add_customer(diff_addr(i));
                        });
                    }
                    if let Some(comp) = &comp {
                        det.set_companion(comp.clone());
                    }
                    (det, threads)
                });
                let mut resumed: Vec<(FleetDetector, Option<usize>)> = Vec::new();
                let mut raised = 0;
                for m in 0..TOTAL {
                    if m == KILL && !with_companion {
                        let want = reference.checkpoint();
                        let tails_set = |rows: &mut dyn Iterator<Item = &Vec<f64>>| {
                            rows.filter(|r| {
                                r.iter().skip(VOLUMETRIC_WIDTH).any(|v| v.to_bits() != 0)
                            })
                            .count()
                        };
                        let frames = tails_set(&mut want.customers.iter().map(|c| &c.last_frame));
                        let buckets = tails_set(
                            &mut want
                                .customers
                                .iter()
                                .flat_map(|c| c.partial.iter().map(|p| &p.0)),
                        );
                        let c3 = &want.customers[3].last_frame;
                        assert_eq!(c3[VOLUMETRIC_WIDTH + 55].to_bits(), (-0.0f64).to_bits());
                        assert!(
                            frames >= 3 && buckets >= 2,
                            "{what}: tails at the kill ({frames}, {buckets})"
                        );
                        for (det, threads) in &mut live {
                            let ck = det.to_checkpoint();
                            assert!(
                                ck.encode() == want.encode(),
                                "{what}: {threads:?} checkpoint bytes at the kill"
                            );
                            for target in [None, Some(4)] {
                                let back = FleetDetector::from_checkpoint(&ck).expect("restore");
                                resumed.push((back, target));
                            }
                        }
                    }
                    let mut want = Emitted::default();
                    for i in 0..DIFF_CUSTOMERS {
                        let frame = diff_frame(i, m);
                        let out = match diff_input(i, m) {
                            crate::fleet::FleetInput::Skip => continue,
                            crate::fleet::FleetInput::Gap => {
                                reference.observe(diff_addr(i), m, None)
                            }
                            crate::fleet::FleetInput::Frame => {
                                reference.observe(diff_addr(i), m, Some(&frame))
                            }
                        };
                        want.events.extend(out.events);
                    }
                    raised += want
                        .events
                        .iter()
                        .filter(|e| matches!(e, DetectorEvent::Raised(_)))
                        .count();
                    let survivals: Vec<u64> = (0..DIFF_CUSTOMERS)
                        .map(|i| {
                            let id = reference.common.id_of(diff_addr(i)).expect("registered");
                            reference.ledger.last_survival[id].to_bits()
                        })
                        .collect();
                    for (det, threads) in live.iter_mut().chain(&mut resumed) {
                        let events = diff_live(det, *threads, m);
                        let at = format!("{what}, {threads:?}, minute {m}");
                        if threads.is_none() {
                            assert_eq!(events, want.events, "{at}: events");
                        } else {
                            assert_eq!(
                                by_customer(events),
                                by_customer(want.events.clone()),
                                "{at}: events"
                            );
                        }
                        let got: Vec<u64> = (0..DIFF_CUSTOMERS)
                            .map(|i| det.survival_of(diff_addr(i)).to_bits())
                            .collect();
                        assert_eq!(got, survivals, "{at}: survival bits");
                    }
                }
                assert!(raised > 0, "{what}: no alert raised");
                let want = reference.checkpoint().encode();
                for (det, threads) in live.iter_mut().chain(&mut resumed) {
                    assert!(
                        det.to_checkpoint().encode() == want,
                        "{what}: {threads:?} checkpoint bytes at the end"
                    );
                }
                if xatu_obs::enabled() {
                    let a = &reference.common.obs;
                    assert!(a.values_sanitized.get() > 0 && a.cold_restarts.get() > 0);
                    for (det, threads) in &live {
                        let b = det.obs();
                        for (name, x, y) in [
                            ("sanitized", &a.values_sanitized, &b.values_sanitized),
                            ("imputed", &a.gaps_imputed, &b.gaps_imputed),
                            ("cold restarts", &a.cold_restarts, &b.cold_restarts),
                            ("raised", &a.raised, &b.raised),
                            ("ended", &a.ended, &b.ended),
                        ] {
                            assert_eq!(x.get(), y.get(), "{what}: {threads:?} {name}");
                        }
                    }
                }
            }
        }
    }
}
