//! The detector core: one definition of the streaming detector's state,
//! degradation ladder, telemetry and checkpoint, which
//! [`crate::fleet::FleetDetector`] drives on its row and batch paths. Its
//! lifecycle tail steps the crate's one alert lifecycle ([`lifecycle`]).
//!
//! # State
//!
//! Each customer's streaming state is one [`Customer`] record, kept in a
//! `Vec` in the dense-id order the interner in [`Common`] hands out. A
//! record holds:
//!
//! * both halves of its three dual LSTM states, in one allocation, and
//!   their ages;
//! * the survival ring of its last `window` hazards;
//! * the open pooling bucket of every timescale coarser than a minute;
//! * the zero-order-hold frame;
//! * the alert lifecycle scalars and the newest driven minute;
//! * the companion's window, while a companion is attached.
//!
//! The frame and the buckets are [`Row`]s: the volumetric head
//! (`VOLUMETRIC_WIDTH`) inline, and the A1–A5 tail in a box that exists
//! only while some bit of it is set, which on most minutes of most
//! customers it is not. An absent tail reads as zeros, so every value the
//! kernel, the companion and the checkpoint see is the dense row's, bit
//! for bit.
//!
//! A timescale of granularity `g` closes a bucket every `g` minutes from
//! the customer's first minute and steps its LSTM on the bucket's mean in the
//! minute that completes it; that minute's hazard reads the new state. A
//! granularity-1 timescale reads the held frame directly and keeps no
//! bucket.
//!
//! A fleet worker owns a contiguous block of records, a `&mut [Customer]`
//! cut with `split_at_mut`. What one minute plans for a record, the
//! [`Due`] timescales, is not state: the caller keeps it from `ingest` to
//! `finish_row`.
//!
//! # One scalar, one kernel
//!
//! Every state value is `f64`, and every timescale steps through its layer
//! of the head's [`ServedModel`], built once from the trained model, on
//! one kernel: [`ServingLstm::step_online_dual`] advances both halves of a
//! record's dual state, each pinned bit-identical to
//! [`xatu_nn::Lstm::forward`]. The row path, imputed catch-up minutes and
//! the fleet's batch path all call it through [`Customer::step`]. A
//! timescale that takes part in a minute runs the kernel; nothing is
//! skipped or tabulated, so the stored state is always the state.
//!
//! # One minute of one customer
//!
//! `ingest` (sanitize or zero-order-hold, feed the pooling buckets, plan
//! which timescales step) → LSTM steps ([`step_dense`], each on the
//! record's input read back densely into [`RowScratch`]) → `finish_row`
//! (retire consumed buckets, survival tail, the companion's fusion hook,
//! lifecycle tail). [`row_minute`] runs the three back to back; the
//! fleet's batch worker runs each as a phase over its block.
//! Gaps since the customer's previous minute are bridged first by
//! [`catch_up`]: imputed minute by minute through [`row_minute`], or cold
//! restarted past `3 × window`. What the records emit goes to an
//! [`Emitted`] in record order, for the caller to stitch.

use crate::checkpoint::{CustomerCheckpoint, DetectorCheckpoint, DualStateCheckpoint};
use crate::config::XatuConfig;
use crate::error::XatuError;
use crate::fusion::{Fused, Ring};
use crate::lifecycle::{self, Step, MAX_ALERT_MINUTES, QUIET_MINUTES};
use crate::model::{ModelConfig, ServedModel, XatuModel, TIMESCALES};
use std::collections::HashMap;
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
    /// Alerts ended *because* they hit [`MAX_ALERT_MINUTES`].
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
    /// Dark onsets of the CDet feed with a companion attached: the
    /// companion starts voting.
    pub fusion_engaged: Counter,
    /// Recoveries of the CDet feed with a companion attached: the solo
    /// survival is reported again.
    pub fusion_recovered: Counter,
    /// Customer-minutes whose reported survival was the companion's
    /// (feed dark, ring full).
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

/// What driven records emit, in the order they were driven: lifecycle events
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

/// One minute's plan for one record: which timescales' buckets completed.
/// A completed timescale the model's mode uses steps its LSTM state; a
/// granularity-1 timescale completes every minute.
pub(crate) type Due = [bool; TIMESCALES];

/// Longest survival window a detector serves: one ring of it is 256 KB,
/// and `3 × window` (the longest imputed gap) stays far inside `u32`.
/// Every preset uses 10–30.
const MAX_WINDOW: u64 = 1 << 15;

/// Timescale names, in record order, for checkpoint errors.
const NAMES: [&str; TIMESCALES] = ["short", "medium", "long"];

/// The serving shape every detector is held to, from a configuration or
/// from a checkpoint: a survival window in `1..=MAX_WINDOW` and every
/// pooling granularity at least 1.
fn check_shape(window: u64, gran: [u32; TIMESCALES]) -> Result<(), String> {
    if gran.contains(&0) {
        return Err(format!("timescale granularities {gran:?} must be >= 1"));
    }
    if window == 0 || window > MAX_WINDOW {
        return Err(format!("survival window {window} outside 1..={MAX_WINDOW}"));
    }
    Ok(())
}

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

/// One `NUM_FEATURES`-wide frame-side row, stored in two parts: the
/// volumetric head (`VOLUMETRIC_WIDTH`) inline, and the auxiliary-signal
/// tail in a box that exists only while some bit of it is set. An absent
/// tail reads as `+0.0` throughout, so a row's values are the dense row's,
/// bit for bit; only where its zeros are stored differs.
///
/// Re-exported, hidden, as `xatu_core::FrameRow` for the micro-benchmarks
/// of its sanitizer; nothing else outside this module reaches it.
#[derive(Clone)]
pub struct Row {
    head: [f64; VOLUMETRIC_WIDTH],
    tail: Option<Tail>,
}

impl Default for Row {
    fn default() -> Self {
        Row {
            head: [0.0; VOLUMETRIC_WIDTH],
            tail: None,
        }
    }
}

impl Row {
    /// Writes the row into the `NUM_FEATURES`-wide `out`: the head, then
    /// the tail, zeros while it is absent.
    fn read(&self, out: &mut [f64]) {
        let (h, t) = out.split_at_mut(VOLUMETRIC_WIDTH);
        h.copy_from_slice(&self.head);
        match &self.tail {
            Some(b) => t.copy_from_slice(&b[..]),
            None => t.fill(0.0),
        }
    }

    /// The row as a step input: the head alone while the tail is absent,
    /// a prefix whose rest is zero (what [`ServingLstm::step_online_dual`]
    /// takes), or the whole row densified into `dense` while it is live.
    fn input<'a>(&'a self, dense: &'a mut Vec<f64>) -> &'a [f64] {
        if self.tail.is_none() {
            return &self.head;
        }
        dense.resize(NUM_FEATURES, 0.0);
        self.read(dense);
        dense
    }

    /// The row, dense.
    fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; NUM_FEATURES];
        self.read(&mut out);
        out
    }

    /// The row of a dense row: a tail with any set bit is boxed.
    fn from_dense(dense: &[f64]) -> Row {
        let (head, tail) = dense.split_at(VOLUMETRIC_WIDTH);
        let mut row = Row::default();
        row.head.copy_from_slice(head);
        row.tail = any_set(tail).then(|| {
            let mut b = zero_tail();
            b.copy_from_slice(tail);
            b
        });
        row
    }

    /// Sanitizes `raw` into the row and returns how many values were
    /// non-finite. The tail goes into the live box if there is one, which
    /// is freed if nothing in it is left set; otherwise a box is made only
    /// if some sanitized tail value has a set bit.
    ///
    /// Most raw tails are `+0.0` throughout: with no box live, one OR over
    /// their bits shows that nothing is to be boxed or replaced, and the
    /// row is done.
    pub fn sanitize_from(&mut self, raw: &[f64]) -> u64 {
        let (head, tail) = raw.split_at(VOLUMETRIC_WIDTH);
        let replaced = sanitize(&mut self.head, head);
        let slot = &mut self.tail;
        if slot.is_none() && tail.iter().fold(0, |acc, x| acc | x.to_bits()) == 0 {
            return replaced;
        }
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

    /// Adds `frame` into this bucket row. A present frame tail adds into
    /// the bucket's box, made zeroed on first use; an absent one is `+0.0`
    /// throughout, which changes no bucket value but a `−0.0`. No stepped
    /// bucket holds one (sums start at `+0.0` and an averaged bucket is
    /// reset within its minute), but a restored one may, so an existing
    /// box still takes the zeros.
    fn accumulate(&mut self, frame: &Row) {
        for (b, &v) in self.head.iter_mut().zip(&frame.head) {
            *b += v;
        }
        match (&frame.tail, &mut self.tail) {
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

    /// Scales the row by `inv` in place.
    fn scale(&mut self, inv: f64) {
        self.head.iter_mut().for_each(|v| *v *= inv);
        if let Some(b) = &mut self.tail {
            b.iter_mut().for_each(|v| *v *= inv);
        }
    }

    /// Zeroes the row. Its tail box is kept, zeroed, when `keep_tail`;
    /// otherwise it is freed.
    fn reset(&mut self, keep_tail: bool) {
        self.head.fill(0.0);
        match &mut self.tail {
            Some(b) if keep_tail => b.fill(0.0),
            slot => *slot = None,
        }
    }

    /// Heap bytes: the tail box while it exists.
    fn heap_bytes(&self) -> usize {
        self.tail
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<[f64; TAIL_WIDTH]>())
    }
}

/// A pooled timescale's open bucket: the sum of the frames fed to it so
/// far and how many. Between `ingest` and `finish_row` a completed bucket
/// holds their *mean* (scaled in place).
#[derive(Clone, Default)]
struct Bucket {
    sum: Row,
    count: u32,
}

/// One customer's streaming state: everything its minutes read and
/// write, one record per customer.
#[derive(Clone)]
pub(crate) struct Customer {
    /// Both halves of each timescale's dual LSTM state, timescale by
    /// timescale, each as `[aged_h, aged_c, fresh_h, fresh_c]` of `hidden`
    /// values.
    ///
    /// Training runs the LSTMs from a zero state over a context of
    /// `period` steps; a single streaming state would instead accumulate
    /// thousands of steps and drift off the training distribution. So
    /// each timescale keeps two states that both step on every input: the
    /// *aged* one (context length in `[period, 2·period)`) feeds the head,
    /// and on reaching `2·period` it is replaced by the *fresh* one, which
    /// by then has exactly `period` steps of context, and a zeroed fresh
    /// half starts again. Each half therefore equals `Lstm::forward` over
    /// the inputs since it was last zeroed, which a test in this module
    /// pins.
    dual: Box<[f64]>,
    /// Steps of context in each timescale's aged half.
    aged_age: [u32; TIMESCALES],
    /// Steps of context in each timescale's fresh half.
    fresh_age: [u32; TIMESCALES],
    /// The last `window` hazards, a ring: the next slot to write, the
    /// slots written so far (saturating at `window`) and their sum.
    ring: Box<[f64]>,
    ring_head: u32,
    ring_filled: u32,
    ring_sum: f64,
    /// Each timescale's open pooling bucket; none for a granularity-1
    /// timescale.
    buckets: [Option<Box<Bucket>>; TIMESCALES],
    /// Last sanitized frame (the zero-order-hold source).
    frame: Row,
    /// Minute the open alert was raised, if one is open.
    pub active_since: Option<u32>,
    /// Minutes in a row at or above the threshold while an alert is open.
    quiet_run: u32,
    /// Last reported survival.
    pub last_survival: f64,
    /// Minutes driven since the cold state (the warm-up count).
    observed: u32,
    /// Imputed minutes in a row.
    stale_run: u32,
    /// Newest driven minute.
    pub last_minute: Option<u32>,
    /// This customer's companion window, while a companion is attached.
    pub companion: Option<Box<Ring>>,
}

impl Customer {
    /// A customer in the cold state: both halves of every dual state zero
    /// and the aged one counted as `period` steps old, so the first
    /// promotion comes when the fresh one is fully warmed; an empty ring
    /// and empty buckets; no alert and no minute yet.
    pub(crate) fn new(k: &Knobs) -> Self {
        Customer {
            dual: vec![0.0; 4 * TIMESCALES * k.hidden].into_boxed_slice(),
            aged_age: k.period,
            fresh_age: [0; TIMESCALES],
            ring: vec![0.0; k.window].into_boxed_slice(),
            ring_head: 0,
            ring_filled: 0,
            ring_sum: 0.0,
            buckets: k.gran.map(|g| (g > 1).then(Box::default)),
            frame: Row::default(),
            active_since: None,
            quiet_run: 0,
            last_survival: 1.0,
            observed: 0,
            stale_run: 0,
            last_minute: None,
            companion: None,
        }
    }

    /// Timescale `t`'s `[aged_h, aged_c, fresh_h, fresh_c]`.
    fn halves(&self, t: usize) -> [&[f64]; 4] {
        let h = self.dual.len() / (4 * TIMESCALES);
        let s = &self.dual[4 * t * h..4 * (t + 1) * h];
        std::array::from_fn(|i| &s[i * h..(i + 1) * h])
    }

    /// Steps timescale `t` on the record's input, its averaged bucket or
    /// for a granularity-1 timescale the held frame: the row's head alone
    /// while its tail is absent, and the row densified into `dense`
    /// otherwise ([`Row::input`]).
    fn step(
        &mut self,
        t: usize,
        period: u32,
        lstm: &ServingLstm,
        dense: &mut Vec<f64>,
        ws: &mut OnlineWorkspace,
    ) {
        let Customer {
            dual,
            aged_age,
            fresh_age,
            buckets,
            frame,
            ..
        } = self;
        let x = match &buckets[t] {
            Some(b) => b.sum.input(dense),
            None => frame.input(dense),
        };
        let ages = [&mut aged_age[t], &mut fresh_age[t]];
        step_dual(split_halves(dual, t), ages, period, lstm, x, ws);
    }

    /// Pushes `hazard` into the ring of the last `window` hazards and
    /// returns the survival over them: streaming
    /// [`xatu_survival::rolling_survival`]. A non-finite hazard counts as
    /// zero, so an infinite one cannot turn the running sum into `NaN`
    /// when it rotates out.
    fn ring_push(&mut self, hazard: f64) -> f64 {
        let w = self.ring.len();
        let h = if hazard.is_finite() {
            hazard.max(0.0)
        } else {
            0.0
        };
        let hd = self.ring_head as usize;
        let slot = &mut self.ring[hd];
        self.ring_sum += h - *slot;
        *slot = h;
        self.ring_head = ((hd + 1) % w) as u32;
        self.ring_filled = (self.ring_filled + 1).min(w as u32);
        if self.ring_sum < 0.0 {
            self.ring_sum = 0.0;
        }
        (-self.ring_sum).exp()
    }

    /// Bytes the record owns besides itself: the dual states, the ring,
    /// the buckets, every live tail box and the companion window.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.dual.len() + self.ring.len()) * size_of::<f64>()
            + self.frame.heap_bytes()
            + (self.buckets.iter().flatten())
                .map(|b| size_of::<Bucket>() + b.sum.heap_bytes())
                .sum::<usize>()
            + (self.companion.as_ref()).map_or(0, |r| size_of::<Ring>() + r.heap_bytes())
    }

    /// The record as its checkpoint, field for field.
    fn to_checkpoint(&self, addr: Ipv4, period: [u32; TIMESCALES]) -> CustomerCheckpoint {
        CustomerCheckpoint {
            addr: addr.0,
            dual: std::array::from_fn(|t| {
                let [aged_h, aged_c, fresh_h, fresh_c] = self.halves(t).map(<[f64]>::to_vec);
                DualStateCheckpoint {
                    aged_h,
                    aged_c,
                    fresh_h,
                    fresh_c,
                    aged_age: self.aged_age[t],
                    fresh_age: self.fresh_age[t],
                    period: period[t],
                }
            }),
            survival: (
                self.ring.len() as u64,
                self.ring.to_vec(),
                self.ring_head as u64,
                self.ring_filled as u64,
                self.ring_sum,
            ),
            partial: self.buckets.each_ref().map(|b| match b {
                Some(b) => (b.sum.to_dense(), b.count),
                None => (Vec::new(), 0),
            }),
            active_since: self.active_since,
            quiet_run: self.quiet_run,
            last_survival: self.last_survival,
            observed: self.observed,
            last_frame: self.frame.to_dense(),
            stale_run: self.stale_run,
            last_minute: self.last_minute,
        }
    }

    /// Validates one customer's checkpoint against the detector's knobs,
    /// then builds its record. Every check runs before the record exists:
    /// a state the stepping logic can never reach (mismatched sizes, an
    /// age at or past the promotion point, a poisoned ring) is rejected,
    /// not served.
    fn from_checkpoint(k: &Knobs, c: &CustomerCheckpoint) -> Result<Self, String> {
        for (d, &period) in c.dual.iter().zip(&k.period) {
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
            if h != k.hidden {
                return Err(format!(
                    "dual-state hidden size {h} does not match model hidden {}",
                    k.hidden
                ));
            }
            if d.period != period {
                return Err(format!(
                    "dual-state period {} does not match the detector's context length {period}",
                    d.period
                ));
            }
        }

        let w = k.window;
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

        for ((name, gran), (sum, count)) in NAMES.into_iter().zip(k.gran).zip(&c.partial) {
            if sum.len() != usize::from(gran > 1) * NUM_FEATURES {
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

        let dual: Vec<f64> = (c.dual.iter())
            .flat_map(|d| [&d.aged_h, &d.aged_c, &d.fresh_h, &d.fresh_c])
            .flatten()
            .copied()
            .collect();
        Ok(Customer {
            dual: dual.into_boxed_slice(),
            aged_age: c.dual.each_ref().map(|d| d.aged_age),
            fresh_age: c.dual.each_ref().map(|d| d.fresh_age),
            ring: buf.as_slice().into(),
            ring_head: *head as u32,
            ring_filled: *filled as u32,
            ring_sum: *sum,
            buckets: std::array::from_fn(|t| {
                let (sum, count) = &c.partial[t];
                (k.gran[t] > 1).then(|| {
                    Box::new(Bucket {
                        sum: Row::from_dense(sum),
                        count: *count,
                    })
                })
            }),
            frame: Row::from_dense(&c.last_frame),
            active_since: c.active_since,
            quiet_run: c.quiet_run,
            last_survival: c.last_survival,
            observed: c.observed,
            stale_run: c.stale_run,
            last_minute: c.last_minute,
            companion: None,
        })
    }
}

/// Timescale `t`'s `[aged_h, aged_c, fresh_h, fresh_c]` of a record's
/// dual states.
fn split_halves(dual: &mut [f64], t: usize) -> [&mut [f64]; 4] {
    let h = dual.len() / (4 * TIMESCALES);
    let s = &mut dual[4 * t * h..4 * (t + 1) * h];
    let (aged_h, s) = s.split_at_mut(h);
    let (aged_c, s) = s.split_at_mut(h);
    let (fresh_h, fresh_c) = s.split_at_mut(h);
    [aged_h, aged_c, fresh_h, fresh_c]
}

/// Steps both halves of one timescale's dual state (`halves`, from
/// [`split_halves`]) on `x` through the layer's one online step, then ticks
/// their ages `[aged, fresh]`: both advance, and at `2·period` the fresh
/// half is promoted and a zeroed one takes its place.
fn step_dual(
    halves: [&mut [f64]; 4],
    ages: [&mut u32; 2],
    period: u32,
    lstm: &ServingLstm,
    x: &[f64],
    ws: &mut OnlineWorkspace,
) {
    let [aged_h, aged_c, fresh_h, fresh_c] = halves;
    let [aged_age, fresh_age] = ages;
    lstm.step_online_dual(x, aged_h, aged_c, fresh_h, fresh_c, ws);
    *aged_age += 1;
    *fresh_age += 1;
    if *aged_age >= 2 * period {
        aged_h.copy_from_slice(fresh_h);
        aged_c.copy_from_slice(fresh_c);
        fresh_h.fill(0.0);
        fresh_c.fill(0.0);
        *aged_age = *fresh_age;
        *fresh_age = 0;
    }
}

/// Scalar knobs of one detector, copied out so workers share them freely.
#[derive(Clone, Copy)]
pub(crate) struct Knobs {
    attack_type: AttackType,
    threshold: f64,
    window: usize,
    warmup: u32,
    /// Pooling granularity of each timescale, in minutes.
    gran: [u32; TIMESCALES],
    /// Each timescale's dual-state period: its training context length.
    period: [u32; TIMESCALES],
    /// Stale run at which the blend saturates and raises are suppressed.
    stale_limit: u32,
    /// Longest gap bridged by imputation; anything longer cold-restarts.
    max_imputed_gap: u32,
    hidden: usize,
    /// Which timescales the model's mode enables.
    used: [bool; TIMESCALES],
}

/// Scratch of one record's minute, reused from record to record.
#[derive(Clone, Default)]
pub(crate) struct RowScratch {
    /// Workspace of the LSTM step.
    step: OnlineWorkspace,
    /// Combiner input (`3·hidden`).
    pub input: Vec<f64>,
    /// The dense input row of a step whose row has a live tail
    /// (`NUM_FEATURES`).
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

/// Rebuilds the record from scratch after an unbridgeable gap: ends any
/// open alert, resets every accumulator and the companion window,
/// re-enters warm-up. Leaves `last_minute` alone.
fn cold_restart(
    k: &Knobs,
    obs: &mut DetectorObs,
    c: &mut Customer,
    addr: Ipv4,
    minute: u32,
    out: &mut Emitted,
) {
    if let Some(detected_at) = c.active_since.take() {
        obs.ended.inc();
        out.events.push(DetectorEvent::Ended(Alert {
            customer: addr,
            attack_type: k.attack_type,
            detected_at,
            mitigation_end: Some(minute),
        }));
    }
    c.dual.fill(0.0);
    c.aged_age = k.period;
    c.fresh_age = [0; TIMESCALES];
    c.ring.fill(0.0);
    c.ring_head = 0;
    c.ring_filled = 0;
    c.ring_sum = 0.0;
    for b in c.buckets.iter_mut().flatten() {
        b.sum.reset(false);
        b.count = 0;
    }
    c.frame.reset(false);
    c.quiet_run = 0;
    c.last_survival = 1.0;
    c.observed = 0;
    c.stale_run = 0;
    if let Some(ring) = &mut c.companion {
        ring.clear();
    }
    obs.cold_restarts.inc();
}

/// Bridges the gap between the record's newest minute and `minute` (which
/// the caller has checked is later): short gaps are imputed minute by
/// minute, long ones cold-restart the record.
#[allow(clippy::too_many_arguments)]
pub(crate) fn catch_up(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    c: &mut Customer,
    addr: Ipv4,
    minute: u32,
    row: &mut RowScratch,
    hook: &mut Option<Fused<'_>>,
    out: &mut Emitted,
) {
    let Some(last) = c.last_minute else {
        return;
    };
    let gap = minute - last - 1;
    if gap > net.k.max_imputed_gap {
        // Imputing hours of fiction would be slower *and* wronger than
        // admitting the context is gone.
        obs.gap_runs.observe(gap as f64);
        cold_restart(&net.k, obs, c, addr, minute, out);
    } else {
        for m in last + 1..minute {
            row_minute(net, obs, c, addr, m, None, row, hook, out);
        }
    }
}

/// Takes the record's input for one minute — a real frame, sanitized into
/// the zero-order-hold frame, or `None` to replay that frame — feeds it to
/// every timescale's open pooling bucket, and returns which buckets
/// completed. A granularity-1 timescale completes a bucket every minute
/// and steps on the held frame itself.
pub(crate) fn ingest(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    c: &mut Customer,
    frame: Option<&[f64]>,
) -> Due {
    match frame {
        None => {
            c.stale_run += 1;
            obs.gaps_imputed.inc();
        }
        Some(raw) => {
            let replaced = c.frame.sanitize_from(raw);
            if replaced > 0 {
                obs.values_sanitized.add(replaced);
            }
            // A real frame ends any stale run.
            if c.stale_run > 0 {
                obs.gap_runs.observe(c.stale_run as f64);
                c.stale_run = 0;
            }
        }
    }
    let gran = net.k.gran;
    std::array::from_fn(|t| {
        let Some(b) = &mut c.buckets[t] else {
            return true;
        };
        b.sum.accumulate(&c.frame);
        b.count += 1;
        let due = b.count == gran[t];
        if due {
            b.sum.scale(1.0 / gran[t] as f64);
            b.count = 0;
        }
        due
    })
}

/// The aged hidden states through the combiner head, softplus hazard,
/// survival ring and staleness blend: `(hazard, reported survival)`.
fn survival_tail(net: &Net<'_>, c: &mut Customer, input: &mut Vec<f64>) -> (f64, f64) {
    let k = &net.k;
    let h = k.hidden;
    input.clear();
    input.resize(TIMESCALES * h, 0.0);
    for t in (0..TIMESCALES).filter(|&t| k.used[t]) {
        input[t * h..(t + 1) * h].copy_from_slice(c.halves(t)[0]);
    }
    let mut logit = [0.0f64; 1];
    net.head.forward_into(input, &mut logit);
    let hazard = softplus(logit[0]);
    let raw = c.ring_push(hazard);
    // With no fresh evidence the reported survival decays toward 1.0
    // ("nothing observable is wrong") as the stale run approaches the
    // survival window. The clean path reports `raw` untouched.
    let reported = if c.stale_run == 0 {
        raw
    } else {
        let w = c.stale_run.min(k.stale_limit) as f64 / k.stale_limit as f64;
        raw + (1.0 - raw) * w
    };
    (hazard, reported)
}

/// Records the reported survival, applies the warm-up gate and steps the
/// alert lifecycle ([`lifecycle::step`]), counting and emitting what it
/// raised or ended.
pub(crate) fn lifecycle_tail(
    k: &Knobs,
    obs: &mut DetectorObs,
    c: &mut Customer,
    addr: Ipv4,
    minute: u32,
    reported: f64,
    out: &mut Emitted,
) {
    c.last_survival = reported;
    c.observed += 1;
    if xatu_obs::enabled() {
        out.survivals.push(reported);
    }
    if c.observed <= k.warmup {
        obs.warmup_suppressed.inc();
        return;
    }
    let firing = reported < k.threshold;
    let fresh = c.stale_run == 0;
    let (detected_at, end) =
        match lifecycle::step(&mut c.active_since, &mut c.quiet_run, minute, firing, fresh) {
            Step::Hold => return,
            Step::Raised => {
                obs.raised.inc();
                (minute, None)
            }
            Step::Ended {
                detected_at,
                forced,
            } => {
                obs.ended.inc();
                obs.force_ended.add(u64::from(forced));
                (detected_at, Some(minute))
            }
        };
    let alert = Alert {
        customer: addr,
        attack_type: k.attack_type,
        detected_at,
        mitigation_end: end,
    };
    out.events.push(match end {
        None => DetectorEvent::Raised(alert),
        Some(_) => DetectorEvent::Ended(alert),
    });
}

/// Everything after the record's LSTM states have advanced: retire the
/// buckets this minute consumed (`due`), survival tail, the companion's
/// fusion (if `hook` has one), lifecycle tail, clock. Returns `(hazard,
/// reported survival)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_row(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    c: &mut Customer,
    due: Due,
    addr: Ipv4,
    minute: u32,
    input: &mut Vec<f64>,
    hook: &mut Option<Fused<'_>>,
    out: &mut Emitted,
) -> (f64, f64) {
    // A bucket's tail box outlives its reset while the frame's tail is
    // set, so a steady tail allocates nothing from bucket to bucket.
    let keep_tail = c.frame.tail.is_some();
    for (b, due) in c.buckets.iter_mut().zip(due) {
        if let (Some(b), true) = (b, due) {
            b.sum.reset(keep_tail);
        }
    }
    let (hazard, reported) = survival_tail(net, c, input);
    let reported = match (hook, &mut c.companion) {
        (Some(hook), Some(ring)) => hook.fuse(obs, ring, &c.frame.head, reported),
        _ => reported,
    };
    lifecycle_tail(&net.k, obs, c, addr, minute, reported, out);
    c.last_minute = Some(minute);
    (hazard, reported)
}

/// Steps timescale `t` of the record if this minute completed its bucket
/// and the model's mode uses it: both halves of the dual state advance on
/// the record's input, its averaged bucket or for a granularity-1
/// timescale the held frame. A row with a live tail is read back densely
/// into `row`; one without hands over its volumetric head alone.
pub(crate) fn step_dense(
    net: &Net<'_>,
    c: &mut Customer,
    t: usize,
    due: Due,
    row: &mut RowScratch,
) {
    if !(due[t] && net.k.used[t]) {
        return;
    }
    c.step(t, net.k.period[t], net.layers[t], &mut row.x, &mut row.step);
}

/// One customer through one minute on the row path: `ingest`, the LSTM
/// step of every timescale it plans, `finish_row`. `frame` is `None` for
/// an imputed minute.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_minute(
    net: &Net<'_>,
    obs: &mut DetectorObs,
    c: &mut Customer,
    addr: Ipv4,
    minute: u32,
    frame: Option<&[f64]>,
    row: &mut RowScratch,
    hook: &mut Option<Fused<'_>>,
    out: &mut Emitted,
) -> (f64, f64) {
    let due = ingest(net, obs, c, frame);
    for t in 0..TIMESCALES {
        step_dense(net, c, t, due, row);
    }
    finish_row(net, obs, c, due, addr, minute, &mut row.input, hook, out)
}

/// What the detector owns besides its records: the served model, the
/// serving configuration, the address interner and the telemetry.
#[derive(Clone)]
pub(crate) struct Common {
    pub model: ServedModel,
    pub attack_type: AttackType,
    pub threshold: f64,
    pub window: usize,
    /// Per-customer observations to ignore before alerting: LSTM states
    /// need to settle from their cold start.
    pub warmup: u32,
    /// Training context lengths: the dual states reset on these periods so
    /// serving matches the training distribution.
    pub ctx_lens: (usize, usize, usize),
    /// Registered addresses in dense-id order.
    pub addrs: Vec<Ipv4>,
    index: HashMap<Ipv4, u32>,
    pub obs: DetectorObs,
    /// The dispatch level of the model's online kernels.
    pub simd: SimdLevel,
}

impl Common {
    /// The one place a model meets a configuration, for every front-end.
    /// The kernels dispatch at the level the environment asks for
    /// ([`simd::detect`]).
    ///
    /// # Panics
    /// Panics, naming the field, if `cfg.window` is outside
    /// `1..=MAX_WINDOW` or one of the model's timescale granularities is
    /// zero: the shapes a checkpoint of them would be refused for.
    pub(crate) fn new(
        model: XatuModel,
        attack_type: AttackType,
        threshold: f64,
        cfg: &XatuConfig,
    ) -> Self {
        if let Err(e) = check_shape(cfg.window as u64, model.cfg.gran()) {
            panic!("invalid detector configuration: {e}");
        }
        let simd = simd::detect();
        let mut model = ServedModel::new(model);
        model.set_simd(simd);
        Common {
            model,
            attack_type,
            threshold,
            window: cfg.window,
            warmup: 2 * cfg.window as u32,
            ctx_lens: (cfg.short_len, cfg.medium_len, cfg.long_len),
            addrs: Vec::new(),
            index: HashMap::new(),
            obs: DetectorObs::default(),
            simd,
        }
    }

    pub(crate) fn knobs(&self) -> Knobs {
        let (s, m, l) = self.ctx_lens;
        Knobs {
            attack_type: self.attack_type,
            threshold: self.threshold,
            window: self.window,
            warmup: self.warmup,
            gran: self.model.cfg.gran(),
            period: [s, m, l].map(|p| (p as u32).max(1)),
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
    /// transposed back) and every customer's record (sorted by address).
    /// Telemetry is excluded: counters restart at zero on resume.
    pub(crate) fn checkpoint(&self, customers: &[Customer]) -> DetectorCheckpoint {
        let mut model = self.model.to_model();
        let mut params = vec![0.0; model.param_count()];
        model.export_params_into(&mut params);
        let period = self.knobs().period;
        let mut order: Vec<usize> = (0..self.addrs.len()).collect();
        order.sort_unstable_by_key(|&i| self.addrs[i].0);
        let customers = order
            .into_iter()
            .map(|i| customers[i].to_checkpoint(self.addrs[i], period))
            .collect();
        DetectorCheckpoint {
            attack_type: self.attack_type,
            threshold: self.threshold,
            window: self.window as u64,
            quiet: QUIET_MINUTES,
            warmup: self.warmup,
            ctx_lens: (
                self.ctx_lens.0 as u64,
                self.ctx_lens.1 as u64,
                self.ctx_lens.2 as u64,
            ),
            max_alert_minutes: MAX_ALERT_MINUTES,
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
pub(crate) fn restore(ck: &DetectorCheckpoint) -> Result<(Common, Vec<Customer>), XatuError> {
    let bad = |reason: String| XatuError::invalid_checkpoint(reason);
    let (s, m, l) = ck.timescales;
    check_shape(ck.window, [s, m, l]).map_err(bad)?;
    // The record keeps the lifecycle it was written under; this build
    // serves one, so a record of another is refused rather than re-read.
    for (field, got, want) in [
        ("quiet", ck.quiet, QUIET_MINUTES),
        ("max_alert_minutes", ck.max_alert_minutes, MAX_ALERT_MINUTES),
    ] {
        if got != want {
            return Err(bad(format!("{field} is {got}, this build serves {want}")));
        }
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
    let mut common = Common {
        model,
        attack_type: ck.attack_type,
        threshold: ck.threshold,
        window: ck.window as usize,
        warmup: ck.warmup,
        ctx_lens: (
            ck.ctx_lens.0 as usize,
            ck.ctx_lens.1 as usize,
            ck.ctx_lens.2 as usize,
        ),
        addrs: Vec::new(),
        index: HashMap::with_capacity(ck.customers.len()),
        obs: DetectorObs::default(),
        simd,
    };
    let k = common.knobs();
    let mut customers = Vec::with_capacity(ck.customers.len());
    let mut prev = None;
    for c in &ck.customers {
        let (_, new) = common.intern(Ipv4(c.addr));
        if !new {
            return Err(bad(format!("customer {} appears twice", c.addr)));
        }
        if prev.is_some_and(|p| p > c.addr) {
            return Err(bad(format!("customer {} out of address order", c.addr)));
        }
        prev = Some(c.addr);
        let record = Customer::from_checkpoint(&k, c)
            .map_err(|e| bad(format!("customer {}: {e}", c.addr)))?;
        customers.push(record);
    }
    Ok((common, customers))
}

/// The frame-side rows as they were before the auxiliary-signal tail was
/// carved off: every zero-order-hold frame and pooling bucket a dense
/// `NUM_FEATURES`-wide row, and `ingest`, `finish_row` and `cold_restart`
/// over them. The dual states, the ring, the bucket counts and the
/// lifecycle scalars are a live [`Customer`] record's; its own frame and
/// bucket rows stay zero, and only the dense rows here are read. Kept as
/// the reference the live rows are pinned to.
#[cfg(test)]
mod before_sparse {
    use super::*;
    use std::ops::Range;

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
        c: &mut Customer,
        d: &mut Dense,
        j: usize,
        addr: Ipv4,
        minute: u32,
        out: &mut Emitted,
    ) {
        if let Some(detected_at) = c.active_since.take() {
            obs.ended.inc();
            out.events.push(DetectorEvent::Ended(Alert {
                customer: addr,
                attack_type: k.attack_type,
                detected_at,
                mitigation_end: Some(minute),
            }));
        }
        c.dual.fill(0.0);
        c.aged_age = k.period;
        c.fresh_age = [0; TIMESCALES];
        c.ring.fill(0.0);
        c.ring_head = 0;
        c.ring_filled = 0;
        c.ring_sum = 0.0;
        let r = features(j);
        for t in (0..TIMESCALES).filter(|&t| d.pooled[t]) {
            d.partial[t][r.clone()].fill(0.0);
            c.buckets[t].as_mut().expect("pooled").count = 0;
        }
        d.frame[r].fill(0.0);
        c.quiet_run = 0;
        c.last_survival = 1.0;
        c.observed = 0;
        c.stale_run = 0;
        obs.cold_restarts.inc();
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn catch_up(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        c: &mut Customer,
        d: &mut Dense,
        j: usize,
        addr: Ipv4,
        minute: u32,
        row: &mut RowScratch,
        hook: &mut Option<Fused<'_>>,
        out: &mut Emitted,
    ) {
        let Some(last) = c.last_minute else {
            return;
        };
        let gap = minute - last - 1;
        if gap > net.k.max_imputed_gap {
            obs.gap_runs.observe(gap as f64);
            cold_restart(&net.k, obs, c, d, j, addr, minute, out);
            if let (Some(hook), Some(ring)) = (hook, &mut c.companion) {
                **ring = crate::fusion::Ring::new(hook.comp.window);
            }
        } else {
            for m in last + 1..minute {
                row_minute(net, obs, c, d, j, addr, m, None, row, hook, out);
            }
        }
    }

    fn ingest(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        c: &mut Customer,
        d: &mut Dense,
        j: usize,
        frame: Option<&[f64]>,
    ) -> Due {
        let r = features(j);
        match frame {
            None => {
                c.stale_run += 1;
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
                if c.stale_run > 0 {
                    obs.gap_runs.observe(c.stale_run as f64);
                    c.stale_run = 0;
                }
            }
        }
        let k = &net.k;
        std::array::from_fn(|t| {
            !d.pooled[t] || {
                let bucket = &mut d.partial[t][r.clone()];
                for (b, &v) in bucket.iter_mut().zip(&d.frame[r.clone()]) {
                    *b += v;
                }
                let count = &mut c.buckets[t].as_mut().expect("pooled").count;
                *count += 1;
                let due = *count == k.gran[t];
                if due {
                    let inv = 1.0 / k.gran[t] as f64;
                    bucket.iter_mut().for_each(|v| *v *= inv);
                    *count = 0;
                }
                due
            }
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_row(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        c: &mut Customer,
        d: &mut Dense,
        j: usize,
        due: Due,
        addr: Ipv4,
        minute: u32,
        input: &mut Vec<f64>,
        hook: &mut Option<Fused<'_>>,
        out: &mut Emitted,
    ) -> (f64, f64) {
        let r = features(j);
        for t in (0..TIMESCALES).filter(|&t| d.pooled[t]) {
            if due[t] {
                d.partial[t][r.clone()].fill(0.0);
            }
        }
        let (hazard, reported) = survival_tail(net, c, input);
        let reported = match (hook, &mut c.companion) {
            (Some(hook), Some(ring)) => hook.fuse(obs, ring, &d.frame[r], reported),
            _ => reported,
        };
        lifecycle_tail(&net.k, obs, c, addr, minute, reported, out);
        c.last_minute = Some(minute);
        (hazard, reported)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn row_minute(
        net: &Net<'_>,
        obs: &mut DetectorObs,
        c: &mut Customer,
        d: &mut Dense,
        j: usize,
        addr: Ipv4,
        minute: u32,
        frame: Option<&[f64]>,
        row: &mut RowScratch,
        hook: &mut Option<Fused<'_>>,
        out: &mut Emitted,
    ) -> (f64, f64) {
        let due = ingest(net, obs, c, d, j, frame);
        let r = features(j);
        for (t, due) in due.into_iter().enumerate() {
            if due && net.k.used[t] {
                let x = if d.pooled[t] {
                    &d.partial[t][r.clone()]
                } else {
                    &d.frame[r.clone()]
                };
                let ages = [&mut c.aged_age[t], &mut c.fresh_age[t]];
                let (period, layer) = (net.k.period[t], net.layers[t]);
                step_dual(
                    split_halves(&mut c.dual, t),
                    ages,
                    period,
                    layer,
                    x,
                    &mut row.step,
                );
            }
        }
        let input = &mut row.input;
        finish_row(net, obs, c, d, j, due, addr, minute, input, hook, out)
    }

    /// The live checkpoint with the dense frame-side rows written in.
    pub(super) fn checkpoint(
        common: &Common,
        customers: &[Customer],
        d: &Dense,
    ) -> DetectorCheckpoint {
        let mut ck = common.checkpoint(customers);
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

    /// A detector core and one cold customer's record.
    fn one_row(c: &XatuConfig) -> (Common, Customer) {
        let common = Common::new(XatuModel::new(c), AttackType::UdpFlood, 0.5, c);
        let record = Customer::new(&common.knobs());
        (common, record)
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

    /// Each half of each timescale's dual state is `Lstm::forward` over the
    /// inputs that timescale consumed since the half was last zeroed.
    /// After `n` inputs at period `p`, the aged half started at input
    /// `p·(n/p − 1)` and the fresh one at `p·(n/p)` (both at 0 while
    /// `n < p`). The stream crosses at least two promotions on every
    /// timescale and holds imputed minutes, both explicit gaps and a
    /// skipped run that `catch_up` bridges.
    #[test]
    fn dual_rows_equal_forward_since_each_half_was_zeroed() {
        let c = cfg();
        let (mut common, mut record) = one_row(&c);
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
            let (obs, addr, rec) = (&mut common.obs, Ipv4(1), &mut record);
            catch_up(&net, obs, rec, addr, m, &mut row, &mut None, &mut out);
            let frame = raw.as_deref();
            row_minute(
                &net, obs, rec, addr, m, frame, &mut row, &mut None, &mut out,
            );

            for t in 0..TIMESCALES {
                let (n, p) = (inputs[t].len(), periods[t]);
                let (aged_from, fresh_from) = (p * (n / p).saturating_sub(1), p * (n / p));
                let want = |from: usize| {
                    let trace = trained.layers()[t].forward(&inputs[t][from..]);
                    (bits(trace.final_h()), bits(trace.final_c()))
                };
                let [aged_h, aged_c, fresh_h, fresh_c] = record.halves(t);
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
                assert_eq!(record.aged_age[t] as usize, aged_age, "{what}: aged age");
                assert_eq!(
                    record.fresh_age[t] as usize,
                    n - fresh_from,
                    "{what}: fresh age"
                );
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
        let (_, mut record) = one_row(&c);
        let hazards: Vec<f64> = (0..40)
            .map(|t| 0.3 * ((t as f64 * 0.7).sin() + 1.0) + if t % 9 == 0 { 2.0 } else { 0.0 })
            .collect();
        let want = rolling_survival(&hazards, c.window);
        for (t, (&h, &w)) in hazards.iter().zip(&want).enumerate() {
            let got = record.ring_push(h);
            assert!((got - w).abs() < 1e-12, "t={t}: ring {got} vs batch {w}");
        }

        let (_, mut record) = one_row(&c);
        record.ring_push(0.5);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let s = record.ring_push(bad);
            assert!(s.is_finite(), "hazard {bad} leaked into survival: {s}");
        }
        let mut s = 0.0;
        for _ in 0..c.window {
            s = record.ring_push(0.0);
        }
        assert_eq!(s, 1.0);
    }

    /// Serving runs one pooling schedule at every timescale triple, the
    /// short timescale included: bucket `k` of a timescale of granularity
    /// `g` is the mean of minutes `[k·g, (k+1)·g)` from the row's first
    /// minute, and each half of that timescale's dual state is
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
    /// `FleetDetector::observe`, with an optional companion that votes
    /// while `dark` is set.
    struct Reference {
        common: Common,
        customers: Vec<Customer>,
        dense: before_sparse::Dense,
        companion: Option<crate::fusion::Companion>,
        dark: bool,
        row: RowScratch,
        ae_ws: xatu_nn::AeWorkspace,
        ae_window: xatu_nn::FrameArena,
    }

    impl Reference {
        fn new(model: XatuModel, c: &XatuConfig) -> Self {
            let gran = model.cfg.gran();
            Reference {
                common: Common::new(model, AttackType::UdpFlood, DIFF_THRESHOLD, c),
                customers: Vec::new(),
                dense: before_sparse::Dense::new(gran),
                companion: None,
                dark: false,
                row: RowScratch::default(),
                ae_ws: xatu_nn::AeWorkspace::new(),
                ae_window: xatu_nn::FrameArena::new(VOLUMETRIC_WIDTH),
            }
        }

        fn observe(&mut self, addr: Ipv4, minute: u32, frame: Option<&[f64]>) -> Emitted {
            let (j, new) = self.common.intern(addr);
            let net = Net::new(&self.common.model, self.common.knobs());
            if new {
                let mut record = Customer::new(&net.k);
                if let Some(comp) = &self.companion {
                    record.companion = Some(Box::new(crate::fusion::Ring::new(comp.window)));
                }
                self.customers.push(record);
                self.dense.push();
            }
            let c = &mut self.customers[j];
            let obs = &mut self.common.obs;
            check_order(obs, c.last_minute, addr, minute).expect("in-order minute");
            let hook = &mut self.companion.as_ref().map(|comp| Fused {
                comp,
                ws: &mut self.ae_ws,
                scratch: &mut self.ae_window,
                dark: self.dark,
            });
            let mut out = Emitted::default();
            let d = &mut self.dense;
            let row = &mut self.row;
            before_sparse::catch_up(&net, obs, c, d, j, addr, minute, row, hook, &mut out);
            before_sparse::row_minute(&net, obs, c, d, j, addr, minute, frame, row, hook, &mut out);
            out.record(obs);
            out
        }

        fn checkpoint(&self) -> DetectorCheckpoint {
            before_sparse::checkpoint(&self.common, &self.customers, &self.dense)
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

    /// Raw tails the sanitizer's one-OR exit must tell apart: all `+0.0`
    /// (the exit), and a lone `−0.0`, NaN, `+∞` or subnormal of either sign
    /// at the first, a middle or the last tail position (the full scan).
    /// Each comes after a frame whose tail was absent, after one whose tail
    /// was live, and after one holding a lone `−0.0`, so it meets both an
    /// absent and a live box. After every minute the live record equals
    /// [`before_sparse`]'s dense one: the held frame and every open bucket
    /// bit for bit, the tail boxed exactly while some bit of it is set,
    /// the sanitized count, the dual states and the survival.
    #[test]
    fn absent_and_lone_value_tails_sanitize_like_the_dense_rows() {
        const TAIL: usize = NUM_FEATURES - VOLUMETRIC_WIDTH;
        let c = cfg();
        let model = XatuModel::new(&c);
        let addr = Ipv4(7);
        let lone = [-0.0, f64::NAN, f64::INFINITY, 5e-324, -2.0e-310];
        let mut tails: Vec<Option<(usize, f64)>> = vec![None];
        for at in [0, 1, TAIL / 2, TAIL - 1] {
            tails.extend(lone.iter().map(|&v| Some((at, v))));
        }
        let head = |m: u32| -> Vec<f64> {
            let mut f = vec![0.0; NUM_FEATURES];
            f[m as usize % VOLUMETRIC_WIDTH] = 0.5 + m as f64 * 0.01;
            f[(m as usize * 7 + 3) % VOLUMETRIC_WIDTH] = -1.25;
            f
        };
        let before: [fn(&mut [f64]); 3] = [
            |_| {},
            |f| f[VOLUMETRIC_WIDTH + 40..VOLUMETRIC_WIDTH + 44].fill(0.75),
            |f| f[VOLUMETRIC_WIDTH + 3] = -0.0,
        ];
        let mut reference = Reference::new(model.clone(), &c);
        let common = Common::new(model, AttackType::UdpFlood, DIFF_THRESHOLD, &c);
        let net = Net::new(&common.model, common.knobs());
        let mut obs = DetectorObs::default();
        let mut live = Customer::new(&net.k);
        let mut row = RowScratch::default();
        let mut m = 0u32;
        for tail in &tails {
            for set_before in &before {
                for step in 0..2 {
                    let mut f = head(m);
                    if step == 0 {
                        set_before(&mut f);
                    } else if let Some((at, v)) = *tail {
                        f[VOLUMETRIC_WIDTH + at] = v;
                    }
                    reference.observe(addr, m, Some(&f));
                    let mut out = Emitted::default();
                    row_minute(
                        &net,
                        &mut obs,
                        &mut live,
                        addr,
                        m,
                        Some(&f),
                        &mut row,
                        &mut None,
                        &mut out,
                    );
                    let what = format!("tail {tail:?}, minute {m}");
                    let (d, rc) = (&reference.dense, &reference.customers[0]);
                    let want_frame = &d.frame[..NUM_FEATURES];
                    assert_eq!(
                        bits(&live.frame.to_dense()),
                        bits(want_frame),
                        "{what}: frame"
                    );
                    let set = want_frame[VOLUMETRIC_WIDTH..]
                        .iter()
                        .any(|v| v.to_bits() != 0);
                    assert_eq!(live.frame.tail.is_some(), set, "{what}: frame box");
                    for (t, b) in live.buckets.iter().enumerate() {
                        if let Some(b) = b {
                            let want = &d.partial[t][..NUM_FEATURES];
                            assert_eq!(bits(&b.sum.to_dense()), bits(want), "{what}: bucket {t}");
                        }
                    }
                    assert_eq!(bits(&live.dual), bits(&rc.dual), "{what}: dual states");
                    assert_eq!(
                        live.last_survival.to_bits(),
                        rc.last_survival.to_bits(),
                        "{what}"
                    );
                    if xatu_obs::enabled() {
                        let (got, want) = (
                            &obs.values_sanitized,
                            &reference.common.obs.values_sanitized,
                        );
                        assert_eq!(got.get(), want.get(), "{what}: sanitized");
                    }
                    m += 1;
                }
            }
        }
        assert!(!xatu_obs::enabled() || obs.values_sanitized.get() == 3 * 4 * 2);
    }

    /// The live frame-side rows against [`before_sparse`]'s dense ones, on
    /// the row path and the batch path at 1 and 4 threads, at (1, 3, 6)
    /// and (2, 4, 8), with and without a companion (which votes while the
    /// feed is dark, over minutes `DARK`): every survival bit after every
    /// minute, every event, the sanitized and imputed counts, and the
    /// checkpoint bytes. Without a companion, each live path is
    /// also killed at minute 68, while tails are set in frames and open
    /// buckets, and resumed from its checkpoint on the row path and on the
    /// batch path at 4 threads.
    #[test]
    fn frame_rows_equal_the_frozen_dense_rows() {
        use crate::fleet::FleetDetector;
        const KILL: u32 = 68;
        const TOTAL: u32 = 130;
        const DARK: std::ops::Range<u32> = 50..90;
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
                    let dark = DARK.contains(&m);
                    reference.dark = dark;
                    for (det, _) in live.iter_mut().chain(&mut resumed) {
                        det.set_feed_degraded(dark);
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
                            reference.customers[id].last_survival.to_bits()
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
                    assert_eq!(a.fusion_ae_minutes.get() > 0, with_companion, "{what}");
                    for (det, threads) in &live {
                        let b = det.obs();
                        for (name, x, y) in [
                            ("sanitized", &a.values_sanitized, &b.values_sanitized),
                            ("imputed", &a.gaps_imputed, &b.gaps_imputed),
                            ("cold restarts", &a.cold_restarts, &b.cold_restarts),
                            ("raised", &a.raised, &b.raised),
                            ("ended", &a.ended, &b.ended),
                            ("companion", &a.fusion_ae_minutes, &b.fusion_ae_minutes),
                        ] {
                            assert_eq!(x.get(), y.get(), "{what}: {threads:?} {name}");
                        }
                    }
                }
            }
        }
    }
}
