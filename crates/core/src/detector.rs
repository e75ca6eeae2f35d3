//! The detector core: one definition of the streaming detector's state,
//! degradation ladder, alert lifecycle and checkpoint, shared by
//! [`crate::online::OnlineDetector`] and [`crate::fleet::FleetDetector`].
//!
//! # State
//!
//! Every per-customer quantity is a column of a flat arena indexed by the
//! dense customer id the interner in [`Common`] hands out, with a fixed
//! per-customer stride. The columns come in two groups:
//!
//! * [`Ledger`] — everything that is `f64`/integer on every backend: the
//!   survival ring, pooling-bucket counts, alert lifecycle scalars, the
//!   newest driven minute, and three per-minute plan flags.
//! * [`Numeric<K>`] — the columns whose scalar type the LSTM kernel `K`
//!   picks: both halves of the three dual LSTM states, the two open
//!   pooling buckets and the zero-order-hold frame, plus one
//!   [`Kernel::Idle`] row per timescale.
//!
//! A [`Shard`] is a set of disjoint mutable views of one contiguous block
//! of customers across all columns; [`Shard::take_front`] carves blocks
//! off for workers without allocating.
//!
//! # The scalar / kernel boundary
//!
//! [`Scalar`] (`f64`, `f32`) is what the arenas store and the pooling
//! arithmetic runs in. [`Kernel`] is one LSTM layer over that scalar: a
//! reference row step and a batched dual-block step pinned bit-identical
//! to it. [`Lstm`] is the exact backend. [`Lstm32`] is the fast one, and
//! it alone carries quiescence bookkeeping: its [`Kernel::Idle`] rows are
//! [`OnTrajectory`] and it comes with a precomputed [`IdleTrajectory`]
//! per timescale, so a customer whose input is exactly zero advances by
//! index arithmetic. On the exact backend the idle rows are `()` and the
//! table is empty: the same code, with the skip compiled out.
//!
//! Everything downstream of the aged hidden states — combiner, softplus
//! hazard, survival ring, staleness blend, alert lifecycle — is `f64` on
//! every backend.
//!
//! # One minute of one customer
//!
//! `ingest` (sanitize or zero-order-hold, feed both pooling buckets, plan
//! which timescales step) → LSTM steps → `finish_row` (retire consumed
//! buckets, survival tail, the front-end's [`Hook`], lifecycle tail).
//! [`row_minute`] runs that through the scalar row kernel; the fleet's
//! batch worker runs the same `ingest` and `finish_row` around block
//! kernels. Gaps since the customer's previous minute are bridged first by
//! [`catch_up`]: imputed minute by minute through [`row_minute`], or cold
//! restarted past `3 × window`.

use crate::checkpoint::{CustomerCheckpoint, DetectorCheckpoint, DualStateCheckpoint};
use crate::config::XatuConfig;
use crate::error::XatuError;
use crate::model::{DualState, ModelConfig, XatuModel};
use crate::online::DetectorObs;
use std::collections::HashMap;
use std::ops::{AddAssign, Div, MulAssign, Range};
use xatu_detectors::alert::Alert;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::NUM_FEATURES;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::activations::softplus;
use xatu_nn::lstm::Lstm;
use xatu_nn::simd::{self, SimdLevel};
use xatu_nn::{
    Dense, Lstm32, LstmState, OnlineBlockWorkspace, OnlineBlockWorkspace32, OnlineScratch, Params,
};
use xatu_survival::hazard::RollingSurvival;

/// The three timescales, in arena order: short, medium, long.
pub(crate) const TIMESCALES: usize = 3;

/// Plan flag: the row takes part in this minute (it is driven, or its
/// pooling bucket completed).
pub(crate) const RAN: u8 = 1;
/// Plan flag: the row's state is materialized and needs the LSTM kernel.
pub(crate) const DENSE: u8 = 2;

/// What the arenas store and the pooling arithmetic runs in.
pub(crate) trait Scalar:
    Copy + Default + PartialEq + Send + Sync + AddAssign + MulAssign + Div<Output = Self> + 'static
{
    const ZERO: Self;
    const ONE: Self;
    /// Rounds an `f64` to this width (identity for `f64`).
    fn narrow(v: f64) -> Self;
    /// Exact conversion to `f64`.
    fn widen(self) -> f64;
    /// A pooling granularity as a divisor.
    fn count(n: u32) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn narrow(v: f64) -> Self {
        v
    }
    fn widen(self) -> f64 {
        self
    }
    fn count(n: u32) -> Self {
        n as f64
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn narrow(v: f64) -> Self {
        v as f32
    }
    fn widen(self) -> f64 {
        self as f64
    }
    fn count(n: u32) -> Self {
        n as f32
    }
}

/// One LSTM layer as the detector core drives it.
pub(crate) trait Kernel: Sync {
    type S: Scalar;
    /// Reusable scratch of the block step.
    type Block: Default + Send;
    /// Per-row quiescence bookkeeping; `()` when the backend has none.
    type Idle: Idle;
    fn input_dim(&self) -> usize;
    fn hidden_dim(&self) -> usize;
    /// The reference online step on one row's `(h, c)`.
    fn step_row(
        &self,
        x: &[Self::S],
        h: &mut [Self::S],
        c: &mut [Self::S],
        scratch: &mut OnlineScratch<Self::S>,
    );
    /// Both halves of `batch` dual states through one step, bit-identical
    /// to two [`Kernel::step_row`] calls per row.
    #[allow(clippy::too_many_arguments)]
    fn step_dual_block(
        &self,
        xs: &[Self::S],
        batch: usize,
        aged_h: &mut [Self::S],
        aged_c: &mut [Self::S],
        fresh_h: &mut [Self::S],
        fresh_c: &mut [Self::S],
        ws: &mut Self::Block,
    );
}

impl Kernel for Lstm {
    type S = f64;
    type Block = OnlineBlockWorkspace;
    type Idle = ();
    fn input_dim(&self) -> usize {
        Lstm::input_dim(self)
    }
    fn hidden_dim(&self) -> usize {
        Lstm::hidden_dim(self)
    }
    fn step_row(&self, x: &[f64], h: &mut [f64], c: &mut [f64], scratch: &mut OnlineScratch<f64>) {
        self.step_online_slices(x, h, c, scratch);
    }
    fn step_dual_block(
        &self,
        xs: &[f64],
        batch: usize,
        aged_h: &mut [f64],
        aged_c: &mut [f64],
        fresh_h: &mut [f64],
        fresh_c: &mut [f64],
        ws: &mut OnlineBlockWorkspace,
    ) {
        self.step_online_dual_block(xs, batch, aged_h, aged_c, fresh_h, fresh_c, ws);
    }
}

impl Kernel for Lstm32 {
    type S = f32;
    type Block = OnlineBlockWorkspace32;
    type Idle = OnTrajectory;
    fn input_dim(&self) -> usize {
        Lstm32::input_dim(self)
    }
    fn hidden_dim(&self) -> usize {
        Lstm32::hidden_dim(self)
    }
    fn step_row(&self, x: &[f32], h: &mut [f32], c: &mut [f32], scratch: &mut OnlineScratch<f32>) {
        self.step_online_slices32(x, h, c, &mut scratch.z);
    }
    fn step_dual_block(
        &self,
        xs: &[f32],
        batch: usize,
        aged_h: &mut [f32],
        aged_c: &mut [f32],
        fresh_h: &mut [f32],
        fresh_c: &mut [f32],
        ws: &mut OnlineBlockWorkspace32,
    ) {
        Lstm32::step_online_dual_block(self, xs, batch, aged_h, aged_c, fresh_h, fresh_c, ws);
    }
}

/// Quiescence bookkeeping of one dual state: where its halves sit on the
/// layer's [`IdleTrajectory`], and whether the input it is about to
/// consume (the zero-order-hold frame for the short timescale, the open
/// bucket for the pooled ones) is exactly all-zero. The `()` impl is the
/// backend without a table: never on a trajectory, never skips.
pub(crate) trait Idle: Copy + Send + Sync + 'static {
    /// Both halves at entry 0, pending input all-zero.
    const COLD: Self;
    /// For restored state: an all-zero half is entry 0, anything else is
    /// off the trajectory until a promotion zeroes it.
    fn of(aged_zero: bool, fresh_zero: bool, input_zero: bool) -> Self;
    fn input_zero(self) -> bool;
    fn set_input_zero(&mut self, zero: bool);
    /// Takes one zero-input step as index arithmetic if both halves are on
    /// the trajectory with the next entry inside `limit`; the stored
    /// `(h, c)` rows are stale from then on.
    fn try_skip(&mut self, limit: u32) -> bool;
    /// After a kernel step: advance on zero input, leave the trajectory
    /// otherwise or at the table bound.
    fn stepped(&mut self, limit: u32);
    /// The fresh half replaces the aged one and restarts at entry 0.
    fn promote(&mut self);
    /// `(aged, fresh)` entries when the stored rows are stale.
    fn stale(self) -> Option<(u32, u32)>;
    /// The stored rows have been brought up to date.
    fn settle(&mut self);
}

impl Idle for () {
    const COLD: Self = ();
    fn of(_: bool, _: bool, _: bool) -> Self {}
    fn input_zero(self) -> bool {
        false
    }
    fn set_input_zero(&mut self, _: bool) {}
    fn try_skip(&mut self, _: u32) -> bool {
        false
    }
    fn stepped(&mut self, _: u32) {}
    fn promote(&mut self) {}
    fn stale(self) -> Option<(u32, u32)> {
        None
    }
    fn settle(&mut self) {}
}

/// Entry sentinel: the half is not on the idle trajectory.
const OFF: u32 = u32::MAX;

/// [`Idle`] for a backend with a trajectory table. A valid entry on a row
/// that is not stale means the stored state bit-equals that entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OnTrajectory {
    aged: u32,
    fresh: u32,
    stale: bool,
    input_zero: bool,
}

impl Idle for OnTrajectory {
    const COLD: Self = OnTrajectory {
        aged: 0,
        fresh: 0,
        stale: false,
        input_zero: true,
    };
    fn of(aged_zero: bool, fresh_zero: bool, input_zero: bool) -> Self {
        OnTrajectory {
            aged: if aged_zero { 0 } else { OFF },
            fresh: if fresh_zero { 0 } else { OFF },
            stale: false,
            input_zero,
        }
    }
    fn input_zero(self) -> bool {
        self.input_zero
    }
    fn set_input_zero(&mut self, zero: bool) {
        self.input_zero = zero;
    }
    fn try_skip(&mut self, limit: u32) -> bool {
        let on = |i: u32| i != OFF && i + 1 < limit;
        let ok = on(self.aged) && on(self.fresh);
        if ok {
            self.aged += 1;
            self.fresh += 1;
            self.stale = true;
        }
        ok
    }
    fn stepped(&mut self, limit: u32) {
        let zero = self.input_zero;
        let next = |i: u32| if zero && i != OFF && i + 1 < limit { i + 1 } else { OFF };
        self.aged = next(self.aged);
        self.fresh = next(self.fresh);
    }
    fn promote(&mut self) {
        self.aged = self.fresh;
        self.fresh = 0;
    }
    fn stale(self) -> Option<(u32, u32)> {
        self.stale.then_some((self.aged, self.fresh))
    }
    fn settle(&mut self) {
        self.stale = false;
    }
}

/// The zero-input state trajectory of one layer: entry `k` is the state
/// after `k` zero-input steps from the cold state, computed with the same
/// [`Kernel::step_row`] the block kernels are pinned bit-identical to —
/// which is why skipping along it moves no bit.
pub(crate) struct IdleTrajectory<S> {
    hs: Vec<S>,
    cs: Vec<S>,
    entries: usize,
    hidden: usize,
}

/// The exact backend's table: no entries, so nothing ever skips.
pub(crate) static NO_TABLE: IdleTrajectory<f64> = IdleTrajectory {
    hs: Vec::new(),
    cs: Vec::new(),
    entries: 0,
    hidden: 0,
};

impl<S: Scalar> IdleTrajectory<S> {
    /// Precomputes `4·period + 2` entries. A fresh half is zeroed at every
    /// promotion, so its entry is at most `2·period` when it is promoted,
    /// and the aged entry grows by at most another `2·period` before the
    /// next promotion: no reachable entry exceeds `4·period`.
    /// [`Idle::try_skip`] does not rely on that; it refuses to step past
    /// the table.
    pub(crate) fn new<K: Kernel<S = S>>(kernel: &K, period: u32) -> Self {
        let hidden = kernel.hidden_dim();
        let entries = 4 * period.max(1) as usize + 2;
        let zero_x = vec![S::ZERO; kernel.input_dim()];
        let mut hs = vec![S::ZERO; entries * hidden];
        let mut cs = vec![S::ZERO; entries * hidden];
        let mut h = vec![S::ZERO; hidden];
        let mut c = vec![S::ZERO; hidden];
        let mut scratch = OnlineScratch::default();
        for k in 1..entries {
            kernel.step_row(&zero_x, &mut h, &mut c, &mut scratch);
            hs[k * hidden..(k + 1) * hidden].copy_from_slice(&h);
            cs[k * hidden..(k + 1) * hidden].copy_from_slice(&c);
        }
        IdleTrajectory {
            hs,
            cs,
            entries,
            hidden,
        }
    }

    fn limit(&self) -> u32 {
        self.entries as u32
    }

    fn h(&self, k: u32) -> &[S] {
        let k = k as usize;
        &self.hs[k * self.hidden..(k + 1) * self.hidden]
    }

    fn c(&self, k: u32) -> &[S] {
        let k = k as usize;
        &self.cs[k * self.hidden..(k + 1) * self.hidden]
    }

    pub(crate) fn bytes(&self) -> usize {
        (self.hs.capacity() + self.cs.capacity()) * std::mem::size_of::<S>()
    }
}

/// One timescale's layer as a worker sees it.
pub(crate) struct Layer<'a, K: Kernel> {
    pub kernel: &'a K,
    pub traj: &'a IdleTrajectory<K::S>,
    /// Whether quiescent rows may advance along `traj`.
    pub skip: bool,
}

impl<K: Kernel> Clone for Layer<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Kernel> Copy for Layer<'_, K> {}

/// The immutable parts of a detector every worker shares: the layers,
/// the combiner head and the scalar knobs.
pub(crate) struct Net<'a, K: Kernel> {
    pub layers: [Layer<'a, K>; TIMESCALES],
    pub head: &'a Dense,
    pub k: Knobs,
}

impl<'a> Net<'a, Lstm> {
    /// The exact backend: the model's own layers, no trajectory table.
    pub(crate) fn exact(model: &'a XatuModel, k: Knobs) -> Self {
        let layer = |kernel| Layer {
            kernel,
            traj: &NO_TABLE,
            skip: false,
        };
        Net {
            layers: [
                layer(model.lstm_short()),
                layer(model.lstm_medium()),
                layer(model.lstm_long()),
            ],
            head: model.head(),
            k,
        }
    }
}

/// The dual-state arena of one timescale: both halves of every customer's
/// bounded-context LSTM state as `n × hidden` row-major matrices, the two
/// context ages, and the idle row. One [`DualState`] per row, with
/// identical stepping and promotion arithmetic.
#[derive(Clone)]
pub(crate) struct DualArena<K: Kernel> {
    aged_h: Vec<K::S>,
    aged_c: Vec<K::S>,
    fresh_h: Vec<K::S>,
    fresh_c: Vec<K::S>,
    aged_age: Vec<u32>,
    fresh_age: Vec<u32>,
    idle: Vec<K::Idle>,
    period: u32,
    hidden: usize,
}

impl<K: Kernel> DualArena<K> {
    fn new(hidden: usize, period: usize) -> Self {
        DualArena {
            aged_h: Vec::new(),
            aged_c: Vec::new(),
            fresh_h: Vec::new(),
            fresh_c: Vec::new(),
            aged_age: Vec::new(),
            fresh_age: Vec::new(),
            idle: Vec::new(),
            period: (period as u32).max(1),
            hidden,
        }
    }

    /// Appends one customer in the [`DualState::new`] cold state.
    fn push(&mut self) {
        let h = self.hidden;
        for col in [
            &mut self.aged_h,
            &mut self.aged_c,
            &mut self.fresh_h,
            &mut self.fresh_c,
        ] {
            col.resize(col.len() + h, K::S::ZERO);
        }
        self.aged_age.push(self.period);
        self.fresh_age.push(0);
        self.idle.push(K::Idle::COLD);
    }

    /// Row `i`'s `[aged_h, aged_c, fresh_h, fresh_c]`, read through the
    /// trajectory table when the stored rows are stale.
    fn state<'t>(&'t self, traj: &'t IdleTrajectory<K::S>, i: usize) -> [&'t [K::S]; 4] {
        match self.idle[i].stale() {
            Some((a, f)) => [traj.h(a), traj.c(a), traj.h(f), traj.c(f)],
            None => {
                let r = i * self.hidden..(i + 1) * self.hidden;
                [
                    &self.aged_h[r.clone()],
                    &self.aged_c[r.clone()],
                    &self.fresh_h[r.clone()],
                    &self.fresh_c[r],
                ]
            }
        }
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.aged_h.capacity()
            + self.aged_c.capacity()
            + self.fresh_h.capacity()
            + self.fresh_c.capacity())
            * size_of::<K::S>()
            + (self.aged_age.capacity() + self.fresh_age.capacity()) * size_of::<u32>()
            + self.idle.capacity() * size_of::<K::Idle>()
    }
}

/// A contiguous block of one [`DualArena`], owned mutably by one worker.
pub(crate) struct DualShard<'a, K: Kernel> {
    aged_h: &'a mut [K::S],
    aged_c: &'a mut [K::S],
    fresh_h: &'a mut [K::S],
    fresh_c: &'a mut [K::S],
    aged_age: &'a mut [u32],
    fresh_age: &'a mut [u32],
    idle: &'a mut [K::Idle],
    period: u32,
    hidden: usize,
}

/// Row `j` of an `n × NUM_FEATURES` column.
fn features(j: usize) -> Range<usize> {
    j * NUM_FEATURES..(j + 1) * NUM_FEATURES
}

/// Carves the next `n * per` elements off the front of `*rest` without
/// allocating.
fn take_rows<'a, T>(rest: &mut &'a mut [T], n: usize, per: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n * per);
    *rest = tail;
    head
}

impl<'a, K: Kernel> DualShard<'a, K> {
    fn new(a: &'a mut DualArena<K>) -> Self {
        DualShard {
            aged_h: &mut a.aged_h,
            aged_c: &mut a.aged_c,
            fresh_h: &mut a.fresh_h,
            fresh_c: &mut a.fresh_c,
            aged_age: &mut a.aged_age,
            fresh_age: &mut a.fresh_age,
            idle: &mut a.idle,
            period: a.period,
            hidden: a.hidden,
        }
    }

    fn take_front(&mut self, n: usize) -> DualShard<'a, K> {
        let h = self.hidden;
        DualShard {
            aged_h: take_rows(&mut self.aged_h, n, h),
            aged_c: take_rows(&mut self.aged_c, n, h),
            fresh_h: take_rows(&mut self.fresh_h, n, h),
            fresh_c: take_rows(&mut self.fresh_c, n, h),
            aged_age: take_rows(&mut self.aged_age, n, 1),
            fresh_age: take_rows(&mut self.fresh_age, n, 1),
            idle: take_rows(&mut self.idle, n, 1),
            period: self.period,
            hidden: h,
        }
    }

    fn row(&self, j: usize) -> Range<usize> {
        j * self.hidden..(j + 1) * self.hidden
    }

    /// Decides how row `j` takes this step. A quiescent row advances here,
    /// by bookkeeping alone, and the result is 0; any other row has its
    /// stored state brought up to date and the result is [`DENSE`].
    fn plan(&mut self, layer: Layer<'_, K>, j: usize) -> u8 {
        let idle = &mut self.idle[j];
        if layer.skip && idle.input_zero() && idle.try_skip(layer.traj.limit()) {
            self.tick(j);
            return 0;
        }
        if let Some((a, f)) = self.idle[j].stale() {
            let r = self.row(j);
            self.aged_h[r.clone()].copy_from_slice(layer.traj.h(a));
            self.aged_c[r.clone()].copy_from_slice(layer.traj.c(a));
            self.fresh_h[r.clone()].copy_from_slice(layer.traj.h(f));
            self.fresh_c[r].copy_from_slice(layer.traj.c(f));
            self.idle[j].settle();
        }
        DENSE
    }

    /// The aged hidden state of row `j` for the combiner, straight from
    /// the table when the row is stale.
    fn aged_hidden<'t>(&'t self, traj: &'t IdleTrajectory<K::S>, j: usize) -> &'t [K::S] {
        match self.idle[j].stale() {
            Some((a, _)) => traj.h(a),
            None => &self.aged_h[self.row(j)],
        }
    }

    /// [`DualState::step`] for row `j` through the reference kernel.
    fn step_one(
        &mut self,
        layer: Layer<'_, K>,
        j: usize,
        x: &[K::S],
        scratch: &mut OnlineScratch<K::S>,
    ) {
        let r = self.row(j);
        layer
            .kernel
            .step_row(x, &mut self.aged_h[r.clone()], &mut self.aged_c[r.clone()], scratch);
        layer
            .kernel
            .step_row(x, &mut self.fresh_h[r.clone()], &mut self.fresh_c[r], scratch);
        self.idle[j].stepped(layer.traj.limit());
        self.tick(j);
    }

    /// Batched [`DualState::step`] over the contiguous run `a..b`. Rows are
    /// independent and block composition cannot move a bit, so this equals
    /// [`DualShard::step_one`] per row. The run is processed in fixed
    /// tiles: large enough to amortise what a kernel sets up per call (the
    /// exact backend's `Wxᵀ`/`Whᵀ`), small enough that the fast backend's
    /// two `batch × 4·hidden` pre-activation buffers stay well under
    /// typical L2 capacity.
    pub(crate) fn step_block(
        &mut self,
        layer: Layer<'_, K>,
        a: usize,
        b: usize,
        xs: &[K::S],
        ws: &mut K::Block,
    ) {
        const TILE: usize = 512;
        let h = self.hidden;
        let width = xs.len() / (b - a);
        let mut t = a;
        while t < b {
            let e = (t + TILE).min(b);
            layer.kernel.step_dual_block(
                &xs[(t - a) * width..(e - a) * width],
                e - t,
                &mut self.aged_h[t * h..e * h],
                &mut self.aged_c[t * h..e * h],
                &mut self.fresh_h[t * h..e * h],
                &mut self.fresh_c[t * h..e * h],
                ws,
            );
            t = e;
        }
        for j in a..b {
            self.idle[j].stepped(layer.traj.limit());
            self.tick(j);
        }
    }

    /// The age bookkeeping of [`DualState::step`]: both ages advance; at
    /// `2·period` the fresh half is promoted and a zeroed one takes its
    /// place. A stale row is promoted on its trajectory entries alone.
    fn tick(&mut self, j: usize) {
        self.aged_age[j] += 1;
        self.fresh_age[j] += 1;
        if self.aged_age[j] >= 2 * self.period {
            if self.idle[j].stale().is_none() {
                let r = self.row(j);
                self.aged_h[r.clone()].copy_from_slice(&self.fresh_h[r.clone()]);
                self.aged_c[r.clone()].copy_from_slice(&self.fresh_c[r.clone()]);
                self.fresh_h[r.clone()].fill(K::S::ZERO);
                self.fresh_c[r].fill(K::S::ZERO);
            }
            self.idle[j].promote();
            self.aged_age[j] = self.fresh_age[j];
            self.fresh_age[j] = 0;
        }
    }

    /// Back to the [`DualState::new`] cold state.
    fn reset_row(&mut self, j: usize) {
        let r = self.row(j);
        self.aged_h[r.clone()].fill(K::S::ZERO);
        self.aged_c[r.clone()].fill(K::S::ZERO);
        self.fresh_h[r.clone()].fill(K::S::ZERO);
        self.fresh_c[r].fill(K::S::ZERO);
        self.aged_age[j] = self.period;
        self.fresh_age[j] = 0;
        self.idle[j] = K::Idle::COLD;
    }
}

/// The columns that are `f64`/integer on every backend.
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
    last_survival: Vec<f64>,
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

/// The columns whose scalar type the kernel picks.
#[derive(Clone)]
pub(crate) struct Numeric<K: Kernel> {
    pub dual: [DualArena<K>; TIMESCALES],
    /// Open medium / long pooling buckets, `n × NUM_FEATURES`. Between
    /// `ingest` and `finish_row` a completed row holds the *averaged*
    /// bucket (scaled in place).
    pub partial: [Vec<K::S>; 2],
    /// Last sanitized frame (the zero-order-hold source).
    pub frame: Vec<K::S>,
}

impl<K: Kernel> Numeric<K> {
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
            col.resize(col.len() + NUM_FEATURES, K::S::ZERO);
        }
    }

    /// The same rows at another scalar width: values rounded by
    /// [`Scalar::narrow`], idle rows rebuilt from what is exactly zero.
    pub(crate) fn narrowed(src: &Numeric<Lstm>) -> Self {
        let cast = |col: &[f64]| col.iter().map(|&v| K::S::narrow(v)).collect::<Vec<_>>();
        let all_zero = |col: &[f64], i: usize, per: usize| {
            col[i * per..(i + 1) * per].iter().all(|&v| v == 0.0)
        };
        let inputs = [&src.frame, &src.partial[0], &src.partial[1]];
        let dual = std::array::from_fn(|t| {
            let d = &src.dual[t];
            let h = d.hidden;
            DualArena {
                aged_h: cast(&d.aged_h),
                aged_c: cast(&d.aged_c),
                fresh_h: cast(&d.fresh_h),
                fresh_c: cast(&d.fresh_c),
                aged_age: d.aged_age.clone(),
                fresh_age: d.fresh_age.clone(),
                idle: (0..d.aged_age.len())
                    .map(|i| {
                        K::Idle::of(
                            all_zero(&d.aged_h, i, h) && all_zero(&d.aged_c, i, h),
                            all_zero(&d.fresh_h, i, h) && all_zero(&d.fresh_c, i, h),
                            all_zero(inputs[t], i, NUM_FEATURES),
                        )
                    })
                    .collect(),
                period: d.period,
                hidden: h,
            }
        });
        Numeric {
            dual,
            partial: [cast(&src.partial[0]), cast(&src.partial[1])],
            frame: cast(&src.frame),
        }
    }

    /// Measured footprint in bytes (capacities, not lengths).
    pub(crate) fn bytes(&self) -> usize {
        self.dual.iter().map(DualArena::bytes).sum::<usize>()
            + (self.partial[0].capacity() + self.partial[1].capacity() + self.frame.capacity())
                * std::mem::size_of::<K::S>()
    }
}

/// Appends one cold customer to both column groups.
pub(crate) fn push_row<K: Kernel>(ledger: &mut Ledger, numeric: &mut Numeric<K>, window: usize) {
    ledger.push(window);
    numeric.push();
}

/// Disjoint mutable views of every column for one contiguous customer
/// block. `start` is the global id of the first row.
pub(crate) struct Shard<'a, K: Kernel> {
    pub start: usize,
    window: usize,
    pub dual: [DualShard<'a, K>; TIMESCALES],
    ring_buf: &'a mut [f64],
    ring_head: &'a mut [u32],
    ring_filled: &'a mut [u32],
    ring_sum: &'a mut [f64],
    pub partial: [&'a mut [K::S]; 2],
    count: [&'a mut [u32]; 2],
    pub frame: &'a mut [K::S],
    active_since: &'a mut [Option<u32>],
    quiet_run: &'a mut [u32],
    last_survival: &'a mut [f64],
    observed: &'a mut [u32],
    stale_run: &'a mut [u32],
    pub last_minute: &'a mut [Option<u32>],
    pub flags: [&'a mut [u8]; TIMESCALES],
}

impl<'a, K: Kernel> Shard<'a, K> {
    /// Every registered customer as one shard.
    pub(crate) fn new(l: &'a mut Ledger, n: &'a mut Numeric<K>, window: usize) -> Self {
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
    pub(crate) fn take_front(&mut self, n: usize) -> Shard<'a, K> {
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
            partial: self.partial.each_mut().map(|p| take_rows(p, n, NUM_FEATURES)),
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

    /// [`RollingSurvival::push`] on row `j`.
    fn ring_push(&mut self, j: usize, hazard: f64) -> f64 {
        let w = self.window;
        let h = if hazard.is_finite() { hazard.max(0.0) } else { 0.0 };
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

/// What a front-end may interpose on a row between the survival tail and
/// the lifecycle tail. The default is nothing.
pub(crate) trait Hook<S> {
    /// Sees the frame the LSTMs just consumed and the reported survival;
    /// returns the survival the lifecycle acts on.
    fn fuse(&mut self, _obs: &mut DetectorObs, _frame: &[S], reported: f64) -> f64 {
        reported
    }
    /// The row was cold-restarted.
    fn cold_restart(&mut self) {}
}

/// The [`Hook`] that interposes nothing.
pub(crate) struct Solo;
impl<S> Hook<S> for Solo {}

/// Scratch of the scalar row path.
#[derive(Clone, Default)]
pub(crate) struct RowScratch<S> {
    /// Scratch of the LSTM row step.
    step: OnlineScratch<S>,
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
fn cold_restart<K: Kernel>(
    k: &Knobs,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_, K>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    events: &mut Vec<DetectorEvent>,
) {
    if let Some(detected_at) = sh.active_since[j].take() {
        obs.ended.inc();
        events.push(DetectorEvent::Ended(Alert {
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
        sh.partial[p][r.clone()].fill(K::S::ZERO);
        sh.count[p][j] = 0;
    }
    sh.frame[r].fill(K::S::ZERO);
    sh.quiet_run[j] = 0;
    sh.last_survival[j] = 1.0;
    sh.observed[j] = 0;
    sh.stale_run[j] = 0;
    obs.cold_restarts.inc();
}

/// Bridges the gap between row `j`'s newest minute and `minute` (which the
/// caller has checked is later): short gaps are imputed minute by minute,
/// long ones cold-restart the row.
#[allow(clippy::too_many_arguments)]
pub(crate) fn catch_up<K: Kernel, H: Hook<K::S>>(
    net: &Net<'_, K>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_, K>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    row: &mut RowScratch<K::S>,
    hook: &mut H,
    events: &mut Vec<DetectorEvent>,
) {
    let Some(last) = sh.last_minute[j] else {
        return;
    };
    let gap = minute - last - 1;
    if gap > net.k.max_imputed_gap {
        // Imputing hours of fiction would be slower *and* wronger than
        // admitting the context is gone.
        obs.gap_runs.observe(gap as f64);
        cold_restart(&net.k, obs, sh, j, addr, minute, events);
        hook.cold_restart();
    } else {
        for m in last + 1..minute {
            row_minute(net, obs, sh, j, addr, m, None, row, hook, events);
        }
    }
}

/// Takes row `j`'s input for one minute — a real frame, sanitized into the
/// zero-order-hold buffer, or `None` to replay that buffer — feeds both
/// pooling buckets in the same pass, and plans the minute: the row's flag
/// for each timescale says whether it takes part and whether it still
/// needs the LSTM kernel.
pub(crate) fn ingest<K: Kernel>(
    net: &Net<'_, K>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_, K>,
    j: usize,
    frame: Option<&[f64]>,
) {
    let r = features(j);
    let [med, long] = &mut sh.partial;
    let (held, med, long) = (&mut sh.frame[r.clone()], &mut med[r.clone()], &mut long[r.clone()]);
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
            let mut zero = true;
            for (((dst, m), l), &x) in held.iter_mut().zip(med).zip(long).zip(raw) {
                let v = if x.is_finite() {
                    K::S::narrow(x)
                } else {
                    replaced += 1;
                    K::S::ZERO
                };
                zero &= v == K::S::ZERO;
                *dst = v;
                *m += v;
                *l += v;
            }
            sh.dual[0].idle[j].set_input_zero(zero);
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
    let zero = sh.dual[0].idle[j].input_zero();
    let plan = |d: &mut DualShard<'_, K>, t: usize| {
        RAN | if k.used[t] { d.plan(net.layers[t], j) } else { 0 }
    };
    sh.flags[0][j] = plan(&mut sh.dual[0], 0);
    for p in 0..2 {
        let idle = &mut sh.dual[p + 1].idle[j];
        let pooled_zero = idle.input_zero() && zero;
        idle.set_input_zero(pooled_zero);
        sh.count[p][j] += 1;
        sh.flags[p + 1][j] = if sh.count[p][j] == k.gran[p] {
            let inv = K::S::ONE / K::S::count(k.gran[p]);
            sh.partial[p][r.clone()].iter_mut().for_each(|v| *v *= inv);
            sh.count[p][j] = 0;
            plan(&mut sh.dual[p + 1], p + 1)
        } else {
            0
        };
    }
}

/// The aged hidden states through the combiner head, softplus hazard,
/// survival ring and staleness blend: `(hazard, reported survival)`.
fn survival_tail<K: Kernel>(
    net: &Net<'_, K>,
    sh: &mut Shard<'_, K>,
    j: usize,
    input: &mut Vec<f64>,
) -> (f64, f64) {
    let k = &net.k;
    let h = k.hidden;
    input.clear();
    input.resize(TIMESCALES * h, 0.0);
    for t in (0..TIMESCALES).filter(|&t| k.used[t]) {
        let aged = sh.dual[t].aged_hidden(net.layers[t].traj, j);
        for (dst, &v) in input[t * h..(t + 1) * h].iter_mut().zip(aged) {
            *dst = v.widen();
        }
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
fn lifecycle_tail<K: Kernel>(
    k: &Knobs,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_, K>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    reported: f64,
    events: &mut Vec<DetectorEvent>,
) {
    sh.last_survival[j] = reported;
    sh.observed[j] += 1;
    obs.survival.observe(reported);
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
                events.push(DetectorEvent::Raised(Alert {
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
                events.push(DetectorEvent::Ended(Alert {
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
/// buckets this minute consumed, survival tail, hook, lifecycle tail,
/// clock. Returns `(hazard, reported survival)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_row<K: Kernel, H: Hook<K::S>>(
    net: &Net<'_, K>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_, K>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    input: &mut Vec<f64>,
    hook: &mut H,
    events: &mut Vec<DetectorEvent>,
) -> (f64, f64) {
    let r = features(j);
    for p in 0..2 {
        if sh.flags[p + 1][j] != 0 {
            sh.partial[p][r.clone()].fill(K::S::ZERO);
            sh.dual[p + 1].idle[j].set_input_zero(true);
        }
    }
    let (hazard, reported) = survival_tail(net, sh, j, input);
    let reported = hook.fuse(obs, &sh.frame[r], reported);
    lifecycle_tail(&net.k, obs, sh, j, addr, minute, reported, events);
    sh.last_minute[j] = Some(minute);
    (hazard, reported)
}

/// One customer through one minute on the scalar row path: `ingest`, the
/// reference kernel for every timescale planned [`DENSE`], `finish_row`.
/// `frame` is `None` for an imputed minute.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_minute<K: Kernel, H: Hook<K::S>>(
    net: &Net<'_, K>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_, K>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    frame: Option<&[f64]>,
    row: &mut RowScratch<K::S>,
    hook: &mut H,
    events: &mut Vec<DetectorEvent>,
) -> (f64, f64) {
    ingest(net, obs, sh, j, frame);
    let r = features(j);
    for t in 0..TIMESCALES {
        if sh.flags[t][j] & DENSE != 0 {
            let x = if t == 0 { &sh.frame[r.clone()] } else { &sh.partial[t - 1][r.clone()] };
            sh.dual[t].step_one(net.layers[t], j, x, &mut row.step);
        }
    }
    finish_row(net, obs, sh, j, addr, minute, &mut row.input, hook, events)
}

/// The scalar row path end to end, as [`crate::online::OnlineDetector`]
/// drives it: ordering, gap bridging, then `minute` itself.
#[allow(clippy::too_many_arguments)]
pub(crate) fn observe_row<K: Kernel, H: Hook<K::S>>(
    net: &Net<'_, K>,
    obs: &mut DetectorObs,
    sh: &mut Shard<'_, K>,
    j: usize,
    addr: Ipv4,
    minute: u32,
    frame: Option<&[f64]>,
    row: &mut RowScratch<K::S>,
    hook: &mut H,
    events: &mut Vec<DetectorEvent>,
) -> Result<(f64, f64), XatuError> {
    check_order(obs, sh.last_minute[j], addr, minute)?;
    catch_up(net, obs, sh, j, addr, minute, row, hook, events);
    Ok(row_minute(net, obs, sh, j, addr, minute, frame, row, hook, events))
}

/// What every front-end owns besides its rows: the model, the serving
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
    /// The dispatch level of the model's online kernels; see
    /// [`Common::set_simd`].
    simd: SimdLevel,
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
        let simd = if cfg.no_simd { SimdLevel::Scalar } else { simd::detect() };
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

    /// The level the model's online kernels dispatch to.
    pub(crate) fn simd(&self) -> SimdLevel {
        self.simd
    }

    /// Sets that level, clamped to what the host supports. Results are
    /// bit-identical at every level.
    pub(crate) fn set_simd(&mut self, level: SimdLevel) {
        self.simd = level.min(simd::supported());
        self.model.set_simd(self.simd);
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

    /// The current rolling survival for a customer (1.0 if unseen).
    pub(crate) fn survival_of(&self, ledger: &Ledger, addr: Ipv4) -> f64 {
        self.id_of(addr).map_or(1.0, |i| ledger.last_survival[i])
    }

    /// Forces every open alert to end at `minute`, in registration order.
    pub(crate) fn close_all(&mut self, ledger: &mut Ledger, minute: u32) -> Vec<DetectorEvent> {
        let mut events = Vec::new();
        for (slot, &customer) in ledger.active_since.iter_mut().zip(&self.addrs) {
            if let Some(detected_at) = slot.take() {
                self.obs.ended.inc();
                events.push(DetectorEvent::Ended(Alert {
                    customer,
                    attack_type: self.attack_type,
                    detected_at,
                    mitigation_end: Some(minute),
                }));
            }
        }
        events
    }

    /// Snapshots configuration, model parameters and every customer's
    /// streaming state (sorted by address). Telemetry is excluded:
    /// counters restart at zero on resume. Values are widened to `f64`,
    /// which is exact, so a checkpoint narrows back bit-identically.
    pub(crate) fn checkpoint<K: Kernel>(
        &mut self,
        ledger: &Ledger,
        numeric: &Numeric<K>,
        traj: [&IdleTrajectory<K::S>; TIMESCALES],
    ) -> DetectorCheckpoint {
        let mut params = vec![0.0; self.model.param_count()];
        self.model.export_params_into(&mut params);
        let widen = |row: &[K::S]| row.iter().map(|v| v.widen()).collect::<Vec<f64>>();
        let w = self.window;
        let mut order: Vec<usize> = (0..self.addrs.len()).collect();
        order.sort_unstable_by_key(|&i| self.addrs[i].0);
        let customers = order
            .into_iter()
            .map(|i| {
                let dual = std::array::from_fn(|t| {
                    let d = &numeric.dual[t];
                    let [aged_h, aged_c, fresh_h, fresh_c] = d.state(traj[t], i).map(widen);
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
                    med_partial: (widen(&numeric.partial[0][r.clone()]), ledger.count[0][i]),
                    long_partial: (widen(&numeric.partial[1][r.clone()]), ledger.count[1][i]),
                    active_since: ledger.active_since[i],
                    quiet_run: ledger.quiet_run[i],
                    last_survival: ledger.last_survival[i],
                    observed: ledger.observed[i],
                    last_frame: widen(&numeric.frame[r]),
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
pub(crate) fn restore(
    ck: &DetectorCheckpoint,
) -> Result<(Common, Ledger, Numeric<Lstm>), XatuError> {
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

/// Validates one customer's record and loads it into row `i`. The dual
/// states and the ring are validated by [`DualState::restore`] and
/// [`RollingSurvival::restore`], the per-customer reference types.
fn restore_customer(
    common: &Common,
    ledger: &mut Ledger,
    numeric: &mut Numeric<Lstm>,
    i: usize,
    c: &CustomerCheckpoint,
) -> Result<(), String> {
    let hidden = common.model.cfg.hidden;
    for (d, arena) in c.dual.iter().zip(&mut numeric.dual) {
        let state = |h: &[f64], c: &[f64]| LstmState {
            h: h.to_vec(),
            c: c.to_vec(),
        };
        let ds = DualState::restore(
            state(&d.aged_h, &d.aged_c),
            state(&d.fresh_h, &d.fresh_c),
            d.aged_age,
            d.fresh_age,
            d.period,
        )?;
        if d.aged_h.len() != hidden {
            return Err(format!(
                "dual-state hidden size {} does not match model hidden {hidden}",
                d.aged_h.len()
            ));
        }
        if ds.period() != arena.period {
            return Err(format!(
                "dual-state period {} does not match the detector's context length {}",
                ds.period(),
                arena.period
            ));
        }
        let r = i * hidden..(i + 1) * hidden;
        arena.aged_h[r.clone()].copy_from_slice(&d.aged_h);
        arena.aged_c[r.clone()].copy_from_slice(&d.aged_c);
        arena.fresh_h[r.clone()].copy_from_slice(&d.fresh_h);
        arena.fresh_c[r].copy_from_slice(&d.fresh_c);
        arena.aged_age[i] = d.aged_age;
        arena.fresh_age[i] = d.fresh_age;
    }

    let w = common.window;
    let (cw, buf, head, filled, sum) = &c.survival;
    if *cw as usize != w {
        return Err(format!("survival window {cw} does not match detector window {w}"));
    }
    RollingSurvival::restore(w, buf.clone(), *head as usize, *filled as usize, *sum)?;
    ledger.ring_buf[i * w..(i + 1) * w].copy_from_slice(buf);
    ledger.ring_head[i] = *head as u32;
    ledger.ring_filled[i] = *filled as u32;
    ledger.ring_sum[i] = *sum;

    let partials = [("medium", &c.med_partial), ("long", &c.long_partial)];
    for (name, partial) in partials {
        if partial.0.len() != NUM_FEATURES {
            return Err(format!("{name} partial bucket has width {}", partial.0.len()));
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

    /// A half driven to the table bound leaves the trajectory instead of
    /// indexing past it, and a row off the trajectory never skips.
    #[test]
    fn trajectory_bound_saturates() {
        let mut row = OnTrajectory::COLD;
        for step in 1..9 {
            assert!(row.try_skip(10), "entry {step} is inside the table");
        }
        assert_eq!(row.stale(), Some((8, 8)));
        assert!(row.try_skip(10));
        assert!(!row.try_skip(10), "entry 10 would be past the table");
        assert_eq!(row.stale(), Some((9, 9)));
        row.settle();
        row.stepped(10);
        assert_eq!((row.aged, row.fresh), (OFF, OFF));
        assert!(!row.try_skip(10));
        row.promote();
        assert_eq!((row.aged, row.fresh), (OFF, 0));
        let mut busy = OnTrajectory::of(true, true, false);
        busy.stepped(10);
        assert_eq!((busy.aged, busy.fresh), (OFF, OFF));
    }
}
