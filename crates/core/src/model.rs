//! The multi-timescale LSTM hazard model (Fig 6 of the paper).
//!
//! Three LSTMs consume the pooled feature series; a dense layer combines
//! their hidden states; a softplus head emits the instantaneous hazard
//! `λ_t ≥ 0` for every step of the detection window.
//!
//! During the window the short LSTM steps every minute, while the
//! medium/long LSTM states refresh only when a full medium/long pooling
//! bucket of window frames completes (held constant in between) — exactly
//! the streaming behaviour of the deployed system. The backward pass
//! routes each window step's combiner gradient to the short trace position
//! it read and to whichever medium/long trace position was *current* at
//! that step, then runs BPTT through all three LSTMs. Verified against
//! finite differences in the tests.
//!
//! # Hot path
//!
//! The training hot path is allocation-free in steady state: a
//! [`ForwardTrace`] owns every per-sequence buffer (LSTM traces, pooled
//! buckets, combiner inputs, logits, hazards) as flat arenas reused across
//! [`XatuModel::forward_wide`] calls, and [`XatuModel::backward_with`]
//! takes a [`ModelWorkspace`] holding the flat upstream-gradient buffers
//! and the per-LSTM BPTT workspaces. The allocating [`XatuModel::forward`]
//! / [`XatuModel::backward`] wrappers remain for evaluation and
//! attribution, and produce bit-identical results.

use crate::config::{TimescaleMode, XatuConfig};
use crate::sample::{Sample, WideSample};
use serde::{Deserialize, Serialize};
use xatu_features::frame::NUM_FEATURES;
use xatu_nn::activations::{dsoftplus, sigmoid, softplus};
use xatu_nn::init::Initializer;
use xatu_nn::lstm::{Lstm, LstmState, LstmTrace, LstmWorkspace, OnlineScratch};
use xatu_nn::{Dense, FrameArena, Params, SimdLevel};

/// The model: three LSTMs + combiner + hazard head.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct XatuModel {
    /// Configuration snapshot (timescales, hidden size, mode).
    pub cfg: ModelConfig,
    lstm_short: Lstm,
    lstm_medium: Lstm,
    lstm_long: Lstm,
    head: Dense,
}

/// The subset of [`XatuConfig`] the model itself needs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ModelConfig {
    /// (short, medium, long) pooling granularities in minutes.
    pub timescales: (u32, u32, u32),
    /// Hidden units per LSTM.
    pub hidden: usize,
    /// Which LSTMs are active.
    pub mode: TimescaleMode,
}

impl From<&XatuConfig> for ModelConfig {
    fn from(c: &XatuConfig) -> Self {
        ModelConfig {
            timescales: c.timescales,
            hidden: c.hidden,
            mode: c.timescale_mode,
        }
    }
}

/// Everything the backward pass needs from one forward pass, stored as
/// reusable flat buffers. A default-constructed trace grows on first use;
/// passing the same trace to repeated [`XatuModel::forward_wide`] calls
/// performs no heap allocations once warm.
#[derive(Default)]
pub struct ForwardTrace {
    /// Short LSTM trace over context ++ window (1-minute granularity).
    short: LstmTrace,
    /// Medium LSTM trace over context ++ consumed window buckets.
    medium: LstmTrace,
    /// Long LSTM trace over context ++ consumed window buckets.
    long: LstmTrace,
    /// Lengths of the pure-context prefixes of each trace.
    short_ctx: usize,
    med_ctx: usize,
    long_ctx: usize,
    /// Window length (number of hazard outputs).
    window_len: usize,
    /// Completed medium/long pooling buckets of the window.
    med_buckets: FrameArena,
    long_buckets: FrameArena,
    /// Combiner inputs per window step, `window_len × 3h` (cached for the
    /// Dense backward).
    combined: FrameArena,
    /// Pre-softplus head outputs (logits).
    pub logits: Vec<f64>,
    /// Softplus hazards.
    pub hazards: Vec<f64>,
}

/// Reusable scratch for [`XatuModel::backward_with`]: one BPTT workspace
/// per LSTM plus the flat upstream-gradient buffers. One per training
/// worker; steady-state backward passes through a warm workspace allocate
/// nothing.
#[derive(Default)]
pub struct ModelWorkspace {
    short: LstmWorkspace,
    medium: LstmWorkspace,
    long: LstmWorkspace,
    /// ∂Loss/∂h per trace position, flat `t * hidden + k`.
    dhs_short: Vec<f64>,
    dhs_med: Vec<f64>,
    dhs_long: Vec<f64>,
    /// Combiner-input gradient scratch (`3h`).
    dinput: Vec<f64>,
}

impl ModelWorkspace {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clears and re-zeroes `v` to length `n`, keeping its allocation.
fn fit(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

impl XatuModel {
    /// Builds a model with seeded Xavier weights.
    pub fn new(cfg: &XatuConfig) -> Self {
        let mut init = Initializer::new(cfg.seed);
        let h = cfg.hidden;
        let mut head = Dense::new(3 * h, 1, &mut init);
        // Rare-event output bias: softplus(−4) ≈ 0.018, so an untrained
        // model predicts near-certain survival instead of firing on every
        // quiet minute (which would make threshold calibration impossible
        // before the loss has pushed quiet-period hazards down).
        head.bias_mut()[0] = -4.0;
        XatuModel {
            cfg: ModelConfig::from(cfg),
            lstm_short: Lstm::new(NUM_FEATURES, h, &mut init),
            lstm_medium: Lstm::new(NUM_FEATURES, h, &mut init),
            lstm_long: Lstm::new(NUM_FEATURES, h, &mut init),
            head,
        }
    }

    /// Builds a model directly from a [`ModelConfig`], with placeholder
    /// weights (seed 0). Used by checkpoint restore, which immediately
    /// overwrites every parameter via `Params::import_params_from`.
    pub fn with_config(cfg: ModelConfig) -> Self {
        let mut init = Initializer::new(0);
        let h = cfg.hidden;
        let mut head = Dense::new(3 * h, 1, &mut init);
        head.bias_mut()[0] = -4.0;
        XatuModel {
            cfg,
            lstm_short: Lstm::new(NUM_FEATURES, h, &mut init),
            lstm_medium: Lstm::new(NUM_FEATURES, h, &mut init),
            lstm_long: Lstm::new(NUM_FEATURES, h, &mut init),
            head,
        }
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.cfg.hidden
    }

    /// The short-timescale LSTM (crate-internal: fleet batched stepping).
    pub(crate) fn lstm_short(&self) -> &Lstm {
        &self.lstm_short
    }

    /// The medium-timescale LSTM (crate-internal: fleet batched stepping).
    pub(crate) fn lstm_medium(&self) -> &Lstm {
        &self.lstm_medium
    }

    /// The long-timescale LSTM (crate-internal: fleet batched stepping).
    pub(crate) fn lstm_long(&self) -> &Lstm {
        &self.lstm_long
    }

    /// The combiner head (crate-internal: fleet batched stepping).
    pub(crate) fn head(&self) -> &Dense {
        &self.head
    }

    /// Sets the dispatch level of the three layers' online kernels
    /// (crate-internal: the detector core applies the configuration's).
    pub(crate) fn set_simd(&mut self, level: SimdLevel) {
        for layer in [
            &mut self.lstm_short,
            &mut self.lstm_medium,
            &mut self.lstm_long,
        ] {
            layer.set_simd(level);
        }
    }

    /// Runs the model on a sample, producing hazards for each window step.
    ///
    /// Allocating convenience wrapper: widens the sample and builds a fresh
    /// trace. The training loop uses [`XatuModel::forward_wide`] with a
    /// cached [`WideSample`] and a reused trace instead.
    pub fn forward(&self, sample: &Sample) -> ForwardTrace {
        let wide = WideSample::from_sample(sample);
        let mut trace = ForwardTrace::default();
        self.forward_wide(&wide, &mut trace);
        trace
    }

    /// Core forward over a pre-widened sample into a reusable trace.
    pub fn forward_wide(&self, sample: &WideSample, out: &mut ForwardTrace) {
        self.forward_arenas(
            &sample.short,
            &sample.medium,
            &sample.long,
            &sample.window,
            out,
        );
    }

    /// Core forward over explicit f64 sequences (also used by attribution).
    pub fn forward_frames(
        &self,
        short_ctx: &[Vec<f64>],
        med_ctx: &[Vec<f64>],
        long_ctx: &[Vec<f64>],
        window: &[Vec<f64>],
    ) -> ForwardTrace {
        let dim_of = |v: &[Vec<f64>]| v.first().map_or(0, Vec::len);
        let mut s = FrameArena::new(dim_of(short_ctx));
        let mut m = FrameArena::new(dim_of(med_ctx));
        let mut l = FrameArena::new(dim_of(long_ctx));
        let mut w = FrameArena::new(dim_of(window));
        s.fill_from_rows(dim_of(short_ctx), short_ctx);
        m.fill_from_rows(dim_of(med_ctx), med_ctx);
        l.fill_from_rows(dim_of(long_ctx), long_ctx);
        w.fill_from_rows(dim_of(window), window);
        let mut trace = ForwardTrace::default();
        self.forward_arenas(&s, &m, &l, &w, &mut trace);
        trace
    }

    /// The forward pass proper: pool the window into completed buckets, run
    /// the three LSTMs over context ++ consumed frames, and emit one hazard
    /// per window step from the combiner head. Every output buffer lives in
    /// `out` and is reused with capacity-keeping resets.
    fn forward_arenas(
        &self,
        short_ctx: &FrameArena,
        med_ctx: &FrameArena,
        long_ctx: &FrameArena,
        window: &FrameArena,
        out: &mut ForwardTrace,
    ) {
        let (_, med_gran, long_gran) = self.cfg.timescales;
        let window_len = window.len();

        // Window frames pooled into fully-completed medium/long buckets.
        pool_completed_into(window, med_gran as usize, &mut out.med_buckets);
        pool_completed_into(window, long_gran as usize, &mut out.long_buckets);

        // Short trace: context ++ window at native granularity.
        self.lstm_short.begin(&mut out.short);
        self.lstm_short.extend_arena(short_ctx, &mut out.short);
        self.lstm_short.extend_arena(window, &mut out.short);

        self.lstm_medium.begin(&mut out.medium);
        self.lstm_medium.extend_arena(med_ctx, &mut out.medium);
        self.lstm_medium
            .extend_arena(&out.med_buckets, &mut out.medium);

        self.lstm_long.begin(&mut out.long);
        self.lstm_long.extend_arena(long_ctx, &mut out.long);
        self.lstm_long
            .extend_arena(&out.long_buckets, &mut out.long);

        let (use_s, use_m, use_l) = self.cfg.mode.enabled();
        let h = self.cfg.hidden;

        out.combined.reset(3 * h);
        out.logits.clear();
        out.hazards.clear();
        let mut logit_buf = [0.0f64; 1];
        for t in 0..window_len {
            // Disabled timescales keep their zeroed third of the input.
            let input = out.combined.push_zeroed();
            if use_s {
                input[0..h].copy_from_slice(short_hidden(&out.short, short_ctx.len(), t));
            }
            if use_m {
                input[h..2 * h].copy_from_slice(coarse_hidden(
                    &out.medium,
                    med_ctx.len(),
                    t,
                    med_gran as usize,
                ));
            }
            if use_l {
                input[2 * h..3 * h].copy_from_slice(coarse_hidden(
                    &out.long,
                    long_ctx.len(),
                    t,
                    long_gran as usize,
                ));
            }
            self.head.forward_into(input, &mut logit_buf);
            let logit = logit_buf[0];
            out.logits.push(logit);
            out.hazards.push(softplus(logit));
        }

        out.short_ctx = short_ctx.len();
        out.med_ctx = med_ctx.len();
        out.long_ctx = long_ctx.len();
        out.window_len = window_len;
    }

    /// Backward pass from per-step hazard gradients. Set `d_logits_direct`
    /// instead to skip the softplus (used by the cross-entropy ablation).
    /// Accumulates parameter gradients; returns per-input gradients when
    /// `want_dx` (for attribution).
    ///
    /// Allocating convenience wrapper over [`XatuModel::backward_with`].
    pub fn backward(
        &mut self,
        trace: &ForwardTrace,
        d_hazards: Option<&[f64]>,
        d_logits_direct: Option<&[f64]>,
        want_dx: bool,
    ) -> Option<InputGradients> {
        let mut ws = ModelWorkspace::default();
        self.backward_with(trace, d_hazards, d_logits_direct, want_dx, &mut ws);
        want_dx.then(|| InputGradients {
            short: ws.short.take_dxs(),
            medium: ws.medium.take_dxs(),
            long: ws.long.take_dxs(),
            short_ctx: trace.short_ctx,
            med_ctx: trace.med_ctx,
            long_ctx: trace.long_ctx,
            window_len: trace.window_len,
        })
    }

    /// The backward pass proper, against caller-held scratch: routes each
    /// window step's combiner gradient to the trace positions it read, then
    /// runs BPTT through all three LSTMs. After the call, `ws` holds the
    /// input-gradient arenas (iff `want_dx`). Allocation-free once `ws` is
    /// warm.
    pub fn backward_with(
        &mut self,
        trace: &ForwardTrace,
        d_hazards: Option<&[f64]>,
        d_logits_direct: Option<&[f64]>,
        want_dx: bool,
        ws: &mut ModelWorkspace,
    ) {
        let h = self.cfg.hidden;
        let (use_s, use_m, use_l) = self.cfg.mode.enabled();
        let (_, med_gran, long_gran) = self.cfg.timescales;

        fit(&mut ws.dhs_short, trace.short.len() * h);
        fit(&mut ws.dhs_med, trace.medium.len() * h);
        fit(&mut ws.dhs_long, trace.long.len() * h);
        fit(&mut ws.dinput, 3 * h);

        for t in 0..trace.window_len {
            let dlogit = match (d_hazards, d_logits_direct) {
                (Some(dh), None) => dh[t] * dsoftplus(trace.logits[t]),
                (None, Some(dl)) => dl[t],
                _ => panic!("pass exactly one of d_hazards / d_logits_direct"),
            };
            if dlogit == 0.0 {
                continue;
            }
            self.head
                .backward_into(trace.combined.frame(t), &[dlogit], &mut ws.dinput);
            if use_s {
                if let Some(pos) = short_pos(trace.short_ctx, t, trace.short.len()) {
                    acc(&mut ws.dhs_short[pos * h..(pos + 1) * h], &ws.dinput[0..h]);
                }
            }
            if use_m {
                if let Some(pos) =
                    coarse_pos(trace.med_ctx, t, med_gran as usize, trace.medium.len())
                {
                    acc(
                        &mut ws.dhs_med[pos * h..(pos + 1) * h],
                        &ws.dinput[h..2 * h],
                    );
                }
            }
            if use_l {
                if let Some(pos) =
                    coarse_pos(trace.long_ctx, t, long_gran as usize, trace.long.len())
                {
                    acc(
                        &mut ws.dhs_long[pos * h..(pos + 1) * h],
                        &ws.dinput[2 * h..3 * h],
                    );
                }
            }
        }

        self.lstm_short
            .backward_flat(&trace.short, &ws.dhs_short, want_dx, &mut ws.short);
        self.lstm_medium
            .backward_flat(&trace.medium, &ws.dhs_med, want_dx, &mut ws.medium);
        self.lstm_long
            .backward_flat(&trace.long, &ws.dhs_long, want_dx, &mut ws.long);
    }

    /// Hazards only (inference convenience).
    pub fn hazards(&self, sample: &Sample) -> Vec<f64> {
        self.forward(sample).hazards
    }

    /// Per-step attack probability under the classification reading
    /// (`p_t = σ(logit_t)`), used by the cross-entropy ablation.
    pub fn step_probabilities(&self, sample: &Sample) -> Vec<f64> {
        self.forward(sample)
            .logits
            .iter()
            .map(|&l| sigmoid(l))
            .collect()
    }

    /// Online stepping state for streaming detection.
    pub fn new_online_state(&self) -> OnlineState {
        let h = self.cfg.hidden;
        OnlineState {
            short: LstmState::zeros(h),
            medium: LstmState::zeros(h),
            long: LstmState::zeros(h),
            scratch: OnlineScratch::default(),
            input: Vec::new(),
        }
    }

    /// One online step: feed the minute frame to the short LSTM, refresh
    /// the medium/long states when their pooled buckets complete (callers
    /// pass `med_bucket`/`long_bucket` when a bucket just completed), and
    /// return the hazard. States update in place against the scratch
    /// buffers held inside `state` — no allocations once warm.
    pub fn step_online(
        &self,
        state: &mut OnlineState,
        minute_frame: &[f64],
        med_bucket: Option<&[f64]>,
        long_bucket: Option<&[f64]>,
    ) -> f64 {
        let (use_s, use_m, use_l) = self.cfg.mode.enabled();
        if use_s {
            self.lstm_short
                .step_online_into(minute_frame, &mut state.short, &mut state.scratch);
        }
        if use_m {
            if let Some(b) = med_bucket {
                self.lstm_medium
                    .step_online_into(b, &mut state.medium, &mut state.scratch);
            }
        }
        if use_l {
            if let Some(b) = long_bucket {
                self.lstm_long
                    .step_online_into(b, &mut state.long, &mut state.scratch);
            }
        }
        let h = self.cfg.hidden;
        fit(&mut state.input, 3 * h);
        if use_s {
            state.input[0..h].copy_from_slice(&state.short.h);
        }
        if use_m {
            state.input[h..2 * h].copy_from_slice(&state.medium.h);
        }
        if use_l {
            state.input[2 * h..3 * h].copy_from_slice(&state.long.h);
        }
        let mut logit = [0.0f64; 1];
        self.head.forward_into(&state.input, &mut logit);
        softplus(logit[0])
    }
}

/// Streaming LSTM states for one (customer, type), plus private scratch so
/// stepping allocates nothing.
#[derive(Clone, Debug)]
pub struct OnlineState {
    /// Short LSTM state.
    pub short: LstmState,
    /// Medium LSTM state.
    pub medium: LstmState,
    /// Long LSTM state.
    pub long: LstmState,
    /// Row-step scratch shared by the three LSTM steps.
    scratch: OnlineScratch,
    /// Combiner input scratch (`3h`).
    input: Vec<f64>,
}

/// A pair of staggered LSTM states with bounded context age.
///
/// Training always runs the LSTMs from a zero state over a context of
/// `period` steps; a naive streaming state instead accumulates thousands of
/// steps, drifting away from the training distribution and mis-calibrating
/// the hazard head. The dual state fixes that: both states step on every
/// input, the *aged* one (context length in `[period, 2·period)`) produces
/// the output, and on reaching `2·period` it is replaced by the fresh one
/// (which by then has exactly `period` steps of context) — so the serving
/// context length always matches training.
#[derive(Clone, Debug)]
pub struct DualState {
    aged: LstmState,
    fresh: LstmState,
    aged_age: u32,
    fresh_age: u32,
    period: u32,
    /// Row-step scratch for the in-place LSTM steps.
    scratch: OnlineScratch,
}

impl DualState {
    /// Creates a dual state for a given hidden size and reset period.
    pub fn new(hidden: usize, period: u32) -> Self {
        DualState {
            aged: LstmState::zeros(hidden),
            fresh: LstmState::zeros(hidden),
            // Pretend the aged state already has `period` context so the
            // first promotion happens when the fresh one is fully warmed.
            aged_age: period.max(1),
            fresh_age: 0,
            period: period.max(1),
            scratch: OnlineScratch::default(),
        }
    }

    /// Steps both states in place and returns the aged hidden state.
    pub fn step(&mut self, lstm: &Lstm, x: &[f64]) -> &[f64] {
        lstm.step_online_into(x, &mut self.aged, &mut self.scratch);
        lstm.step_online_into(x, &mut self.fresh, &mut self.scratch);
        self.aged_age += 1;
        self.fresh_age += 1;
        if self.aged_age >= 2 * self.period {
            std::mem::swap(&mut self.aged, &mut self.fresh);
            self.aged_age = self.fresh_age;
            self.fresh.h.fill(0.0);
            self.fresh.c.fill(0.0);
            self.fresh_age = 0;
        }
        &self.aged.h
    }

    /// The current output hidden state without stepping.
    pub fn hidden(&self) -> &[f64] {
        &self.aged.h
    }

    /// The configured reset period.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Current `(aged_age, fresh_age)` context lengths.
    pub fn ages(&self) -> (u32, u32) {
        (self.aged_age, self.fresh_age)
    }

    /// The `(aged, fresh)` LSTM states, for checkpointing.
    pub fn states(&self) -> (&LstmState, &LstmState) {
        (&self.aged, &self.fresh)
    }

    /// Rebuilds a dual state from checkpointed parts. Returns `Err` when
    /// the parts are internally inconsistent (mismatched hidden sizes,
    /// non-finite values, an aged age at or past the swap point — a state
    /// the stepping logic can never be observed in).
    pub fn restore(
        aged: LstmState,
        fresh: LstmState,
        aged_age: u32,
        fresh_age: u32,
        period: u32,
    ) -> Result<Self, &'static str> {
        if period == 0 {
            return Err("dual-state period must be >= 1");
        }
        let h = aged.h.len();
        if aged.c.len() != h || fresh.h.len() != h || fresh.c.len() != h {
            return Err("dual-state hidden sizes disagree");
        }
        if aged_age >= 2 * period || fresh_age > aged_age {
            return Err("dual-state ages out of range");
        }
        let finite =
            |s: &LstmState| s.h.iter().all(|v| v.is_finite()) && s.c.iter().all(|v| v.is_finite());
        if !finite(&aged) || !finite(&fresh) {
            return Err("non-finite dual-state values");
        }
        Ok(DualState {
            aged,
            fresh,
            aged_age,
            fresh_age,
            period,
            scratch: OnlineScratch::default(),
        })
    }
}

impl OnlineState {
    /// Assembles an online state from checkpointed LSTM states.
    pub fn from_parts(short: LstmState, medium: LstmState, long: LstmState) -> Self {
        OnlineState {
            short,
            medium,
            long,
            scratch: OnlineScratch::default(),
            input: Vec::new(),
        }
    }
}

/// Per-input gradients for attribution, split by sequence. Each sequence's
/// gradients are a flat arena, one frame per trace position.
pub struct InputGradients {
    /// d/d(short sequence) — context ++ window positions.
    pub short: FrameArena,
    /// d/d(medium sequence).
    pub medium: FrameArena,
    /// d/d(long sequence).
    pub long: FrameArena,
    /// Context prefix lengths.
    pub short_ctx: usize,
    /// Medium context prefix length.
    pub med_ctx: usize,
    /// Long context prefix length.
    pub long_ctx: usize,
    /// Window length.
    pub window_len: usize,
}

impl Params for XatuModel {
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.lstm_short.visit(f);
        self.lstm_medium.visit(f);
        self.lstm_long.visit(f);
        self.head.visit(f);
    }
}

/// Pools window frames into fully-completed buckets of `gran` minutes,
/// reusing `out`. Matches `avg_pool` on the truncated-to-complete prefix
/// bit for bit (same accumulate-then-scale order per bucket).
fn pool_completed_into(window: &FrameArena, gran: usize, out: &mut FrameArena) {
    out.reset(window.dim());
    let n_complete = window.len() / gran;
    if n_complete == 0 {
        return;
    }
    let inv = 1.0 / gran as f64;
    for b in 0..n_complete {
        let bucket = out.push_zeroed();
        for t in b * gran..(b + 1) * gran {
            for (a, v) in bucket.iter_mut().zip(window.frame(t)) {
                *a += v;
            }
        }
        for a in bucket.iter_mut() {
            *a *= inv;
        }
    }
}

/// Position in the short trace the head reads at window step `t`;
/// `None` if the trace is empty.
fn short_pos(ctx: usize, t: usize, trace_len: usize) -> Option<usize> {
    let pos = ctx + t;
    (pos < trace_len).then_some(pos)
}

/// The short hidden state at window step `t`.
fn short_hidden(trace: &LstmTrace, ctx: usize, t: usize) -> &[f64] {
    trace.h(ctx + t)
}

/// Position in a coarse trace current at window step `t`:
/// `ctx − 1 + floor(t / gran)` buckets consumed; `None` before any state
/// exists (empty context and no bucket yet).
fn coarse_pos(ctx: usize, t: usize, gran: usize, trace_len: usize) -> Option<usize> {
    let consumed = t / gran; // buckets completed strictly before step t+1
    let pos = ctx + consumed;
    if pos == 0 {
        return None;
    }
    Some((pos - 1).min(trace_len.saturating_sub(1)))
}

/// The coarse (medium/long) hidden state current at window step `t`.
fn coarse_hidden(trace: &LstmTrace, ctx: usize, t: usize, gran: usize) -> &[f64] {
    match coarse_pos(ctx, t, gran, trace.len()) {
        Some(pos) if !trace.is_empty() => trace.h(pos),
        // No state yet: the caller's zero block must be used instead; this
        // branch is unreachable given ctx >= 1 in practice.
        _ => unreachable!("coarse hidden requested with no context and no buckets"),
    }
}

fn acc(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleMeta;
    use xatu_netflow::addr::Ipv4;
    use xatu_netflow::attack::AttackType;
    use xatu_nn::gradcheck::check_params_gradient_sampled;
    use xatu_nn::pooling::avg_pool;
    use xatu_survival::safe_loss::safe_loss_and_grad;

    /// A tiny config so gradient checks stay fast; feature dim is the real
    /// 273 (the model is hard-wired to Table 1 width).
    fn cfg() -> XatuConfig {
        XatuConfig {
            timescales: (1, 3, 6),
            short_len: 5,
            medium_len: 4,
            long_len: 3,
            window: 7,
            hidden: 3,
            ..XatuConfig::smoke_test()
        }
    }

    fn sample(c: &XatuConfig, label: bool) -> Sample {
        let frame = |s: usize, t: usize| -> Vec<f32> {
            (0..NUM_FEATURES)
                .map(|k| 0.3 * (((s * 31 + t * 7 + k) % 17) as f32 / 17.0 - 0.5))
                .collect()
        };
        Sample {
            short: (0..c.short_len).map(|t| frame(0, t)).collect(),
            medium: (0..c.medium_len).map(|t| frame(1, t)).collect(),
            long: (0..c.long_len).map(|t| frame(2, t)).collect(),
            window: (0..c.window).map(|t| frame(3, t)).collect(),
            label,
            event_step: if label { 5 } else { 7 },
            anomaly_step: label.then_some(3),
            meta: SampleMeta {
                customer: Ipv4(1),
                attack_type: AttackType::UdpFlood,
                window_start: 0,
            },
        }
    }

    #[test]
    fn forward_emits_one_hazard_per_window_step() {
        let c = cfg();
        let model = XatuModel::new(&c);
        let s = sample(&c, true);
        let trace = model.forward(&s);
        assert_eq!(trace.hazards.len(), c.window);
        assert!(trace.hazards.iter().all(|&h| h >= 0.0));
    }

    #[test]
    fn full_model_gradient_check_survival_loss() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let s = sample(&c, true);
        let loss_fn = |m: &mut XatuModel| {
            let tr = m.forward(&s);
            safe_loss_and_grad(&tr.hazards, s.label, s.event_step).loss
        };
        let max_rel = check_params_gradient_sampled(
            &mut model,
            loss_fn,
            |m| {
                let tr = m.forward(&s);
                let g = safe_loss_and_grad(&tr.hazards, s.label, s.event_step);
                m.backward(&tr, Some(&g.dl_dhazard), None, false);
            },
            1e-4,
            37,
        );
        assert!(max_rel < 1e-4, "max relative error {max_rel}");
    }

    #[test]
    fn full_model_gradient_check_censored_sample() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let s = sample(&c, false);
        let max_rel = check_params_gradient_sampled(
            &mut model,
            |m| {
                let tr = m.forward(&s);
                safe_loss_and_grad(&tr.hazards, false, s.event_step).loss
            },
            |m| {
                let tr = m.forward(&s);
                let g = safe_loss_and_grad(&tr.hazards, false, s.event_step);
                m.backward(&tr, Some(&g.dl_dhazard), None, false);
            },
            1e-4,
            37,
        );
        assert!(max_rel < 1e-4, "max relative error {max_rel}");
    }

    #[test]
    fn gradient_check_each_timescale_mode() {
        for mode in [
            TimescaleMode::ShortOnly,
            TimescaleMode::NoMedium,
            TimescaleMode::NoLong,
            TimescaleMode::NoShort,
        ] {
            let mut c = cfg();
            c.timescale_mode = mode;
            let mut model = XatuModel::new(&c);
            let s = sample(&c, true);
            let max_rel = check_params_gradient_sampled(
                &mut model,
                |m| {
                    let tr = m.forward(&s);
                    safe_loss_and_grad(&tr.hazards, true, s.event_step).loss
                },
                |m| {
                    let tr = m.forward(&s);
                    let g = safe_loss_and_grad(&tr.hazards, true, s.event_step);
                    m.backward(&tr, Some(&g.dl_dhazard), None, false);
                },
                1e-4,
                37,
            );
            assert!(max_rel < 1e-4, "{mode:?}: max relative error {max_rel}");
        }
    }

    #[test]
    fn online_stepping_matches_batch_forward() {
        let c = cfg();
        let model = XatuModel::new(&c);
        let s = sample(&c, true);

        // Batch.
        let trace = model.forward(&s);

        // Online: replay context, then the window minute by minute with
        // bucket completions at the pooled granularities.
        let short_ctx = Sample::widen(&s.short);
        let med_ctx = Sample::widen(&s.medium);
        let long_ctx = Sample::widen(&s.long);
        let window = Sample::widen(&s.window);

        let mut st = model.new_online_state();
        let mut z = OnlineScratch::default();
        for f in &short_ctx {
            model.lstm_short.step_online_into(f, &mut st.short, &mut z);
        }
        for f in &med_ctx {
            model
                .lstm_medium
                .step_online_into(f, &mut st.medium, &mut z);
        }
        for f in &long_ctx {
            model.lstm_long.step_online_into(f, &mut st.long, &mut z);
        }
        let med_gran = c.timescales.1 as usize;
        let long_gran = c.timescales.2 as usize;
        for (t, frame) in window.iter().enumerate() {
            // A bucket completes *before* step t when t % gran == 0, t > 0.
            let med_bucket = (t > 0 && t % med_gran == 0)
                .then(|| avg_pool(&window[t - med_gran..t], med_gran)[0].clone());
            let long_bucket = (t > 0 && t % long_gran == 0)
                .then(|| avg_pool(&window[t - long_gran..t], long_gran)[0].clone());
            let hz = model.step_online(
                &mut st,
                frame,
                med_bucket.as_deref(),
                long_bucket.as_deref(),
            );
            assert!(
                (hz - trace.hazards[t]).abs() < 1e-9,
                "t={t}: online {hz} vs batch {}",
                trace.hazards[t]
            );
        }
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let s = sample(&c, true);
        let targets: Vec<f64> = (0..c.window)
            .map(|t| {
                if s.label && t + 1 >= s.anomaly_step.unwrap() {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let bce = |logits: &[f64]| -> f64 {
            logits
                .iter()
                .zip(&targets)
                .map(|(&l, &y)| {
                    // Stable BCE-with-logits.
                    l.max(0.0) - l * y + (-l.abs()).exp().ln_1p()
                })
                .sum()
        };
        let max_rel = check_params_gradient_sampled(
            &mut model,
            |m| bce(&m.forward(&s).logits),
            |m| {
                let tr = m.forward(&s);
                let dl: Vec<f64> = tr
                    .logits
                    .iter()
                    .zip(&targets)
                    .map(|(&l, &y)| sigmoid(l) - y)
                    .collect();
                m.backward(&tr, None, Some(&dl), false);
            },
            1e-4,
            37,
        );
        assert!(max_rel < 1e-4, "max relative error {max_rel}");
    }

    #[test]
    fn serde_roundtrip_preserves_outputs() {
        let c = cfg();
        let model = XatuModel::new(&c);
        let s = sample(&c, true);
        let json = serde_json::to_string(&model).unwrap();
        let back: XatuModel = serde_json::from_str(&json).unwrap();
        let a = model.hazards(&s);
        let b = back.hazards(&s);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn input_gradients_have_trace_shapes() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let s = sample(&c, true);
        let tr = model.forward(&s);
        let g = safe_loss_and_grad(&tr.hazards, true, s.event_step);
        let gx = model
            .backward(&tr, Some(&g.dl_dhazard), None, true)
            .expect("input grads");
        assert_eq!(gx.short.len(), c.short_len + c.window);
        assert_eq!(gx.medium.len(), c.medium_len + c.window / 3);
        assert_eq!(gx.long.len(), c.long_len + c.window / 6);
        // Window steps influence the loss, so late short grads are nonzero.
        let late: f64 = gx.short[c.short_len].iter().map(|v| v.abs()).sum();
        assert!(late > 0.0);
    }

    // ------------------------------------------------------------------
    // Equivalence of the arena/workspace hot path with the allocating
    // composition it replaced.
    // ------------------------------------------------------------------

    /// The pre-refactor forward, recomposed from the allocating primitives
    /// (`Sample::widen`, `Vec` concatenation, `avg_pool` bucket pooling,
    /// per-step `Vec` combiner inputs, allocating `Dense::forward`).
    fn reference_forward(m: &XatuModel, s: &Sample) -> (Vec<f64>, Vec<f64>) {
        let short_ctx = Sample::widen(&s.short);
        let med_ctx = Sample::widen(&s.medium);
        let long_ctx = Sample::widen(&s.long);
        let window = Sample::widen(&s.window);
        let (_, med_gran, long_gran) = m.cfg.timescales;

        let buckets = |gran: usize| -> Vec<Vec<f64>> {
            let n_complete = window.len() / gran;
            if n_complete == 0 {
                return Vec::new();
            }
            avg_pool(&window[..n_complete * gran], gran)
        };
        let med_buckets = buckets(med_gran as usize);
        let long_buckets = buckets(long_gran as usize);

        let mut short_seq = short_ctx.clone();
        short_seq.extend(window.iter().cloned());
        let short = m.lstm_short.forward(&short_seq);
        let mut med_seq = med_ctx.clone();
        med_seq.extend(med_buckets.iter().cloned());
        let medium = m.lstm_medium.forward(&med_seq);
        let mut long_seq = long_ctx.clone();
        long_seq.extend(long_buckets.iter().cloned());
        let long = m.lstm_long.forward(&long_seq);

        let (use_s, use_m, use_l) = m.cfg.mode.enabled();
        let h = m.cfg.hidden;
        let zero = vec![0.0; h];
        let mut logits = Vec::new();
        let mut hazards = Vec::new();
        for t in 0..window.len() {
            let hs = if use_s {
                short_hidden(&short, short_ctx.len(), t)
            } else {
                &zero
            };
            let hm = if use_m {
                coarse_hidden(&medium, med_ctx.len(), t, med_gran as usize)
            } else {
                &zero
            };
            let hl = if use_l {
                coarse_hidden(&long, long_ctx.len(), t, long_gran as usize)
            } else {
                &zero
            };
            let mut input = Vec::with_capacity(3 * h);
            input.extend_from_slice(hs);
            input.extend_from_slice(hm);
            input.extend_from_slice(hl);
            let logit = m.head.forward(&input)[0];
            logits.push(logit);
            hazards.push(softplus(logit));
        }
        (logits, hazards)
    }

    #[test]
    fn forward_matches_allocating_reference_bitwise() {
        for mode in [
            TimescaleMode::All,
            TimescaleMode::ShortOnly,
            TimescaleMode::NoMedium,
            TimescaleMode::NoLong,
            TimescaleMode::NoShort,
        ] {
            let mut c = cfg();
            c.timescale_mode = mode;
            let model = XatuModel::new(&c);
            for label in [true, false] {
                let s = sample(&c, label);
                let trace = model.forward(&s);
                let (ref_logits, ref_hazards) = reference_forward(&model, &s);
                assert_eq!(trace.logits.len(), ref_logits.len());
                for (a, b) in trace.logits.iter().zip(&ref_logits) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}");
                }
                for (a, b) in trace.hazards.iter().zip(&ref_hazards) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn warm_trace_and_workspace_reuse_is_bit_identical() {
        // Run sample A through a trace+workspace, then sample B through the
        // same (now warm, differently-sized) buffers: results and gradients
        // must equal a fresh run of B exactly.
        let c = cfg();
        let mut c_big = c;
        c_big.window = 11;
        c_big.short_len = 9;
        let model = XatuModel::new(&c);
        let sa = sample(&c_big, true);
        let sb = sample(&c, false);

        let mut warm_model = model.clone();
        let mut trace = ForwardTrace::default();
        let mut ws = ModelWorkspace::default();
        for s in [&sa, &sb] {
            let wide = WideSample::from_sample(s);
            warm_model.forward_wide(&wide, &mut trace);
            let g = safe_loss_and_grad(&trace.hazards, s.label, s.event_step);
            warm_model.backward_with(&trace, Some(&g.dl_dhazard), None, true, &mut ws);
        }

        let mut fresh_model = model.clone();
        // Replay A's gradient contribution so accumulated grads match.
        let tr_a = fresh_model.forward(&sa);
        let g_a = safe_loss_and_grad(&tr_a.hazards, sa.label, sa.event_step);
        fresh_model.backward(&tr_a, Some(&g_a.dl_dhazard), None, true);
        let tr_b = fresh_model.forward(&sb);
        let g_b = safe_loss_and_grad(&tr_b.hazards, sb.label, sb.event_step);
        let gx_b = fresh_model
            .backward(&tr_b, Some(&g_b.dl_dhazard), None, true)
            .expect("input grads");

        for (a, b) in trace.hazards.iter().zip(&tr_b.hazards) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let n = warm_model.param_count();
        let (mut gw, mut gf) = (vec![0.0; n], vec![0.0; n]);
        warm_model.export_grads_into(&mut gw);
        fresh_model.export_grads_into(&mut gf);
        for (a, b) in gw.iter().zip(&gf) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Input gradients of the warm B pass match the fresh B pass.
        assert_eq!(ws.short.dxs().len(), gx_b.short.len());
        for (a, b) in ws.short.dxs().data().iter().zip(gx_b.short.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in ws.medium.dxs().data().iter().zip(gx_b.medium.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn with_config_plus_param_import_reproduces_a_model() {
        let c = cfg();
        let mut original = XatuModel::new(&c);
        let n = original.param_count();
        let mut params = vec![0.0; n];
        original.export_params_into(&mut params);

        let mut restored = XatuModel::with_config(original.cfg);
        assert_eq!(restored.param_count(), n);
        restored.import_params_from(&params);

        let s = sample(&c, true);
        let a = original.hazards(&s);
        let b = restored.hazards(&s);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn dual_state_restore_resumes_bit_identically() {
        let c = cfg();
        let model = XatuModel::new(&c);
        let frame = |t: usize| -> Vec<f64> {
            (0..NUM_FEATURES)
                .map(|k| 0.2 * (((t * 13 + k) % 11) as f64 / 11.0 - 0.5))
                .collect()
        };
        let mut a = DualState::new(c.hidden, 4);
        for t in 0..9 {
            a.step(&model.lstm_short, &frame(t));
        }
        let (aged, fresh) = a.states();
        let (aged_age, fresh_age) = a.ages();
        let mut b =
            DualState::restore(aged.clone(), fresh.clone(), aged_age, fresh_age, a.period())
                .unwrap();
        // Continue past a swap boundary on both copies.
        for t in 9..20 {
            let ha: Vec<f64> = a.step(&model.lstm_short, &frame(t)).to_vec();
            let hb = b.step(&model.lstm_short, &frame(t));
            for (x, y) in ha.iter().zip(hb) {
                assert_eq!(x.to_bits(), y.to_bits(), "t={t}");
            }
        }
    }

    #[test]
    fn dual_state_restore_rejects_inconsistent_parts() {
        let ok = LstmState::zeros(3);
        assert!(DualState::restore(ok.clone(), ok.clone(), 1, 0, 0).is_err());
        assert!(DualState::restore(ok.clone(), LstmState::zeros(4), 1, 0, 4).is_err());
        assert!(DualState::restore(ok.clone(), ok.clone(), 8, 0, 4).is_err());
        assert!(DualState::restore(ok.clone(), ok.clone(), 2, 3, 4).is_err());
        let mut bad = LstmState::zeros(3);
        bad.h[0] = f64::NAN;
        assert!(DualState::restore(bad, ok.clone(), 4, 1, 4).is_err());
        assert!(DualState::restore(ok.clone(), ok, 4, 1, 4).is_ok());
    }

    #[test]
    fn pool_completed_matches_avg_pool_bitwise() {
        let mut window = FrameArena::new(3);
        let rows: Vec<Vec<f64>> = (0..11)
            .map(|t| {
                (0..3)
                    .map(|k| ((t * 3 + k) as f64 * 0.31).sin() * 1e3)
                    .collect()
            })
            .collect();
        window.fill_from_rows(3, &rows);
        for gran in [1usize, 2, 3, 4, 6, 12] {
            let mut out = FrameArena::new(0);
            pool_completed_into(&window, gran, &mut out);
            let n_complete = rows.len() / gran;
            let want = if n_complete == 0 {
                Vec::new()
            } else {
                avg_pool(&rows[..n_complete * gran], gran)
            };
            assert_eq!(out.len(), want.len(), "gran={gran}");
            for (t, row) in want.iter().enumerate() {
                for (a, b) in out.frame(t).iter().zip(row) {
                    assert_eq!(a.to_bits(), b.to_bits(), "gran={gran}");
                }
            }
        }
    }
}
