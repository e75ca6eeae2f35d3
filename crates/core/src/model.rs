//! The multi-timescale LSTM hazard model (Fig 6 of the paper).
//!
//! Three LSTMs consume the pooled feature series; a dense layer combines
//! their hidden states; a softplus head emits the instantaneous hazard
//! `λ_t ≥ 0` for every step of the detection window.
//!
//! During the window the short LSTM steps every minute, while the
//! medium/long LSTM states refresh only when a full medium/long pooling
//! bucket of window frames completes (held constant in between). The
//! detector core serves the same arithmetic with one difference: it reads
//! a completed bucket in the minute that completes it, one window step
//! before this pass does (pinned by the test
//! `serving_reads_a_coarse_bucket_one_minute_before_training`).
//!
//! The backward pass routes each window step's combiner gradient to the
//! short trace position it read and to whichever medium/long trace
//! position was *current* at that step, then runs BPTT through all three
//! LSTMs. Verified against finite differences in the tests.
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
use xatu_nn::lstm::{Lstm, LstmTrace, LstmWorkspace};
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

    /// The forward pass proper, over a pre-widened sample into a reusable
    /// trace: pool the window into completed buckets, run the three LSTMs
    /// over context ++ consumed frames, and emit one hazard per window step
    /// from the combiner head. Every output buffer lives in `out` and is
    /// reused with capacity-keeping resets.
    pub fn forward_wide(&self, sample: &WideSample, out: &mut ForwardTrace) {
        let WideSample {
            short: short_ctx,
            medium: med_ctx,
            long: long_ctx,
            window,
        } = sample;
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
    use crate::fleet::FleetDetector;
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

    /// The row path every front-end serves through, against `forward`,
    /// which training optimises, on one customer's minute stream: the
    /// window is the last `window` minutes and the contexts are what
    /// `forward` would be given for them (the earlier minutes, and those
    /// minutes pooled). Where no coarse bucket completes, the hazards are
    /// bit-identical. A minute that completes a medium or long bucket steps
    /// that LSTM and reads the new state in the same minute's hazard;
    /// `forward` reads it from the next window step on (`coarse_pos`).
    /// This pins the behaviour as it is; ROADMAP 2(c) rules the gap in or
    /// out as a cause of the Fig 8 inversion.
    #[test]
    fn serving_reads_a_coarse_bucket_one_minute_before_training() {
        // Periods long enough that no aged half is ever replaced by one
        // that started after the customer's first minute.
        let c = XatuConfig {
            timescales: (1, 3, 6),
            short_len: 12,
            medium_len: 4,
            long_len: 2,
            window: 7,
            hidden: 3,
            ..XatuConfig::smoke_test()
        };
        let (_, med, long) = c.timescales;
        let model = XatuModel::new(&c);
        let frames: Vec<Vec<f64>> = (0..c.short_len + c.window)
            .map(|m| {
                (0..NUM_FEATURES)
                    .map(|k| 0.2 * (((m * 13 + k * 7) % 19) as f64 / 19.0 - 0.5))
                    .collect()
            })
            .collect();
        let (ctx, window) = frames.split_at(c.short_len);
        let arena = |rows: &[Vec<f64>]| {
            let mut a = FrameArena::new(NUM_FEATURES);
            a.fill_from_rows(NUM_FEATURES, rows);
            a
        };
        let sample = WideSample {
            short: arena(ctx),
            medium: arena(&avg_pool(ctx, med as usize)),
            long: arena(&avg_pool(ctx, long as usize)),
            window: arena(window),
        };
        let mut trace = ForwardTrace::default();
        model.forward_wide(&sample, &mut trace);

        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        let addr = Ipv4(1);
        for (m, f) in ctx.iter().enumerate() {
            det.observe(addr, m as u32, f).expect("in-order minute");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut early = Vec::new();
        for (t, f) in window.iter().enumerate() {
            let minute = c.short_len + t;
            let (hazard, _, _) = det
                .observe(addr, minute as u32, f)
                .expect("in-order minute");
            let completes = |gran: u32| (minute + 1).is_multiple_of(gran as usize);
            if !completes(med) && !completes(long) {
                assert_eq!(hazard.to_bits(), trace.hazards[t].to_bits(), "step {t}");
                continue;
            }
            early.push(t);
            assert_ne!(hazard.to_bits(), trace.hazards[t].to_bits(), "step {t}");
            // The state serving just read is the one training first reads
            // at step t + 1.
            let ck = det.to_checkpoint();
            let dual = &ck.customers[0].dual;
            let coarse = [
                (&dual[1], med, &trace.medium, trace.med_ctx),
                (&dual[2], long, &trace.long, trace.long_ctx),
            ];
            for (d, gran, tr, ctx_len) in coarse.into_iter().filter(|x| completes(x.1)) {
                let pos = |step| coarse_pos(ctx_len, step, gran as usize, tr.len());
                assert_eq!(pos(t + 1), pos(t).map(|p| p + 1), "step {t}, gran {gran}");
                let next = pos(t + 1).expect("a coarse state exists");
                assert_eq!(bits(&d.aged_h), bits(tr.h(next)), "step {t}, gran {gran}");
            }
        }
        assert_eq!(early, [2, 5], "bucket-completing window steps");
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
