//! The multi-timescale LSTM hazard model (Fig 6 of the paper).
//!
//! Three LSTMs consume the pooled feature series; a dense layer combines
//! their hidden states; a softplus head emits the instantaneous hazard
//! `λ_t ≥ 0` for every step of the detection window.
//!
//! Training reads the schedule the detector core serves: bucket `k` of a
//! timescale of granularity `g` is the mean of minutes `[k·g, (k+1)·g)`,
//! and its state is visible from the minute that completes it. Each
//! LSTM runs over its context buckets, then over the buckets it completes
//! across the sample's lead-in ++ window minutes, pooled on the same
//! edges; the head reads each timescale's newest state at every window
//! step (`read_pos`). So on a gap-free stream from minute 0 the hazard
//! of this pass equals the arena row's, bit for bit
//! (`dataset::tests::training_reads_the_serving_schedule_bit_for_bit`).
//!
//! The backward pass routes each window step's combiner gradient to the
//! trace position each timescale read at that step, then runs BPTT
//! through all three LSTMs. Verified against finite differences in the
//! tests.
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
use xatu_nn::lstm::{Lstm, LstmTrace, LstmWorkspace, ServingLstm};
use xatu_nn::{Dense, FrameArena, Params, SimdLevel};

/// The three timescales, in arena order: short, medium, long.
pub const TIMESCALES: usize = 3;

/// The model: three LSTMs + combiner + hazard head.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct XatuModel {
    /// Configuration snapshot (timescales, hidden size, mode).
    pub cfg: ModelConfig,
    /// One LSTM per timescale.
    lstms: [Lstm; TIMESCALES],
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

impl ModelConfig {
    /// The pooling granularity of each timescale, in minutes.
    pub(crate) fn gran(&self) -> [u32; TIMESCALES] {
        let (short, medium, long) = self.timescales;
        [short, medium, long]
    }

    /// Which timescales the mode enables.
    pub(crate) fn used(&self) -> [bool; TIMESCALES] {
        let (s, m, l) = self.mode.enabled();
        [s, m, l]
    }
}

/// The model as a detector head serves it: each timescale's layer in the
/// layout the lane kernel reads ([`ServingLstm`]), built once, and the
/// combiner head. A head keeps no other copy of the LSTM weights:
/// [`ServedModel::to_model`] transposes them back for a checkpoint, and a
/// transpose only permutes values, so the checkpoint's bytes are the
/// trained model's.
#[derive(Clone)]
pub(crate) struct ServedModel {
    pub cfg: ModelConfig,
    pub layers: [ServingLstm; TIMESCALES],
    pub head: Dense,
}

impl ServedModel {
    /// Serves `model`, dropping its row-major weights and their gradient
    /// buffers.
    pub(crate) fn new(model: XatuModel) -> Self {
        ServedModel {
            cfg: model.cfg,
            layers: model.lstms.each_ref().map(ServingLstm::new),
            head: model.head,
        }
    }

    /// The trained model these layers serve, rebuilt.
    pub(crate) fn to_model(&self) -> XatuModel {
        XatuModel {
            cfg: self.cfg,
            lstms: self.layers.each_ref().map(ServingLstm::to_lstm),
            head: self.head.clone(),
        }
    }

    /// Sets the dispatch level of the three layers' kernels.
    pub(crate) fn set_simd(&mut self, level: SimdLevel) {
        for layer in &mut self.layers {
            layer.set_simd(level);
        }
    }
}

/// Everything the backward pass needs from one forward pass, stored as
/// reusable flat buffers. A default-constructed trace grows on first use;
/// passing the same trace to repeated [`XatuModel::forward_wide`] calls
/// performs no heap allocations once warm.
#[derive(Default)]
pub struct ForwardTrace {
    /// Each timescale's LSTM trace over its context ++ window buckets.
    traces: [LstmTrace; TIMESCALES],
    /// Lengths of the pure-context prefixes of each trace.
    ctx: [usize; TIMESCALES],
    /// Minutes of each timescale's bucket open at the window start.
    lead: [usize; TIMESCALES],
    /// Window length (number of hazard outputs).
    window_len: usize,
    /// The buckets each timescale completes over lead-in ++ window.
    buckets: [FrameArena; TIMESCALES],
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
    lstms: [LstmWorkspace; TIMESCALES],
    /// ∂Loss/∂h per trace position of each timescale, flat `t * hidden + k`.
    dhs: [Vec<f64>; TIMESCALES],
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
        Self::seeded(ModelConfig::from(cfg), cfg.seed)
    }

    /// Builds a model directly from a [`ModelConfig`], with placeholder
    /// weights (seed 0). Used by checkpoint restore, which immediately
    /// overwrites every parameter via `Params::import_params_from`.
    pub fn with_config(cfg: ModelConfig) -> Self {
        Self::seeded(cfg, 0)
    }

    fn seeded(cfg: ModelConfig, seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let h = cfg.hidden;
        let mut head = Dense::new(TIMESCALES * h, 1, &mut init);
        // Rare-event output bias: softplus(−4) ≈ 0.018, so an untrained
        // model predicts near-certain survival instead of firing on every
        // quiet minute (which would make threshold calibration impossible
        // before the loss has pushed quiet-period hazards down).
        head.bias_mut()[0] = -4.0;
        XatuModel {
            cfg,
            lstms: std::array::from_fn(|_| Lstm::new(NUM_FEATURES, h, &mut init)),
            head,
        }
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.cfg.hidden
    }

    /// The LSTMs, short, medium and long.
    #[cfg(test)]
    pub(crate) fn layers(&self) -> &[Lstm; TIMESCALES] {
        &self.lstms
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
    /// trace: pool each timescale's open bucket and the window into the
    /// buckets they complete on the schedule's edges, run each LSTM over
    /// its context ++ those buckets, and emit one hazard per window step
    /// from the combiner head over the states `read_pos` names. Every
    /// output buffer lives in `out` and is reused with capacity-keeping
    /// resets.
    pub fn forward_wide(&self, sample: &WideSample, out: &mut ForwardTrace) {
        let gran = self.cfg.gran();
        for (i, (lstm, trace)) in self.lstms.iter().zip(&mut out.traces).enumerate() {
            let lead = (sample.window_start % gran[i]) as usize;
            let buckets = &mut out.buckets[i];
            pool_completed_into(&sample.minutes, sample.lead - lead, gran[i], buckets);
            lstm.begin(trace);
            lstm.extend_arena(&sample.ctx[i], trace);
            lstm.extend_arena(buckets, trace);
            out.ctx[i] = sample.ctx[i].len();
            out.lead[i] = lead;
        }
        out.window_len = sample.window_len();

        let used = self.cfg.used();
        let h = self.cfg.hidden;
        out.combined.reset(TIMESCALES * h);
        out.logits.clear();
        out.hazards.clear();
        let mut logit_buf = [0.0f64; 1];
        for t in 0..out.window_len {
            // Disabled timescales, and any before its first state, keep
            // their zeroed third of the input.
            let input = out.combined.push_zeroed();
            for i in (0..TIMESCALES).filter(|&i| used[i]) {
                if let Some(pos) = read_pos(out.ctx[i], out.lead[i], t, gran[i]) {
                    input[i * h..(i + 1) * h].copy_from_slice(out.traces[i].h(pos));
                }
            }
            self.head.forward_into(input, &mut logit_buf);
            let logit = logit_buf[0];
            out.logits.push(logit);
            out.hazards.push(softplus(logit));
        }
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
            dx: ws.lstms.each_mut().map(LstmWorkspace::take_dxs),
            ctx: trace.ctx,
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
        let used = self.cfg.used();
        let gran = self.cfg.gran();

        for (dhs, tr) in ws.dhs.iter_mut().zip(&trace.traces) {
            fit(dhs, tr.len() * h);
        }
        fit(&mut ws.dinput, TIMESCALES * h);

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
            for i in (0..TIMESCALES).filter(|&i| used[i]) {
                if let Some(pos) = read_pos(trace.ctx[i], trace.lead[i], t, gran[i]) {
                    acc(
                        &mut ws.dhs[i][pos * h..(pos + 1) * h],
                        &ws.dinput[i * h..(i + 1) * h],
                    );
                }
            }
        }

        for i in 0..TIMESCALES {
            self.lstms[i].backward_flat(&trace.traces[i], &ws.dhs[i], want_dx, &mut ws.lstms[i]);
        }
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

/// Per-input gradients for attribution, one flat arena per timescale with
/// one frame per trace position (context ++ window buckets).
pub struct InputGradients {
    /// d/d(each timescale's sequence): short, medium, long.
    pub dx: [FrameArena; TIMESCALES],
    /// Context prefix lengths.
    pub ctx: [usize; TIMESCALES],
    /// Window length.
    pub window_len: usize,
}

impl Params for XatuModel {
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for lstm in &mut self.lstms {
            lstm.visit(f);
        }
        self.head.visit(f);
    }
}

/// Pools `minutes[from..]` into the buckets of `gran` minutes it
/// completes, reusing `out`, with the detector arena's arithmetic: a
/// zeroed sum, the minutes added in order, one scale by `1/gran` — and at
/// granularity 1 the minutes themselves, which the arena reads directly.
/// Matches `avg_pool` on the truncated-to-complete suffix bit for bit.
pub(crate) fn pool_completed_into(
    minutes: &FrameArena,
    from: usize,
    gran: u32,
    out: &mut FrameArena,
) {
    let gran = gran as usize;
    out.reset(minutes.dim());
    let inv = 1.0 / gran as f64;
    for b in 0..(minutes.len() - from) / gran {
        let first = from + b * gran;
        if gran == 1 {
            out.push(minutes.frame(first));
            continue;
        }
        let bucket = out.push_zeroed();
        for t in first..first + gran {
            for (a, v) in bucket.iter_mut().zip(minutes.frame(t)) {
                *a += v;
            }
        }
        for a in bucket.iter_mut() {
            *a *= inv;
        }
    }
}

/// The trace position a timescale of granularity `gran` is read at, at
/// window step `t`: its newest state, with `ctx` context buckets before
/// the window's and its first window bucket opened `lead` minutes before
/// the window. `None` while no state exists (the head then reads zeros).
pub(crate) fn read_pos(ctx: usize, lead: usize, t: usize, gran: u32) -> Option<usize> {
    (ctx + (lead + t + 1) / gran as usize).checked_sub(1)
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
        // A window at minute 5 of timescales (1, 3, 6) opens its medium
        // bucket 2 minutes and its long bucket 5 minutes before it starts.
        Sample {
            ctx: [
                (0..c.short_len).map(|t| frame(0, t)).collect(),
                (0..c.medium_len).map(|t| frame(1, t)).collect(),
                (0..c.long_len).map(|t| frame(2, t)).collect(),
            ],
            lead: (0..5).map(|t| frame(4, t)).collect(),
            window: (0..c.window).map(|t| frame(3, t)).collect(),
            label,
            event_step: if label { 5 } else { 7 },
            anomaly_step: label.then_some(3),
            meta: SampleMeta {
                customer: Ipv4(1),
                attack_type: AttackType::UdpFlood,
                window_start: 5,
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
        // Window buckets: the minutes, (2 + 7) / 3 medium, (5 + 7) / 6 long.
        assert_eq!(gx.dx[0].len(), c.short_len + c.window);
        assert_eq!(gx.dx[1].len(), c.medium_len + 3);
        assert_eq!(gx.dx[2].len(), c.long_len + 2);
        // Window steps influence the loss, so late short grads are nonzero.
        let late: f64 = gx.dx[0][c.short_len].iter().map(|v| v.abs()).sum();
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
        let gran = m.cfg.gran();
        let mut minutes = Sample::widen(&s.lead);
        minutes.extend(Sample::widen(&s.window));
        let used = m.cfg.used();
        let h = m.cfg.hidden;
        let traces: Vec<(usize, usize, LstmTrace)> = s
            .ctx
            .iter()
            .enumerate()
            .map(|(i, ctx)| {
                let g = gran[i] as usize;
                let lead = s.meta.window_start as usize % g;
                let open = &minutes[s.lead.len() - lead..];
                let n_complete = open.len() / g * g;
                let mut seq = Sample::widen(ctx);
                if n_complete > 0 {
                    seq.extend(avg_pool(&open[..n_complete], g));
                }
                (ctx.len(), lead, m.lstms[i].forward(&seq))
            })
            .collect();
        let zero = vec![0.0; h];
        let mut logits = Vec::new();
        let mut hazards = Vec::new();
        for t in 0..s.window.len() {
            let mut input = Vec::with_capacity(TIMESCALES * h);
            for (i, (ctx, lead, trace)) in traces.iter().enumerate() {
                match read_pos(*ctx, *lead, t, gran[i]).filter(|_| used[i]) {
                    Some(pos) => input.extend_from_slice(trace.h(pos)),
                    None => input.extend_from_slice(&zero),
                }
            }
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
        assert_eq!(ws.lstms[0].dxs().len(), gx_b.dx[0].len());
        for (a, b) in ws.lstms[0].dxs().data().iter().zip(gx_b.dx[0].data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in ws.lstms[1].dxs().data().iter().zip(gx_b.dx[1].data()) {
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
        for (from, gran) in [0, 1, 4]
            .into_iter()
            .flat_map(|f| [1, 2, 3, 4, 6, 12].map(|g| (f, g)))
        {
            let mut out = FrameArena::new(0);
            pool_completed_into(&window, from, gran, &mut out);
            let n_complete = (rows.len() - from) / gran as usize;
            let want = if n_complete == 0 {
                Vec::new()
            } else {
                avg_pool(
                    &rows[from..from + n_complete * gran as usize],
                    gran as usize,
                )
            };
            assert_eq!(out.len(), want.len(), "from={from} gran={gran}");
            for (t, row) in want.iter().enumerate() {
                for (a, b) in out.frame(t).iter().zip(row) {
                    assert_eq!(a.to_bits(), b.to_bits(), "from={from} gran={gran}");
                }
            }
        }
    }
}
