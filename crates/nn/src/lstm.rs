//! LSTM with hand-derived backpropagation through time.
//!
//! Gate layout follows the classic formulation (Gers et al., which the paper
//! cites for LSTM): input gate `i`, forget gate `f`, candidate `g`, output
//! gate `o`, stacked in that order in the `4h`-row weight matrices:
//!
//! ```text
//! z   = Wx·x_t + Wh·h_{t−1} + b          (z split into z_i z_f z_g z_o)
//! i,f,o = σ(z_{i,f,o});  g = tanh(z_g)
//! c_t = f ⊙ c_{t−1} + i ⊙ g
//! h_t = o ⊙ tanh(c_t)
//! ```
//!
//! The backward pass is derived by hand and verified against central finite
//! differences in this module's tests (and again end-to-end in `xatu-core`).
//! The forget-gate bias is initialised to 1.0, the standard trick for
//! retaining long-range memory early in training — essential here because
//! auxiliary signals appear days before the label.
//!
//! # Memory layout
//!
//! The hot path is allocation-free in steady state. A forward pass records
//! into an [`LstmTrace`] whose per-step quantities live in flat
//! structure-of-arrays arenas (`xs`, `hs`, `cs`, `tanh_cs` indexed
//! `t * dim + k`; the activated gates as one `t * 4h` block in `[i|f|g|o]`
//! order — the same layout as the pre-activations and their gradients, so
//! the fused gate loop walks one contiguous row per step). Previous-step
//! states are *derived* (row `t − 1`, or the stored initial state), never
//! cloned. The backward pass takes an [`LstmWorkspace`] holding every piece
//! of scratch it needs — `dz`/`dh`/`dc` buffers, the `Wxᵀ`/`Whᵀ` transpose
//! caches (rebuilt once per `backward` call, not per timestep), and the
//! optional `dxs` arena — all sized with capacity-keeping resets. The
//! arithmetic is bit-identical (0 ULP) to the original per-step-`Vec`
//! implementation, which is retained under `#[cfg(test)]` as the reference
//! the property tests pin against.
//!
//! [`Lstm`] is the training layer: `forward` and `backward` on row-major
//! `Wx`/`Wh`. The online paths serve a [`ServingLstm`] built from it once:
//! the same weights transposed into the layout the lane kernel reads, with
//! one online step on top that advances both halves of a dual state. The
//! step transposes nothing, and its workspace holds no weight.

use crate::activations::{dsigmoid_from_out, dtanh_from_out, sigmoid, tanh};
use crate::arena::FrameArena;
use crate::init::Initializer;
use crate::matrix::{nonzero_indices_into, LaneIndices, Matrix};
use crate::simd::{self, SimdLevel};
use crate::Params;
use serde::{Deserialize, Serialize};

/// Recurrent state `(h, c)` of an LSTM.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LstmState {
    /// Hidden state, length = hidden dim.
    pub h: Vec<f64>,
    /// Cell state, length = hidden dim.
    pub c: Vec<f64>,
}

impl LstmState {
    /// The zero state for a given hidden dimension.
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

impl Default for LstmState {
    fn default() -> Self {
        LstmState::zeros(0)
    }
}

/// Forward-pass trace over a sequence, stored as flat per-quantity arenas.
///
/// Everything BPTT needs is kept: inputs, hidden and cell states, the
/// activated gates and `tanh(c)`. Reusing a trace across forward passes
/// ([`Lstm::begin`] / [`Lstm::begin_from`]) performs no allocations once
/// the buffers are warm.
#[derive(Clone, Debug, Default)]
pub struct LstmTrace {
    input: usize,
    hidden: usize,
    len: usize,
    /// Inputs, `len × input`.
    xs: Vec<f64>,
    /// Hidden outputs, `len × hidden`.
    hs: Vec<f64>,
    /// Cell states, `len × hidden`.
    cs: Vec<f64>,
    /// Activated gates, `len × 4·hidden`, per step `[i | f | g | o]`.
    gates: Vec<f64>,
    /// `tanh(c)`, `len × hidden`.
    tanh_cs: Vec<f64>,
    /// Initial state the sequence started from.
    h0: Vec<f64>,
    c0: Vec<f64>,
    /// Pre-activation scratch (`4·hidden`), reused every step.
    z: Vec<f64>,
    /// Ascending nonzero input indices, all steps concatenated. Feature
    /// frames are mostly exact zeros, so the forward matvec and the
    /// backward rank-1 update both route through the index list (built
    /// once per step) instead of streaming full `Wx` rows — bit-identical
    /// by the `±0.0`-is-a-no-op argument on the sparse kernels.
    nz_idx: Vec<u32>,
    /// Per-step offsets into `nz_idx` (`len + 1` entries).
    nz_off: Vec<u32>,
}

/// Whether an input frame with `nnz` nonzeros of `dim` is sparse enough
/// for the index-list kernels to beat the dense SIMD loop. Either path is
/// bit-identical, so the threshold is purely a performance choice.
#[inline]
fn use_sparse(nnz: usize, dim: usize) -> bool {
    nnz * 4 <= dim
}

impl LstmTrace {
    /// Sequence length covered by this trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no steps were traced.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hidden output at step `t`.
    ///
    /// # Panics
    /// Panics if `t >= self.len()`.
    #[inline]
    pub fn h(&self, t: usize) -> &[f64] {
        &self.hs[t * self.hidden..(t + 1) * self.hidden]
    }

    /// Hidden state after the last step (the initial state if empty).
    pub fn final_h(&self) -> &[f64] {
        if self.len == 0 {
            &self.h0
        } else {
            self.h(self.len - 1)
        }
    }

    /// Cell state after the last step (the initial state if empty).
    pub fn final_c(&self) -> &[f64] {
        if self.len == 0 {
            &self.c0
        } else {
            &self.cs[(self.len - 1) * self.hidden..self.len * self.hidden]
        }
    }

    /// State after the last step as an owned [`LstmState`] (for chaining).
    pub fn final_state(&self) -> LstmState {
        LstmState {
            h: self.final_h().to_vec(),
            c: self.final_c().to_vec(),
        }
    }
}

/// Reusable scratch for [`Lstm::backward_flat`]: gradient buffers, the
/// weight-transpose caches and the optional input-gradient arena. One
/// workspace per training worker; every buffer is resized with
/// capacity-keeping operations, so steady-state backward passes allocate
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct LstmWorkspace {
    /// `Whᵀ`, rebuilt once per backward call.
    wht: Matrix,
    /// `Wxᵀ`, rebuilt once per backward call when `want_dx`.
    wxt: Matrix,
    dz: Vec<f64>,
    dh: Vec<f64>,
    dh_next: Vec<f64>,
    dc_next: Vec<f64>,
    dh_prev: Vec<f64>,
    dc_prev: Vec<f64>,
    /// Input gradients (`len × input`), filled when `want_dx`.
    dxs: FrameArena,
}

impl LstmWorkspace {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The input gradients of the last `backward_flat(.., want_dx=true, ..)`.
    pub fn dxs(&self) -> &FrameArena {
        &self.dxs
    }

    /// Takes ownership of the input-gradient arena (leaves an empty one).
    pub fn take_dxs(&mut self) -> FrameArena {
        std::mem::take(&mut self.dxs)
    }

    /// Gradient w.r.t. the initial hidden state, after `backward_flat`.
    pub fn d_initial_h(&self) -> &[f64] {
        &self.dh_next
    }

    /// Gradient w.r.t. the initial cell state, after `backward_flat`.
    pub fn d_initial_c(&self) -> &[f64] {
        &self.dc_next
    }

    fn prepare(&mut self, lstm: &Lstm, trace_len: usize, want_dx: bool) {
        let h = lstm.hidden;
        fit(&mut self.dz, 4 * h);
        fit(&mut self.dh, h);
        fit(&mut self.dh_next, h);
        fit(&mut self.dc_next, h);
        fit(&mut self.dh_prev, h);
        fit(&mut self.dc_prev, h);
        lstm.wh.transpose_into(&mut self.wht);
        if want_dx {
            lstm.wx.transpose_into(&mut self.wxt);
            self.dxs.reset(lstm.input);
            for _ in 0..trace_len {
                self.dxs.push_zeroed();
            }
        } else {
            self.dxs.reset(lstm.input);
        }
    }
}

/// Clears and re-zeroes `v` to length `n`, keeping its allocation.
fn fit(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// Caller-held scratch of [`ServingLstm::step_online_dual`]. One
/// workspace per fleet worker serves every layer: it holds per-row
/// buffers only, never a copy of a layer's weights. Grown on first use,
/// then reused without allocating.
#[derive(Clone, Debug, Default)]
pub struct OnlineWorkspace {
    /// The input contribution `b + Wx·x`, then the fresh half's
    /// pre-activations.
    zx: Vec<f64>,
    /// The aged half's pre-activations.
    z: Vec<f64>,
    /// The row's nonzero input indices.
    nz: LaneIndices,
}

/// Hidden units per pass of [`gate_rows`]: two `ymm` of lanes per loop.
/// Measured on the `gate_block_exact_*` bench rows against 4, 12 and 24.
const GATE_LANES: usize = 8;

/// The one body of [`ServingLstm::gate_block`], compiled at the baseline here and
/// again inside [`simd::x86::gate_rows_avx2`]. The lanes are a row's hidden
/// units, each an independent chain of IEEE `+ − × ÷`, so both copies return
/// the bits of calling [`sigmoid`]/[`tanh`] one element at a time. Zipped
/// slices, no index: a panicking exit would stop LLVM vectorizing the loop.
///
/// A row goes [`GATE_LANES`] units at a time through [`gate_lanes`]; the
/// `hidden % GATE_LANES` units left over take the same code at their length.
#[inline(always)]
pub(crate) fn gate_rows(zs: &[f64], hidden: usize, hs: &mut [f64], cs: &mut [f64]) {
    let rows = zs
        .chunks_exact(4 * hidden)
        .zip(hs.chunks_exact_mut(hidden))
        .zip(cs.chunks_exact_mut(hidden));
    for ((z, hc), cc) in rows {
        let (zi, z) = z.split_at(hidden);
        let (zf, z) = z.split_at(hidden);
        let (zg, zo) = z.split_at(hidden);
        let (zi, zi_rest) = zi.as_chunks::<GATE_LANES>();
        let (zf, zf_rest) = zf.as_chunks::<GATE_LANES>();
        let (zg, zg_rest) = zg.as_chunks::<GATE_LANES>();
        let (zo, zo_rest) = zo.as_chunks::<GATE_LANES>();
        let (c, c_rest) = cc.as_chunks_mut::<GATE_LANES>();
        let (h, h_rest) = hc.as_chunks_mut::<GATE_LANES>();
        let full = zi.iter().zip(zf).zip(zg).zip(zo).zip(c).zip(h);
        for (((((zi, zf), zg), zo), c), h) in full {
            gate_lanes(zi, zf, zg, zo, c, h);
        }
        gate_lanes(zi_rest, zf_rest, zg_rest, zo_rest, c_rest, h_rest);
    }
}

/// At most [`GATE_LANES`] units of one row, one loop per activation and
/// then the cell/output loop. Fused in one loop body the five ~140-cycle
/// dependency chains of a unit (`σ σ tanh σ`, then `tanh(c)` behind them)
/// fill the reorder window before the next units' chains can start; a loop
/// that holds one activation of several units keeps that many chains in
/// flight. Per lane the arithmetic is unchanged.
#[inline(always)]
fn gate_lanes(zi: &[f64], zf: &[f64], zg: &[f64], zo: &[f64], c: &mut [f64], h: &mut [f64]) {
    #[inline(always)]
    fn lanes_of(act: impl Fn(f64) -> f64, zs: &[f64]) -> [f64; GATE_LANES] {
        let mut out = [0.0f64; GATE_LANES];
        for (o, &z) in out.iter_mut().zip(zs) {
            *o = act(z);
        }
        out
    }
    let i = lanes_of(sigmoid, zi);
    let f = lanes_of(sigmoid, zf);
    let g = lanes_of(tanh, zg);
    let o = lanes_of(sigmoid, zo);
    let lanes = c.iter_mut().zip(h.iter_mut()).zip(i).zip(f).zip(g).zip(o);
    for (((((c, h), i), f), g), o) in lanes {
        let cv = f * *c + i * g;
        *c = cv;
        *h = o * tanh(cv);
    }
}

/// An LSTM layer: weights, biases and their gradient buffers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Lstm {
    input: usize,
    hidden: usize,
    wx: Matrix,  // 4h × input
    wh: Matrix,  // 4h × hidden
    b: Vec<f64>, // 4h
    #[serde(skip)]
    gwx: Option<Matrix>,
    #[serde(skip)]
    gwh: Option<Matrix>,
    #[serde(skip)]
    gb: Vec<f64>,
}

impl Lstm {
    /// Creates an LSTM with Xavier weights and forget bias 1.0.
    pub fn new(input: usize, hidden: usize, init: &mut Initializer) -> Self {
        let mut b = vec![0.0; 4 * hidden];
        // Forget-gate block is rows [hidden, 2*hidden).
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        Lstm {
            input,
            hidden,
            wx: init.xavier(4 * hidden, input),
            wh: init.xavier(4 * hidden, hidden),
            b,
            gwx: Some(Matrix::zeros(4 * hidden, input)),
            gwh: Some(Matrix::zeros(4 * hidden, hidden)),
            gb: vec![0.0; 4 * hidden],
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Input weights `Wx` (`4·hidden × input`), read-only.
    pub fn wx(&self) -> &Matrix {
        &self.wx
    }

    /// Recurrent weights `Wh` (`4·hidden × hidden`), read-only.
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Re-creates gradient buffers (e.g. after deserialization).
    pub fn ensure_grads(&mut self) {
        if self.gwx.is_none() {
            self.gwx = Some(Matrix::zeros(4 * self.hidden, self.input));
        }
        if self.gwh.is_none() {
            self.gwh = Some(Matrix::zeros(4 * self.hidden, self.hidden));
        }
        if self.gb.len() != 4 * self.hidden {
            self.gb = vec![0.0; 4 * self.hidden];
        }
    }

    /// Rewinds `trace` to an empty sequence starting from the zero state,
    /// keeping all arena capacity.
    pub fn begin(&self, trace: &mut LstmTrace) {
        trace.input = self.input;
        trace.hidden = self.hidden;
        trace.len = 0;
        trace.xs.clear();
        trace.hs.clear();
        trace.cs.clear();
        trace.gates.clear();
        trace.tanh_cs.clear();
        trace.nz_idx.clear();
        trace.nz_off.clear();
        trace.nz_off.push(0);
        fit(&mut trace.h0, self.hidden);
        fit(&mut trace.c0, self.hidden);
        fit(&mut trace.z, 4 * self.hidden);
    }

    /// Rewinds `trace` to start from an explicit initial state.
    ///
    /// # Panics
    /// Panics if `initial` has the wrong hidden dimension.
    pub fn begin_from(&self, initial: &LstmState, trace: &mut LstmTrace) {
        assert_eq!(initial.h.len(), self.hidden, "lstm: initial h dim");
        assert_eq!(initial.c.len(), self.hidden, "lstm: initial c dim");
        self.begin(trace);
        trace.h0.copy_from_slice(&initial.h);
        trace.c0.copy_from_slice(&initial.c);
    }

    /// One forward step appended to `trace`: the fused gate kernel.
    ///
    /// Computes the pre-activations into the trace's `z` scratch, then one
    /// pass over the hidden dimension activates all four gates, updates the
    /// cell and emits the hidden output. No allocations once the arenas are
    /// warm.
    ///
    /// # Panics
    /// Panics if `x` has the wrong input dimension.
    pub fn extend_step(&self, x: &[f64], trace: &mut LstmTrace) {
        assert_eq!(x.len(), self.input, "lstm: input dim");
        let h = self.hidden;
        let t = trace.len;

        // Record x's nonzero structure once; forward and backward both use
        // it to route the big input-weight kernels around exact zeros.
        let nnz = nonzero_indices_into(x, &mut trace.nz_idx);
        trace.nz_off.push(trace.nz_idx.len() as u32);

        // z = b + Wx·x + Wh·h_{t−1}  (h_{t−1} read straight from the arena).
        trace.z.copy_from_slice(&self.b);
        self.wx_acc(x, &trace.nz_idx[trace.nz_idx.len() - nnz..], &mut trace.z);
        {
            let h_prev: &[f64] = if t == 0 {
                &trace.h0
            } else {
                &trace.hs[(t - 1) * h..t * h]
            };
            self.wh.matvec_acc(h_prev, &mut trace.z);
        }

        trace.xs.extend_from_slice(x);
        let hs_start = trace.hs.len();
        trace.hs.resize(hs_start + h, 0.0);
        let cs_start = trace.cs.len();
        trace.cs.resize(cs_start + h, 0.0);
        let tc_start = trace.tanh_cs.len();
        trace.tanh_cs.resize(tc_start + h, 0.0);
        let g_start = trace.gates.len();
        trace.gates.resize(g_start + 4 * h, 0.0);

        // Fused gate activation + cell update + output, one pass over k.
        let (c_done, c_new) = trace.cs.split_at_mut(cs_start);
        let c_prev: &[f64] = if t == 0 {
            &trace.c0
        } else {
            &c_done[(t - 1) * h..]
        };
        let z = &trace.z;
        let gates = &mut trace.gates[g_start..];
        let hs = &mut trace.hs[hs_start..];
        let tanh_cs = &mut trace.tanh_cs[tc_start..];
        for k in 0..h {
            let i = sigmoid(z[k]);
            let f = sigmoid(z[h + k]);
            let g = tanh(z[2 * h + k]);
            let o = sigmoid(z[3 * h + k]);
            let c = f * c_prev[k] + i * g;
            let tc = tanh(c);
            gates[k] = i;
            gates[h + k] = f;
            gates[2 * h + k] = g;
            gates[3 * h + k] = o;
            c_new[k] = c;
            tanh_cs[k] = tc;
            hs[k] = o * tc;
        }
        trace.len = t + 1;
    }

    /// `z += Wx·x` on the row-major weights, given `x`'s nonzero indices:
    /// the index-list kernel when the frame is sparse enough for it to beat
    /// the dense one (minute frames are; pooled buckets often are not).
    fn wx_acc(&self, x: &[f64], nz: &[u32], z: &mut [f64]) {
        if use_sparse(nz.len(), self.input) {
            self.wx.matvec_acc_nz(x, nz, z);
        } else {
            self.wx.matvec_acc(x, z);
        }
    }

    /// Appends every frame of `frames` to `trace`.
    pub fn extend_arena(&self, frames: &FrameArena, trace: &mut LstmTrace) {
        for x in frames {
            self.extend_step(x, trace);
        }
    }

    /// Appends every row of `xs` to `trace`.
    pub fn extend_rows(&self, xs: &[Vec<f64>], trace: &mut LstmTrace) {
        for x in xs {
            self.extend_step(x, trace);
        }
    }

    /// Runs the whole sequence `xs` from the zero state into a fresh trace.
    pub fn forward(&self, xs: &[Vec<f64>]) -> LstmTrace {
        self.forward_from(xs, &LstmState::zeros(self.hidden))
    }

    /// Runs the whole sequence `xs` from an explicit initial state, so
    /// context sequences and detection windows can be chained.
    pub fn forward_from(&self, xs: &[Vec<f64>], initial: &LstmState) -> LstmTrace {
        let mut trace = LstmTrace::default();
        self.begin_from(initial, &mut trace);
        self.extend_rows(xs, &mut trace);
        trace
    }

    /// Backpropagation through time over a flat upstream gradient.
    ///
    /// `dhs` is ∂Loss/∂h laid out `t * hidden + k` (all-zero rows are fine
    /// for steps without a head attached). Accumulates weight gradients into
    /// the layer; after the call `ws` holds the input gradients (iff
    /// `want_dx`) and the initial-state gradient. The per-step `dh_prev`
    /// back-propagation runs on the cached `Whᵀ` (and `Wxᵀ` for `dxs`)
    /// through the order-preserving sequential kernel, so results are
    /// bit-identical to transposed multiplies against the original weights.
    ///
    /// # Panics
    /// Panics if `dhs.len() != trace.len() * hidden`.
    pub fn backward_flat(
        &mut self,
        trace: &LstmTrace,
        dhs: &[f64],
        want_dx: bool,
        ws: &mut LstmWorkspace,
    ) {
        assert_eq!(dhs.len(), trace.len * self.hidden, "lstm: dhs length");
        self.ensure_grads();
        let h = self.hidden;
        ws.prepare(self, trace.len, want_dx);

        let gwx = self.gwx.as_mut().expect("grads ensured");
        let gwh = self.gwh.as_mut().expect("grads ensured");

        for t in (0..trace.len).rev() {
            // Total gradient flowing into h_t.
            ws.dh.copy_from_slice(&dhs[t * h..(t + 1) * h]);
            for (a, b) in ws.dh.iter_mut().zip(&ws.dh_next) {
                *a += b;
            }

            let gates = &trace.gates[t * 4 * h..(t + 1) * 4 * h];
            let tanh_c = &trace.tanh_cs[t * h..(t + 1) * h];
            let c_prev: &[f64] = if t == 0 {
                &trace.c0
            } else {
                &trace.cs[(t - 1) * h..t * h]
            };
            for k in 0..h {
                let gi = gates[k];
                let gf = gates[h + k];
                let gg = gates[2 * h + k];
                let go = gates[3 * h + k];
                let do_ = ws.dh[k] * tanh_c[k];
                let dc = ws.dh[k] * go * dtanh_from_out(tanh_c[k]) + ws.dc_next[k];
                let di = dc * gg;
                let df = dc * c_prev[k];
                let dg = dc * gi;
                ws.dz[k] = di * dsigmoid_from_out(gi);
                ws.dz[h + k] = df * dsigmoid_from_out(gf);
                ws.dz[2 * h + k] = dg * dtanh_from_out(gg);
                ws.dz[3 * h + k] = do_ * dsigmoid_from_out(go);
                ws.dc_prev[k] = dc * gf;
            }

            let x = &trace.xs[t * self.input..(t + 1) * self.input];
            let h_prev: &[f64] = if t == 0 {
                &trace.h0
            } else {
                &trace.hs[(t - 1) * h..t * h]
            };
            let nz = &trace.nz_idx[trace.nz_off[t] as usize..trace.nz_off[t + 1] as usize];
            if use_sparse(nz.len(), self.input) {
                gwx.rank1_acc_nz(1.0, &ws.dz, x, nz);
            } else {
                gwx.rank1_acc(1.0, &ws.dz, x);
            }
            gwh.rank1_acc(1.0, &ws.dz, h_prev);
            for (g, d) in self.gb.iter_mut().zip(&ws.dz) {
                *g += d;
            }

            ws.dh_prev.fill(0.0);
            ws.wht.matvec_acc_seq(&ws.dz, &mut ws.dh_prev);
            if want_dx {
                ws.wxt.matvec_acc_seq(&ws.dz, ws.dxs.frame_mut(t));
            }

            std::mem::swap(&mut ws.dh_next, &mut ws.dh_prev);
            std::mem::swap(&mut ws.dc_next, &mut ws.dc_prev);
        }
    }

    /// Allocating BPTT convenience wrapper over [`Lstm::backward_flat`]:
    /// `dhs[t]` per step, returns `(dxs, d_initial_state)`.
    pub fn backward(
        &mut self,
        trace: &LstmTrace,
        dhs: &[Vec<f64>],
        want_dx: bool,
    ) -> (Option<Vec<Vec<f64>>>, LstmState) {
        assert_eq!(dhs.len(), trace.len(), "lstm: dhs length");
        let mut flat = Vec::with_capacity(trace.len() * self.hidden);
        for row in dhs {
            flat.extend_from_slice(row);
        }
        let mut ws = LstmWorkspace::new();
        self.backward_flat(trace, &flat, want_dx, &mut ws);
        let dxs = want_dx.then(|| ws.dxs.iter().map(<[f64]>::to_vec).collect());
        (
            dxs,
            LstmState {
                h: ws.dh_next.clone(),
                c: ws.dc_next.clone(),
            },
        )
    }
}

impl Params for Lstm {
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.ensure_grads();
        f(
            self.wx.data_mut(),
            self.gwx.as_mut().expect("grads ensured").data_mut(),
        );
        f(
            self.wh.data_mut(),
            self.gwh.as_mut().expect("grads ensured").data_mut(),
        );
        f(&mut self.b, &mut self.gb);
    }
}

/// An LSTM layer as the online paths serve it: `Wxᵀ` (`input × 4·hidden`),
/// `Whᵀ` (`hidden × 4·hidden`) and `b`, in the layout
/// [`Matrix::matvec_acc_t_lanes`] reads, transposed once when the layer is
/// built ([`ServingLstm::new`]) and never again. A detector head keeps
/// these as its only copy of the weights; [`ServingLstm::to_lstm`]
/// transposes back for a checkpoint, and a transpose only permutes values.
///
/// The online step builds each half's pre-activations the same way — bias
/// copy, `+= Wx·x` over the row's non-zero inputs, `+= Wh·h` over every
/// hidden unit, each through the lane kernel — then runs the fused gate
/// loop ([`ServingLstm::gate_block`]). Per output that is `dot4`'s add
/// sequence, so each half equals one step of [`Lstm::forward`] bit for
/// bit, at every SIMD level.
#[derive(Clone, Debug)]
pub struct ServingLstm {
    input: usize,
    hidden: usize,
    /// `Wxᵀ`, `input × 4·hidden`.
    wxt: Matrix,
    /// `Whᵀ`, `hidden × 4·hidden`.
    wht: Matrix,
    /// `4·hidden`.
    b: Vec<f64>,
    /// Every hidden index, the lane lists `Wh·h` walks.
    all: LaneIndices,
    /// SIMD level of the kernels: [`simd::detect`] at construction (so
    /// `XATU_NO_SIMD` is honored), overridable with
    /// [`ServingLstm::set_simd`]. Never above [`simd::supported`] —
    /// [`ServingLstm::gate_block`] relies on it.
    simd: SimdLevel,
}

impl ServingLstm {
    /// The serving form of `lstm`: its weights transposed, its bias copied.
    pub fn new(lstm: &Lstm) -> Self {
        let mut wxt = Matrix::default();
        let mut wht = Matrix::default();
        lstm.wx.transpose_into(&mut wxt);
        lstm.wh.transpose_into(&mut wht);
        let mut all = LaneIndices::default();
        all.set_all(lstm.hidden);
        ServingLstm {
            input: lstm.input,
            hidden: lstm.hidden,
            wxt,
            wht,
            b: lstm.b.clone(),
            all,
            simd: simd::detect(),
        }
    }

    /// The training form of the same weights, with no gradient buffers.
    pub fn to_lstm(&self) -> Lstm {
        let mut wx = Matrix::default();
        let mut wh = Matrix::default();
        self.wxt.transpose_into(&mut wx);
        self.wht.transpose_into(&mut wh);
        Lstm {
            input: self.input,
            hidden: self.hidden,
            wx,
            wh,
            b: self.b.clone(),
            gwx: None,
            gwh: None,
            gb: Vec::new(),
        }
    }

    /// Overrides the level the step and the gate loop dispatch to,
    /// clamped to what the host supports. Every level is bit-identical.
    pub fn set_simd(&mut self, level: SimdLevel) {
        self.simd = level.min(simd::supported());
    }

    /// The online (auto-regressive) step: advances both halves of one dual
    /// state, the aged `(h, c)` and the fresh one, by one input, in place,
    /// against caller-held scratch. The state is four slices because
    /// callers keep per-customer rows in flat structure-of-arrays arenas.
    ///
    /// The input contribution `b + Wx·x` is computed once, over `x`'s
    /// non-zero inputs, and serves both halves. Both halves' `Wh·h` come
    /// before either gate loop: the halves share nothing but that
    /// contribution, so the order is free, and walk, walk, gates, gates
    /// measures ~5 % faster per row than walk, gates, walk, gates
    /// (DESIGN.md §17). Per half the pre-activation is the same three
    /// contributions in the same order as one step of [`Lstm::forward`],
    /// and the gate loop is the same code, so each half equals that step
    /// bit for bit at every SIMD level, pinned by property tests.
    ///
    /// # Panics
    /// Panics if `x` or a state slice disagrees with the layer shape.
    pub fn step_online_dual(
        &self,
        x: &[f64],
        aged_h: &mut [f64],
        aged_c: &mut [f64],
        fresh_h: &mut [f64],
        fresh_c: &mut [f64],
        ws: &mut OnlineWorkspace,
    ) {
        assert_eq!(x.len(), self.input, "lstm: input dim");
        for state in [&*aged_h, &*aged_c, &*fresh_h, &*fresh_c] {
            assert_eq!(state.len(), self.hidden, "lstm: state dim");
        }
        let OnlineWorkspace { zx, z, nz } = ws;
        zx.clear();
        zx.extend_from_slice(&self.b);
        nz.set_nonzero(x);
        self.wxt.matvec_acc_t_lanes(x, nz, zx, self.simd);
        z.clear();
        z.extend_from_slice(zx);
        self.wht.matvec_acc_t_lanes(aged_h, &self.all, z, self.simd);
        self.wht
            .matvec_acc_t_lanes(fresh_h, &self.all, zx, self.simd);
        self.gate_block(z, 1, aged_h, aged_c);
        self.gate_block(zx, 1, fresh_h, fresh_c);
    }

    /// The fused gate/cell/output loop over a block's pre-activations, one
    /// contiguous row per customer — the gate loop of the online step (a
    /// block of one row per half), `gate_rows` at this layer's SIMD level.
    /// Every level is bit-identical.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with `batch` and the layer shape.
    pub fn gate_block(&self, zs: &[f64], batch: usize, hs: &mut [f64], cs: &mut [f64]) {
        let h = self.hidden;
        assert_eq!(zs.len(), batch * 4 * h, "lstm: gate zs length");
        assert_eq!(hs.len(), batch * h, "lstm: gate hs length");
        assert_eq!(cs.len(), batch * h, "lstm: gate cs length");
        #[cfg(target_arch = "x86_64")]
        if self.simd == SimdLevel::Avx2 {
            // SAFETY: `simd` is private and only ever holds a level clamped
            // to `simd::supported()` (`new`, `set_simd`), so AVX2 was
            // detected at runtime.
            unsafe { simd::x86::gate_rows_avx2(zs, h, hs, cs) };
            return;
        }
        gate_rows(zs, h, hs, cs);
    }
}

/// The pre-refactor implementation, kept verbatim as the 0-ULP reference
/// for the arena/fused path until the equivalence suite below retires it.
/// Per-step `Vec` allocations and `StepCache` clones throughout — never use
/// outside tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Clone, Debug)]
    pub struct StepCache {
        pub x: Vec<f64>,
        pub h_prev: Vec<f64>,
        pub c_prev: Vec<f64>,
        pub i: Vec<f64>,
        pub f: Vec<f64>,
        pub g: Vec<f64>,
        pub o: Vec<f64>,
        pub tanh_c: Vec<f64>,
    }

    #[derive(Clone, Debug, Default)]
    pub struct RefTrace {
        pub hs: Vec<Vec<f64>>,
        pub caches: Vec<StepCache>,
        pub final_state: LstmState,
    }

    fn step(lstm: &Lstm, x: &[f64], state: &LstmState, trace: &mut RefTrace) -> LstmState {
        let h = lstm.hidden;
        let mut z = lstm.b.clone();
        lstm.wx.matvec_acc(x, &mut z);
        lstm.wh.matvec_acc(&state.h, &mut z);

        let mut i = vec![0.0; h];
        let mut f = vec![0.0; h];
        let mut g = vec![0.0; h];
        let mut o = vec![0.0; h];
        for k in 0..h {
            i[k] = sigmoid(z[k]);
            f[k] = sigmoid(z[h + k]);
            g[k] = tanh(z[2 * h + k]);
            o[k] = sigmoid(z[3 * h + k]);
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut h_out = vec![0.0; h];
        for k in 0..h {
            c[k] = f[k] * state.c[k] + i[k] * g[k];
            tanh_c[k] = tanh(c[k]);
            h_out[k] = o[k] * tanh_c[k];
        }
        trace.caches.push(StepCache {
            x: x.to_vec(),
            h_prev: state.h.clone(),
            c_prev: state.c.clone(),
            i,
            f,
            g,
            o,
            tanh_c,
        });
        trace.hs.push(h_out.clone());
        LstmState { h: h_out, c }
    }

    pub fn forward_from(lstm: &Lstm, xs: &[Vec<f64>], initial: &LstmState) -> RefTrace {
        let mut trace = RefTrace {
            hs: Vec::with_capacity(xs.len()),
            caches: Vec::with_capacity(xs.len()),
            final_state: initial.clone(),
        };
        let mut state = initial.clone();
        for x in xs {
            state = step(lstm, x, &state, &mut trace);
        }
        trace.final_state = state;
        trace
    }

    pub fn backward(
        lstm: &mut Lstm,
        trace: &RefTrace,
        dhs: &[Vec<f64>],
        want_dx: bool,
    ) -> (Option<Vec<Vec<f64>>>, LstmState) {
        lstm.ensure_grads();
        let h = lstm.hidden;
        let mut dh_next = vec![0.0; h];
        let mut dc_next = vec![0.0; h];
        let mut dxs = if want_dx {
            Some(vec![vec![0.0; lstm.input]; trace.hs.len()])
        } else {
            None
        };

        let gwx = lstm.gwx.as_mut().expect("grads ensured");
        let gwh = lstm.gwh.as_mut().expect("grads ensured");

        for t in (0..trace.hs.len()).rev() {
            let cache = &trace.caches[t];
            let mut dh = dhs[t].clone();
            for (a, b) in dh.iter_mut().zip(&dh_next) {
                *a += b;
            }

            let mut dz = vec![0.0; 4 * h];
            let mut dc_prev = vec![0.0; h];
            for k in 0..h {
                let do_ = dh[k] * cache.tanh_c[k];
                let dc = dh[k] * cache.o[k] * dtanh_from_out(cache.tanh_c[k]) + dc_next[k];
                let di = dc * cache.g[k];
                let df = dc * cache.c_prev[k];
                let dg = dc * cache.i[k];
                dz[k] = di * dsigmoid_from_out(cache.i[k]);
                dz[h + k] = df * dsigmoid_from_out(cache.f[k]);
                dz[2 * h + k] = dg * dtanh_from_out(cache.g[k]);
                dz[3 * h + k] = do_ * dsigmoid_from_out(cache.o[k]);
                dc_prev[k] = dc * cache.f[k];
            }

            gwx.rank1_acc(1.0, &dz, &cache.x);
            gwh.rank1_acc(1.0, &dz, &cache.h_prev);
            for (g, d) in lstm.gb.iter_mut().zip(&dz) {
                *g += d;
            }

            let mut dh_prev = vec![0.0; h];
            lstm.wh.matvec_t_acc(&dz, &mut dh_prev);
            if let Some(dxs) = dxs.as_mut() {
                lstm.wx.matvec_t_acc(&dz, &mut dxs[t]);
            }

            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        (
            dxs,
            LstmState {
                h: dh_next,
                c: dc_next,
            },
        )
    }
}

/// The online steps as they stood before [`ServingLstm`]: methods of
/// [`Lstm`] on its row-major weights, the row step through the `dot4`
/// kernels and the block step transposing both matrices on every call.
/// Kept as they were (the SIMD level is a parameter here, it was a field
/// of the layer) as the reference the serving steps are pinned to.
#[cfg(test)]
pub(crate) mod before_serving {
    use super::*;

    /// The row step's scratch.
    #[derive(Default)]
    pub struct Scratch {
        z: Vec<f64>,
        nz: Vec<u32>,
    }

    /// The block step's workspace, transposes included.
    #[derive(Default)]
    pub struct BlockWorkspace {
        zx: Vec<f64>,
        z: Vec<f64>,
        wxt: Matrix,
        wht: Matrix,
        nz: LaneIndices,
        all: LaneIndices,
    }

    fn wx_acc(lstm: &Lstm, x: &[f64], nz: &[u32], z: &mut [f64]) {
        if use_sparse(nz.len(), lstm.input) {
            lstm.wx.matvec_acc_nz(x, nz, z);
        } else {
            lstm.wx.matvec_acc(x, z);
        }
    }

    fn gate_block(level: SimdLevel, h: usize, zs: &[f64], hs: &mut [f64], cs: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if level.min(simd::supported()) == SimdLevel::Avx2 {
            // SAFETY: `supported()` verified AVX2 on this CPU just above.
            unsafe { simd::x86::gate_rows_avx2(zs, h, hs, cs) };
            return;
        }
        let _ = level;
        gate_rows(zs, h, hs, cs);
    }

    pub fn step_online_slices(
        lstm: &Lstm,
        level: SimdLevel,
        x: &[f64],
        h_state: &mut [f64],
        c_state: &mut [f64],
        scratch: &mut Scratch,
    ) {
        let Scratch { z, nz } = scratch;
        z.clear();
        z.extend_from_slice(&lstm.b);
        nz.clear();
        nonzero_indices_into(x, nz);
        wx_acc(lstm, x, nz, z);
        lstm.wh.matvec_acc(h_state, z);
        gate_block(level, lstm.hidden, z, h_state, c_state);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn step_online_dual_block(
        lstm: &Lstm,
        level: SimdLevel,
        xs: &[f64],
        batch: usize,
        aged_hs: &mut [f64],
        aged_cs: &mut [f64],
        fresh_hs: &mut [f64],
        fresh_cs: &mut [f64],
        ws: &mut BlockWorkspace,
    ) {
        let h = lstm.hidden;
        let BlockWorkspace {
            zx,
            z,
            wxt,
            wht,
            nz,
            all,
        } = ws;
        lstm.wx.transpose_into(wxt);
        lstm.wh.transpose_into(wht);
        all.set_all(h);
        for c in 0..batch {
            let x = &xs[c * lstm.input..(c + 1) * lstm.input];
            let row = c * h..(c + 1) * h;
            zx.clear();
            zx.extend_from_slice(&lstm.b);
            nz.set_nonzero(x);
            wxt.matvec_acc_t_lanes(x, nz, zx, level);
            z.clear();
            z.extend_from_slice(zx);
            wht.matvec_acc_t_lanes(&aged_hs[row.clone()], all, z, level);
            wht.matvec_acc_t_lanes(&fresh_hs[row.clone()], all, zx, level);
            gate_block(
                level,
                h,
                z,
                &mut aged_hs[row.clone()],
                &mut aged_cs[row.clone()],
            );
            gate_block(level, h, zx, &mut fresh_hs[row.clone()], &mut fresh_cs[row]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_params_gradient;

    fn seq(input: usize, len: usize, scale: f64) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| {
                (0..input)
                    .map(|k| scale * ((t * input + k) as f64 * 0.7).sin())
                    .collect()
            })
            .collect()
    }

    /// Sum of all hidden outputs over the sequence — a simple scalar loss.
    fn loss_of(lstm: &Lstm, xs: &[Vec<f64>]) -> f64 {
        let trace = lstm.forward(xs);
        (0..trace.len()).flat_map(|t| trace.h(t)).sum()
    }

    #[test]
    fn forward_shapes() {
        let mut init = Initializer::new(0);
        let lstm = Lstm::new(3, 5, &mut init);
        let trace = lstm.forward(&seq(3, 7, 1.0));
        assert_eq!(trace.len(), 7);
        assert_eq!(trace.h(0).len(), 5);
        assert_eq!(trace.final_h().len(), 5);
        assert_eq!(trace.final_c().len(), 5);
    }

    #[test]
    fn outputs_are_bounded_by_one() {
        // |h| = |o * tanh(c)| <= 1 element-wise.
        let mut init = Initializer::new(1);
        let lstm = Lstm::new(4, 6, &mut init);
        let trace = lstm.forward(&seq(4, 50, 10.0));
        for t in 0..trace.len() {
            assert!(trace.h(t).iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut init = Initializer::new(2);
        let lstm = Lstm::new(2, 3, &mut init);
        assert_eq!(&lstm.b[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&lstm.b[0..3], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn trace_reuse_is_identical_to_fresh_trace() {
        let mut init = Initializer::new(3);
        let lstm = Lstm::new(3, 4, &mut init);
        let xs_a = seq(3, 9, 1.0);
        let xs_b = seq(3, 5, 0.4);
        let fresh = lstm.forward(&xs_b);
        // Reuse a trace warmed on a longer sequence.
        let mut reused = lstm.forward(&xs_a);
        lstm.begin(&mut reused);
        lstm.extend_rows(&xs_b, &mut reused);
        assert_eq!(reused.len(), fresh.len());
        for t in 0..fresh.len() {
            assert_eq!(reused.h(t), fresh.h(t));
        }
        assert_eq!(reused.final_c(), fresh.final_c());
    }

    #[test]
    fn bptt_matches_finite_differences() {
        let mut init = Initializer::new(42);
        let mut lstm = Lstm::new(3, 4, &mut init);
        let xs = seq(3, 6, 0.8);
        let max_rel = check_params_gradient(
            &mut lstm,
            |l| loss_of(l, &xs),
            |l| {
                let trace = l.forward(&xs);
                let dhs = vec![vec![1.0; 4]; trace.len()];
                l.backward(&trace, &dhs, false);
            },
            1e-5,
        );
        assert!(max_rel < 1e-5, "max relative error {max_rel}");
    }

    #[test]
    fn bptt_with_initial_state_matches_finite_differences() {
        let mut init = Initializer::new(43);
        let mut lstm = Lstm::new(2, 3, &mut init);
        let xs = seq(2, 5, 0.5);
        let s0 = LstmState {
            h: vec![0.3, -0.2, 0.1],
            c: vec![0.5, 0.4, -0.6],
        };
        let max_rel = check_params_gradient(
            &mut lstm,
            |l| {
                let trace = l.forward_from(&xs, &s0);
                (0..trace.len()).flat_map(|t| trace.h(t)).sum()
            },
            |l| {
                let trace = l.forward_from(&xs, &s0);
                let dhs = vec![vec![1.0; 3]; trace.len()];
                l.backward(&trace, &dhs, false);
            },
            1e-5,
        );
        assert!(max_rel < 1e-5, "max relative error {max_rel}");
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut init = Initializer::new(44);
        let mut lstm = Lstm::new(2, 3, &mut init);
        let xs = seq(2, 4, 0.6);
        let trace = lstm.forward(&xs);
        let dhs = vec![vec![1.0; 3]; trace.len()];
        let (dxs, _) = lstm.backward(&trace, &dhs, true);
        let dxs = dxs.unwrap();
        let eps = 1e-6;
        for t in 0..xs.len() {
            for k in 0..2 {
                let mut xp = xs.clone();
                xp[t][k] += eps;
                let mut xm = xs.clone();
                xm[t][k] -= eps;
                let num = (loss_of(&lstm, &xp) - loss_of(&lstm, &xm)) / (2.0 * eps);
                assert!(
                    (dxs[t][k] - num).abs() < 1e-6,
                    "t={t} k={k} {} vs {num}",
                    dxs[t][k]
                );
            }
        }
    }

    #[test]
    fn initial_state_gradient_matches_finite_differences() {
        let mut init = Initializer::new(45);
        let mut lstm = Lstm::new(2, 3, &mut init);
        let xs = seq(2, 4, 0.5);
        let s0 = LstmState {
            h: vec![0.1, 0.2, -0.3],
            c: vec![-0.4, 0.5, 0.6],
        };
        let trace = lstm.forward_from(&xs, &s0);
        let dhs = vec![vec![1.0; 3]; trace.len()];
        let (_, ds0) = lstm.backward(&trace, &dhs, false);
        let loss_from = |s: &LstmState| -> f64 {
            let tr = lstm.forward_from(&xs, s);
            (0..tr.len()).flat_map(|t| tr.h(t)).sum()
        };
        let eps = 1e-6;
        for k in 0..3 {
            let mut sp = s0.clone();
            sp.h[k] += eps;
            let mut sm = s0.clone();
            sm.h[k] -= eps;
            let num = (loss_from(&sp) - loss_from(&sm)) / (2.0 * eps);
            assert!((ds0.h[k] - num).abs() < 1e-6, "h k={k}");

            let mut sp = s0.clone();
            sp.c[k] += eps;
            let mut sm = s0.clone();
            sm.c[k] -= eps;
            let num = (loss_from(&sp) - loss_from(&sm)) / (2.0 * eps);
            assert!((ds0.c[k] - num).abs() < 1e-6, "c k={k}");
        }
    }

    #[test]
    fn online_stepping_equals_batch_forward() {
        let mut init = Initializer::new(5);
        let lstm = Lstm::new(3, 4, &mut init);
        let serving = ServingLstm::new(&lstm);
        let xs = seq(3, 10, 1.0);
        let trace = lstm.forward(&xs);
        let (mut aged, mut fresh) = (LstmState::zeros(4), LstmState::zeros(4));
        let mut ws = OnlineWorkspace::default();
        for (t, x) in xs.iter().enumerate() {
            let (ah, ac, fh, fc) = (&mut aged.h, &mut aged.c, &mut fresh.h, &mut fresh.c);
            serving.step_online_dual(x, ah, ac, fh, fc, &mut ws);
            assert_eq!(aged.h, trace.h(t));
            assert_eq!(fresh, aged);
        }
        assert_eq!(aged.h, trace.final_h());
        assert_eq!(aged.c, trace.final_c());
    }

    /// One workspace serves every layer of a detector, so it must carry
    /// nothing of the layer it last saw: two different layers stepped
    /// alternately through one workspace each match the frozen row step.
    #[test]
    fn workspace_carries_nothing_between_layers() {
        let (input, hidden, rows) = (7, 9, 5);
        let mut init = Initializer::new(11);
        let layers = [(); 2].map(|_| Lstm::new(input, hidden, &mut init));
        let serving = layers.each_ref().map(ServingLstm::new);
        let level = serving[0].simd;
        let xs = seq(input, rows, 0.8);
        let mut ws = OnlineWorkspace::default();
        let mut frozen = before_serving::Scratch::default();
        // Per layer: dual-stepped arenas and row-stepped references.
        let mut got = [(); 2].map(|_| [(); 4].map(|_| vec![0.0; rows * hidden]));
        let mut want = got.clone();
        for _ in 0..3 {
            for (l, (layer, lstm)) in serving.iter().zip(&layers).enumerate() {
                for (c, x) in xs.iter().enumerate() {
                    let r = c * hidden..(c + 1) * hidden;
                    let [ah, ac, fh, fc] = got[l].each_mut().map(|v| &mut v[r.clone()]);
                    layer.step_online_dual(x, ah, ac, fh, fc, &mut ws);
                    let [ah, ac, fh, fc] = want[l].each_mut().map(|v| &mut v[r.clone()]);
                    before_serving::step_online_slices(lstm, level, x, ah, ac, &mut frozen);
                    before_serving::step_online_slices(lstm, level, x, fh, fc, &mut frozen);
                }
                // Move the fresh half off the aged one for the next round.
                want[l][2].iter_mut().for_each(|v| *v *= 0.5);
                got[l][2].iter_mut().for_each(|v| *v *= 0.5);
                let bits = |a: &[Vec<f64>; 4]| -> Vec<u64> {
                    a.iter().flatten().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&got[l]), bits(&want[l]), "layer {l}");
            }
        }
    }

    /// The gates of one row, one element at a time: what both gate tests
    /// hold every level of [`ServingLstm::gate_block`] to.
    fn gate_row_by_element(z: &[f64], h: &mut [f64], c: &mut [f64]) {
        let hidden = h.len();
        for k in 0..hidden {
            let (i, f) = (sigmoid(z[k]), sigmoid(z[hidden + k]));
            let (g, o) = (tanh(z[2 * hidden + k]), sigmoid(z[3 * hidden + k]));
            c[k] = f * c[k] + i * g;
            h[k] = o * tanh(c[k]);
        }
    }

    /// Bit patterns with every NaN folded into one: NaN stays NaN, but which
    /// payload survives an operation on two NaNs is the one thing operand
    /// order may change.
    fn nan_blind_bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
            .collect()
    }

    /// The gate kernel's two instantiations and the element-at-a-time loop
    /// agree to the bit at every vector remainder, edge inputs included.
    #[test]
    fn gate_block_levels_match_scalar_elements_bitwise() {
        let edges = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            745.0,
            -745.0,
            0.875,
        ];
        for hidden in (1..=9).chain([12, 24, 31, 32, 33]) {
            let mut plain = ServingLstm::new(&Lstm::new(1, hidden, &mut Initializer::new(3)));
            let mut wide = plain.clone();
            plain.set_simd(SimdLevel::Scalar);
            wide.set_simd(simd::supported());
            for batch in [1usize, 2, 7, 450] {
                let n = batch * hidden;
                let mut zs: Vec<f64> = (0..4 * n)
                    .map(|j| ((j * 37 + hidden) as f64 * 0.618).sin() * 9.0)
                    .collect();
                for (j, &e) in edges.iter().enumerate() {
                    zs[(j * 13) % (4 * n)] = e;
                }
                let cs0: Vec<f64> = (0..n).map(|j| (j as f64 * 0.37).cos() * 2.0).collect();
                let mut want = (vec![0.0; n], cs0.clone());
                let rows = zs
                    .chunks(4 * hidden)
                    .zip(want.0.chunks_mut(hidden))
                    .zip(want.1.chunks_mut(hidden));
                for ((z, h), c) in rows {
                    gate_row_by_element(z, h, c);
                }
                let bits = nan_blind_bits;
                for layer in [&plain, &wide] {
                    let mut got = (vec![0.0; n], cs0.clone());
                    layer.gate_block(&zs, batch, &mut got.0, &mut got.1);
                    let at = format!("hidden {hidden} batch {batch} {:?}", layer.simd);
                    assert_eq!(bits(&got.0), bits(&want.0), "h, {at}");
                    assert_eq!(bits(&got.1), bits(&want.1), "c, {at}");
                }
            }
        }
    }

    /// Every edge input in every gate slot and in the cell state, at every
    /// lane position of a full [`GATE_LANES`] chunk and of the remainder
    /// behind it, through every level a caller can ask for: the split loops
    /// return the element-at-a-time bits, and an edge in one lane leaves its
    /// neighbours' bits alone.
    #[test]
    fn gate_edge_sweep_matches_scalar_elements_bitwise() {
        use crate::activations::TANH_CUT;
        let edges = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            TANH_CUT,
            -TANH_CUT,
            TANH_CUT - f64::EPSILON,
            -TANH_CUT + f64::EPSILON,
        ];
        let bits = nan_blind_bits;
        for hidden in [
            1,
            GATE_LANES - 1,
            GATE_LANES,
            GATE_LANES + 3,
            2 * GATE_LANES + 1,
        ] {
            let mut layer = ServingLstm::new(&Lstm::new(1, hidden, &mut Initializer::new(3)));
            let base_z: Vec<f64> = (0..4 * hidden)
                .map(|j| ((j * 29 + hidden) as f64 * 0.618).sin() * 4.0)
                .collect();
            let base_c: Vec<f64> = (0..hidden).map(|j| (j as f64 * 0.37).cos() * 2.0).collect();
            // Slots 0–3 are the four gates' pre-activations, slot 4 the cell.
            for slot in 0..5 {
                for lane in 0..hidden {
                    for edge in edges {
                        let (mut zs, mut cs0) = (base_z.clone(), base_c.clone());
                        if slot < 4 {
                            zs[slot * hidden + lane] = edge;
                        } else {
                            cs0[lane] = edge;
                        }
                        let mut want = (vec![0.0; hidden], cs0.clone());
                        gate_row_by_element(&zs, &mut want.0, &mut want.1);
                        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                            layer.set_simd(level);
                            let mut got = (vec![0.0; hidden], cs0.clone());
                            layer.gate_block(&zs, 1, &mut got.0, &mut got.1);
                            let at = format!(
                                "hidden {hidden} slot {slot} lane {lane} {edge:e} {level:?}"
                            );
                            assert_eq!(bits(&got.0), bits(&want.0), "h, {at}");
                            assert_eq!(bits(&got.1), bits(&want.1), "c, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memory_cell_retains_early_signal() {
        // A pulse at t=0 must still influence the state at t=20 (the whole
        // point of LSTMs for long-range auxiliary signals).
        let mut init = Initializer::new(6);
        let lstm = Lstm::new(1, 8, &mut init);
        let mut quiet = vec![vec![0.0]; 21];
        let trace_quiet = lstm.forward(&quiet);
        quiet[0][0] = 5.0;
        let trace_pulse = lstm.forward(&quiet);
        let diff: f64 = trace_quiet
            .h(20)
            .iter()
            .zip(trace_pulse.h(20))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "pulse vanished entirely: diff={diff}");
    }

    #[test]
    fn serde_roundtrip() {
        let mut init = Initializer::new(8);
        let lstm = Lstm::new(2, 3, &mut init);
        let json = serde_json::to_string(&lstm).unwrap();
        let back: Lstm = serde_json::from_str(&json).unwrap();
        let xs = seq(2, 5, 1.0);
        let ta = lstm.forward(&xs);
        let tb = back.forward(&xs);
        // JSON text roundtrips can perturb the last ULP of a double.
        for t in 0..ta.len() {
            for (a, b) in ta.h(t).iter().zip(tb.h(t)) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    // ------------------------------------------------------------------
    // 0-ULP equivalence of the arena/fused path against the pre-refactor
    // reference implementation.
    // ------------------------------------------------------------------

    use proptest::prelude::*;

    /// Deterministic pseudo-sequence with planted exact zeros (to hit the
    /// sparse-skip paths in the kernels).
    fn gen_seq(seed: u64, input: usize, len: usize, scale: f64) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| {
                (0..input)
                    .map(|k| {
                        let u = (seed.wrapping_mul(0x9E3779B97F4A7C15) >> 17) as f64;
                        if (t + k + seed as usize).is_multiple_of(5) {
                            0.0
                        } else {
                            scale * ((t * input + k) as f64 * 0.61 + u * 1e-15).sin()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn flat_grads(lstm: &mut Lstm) -> Vec<f64> {
        let n = lstm.param_count();
        let mut out = vec![0.0; n];
        lstm.export_grads_into(&mut out);
        out
    }

    proptest! {
        /// Forward: hidden outputs, cell states and final state of the
        /// arena path must match the reference to the last bit.
        #[test]
        fn arena_forward_matches_reference_bitwise(
            seed in 0u64..10_000,
            input in 1usize..6,
            hidden in 1usize..6,
            len in 0usize..9,
        ) {
            let mut init = Initializer::new(seed);
            let lstm = Lstm::new(input, hidden, &mut init);
            let xs = gen_seq(seed, input, len, 0.8);
            let s0 = LstmState {
                h: (0..hidden).map(|k| 0.1 * (k as f64 + 1.0)).collect(),
                c: (0..hidden).map(|k| -0.2 * (k as f64 + 1.0)).collect(),
            };
            let new = lstm.forward_from(&xs, &s0);
            let old = reference::forward_from(&lstm, &xs, &s0);
            prop_assert_eq!(new.len(), old.hs.len());
            for t in 0..new.len() {
                for (a, b) in new.h(t).iter().zip(&old.hs[t]) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            for (a, b) in new.final_h().iter().zip(&old.final_state.h) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in new.final_c().iter().zip(&old.final_state.c) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Backward: accumulated weight gradients, input gradients
        /// (`want_dx`) and the initial-state gradient must match the
        /// reference to the last bit — including upstream gradients with
        /// exact-zero rows (the `dlogit == 0` skip in the model).
        #[test]
        fn arena_backward_matches_reference_bitwise(
            seed in 0u64..10_000,
            input in 1usize..6,
            hidden in 1usize..6,
            len in 1usize..8,
            want_dx_bit in 0usize..2,
        ) {
            let want_dx = want_dx_bit == 1;
            let mut init = Initializer::new(seed);
            let lstm = Lstm::new(input, hidden, &mut init);
            let xs = gen_seq(seed, input, len, 0.7);
            let s0 = LstmState {
                h: (0..hidden).map(|k| 0.05 * (k as f64 - 1.0)).collect(),
                c: (0..hidden).map(|k| 0.3 * (k as f64 + 0.5)).collect(),
            };
            // Upstream gradient with whole zero rows and scattered zeros.
            let dhs: Vec<Vec<f64>> = (0..len)
                .map(|t| {
                    (0..hidden)
                        .map(|k| {
                            if t % 3 == 1 || (t + k + seed as usize).is_multiple_of(4) {
                                0.0
                            } else {
                                ((t * hidden + k) as f64 * 0.37).cos()
                            }
                        })
                        .collect()
                })
                .collect();

            // New path: accumulate on top of a non-trivial pre-existing
            // gradient (run one backward first) to check pure accumulation.
            let mut lstm_new = lstm.clone();
            let trace = lstm_new.forward_from(&xs, &s0);
            let mut ws = LstmWorkspace::new();
            let mut flat = Vec::new();
            for row in &dhs { flat.extend_from_slice(row); }
            lstm_new.backward_flat(&trace, &flat, want_dx, &mut ws);
            // Second call through the same (now warm) workspace.
            lstm_new.backward_flat(&trace, &flat, want_dx, &mut ws);

            let mut lstm_old = lstm.clone();
            let ref_trace = reference::forward_from(&lstm_old, &xs, &s0);
            let (ref_dxs, ref_ds0) =
                reference::backward(&mut lstm_old, &ref_trace, &dhs, want_dx);
            let (ref_dxs2, _) =
                reference::backward(&mut lstm_old, &ref_trace, &dhs, want_dx);

            let g_new = flat_grads(&mut lstm_new);
            let g_old = flat_grads(&mut lstm_old);
            for (a, b) in g_new.iter().zip(&g_old) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in ws.d_initial_h().iter().zip(&ref_ds0.h) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in ws.d_initial_c().iter().zip(&ref_ds0.c) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            if want_dx {
                // dxs is per-call (not accumulated): the warm second call
                // must equal the reference's per-call result.
                let ref_dxs = ref_dxs.unwrap();
                let _ = ref_dxs2;
                prop_assert_eq!(ws.dxs().len(), ref_dxs.len());
                for (t, row) in ref_dxs.iter().enumerate() {
                    for (a, b) in ws.dxs().frame(t).iter().zip(row) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }

        /// The shared-input dual step (aged + fresh halves per input) must
        /// match two independent per-half frozen row steps bitwise, at
        /// every dispatch level, cold and through a workspace warmed on
        /// other rows: sharing `b + Wx·x` across halves reuses the
        /// identical value. The hidden sizes cover `Wh` inputs with and
        /// without a `% 4` tail, outputs short of a 24-wide chunk (1–5),
        /// exactly one (6), chunk + 8-wide (8), whole chunks only (12,
        /// 24), chunks + 1-wide (25), and gate rows below, at and past
        /// `GATE_LANES`.
        #[test]
        fn online_dual_step_matches_per_half_bitwise(
            seed in 0u64..5_000,
            input in 1usize..6,
            hidden_sel in 0usize..10,
            rows_sel in 0usize..3,
        ) {
            let hidden = [1usize, 2, 3, 4, 5, 6, 8, 12, 24, 25][hidden_sel];
            let rows = [1usize, 3, 64][rows_sel];
            let mut init = Initializer::new(seed.wrapping_add(77));
            let layer = Lstm::new(input, hidden, &mut init);
            let mut lstm = ServingLstm::new(&layer);

            // Aged and fresh halves at genuinely different points: the
            // aged half has a longer history.
            let mut aged: Vec<LstmState> = Vec::with_capacity(rows);
            let mut fresh: Vec<LstmState> = Vec::with_capacity(rows);
            let mut xs = Vec::with_capacity(rows);
            for c in 0..rows {
                let pre = gen_seq(seed + c as u64, input, 2 + c % 5, 0.9);
                aged.push(layer.forward(&pre).final_state());
                fresh.push(layer.forward(&pre[..c % 3.min(pre.len())]).final_state());
                if c % 7 == 3 {
                    xs.push(vec![0.0; input]);
                } else {
                    xs.extend(gen_seq(seed.wrapping_mul(29) + c as u64, input, 1, 1.1));
                }
            }

            for level in [SimdLevel::Scalar, simd::supported()] {
                lstm.set_simd(level);
                let (mut want_aged, mut want_fresh) = (aged.clone(), fresh.clone());
                let (mut got_aged, mut got_fresh) = (aged.clone(), fresh.clone());
                let mut ws = OnlineWorkspace::default();
                let mut frozen = before_serving::Scratch::default();
                for _ in 0..2 {
                    for (c, x) in xs.iter().enumerate() {
                        for s in [&mut want_aged[c], &mut want_fresh[c]] {
                            before_serving::step_online_slices(
                                &layer, level, x, &mut s.h, &mut s.c, &mut frozen,
                            );
                        }
                        let (a, f) = (&mut got_aged[c], &mut got_fresh[c]);
                        lstm.step_online_dual(x, &mut a.h, &mut a.c, &mut f.h, &mut f.c, &mut ws);
                    }
                    for (got, want) in got_aged.iter().chain(&got_fresh).zip(want_aged.iter().chain(&want_fresh)) {
                        for (a, b) in got.h.iter().chain(&got.c).zip(want.h.iter().chain(&want.c)) {
                            prop_assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
                }
            }
        }

        /// The cache-free online step must match the batch forward, and
        /// the frozen per-step reference it replaced, bitwise, each half
        /// over the inputs since it was zeroed: the aged half from the
        /// first input, the fresh one from the middle.
        #[test]
        fn online_step_matches_forward_bitwise(
            seed in 0u64..10_000,
            input in 1usize..5,
            hidden in 1usize..5,
            len in 1usize..8,
        ) {
            let mut init = Initializer::new(seed);
            let lstm = Lstm::new(input, hidden, &mut init);
            let serving = ServingLstm::new(&lstm);
            let xs = gen_seq(seed, input, len, 1.1);
            let trace = lstm.forward(&xs);
            let (mut aged, mut fresh) = (LstmState::zeros(hidden), LstmState::zeros(hidden));
            let mut ws = OnlineWorkspace::default();
            let mid = len / 2;
            for (t, x) in xs.iter().enumerate() {
                if t == mid {
                    fresh = LstmState::zeros(hidden);
                }
                let (ah, ac, fh, fc) = (&mut aged.h, &mut aged.c, &mut fresh.h, &mut fresh.c);
                serving.step_online_dual(x, ah, ac, fh, fc, &mut ws);
                for (a, b) in aged.h.iter().zip(trace.h(t)) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            for (a, b) in aged.c.iter().zip(trace.final_c()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let tail = lstm.forward(&xs[mid..]);
            for (a, b) in fresh.h.iter().chain(&fresh.c).zip(tail.final_h().iter().chain(tail.final_c())) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let zero = LstmState::zeros(hidden);
            for (state, from) in [(&aged, 0), (&fresh, mid)] {
                let old = reference::forward_from(&lstm, &xs[from..], &zero).final_state;
                for (a, b) in state.h.iter().chain(&state.c).zip(old.h.iter().chain(&old.c)) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// The serving step equals the frozen pre-serving kernels and
        /// `Lstm::forward`, bit for bit: hidden 7, 9 and 24, fleets of 1, 2,
        /// 7 and 450 rows stepped in ragged runs (rows sit out steps at
        /// random, as fleet rows mid-gap do), inputs from no zeros to all
        /// zeros with `-0.0` among them, at both levels. The serving step
        /// (row by row through one workspace), the frozen block step (one
        /// call per run) and the frozen row step advance separate copies of
        /// every state; each half must also equal `Lstm::forward` over the
        /// inputs it was given since it was last zeroed.
        #[test]
        fn serving_steps_match_the_frozen_kernels_and_forward_bitwise(
            seed in 0u64..5_000,
            input_sel in 0usize..3,
            hidden_sel in 0usize..3,
            batch_sel in 0usize..4,
            zero_pct in 0u64..=100,
        ) {
            let hidden = [7usize, 9, 24][hidden_sel];
            let batch = [1usize, 2, 7, 450][batch_sel];
            // The widest input only on the small batches: a debug build
            // steps 450 rows three ways per level.
            let input = [1usize, 6, 33][input_sel].min(if batch == 450 { 6 } else { 33 });
            let lstm = Lstm::new(input, hidden, &mut Initializer::new(seed));
            let mut serving = ServingLstm::new(&lstm);
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            const STEPS: usize = 3;
            // Per step: the inputs, and which rows take part.
            let plan: Vec<(Vec<f64>, Vec<bool>)> = (0..STEPS)
                .map(|_| {
                    let xs = (0..batch * input)
                        .map(|_| {
                            let r = next();
                            if r % 100 < zero_pct {
                                if r & (1 << 40) != 0 { -0.0 } else { 0.0 }
                            } else {
                                ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0
                            }
                        })
                        .collect();
                    let active = (0..batch).map(|_| next() % 4 != 0).collect();
                    (xs, active)
                })
                .collect();
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                serving.set_simd(level);
                let n = batch * hidden;
                // [aged_h, aged_c, fresh_h, fresh_c] per implementation:
                // serving step, frozen block, frozen rows.
                let mut arenas = [(); 3].map(|_| [(); 4].map(|_| vec![0.0; n]));
                let mut ws = OnlineWorkspace::default();
                let mut frozen_ws = before_serving::BlockWorkspace::default();
                let mut frozen_scratch = before_serving::Scratch::default();
                // Each row's inputs since each half was last zeroed.
                let mut seen: Vec<[Vec<Vec<f64>>; 2]> = vec![[Vec::new(), Vec::new()]; batch];
                let mut runs = Vec::new();
                for (t, (xs, active)) in plan.iter().enumerate() {
                    runs.clear();
                    let mut a = 0;
                    while a < batch {
                        if !active[a] {
                            a += 1;
                            continue;
                        }
                        let mut b = a + 1;
                        while b < batch && active[b] {
                            b += 1;
                        }
                        runs.push((a, b));
                        a = b;
                    }
                    for &(a, b) in &runs {
                        let (r, x) = (a * hidden..b * hidden, &xs[a * input..b * input]);
                        let [ah, ac, fh, fc] = &mut arenas[1];
                        before_serving::step_online_dual_block(
                            &lstm, level, x, b - a, &mut ah[r.clone()], &mut ac[r.clone()],
                            &mut fh[r.clone()], &mut fc[r], &mut frozen_ws,
                        );
                    }
                    for c in (0..batch).filter(|&c| active[c]) {
                        let (r, x) = (c * hidden..(c + 1) * hidden, &xs[c * input..(c + 1) * input]);
                        let [ah, ac, fh, fc] = arenas[0].each_mut().map(|v| &mut v[r.clone()]);
                        serving.step_online_dual(x, ah, ac, fh, fc, &mut ws);
                        for half in [0, 2] {
                            let [h, cs] = arenas[2].get_disjoint_mut([half, half + 1]).unwrap();
                            before_serving::step_online_slices(
                                &lstm, level, x, &mut h[r.clone()], &mut cs[r.clone()], &mut frozen_scratch,
                            );
                        }
                        seen[c][0].push(x.to_vec());
                        seen[c][1].push(x.to_vec());
                    }
                    for (k, arena) in arenas.iter().enumerate().skip(1) {
                        for (q, (got, want)) in arena.iter().zip(&arenas[0]).enumerate() {
                            prop_assert_eq!(bits(got), bits(want), "impl {} column {} step {} {:?}", k, q, t, level);
                        }
                    }
                    // Zero the fresh half of every other row after the first
                    // step, as a promotion does, so the halves differ.
                    if t == 0 {
                        for c in (0..batch).step_by(2) {
                            for arena in &mut arenas {
                                arena[2][c * hidden..(c + 1) * hidden].fill(0.0);
                                arena[3][c * hidden..(c + 1) * hidden].fill(0.0);
                            }
                            seen[c][1].clear();
                        }
                    }
                }
                for (c, [aged, fresh]) in seen.iter().enumerate() {
                    let r = c * hidden..(c + 1) * hidden;
                    for (half, xs) in [(0, aged), (2, fresh)] {
                        let trace = lstm.forward(xs);
                        prop_assert_eq!(bits(&arenas[0][half][r.clone()]), bits(trace.final_h()), "row {} half {}", c, half);
                        prop_assert_eq!(bits(&arenas[0][half + 1][r.clone()]), bits(trace.final_c()), "row {} half {}", c, half);
                    }
                }
            }
        }
    }
}
