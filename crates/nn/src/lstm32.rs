//! Reduced-precision (`f32`) mirrors of the online LSTM scoring kernels.
//!
//! The fleet fast path (`xatu-core::fleet` after
//! `FleetDetector::enable_fast`) stores per-customer LSTM state in `f32`
//! and runs the gates through the rational activations in
//! [`crate::fastmath`], halving memory bandwidth over the `f64` arenas and replacing `exp`/`tanh`
//! calls with a handful of multiply-adds. Weights are **widened once**
//! at load time ([`Lstm32::from_f64`]) into an [`Lstm32`]; per-step work
//! never touches the `f64` layer again.
//!
//! Determinism contract: within `f32`, these kernels carry the same
//! guarantees as their `f64` originals in [`crate::matrix`] /
//! [`crate::lstm`] — four-lane summation `(s0+s1)+(s2+s3)` with the
//! tail in index order, sparse index kernels bit-identical to dense by
//! the ±0.0-is-a-no-op argument, and the batched/tiled forms
//! bit-identical per column to the scalar reference
//! ([`Lstm32::step_online_slices32`]). Property tests in this module
//! pin each equivalence at 0 ULP *in f32*. Accuracy relative to the
//! exact `f64` pipeline is a separate, calibrated-tolerance story owned
//! by the fleet parity tests in `xatu-core` (see DESIGN.md §14).

use crate::fastmath::{fast_sigmoid32, fast_tanh32};
use crate::lstm::Lstm;
use crate::matrix::Matrix;
use crate::simd::{self, SimdLevel};

/// Row-major `f32` matrix — the widened-weight counterpart of
/// [`Matrix`], carrying only the kernels the online scoring path needs.
#[derive(Clone, Debug)]
pub struct Matrix32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix32 {
    /// Widens an `f64` matrix once (each weight rounded to nearest f32).
    pub fn from_f64(m: &Matrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            data.extend(m.row(r).iter().map(|&v| v as f32));
        }
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `selfᵀ` as a fresh matrix (built once at load, not per step).
    pub fn transpose(&self) -> Matrix32 {
        let mut data = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                data[c * self.rows + r] = v;
            }
        }
        Matrix32 {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// `y += A·x` — the f32 [`Matrix::matvec_acc`].
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn matvec_acc(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec32: x length");
        assert_eq!(y.len(), self.rows, "matvec32: y length");
        for (r, yr) in y.iter_mut().enumerate() {
            *yr += dot4_32(self.row(r), x);
        }
    }

    /// `y += A·x` touching only the columns listed in `nz`, on the
    /// materialised transpose, with `dot4`'s lane protocol (lane
    /// `j mod 4` per source index, fold `(l0+l1)+(l2+l3)`, tail indices
    /// after, one accumulate into `ys`), so it is bit-identical *in f32*
    /// to the dense [`Matrix32::matvec_acc`] on the original matrix.
    ///
    /// # Panics
    /// Panics if dimensions disagree or an index is out of range.
    pub fn matvec_acc_nz_t(&self, x: &[f32], nz: &[u32], ys: &mut [f32], lanes: &mut Vec<f32>) {
        assert_eq!(x.len(), self.rows, "matvec32_nz_t: x length");
        assert_eq!(ys.len(), self.cols, "matvec32_nz_t: y length");
        let m = self.cols;
        let lanes_end = (x.len() - x.len() % 4) as u32;
        let split = nz.partition_point(|&i| i < lanes_end);
        let (lane_idx, tail_idx) = nz.split_at(split);
        lanes.clear();
        lanes.resize(4 * m, 0.0);
        let (l0, rest) = lanes.split_at_mut(m);
        let (l1, rest) = rest.split_at_mut(m);
        let (l2, l3) = rest.split_at_mut(m);
        for &j in lane_idx {
            let j = j as usize;
            let xj = x[j];
            let col = self.row(j);
            let lane: &mut [f32] = match j % 4 {
                0 => &mut *l0,
                1 => &mut *l1,
                2 => &mut *l2,
                _ => &mut *l3,
            };
            for (s, &w) in lane.iter_mut().zip(col) {
                *s += w * xj;
            }
        }
        for r in 0..m {
            l0[r] = (l0[r] + l1[r]) + (l2[r] + l3[r]);
        }
        for &j in tail_idx {
            let j = j as usize;
            let xj = x[j];
            let col = self.row(j);
            for (s, &w) in l0.iter_mut().zip(col) {
                *s += w * xj;
            }
        }
        for (yr, &s) in ys.iter_mut().zip(&*l0) {
            *yr += s;
        }
    }

    /// Batched multiply-accumulate over `batch` column vectors, in
    /// 4-customer tiles with 4-wide weight chunks, per-tile
    /// `(s0+s1)+(s2+s3)` combine and index-order tails, so every output
    /// column is bit-identical *in f32* to a per-column
    /// [`Matrix32::matvec_acc`].
    ///
    /// # Panics
    /// Panics if slice lengths disagree with `batch` and the shape.
    pub fn matvec_acc_batch(&self, xs: &[f32], batch: usize, ys: &mut [f32]) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(xs.len(), batch * cols, "matvec32_batch: xs length");
        assert_eq!(ys.len(), batch * rows, "matvec32_batch: ys length");
        let tiles = batch - batch % 4;
        let lanes = cols - cols % 4;
        for r in 0..rows {
            let row = self.row(r);
            let mut c = 0;
            while c < tiles {
                let x: [&[f32]; 4] = [
                    &xs[c * cols..(c + 1) * cols],
                    &xs[(c + 1) * cols..(c + 2) * cols],
                    &xs[(c + 2) * cols..(c + 3) * cols],
                    &xs[(c + 3) * cols..(c + 4) * cols],
                ];
                let mut s = [[0.0f32; 4]; 4];
                let mut k = 0;
                while k < lanes {
                    let w = [row[k], row[k + 1], row[k + 2], row[k + 3]];
                    for (sj, xj) in s.iter_mut().zip(x) {
                        sj[0] += w[0] * xj[k];
                        sj[1] += w[1] * xj[k + 1];
                        sj[2] += w[2] * xj[k + 2];
                        sj[3] += w[3] * xj[k + 3];
                    }
                    k += 4;
                }
                for (j, (sj, xj)) in s.iter().zip(x).enumerate() {
                    let mut acc = (sj[0] + sj[1]) + (sj[2] + sj[3]);
                    for t in lanes..cols {
                        acc += row[t] * xj[t];
                    }
                    ys[(c + j) * rows + r] += acc;
                }
                c += 4;
            }
            for cj in tiles..batch {
                ys[cj * rows + r] += dot4_32(row, &xs[cj * cols..(cj + 1) * cols]);
            }
        }
    }

    /// [`Matrix32::matvec_acc_batch`] dispatched through a
    /// [`SimdLevel`]: AVX2 runs 8-customer `ymm` tiles, SSE2 4-customer
    /// `xmm` tiles, and remainder columns (plus the whole batch at
    /// [`SimdLevel::Scalar`] or on non-x86_64 targets) take the scalar
    /// reference. Every level produces bit-identical `ys` — the vector
    /// tiles replicate the scalar summation contract per lane (see
    /// [`crate::simd`]). `xt` is reusable transpose scratch sized
    /// `width × cols` on demand.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with `batch` and the shape.
    pub fn matvec_acc_batch_level(
        &self,
        xs: &[f32],
        batch: usize,
        ys: &mut [f32],
        level: SimdLevel,
        xt: &mut Vec<f32>,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            let (rows, cols) = (self.rows, self.cols);
            let width = match level {
                SimdLevel::Avx2 if batch >= 8 => 8,
                SimdLevel::Avx2 | SimdLevel::Sse2 if batch >= 4 => 4,
                _ => 0,
            };
            if width > 0 {
                assert_eq!(xs.len(), batch * cols, "matvec32_batch: xs length");
                assert_eq!(ys.len(), batch * rows, "matvec32_batch: ys length");
                xt.clear();
                xt.resize(width * cols, 0.0);
                // SAFETY: a non-scalar `level` only arises from
                // `simd::detect()` / `simd::supported()` (see
                // `Lstm32::set_simd`), which verified the feature on this
                // CPU at runtime; SSE2 is part of the x86_64 baseline.
                unsafe {
                    if width == 8 {
                        simd::x86::matvec_acc_batch_avx2(&self.data, rows, cols, xs, batch, ys, xt);
                    } else {
                        simd::x86::matvec_acc_batch_sse2(&self.data, rows, cols, xs, batch, ys, xt);
                    }
                }
                // Remainder columns: the scalar per-column kernel, exactly
                // as the scalar tile kernel finishes its partial tile.
                for cj in (batch - batch % width)..batch {
                    let x = &xs[cj * cols..(cj + 1) * cols];
                    for (r, yr) in ys[cj * rows..(cj + 1) * rows].iter_mut().enumerate() {
                        *yr += dot4_32(self.row(r), x);
                    }
                }
                return;
            }
        }
        let _ = (level, &xt);
        self.matvec_acc_batch(xs, batch, ys);
    }
}

/// Appends the ascending indices of `x`'s exact-nonzero entries to
/// `out` (not cleared) and returns how many were appended — the f32
/// [`crate::matrix::nonzero_indices_into`]. `-0.0` counts as zero, so
/// a frame of mixed `±0.0` routes identically to the all-`+0.0` frame.
pub fn nonzero_indices_into32(x: &[f32], out: &mut Vec<u32>) -> usize {
    let before = out.len();
    out.extend(
        x.iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, _)| i as u32),
    );
    out.len() - before
}

/// Four-lane f32 dot product with the [`crate::matrix`] summation
/// contract: lane `l` sums indices `l, l+4, …`; lanes combine as
/// `(s0+s1)+(s2+s3)`; the tail is added in index order.
#[inline]
fn dot4_32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        s0 += pa[0] * pb[0];
        s1 += pa[1] * pb[1];
        s2 += pa[2] * pb[2];
        s3 += pa[3] * pb[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// Same sparse/dense routing threshold as the f64 path.
#[inline]
fn use_sparse(nnz: usize, dim: usize) -> bool {
    nnz * 4 <= dim
}

/// Reusable scratch for the f32 block kernels — the counterpart of
/// [`crate::lstm::OnlineBlockWorkspace`]. `wxt` lives on the layer
/// ([`Lstm32`] precomputes it at load since scoring weights are
/// immutable), so the workspace is pure buffers.
#[derive(Clone, Debug, Default)]
pub struct OnlineBlockWorkspace32 {
    /// Pre-activations, `batch × 4·hidden`, customer-major.
    zs: Vec<f32>,
    /// Ascending nonzero input indices of the row being processed.
    nz: Vec<u32>,
    /// Shared input contribution `b + Wx·x` per row for the dual-block
    /// step's two states-per-input halves.
    zx: Vec<f32>,
    /// Lane scratch for [`Matrix32::matvec_acc_nz_t`], `4 × 4·hidden`.
    lanes: Vec<f32>,
    /// Customer-major → lane-major transpose scratch for the SIMD tile
    /// kernels ([`Matrix32::matvec_acc_batch_level`]), `width × cols`.
    xt: Vec<f32>,
}

impl OnlineBlockWorkspace32 {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// An LSTM layer widened once to `f32` for online scoring: weights,
/// biases, and the precomputed `Wxᵀ` for the sparse input kernel. No
/// gradient buffers — this is an inference-only mirror.
#[derive(Clone, Debug)]
pub struct Lstm32 {
    input: usize,
    hidden: usize,
    wx: Matrix32,  // 4h × input
    wh: Matrix32,  // 4h × hidden
    wxt: Matrix32, // input × 4h
    b: Vec<f32>,   // 4h
    /// SIMD level for the batched kernels, captured at construction via
    /// [`simd::detect`] (so `XATU_NO_SIMD` is honored) and overridable
    /// with [`Lstm32::set_simd`]. Every level is bit-identical.
    simd: SimdLevel,
}

impl Lstm32 {
    /// Widens a trained `f64` layer once. Each weight and bias is
    /// rounded to nearest f32; `Wxᵀ` is materialised here so per-step
    /// sparse kernels never re-transpose.
    pub fn from_f64(layer: &Lstm) -> Self {
        let wx = Matrix32::from_f64(layer.wx());
        let wh = Matrix32::from_f64(layer.wh());
        let wxt = wx.transpose();
        let b: Vec<f32> = layer.bias().iter().map(|&v| v as f32).collect();
        Self {
            input: layer.input_dim(),
            hidden: layer.hidden_dim(),
            wx,
            wh,
            wxt,
            b,
            simd: simd::detect(),
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

    /// The SIMD level the batched kernels currently dispatch to.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Overrides the dispatch level, clamped to what the host supports
    /// (so requesting AVX2 on an SSE2-only CPU safely degrades). Forcing
    /// [`SimdLevel::Scalar`] pins the reference path; results are
    /// bit-identical at every level.
    pub fn set_simd(&mut self, level: SimdLevel) {
        self.simd = level.min(simd::supported());
    }

    /// The scalar reference online step on raw f32 state slices — the
    /// f32 [`Lstm::step_online_slices`], with gates through the
    /// rational fast activations. The block kernels below are pinned
    /// bit-identical to this.
    ///
    /// # Panics
    /// Panics if `x`, `h_state` or `c_state` have the wrong dimensions.
    pub fn step_online_slices32(
        &self,
        x: &[f32],
        h_state: &mut [f32],
        c_state: &mut [f32],
        z: &mut Vec<f32>,
    ) {
        assert_eq!(x.len(), self.input, "lstm32: x length");
        assert_eq!(h_state.len(), self.hidden, "lstm32: h length");
        assert_eq!(c_state.len(), self.hidden, "lstm32: c length");
        z.clear();
        z.extend_from_slice(&self.b);
        self.wx.matvec_acc(x, z);
        self.wh.matvec_acc(h_state, z);
        let h = self.hidden;
        for k in 0..h {
            let i = fast_sigmoid32(z[k]);
            let f = fast_sigmoid32(z[h + k]);
            let g = fast_tanh32(z[2 * h + k]);
            let o = fast_sigmoid32(z[3 * h + k]);
            let cv = f * c_state[k] + i * g;
            c_state[k] = cv;
            h_state[k] = o * fast_tanh32(cv);
        }
    }

    /// Dual-state block step — the f32 [`Lstm::step_online_dual_block`]:
    /// computes the shared input contribution `b + Wx·x` once per
    /// customer, then advances the aged and fresh halves through the
    /// batched recurrent multiply and the fused fast-activation gate
    /// kernel. Bit-identical *in f32* to two scalar
    /// [`Lstm32::step_online_slices32`] calls per customer.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with `batch` and the shape.
    #[allow(clippy::too_many_arguments)]
    pub fn step_online_dual_block(
        &self,
        xs: &[f32],
        batch: usize,
        aged_hs: &mut [f32],
        aged_cs: &mut [f32],
        fresh_hs: &mut [f32],
        fresh_cs: &mut [f32],
        ws: &mut OnlineBlockWorkspace32,
    ) {
        let h4 = 4 * self.hidden;
        assert_eq!(xs.len(), batch * self.input, "lstm32 dual: xs length");
        assert_eq!(aged_hs.len(), batch * self.hidden, "lstm32 dual: aged h");
        assert_eq!(aged_cs.len(), batch * self.hidden, "lstm32 dual: aged c");
        assert_eq!(fresh_hs.len(), batch * self.hidden, "lstm32 dual: fresh h");
        assert_eq!(fresh_cs.len(), batch * self.hidden, "lstm32 dual: fresh c");
        ws.zx.clear();
        ws.zx.resize(batch * h4, 0.0);
        self.input_preactivations(xs, batch, &mut ws.nz, &mut ws.lanes, &mut ws.zx, &mut ws.xt);
        ws.zs.clear();
        ws.zs.resize(batch * h4, 0.0);
        ws.zs.copy_from_slice(&ws.zx);
        self.wh
            .matvec_acc_batch_level(aged_hs, batch, &mut ws.zs, self.simd, &mut ws.xt);
        self.gate_block_level(&ws.zs, batch, aged_hs, aged_cs, self.simd);
        self.wh
            .matvec_acc_batch_level(fresh_hs, batch, &mut ws.zx, self.simd, &mut ws.xt);
        self.gate_block_level(&ws.zx, batch, fresh_hs, fresh_cs, self.simd);
    }

    /// Per-customer input contribution `b + Wx·x` into `zs`, routing
    /// each row dense (tiled batch kernel over maximal runs) or sparse
    /// (transposed index kernel) — both routes bit-identical in f32.
    #[allow(clippy::too_many_arguments)]
    fn input_preactivations(
        &self,
        xs: &[f32],
        batch: usize,
        nz: &mut Vec<u32>,
        lanes: &mut Vec<f32>,
        zs: &mut [f32],
        xt: &mut Vec<f32>,
    ) {
        let h4 = 4 * self.hidden;
        for c in 0..batch {
            zs[c * h4..(c + 1) * h4].copy_from_slice(&self.b);
        }
        let mut dense_start = None;
        for c in 0..=batch {
            let is_dense = c < batch && {
                let x = &xs[c * self.input..(c + 1) * self.input];
                nz.clear();
                let nnz = nonzero_indices_into32(x, nz);
                if use_sparse(nnz, self.input) {
                    self.wxt
                        .matvec_acc_nz_t(x, nz, &mut zs[c * h4..(c + 1) * h4], lanes);
                    false
                } else {
                    true
                }
            };
            match (dense_start, is_dense) {
                (None, true) => dense_start = Some(c),
                (Some(s), false) => {
                    self.wx.matvec_acc_batch_level(
                        &xs[s * self.input..c * self.input],
                        c - s,
                        &mut zs[s * h4..c * h4],
                        self.simd,
                        xt,
                    );
                    dense_start = None;
                }
                _ => {}
            }
        }
    }

    /// The fused fast-activation gate/cell/output loop over a block's
    /// pre-activations — the same scalar arithmetic as the gate loop in
    /// [`Lstm32::step_online_slices32`].
    pub fn gate_block(&self, zs: &[f32], batch: usize, hs: &mut [f32], cs: &mut [f32]) {
        let h = self.hidden;
        for c in 0..batch {
            let z = &zs[c * 4 * h..(c + 1) * 4 * h];
            let hc = &mut hs[c * h..(c + 1) * h];
            let cc = &mut cs[c * h..(c + 1) * h];
            for k in 0..h {
                let i = fast_sigmoid32(z[k]);
                let f = fast_sigmoid32(z[h + k]);
                let g = fast_tanh32(z[2 * h + k]);
                let o = fast_sigmoid32(z[3 * h + k]);
                let cv = f * cc[k] + i * g;
                cc[k] = cv;
                hc[k] = o * fast_tanh32(cv);
            }
        }
    }

    /// [`Lstm32::gate_block`] dispatched through a [`SimdLevel`]: the
    /// vector kernels run the same rational activations with compare-mask
    /// branch replication, eight (AVX2) or four (SSE2) gate slots at a
    /// time, bit-identical to the scalar loop per slot (see
    /// [`crate::simd`]).
    pub fn gate_block_level(
        &self,
        zs: &[f32],
        batch: usize,
        hs: &mut [f32],
        cs: &mut [f32],
        level: SimdLevel,
    ) {
        #[cfg(target_arch = "x86_64")]
        match level {
            // SAFETY (both arms): a non-scalar `level` only arises from
            // `simd::detect()` / `simd::supported()` (see
            // `Lstm32::set_simd`), which verified the feature on this CPU
            // at runtime; SSE2 is part of the x86_64 baseline.
            SimdLevel::Avx2 => {
                unsafe { simd::x86::gate_block_avx2(zs, batch, self.hidden, hs, cs) };
                return;
            }
            SimdLevel::Sse2 => {
                unsafe { simd::x86::gate_block_sse2(zs, batch, self.hidden, hs, cs) };
                return;
            }
            SimdLevel::Scalar => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = level;
        self.gate_block(zs, batch, hs, cs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use proptest::prelude::*;

    fn layer(input: usize, hidden: usize, seed: u64) -> (Lstm, Lstm32) {
        let mut init = Initializer::new(seed);
        let f64_layer = Lstm::new(input, hidden, &mut init);
        let f32_layer = Lstm32::from_f64(&f64_layer);
        (f64_layer, f32_layer)
    }

    /// Deterministic pseudo-random f32 frame with planted exact zeros
    /// (sparsity routing) derived from a seed — no RNG state needed.
    fn frame(input: usize, seed: u64, sparse: bool) -> Vec<f32> {
        (0..input)
            .map(|i| {
                let mut v = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xd134_2543_de82_ef95);
                v ^= v >> 29;
                if sparse && v % 4 != 0 {
                    0.0
                } else {
                    ((v % 2001) as f32 - 1000.0) / 250.0
                }
            })
            .collect()
    }

    #[test]
    fn widen_roundtrips_weights() {
        let (l64, l32) = layer(7, 5, 3);
        assert_eq!(l32.input_dim(), 7);
        assert_eq!(l32.hidden_dim(), 5);
        for r in 0..4 * 5 {
            for (c, &w) in l64.wx().row(r).iter().enumerate() {
                assert_eq!(l32.wx.row(r)[c], w as f32);
                assert_eq!(l32.wxt.row(c)[r], w as f32);
            }
        }
        for (k, &b) in l64.bias().iter().enumerate() {
            assert_eq!(l32.b[k], b as f32);
        }
    }

    proptest! {
        /// The dual block kernel is bit-identical (in f32) to the
        /// scalar reference step per customer, across batch sizes that
        /// exercise tile boundaries and mixed dense/sparse routing.
        #[test]
        fn dual_block_matches_scalar(
            batch in 1usize..20,
            input in 1usize..19,
            hidden in 1usize..11,
            seed in 0u64..1000,
        ) {
            let (_, l32) = layer(input, hidden, seed);
            let mut aged_h = vec![0.0f32; batch * hidden];
            let mut aged_c = vec![0.0f32; batch * hidden];
            for (i, v) in aged_h.iter_mut().enumerate() {
                *v = (i as f32).sin() * 0.4;
            }
            for (i, v) in aged_c.iter_mut().enumerate() {
                *v = (i as f32).cos() * 0.7;
            }
            let mut fresh_h: Vec<f32> =
                aged_h.iter().map(|v| v * 0.5).collect();
            let mut fresh_c: Vec<f32> =
                aged_c.iter().map(|v| v * -0.25).collect();
            let mut xs = Vec::new();
            for c in 0..batch {
                xs.extend(frame(input, seed ^ ((c as u64) << 3), c % 2 == 0));
            }
            // Scalar reference: two step_online_slices32 per customer.
            let (mut rah, mut rac) = (aged_h.clone(), aged_c.clone());
            let (mut rfh, mut rfc) = (fresh_h.clone(), fresh_c.clone());
            let mut z = Vec::new();
            for c in 0..batch {
                let x = &xs[c * input..(c + 1) * input];
                l32.step_online_slices32(
                    x, &mut rah[c * hidden..(c + 1) * hidden],
                    &mut rac[c * hidden..(c + 1) * hidden], &mut z);
                l32.step_online_slices32(
                    x, &mut rfh[c * hidden..(c + 1) * hidden],
                    &mut rfc[c * hidden..(c + 1) * hidden], &mut z);
            }
            let mut ws = OnlineBlockWorkspace32::new();
            l32.step_online_dual_block(
                &xs, batch, &mut aged_h, &mut aged_c,
                &mut fresh_h, &mut fresh_c, &mut ws);
            for (a, b) in aged_h.iter().zip(&rah) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in aged_c.iter().zip(&rac) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in fresh_h.iter().zip(&rfh) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in fresh_c.iter().zip(&rfc) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Sparse index kernel ≡ dense kernel in f32, with planted
        /// exact zeros (including -0.0).
        #[test]
        fn nz_t_matches_dense(
            rows in 1usize..17,
            cols in 1usize..17,
            seed in 0u64..1000,
        ) {
            let mut data = vec![0.0f32; rows * cols];
            for (i, v) in data.iter_mut().enumerate() {
                *v = ((seed % 89) as f32 * 0.31 + i as f32).sin();
            }
            let m = Matrix32 { rows, cols, data };
            let mt = m.transpose();
            let mut x = frame(rows, seed, true);
            x[0] = -0.0; // -0.0 must be treated as zero
            let mut nz = Vec::new();
            nonzero_indices_into32(&x, &mut nz);
            // Contract: m.matvec_acc_nz_t(x, …) ≡ mᵀ.matvec_acc(x, …)
            // (the fleet calls it on the precomputed Wxᵀ so the result
            // must equal the dense Wx·x).
            let mut dense = vec![0.0f32; cols];
            mt.matvec_acc(&x, &mut dense);
            let mut sparse = vec![0.0f32; cols];
            let mut lanes = Vec::new();
            m.matvec_acc_nz_t(&x, &nz, &mut sparse, &mut lanes);
            for (a, b) in sparse.iter().zip(&dense) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Batched kernel ≡ per-column matvec in f32 across tile
        /// boundaries.
        #[test]
        fn batch_matches_per_column(
            rows in 1usize..13,
            cols in 1usize..13,
            batch in 1usize..20,
            seed in 0u64..1000,
        ) {
            let mut data = vec![0.0f32; rows * cols];
            for (i, v) in data.iter_mut().enumerate() {
                *v = (((seed % 97) as f32 * 0.13 + i as f32).cos()) as f32;
            }
            let m = Matrix32 { rows, cols, data };
            let mut xs = Vec::new();
            for c in 0..batch {
                xs.extend(frame(cols, seed ^ ((c as u64) << 5), false));
            }
            let mut batched = vec![0.0f32; batch * rows];
            m.matvec_acc_batch(&xs, batch, &mut batched);
            for c in 0..batch {
                let mut y = vec![0.0f32; rows];
                m.matvec_acc(&xs[c * cols..(c + 1) * cols], &mut y);
                for (a, b) in batched[c * rows..(c + 1) * rows].iter().zip(&y) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// Level-dispatched batched matvec ≡ the scalar tile reference at
        /// every level the host supports, with batches crossing the
        /// 8-customer `ymm` tile boundary (0-ULP).
        #[test]
        fn batch_level_matches_scalar(
            rows in 1usize..13,
            cols in 1usize..13,
            batch in 1usize..20,
            seed in 0u64..1000,
        ) {
            let mut data = vec![0.0f32; rows * cols];
            for (i, v) in data.iter_mut().enumerate() {
                *v = ((seed % 97) as f32 * 0.13 + i as f32).cos();
            }
            let m = Matrix32 { rows, cols, data };
            let mut xs = Vec::new();
            for c in 0..batch {
                xs.extend(frame(cols, seed ^ ((c as u64) << 5), c % 3 == 0));
            }
            let mut reference = vec![0.0f32; batch * rows];
            m.matvec_acc_batch(&xs, batch, &mut reference);
            let mut xt = Vec::new();
            for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                if level > simd::supported() {
                    continue;
                }
                let mut ys = vec![0.0f32; batch * rows];
                m.matvec_acc_batch_level(&xs, batch, &mut ys, level, &mut xt);
                for (a, b) in ys.iter().zip(&reference) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// Level-dispatched gate kernel ≡ the scalar gate loop at every
        /// supported level, including saturated, non-finite, and
        /// clamp-boundary pre-activations (0-ULP).
        #[test]
        fn gate_level_matches_scalar(
            batch in 1usize..6,
            hidden in 1usize..20,
            seed in 0u64..1000,
        ) {
            let (_, l32) = layer(3, hidden, seed);
            let mut zs = Vec::new();
            for c in 0..batch {
                let mut z = frame(4 * hidden, seed ^ ((c as u64) << 7), false);
                for v in z.iter_mut() {
                    *v *= 3.0;
                }
                // Branch-edge values at deterministic slots.
                z[0] = f32::NAN;
                if z.len() > 2 {
                    z[1] = f32::INFINITY;
                    z[2] = f32::NEG_INFINITY;
                }
                if z.len() > 4 {
                    z[3] = crate::fastmath::CLAMP as f32;
                    z[4] = -(crate::fastmath::CLAMP as f32);
                }
                zs.extend(z);
            }
            let mut hs0 = vec![0.0f32; batch * hidden];
            let mut cs0 = vec![0.0f32; batch * hidden];
            for (i, v) in hs0.iter_mut().enumerate() {
                *v = (i as f32).sin() * 0.3;
            }
            for (i, v) in cs0.iter_mut().enumerate() {
                *v = (i as f32).cos() * 0.9;
            }
            let (mut rh, mut rc) = (hs0.clone(), cs0.clone());
            l32.gate_block(&zs, batch, &mut rh, &mut rc);
            for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                if level > simd::supported() {
                    continue;
                }
                let (mut h, mut c) = (hs0.clone(), cs0.clone());
                l32.gate_block_level(&zs, batch, &mut h, &mut c, level);
                for (a, b) in h.iter().zip(&rh) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in c.iter().zip(&rc) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Forcing the scalar path after construction reproduces the
    /// auto-dispatched dual-block step bit-for-bit — the contract behind
    /// the `XATU_NO_SIMD` / `no_simd` escape hatch.
    #[test]
    fn forced_scalar_dual_block_matches_auto_dispatch() {
        let (_, auto_l) = layer(13, 9, 42);
        let mut scalar_l = auto_l.clone();
        scalar_l.set_simd(SimdLevel::Scalar);
        assert_eq!(scalar_l.simd_level(), SimdLevel::Scalar);
        let (input, hidden) = (13usize, 9usize);
        let batch = 17; // crosses the 8-lane tile boundary with remainder
        let mut xs = Vec::new();
        for c in 0..batch {
            xs.extend(frame(input, 42 ^ ((c as u64) << 3), c % 2 == 0));
        }
        let mk = |l: &Lstm32| {
            let mut ah = vec![0.0f32; batch * hidden];
            let mut ac = vec![0.0f32; batch * hidden];
            for (i, v) in ah.iter_mut().enumerate() {
                *v = (i as f32).sin() * 0.4;
            }
            for (i, v) in ac.iter_mut().enumerate() {
                *v = (i as f32).cos() * 0.7;
            }
            let mut fh: Vec<f32> = ah.iter().map(|v| v * 0.5).collect();
            let mut fc: Vec<f32> = ac.iter().map(|v| v * -0.25).collect();
            let mut ws = OnlineBlockWorkspace32::new();
            for _ in 0..3 {
                l.step_online_dual_block(&xs, batch, &mut ah, &mut ac, &mut fh, &mut fc, &mut ws);
            }
            (ah, ac, fh, fc)
        };
        let a = mk(&auto_l);
        let s = mk(&scalar_l);
        assert!(
            a.0.iter().zip(&s.0).all(|(x, y)| x.to_bits() == y.to_bits())
                && a.1.iter().zip(&s.1).all(|(x, y)| x.to_bits() == y.to_bits())
                && a.2.iter().zip(&s.2).all(|(x, y)| x.to_bits() == y.to_bits())
                && a.3.iter().zip(&s.3).all(|(x, y)| x.to_bits() == y.to_bits()),
            "auto-dispatch ({}) diverged from forced scalar",
            auto_l.simd_level().name()
        );
    }
}
