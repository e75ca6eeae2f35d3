//! Runtime-dispatched SIMD kernels for the fleet hot path: the `f32`
//! backend's `std::arch` kernels, and the AVX2 instantiation of the exact
//! backend's one `f64` kernel.
//!
//! # The lane-over-batch rule (`f32` backend)
//!
//! Every `f32` vector kernel here widens across the **customer-batch dimension**
//! (or, for the elementwise gate kernels, across independent gate slots),
//! never across a single customer's reduction. Customers are independent
//! columns, so putting eight customers in the eight lanes of a `ymm`
//! register leaves each customer's summation chain — the four-lane
//! accumulator split, the `(s0 + s1) + (s2 + s3)` fold, the index-order
//! tail — exactly as the scalar `lstm32` reference computes it. The SIMD
//! path is therefore **bit-identical** to scalar, not merely close: lane
//! `j` performs the same IEEE-754 operations in the same order as scalar
//! customer `j`.
//!
//! Two deliberate non-optimizations keep that true:
//!
//! * **No FMA.** The scalar reference rounds after the multiply and again
//!   after the add; `vfmadd*` rounds once. All accumulation uses separate
//!   `mul` + `add` intrinsics even on FMA-capable hosts.
//! * **No horizontal operations.** Reductions stay per-lane; results are
//!   stored and scattered scalar-wise, matching the reference's store
//!   order.
//!
//! Activation kernels replicate `fastmath`'s branch semantics with
//! compare masks: lanes `>= CLAMP` blend to `1.0` (covering `+inf`),
//! lanes `<= -CLAMP` blend to `-1.0` (covering `-inf`), unordered lanes
//! (NaN) blend to `0.0`, and the rational core uses the same Horner
//! order, the same correctly-rounded division, and the same
//! `min`/`max` clamp as the scalar `fast_tanh32`. The three masks are
//! mutually exclusive, so blend order is immaterial.
//!
//! # The lane-over-output rule (exact backend)
//!
//! [`crate::Matrix::matvec_acc_t_lanes`] widens across the **outputs** of
//! one customer's matvec: element `k` of a register is output `k`'s
//! partial sum for one `dot4` lane, so every output keeps the scalar
//! summation chain and no reduction is ever reordered. The kernel has no
//! intrinsics at all: its body is safe Rust over fixed-size arrays,
//! compiled once at the baseline and once inside [`x86::t_lanes_avx2`].
//! rustc never contracts `a * b + c` into an FMA, so the two copies are
//! the same IEEE-754 operations at different register widths.
//!
//! # Dispatch
//!
//! [`detect`] picks the widest level the host supports unless the
//! `XATU_NO_SIMD` environment variable forces scalar; `XatuConfig`'s
//! `no_simd` knob overrides both (config > env > auto, mirroring
//! `XATU_THREADS`). The level is captured at layer construction
//! ([`crate::Lstm::new`], [`crate::Lstm32::from_f64`]) and consulted per
//! batched step; the scalar path remains the reference implementation and
//! the permanent fallback for non-x86_64 targets and remainder tiles.
#![deny(unsafe_op_in_unsafe_fn)]

/// SIMD width selector for the batched kernels, ordered by width so
/// callers can clamp a requested level to [`supported`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable reference path (always available; the bit-exact oracle).
    Scalar,
    /// 128-bit `xmm` kernels, 4 customers per register.
    Sse2,
    /// 256-bit `ymm` kernels, 8 customers per register.
    Avx2,
}

impl SimdLevel {
    /// Stable lower-case label for benchmark JSON and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Widest level this CPU can execute, ignoring overrides.
pub fn supported() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return SimdLevel::Sse2;
        }
    }
    SimdLevel::Scalar
}

/// Effective level after the `XATU_NO_SIMD` environment override.
///
/// Unset, empty, or `"0"` means auto-detect; any other value forces
/// [`SimdLevel::Scalar`]. The variable is read fresh on every call (this
/// runs at model construction, not per minute), so `XATU_NO_SIMD=1`
/// reruns of an unmodified binary genuinely exercise the scalar path.
pub fn detect() -> SimdLevel {
    let forced_scalar = match std::env::var_os("XATU_NO_SIMD") {
        None => false,
        Some(v) => !(v.is_empty() || v == "0"),
    };
    if forced_scalar {
        SimdLevel::Scalar
    } else {
        supported()
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! The `std::arch` kernels. Every public function is a **safe-bodied**
    //! `#[target_feature]` function: the body upholds memory safety via
    //! slice reslicing (the only `unsafe` blocks wrap unaligned loads and
    //! stores whose bounds the reslice just proved), and callers assert
    //! the CPU feature by calling through an `unsafe` block guarded by
    //! [`super::SimdLevel`] dispatch. Each kernel restates its slice-length
    //! preconditions as `debug_assert_eq!` on entry, so the dispatch sweeps
    //! in the test suites check the callers' shapes at every level.

    use crate::fastmath::{
        fast_sigmoid32, fast_tanh32, A1, A11, A13, A3, A5, A7, A9, B0, B2, B4, B6, CLAMP,
    };
    use core::arch::x86_64::*;

    /// Saturation threshold as the f32 the scalar reference compares with.
    const CLAMP32: f32 = CLAMP as f32;

    // ----------------------------------------------------------- f64, AVX2

    /// The AVX2 instantiation of [`crate::matrix::t_lanes`]: the same safe
    /// body, inlined here so LLVM selects 256-bit multiplies and adds for
    /// it. No intrinsics, no FMA — bit-identical to the plain copy.
    #[target_feature(enable = "avx2")]
    pub(crate) fn t_lanes_avx2(
        wt: &[f64],
        x: &[f64],
        idx: &crate::matrix::LaneIndices,
        y: &mut [f64],
    ) {
        crate::matrix::t_lanes(wt, x, idx, y);
    }

    /// The AVX2 instantiation of [`crate::lstm::gate_rows`], by the same
    /// construction: `exp`, `sigmoid` and `tanh` inline into the lane loops
    /// and LLVM selects 256-bit `+ − × ÷`, compares and blends for them.
    #[target_feature(enable = "avx2")]
    pub(crate) fn gate_rows_avx2(zs: &[f64], hidden: usize, hs: &mut [f64], cs: &mut [f64]) {
        debug_assert_eq!(zs.len(), 4 * hs.len());
        debug_assert_eq!(hs.len(), cs.len());
        crate::lstm::gate_rows(zs, hidden, hs, cs);
    }

    // ---------------------------------------------------------------- AVX2

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load8(s: &[f32]) -> __m256 {
        let s = &s[..8];
        // SAFETY: the reslice above proves 8 readable f32s; `loadu` has no
        // alignment requirement.
        unsafe { _mm256_loadu_ps(s.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store8(d: &mut [f32], v: __m256) {
        let d = &mut d[..8];
        // SAFETY: the reslice above proves 8 writable f32s; `storeu` has
        // no alignment requirement.
        unsafe { _mm256_storeu_ps(d.as_mut_ptr(), v) }
    }

    /// Eight-lane `fast_tanh32`: same rational core, same branch results,
    /// bit-identical per lane (see the module docs for the mask scheme).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn fast_tanh8(x: __m256) -> __m256 {
        let x2 = _mm256_mul_ps(x, x);
        let mut p = _mm256_set1_ps(A13 as f32);
        p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(A11 as f32));
        p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(A9 as f32));
        p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(A7 as f32));
        p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(A5 as f32));
        p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(A3 as f32));
        p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(A1 as f32));
        let mut q = _mm256_set1_ps(B6 as f32);
        q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(B4 as f32));
        q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(B2 as f32));
        q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(B0 as f32));
        let one = _mm256_set1_ps(1.0);
        let neg_one = _mm256_set1_ps(-1.0);
        let mut r = _mm256_div_ps(_mm256_mul_ps(x, p), q);
        r = _mm256_min_ps(r, one);
        r = _mm256_max_ps(r, neg_one);
        // Branch replication: saturated lanes (including ±inf) and NaN
        // lanes take the scalar early-return values.
        let hi = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_set1_ps(CLAMP32));
        let lo = _mm256_cmp_ps::<_CMP_LE_OQ>(x, _mm256_set1_ps(-CLAMP32));
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        r = _mm256_blendv_ps(r, one, hi);
        r = _mm256_blendv_ps(r, neg_one, lo);
        r = _mm256_blendv_ps(r, _mm256_setzero_ps(), nan);
        r
    }

    /// Eight-lane `fast_sigmoid32`: `0.5 + 0.5 * tanh(0.5 * x)`, same op
    /// order as the scalar reference.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn fast_sigmoid8(x: __m256) -> __m256 {
        let half = _mm256_set1_ps(0.5);
        let t = fast_tanh8(_mm256_mul_ps(half, x));
        _mm256_add_ps(half, _mm256_mul_ps(half, t))
    }

    /// AVX2 batched matvec-accumulate over complete 8-customer tiles.
    ///
    /// Computes `ys[c*rows + r] += dot(row r of data, xs[c])` for the
    /// first `batch - batch % 8` customers; the caller finishes the
    /// remainder with the scalar per-column path. `xt` is an `8 * cols`
    /// transpose scratch (customer-major → lane-major), amortized across
    /// all `rows` dot products of a tile.
    ///
    /// Bit-identity: lane `j` accumulates `w[k+l] * x_j[k+l]` into the
    /// same four accumulators, folds `(s0 + s1) + (s2 + s3)`, and adds
    /// tail terms in index order — the scalar tile kernel verbatim.
    #[target_feature(enable = "avx2")]
    pub(crate) fn matvec_acc_batch_avx2(
        data: &[f32],
        rows: usize,
        cols: usize,
        xs: &[f32],
        batch: usize,
        ys: &mut [f32],
        xt: &mut [f32],
    ) {
        debug_assert_eq!(xs.len(), batch * cols);
        debug_assert_eq!(ys.len(), batch * rows);
        assert_eq!(data.len(), rows * cols);
        assert!(xs.len() >= batch * cols && ys.len() >= batch * rows);
        assert_eq!(xt.len(), 8 * cols);
        let tiles = batch - batch % 8;
        let lanes = cols - cols % 4;
        let mut c = 0;
        while c < tiles {
            for j in 0..8 {
                let xj = &xs[(c + j) * cols..(c + j + 1) * cols];
                for (k, &v) in xj.iter().enumerate() {
                    xt[k * 8 + j] = v;
                }
            }
            for r in 0..rows {
                let row = &data[r * cols..(r + 1) * cols];
                let mut acc = [_mm256_setzero_ps(); 4];
                let mut k = 0;
                while k < lanes {
                    for (l, a) in acc.iter_mut().enumerate() {
                        let w = _mm256_set1_ps(row[k + l]);
                        let x = load8(&xt[(k + l) * 8..]);
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(w, x));
                    }
                    k += 4;
                }
                let mut s = _mm256_add_ps(
                    _mm256_add_ps(acc[0], acc[1]),
                    _mm256_add_ps(acc[2], acc[3]),
                );
                for t in lanes..cols {
                    let w = _mm256_set1_ps(row[t]);
                    let x = load8(&xt[t * 8..]);
                    s = _mm256_add_ps(s, _mm256_mul_ps(w, x));
                }
                let mut out = [0.0f32; 8];
                store8(&mut out, s);
                for (j, &v) in out.iter().enumerate() {
                    ys[(c + j) * rows + r] += v;
                }
            }
            c += 8;
        }
    }

    /// AVX2 fused gate kernel: per customer, vectorizes the elementwise
    /// i/f/g/o activations and cell update across contiguous gate slots
    /// in chunks of 8, finishing the `hidden % 8` remainder with the
    /// scalar activations in slot order.
    #[target_feature(enable = "avx2")]
    pub(crate) fn gate_block_avx2(
        zs: &[f32],
        batch: usize,
        hidden: usize,
        hs: &mut [f32],
        cs: &mut [f32],
    ) {
        debug_assert_eq!(zs.len(), batch * 4 * hidden);
        debug_assert_eq!(hs.len(), batch * hidden);
        debug_assert_eq!(cs.len(), batch * hidden);
        assert!(zs.len() >= batch * 4 * hidden);
        assert!(hs.len() >= batch * hidden && cs.len() >= batch * hidden);
        let vh = hidden - hidden % 8;
        for c in 0..batch {
            let z = &zs[c * 4 * hidden..(c + 1) * 4 * hidden];
            let hc = &mut hs[c * hidden..(c + 1) * hidden];
            let cc = &mut cs[c * hidden..(c + 1) * hidden];
            let mut k = 0;
            while k < vh {
                let i = fast_sigmoid8(load8(&z[k..]));
                let f = fast_sigmoid8(load8(&z[hidden + k..]));
                let g = fast_tanh8(load8(&z[2 * hidden + k..]));
                let o = fast_sigmoid8(load8(&z[3 * hidden + k..]));
                let cv = _mm256_add_ps(_mm256_mul_ps(f, load8(&cc[k..])), _mm256_mul_ps(i, g));
                store8(&mut cc[k..], cv);
                let h = _mm256_mul_ps(o, fast_tanh8(cv));
                store8(&mut hc[k..], h);
                k += 8;
            }
            for k in vh..hidden {
                let i = fast_sigmoid32(z[k]);
                let f = fast_sigmoid32(z[hidden + k]);
                let g = fast_tanh32(z[2 * hidden + k]);
                let o = fast_sigmoid32(z[3 * hidden + k]);
                let cv = f * cc[k] + i * g;
                cc[k] = cv;
                hc[k] = o * fast_tanh32(cv);
            }
        }
    }

    // ---------------------------------------------------------------- SSE2

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load4(s: &[f32]) -> __m128 {
        let s = &s[..4];
        // SAFETY: the reslice above proves 4 readable f32s; `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_ps(s.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store4(d: &mut [f32], v: __m128) {
        let d = &mut d[..4];
        // SAFETY: the reslice above proves 4 writable f32s; `storeu` has
        // no alignment requirement.
        unsafe { _mm_storeu_ps(d.as_mut_ptr(), v) }
    }

    /// Bitwise select: lanes of `b` where `mask` is all-ones, else `a`
    /// (SSE2 has no `blendv`, so and/andnot/or).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn select4(a: __m128, b: __m128, mask: __m128) -> __m128 {
        _mm_or_ps(_mm_and_ps(mask, b), _mm_andnot_ps(mask, a))
    }

    /// Four-lane `fast_tanh32`; see [`fast_tanh8`].
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn fast_tanh4(x: __m128) -> __m128 {
        let x2 = _mm_mul_ps(x, x);
        let mut p = _mm_set1_ps(A13 as f32);
        p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(A11 as f32));
        p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(A9 as f32));
        p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(A7 as f32));
        p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(A5 as f32));
        p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(A3 as f32));
        p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(A1 as f32));
        let mut q = _mm_set1_ps(B6 as f32);
        q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(B4 as f32));
        q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(B2 as f32));
        q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(B0 as f32));
        let one = _mm_set1_ps(1.0);
        let neg_one = _mm_set1_ps(-1.0);
        let mut r = _mm_div_ps(_mm_mul_ps(x, p), q);
        r = _mm_min_ps(r, one);
        r = _mm_max_ps(r, neg_one);
        let hi = _mm_cmpge_ps(x, _mm_set1_ps(CLAMP32));
        let lo = _mm_cmple_ps(x, _mm_set1_ps(-CLAMP32));
        let nan = _mm_cmpunord_ps(x, x);
        r = select4(r, one, hi);
        r = select4(r, neg_one, lo);
        r = select4(r, _mm_setzero_ps(), nan);
        r
    }

    /// Four-lane `fast_sigmoid32`; see [`fast_sigmoid8`].
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn fast_sigmoid4(x: __m128) -> __m128 {
        let half = _mm_set1_ps(0.5);
        let t = fast_tanh4(_mm_mul_ps(half, x));
        _mm_add_ps(half, _mm_mul_ps(half, t))
    }

    /// SSE2 batched matvec-accumulate over complete 4-customer tiles;
    /// see [`matvec_acc_batch_avx2`]. `xt` is `4 * cols`.
    #[target_feature(enable = "sse2")]
    pub(crate) fn matvec_acc_batch_sse2(
        data: &[f32],
        rows: usize,
        cols: usize,
        xs: &[f32],
        batch: usize,
        ys: &mut [f32],
        xt: &mut [f32],
    ) {
        debug_assert_eq!(xs.len(), batch * cols);
        debug_assert_eq!(ys.len(), batch * rows);
        assert_eq!(data.len(), rows * cols);
        assert!(xs.len() >= batch * cols && ys.len() >= batch * rows);
        assert_eq!(xt.len(), 4 * cols);
        let tiles = batch - batch % 4;
        let lanes = cols - cols % 4;
        let mut c = 0;
        while c < tiles {
            for j in 0..4 {
                let xj = &xs[(c + j) * cols..(c + j + 1) * cols];
                for (k, &v) in xj.iter().enumerate() {
                    xt[k * 4 + j] = v;
                }
            }
            for r in 0..rows {
                let row = &data[r * cols..(r + 1) * cols];
                let mut acc = [_mm_setzero_ps(); 4];
                let mut k = 0;
                while k < lanes {
                    for (l, a) in acc.iter_mut().enumerate() {
                        let w = _mm_set1_ps(row[k + l]);
                        let x = load4(&xt[(k + l) * 4..]);
                        *a = _mm_add_ps(*a, _mm_mul_ps(w, x));
                    }
                    k += 4;
                }
                let mut s = _mm_add_ps(_mm_add_ps(acc[0], acc[1]), _mm_add_ps(acc[2], acc[3]));
                for t in lanes..cols {
                    let w = _mm_set1_ps(row[t]);
                    let x = load4(&xt[t * 4..]);
                    s = _mm_add_ps(s, _mm_mul_ps(w, x));
                }
                let mut out = [0.0f32; 4];
                store4(&mut out, s);
                for (j, &v) in out.iter().enumerate() {
                    ys[(c + j) * rows + r] += v;
                }
            }
            c += 4;
        }
    }

    /// SSE2 fused gate kernel; see [`gate_block_avx2`].
    #[target_feature(enable = "sse2")]
    pub(crate) fn gate_block_sse2(
        zs: &[f32],
        batch: usize,
        hidden: usize,
        hs: &mut [f32],
        cs: &mut [f32],
    ) {
        debug_assert_eq!(zs.len(), batch * 4 * hidden);
        debug_assert_eq!(hs.len(), batch * hidden);
        debug_assert_eq!(cs.len(), batch * hidden);
        assert!(zs.len() >= batch * 4 * hidden);
        assert!(hs.len() >= batch * hidden && cs.len() >= batch * hidden);
        let vh = hidden - hidden % 4;
        for c in 0..batch {
            let z = &zs[c * 4 * hidden..(c + 1) * 4 * hidden];
            let hc = &mut hs[c * hidden..(c + 1) * hidden];
            let cc = &mut cs[c * hidden..(c + 1) * hidden];
            let mut k = 0;
            while k < vh {
                let i = fast_sigmoid4(load4(&z[k..]));
                let f = fast_sigmoid4(load4(&z[hidden + k..]));
                let g = fast_tanh4(load4(&z[2 * hidden + k..]));
                let o = fast_sigmoid4(load4(&z[3 * hidden + k..]));
                let cv = _mm_add_ps(_mm_mul_ps(f, load4(&cc[k..])), _mm_mul_ps(i, g));
                store4(&mut cc[k..], cv);
                let h = _mm_mul_ps(o, fast_tanh4(cv));
                store4(&mut hc[k..], h);
                k += 4;
            }
            for k in vh..hidden {
                let i = fast_sigmoid32(z[k]);
                let f = fast_sigmoid32(z[hidden + k]);
                let g = fast_tanh32(z[2 * hidden + k]);
                let o = fast_sigmoid32(z[3 * hidden + k]);
                let cv = f * cc[k] + i * g;
                cc[k] = cv;
                hc[k] = o * fast_tanh32(cv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_by_width() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }

    #[test]
    fn detect_never_exceeds_supported() {
        assert!(detect() <= supported());
    }

    /// Edge inputs that exercise every branch of the scalar activations:
    /// saturation boundaries, non-finite lanes, signed zero, and values
    /// spanning the rational core's range.
    #[cfg(target_arch = "x86_64")]
    fn edge_inputs() -> Vec<f32> {
        use crate::fastmath::CLAMP;
        let c = CLAMP as f32;
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            c,
            -c,
            c - f32::EPSILON * c,
            -(c - f32::EPSILON * c),
            c + 1.0,
            -(c + 1.0),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
        ];
        for i in 0..64 {
            xs.push((i as f32 - 32.0) * 0.37);
        }
        xs
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_activations_match_scalar_bitwise() {
        use crate::fastmath::{fast_sigmoid32, fast_tanh32};
        if supported() < SimdLevel::Avx2 {
            eprintln!("skipping: host lacks AVX2");
            return;
        }
        let mut xs = edge_inputs();
        while !xs.len().is_multiple_of(8) {
            xs.push(0.0);
        }
        for chunk in xs.chunks_exact(8) {
            let mut tanh = [0.0f32; 8];
            let mut sig = [0.0f32; 8];
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe {
                use core::arch::x86_64::*;
                let v = _mm256_loadu_ps(chunk.as_ptr());
                _mm256_storeu_ps(tanh.as_mut_ptr(), x86::fast_tanh8(v));
                _mm256_storeu_ps(sig.as_mut_ptr(), x86::fast_sigmoid8(v));
            }
            for (j, &x) in chunk.iter().enumerate() {
                assert_eq!(
                    tanh[j].to_bits(),
                    fast_tanh32(x).to_bits(),
                    "tanh lane {j} for x={x:?}"
                );
                assert_eq!(
                    sig[j].to_bits(),
                    fast_sigmoid32(x).to_bits(),
                    "sigmoid lane {j} for x={x:?}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_activations_match_scalar_bitwise() {
        use crate::fastmath::{fast_sigmoid32, fast_tanh32};
        if supported() < SimdLevel::Sse2 {
            eprintln!("skipping: host lacks SSE2");
            return;
        }
        let mut xs = edge_inputs();
        while !xs.len().is_multiple_of(4) {
            xs.push(0.0);
        }
        for chunk in xs.chunks_exact(4) {
            let mut tanh = [0.0f32; 4];
            let mut sig = [0.0f32; 4];
            // SAFETY: SSE2 support was just verified at runtime.
            unsafe {
                use core::arch::x86_64::*;
                let v = _mm_loadu_ps(chunk.as_ptr());
                _mm_storeu_ps(tanh.as_mut_ptr(), x86::fast_tanh4(v));
                _mm_storeu_ps(sig.as_mut_ptr(), x86::fast_sigmoid4(v));
            }
            for (j, &x) in chunk.iter().enumerate() {
                assert_eq!(
                    tanh[j].to_bits(),
                    fast_tanh32(x).to_bits(),
                    "tanh lane {j} for x={x:?}"
                );
                assert_eq!(
                    sig[j].to_bits(),
                    fast_sigmoid32(x).to_bits(),
                    "sigmoid lane {j} for x={x:?}"
                );
            }
        }
    }
}
