//! Runtime dispatch of the online kernels: the AVX2 instantiation of the
//! two `f64` bodies the fleet step spends its time in.
//!
//! # The lane-over-output rule
//!
//! [`crate::Matrix::matvec_acc_t_lanes`] widens across the **outputs** of
//! one customer's matvec: element `k` of a register is output `k`'s
//! partial sum for one `dot4` lane, so every output keeps the scalar
//! summation chain and no reduction is ever reordered. The gate loop
//! ([`crate::ServingLstm::gate_block`]) widens across a row's hidden units, each
//! an independent chain of IEEE `+ − × ÷`. Neither kernel has intrinsics:
//! each body is safe Rust over fixed-size arrays or zipped slices,
//! compiled once at the baseline and once inside `x86::t_lanes_avx2` /
//! `x86::gate_rows_avx2`. rustc never contracts `a * b + c` into an FMA,
//! so the two copies are the same IEEE-754 operations at different
//! register widths.
//!
//! # Dispatch
//!
//! [`detect`] picks the widest level the host supports unless the
//! `XATU_NO_SIMD` environment variable forces scalar; `XatuConfig`'s
//! `no_simd` knob overrides both (config > env > auto, mirroring
//! `XATU_THREADS`). The level is captured at layer construction
//! ([`crate::ServingLstm::new`]) and consulted per call; the plain instantiation
//! is the reference and the permanent fallback for non-x86_64 targets.
#![deny(unsafe_op_in_unsafe_fn)]

/// Which instantiation of the online kernels runs, ordered by width so
/// callers can clamp a requested level to [`supported`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The plain instantiation (always available; the bit-exact oracle).
    Scalar,
    /// The `#[target_feature(enable = "avx2")]` instantiation.
    Avx2,
}

impl SimdLevel {
    /// Stable lower-case label for benchmark JSON and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
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
    //! The AVX2 instantiations. Each is a safe-bodied `#[target_feature]`
    //! function; callers assert the CPU feature by calling through an
    //! `unsafe` block guarded by [`super::SimdLevel`] dispatch.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_by_width() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }

    #[test]
    fn detect_never_exceeds_supported() {
        assert!(detect() <= supported());
    }

    /// The in-tree activations, inlined into a loop at AVX2 width, return
    /// the bits of one scalar call per element — the property both
    /// instantiations of the gate loop stand on.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_activations_match_scalar_bitwise() {
        use crate::activations::{sigmoid, tanh, TANH_CUT};
        // Generic over the activation's zero-sized fn type, so it inlines
        // into the AVX2 loop (a `fn` pointer would not).
        #[target_feature(enable = "avx2")]
        fn map_avx2(f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x);
            }
        }
        if supported() < SimdLevel::Avx2 {
            eprintln!("skipping: host lacks AVX2");
            return;
        }
        let mut xs = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            TANH_CUT,
            -TANH_CUT,
            TANH_CUT - f64::EPSILON,
            745.0,
            -745.0,
            -746.0,
        ];
        xs.extend((0..64).map(|i| (i as f64 - 32.0) * 0.37));
        let check = |name: &str, f: fn(f64) -> f64, out: &[f64]| {
            for (&x, &got) in xs.iter().zip(out) {
                let want = f(x);
                let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
                assert!(same, "{name}({x:e}): {got:e} vs {want:e}");
            }
        };
        let mut out = vec![0.0; xs.len()];
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { map_avx2(sigmoid, &xs, &mut out) };
        check("sigmoid", sigmoid, &out);
        // SAFETY: as above.
        unsafe { map_avx2(tanh, &xs, &mut out) };
        check("tanh", tanh, &out);
    }
}
