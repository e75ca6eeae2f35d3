//! Runtime dispatch of the online kernels: the AVX2 and AVX-512
//! instantiations of the two `f64` bodies the fleet step spends its time
//! in.
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
//! compiled once at the baseline and once inside each `#[target_feature]`
//! wrapper of the private `x86` module. rustc never contracts `a * b + c`
//! into an FMA, so the copies are the same IEEE-754 operations at
//! different register widths.
//!
//! # Dispatch
//!
//! [`detect`] picks the widest level the host supports unless the
//! `XATU_NO_SIMD` environment variable forces scalar; a detector's
//! `set_simd` pins a level of its own. The level is captured at layer
//! construction ([`crate::ServingLstm::new`]) and consulted per call,
//! clamped to [`supported`] in the one `match` per kernel (the private
//! `t_lanes` and `gate_rows` here); the plain instantiation is the
//! reference and the permanent fallback for non-x86_64 targets.
#![deny(unsafe_op_in_unsafe_fn)]

/// Which instantiation of the online kernels runs, ordered by width so
/// callers can clamp a requested level to [`supported`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The plain instantiation (always available; the bit-exact oracle).
    Scalar,
    /// The `#[target_feature(enable = "avx2")]` instantiation.
    Avx2,
    /// The `#[target_feature(enable = "avx512f")]` instantiation.
    Avx512,
}

impl SimdLevel {
    /// Stable lower-case label for benchmark JSON and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Widest level this CPU can execute, ignoring overrides. Every level
/// below it runs too: AVX-512 is only reported beside AVX2.
pub fn supported() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Every level this CPU can execute, scalar first: the levels a
/// bit-identity test or a bench row runs at.
pub fn levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&level| level <= supported())
        .collect()
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

/// [`crate::matrix::t_lanes`] at `level`, clamped to [`supported`]: the
/// plain copy, or the AVX2 or AVX-512 wrapper. Every level returns the
/// same bits.
#[inline]
pub(crate) fn t_lanes(
    level: SimdLevel,
    wt: &[f64],
    x: &[f64],
    idx: &crate::matrix::LaneIndices,
    y: &mut [f64],
) {
    use crate::matrix::{t_lanes, CHUNK};
    match level.min(supported()) {
        SimdLevel::Scalar => t_lanes::<CHUNK>(wt, x, idx, y),
        // SAFETY: clamped to `supported()`, which reported AVX2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::t_lanes_avx2(wt, x, idx, y) },
        // SAFETY: clamped to `supported()`, which reported AVX-512F.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::t_lanes_avx512(wt, x, idx, y) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 | SimdLevel::Avx512 => t_lanes::<CHUNK>(wt, x, idx, y),
    }
}

/// [`crate::lstm::gate_rows`] at `level`, clamped to [`supported`], by the
/// same construction as [`t_lanes`].
#[inline]
pub(crate) fn gate_rows(
    level: SimdLevel,
    zs: &[f64],
    hidden: usize,
    hs: &mut [f64],
    cs: &mut [f64],
) {
    use crate::lstm::gate_rows;
    match level.min(supported()) {
        SimdLevel::Scalar => gate_rows(zs, hidden, hs, cs),
        // SAFETY: clamped to `supported()`, which reported AVX2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::gate_rows_avx2(zs, hidden, hs, cs) },
        // SAFETY: clamped to `supported()`, which reported AVX-512F.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::gate_rows_avx512(zs, hidden, hs, cs) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 | SimdLevel::Avx512 => gate_rows(zs, hidden, hs, cs),
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! The AVX2 and AVX-512 instantiations. Each is a safe-bodied
    //! `#[target_feature]` function; [`super::t_lanes`] and
    //! [`super::gate_rows`] call them through an `unsafe` block after
    //! clamping the level to what the CPU reported.
    //!
    //! `avx512f` alone is enough: the kernels are `f64` `+ − × ÷`,
    //! compares and blends, all in the foundation set. It implies rustc's
    //! `fma` feature, which changes nothing here: rustc never contracts a
    //! multiply and an add, and CI greps the final binary for `vfmadd`.

    use crate::matrix::{LaneIndices, CHUNK, CHUNK_AVX512};

    /// The AVX2 instantiation of [`crate::matrix::t_lanes`]: the same safe
    /// body, inlined here so LLVM selects 256-bit multiplies and adds for
    /// it. No intrinsics, no FMA — bit-identical to the plain copy.
    #[target_feature(enable = "avx2")]
    pub(crate) fn t_lanes_avx2(wt: &[f64], x: &[f64], idx: &LaneIndices, y: &mut [f64]) {
        crate::matrix::t_lanes::<CHUNK>(wt, x, idx, y);
    }

    /// The AVX-512 instantiation of [`crate::matrix::t_lanes`], 48 outputs
    /// per chunk: four lanes of six `zmm` sums fit the 32 registers.
    #[target_feature(enable = "avx512f")]
    pub(crate) fn t_lanes_avx512(wt: &[f64], x: &[f64], idx: &LaneIndices, y: &mut [f64]) {
        crate::matrix::t_lanes::<CHUNK_AVX512>(wt, x, idx, y);
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

    /// The AVX-512 instantiation of [`crate::lstm::gate_rows`]: one `zmm`
    /// per [`crate::lstm::gate_rows`] chunk of eight units.
    #[target_feature(enable = "avx512f")]
    pub(crate) fn gate_rows_avx512(zs: &[f64], hidden: usize, hs: &mut [f64], cs: &mut [f64]) {
        debug_assert_eq!(zs.len(), 4 * hs.len());
        debug_assert_eq!(hs.len(), cs.len());
        crate::lstm::gate_rows(zs, hidden, hs, cs);
    }
}

/// [`levels`], after printing a line for each level the host lacks: the
/// level list of every bit-identity test in this crate.
#[cfg(test)]
pub(crate) fn levels_noting_skips() -> Vec<SimdLevel> {
    let levels = levels();
    for lacking in [SimdLevel::Avx2, SimdLevel::Avx512] {
        if !levels.contains(&lacking) {
            eprintln!("skipping {}: host lacks it", lacking.name());
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_by_width() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
    }

    #[test]
    fn detect_never_exceeds_supported() {
        assert!(detect() <= supported());
    }

    /// Also the line CI prints for the runner's level.
    #[test]
    fn levels_run_from_scalar_to_supported() {
        let levels = levels();
        let names: Vec<_> = levels.iter().map(|l| l.name()).collect();
        eprintln!(
            "simd::supported() = {}; levels {names:?}",
            supported().name()
        );
        assert_eq!(levels.first(), Some(&SimdLevel::Scalar));
        assert_eq!(levels.last(), Some(&supported()));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    /// The in-tree activations, inlined into a loop at each level's width,
    /// return the bits of one scalar call per element — the property every
    /// instantiation of the gate loop stands on.
    #[test]
    fn activations_match_scalar_bitwise_at_every_level() {
        use crate::activations::{sigmoid, tanh, TANH_CUT};
        #[inline(always)]
        fn map(f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x);
            }
        }
        // Generic over the activation's zero-sized fn type, so it inlines
        // into the wide loop (a `fn` pointer would not).
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn map_avx2(f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
            map(f, xs, out);
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn map_avx512(f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
            map(f, xs, out);
        }
        fn map_at(level: SimdLevel, f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
            match level {
                SimdLevel::Scalar => map(f, xs, out),
                // SAFETY: the levels come from `levels()`, so the host has them.
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { map_avx2(f, xs, out) },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx512 => unsafe { map_avx512(f, xs, out) },
                #[cfg(not(target_arch = "x86_64"))]
                SimdLevel::Avx2 | SimdLevel::Avx512 => unreachable!("not in levels()"),
            }
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
        let check = |name: &str, f: fn(f64) -> f64, out: &[f64], level: SimdLevel| {
            for (&x, &got) in xs.iter().zip(out) {
                let want = f(x);
                let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
                assert!(same, "{name}({x:e}) at {level:?}: {got:e} vs {want:e}");
            }
        };
        let mut out = vec![0.0; xs.len()];
        for level in levels_noting_skips() {
            map_at(level, sigmoid, &xs, &mut out);
            check("sigmoid", sigmoid, &out, level);
            map_at(level, tanh, &xs, &mut out);
            check("tanh", tanh, &out, level);
        }
    }
}
