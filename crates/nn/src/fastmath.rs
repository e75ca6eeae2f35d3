//! Fast rational approximations of the gate activations, `f32` only: the
//! scalar reference of the fast fleet backend's kernels.
//!
//! The classic odd rational tanh approximation — numerator `x·p(x²)` of
//! degree 13, denominator `q(x²)` of degree 6, the same coefficient set
//! popularized by Eigen's `ptanh` — evaluated in Horner form, plus the
//! sigmoid derived from it through the exact identity
//! `σ(x) = ½ + ½·tanh(x/2)`.
//!
//! Contract (see DESIGN.md §14):
//!
//! - **Error budget.** For every finite input, `fast_tanh32` and
//!   `fast_sigmoid32` are within [`FAST_TANH32_MAX_ABS_ERR`] /
//!   [`FAST_SIGMOID32_MAX_ABS_ERR`] of the exact `f64`
//!   [`crate::activations`]. The bounds are pinned by proptests in this
//!   module; tightening a coefficient without re-pinning the constant is
//!   a bug.
//! - **Saturation.** `|x| ≥ 7.90531110763549805` returns exactly ±1.0
//!   (explicit branch; the rational form is only fitted inside that
//!   range), so the approximation never overshoots `[−1, 1]` and
//!   survival probabilities stay valid.
//! - **Sanitization.** Non-finite inputs are handled explicitly
//!   *before* the clamp: `NaN → 0.0`, `±∞ → ±1.0` for tanh (hence
//!   `NaN → 0.5`, `+∞ → 1.0`, `−∞ → 0.0` for sigmoid). A naive
//!   `clamp` would send NaN to the lower bound and poison the state
//!   with −1; the explicit branch keeps degraded-input tolerance
//!   (PR 4) intact on the fast path.
//! - **Scope.** Nothing calls these kernels by default: the exact
//!   `activations::{sigmoid, tanh}` remain the only activations on
//!   every digest-bearing path unless a caller switches a fleet to the
//!   fast backend (`FleetDetector::enable_fast` in `xatu-core`), which
//!   routes its scoring through [`crate::lstm32`].

/// Maximum absolute error of [`fast_tanh32`] (widened to `f64`) vs the
/// exact `tanh`. Two terms: the saturated region — the input clamp freezes
/// the rational form at `1 − tanh(7.905…) ≈ 2.6e-7` while the true tanh
/// keeps approaching 1 (inside the fitted range the fit agrees to
/// ~2.4e-8) — and f32 rounding of the Horner evaluation (~4 ULP at
/// |tanh| ≈ 1). Measured max 4.11e-7 over a 40M-point sweep of ±40.
pub const FAST_TANH32_MAX_ABS_ERR: f64 = 1e-6;

/// Maximum absolute error of [`fast_sigmoid32`] (widened to `f64`) vs
/// the exact sigmoid (measured max 2.28e-7 over ±80).
pub const FAST_SIGMOID32_MAX_ABS_ERR: f64 = 5e-7;

/// Saturation threshold: `|x| ≥ CLAMP` returns ±1.0 exactly (the
/// rational form is only fitted inside this range). The saturation
/// step `1 − tanh(7.905…) ≈ 2.6e-7` at the boundary is the dominant
/// term in the pinned error budgets above; the proptest sample ranges
/// straddle the clamp point to keep it covered.
// The trailing digits keep the literal identical to the f32-fitted
// constant's decimal expansion; f64 rounds them away harmlessly.
#[allow(clippy::excessive_precision)]
pub(crate) const CLAMP: f64 = 7.905_311_107_635_498_05;

// Odd rational tanh coefficients (numerator x·p(x²), denominator
// q(x²)); the classic float-fitted set used by Eigen's ptanh.
pub(crate) const A1: f64 = 4.893_524_558_917_86e-3;
pub(crate) const A3: f64 = 6.372_619_288_754_36e-4;
pub(crate) const A5: f64 = 1.485_722_357_179_79e-5;
pub(crate) const A7: f64 = 5.122_297_090_371_14e-8;
pub(crate) const A9: f64 = -8.604_671_522_137_35e-11;
pub(crate) const A11: f64 = 2.000_187_904_824_77e-13;
pub(crate) const A13: f64 = -2.760_768_477_423_55e-16;
pub(crate) const B0: f64 = 4.893_525_185_543_85e-3;
pub(crate) const B2: f64 = 2.268_434_632_439_00e-3;
pub(crate) const B4: f64 = 1.185_347_056_866_54e-4;
pub(crate) const B6: f64 = 1.198_258_394_667_02e-6;

/// Rational tanh approximation in `f32`.
///
/// `NaN → 0.0`, `±∞ → ±1.0`, otherwise within
/// [`FAST_TANH32_MAX_ABS_ERR`] of the exact `tanh`.
#[inline]
pub fn fast_tanh32(x: f32) -> f32 {
    if !x.is_finite() {
        if x.is_nan() {
            return 0.0;
        }
        return if x > 0.0 { 1.0 } else { -1.0 };
    }
    if x >= CLAMP as f32 {
        return 1.0;
    }
    if x <= -(CLAMP as f32) {
        return -1.0;
    }
    let x2 = x * x;
    let p = A13 as f32;
    let p = p * x2 + A11 as f32;
    let p = p * x2 + A9 as f32;
    let p = p * x2 + A7 as f32;
    let p = p * x2 + A5 as f32;
    let p = p * x2 + A3 as f32;
    let p = p * x2 + A1 as f32;
    let q = B6 as f32;
    let q = q * x2 + B4 as f32;
    let q = q * x2 + B2 as f32;
    let q = q * x2 + B0 as f32;
    (x * p / q).clamp(-1.0, 1.0)
}

/// Sigmoid via the exact identity `σ(x) = ½ + ½·tanh(x/2)`, in `f32`.
///
/// `NaN → 0.5`, `+∞ → 1.0`, `−∞ → 0.0`, otherwise within
/// [`FAST_SIGMOID32_MAX_ABS_ERR`] of the exact sigmoid.
#[inline]
pub fn fast_sigmoid32(x: f32) -> f32 {
    0.5 + 0.5 * fast_tanh32(0.5 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations;
    use proptest::prelude::*;

    #[test]
    fn sanitizes_non_finite() {
        assert_eq!(fast_tanh32(f32::NAN), 0.0);
        assert_eq!(fast_tanh32(f32::INFINITY), 1.0);
        assert_eq!(fast_tanh32(f32::NEG_INFINITY), -1.0);
        assert_eq!(fast_sigmoid32(f32::NAN), 0.5);
        assert_eq!(fast_sigmoid32(f32::INFINITY), 1.0);
        assert_eq!(fast_sigmoid32(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn saturates_exactly_and_stays_bounded() {
        for &x in &[CLAMP, 8.0, 20.0, 700.0, 1e300] {
            assert_eq!(fast_tanh32(x as f32), 1.0);
            assert_eq!(fast_tanh32(-x as f32), -1.0);
        }
        assert_eq!(fast_sigmoid32(2.0 * CLAMP as f32), 1.0);
        assert_eq!(fast_sigmoid32(-2.0 * CLAMP as f32), 0.0);
    }

    #[test]
    fn zero_is_exact() {
        assert_eq!(fast_tanh32(0.0), 0.0);
        assert_eq!(fast_tanh32(-0.0), 0.0);
        assert_eq!(fast_sigmoid32(0.0), 0.5);
    }

    proptest! {
        /// Error bound over the full finite range. Beyond ±40 both
        /// sides saturate to ±1 within 1e-30, so sampling wide and
        /// dense-near-zero covers the whole domain.
        #[test]
        fn tanh32_error_bound(x in -40.0f32..40.0) {
            let err = (fast_tanh32(x) as f64 - activations::tanh(x as f64)).abs();
            prop_assert!(err <= FAST_TANH32_MAX_ABS_ERR,
                "x={x} err={err:e} > {FAST_TANH32_MAX_ABS_ERR:e}");
        }

        #[test]
        fn tanh32_error_bound_dense(x in -4.0f32..4.0) {
            let err = (fast_tanh32(x) as f64 - activations::tanh(x as f64)).abs();
            prop_assert!(err <= FAST_TANH32_MAX_ABS_ERR,
                "x={x} err={err:e} > {FAST_TANH32_MAX_ABS_ERR:e}");
        }

        #[test]
        fn sigmoid32_error_bound(x in -80.0f32..80.0) {
            let err =
                (fast_sigmoid32(x) as f64 - activations::sigmoid(x as f64)).abs();
            prop_assert!(err <= FAST_SIGMOID32_MAX_ABS_ERR,
                "x={x} err={err:e} > {FAST_SIGMOID32_MAX_ABS_ERR:e}");
        }

        /// Range guarantee: outputs never leave [−1, 1] / [0, 1] for
        /// any input bit pattern, finite or not.
        #[test]
        fn range_guarantee(bits in any::<u32>()) {
            let x32 = f32::from_bits(bits);
            let t32 = fast_tanh32(x32);
            prop_assert!((-1.0..=1.0).contains(&t32));
            let s32 = fast_sigmoid32(x32);
            prop_assert!((0.0..=1.0).contains(&s32));
        }
    }
}
