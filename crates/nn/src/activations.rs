//! Scalar activations and their derivatives.
//!
//! [`sigmoid`] and [`tanh`] are in-tree, not `libm`: straight-line (every
//! range decision is a compare feeding a select) IEEE-754 `f64` `+ − × ÷`
//! on one `exp` of a non-positive argument, so the gate loops that call
//! them vectorize and a scalar call, an SSE2 lane and an AVX2 lane return
//! the same bits on any host. Contract, error tables and where each
//! constant comes from: DESIGN.md §14 and the tests below. [`softplus`]
//! still calls `libm` (`exp`, `ln_1p`) — once per scored row, not per lane.
// The msun constants keep the digits `e_exp.c` publishes.
#![allow(clippy::excessive_precision)]

// FreeBSD msun `e_exp.c`: ln 2 split so that `k · LN2_HI` is exact (its low
// 21 bits are zero), `1/ln 2` (msun's `invln2` is this same double), and the
// minimax fit of `r·(e^r + 1)/(e^r − 1) = 2 + P[0]·r² + P[1]·r⁴ + …` on
// |r| ≤ ln 2 / 2.
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
const INV_LN2: f64 = std::f64::consts::LOG2_E;
const P: [f64; 5] = [
    1.666_666_666_666_660_190_37e-01,
    -2.777_777_777_701_559_338_42e-03,
    6.613_756_321_437_934_361_17e-05,
    -1.653_390_220_546_525_153_90e-06,
    4.138_136_797_057_238_460_39e-08,
];
/// `1.5 · 2^52`: adding it rounds to the nearest integer (ulp is 1 there)
/// and leaves that integer, in two's complement, in the low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Below this `e^x` rounds to zero (`e^x < 2^−1075`); `k ≥ −1076` after it.
const EXP_FLOOR: f64 = -746.0;

// tanh below TANH_CUT: the ninth convergent of Lambert's continued fraction
// `tanh x = x / (1 + x²/(3 + x²/(5 + …)))` is `x·A(z)/Q(z)`, `z = x²`, with
// integer coefficients; written `x + x·z·N(z)/Q(z)`, `N = (A − Q)/z`.
const N: [f64; 4] = [-11_486_475.0, -810_810.0, -12_870.0, -44.0];
const Q: [f64; 5] = [34_459_425.0, 16_216_200.0, 945_945.0, 13_860.0, 45.0];
/// Where the two `tanh` forms' measured errors cross (~1 ulp each).
pub(crate) const TANH_CUT: f64 = 0.875;

/// `e^x` for `x ≤ 0`; NaN for NaN. Anything else is outside its domain.
///
/// `x = k·ln 2 + r` with `k` the nearest integer, `e^r` by msun's rational
/// correction, then `· 2^k` as two exact-or-final multiplies so the
/// subnormal tail (`k < −1022`) is rounded once. Within 1 ulp.
#[inline(always)]
fn exp_nonpos(x: f64) -> f64 {
    let x = if x < EXP_FLOOR { EXP_FLOOR } else { x };
    let t = x * INV_LN2 + ROUND;
    let k = t - ROUND;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P[0] + rr * (P[1] + rr * (P[2] + rr * (P[3] + rr * P[4]))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // k + 1076 ∈ [0, 1076] from the bits of `t`, halved without a signed
    // shift; 485 = 1023 − 1076 / 2 re-biases each half's exponent field.
    // (A NaN leaves garbage here and NaN in `y`; the product is NaN.)
    let biased = t.to_bits().wrapping_sub(ROUND.to_bits() - 1076);
    let half = biased >> 1;
    let s1 = f64::from_bits(half.wrapping_add(485) << 52);
    let s2 = f64::from_bits(biased.wrapping_sub(half).wrapping_add(485) << 52);
    y * s1 * s2
}

/// Logistic sigmoid: `1/(1+e^−x)` for `x ≥ 0`, `e^x/(1+e^x)` below, so the
/// result keeps its relative precision down to the subnormals (within
/// 2.3 ulp, the two-branch form's own error). `σ(±0) = 0.5`, `σ(+∞) = 1`,
/// `σ(−∞) = 0`, NaN for NaN.
#[inline(always)]
pub fn sigmoid(x: f64) -> f64 {
    let e = exp_nonpos(-x.abs());
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Derivative of sigmoid given its *output* `s = sigmoid(x)`.
#[inline]
pub fn dsigmoid_from_out(s: f64) -> f64 {
    s * (1.0 - s)
}

/// Hyperbolic tangent: `x + x·z·N(z)/Q(z)` below `TANH_CUT`,
/// `1 − 2e/(1+e)` with `e = e^−2|x|` above it — each a small correction to
/// a base that is already close, which is what keeps both within 1.3 ulp —
/// sharing one division. Exactly odd; `tanh(±0) = ±0`, subnormals return
/// themselves, `tanh(±∞) = ±1`, NaN for NaN.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();
    let z = a * a;
    let n = N[0] + z * (N[1] + z * (N[2] + z * N[3]));
    let q = Q[0] + z * (Q[1] + z * (Q[2] + z * (Q[3] + z * Q[4])));
    let e = exp_nonpos(-2.0 * a);
    let small = a < TANH_CUT;
    let base = if small { a } else { 1.0 };
    let num = if small { a * z * n } else { -2.0 * e };
    let den = if small { q } else { 1.0 + e };
    (base + num / den).copysign(x)
}

/// Derivative of tanh given its *output* `t = tanh(x)`.
#[inline]
pub fn dtanh_from_out(t: f64) -> f64 {
    1.0 - t * t
}

/// Softplus `ln(1 + e^x)`, stable for large |x|:
/// `softplus(x) = max(x, 0) + ln(1 + e^{-|x|})`.
#[inline]
pub fn softplus(x: f64) -> f64 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Derivative of softplus, which is the sigmoid of the *input*.
#[inline]
pub fn dsoftplus(x: f64) -> f64 {
    sigmoid(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `libm` forms this module replaced: the parent's `sigmoid` body
    /// and `f64::tanh`. The ULP contract is stated against them (measured
    /// on glibc 2.36, whose own `tanh` is up to ~2.2 ulp from the truth
    /// below |x| = 1).
    fn std_sigmoid(x: f64) -> f64 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// The contract: at most this many representable values away from `std`.
    const ULP_BOUND: i64 = 2;

    /// Position of `v` on the line of `f64`s, monotone in `v`.
    fn ord(v: f64) -> i64 {
        let b = v.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    }

    fn assert_within_bound(x: f64) {
        for (name, got, want) in [
            ("sigmoid", sigmoid(x), std_sigmoid(x)),
            ("tanh", tanh(x), x.tanh()),
        ] {
            let d = (ord(got) - ord(want)).abs();
            assert!(
                d <= ULP_BOUND,
                "{name}({x:e}) = {got:e}, std {want:e}: {d} ulp"
            );
        }
    }

    /// `n` consecutive `f64`s centred on `x`.
    fn neighbours(x: f64, n: i64) -> impl Iterator<Item = f64> {
        let b = x.to_bits() as i64;
        let sign = if x < 0.0 { -1 } else { 1 };
        (-n / 2..n / 2).map(move |i| f64::from_bits((b + sign * i) as u64))
    }

    /// Every input at which a select changes arm — `x ≥ 0` in `sigmoid`,
    /// `|x| < TANH_CUT` in `tanh`, the `EXP_FLOOR` clamp as each of them
    /// reaches it — plus where `exp_nonpos`'s `k` first steps and where
    /// `tanh` crosses a binade (`tanh x = ½`).
    fn cut_points() -> Vec<f64> {
        let ln2 = std::f64::consts::LN_2;
        let mut cuts = vec![f64::MIN_POSITIVE];
        for c in [
            TANH_CUT,
            -EXP_FLOOR,
            -EXP_FLOOR / 2.0,
            ln2 / 2.0,
            ln2 / 4.0,
            3.0f64.ln() / 2.0,
        ] {
            cuts.extend([c, -c]);
        }
        cuts
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        for x in [-50.0, -5.0, -0.1, 0.1, 5.0, 50.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
        // No overflow at extremes.
        assert_eq!(sigmoid(1e4), 1.0);
        assert_eq!(sigmoid(-1e4), 0.0);
    }

    /// The constants are msun's, by the hex words `e_exp.c` prints beside
    /// each.
    #[test]
    fn exp_constants_are_msuns() {
        for (got, want) in [
            (LN2_HI, 0x3fe6_2e42_fee0_0000u64),
            (LN2_LO, 0x3dea_39ef_3579_3c76),
            (INV_LN2, 0x3ff7_1547_652b_82fe),
            (P[0], 0x3fc5_5555_5555_553e),
            (P[1], 0xbf66_c16c_16be_bd93),
            (P[2], 0x3f11_566a_af25_de2c),
            (P[3], 0xbebb_bd41_c5d2_6bf1),
            (P[4], 0x3e66_3769_72be_a4d0),
        ] {
            assert_eq!(got.to_bits(), want, "{got:e}");
        }
    }

    /// The edges equal the `libm` forms bit for bit.
    #[test]
    fn edge_table() {
        let sub = 5e-324; // smallest subnormal
        let table: [(f64, f64, f64); 12] = [
            // x, sigmoid(x), tanh(x)
            (0.0, 0.5, 0.0),
            (-0.0, 0.5, -0.0),
            (f64::INFINITY, 1.0, 1.0),
            (f64::NEG_INFINITY, 0.0, -1.0),
            (1e4, 1.0, 1.0),
            (-1e4, 0.0, -1.0),
            (sub, 0.5, sub),
            (-sub, 0.5, -sub),
            (f64::MIN_POSITIVE / 2.0, 0.5, f64::MIN_POSITIVE / 2.0),
            (-f64::MIN_POSITIVE, 0.5, -f64::MIN_POSITIVE),
            (f64::MAX, 1.0, 1.0),
            (f64::MIN, 0.0, -1.0),
        ];
        for (x, s, t) in table {
            assert_eq!(sigmoid(x).to_bits(), s.to_bits(), "sigmoid({x:e})");
            assert_eq!(tanh(x).to_bits(), t.to_bits(), "tanh({x:e})");
            assert_eq!(
                sigmoid(x).to_bits(),
                std_sigmoid(x).to_bits(),
                "std sigmoid({x:e})"
            );
            assert_eq!(tanh(x).to_bits(), x.tanh().to_bits(), "std tanh({x:e})");
        }
        for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
            assert!(sigmoid(nan).is_nan());
            assert!(tanh(nan).is_nan());
        }
    }

    /// Past `e^x`'s normal range `sigmoid(x)` is `e^x` itself: the scaled
    /// subnormal, not a clamp value, down to the last one and then zero.
    #[test]
    fn sigmoid_keeps_the_subnormal_tail() {
        let mut x = -708.0;
        while x >= -746.0 {
            let (got, want) = (sigmoid(x), x.exp());
            assert!(
                (ord(got) - ord(want)).abs() <= 1,
                "sigmoid({x}) = {got:e}, exp {want:e}"
            );
            x -= 1.0 / 64.0;
        }
        assert!(sigmoid(-744.0) > 0.0);
        assert_eq!(sigmoid(-745.2), 0.0);
        assert_eq!(sigmoid(-746.0), 0.0);
        assert_eq!(sigmoid(-747.0), 0.0);
    }

    #[test]
    fn within_the_bound_and_monotone_around_every_cut() {
        for cut in cut_points() {
            let (mut prev_s, mut prev_t) = (i64::MIN, i64::MIN);
            for x in neighbours(cut, 100_000) {
                assert_within_bound(x);
                // A select between two forms may step back, but never by
                // more than the forms are allowed to disagree.
                let (s, t) = (ord(sigmoid(x)), ord(tanh(x)));
                assert!(
                    s >= prev_s.saturating_sub(ULP_BOUND),
                    "sigmoid steps back at {x:e}"
                );
                assert!(
                    t >= prev_t.saturating_sub(ULP_BOUND),
                    "tanh steps back at {x:e}"
                );
                (prev_s, prev_t) = (s.max(prev_s), t.max(prev_t));
            }
        }
    }

    #[test]
    fn within_the_bound_on_a_dense_sweep() {
        for i in -40_000..=40_000 {
            assert_within_bound(i as f64 * 1e-3);
            assert_within_bound(i as f64 * 2.5e-8);
        }
    }

    proptest! {
        #[test]
        fn within_the_bound_of_std(
            unit in proptest::collection::vec(-1.0f64..1.0, 256),
        ) {
            for u in unit {
                for range in [1.0, 6.0, 40.0, 750.0, 1e-3] {
                    assert_within_bound(u * range);
                }
            }
        }

        /// Any bit pattern: `tanh` is exactly odd, both stay in range.
        #[test]
        fn odd_and_in_range(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            let (s, t) = (sigmoid(x), tanh(x));
            if x.is_nan() {
                prop_assert!(s.is_nan() && t.is_nan());
            } else {
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert!((-1.0..=1.0).contains(&t));
                prop_assert_eq!(tanh(-x).to_bits(), (-t).to_bits());
            }
        }
    }

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for x in [-10.0f64, -1.0, 0.0, 1.0, 10.0] {
            let naive = (1.0f64 + x.exp()).ln();
            assert!((softplus(x) - naive).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert!((softplus(1000.0) - 1000.0).abs() < 1e-9);
        assert!(softplus(-1000.0) >= 0.0);
        assert!(softplus(-1000.0) < 1e-300 + 1e-12);
        assert!(softplus(-5.0) > 0.0, "softplus is strictly positive");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for x in [-3.0, -0.5, 0.0, 0.7, 2.5] {
            let num_ds = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            assert!((dsigmoid_from_out(sigmoid(x)) - num_ds).abs() < 1e-8);

            let num_dt = (tanh(x + eps) - tanh(x - eps)) / (2.0 * eps);
            assert!((dtanh_from_out(tanh(x)) - num_dt).abs() < 1e-8);

            let num_dp = (softplus(x + eps) - softplus(x - eps)) / (2.0 * eps);
            assert!((dsoftplus(x) - num_dp).abs() < 1e-8);
        }
    }
}
