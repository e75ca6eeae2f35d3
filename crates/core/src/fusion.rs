//! Score fusion: combining the survival booster with the unsupervised
//! reconstruction companion.
//!
//! Two scores arrive each minute, in opposite orientations: the survival
//! score (lower = more attack-like) and the autoencoder's normalized
//! reconstruction score (higher = more attack-like). The fusion layer
//! maps reconstruction error into `[0, 1]` against *benign* error
//! quantiles ([`ErrorNormalizer`]), combines the two signals
//! ([`FusionMode`]: max-combine or a learned logistic blend), and exposes
//! a degradation weight that shifts the fused score toward the
//! autoencoder while the CDet feed is down — the companion needs no
//! labels, so it keeps its full signal exactly when the survival model
//! loses its auxiliary features.

use xatu_nn::activations::sigmoid;

/// Maps raw reconstruction error to an anomaly score in `[0, 1]` using
/// benign-error quantiles: the benign median scores 0, the benign upper
/// quantile scores 1, linear in between. Calibrated once after training,
/// on the same benign windows the autoencoder trained on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorNormalizer {
    /// Benign median error (score 0 at or below this).
    lo: f64,
    /// Benign upper-quantile error (score 1 at or above this).
    hi: f64,
}

impl ErrorNormalizer {
    /// A normalizer with explicit bounds. `hi` is clamped to stay above
    /// `lo` so the mapping is always well defined.
    pub fn new(lo: f64, hi: f64) -> Self {
        let lo = if lo.is_finite() { lo.max(0.0) } else { 0.0 };
        let hi = if hi.is_finite() { hi } else { lo };
        ErrorNormalizer {
            lo,
            hi: hi.max(lo * (1.0 + 1e-6) + 1e-12),
        }
    }

    /// Calibrates from benign reconstruction errors: `lo` = median,
    /// `hi` = 99th percentile (non-finite errors are ignored). An empty
    /// or all-NaN input yields a degenerate normalizer that scores
    /// everything 0 — no signal rather than a false one.
    pub fn from_benign_errors(errors: &[f64]) -> Self {
        let mut clean: Vec<f64> = errors.iter().copied().filter(|e| e.is_finite()).collect();
        if clean.is_empty() {
            return ErrorNormalizer::new(f64::MAX, f64::MAX);
        }
        clean.sort_by(f64::total_cmp);
        let at = |q: f64| clean[((clean.len() - 1) as f64 * q).round() as usize];
        ErrorNormalizer::new(at(0.5), at(0.99))
    }

    /// The calibrated `(lo, hi)` bounds.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Anomaly score of a reconstruction error: 0 at the benign median,
    /// 1 at the benign upper quantile, clamped. Non-finite errors score 0.
    pub fn score(&self, err: f64) -> f64 {
        if !err.is_finite() {
            return 0.0;
        }
        ((err - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

/// How the survival score and the autoencoder score are combined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FusionMode {
    /// Most-anomalous-wins: the fused survival is the minimum of the
    /// survival score and the autoencoder's pseudo-survival `1 − score`.
    MaxCombine,
    /// A learned logistic blend over the two anomaly signals:
    /// `p = σ(bias + w_survival·(1−survival) + w_ae·ae_score)`, reported
    /// as the pseudo-survival `1 − p`. Weights come from
    /// [`FusionMode::fit_logistic`].
    Logistic {
        /// Intercept.
        bias: f64,
        /// Weight on the survival anomaly `1 − survival`.
        w_survival: f64,
        /// Weight on the autoencoder anomaly score.
        w_ae: f64,
    },
}

impl FusionMode {
    /// Fuses one minute's scores into a fused survival (lower = more
    /// attack-like, same orientation and thresholding rule as the solo
    /// survival score).
    ///
    /// `ae_weight` in `[0, 1]` is the degradation shift: 0 uses the
    /// configured combine, 1 scores purely from the autoencoder. The
    /// online detector ramps it while the CDet feed is down and back
    /// during re-warm-up after recovery.
    pub fn fuse(&self, survival: f64, ae_score: f64, ae_weight: f64) -> f64 {
        let survival = survival.clamp(0.0, 1.0);
        let ae_score = ae_score.clamp(0.0, 1.0);
        let s_ae = 1.0 - ae_score;
        let combined = match *self {
            FusionMode::MaxCombine => survival.min(s_ae),
            FusionMode::Logistic {
                bias,
                w_survival,
                w_ae,
            } => 1.0 - sigmoid(bias + w_survival * (1.0 - survival) + w_ae * ae_score),
        };
        let w = ae_weight.clamp(0.0, 1.0);
        (1.0 - w) * combined + w * s_ae
    }

    /// Fits the logistic blend by batch gradient descent on labeled
    /// `(survival, ae_score, is_attack)` examples (e.g. per-sample scores
    /// from a validation split). Deterministic: fixed iteration count,
    /// fixed example order. Returns [`FusionMode::MaxCombine`] when no
    /// examples (or only one class) are available — an unfittable blend
    /// must not silently bias the detector.
    pub fn fit_logistic(examples: &[(f64, f64, bool)], epochs: usize, lr: f64) -> FusionMode {
        let pos = examples.iter().filter(|e| e.2).count();
        if pos == 0 || pos == examples.len() {
            return FusionMode::MaxCombine;
        }
        let (mut bias, mut ws, mut wa) = (0.0f64, 0.0f64, 0.0f64);
        let n = examples.len() as f64;
        for _ in 0..epochs {
            let (mut gb, mut gs, mut ga) = (0.0, 0.0, 0.0);
            for &(survival, ae_score, label) in examples {
                let xs = 1.0 - survival.clamp(0.0, 1.0);
                let xa = ae_score.clamp(0.0, 1.0);
                let p = sigmoid(bias + ws * xs + wa * xa);
                let d = p - if label { 1.0 } else { 0.0 };
                gb += d;
                gs += d * xs;
                ga += d * xa;
            }
            bias -= lr * gb / n;
            ws -= lr * gs / n;
            wa -= lr * ga / n;
        }
        FusionMode::Logistic {
            bias,
            w_survival: ws,
            w_ae: wa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizer_maps_benign_quantiles_to_unit_range() {
        let errors: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let norm = ErrorNormalizer::from_benign_errors(&errors);
        let (lo, hi) = norm.bounds();
        assert!((lo - 0.50).abs() < 0.02, "median {lo}");
        assert!((hi - 0.98).abs() < 0.03, "p99 {hi}");
        assert_eq!(norm.score(0.0), 0.0);
        assert_eq!(norm.score(lo), 0.0);
        assert_eq!(norm.score(10.0), 1.0);
        let mid = norm.score((lo + hi) / 2.0);
        assert!((mid - 0.5).abs() < 1e-9);
    }

    #[test]
    fn normalizer_tolerates_degenerate_input() {
        // Empty / all-NaN: everything scores 0 (no false signal).
        assert_eq!(ErrorNormalizer::from_benign_errors(&[]).score(1e12), 0.0);
        let nan_only = ErrorNormalizer::from_benign_errors(&[f64::NAN, f64::INFINITY]);
        assert_eq!(nan_only.score(1e12), 0.0);
        // All-identical benign errors: larger errors still score 1.
        let flat = ErrorNormalizer::from_benign_errors(&[0.25; 8]);
        assert_eq!(flat.score(0.25), 0.0);
        assert_eq!(flat.score(0.5), 1.0);
        // NaN at score time is benign, never a poison value.
        assert_eq!(flat.score(f64::NAN), 0.0);
    }

    #[test]
    fn max_combine_takes_the_most_anomalous_signal() {
        let m = FusionMode::MaxCombine;
        assert_eq!(m.fuse(0.9, 0.0, 0.0), 0.9);
        assert!((m.fuse(0.9, 0.8, 0.0) - 0.2).abs() < 1e-12); // AE wins
        assert_eq!(m.fuse(0.1, 0.0, 0.0), 0.1); // survival wins
                                                // Full degradation weight ignores survival entirely.
        assert_eq!(m.fuse(0.0, 0.0, 1.0), 1.0);
        assert_eq!(m.fuse(1.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn degradation_weight_interpolates_continuously() {
        let m = FusionMode::MaxCombine;
        // survival says attack (0.1), AE says benign (score 0 → s_ae 1).
        let w0 = m.fuse(0.1, 0.0, 0.0);
        let w_half = m.fuse(0.1, 0.0, 0.5);
        let w1 = m.fuse(0.1, 0.0, 1.0);
        assert_eq!(w0, 0.1);
        assert_eq!(w1, 1.0);
        assert!((w_half - 0.55).abs() < 1e-12);
    }

    #[test]
    fn logistic_fit_separates_labeled_scores() {
        // Attacks: low survival, high AE score. Benign: the opposite.
        let mut examples = Vec::new();
        for i in 0..50 {
            let eps = i as f64 / 500.0;
            examples.push((0.1 + eps, 0.9 - eps, true));
            examples.push((0.9 - eps, 0.1 + eps, false));
        }
        let mode = FusionMode::fit_logistic(&examples, 500, 0.5);
        let FusionMode::Logistic {
            w_survival, w_ae, ..
        } = mode
        else {
            panic!("expected a fitted logistic, got {mode:?}");
        };
        assert!(w_survival > 0.0 && w_ae > 0.0);
        // Fused survival must be decisively lower for attack-like scores.
        let attack = mode.fuse(0.1, 0.9, 0.0);
        let benign = mode.fuse(0.9, 0.1, 0.0);
        assert!(
            attack < 0.4 && benign > 0.6,
            "attack {attack} benign {benign}"
        );
    }

    #[test]
    fn one_class_fit_falls_back_to_max_combine() {
        let benign_only: Vec<(f64, f64, bool)> = vec![(0.9, 0.1, false); 10];
        assert_eq!(
            FusionMode::fit_logistic(&benign_only, 100, 0.5),
            FusionMode::MaxCombine
        );
        assert_eq!(
            FusionMode::fit_logistic(&[], 100, 0.5),
            FusionMode::MaxCombine
        );
    }
}
