//! Score fusion: combining the survival booster with the unsupervised
//! reconstruction companion.
//!
//! Two scores arrive each minute, in opposite orientations: the survival
//! score (lower = more attack-like) and the autoencoder's normalized
//! reconstruction score (higher = more attack-like). The fusion layer
//! maps reconstruction error into `[0, 1]` against *benign* error
//! quantiles ([`ErrorNormalizer`]), keeps the more anomalous of the two
//! signals ([`fuse`]), and applies a degradation weight that shifts the
//! fused score toward the autoencoder while the CDet feed is down — the
//! companion needs no labels, so it keeps its full signal exactly when the
//! survival model loses its auxiliary features.
//!
//! A [`Companion`] attaches to a [`crate::fleet::FleetDetector`], and each
//! customer's record gets a window of its own (`Ring`); on every driven
//! record, on the row and the batch path alike, the detector core calls
//! the companion's hook (`Fused`) between the survival tail and the alert
//! lifecycle.

use crate::detector::DetectorObs;
use xatu_features::frame::VOLUMETRIC_WIDTH;
use xatu_nn::{AeWorkspace, FrameArena, LstmAutoencoder};

/// The unsupervised reconstruction companion attached to a detector.
///
/// A trained [`LstmAutoencoder`] over the volumetric feature block (width
/// [`VOLUMETRIC_WIDTH`]) plus its benign-error calibration; [`fuse`]
/// combines its score with the survival score. The companion never sees
/// auxiliary features, so its score is unaffected when the CDet feed drops
/// — the degradation ladder shifts weight onto it instead of falling back
/// to volumetric-only thresholds.
#[derive(Clone, Debug)]
pub struct Companion {
    /// The trained autoencoder (`input_dim` must be [`VOLUMETRIC_WIDTH`]).
    pub ae: LstmAutoencoder,
    /// Benign-quantile reconstruction-error normalizer.
    pub norm: ErrorNormalizer,
    /// Window length (minutes) the autoencoder scores over.
    pub window: usize,
}

/// One customer's companion window: the last `window` volumetric slices
/// of the stream its LSTMs saw, real and imputed minutes alike.
#[derive(Clone)]
pub(crate) struct Ring {
    /// `window × VOLUMETRIC_WIDTH`, flat.
    buf: Vec<f64>,
    /// Next write slot (frame index, not scalar offset).
    head: usize,
    /// Frames written so far, saturating at the companion window.
    filled: usize,
}

impl Ring {
    pub(crate) fn new(window: usize) -> Self {
        Ring {
            buf: vec![0.0; window * VOLUMETRIC_WIDTH],
            head: 0,
            filled: 0,
        }
    }

    /// Empties the window: the record was cold-restarted.
    pub(crate) fn clear(&mut self) {
        self.buf.fill(0.0);
        self.head = 0;
        self.filled = 0;
    }

    /// Heap bytes: the window's buffer.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<f64>()
    }
}

/// The fusion hook of one worker's minute: the trained companion and the
/// worker's scoring scratch.
pub(crate) struct Fused<'a> {
    pub comp: &'a Companion,
    pub ws: &'a mut AeWorkspace,
    pub scratch: &'a mut FrameArena,
    /// Degradation shift for this minute (1 = score purely from the
    /// companion, 0 = the min of the two scores).
    pub ae_weight: f64,
}

impl Fused<'_> {
    /// Sees the frame the LSTMs just consumed: pushes its volumetric slice
    /// into the customer's `ring` and, once that holds a full window,
    /// blends the reported survival with the autoencoder's reconstruction
    /// score into the survival the lifecycle acts on. Until then (cold
    /// start, post-restore re-warm) the solo score passes through
    /// untouched.
    pub(crate) fn fuse(
        &mut self,
        obs: &mut DetectorObs,
        ring: &mut Ring,
        frame: &[f64],
        reported: f64,
    ) -> f64 {
        let w = self.comp.window;
        let slot = |t: usize| t * VOLUMETRIC_WIDTH..(t + 1) * VOLUMETRIC_WIDTH;
        ring.buf[slot(ring.head)].copy_from_slice(&frame[..VOLUMETRIC_WIDTH]);
        ring.head = (ring.head + 1) % w;
        ring.filled = (ring.filled + 1).min(w);
        if ring.filled < w {
            return reported;
        }
        self.scratch.reset(VOLUMETRIC_WIDTH);
        for i in 0..w {
            self.scratch.push(&ring.buf[slot((ring.head + i) % w)]);
        }
        let err = self.comp.ae.reconstruction_error(self.scratch, self.ws);
        obs.fusion_ae_minutes.inc();
        fuse(reported, self.comp.norm.score(err), self.ae_weight)
    }
}

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

/// Fuses one minute's scores into a fused survival (lower = more
/// attack-like, same orientation and thresholding rule as the solo
/// survival score): most-anomalous-wins, the minimum of the survival score
/// and the autoencoder's pseudo-survival `1 − ae_score`.
///
/// `ae_weight` in `[0, 1]` is the degradation shift: 0 uses that minimum,
/// 1 scores purely from the autoencoder. The detector ramps it while the
/// CDet feed is down and back during re-warm-up after recovery.
pub fn fuse(survival: f64, ae_score: f64, ae_weight: f64) -> f64 {
    let survival = survival.clamp(0.0, 1.0);
    let ae_score = ae_score.clamp(0.0, 1.0);
    let s_ae = 1.0 - ae_score;
    let combined = survival.min(s_ae);
    let w = ae_weight.clamp(0.0, 1.0);
    (1.0 - w) * combined + w * s_ae
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
        assert_eq!(fuse(0.9, 0.0, 0.0), 0.9);
        assert!((fuse(0.9, 0.8, 0.0) - 0.2).abs() < 1e-12); // AE wins
        assert_eq!(fuse(0.1, 0.0, 0.0), 0.1); // survival wins

        // Full degradation weight ignores survival entirely.
        assert_eq!(fuse(0.0, 0.0, 1.0), 1.0);
        assert_eq!(fuse(1.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn degradation_weight_interpolates_continuously() {
        // survival says attack (0.1), AE says benign (score 0 → s_ae 1).
        let w0 = fuse(0.1, 0.0, 0.0);
        let w_half = fuse(0.1, 0.0, 0.5);
        let w1 = fuse(0.1, 0.0, 1.0);
        assert_eq!(w0, 0.1);
        assert_eq!(w1, 1.0);
        assert!((w_half - 0.55).abs() < 1e-12);
    }
}
