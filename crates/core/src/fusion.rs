//! Score fusion: the unsupervised reconstruction companion that votes
//! while the CDet feed is dark.
//!
//! The survival score (lower = more attack-like) leans on auxiliary
//! signals the CDet alert feed keeps alive; while that feed is dark the
//! frames are served volumetric-only and the survival model loses them.
//! The autoencoder needs no labels and never sees auxiliary features, so
//! it keeps its full signal exactly then. The ladder has two rungs:
//!
//! * **Lit.** The reported survival is the solo survival, untouched.
//! * **Dark.** Once the customer's window is full, the reported survival
//!   is the autoencoder's pseudo-survival `1 − score`, its reconstruction
//!   error mapped into `[0, 1]` against *benign* error quantiles
//!   ([`ErrorNormalizer`]).
//!
//! A [`Companion`] attaches to a [`crate::fleet::FleetDetector`], and each
//! customer's record gets a window of its own (`Ring`), fed every minute
//! so it is full when the feed goes dark. On every driven record, on the
//! row and the batch path alike, the detector core calls the companion's
//! hook (`Fused`) between the survival tail and the alert lifecycle; the
//! engine ticks the rung (`FleetDetector::set_feed_degraded`) before its
//! heads step.

use crate::detector::DetectorObs;
use xatu_features::frame::VOLUMETRIC_WIDTH;
use xatu_nn::{AeWorkspace, FrameArena, LstmAutoencoder};

/// The unsupervised reconstruction companion attached to a detector.
///
/// A trained [`LstmAutoencoder`] over the volumetric feature block (width
/// [`VOLUMETRIC_WIDTH`]) plus its benign-error calibration. The
/// companion never sees auxiliary features, so its score is unaffected
/// when the CDet feed drops: while the feed is dark it scores the customer
/// instead of the survival model's volumetric-only fallback.
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
    /// The CDet feed is dark this minute: the companion votes.
    pub dark: bool,
}

impl Fused<'_> {
    /// Sees the frame the LSTMs just consumed: pushes its volumetric slice
    /// into the customer's `ring` and, while the feed is dark and the ring
    /// holds a full window, replaces the reported survival with the
    /// autoencoder's pseudo-survival `1 − score`. Otherwise (a lit feed,
    /// a cold start, a post-restore re-warm) the solo survival passes
    /// through untouched, and the autoencoder does not run.
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
        if !self.dark || ring.filled < w {
            return reported;
        }
        self.scratch.reset(VOLUMETRIC_WIDTH);
        for i in 0..w {
            self.scratch.push(&ring.buf[slot((ring.head + i) % w)]);
        }
        let err = self.comp.ae.reconstruction_error(self.scratch, self.ws);
        obs.fusion_ae_minutes.inc();
        1.0 - self.comp.norm.score(err)
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
}
