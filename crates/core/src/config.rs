//! Configuration of the Xatu model and training loop.

use serde::{Deserialize, Serialize};
use xatu_features::frame::FeatureMask;

/// Which of the three LSTMs are active — the Fig 18(b) ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimescaleMode {
    /// All three LSTMs (full Xatu).
    All,
    /// Only the short-timescale LSTM.
    ShortOnly,
    /// Drop the short LSTM.
    NoShort,
    /// Drop the medium LSTM.
    NoMedium,
    /// Drop the long LSTM.
    NoLong,
}

impl TimescaleMode {
    /// Whether each of (short, medium, long) is enabled.
    pub fn enabled(self) -> (bool, bool, bool) {
        match self {
            TimescaleMode::All => (true, true, true),
            TimescaleMode::ShortOnly => (true, false, false),
            TimescaleMode::NoShort => (false, true, true),
            TimescaleMode::NoMedium => (true, false, true),
            TimescaleMode::NoLong => (true, true, false),
        }
    }
}

/// The loss driving training — survival (paper) vs classification ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// The SAFE survival loss (§4.2).
    Survival,
    /// Per-step binary cross-entropy (the Fig 18(d) ablation).
    CrossEntropy,
}

/// All model/training knobs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct XatuConfig {
    /// Seed for weight init and batch shuffling.
    pub seed: u64,
    /// Pooling granularities in minutes: (short, medium, long).
    /// Paper: (1, 10, 60).
    pub timescales: (u32, u32, u32),
    /// Short-context length in short-granularity steps (before the window).
    pub short_len: usize,
    /// Medium-context length in medium-granularity steps.
    pub medium_len: usize,
    /// Long-context length in long-granularity steps (paper: 10 days at
    /// 60 minutes = 240).
    pub long_len: usize,
    /// Detection-window length in minutes (paper: N = 30).
    pub window: usize,
    /// LSTM hidden units (paper: 200; Appendix H shows 150–700 equivalent —
    /// scaled down for CPU training).
    pub hidden: usize,
    /// Adam learning rate (paper: 1e-4 at hidden 200; scaled up for the
    /// smaller model).
    pub lr: f64,
    /// Batch size (paper: 64).
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f64,
    /// Which feature blocks are active (Fig 12 ablations).
    pub feature_mask: FeatureMask,
    /// Which LSTMs are active (Fig 18(b) ablation).
    pub timescale_mode: TimescaleMode,
    /// Loss (Fig 18(d) ablation).
    pub loss: LossKind,
    /// Minimum positive samples required to train a per-type model.
    pub min_positives: usize,
    /// Worker threads for data-parallel training, feature extraction and
    /// threshold sweeps. `0` = auto: the `XATU_THREADS` environment
    /// variable if set, else all available cores. Results are bit-identical
    /// for every value — parallelism only changes wall-clock time.
    pub threads: usize,
    /// Force the scalar instantiation of every dispatched detector kernel
    /// — the gate loop and the lane kernel, on a `FleetDetector`'s row and
    /// batch paths alike — mirroring
    /// `threads`: `false` = auto (the `XATU_NO_SIMD` environment variable
    /// if set, else the widest SIMD level the host supports), `true` =
    /// always scalar. Results are bit-identical either way — SIMD only
    /// changes wall-clock time. Applied once, where a detector takes its
    /// model and this configuration. A checkpoint does not carry it: a
    /// resumed detector follows the environment (after
    /// `FleetDetector::from_checkpoint`, `FleetDetector::set_simd` pins
    /// it). Training dispatches nothing, so it has nothing to apply.
    pub no_simd: bool,
}

impl Default for XatuConfig {
    fn default() -> Self {
        XatuConfig {
            seed: 7,
            timescales: (1, 10, 60),
            short_len: 90,
            medium_len: 108,
            long_len: 240,
            window: 30,
            hidden: 24,
            lr: 3e-3,
            batch_size: 16,
            epochs: 8,
            grad_clip: 5.0,
            feature_mask: FeatureMask::all(),
            timescale_mode: TimescaleMode::All,
            loss: LossKind::Survival,
            min_positives: 8,
            threads: 0,
            no_simd: false,
        }
    }
}

impl XatuConfig {
    /// The paper's full-scale constants (documented, not used on CPU).
    pub fn paper_scale() -> Self {
        XatuConfig {
            timescales: (1, 10, 60),
            short_len: 240,
            medium_len: 1440 / 10,
            long_len: 240,
            window: 30,
            hidden: 200,
            lr: 1e-4,
            batch_size: 64,
            epochs: 20,
            ..XatuConfig::default()
        }
    }

    /// Minimal preset for retrain-heavy sweeps (Fig 12/13/17/18).
    pub fn mini() -> Self {
        XatuConfig {
            short_len: 45,
            medium_len: 36,
            long_len: 72,
            window: 20,
            hidden: 12,
            epochs: 6,
            min_positives: 4,
            ..XatuConfig::default()
        }
    }

    /// Small preset for retrain-heavy sweeps.
    pub fn sweep() -> Self {
        XatuConfig {
            short_len: 60,
            medium_len: 72,
            long_len: 120,
            hidden: 16,
            epochs: 10,
            min_positives: 5,
            ..XatuConfig::default()
        }
    }

    /// Tiny preset for unit tests.
    pub fn smoke_test() -> Self {
        XatuConfig {
            short_len: 12,
            medium_len: 8,
            long_len: 6,
            window: 10,
            hidden: 6,
            epochs: 2,
            min_positives: 2,
            ..XatuConfig::default()
        }
    }

    /// Raw minutes of history a sample needs (for ring sizing): the short
    /// context, the window and the longest lead-in (`max(g) − 1` minutes
    /// of buckets open at the window start), with a minute to spare.
    pub fn raw_history_minutes(&self) -> usize {
        let gran = crate::model::ModelConfig::from(self).gran();
        let longest = gran.into_iter().max().unwrap_or(1) as usize;
        self.short_len * gran[0] as usize + self.window + longest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = XatuConfig::default();
        assert_eq!(c.timescales, (1, 10, 60));
        assert_eq!(c.window, 30);
        assert!(c.hidden > 0 && c.lr > 0.0);
    }

    #[test]
    fn timescale_modes() {
        assert_eq!(TimescaleMode::All.enabled(), (true, true, true));
        assert_eq!(TimescaleMode::ShortOnly.enabled(), (true, false, false));
        assert_eq!(TimescaleMode::NoLong.enabled(), (true, true, false));
    }

    #[test]
    fn paper_scale_matches_section_5_3() {
        let c = XatuConfig::paper_scale();
        assert_eq!(c.hidden, 200);
        assert_eq!(c.lr, 1e-4);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.long_len, 240); // 10 days at 60-minute pooling
    }

    #[test]
    fn raw_history_covers_short_context_plus_window() {
        let c = XatuConfig::smoke_test();
        assert!(c.raw_history_minutes() >= c.short_len + c.window);
    }
}
