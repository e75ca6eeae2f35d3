//! Training samples: the multi-timescale sequences plus the survival label.

use crate::model::TIMESCALES;
use serde::{Deserialize, Serialize};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::FrameArena;

/// One (attack or non-attack) time series, ready for the model.
///
/// Feature frames are stored as `f32` to halve memory; the model widens to
/// `f64` at its input boundary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sample {
    /// Short-granularity context, oldest first (length ≤ `short_len`).
    pub short: Vec<Vec<f32>>,
    /// Medium-granularity context.
    pub medium: Vec<Vec<f32>>,
    /// Long-granularity context.
    pub long: Vec<Vec<f32>>,
    /// The detection window at 1-minute granularity (length ≤ `window`).
    pub window: Vec<Vec<f32>>,
    /// `c`: true if a CDet alert labels this series as an attack.
    pub label: bool,
    /// `t_i`, 1-based step within `window`: CDet detection step for attack
    /// series, the window length for censored series.
    pub event_step: usize,
    /// Step within `window` (1-based) where the ground-truth anomaly
    /// starts, when known (used by the cross-entropy ablation and metrics).
    pub anomaly_step: Option<usize>,
    /// Bookkeeping.
    pub meta: SampleMeta,
}

/// Provenance of a sample.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SampleMeta {
    /// Customer the series belongs to.
    pub customer: Ipv4,
    /// Attack type this series is labelled for.
    pub attack_type: AttackType,
    /// Absolute minute of the first window frame.
    pub window_start: u32,
}

impl Sample {
    /// Widened views of the sequences for the f64 model.
    pub fn widen(v: &[Vec<f32>]) -> Vec<Vec<f64>> {
        v.iter()
            .map(|f| f.iter().map(|&x| x as f64).collect())
            .collect()
    }

    /// Rough memory footprint in bytes (capacity planning). Each sequence
    /// contributes its own length × frame width — the sequences can have
    /// different widths, so the short width must not be applied to all.
    pub fn approx_bytes(&self) -> usize {
        let seq = |v: &[Vec<f32>]| -> usize {
            v.len() * v.first().map_or(273, Vec::len) * std::mem::size_of::<f32>()
        };
        seq(&self.short) + seq(&self.medium) + seq(&self.long) + seq(&self.window)
    }

    /// Validates internal consistency, describing the first inconsistency
    /// found. Samples come from external labels (CDet alerts over
    /// collector data), so a bad one is an *input* fault — callers turn
    /// this into a typed [`crate::error::XatuError::InvalidSample`] rather
    /// than panicking.
    pub fn validate(&self) -> Result<(), String> {
        if self.window.is_empty() {
            return Err("empty detection window".into());
        }
        if self.event_step < 1 || self.event_step > self.window.len() {
            return Err(format!(
                "event_step {} outside window of {}",
                self.event_step,
                self.window.len()
            ));
        }
        if let Some(a) = self.anomaly_step {
            if a < 1 || a > self.window.len() {
                return Err(format!(
                    "anomaly_step {a} outside window of {}",
                    self.window.len()
                ));
            }
        }
        let width = self.window[0].len();
        if let Some(t) = self.window.iter().position(|f| f.len() != width) {
            return Err(format!(
                "window frame {t} has width {}, frame 0 has {width}",
                self.window[t].len()
            ));
        }
        Ok(())
    }
}

/// A sample widened to `f64` once, as flat frame arenas — the model's
/// native input. Built per sample at the start of a training run (or per
/// call by the compat wrappers) so the f32→f64 conversion never repeats
/// inside the epoch loop.
#[derive(Clone, Debug, Default)]
pub struct WideSample {
    /// Short, medium and long context frames.
    pub ctx: [FrameArena; TIMESCALES],
    /// Detection-window frames.
    pub window: FrameArena,
}

impl WideSample {
    /// Widens `sample` into a fresh set of arenas.
    pub fn from_sample(sample: &Sample) -> Self {
        let mut w = WideSample::default();
        w.fill_from(sample);
        w
    }

    /// Re-fills from `sample`, reusing arena capacity.
    pub fn fill_from(&mut self, sample: &Sample) {
        let dim = |v: &[Vec<f32>]| v.first().map_or(0, Vec::len);
        let ctx = [&sample.short, &sample.medium, &sample.long];
        for (arena, rows) in self.ctx.iter_mut().zip(ctx) {
            arena.fill_widened(dim(rows), rows);
        }
        self.window
            .fill_widened(dim(&sample.window), &sample.window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        Sample {
            short: vec![vec![0.0f32; 4]; 3],
            medium: vec![vec![0.0f32; 4]; 2],
            long: vec![vec![0.0f32; 4]; 2],
            window: vec![vec![0.0f32; 4]; 5],
            label: true,
            event_step: 3,
            anomaly_step: Some(2),
            meta: SampleMeta {
                customer: Ipv4(1),
                attack_type: AttackType::UdpFlood,
                window_start: 100,
            },
        }
    }

    #[test]
    fn widen_preserves_values() {
        let w = Sample::widen(&[vec![1.5f32, -2.0]]);
        assert_eq!(w, vec![vec![1.5f64, -2.0]]);
    }

    #[test]
    fn validate_accepts_good_sample() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_event_step() {
        let mut s = sample();
        s.event_step = 9;
        let err = s.validate().unwrap_err();
        assert!(err.contains("event_step"), "{err}");
    }

    #[test]
    fn validate_rejects_ragged_window() {
        let mut s = sample();
        s.window[2] = vec![0.0f32; 3];
        let err = s.validate().unwrap_err();
        assert!(err.contains("width"), "{err}");
    }

    #[test]
    fn approx_bytes_counts_frames() {
        let s = sample();
        assert_eq!(s.approx_bytes(), (3 + 2 + 2 + 5) * 4 * 4);
    }

    #[test]
    fn approx_bytes_uses_per_sequence_widths() {
        // Pooled sequences can have a different width than the short one;
        // each must be counted at its own width.
        let mut s = sample();
        s.medium = vec![vec![0.0f32; 6]; 2];
        s.long = vec![vec![0.0f32; 8]; 1];
        assert_eq!(
            s.approx_bytes(),
            (3 * 4 + 2 * 6 + 8 + 5 * 4) * std::mem::size_of::<f32>()
        );
    }

    #[test]
    fn wide_sample_matches_widen() {
        let mut s = sample();
        s.window[0][2] = 1.25;
        s.short[1][3] = -0.5;
        let w = WideSample::from_sample(&s);
        let rows = Sample::widen(&s.window);
        assert_eq!(w.window.len(), rows.len());
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(w.window.frame(t), &row[..]);
        }
        assert_eq!(w.ctx[0].frame(1)[3], -0.5f64);
        // Refill reuses buffers and stays correct.
        let mut w2 = w.clone();
        w2.fill_from(&s);
        assert_eq!(w2.ctx, w.ctx);
        assert_eq!(w2.window, w.window);
    }
}
