//! Training samples: the multi-timescale sequences plus the survival label.

use crate::model::TIMESCALES;
use serde::{Deserialize, Serialize};
use xatu_features::frame::NUM_FEATURES;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::FrameArena;

/// One (attack or non-attack) time series, ready for the model, cut on the
/// serving schedule: bucket `k` of a timescale of granularity `g` is the
/// mean of minutes `[k·g, (k+1)·g)`.
///
/// Feature frames are stored as `f32` to halve memory; the model widens to
/// `f64` at its input boundary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sample {
    /// Each timescale's completed buckets before the window, oldest first
    /// (short, medium, long): the last one ends at or before
    /// `meta.window_start`.
    pub ctx: [Vec<Vec<f32>>; TIMESCALES],
    /// The minutes just before the window that belong to buckets still
    /// open at its start, oldest first: [`lead_minutes`] of them, the
    /// last `window_start mod g` opening timescale `g`'s first window
    /// bucket.
    pub lead: Vec<Vec<f32>>,
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

/// How many lead-in minutes a window starting at `window_start` carries
/// for timescales of `gran` minutes per bucket: the longest of the open
/// buckets' `window_start mod g` (for nested granularities, as every
/// preset has, `window_start mod max(g)`).
pub fn lead_minutes(gran: [u32; TIMESCALES], window_start: u32) -> usize {
    gran.iter()
        .map(|&g| (window_start % g) as usize)
        .max()
        .unwrap_or(0)
}

impl Sample {
    /// Widened views of the sequences for the f64 model.
    pub fn widen(v: &[Vec<f32>]) -> Vec<Vec<f64>> {
        v.iter()
            .map(|f| f.iter().map(|&x| x as f64).collect())
            .collect()
    }

    /// Rough memory footprint in bytes (capacity planning). Each sequence
    /// contributes its own length × frame width.
    pub fn approx_bytes(&self) -> usize {
        let seq = |v: &Vec<Vec<f32>>| -> usize {
            v.len() * v.first().map_or(NUM_FEATURES, Vec::len) * std::mem::size_of::<f32>()
        };
        self.ctx
            .iter()
            .chain([&self.lead, &self.window])
            .map(seq)
            .sum()
    }

    /// Validates internal consistency against a model of timescales `gran`
    /// minutes per bucket, describing the first inconsistency found: step
    /// indices inside the window, every frame of every sequence
    /// [`NUM_FEATURES`] wide (the model's input width), and the lead-in
    /// [`lead_minutes`] long. Samples come from external labels (CDet
    /// alerts over collector data), so a bad one is an *input* fault —
    /// callers turn this into a typed
    /// [`crate::error::XatuError::InvalidSample`] rather than panicking.
    pub fn validate(&self, gran: [u32; TIMESCALES]) -> Result<(), String> {
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
        let names = [
            "short context",
            "medium context",
            "long context",
            "lead-in",
            "window",
        ];
        let seqs = self.ctx.iter().chain([&self.lead, &self.window]);
        for (name, seq) in names.iter().zip(seqs) {
            if let Some(t) = seq.iter().position(|f| f.len() != NUM_FEATURES) {
                return Err(format!(
                    "{name} frame {t} has width {}, the model takes {NUM_FEATURES}",
                    seq[t].len()
                ));
            }
        }
        let lead = lead_minutes(gran, self.meta.window_start);
        if self.lead.len() != lead {
            return Err(format!(
                "lead-in of {} minutes, a window at minute {} on timescales {gran:?} needs {lead}",
                self.lead.len(),
                self.meta.window_start
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
    /// Short, medium and long context buckets.
    pub ctx: [FrameArena; TIMESCALES],
    /// The lead-in minutes, then the detection window's.
    pub minutes: FrameArena,
    /// How many of `minutes` are lead-in.
    pub lead: usize,
    /// Absolute minute of the first window frame.
    pub window_start: u32,
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
        for (arena, rows) in self.ctx.iter_mut().zip(&sample.ctx) {
            arena.fill_widened(dim(rows), rows);
        }
        self.minutes.fill_widened(dim(&sample.window), &sample.lead);
        for f in &sample.window {
            self.minutes.push_widened(f);
        }
        self.lead = sample.lead.len();
        self.window_start = sample.meta.window_start;
    }

    /// Detection-window length.
    pub fn window_len(&self) -> usize {
        self.minutes.len() - self.lead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Timescales whose buckets a window at minute 100 cuts into: 100 mod 3
    /// is 1 and 100 mod 6 is 4, so the sample carries 4 lead-in minutes.
    const GRAN: [u32; TIMESCALES] = [1, 3, 6];

    fn sample() -> Sample {
        let frames = |n: usize| vec![vec![0.0f32; NUM_FEATURES]; n];
        Sample {
            ctx: [frames(3), frames(2), frames(2)],
            lead: frames(4),
            window: frames(5),
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
    fn lead_minutes_is_the_longest_open_bucket() {
        assert_eq!(lead_minutes(GRAN, 100), 4);
        assert_eq!(lead_minutes(GRAN, 102), 0);
        assert_eq!(lead_minutes([1, 10, 60], 395), 35);
        assert_eq!(lead_minutes([10, 60, 120], 250), 10);
    }

    #[test]
    fn validate_accepts_good_sample() {
        sample().validate(GRAN).unwrap();
    }

    #[test]
    fn validate_rejects_bad_event_step() {
        let mut s = sample();
        s.event_step = 9;
        let err = s.validate(GRAN).unwrap_err();
        assert!(err.contains("event_step"), "{err}");
    }

    #[test]
    fn validate_rejects_ragged_window() {
        let mut s = sample();
        s.window[2] = vec![0.0f32; 3];
        let err = s.validate(GRAN).unwrap_err();
        assert!(err.contains("width"), "{err}");
    }

    #[test]
    fn approx_bytes_counts_frames() {
        let s = sample();
        assert_eq!(s.approx_bytes(), (3 + 2 + 2 + 4 + 5) * NUM_FEATURES * 4);
    }

    #[test]
    fn approx_bytes_uses_per_sequence_widths() {
        // Each sequence is counted at its own width, whatever it is.
        let mut s = sample();
        s.ctx[1] = vec![vec![0.0f32; 6]; 2];
        s.ctx[2] = vec![vec![0.0f32; 8]; 1];
        assert_eq!(
            s.approx_bytes(),
            ((3 + 4 + 5) * NUM_FEATURES + 2 * 6 + 8) * std::mem::size_of::<f32>()
        );
    }

    #[test]
    fn wide_sample_matches_widen() {
        let mut s = sample();
        s.window[0][2] = 1.25;
        s.lead[3][1] = 0.75;
        s.ctx[0][1][3] = -0.5;
        let w = WideSample::from_sample(&s);
        let rows = Sample::widen(&s.window);
        assert_eq!((w.lead, w.window_len(), w.window_start), (4, 5, 100));
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(w.minutes.frame(w.lead + t), &row[..]);
        }
        assert_eq!(w.minutes.frame(3)[1], 0.75f64);
        assert_eq!(w.ctx[0].frame(1)[3], -0.5f64);
        // Refill reuses buffers and stays correct.
        let mut w2 = w.clone();
        w2.fill_from(&s);
        assert_eq!(w2.ctx, w.ctx);
        assert_eq!(w2.minutes, w.minutes);
    }
}
