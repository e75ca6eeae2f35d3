//! Per-customer multi-timescale pooled feature series.
//!
//! §4.1/§5.3: the model consumes the 1-minute feature series pooled at three
//! granularities — `TS_short` (1 min), `TS_med` (10 min), `TS_long`
//! (60 min). Holding 10 days of raw 1-minute frames for every customer would
//! cost gigabytes, so this buffer folds frames into the coarser series
//! *online*: it keeps
//!
//! * a bounded ring of recent 1-minute frames (the short series and the
//!   detection window are snapshotted from here),
//! * a complete 10-minute series (partial tail bucket maintained live), and
//! * a complete 60-minute series,
//!
//! matching exactly what `xatu_nn::pooling::avg_pool` would produce over the
//! full raw history (verified in tests).

use crate::frame::{FeatureFrame, NUM_FEATURES};
use std::collections::VecDeque;

/// One pooling accumulator building `window`-minute averages.
#[derive(Clone, Debug)]
struct PoolAccumulator {
    window: u32,
    /// Completed pooled frames.
    completed: Vec<FeatureFrame>,
    /// Sum of the partial bucket.
    partial_sum: Vec<f64>,
    /// Frames in the partial bucket.
    partial_count: u32,
    /// Maximum completed frames retained (older ones are discarded).
    retain: usize,
}

impl PoolAccumulator {
    fn new(window: u32, retain: usize) -> Self {
        PoolAccumulator {
            window,
            completed: Vec::new(),
            partial_sum: vec![0.0; NUM_FEATURES],
            partial_count: 0,
            retain,
        }
    }

    fn push(&mut self, frame: &FeatureFrame) {
        for (a, v) in self.partial_sum.iter_mut().zip(&frame.0) {
            *a += v;
        }
        self.partial_count += 1;
        if self.partial_count == self.window {
            let inv = 1.0 / self.window as f64;
            self.completed.push(FeatureFrame(
                self.partial_sum.iter().map(|v| v * inv).collect(),
            ));
            self.partial_sum.iter_mut().for_each(|v| *v = 0.0);
            self.partial_count = 0;
            if self.completed.len() > self.retain {
                let excess = self.completed.len() - self.retain;
                self.completed.drain(..excess);
            }
        }
    }

    /// Last `n` pooled frames, including the live partial bucket as its
    /// running average (the "live edge" a streaming aggregator exposes).
    fn tail(&self, n: usize) -> Vec<FeatureFrame> {
        let mut out: Vec<FeatureFrame> = Vec::with_capacity(n);
        let mut needed = n;
        let live = if self.partial_count > 0 {
            let inv = 1.0 / self.partial_count as f64;
            Some(FeatureFrame(
                self.partial_sum.iter().map(|v| v * inv).collect(),
            ))
        } else {
            None
        };
        if let Some(live) = &live {
            if needed > 0 {
                out.push(live.clone());
                needed -= 1;
            }
        }
        for f in self.completed.iter().rev().take(needed) {
            out.push(f.clone());
        }
        out.reverse();
        out
    }
}

/// The three-timescale feature buffer for one customer.
#[derive(Clone, Debug)]
pub struct PooledHistory {
    short_window: u32,
    raw: VecDeque<FeatureFrame>,
    raw_retain: usize,
    med: PoolAccumulator,
    long: PoolAccumulator,
    minutes_seen: u64,
}

/// Configuration of the three timescales (minutes per pooled step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timescales {
    /// Short-series granularity (paper: 1 minute).
    pub short: u32,
    /// Medium-series granularity (paper: 10 minutes).
    pub medium: u32,
    /// Long-series granularity (paper: 60 minutes).
    pub long: u32,
}

impl Default for Timescales {
    fn default() -> Self {
        Timescales {
            short: 1,
            medium: 10,
            long: 60,
        }
    }
}

impl PooledHistory {
    /// Creates a buffer retaining `raw_retain` 1-minute frames and up to
    /// `retain_steps` pooled frames per coarser series.
    pub fn new(ts: Timescales, raw_retain: usize, retain_steps: usize) -> Self {
        assert!(ts.short >= 1 && ts.medium > ts.short && ts.long > ts.medium);
        PooledHistory {
            short_window: ts.short,
            raw: VecDeque::with_capacity(raw_retain),
            raw_retain,
            med: PoolAccumulator::new(ts.medium, retain_steps),
            long: PoolAccumulator::new(ts.long, retain_steps),
            minutes_seen: 0,
        }
    }

    /// Appends one minute's frame.
    pub fn push(&mut self, frame: FeatureFrame) {
        self.med.push(&frame);
        self.long.push(&frame);
        self.raw.push_back(frame);
        if self.raw.len() > self.raw_retain {
            self.raw.pop_front();
        }
        self.minutes_seen += 1;
    }

    /// Total minutes pushed (not capped by retention).
    pub fn minutes_seen(&self) -> u64 {
        self.minutes_seen
    }

    /// Last `n` short-granularity frames (pooled at `short` if > 1).
    pub fn short_tail(&self, n: usize) -> Vec<Vec<f64>> {
        if self.short_window == 1 {
            self.raw
                .iter()
                .rev()
                .take(n)
                .map(|f| f.0.clone())
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect()
        } else {
            // Pool the raw ring at the short window, then take the tail.
            let raw: Vec<Vec<f64>> = self.raw.iter().map(|f| f.0.clone()).collect();
            let pooled = xatu_nn::pooling::avg_pool(&raw, self.short_window as usize);
            let skip = pooled.len().saturating_sub(n);
            pooled.into_iter().skip(skip).collect()
        }
    }

    /// Last `n` medium-granularity frames.
    pub fn medium_tail(&self, n: usize) -> Vec<Vec<f64>> {
        self.med.tail(n).into_iter().map(|f| f.0).collect()
    }

    /// Last `n` long-granularity frames.
    pub fn long_tail(&self, n: usize) -> Vec<Vec<f64>> {
        self.long.tail(n).into_iter().map(|f| f.0).collect()
    }

    /// The most recent raw frame, if any.
    pub fn latest(&self) -> Option<&FeatureFrame> {
        self.raw.back()
    }

    /// Raw 1-minute frames for absolute minutes `[start, end)`, provided
    /// frames were pushed for consecutive minutes starting at 0. Returns
    /// `None` when the range extends beyond retention or the future.
    pub fn raw_range(&self, start: u32, end: u32) -> Option<Vec<Vec<f64>>> {
        if end <= start {
            return Some(Vec::new());
        }
        let newest = self.minutes_seen.checked_sub(1)?; // minute of raw.back()
        if end as u64 > newest + 1 {
            return None; // future frames requested
        }
        let oldest = newest + 1 - self.raw.len() as u64;
        if (start as u64) < oldest {
            return None; // fell off the ring
        }
        let off = (start as u64 - oldest) as usize;
        let len = (end - start) as usize;
        Some(
            self.raw
                .iter()
                .skip(off)
                .take(len)
                .map(|f| f.0.clone())
                .collect(),
        )
    }

    /// The last `n` completed medium buckets whose data lies entirely
    /// before absolute minute `before` (bucket `k` covers minutes
    /// `[k·w, (k+1)·w)`). `None` if those buckets fell out of retention.
    pub fn medium_tail_before(&self, before: u32, n: usize) -> Option<Vec<Vec<f64>>> {
        Self::tail_before(&self.med, self.minutes_seen, before, n)
    }

    /// As [`Self::medium_tail_before`] for the long series.
    pub fn long_tail_before(&self, before: u32, n: usize) -> Option<Vec<Vec<f64>>> {
        Self::tail_before(&self.long, self.minutes_seen, before, n)
    }

    fn tail_before(
        acc: &PoolAccumulator,
        minutes_seen: u64,
        before: u32,
        n: usize,
    ) -> Option<Vec<Vec<f64>>> {
        let w = acc.window as u64;
        let completed_total = minutes_seen / w;
        // Buckets fully before `before`.
        let eligible = (before as u64 / w).min(completed_total);
        let kept_from = completed_total - acc.completed.len() as u64;
        let take = (n as u64).min(eligible);
        let first = eligible - take;
        if first < kept_from {
            return None; // requested buckets already discarded
        }
        let s = (first - kept_from) as usize;
        let e = (eligible - kept_from) as usize;
        Some(acc.completed[s..e].iter().map(|f| f.0.clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(v: f64) -> FeatureFrame {
        FeatureFrame(vec![v; NUM_FEATURES])
    }

    fn ts() -> Timescales {
        Timescales {
            short: 1,
            medium: 10,
            long: 60,
        }
    }

    #[test]
    fn matches_offline_pooling() {
        let mut h = PooledHistory::new(ts(), 300, 100);
        let raw: Vec<Vec<f64>> = (0..125).map(|i| vec![i as f64; NUM_FEATURES]).collect();
        for r in &raw {
            h.push(FeatureFrame(r.clone()));
        }
        let offline_med = xatu_nn::pooling::avg_pool(&raw, 10);
        let online_med = h.medium_tail(offline_med.len());
        assert_eq!(online_med.len(), offline_med.len());
        for (a, b) in online_med.iter().zip(&offline_med) {
            assert!((a[0] - b[0]).abs() < 1e-9, "{} vs {}", a[0], b[0]);
        }
        let offline_long = xatu_nn::pooling::avg_pool(&raw, 60);
        let online_long = h.long_tail(offline_long.len());
        for (a, b) in online_long.iter().zip(&offline_long) {
            assert!((a[0] - b[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn short_tail_returns_most_recent_first_to_last() {
        let mut h = PooledHistory::new(ts(), 5, 10);
        for i in 0..8 {
            h.push(frame(i as f64));
        }
        let tail = h.short_tail(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0][0], 5.0);
        assert_eq!(tail[2][0], 7.0);
    }

    #[test]
    fn raw_retention_bounds_memory() {
        let mut h = PooledHistory::new(ts(), 10, 10);
        for i in 0..100 {
            h.push(frame(i as f64));
        }
        assert_eq!(h.short_tail(usize::MAX).len(), 10);
        assert_eq!(h.minutes_seen(), 100);
    }

    #[test]
    fn partial_bucket_appears_as_live_edge() {
        let mut h = PooledHistory::new(ts(), 100, 10);
        for _ in 0..15 {
            h.push(frame(2.0));
        }
        // 15 minutes: one complete 10-min bucket + live partial of 5.
        let med = h.medium_tail(2);
        assert_eq!(med.len(), 2);
        assert_eq!(med[0][0], 2.0);
        assert_eq!(med[1][0], 2.0);
    }

    #[test]
    fn requesting_more_than_available_returns_available() {
        let mut h = PooledHistory::new(ts(), 100, 10);
        h.push(frame(1.0));
        assert_eq!(h.medium_tail(99).len(), 1); // just the live edge
        assert_eq!(h.long_tail(99).len(), 1);
        assert_eq!(h.short_tail(99).len(), 1);
    }

    #[test]
    fn raw_range_returns_exact_minutes() {
        let mut h = PooledHistory::new(ts(), 20, 10);
        for i in 0..30 {
            h.push(frame(i as f64));
        }
        let r = h.raw_range(25, 28).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0][0], 25.0);
        assert_eq!(r[2][0], 27.0);
        // Future minutes unavailable.
        assert!(h.raw_range(28, 31).is_none());
        // Fell off the 20-frame ring.
        assert!(h.raw_range(5, 8).is_none());
        // Empty range is fine.
        assert_eq!(h.raw_range(9, 9).unwrap().len(), 0);
    }

    #[test]
    fn medium_tail_before_excludes_later_buckets() {
        let mut h = PooledHistory::new(ts(), 300, 100);
        for i in 0..65 {
            h.push(frame(i as f64));
        }
        // Buckets: [0..10)=4.5, [10..20)=14.5, ... [50..60)=54.5.
        let t = h.medium_tail_before(35, 2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0][0], 14.5);
        assert_eq!(t[1][0], 24.5);
        // Asking for more than exist truncates.
        let all = h.medium_tail_before(35, 99).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0][0], 4.5);
    }

    #[test]
    fn tail_before_respects_retention() {
        let mut h = PooledHistory::new(ts(), 300, 3); // retain only 3 buckets
        for i in 0..100 {
            h.push(frame(i as f64));
        }
        // 10 total buckets; only 7,8,9 kept. Requesting buckets before
        // minute 50 (buckets 0..5) must fail.
        assert!(h.medium_tail_before(50, 2).is_none());
        // Latest kept buckets are fine.
        let t = h.medium_tail_before(100, 2).unwrap();
        assert_eq!(t[1][0], 94.5);
    }

    #[test]
    fn latest_frame() {
        let mut h = PooledHistory::new(ts(), 10, 10);
        assert!(h.latest().is_none());
        h.push(frame(7.0));
        assert_eq!(h.latest().unwrap().0[0], 7.0);
    }
}
