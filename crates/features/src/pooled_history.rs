//! Per-customer multi-timescale pooled feature series.
//!
//! §4.1/§5.3: the model consumes the 1-minute feature series pooled at three
//! granularities — `TS_short` (1 min), `TS_med` (10 min), `TS_long`
//! (60 min) — on one schedule: bucket `k` of a timescale of granularity
//! `g` is the mean of minutes `[k·g, (k+1)·g)` counted from the first
//! pushed minute. Holding 10 days of raw 1-minute frames for every
//! customer would cost gigabytes, so this buffer folds frames into the
//! coarser series *online*: it keeps
//!
//! * a bounded ring of recent 1-minute frames (the detection window, the
//!   minutes of the buckets still open at its start, and the buckets of a
//!   1-minute timescale are read from here), and
//! * the completed buckets of every timescale coarser than a minute,
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
}

/// The three-timescale feature buffer for one customer.
#[derive(Clone, Debug)]
pub struct PooledHistory {
    /// Minutes per bucket of each timescale: short, medium, long.
    gran: [u32; 3],
    raw: VecDeque<FeatureFrame>,
    raw_retain: usize,
    /// One accumulator per timescale coarser than a minute.
    pools: [Option<PoolAccumulator>; 3],
    minutes_seen: u64,
}

impl PooledHistory {
    /// Creates a buffer for timescales of `gran` minutes per bucket (short,
    /// medium, long), retaining `raw_retain` 1-minute frames and up to
    /// `retain_steps` completed buckets per coarser timescale.
    pub fn new(gran: [u32; 3], raw_retain: usize, retain_steps: usize) -> Self {
        assert!(gran[0] >= 1 && gran[1] > gran[0] && gran[2] > gran[1]);
        PooledHistory {
            gran,
            raw: VecDeque::with_capacity(raw_retain),
            raw_retain,
            pools: gran.map(|g| (g > 1).then(|| PoolAccumulator::new(g, retain_steps))),
            minutes_seen: 0,
        }
    }

    /// Appends one minute's frame.
    pub fn push(&mut self, frame: FeatureFrame) {
        for pool in self.pools.iter_mut().flatten() {
            pool.push(&frame);
        }
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

    /// The last `n` completed buckets of timescale `i` (0 short, 1 medium,
    /// 2 long) whose minutes all lie before absolute minute `before`,
    /// oldest first: fewer when fewer exist, `None` when they fell out of
    /// retention. A 1-minute timescale's buckets are the raw frames.
    pub fn tail_before(&self, i: usize, before: u32, n: usize) -> Option<Vec<Vec<f64>>> {
        let g = self.gran[i] as u64;
        let completed_total = self.minutes_seen / g;
        // Buckets fully before `before`.
        let eligible = (before as u64 / g).min(completed_total);
        let first = eligible - (n as u64).min(eligible);
        let Some(acc) = &self.pools[i] else {
            return self.raw_range(first as u32, eligible as u32);
        };
        let kept_from = completed_total - acc.completed.len() as u64;
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

    const GRAN: [u32; 3] = [1, 10, 60];

    #[test]
    fn matches_offline_pooling() {
        let mut h = PooledHistory::new(GRAN, 300, 100);
        let raw: Vec<Vec<f64>> = (0..125).map(|i| vec![i as f64; NUM_FEATURES]).collect();
        for r in &raw {
            h.push(FeatureFrame(r.clone()));
        }
        // 125 minutes complete 12 medium and 2 long buckets.
        let offline_med = xatu_nn::pooling::avg_pool(&raw[..120], 10);
        let online_med = h.tail_before(1, 125, offline_med.len()).unwrap();
        assert_eq!(online_med.len(), offline_med.len());
        for (a, b) in online_med.iter().zip(&offline_med) {
            assert!((a[0] - b[0]).abs() < 1e-9, "{} vs {}", a[0], b[0]);
        }
        let offline_long = xatu_nn::pooling::avg_pool(&raw[..120], 60);
        let online_long = h.tail_before(2, 125, offline_long.len()).unwrap();
        assert_eq!(online_long.len(), offline_long.len());
        for (a, b) in online_long.iter().zip(&offline_long) {
            assert!((a[0] - b[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_before_at_one_minute_reads_the_raw_ring() {
        let mut h = PooledHistory::new(GRAN, 5, 10);
        for i in 0..8 {
            h.push(frame(i as f64));
        }
        let tail = h.tail_before(0, 8, 3).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0][0], 5.0);
        assert_eq!(tail[2][0], 7.0);
        assert_eq!(h.tail_before(0, 6, 2).unwrap()[1][0], 5.0);
    }

    #[test]
    fn raw_retention_bounds_memory() {
        let mut h = PooledHistory::new(GRAN, 10, 10);
        for i in 0..100 {
            h.push(frame(i as f64));
        }
        assert_eq!(h.raw_range(90, 100).unwrap().len(), 10);
        assert!(h.raw_range(89, 100).is_none());
        assert!(h.tail_before(0, 100, 11).is_none());
        assert_eq!(h.minutes_seen(), 100);
    }

    #[test]
    fn requesting_more_than_available_returns_available() {
        let mut h = PooledHistory::new(GRAN, 100, 10);
        for i in 0..15 {
            h.push(frame(i as f64));
        }
        // 15 minutes: one completed medium bucket, no long one, and the
        // open medium bucket is not a bucket yet.
        assert_eq!(h.tail_before(0, 15, 99).unwrap().len(), 15);
        assert_eq!(
            h.tail_before(1, 15, 99).unwrap(),
            vec![vec![4.5; NUM_FEATURES]]
        );
        assert!(h.tail_before(2, 15, 99).unwrap().is_empty());
    }

    #[test]
    fn raw_range_returns_exact_minutes() {
        let mut h = PooledHistory::new(GRAN, 20, 10);
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
        let mut h = PooledHistory::new(GRAN, 300, 100);
        for i in 0..65 {
            h.push(frame(i as f64));
        }
        // Buckets: [0..10)=4.5, [10..20)=14.5, ... [50..60)=54.5.
        let t = h.tail_before(1, 35, 2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0][0], 14.5);
        assert_eq!(t[1][0], 24.5);
        // Asking for more than exist truncates.
        let all = h.tail_before(1, 35, 99).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0][0], 4.5);
    }

    #[test]
    fn tail_before_respects_retention() {
        let mut h = PooledHistory::new(GRAN, 300, 3); // retain only 3 buckets
        for i in 0..100 {
            h.push(frame(i as f64));
        }
        // 10 total buckets; only 7,8,9 kept. Requesting buckets before
        // minute 50 (buckets 0..5) must fail.
        assert!(h.tail_before(1, 50, 2).is_none());
        // Latest kept buckets are fine.
        let t = h.tail_before(1, 100, 2).unwrap();
        assert_eq!(t[1][0], 94.5);
    }

    #[test]
    fn latest_frame() {
        let mut h = PooledHistory::new(GRAN, 10, 10);
        assert!(h.latest().is_none());
        h.push(frame(7.0));
        assert_eq!(h.latest().unwrap().0[0], 7.0);
    }
}
