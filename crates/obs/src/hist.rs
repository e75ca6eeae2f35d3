//! Fixed-bucket histograms.
//!
//! Buckets are defined by a `'static` slice of upper bounds chosen at
//! construction, plus one implicit overflow bucket, so observing a value is
//! a short scan with no allocation — embeddable in per-minute hot paths.
//! Merging sums bucket-wise, which is order-independent over integers, so
//! per-worker histograms stitched in any order produce the same counts.

/// A histogram over fixed, caller-chosen bucket bounds.
///
/// `counts[i]` holds observations `v <= bounds[i]` (first matching bound);
/// `counts[bounds.len()]` is the overflow bucket. NaN observations are
/// counted separately and excluded from `sum`, so a single NaN reading can
/// never poison the aggregate.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedHistogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    nan: u64,
}

impl FixedHistogram {
    /// Creates a histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        FixedHistogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            nan: 0,
        }
    }

    /// Records one observation. No-op with the `obs` feature disabled.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        if !crate::enabled() {
            return;
        }
        if v.is_nan() {
            self.nan += 1;
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Adds another histogram's counts into this one.
    ///
    /// # Panics
    /// If the bucket bounds differ. Bounds are `'static` constants chosen
    /// in code, so a mismatch is two call sites disagreeing, not an input.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.nan += other.nan;
    }

    /// Zeroes every bucket in place, keeping the allocation — used when a
    /// per-worker histogram is folded into an aggregate between batches
    /// and reused.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        self.nan = 0;
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total non-NaN observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of non-NaN observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// NaN observations dropped from the buckets.
    pub fn nan_count(&self) -> u64 {
        self.nan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[1.0, 2.0, 4.0];

    #[test]
    fn observations_land_in_expected_buckets() {
        let mut h = FixedHistogram::new(BOUNDS);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        if crate::enabled() {
            // <=1: {0.5, 1.0}; <=2: {1.5}; <=4: {3.0}; overflow: {100}.
            assert_eq!(h.counts(), &[2, 1, 1, 1]);
            assert_eq!(h.count(), 5);
            assert_eq!(h.sum(), 0.5 + 1.0 + 1.5 + 3.0 + 100.0);
        } else {
            assert_eq!(h.count(), 0);
        }
    }

    #[test]
    fn nan_is_isolated() {
        let mut h = FixedHistogram::new(BOUNDS);
        h.observe(f64::NAN);
        h.observe(1.0);
        if crate::enabled() {
            assert_eq!(h.nan_count(), 1);
            assert_eq!(h.count(), 1);
            assert_eq!(h.sum(), 1.0);
        }
    }

    #[test]
    fn reset_keeps_allocation_and_zeroes_counts() {
        let mut h = FixedHistogram::new(BOUNDS);
        h.observe(0.5);
        h.observe(f64::NAN);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.nan_count(), 0);
        assert!(h.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = FixedHistogram::new(BOUNDS);
        let mut b = FixedHistogram::new(BOUNDS);
        a.observe(0.5);
        b.observe(3.0);
        b.observe(9.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        if crate::enabled() {
            assert_eq!(ab.count(), 3);
        }
    }
}
