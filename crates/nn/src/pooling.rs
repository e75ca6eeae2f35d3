//! 1-D average pooling over feature time-series.
//!
//! §4.1 of the paper: "Xatu applies three different 1-dimensional aggregation
//! (pooling) layers at different time granularity", turning the 1-minute
//! feature series into 1-minute, 10-minute and 60-minute series. Pooling here
//! is non-overlapping averaging (window == stride). Nothing back-propagates
//! through it: samples carry their medium and long contexts already pooled,
//! so input attribution (Fig 11) reports gradients per pooled step.

/// Averages `series` over non-overlapping windows of `window` steps.
///
/// The tail is averaged over however many steps remain (a partial window),
/// matching what a streaming aggregator produces at the live edge.
///
/// # Panics
/// Panics if `window == 0`.
pub fn avg_pool(series: &[Vec<f64>], window: usize) -> Vec<Vec<f64>> {
    assert!(window > 0, "pool window must be >= 1");
    if series.is_empty() {
        return Vec::new();
    }
    let dim = series[0].len();
    let mut out = Vec::with_capacity(series.len().div_ceil(window));
    for chunk in series.chunks(window) {
        let mut acc = vec![0.0; dim];
        for frame in chunk {
            assert_eq!(frame.len(), dim, "ragged series");
            for (a, v) in acc.iter_mut().zip(frame) {
                *a += v;
            }
        }
        let inv = 1.0 / chunk.len() as f64;
        for a in &mut acc {
            *a *= inv;
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| (0..dim).map(|k| (t * dim + k) as f64).collect())
            .collect()
    }

    #[test]
    fn window_one_is_identity() {
        let s = series(5, 3);
        assert_eq!(avg_pool(&s, 1), s);
    }

    #[test]
    fn exact_windows_average() {
        let s = vec![
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ];
        let p = avg_pool(&s, 2);
        assert_eq!(p, vec![vec![2.0, 3.0], vec![6.0, 7.0]]);
    }

    #[test]
    fn partial_tail_window() {
        let s = vec![vec![1.0], vec![2.0], vec![3.0]];
        let p = avg_pool(&s, 2);
        assert_eq!(p, vec![vec![1.5], vec![3.0]]);
    }

    #[test]
    fn empty_series() {
        assert!(avg_pool(&[], 4).is_empty());
    }

    #[test]
    fn pooling_preserves_global_mean() {
        // With exact windows, mean of pooled == mean of original.
        let s = series(12, 2);
        let p = avg_pool(&s, 3);
        let mean = |v: &[Vec<f64>]| v.iter().flatten().sum::<f64>() / (v.len() * v[0].len()) as f64;
        assert!((mean(&s) - mean(&p)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pool window")]
    fn zero_window_panics() {
        avg_pool(&[vec![1.0]], 0);
    }
}
