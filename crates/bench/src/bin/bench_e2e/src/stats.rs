//! Medians, percentiles and spreads.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a tail read off a handful
/// of points is not reported.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
    if values.len() < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    xatu_metrics::percentile::percentile(values, p)
}

/// Distance between the first and third quartile as a share of the median,
/// with quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the driver's spread figure). `None` for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quantile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((quantile(3) - quantile(1)) / median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        // p90 of 120: rank 108, 12 beyond.
        assert_eq!(percentile(&v, 90.0), Some(108.0));
        assert_eq!(percentile(&v, 50.0), Some(60.0));
        // p99 of 120: rank 119, one beyond.
        assert_eq!(percentile(&v, 99.0), None);
        // p90 of 99: rank 90, nine beyond; of 100: rank 90, ten beyond.
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&v[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((quartile_spread(&[13.0, 10.0, 11.0]).unwrap() - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
