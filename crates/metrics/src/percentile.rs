//! Percentiles and distribution summaries.

/// Percentile of a sample using the nearest-rank method the paper's error
/// bars imply (exact order statistics, no interpolation).
///
/// `p` is in [0, 100]. NaN values are ignored. Returns `None` for empty or
/// all-NaN input, and for a `p` outside [0, 100] or NaN.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The (10th, 50th, 90th) or (25th, 50th, 75th) style summary the paper's
/// box plots report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Lower percentile value.
    pub lo: f64,
    /// Median.
    pub median: f64,
    /// Upper percentile value.
    pub hi: f64,
    /// Number of samples summarized — NaN entries are excluded, matching
    /// the filter [`percentile`] applies, so `n` is exactly the population
    /// the quoted percentiles describe.
    pub n: usize,
}

impl Summary {
    /// Builds a summary with the given low/high percentiles (e.g. 10/90).
    pub fn of(values: &[f64], lo_p: f64, hi_p: f64) -> Summary {
        Summary {
            lo: percentile(values, lo_p).unwrap_or(f64::NAN),
            median: percentile(values, 50.0).unwrap_or(f64::NAN),
            hi: percentile(values, hi_p).unwrap_or(f64::NAN),
            n: values.iter().filter(|v| !v.is_nan()).count(),
        }
    }

    /// 10th/50th/90th — used for effectiveness and delay in the paper.
    pub fn p10_50_90(values: &[f64]) -> Summary {
        Summary::of(values, 10.0, 90.0)
    }

    /// 25th/50th/75th — used for scrubbing overhead in the paper.
    pub fn p25_50_75(values: &[f64]) -> Summary {
        Summary::of(values, 25.0, 75.0)
    }
}

/// Arithmetic mean; `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_sample() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn extremes() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(9.0));
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&[]), None);
    }

    /// A percentile outside [0, 100] is no percentile: `None`, and a NaN
    /// marker in a summary, where it used to panic.
    #[test]
    fn an_out_of_range_percentile_is_none() {
        for p in [-1.0, 100.5, f64::NAN, f64::INFINITY] {
            assert_eq!(percentile(&[1.0, 2.0], p), None, "p = {p}");
        }
        let s = Summary::of(&[1.0, 2.0, 3.0], f64::NAN, 101.0);
        assert!(s.lo.is_nan() && s.hi.is_nan());
        assert_eq!((s.median, s.n), (2.0, 3));
    }

    #[test]
    fn nan_values_are_ignored() {
        assert_eq!(percentile(&[f64::NAN, 2.0, 1.0], 50.0), Some(1.0));
    }

    #[test]
    fn summary_orders_correctly() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::p10_50_90(&v);
        assert_eq!(s.lo, 10.0);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.hi, 90.0);
        assert_eq!(s.n, 100);
    }

    #[test]
    fn summary_n_counts_only_the_filtered_population() {
        // `percentile` ignores NaNs, so a summary over [1, 2, NaN, 3] is a
        // summary of THREE values; reporting n=4 overstated the population
        // behind the quoted percentiles.
        let s = Summary::p10_50_90(&[1.0, 2.0, f64::NAN, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 2.0);
        // All-NaN input: an empty population with NaN markers.
        let e = Summary::p10_50_90(&[f64::NAN, f64::NAN]);
        assert_eq!(e.n, 0);
        assert!(e.median.is_nan());
    }

    #[test]
    fn nearest_rank_is_exact_order_statistic() {
        let v = [10.0, 20.0, 30.0, 40.0];
        // 75th percentile of 4 values: rank ceil(0.75*4)=3 -> 30.
        assert_eq!(percentile(&v, 75.0), Some(30.0));
        // 76th percentile: rank ceil(3.04)=4 -> 40.
        assert_eq!(percentile(&v, 76.0), Some(40.0));
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }
}
