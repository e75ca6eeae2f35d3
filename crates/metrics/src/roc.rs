//! ROC analysis.
//!
//! Fig 9 of the paper plots the trade-off between false-positive rate and
//! true-positive rate against CDet labels as the detection threshold varies.
//! This module builds ROC curves from (score, label) pairs where a *lower*
//! survival probability means a more confident attack call (scores are
//! negated internally so the conventional "higher = more positive" applies).

/// One point on a ROC curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RocPoint {
    /// Threshold that produced this point.
    pub threshold: f64,
    /// False-positive rate.
    pub fpr: f64,
    /// True-positive rate.
    pub tpr: f64,
}

/// Builds a ROC curve from `(score, is_positive)` pairs where a *higher*
/// score means "more likely positive". Points are ordered by increasing FPR.
/// Returns an empty vector when either class is absent.
///
/// NaN scores are dropped before the sweep (a NaN can never clear any
/// threshold, so it carries no ranking information), which keeps the sort
/// total instead of panicking; the class counts are taken *after* the
/// filter so rates still sum to 1.
pub fn roc_curve(samples: &[(f64, bool)]) -> Vec<RocPoint> {
    let mut sorted: Vec<(f64, bool)> = samples
        .iter()
        .filter(|(s, _)| !s.is_nan())
        .copied()
        .collect();
    let pos = sorted.iter().filter(|(_, y)| *y).count();
    let neg = sorted.len() - pos;
    if pos == 0 || neg == 0 {
        return Vec::new();
    }
    // Descending by score: sweep threshold from the top.
    sorted.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut out = Vec::new();
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    out.push(RocPoint {
        threshold: f64::INFINITY,
        fpr: 0.0,
        tpr: 0.0,
    });
    while i < sorted.len() {
        let threshold = sorted[i].0;
        // Consume every sample tied at this score.
        while i < sorted.len() && sorted[i].0 == threshold {
            if sorted[i].1 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        out.push(RocPoint {
            threshold,
            fpr: fp as f64 / neg as f64,
            tpr: tp as f64 / pos as f64,
        });
    }
    out
}

/// Area under a ROC curve by trapezoidal integration.
pub fn auc(curve: &[RocPoint]) -> f64 {
    curve
        .windows(2)
        .map(|w| (w[1].fpr - w[0].fpr) * (w[0].tpr + w[1].tpr) / 2.0)
        .sum()
}

/// The TPR achieved at (or just below) a target FPR, by linear
/// interpolation — "when the false positive rate is 4.8 %, Xatu reaches a
/// true positive rate as high as 95.4 %" style readouts.
///
/// Vertical (tied-FPR) segments are climbed to the top: when several
/// points share the target FPR the *highest* TPR among them is achievable
/// at that FPR, not whichever the sweep visits first.
pub fn tpr_at_fpr(curve: &[RocPoint], target_fpr: f64) -> Option<f64> {
    if curve.is_empty() {
        return None;
    }
    let mut best: Option<f64> = None;
    for p in curve {
        if p.fpr <= target_fpr {
            best = Some(best.map_or(p.tpr, |b: f64| b.max(p.tpr)));
        }
    }
    // Interpolate across the window straddling the target, if any.
    for w in curve.windows(2) {
        if w[0].fpr < target_fpr && w[1].fpr > target_fpr {
            let frac = (target_fpr - w[0].fpr) / (w[1].fpr - w[0].fpr);
            let interp = w[0].tpr + frac * (w[1].tpr - w[0].tpr);
            best = Some(best.map_or(interp, |b| b.max(interp)));
        }
    }
    best.or_else(|| curve.first().map(|p| p.tpr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier_has_auc_one() {
        let samples = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let curve = roc_curve(&samples);
        assert!((auc(&curve) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_classifier_has_auc_half() {
        // Interleaved scores: each prefix contains equal positives/negatives.
        let mut samples = Vec::new();
        for i in 0..100 {
            samples.push((i as f64, i % 2 == 0));
        }
        let curve = roc_curve(&samples);
        let a = auc(&curve);
        assert!((a - 0.5).abs() < 0.02, "auc={a}");
    }

    #[test]
    fn inverted_classifier_has_auc_zero() {
        let samples = vec![(0.1, true), (0.2, true), (0.8, false), (0.9, false)];
        assert!(auc(&roc_curve(&samples)) < 1e-12);
    }

    #[test]
    fn degenerate_single_class_is_empty() {
        assert!(roc_curve(&[(0.5, true), (0.7, true)]).is_empty());
        assert!(roc_curve(&[]).is_empty());
    }

    #[test]
    fn curve_is_monotone() {
        let samples: Vec<(f64, bool)> =
            (0..50).map(|i| ((i * 7 % 13) as f64, i % 3 == 0)).collect();
        let curve = roc_curve(&samples);
        for w in curve.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
        let last = curve.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn signed_zeros_are_one_threshold() {
        let curve = roc_curve(&[(0.0, true), (-0.0, false), (1.0, true), (-1.0, false)]);
        let points: Vec<(f64, f64)> = curve.iter().map(|p| (p.fpr, p.tpr)).collect();
        assert_eq!(points, [(0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0)]);
    }

    #[test]
    fn nan_scores_are_dropped_not_a_panic() {
        // A NaN survival score (e.g. from a degenerate hazard) used to
        // panic the descending sort; it must simply not participate.
        let samples = vec![
            (0.9, true),
            (f64::NAN, false),
            (0.8, true),
            (f64::NAN, true),
            (0.2, false),
            (0.1, false),
        ];
        let curve = roc_curve(&samples);
        let clean = roc_curve(&[(0.9, true), (0.8, true), (0.2, false), (0.1, false)]);
        assert_eq!(curve, clean);
        assert!((auc(&curve) - 1.0).abs() < 1e-12);
        // All-NaN (or NaN leaving one class empty) degenerates to empty.
        assert!(roc_curve(&[(f64::NAN, true), (f64::NAN, false)]).is_empty());
        assert!(roc_curve(&[(f64::NAN, true), (0.3, false)]).is_empty());
    }

    #[test]
    fn tpr_at_fpr_climbs_vertical_segments() {
        // Perfectly-separated scores give a vertical segment at FPR 0:
        // (0,0) -> (0,0.5) -> (0,1.0) -> (1,1.0). The achievable TPR at
        // FPR 0 is the TOP of that segment.
        let samples = vec![(0.9, true), (0.8, true), (0.1, false), (0.05, false)];
        let curve = roc_curve(&samples);
        assert_eq!(tpr_at_fpr(&curve, 0.0), Some(1.0));
        // Mid-segment targets interpolate along the horizontal stretch.
        let t = tpr_at_fpr(&curve, 0.25).unwrap();
        assert_eq!(t, 1.0);
    }

    #[test]
    fn tpr_at_fpr_interpolates() {
        let samples = vec![(0.9, true), (0.8, false), (0.7, true), (0.1, false)];
        let curve = roc_curve(&samples);
        let t = tpr_at_fpr(&curve, 0.5).unwrap();
        assert!((0.0..=1.0).contains(&t));
        assert_eq!(tpr_at_fpr(&curve, 1.0), Some(1.0));
    }
}
