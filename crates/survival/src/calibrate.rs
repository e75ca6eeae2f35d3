//! Threshold calibration under a quantile constraint.
//!
//! §5.3: "We identify the threshold in the validation data, which maximizes
//! mitigation effectiveness, while keeping the scrubbing overhead for 75 %
//! of customers below a given bound." This module implements the generic
//! search: the caller supplies, for each candidate threshold, the objective
//! value and the per-customer cost values; the calibrator picks the best
//! feasible threshold.

/// Outcome of evaluating one candidate threshold.
#[derive(Clone, Debug)]
pub struct CandidateEval {
    /// The threshold that was evaluated.
    pub threshold: f64,
    /// Objective to maximize (e.g. median mitigation effectiveness).
    pub objective: f64,
    /// Per-customer cost values (e.g. cumulative scrubbing overhead).
    pub per_customer_cost: Vec<f64>,
}

/// The calibration constraint: `quantile` of customers must have cost
/// ≤ `bound`.
#[derive(Clone, Copy, Debug)]
pub struct QuantileBound {
    /// Quantile in (0, 1], e.g. 0.75.
    pub quantile: f64,
    /// Cost bound, e.g. 0.001 for a 0.1 % overhead bound.
    pub bound: f64,
}

impl QuantileBound {
    /// The cost at the checked quantile of `costs` (nearest rank); 0 for
    /// an empty vector (no customer had attacks, so none paid).
    ///
    /// NaN costs sort *last* (worst), so a NaN landing at or below the
    /// checked quantile is the quantile's cost rather than a panic — an
    /// unmeasurable overhead must never be treated as a cheap one.
    pub fn quantile_cost(&self, costs: &[f64]) -> f64 {
        if costs.is_empty() {
            return 0.0;
        }
        let mut sorted = costs.to_vec();
        sorted.sort_by(|a, b| match (a.is_nan(), b.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => a.total_cmp(b),
        });
        let idx =
            ((self.quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }

    /// True if `costs` satisfies the constraint. Empty cost vectors are
    /// trivially feasible (no customers had attacks); a NaN at or below
    /// the checked quantile is infeasible (`NaN <= bound` is false).
    pub fn is_satisfied(&self, costs: &[f64]) -> bool {
        self.quantile_cost(costs) <= self.bound
    }
}

/// Picks the feasible candidate with the highest objective. Ties are broken
/// toward the *lower* cost at the checked quantile ([`QuantileBound::quantile_cost`]),
/// then toward the *higher* threshold (less aggressive detection). Returns
/// `None` if no candidate is feasible.
///
/// Candidates with a NaN objective are skipped outright: every comparison
/// against NaN is false, so such a candidate could otherwise win by being
/// compared first and then never displaced.
pub fn pick_threshold(candidates: &[CandidateEval], bound: QuantileBound) -> Option<f64> {
    let mut best: Option<(&CandidateEval, f64)> = None;
    for c in candidates {
        let cost = bound.quantile_cost(&c.per_customer_cost);
        // A NaN cost is not feasible either.
        let feasible = cost <= bound.bound;
        if c.objective.is_nan() || !feasible {
            continue;
        }
        let better = best.is_none_or(|(b, b_cost)| {
            c.objective > b.objective
                || (c.objective == b.objective
                    && (cost < b_cost || (cost == b_cost && c.threshold > b.threshold)))
        });
        if better {
            best = Some((c, cost));
        }
    }
    best.map(|(c, _)| c.threshold)
}

/// A grid of thresholds in (0, 1) that is logarithmically dense at *both*
/// ends: near 0, because a sharp survival model collapses to ~1e-4 during
/// attacks so tight overhead bounds calibrate to tiny thresholds; and near
/// 1, because loose bounds calibrate just below the quiet-traffic level.
///
/// # Panics
/// Panics if `n < 4`: each half needs two points to span its range.
pub fn threshold_grid(n: usize) -> Vec<f64> {
    assert!(n >= 4, "need at least 4 candidate thresholds");
    let half = n / 2;
    let mut out = Vec::with_capacity(n);
    // Low half: 10^{-5} .. 0.5, log-spaced.
    for i in 0..half {
        let expo = -5.0 + (5.0 - 0.301) * i as f64 / (half - 1) as f64;
        out.push(10f64.powf(expo));
    }
    // High half: 1 − (0.5 .. 10^{-4}), log-spaced from the top.
    let rest = n - half;
    for i in 0..rest {
        let expo = -0.301 - (4.0 - 0.301) * i as f64 / (rest - 1) as f64;
        out.push(1.0 - 10f64.powf(-(-expo)));
    }
    out.sort_by(f64::total_cmp);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_bound_basic() {
        let b = QuantileBound {
            quantile: 0.75,
            bound: 1.0,
        };
        // 3 of 4 <= 1.0 -> satisfied.
        assert!(b.is_satisfied(&[0.1, 0.5, 0.9, 5.0]));
        // Only 2 of 4 <= 1.0 -> violated.
        assert!(!b.is_satisfied(&[0.1, 2.0, 0.9, 5.0]));
        assert!(b.is_satisfied(&[]));
    }

    #[test]
    fn picks_highest_objective_feasible() {
        let bound = QuantileBound {
            quantile: 0.75,
            bound: 1.0,
        };
        let cands = vec![
            CandidateEval {
                threshold: 0.9,
                objective: 0.6,
                per_customer_cost: vec![0.1, 0.2],
            },
            CandidateEval {
                threshold: 0.5,
                objective: 0.95,
                per_customer_cost: vec![0.5, 0.9],
            },
            CandidateEval {
                threshold: 0.1,
                objective: 0.99,
                per_customer_cost: vec![5.0, 9.0], // infeasible
            },
        ];
        assert_eq!(pick_threshold(&cands, bound), Some(0.5));
    }

    #[test]
    fn none_when_all_infeasible() {
        let bound = QuantileBound {
            quantile: 0.75,
            bound: 0.01,
        };
        let cands = vec![CandidateEval {
            threshold: 0.5,
            objective: 1.0,
            per_customer_cost: vec![1.0],
        }];
        assert_eq!(pick_threshold(&cands, bound), None);
    }

    #[test]
    fn nan_cost_is_infeasible_not_a_panic() {
        let bound = QuantileBound {
            quantile: 0.75,
            bound: 1.0,
        };
        // A NaN overhead (e.g. 0/0 from a customer with zero volume) used
        // to panic the partial_cmp sort; it must read as "worst cost":
        // infeasible whenever it lands at or below the checked quantile.
        assert!(!bound.is_satisfied(&[f64::NAN]));
        assert!(!bound.is_satisfied(&[-f64::NAN, 0.1]));
        assert!(!bound.is_satisfied(&[0.1, f64::NAN, f64::NAN, 0.3]));
        // NaN strictly above the checked quantile: the p75 entry is still
        // finite and within bound, so the candidate stays feasible (the
        // bound tolerates one bad customer in four by design).
        assert!(bound.is_satisfied(&[0.1, 0.2, f64::NAN, 0.3]));
        // And pick_threshold survives NaN costs end to end.
        let cands = vec![
            CandidateEval {
                threshold: 0.5,
                objective: 0.9,
                per_customer_cost: vec![f64::NAN],
            },
            CandidateEval {
                threshold: 0.2,
                objective: 0.8,
                per_customer_cost: vec![0.1],
            },
        ];
        assert_eq!(pick_threshold(&cands, bound), Some(0.2));
    }

    #[test]
    fn nan_objective_candidates_are_skipped() {
        let bound = QuantileBound {
            quantile: 0.75,
            bound: 1.0,
        };
        let cands = vec![
            CandidateEval {
                threshold: 0.9,
                objective: f64::NAN,
                per_customer_cost: vec![0.1],
            },
            CandidateEval {
                threshold: 0.5,
                objective: 0.3,
                per_customer_cost: vec![0.1],
            },
        ];
        assert_eq!(pick_threshold(&cands, bound), Some(0.5));
        // All-NaN objectives: no winner rather than an arbitrary one.
        let all_nan = vec![CandidateEval {
            threshold: 0.9,
            objective: f64::NAN,
            per_customer_cost: vec![0.1],
        }];
        assert_eq!(pick_threshold(&all_nan, bound), None);
    }

    /// Equal objectives go to the lower p75 cost, and at equal cost too to
    /// the higher threshold.
    #[test]
    fn tie_breaks_toward_higher_threshold() {
        let bound = QuantileBound {
            quantile: 0.75,
            bound: 10.0,
        };
        let cand = |threshold, per_customer_cost| CandidateEval {
            threshold,
            objective: 0.8,
            per_customer_cost,
        };
        let equal_cost = vec![cand(0.3, vec![]), cand(0.7, vec![])];
        assert_eq!(pick_threshold(&equal_cost, bound), Some(0.7));
        // p75 costs 2, 1, 1 and 3 (the 4 sits above the quantile): the
        // cheaper pair ties, and the higher of its thresholds wins.
        let costs = vec![
            cand(0.9, vec![2.0, 2.0, 2.0, 0.0]),
            cand(0.2, vec![1.0, 1.0, 1.0, 4.0]),
            cand(0.5, vec![1.0, 1.0, 1.0, 0.0]),
            cand(0.1, vec![3.0; 4]),
        ];
        assert_eq!(pick_threshold(&costs, bound), Some(0.5));
    }

    /// The smallest grid: two points a half, finite, sorted by a total
    /// order; below it the halves cannot span their ranges.
    #[test]
    fn the_smallest_grid_has_both_ends() {
        let g = threshold_grid(4);
        assert_eq!(g.len(), 4);
        assert!(g.iter().all(|t| t.is_finite()) && g.windows(2).all(|w| w[0] < w[1]));
        assert!(std::panic::catch_unwind(|| threshold_grid(3)).is_err());
    }

    #[test]
    fn grid_is_increasing_and_covers_both_ends() {
        let g = threshold_grid(20);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(g.iter().all(|&t| (0.0..1.0).contains(&t)));
        assert!(g[0] < 1e-4, "low end covered: {}", g[0]);
        assert!(*g.last().unwrap() > 0.999, "high end covered");
        // Several candidates below 0.1 (tight-bound regime).
        assert!(g.iter().filter(|&&t| t < 0.1).count() >= 4);
    }
}
