//! Hazard → survival transforms, as batch functions. The streaming form
//! — one ring of the last `window` hazards per customer — lives in each
//! customer's record in `xatu-core`'s detector core, pinned to
//! [`rolling_survival`] by a test there.

/// Turns a hazard sequence `λ_1..λ_n` into the survival curve
/// `S_t = exp(−Σ_{k≤t} λ_k)`.
///
/// Hazards must be non-negative (the model head guarantees this via
/// softplus); negative inputs are clamped to zero defensively.
pub fn survival_curve(hazards: &[f64]) -> Vec<f64> {
    let mut cum = 0.0;
    hazards
        .iter()
        .map(|&l| {
            cum += l.max(0.0);
            (-cum).exp()
        })
        .collect()
}

/// Rolling-window survival for online operation: at each step `t`,
/// `S_t = exp(−Σ_{k>t−w, k≤t} λ_k)` over the last `w` hazards.
///
/// This is the consistent-detection form used by the auto-regressive
/// detector: the survival probability stays depressed for as long as
/// hazards remain elevated, and recovers once they subside, instead of
/// decaying to zero over an unbounded horizon.
///
/// # Panics
/// Panics if `window == 0`.
pub fn rolling_survival(hazards: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "rolling window must be >= 1");
    let mut out = Vec::with_capacity(hazards.len());
    let mut sum = 0.0;
    for t in 0..hazards.len() {
        sum += hazards[t].max(0.0);
        if t >= window {
            sum -= hazards[t - window].max(0.0);
            // Guard against drift from repeated subtraction.
            if sum < 0.0 {
                sum = 0.0;
            }
        }
        out.push((-sum).exp());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_starts_at_exp_minus_first() {
        let s = survival_curve(&[0.5, 0.5]);
        assert!((s[0] - (-0.5f64).exp()).abs() < 1e-12);
        assert!((s[1] - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn survival_is_monotone_nonincreasing_and_in_unit_interval() {
        let hz = [0.0, 0.1, 2.0, 0.0, 0.3, 5.0];
        let s = survival_curve(&hz);
        for w in s.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn zero_hazard_means_certain_survival() {
        let s = survival_curve(&[0.0; 10]);
        assert!(s.iter().all(|&v| (v - 1.0).abs() < 1e-15));
    }

    #[test]
    fn negative_hazards_are_clamped() {
        let s = survival_curve(&[-3.0, -1.0]);
        assert_eq!(s, vec![1.0, 1.0]);
    }

    #[test]
    fn rolling_matches_batch_within_window() {
        let hz = [0.1, 0.2, 0.3];
        assert_eq!(rolling_survival(&hz, 10), survival_curve(&hz));
    }

    #[test]
    fn rolling_recovers_after_quiet_period() {
        let mut hz = vec![2.0; 5];
        hz.extend(vec![0.0; 10]);
        let s = rolling_survival(&hz, 5);
        assert!(s[4] < 1e-4);
        assert!((s[14] - 1.0).abs() < 1e-12, "recovered: {}", s[14]);
    }
}
