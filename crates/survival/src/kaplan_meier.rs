//! The Kaplan–Meier product-limit estimator.
//!
//! The workspace's models produce *parametric* survival curves; the
//! Kaplan–Meier estimator gives the complementary non-parametric view of
//! the empirical onset process (how long customers actually "survive"
//! between attacks), used by the experiment harness as a diagnostic and
//! for sanity-checking calibration data.

/// One observation: time-to-event, and whether the event occurred
/// (`true`) or the observation was censored (`false`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KmObservation {
    /// Time at which the event happened or the observation was censored.
    pub time: f64,
    /// True for an observed event, false for censoring.
    pub event: bool,
}

/// A step of the estimated survival function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KmStep {
    /// Event time.
    pub time: f64,
    /// Survival estimate just after `time`.
    pub survival: f64,
    /// Number at risk just before `time`.
    pub at_risk: usize,
    /// Events at `time`.
    pub events: usize,
}

/// Computes the Kaplan–Meier estimate. Returns one step per distinct
/// event time, in increasing time order. Censored-only times contribute
/// to the at-risk bookkeeping but create no steps.
pub fn kaplan_meier(observations: &[KmObservation]) -> Vec<KmStep> {
    let mut obs: Vec<KmObservation> = observations
        .iter()
        .copied()
        .filter(|o| o.time.is_finite() && o.time >= 0.0)
        .collect();
    obs.sort_by(|a, b| a.time.total_cmp(&b.time));

    let mut steps = Vec::new();
    let mut survival = 1.0;
    let mut at_risk = obs.len();
    let mut i = 0;
    while i < obs.len() {
        let t = obs[i].time;
        let mut events = 0usize;
        let mut leaving = 0usize;
        while i < obs.len() && obs[i].time == t {
            if obs[i].event {
                events += 1;
            }
            leaving += 1;
            i += 1;
        }
        if events > 0 && at_risk > 0 {
            survival *= 1.0 - events as f64 / at_risk as f64;
            steps.push(KmStep {
                time: t,
                survival,
                at_risk,
                events,
            });
        }
        at_risk -= leaving;
    }
    steps
}

/// The median survival time: the first event time where the estimate
/// drops to ≤ 0.5, if it ever does.
pub fn median_survival(steps: &[KmStep]) -> Option<f64> {
    steps.iter().find(|s| s.survival <= 0.5).map(|s| s.time)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64) -> KmObservation {
        KmObservation { time, event: true }
    }

    fn cens(time: f64) -> KmObservation {
        KmObservation { time, event: false }
    }

    #[test]
    fn no_censoring_matches_empirical_survival() {
        // Events at 1, 2, 3, 4 out of 4 subjects: S = 3/4, 1/2, 1/4, 0.
        let steps = kaplan_meier(&[ev(1.0), ev(2.0), ev(3.0), ev(4.0)]);
        let survivals: Vec<f64> = steps.iter().map(|s| s.survival).collect();
        assert_eq!(survivals, vec![0.75, 0.5, 0.25, 0.0]);
    }

    #[test]
    fn censoring_reduces_at_risk_without_steps() {
        // Event at 1 (of 3), censor at 2, event at 3 (of 1).
        let steps = kaplan_meier(&[ev(1.0), cens(2.0), ev(3.0)]);
        assert_eq!(steps.len(), 2);
        assert!((steps[0].survival - 2.0 / 3.0).abs() < 1e-12);
        // After the censor, one subject remains; its event drops S to 0.
        assert!((steps[1].survival - 0.0).abs() < 1e-12);
        assert_eq!(steps[1].at_risk, 1);
    }

    #[test]
    fn tied_events_handled_together() {
        let steps = kaplan_meier(&[ev(2.0), ev(2.0), ev(5.0), cens(6.0)]);
        assert_eq!(steps[0].events, 2);
        assert!((steps[0].survival - 0.5).abs() < 1e-12);
    }

    #[test]
    fn survival_is_monotone_nonincreasing() {
        let obs: Vec<KmObservation> = (0..50)
            .map(|i| KmObservation {
                time: ((i * 7919) % 100) as f64,
                event: i % 3 != 0,
            })
            .collect();
        let steps = kaplan_meier(&obs);
        for w in steps.windows(2) {
            assert!(w[1].survival <= w[0].survival + 1e-15);
            assert!(w[1].time > w[0].time);
        }
    }

    #[test]
    fn median_survival_found() {
        let steps = kaplan_meier(&[ev(1.0), ev(2.0), ev(3.0), ev(4.0)]);
        assert_eq!(median_survival(&steps), Some(2.0));
        // All censored: no median.
        let none = kaplan_meier(&[cens(1.0), cens(2.0)]);
        assert_eq!(median_survival(&none), None);
    }

    #[test]
    fn all_censored_input_yields_no_steps() {
        // Every observation censored: the estimator never observes an
        // event, so the survival function stays flat at 1.0 — no steps,
        // no median, no panic from the at-risk bookkeeping reaching zero.
        let steps = kaplan_meier(&[cens(1.0), cens(1.0), cens(3.0), cens(7.0)]);
        assert!(steps.is_empty());
        assert_eq!(median_survival(&steps), None);
        assert!(kaplan_meier(&[]).is_empty());
    }

    #[test]
    fn invalid_times_are_ignored() {
        let steps = kaplan_meier(&[ev(f64::NAN), ev(-1.0), ev(2.0)]);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].time, 2.0);
        let steps = kaplan_meier(&[ev(f64::INFINITY), ev(-f64::NAN), ev(2.0)]);
        assert_eq!(steps.len(), 1);
    }

    /// The sort is a total order (no `partial_cmp` to fail), and it puts
    /// `-0.0` before `0.0`; the two are still one time, one step.
    #[test]
    fn signed_zero_times_are_one_step() {
        let steps = kaplan_meier(&[ev(0.0), cens(1.0), ev(-0.0), ev(0.0)]);
        assert_eq!(steps.len(), 1);
        assert_eq!((steps[0].events, steps[0].at_risk), (3, 4));
        assert_eq!(steps[0].survival, 0.25);
    }
}
