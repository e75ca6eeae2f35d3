//! Workspace-level property tests on cross-crate invariants.

use proptest::prelude::*;
use xatu::metrics::areas::{integrate_areas, ScrubWindow};
use xatu::survival::hazard::{rolling_survival, survival_curve};
use xatu::survival::safe_loss::safe_loss_and_grad;

proptest! {
    /// Survival curves are monotone non-increasing and live in (0, 1].
    #[test]
    fn survival_monotone(hazards in proptest::collection::vec(0.0f64..3.0, 1..64)) {
        let s = survival_curve(&hazards);
        prop_assert!(s.windows(2).all(|w| w[1] <= w[0] + 1e-15));
        prop_assert!(s.iter().all(|&v| v > 0.0 && v <= 1.0));
    }

    /// Rolling survival always dominates the unbounded curve (dropping old
    /// hazards can only raise survival).
    #[test]
    fn rolling_dominates_cumulative(
        hazards in proptest::collection::vec(0.0f64..3.0, 1..64),
        window in 1usize..16,
    ) {
        let full = survival_curve(&hazards);
        let rolled = rolling_survival(&hazards, window);
        for (r, f) in rolled.iter().zip(&full) {
            prop_assert!(*r >= *f - 1e-12);
        }
    }

    /// The SAFE loss is finite and its gradient sign matches the label:
    /// non-positive for attacks (push hazards up), exactly 1 for censored.
    #[test]
    fn safe_loss_gradient_signs(
        hazards in proptest::collection::vec(0.0f64..2.0, 1..40),
        attack in any::<bool>(),
    ) {
        let t_i = hazards.len();
        let r = safe_loss_and_grad(&hazards, attack, t_i);
        prop_assert!(r.loss.is_finite());
        for g in &r.dl_dhazard {
            if attack {
                prop_assert!(*g <= 0.0);
            } else {
                prop_assert!(*g == 1.0);
            }
        }
    }

    /// Area integration: B ≤ A always, and effectiveness/overhead are
    /// non-negative and finite when A > 0.
    #[test]
    fn area_invariants(
        volume in proptest::collection::vec(0.0f64..1e6, 4..64),
        onset_frac in 0.0f64..1.0,
        det_frac in 0.0f64..1.0,
    ) {
        let n = volume.len() as u32;
        let onset = (onset_frac * (n - 2) as f64) as u32;
        let end = n;
        let det = onset.saturating_sub(5) + (det_frac * 10.0) as u32;
        let areas = integrate_areas(
            &volume,
            0,
            onset,
            end,
            &[ScrubWindow { start: det, end }],
        );
        prop_assert!(areas.b <= areas.a + 1e-9);
        prop_assert!(areas.effectiveness() >= 0.0 && areas.effectiveness() <= 1.0);
        if areas.a > 0.0 {
            prop_assert!(areas.overhead().is_finite());
            prop_assert!(areas.overhead() >= 0.0);
        }
    }
}
