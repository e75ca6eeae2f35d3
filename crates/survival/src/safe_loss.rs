//! The SAFE survival loss and its analytic gradient.
//!
//! Appendix C of the Xatu paper: for a sample with label `c ∈ {0, 1}` and
//! event/censor time `t_i` (1-based step index), let `H = Σ_{t ≤ t_i} λ_t`
//! be the cumulative hazard up to `t_i`. The negative log-likelihood is
//!
//! ```text
//! L = H − c · ln(e^H − 1)
//! ```
//!
//! * `c = 0` (no attack): `L = H` — every hazard before the censor time is
//!   pushed toward zero, i.e. the model is rewarded for *not* detecting at
//!   any step of a quiet series.
//! * `c = 1` (attack detected by CDet at `t_i`): `L = H − ln(e^H − 1)
//!   = −ln(1 − e^{−H}) = −ln(1 − S_{t_i})` — the likelihood of the onset
//!   falling *anywhere before* `t_i` is maximized, which is exactly the
//!   early-detection objective: any alarm up to the ground-truth detection
//!   time is rewarded equally, rather than only an alarm at `t_i` itself.
//!
//! The gradient w.r.t. each hazard `λ_t`, `t ≤ t_i`, is
//!
//! ```text
//! ∂L/∂λ_t = 1 − c · e^H / (e^H − 1)  =  { 1            if c = 0
//!                                        { −1/(e^H − 1) if c = 1
//! ```
//!
//! and zero for `t > t_i`. For `c = 1` and small `H` the gradient magnitude
//! blows up like `1/H` (the model is certain no attack happens, which is
//! maximally wrong) — we compute it via `expm1` for accuracy and clamp to a
//! finite magnitude for optimizer stability.

/// Loss and hazard-gradient of one sample.
#[derive(Clone, Debug, PartialEq)]
pub struct SafeLossResult {
    /// Negative log-likelihood of the sample.
    pub loss: f64,
    /// ∂L/∂λ_t for every step of the input (zeros after `t_i`).
    pub dl_dhazard: Vec<f64>,
    /// Cumulative hazard `H` at the event/censor time (diagnostic).
    pub cum_hazard: f64,
}

/// Gradient magnitude clamp for the `c = 1`, `H → 0` regime.
const GRAD_CLAMP: f64 = 100.0;

/// Computes the SAFE loss and its gradient for one sample.
///
/// * `hazards` — the model's `λ_1..λ_n` (must be ≥ 0; clamped defensively).
/// * `attack` — `c`: whether the series ends in a CDet-detected attack.
/// * `event_step` — `t_i`, 1-based: the CDet detection step for attacks, or
///   the series length for censored (non-attack) series.
///
/// # Panics
/// Panics if `event_step` is zero or exceeds the series length.
pub fn safe_loss_and_grad(hazards: &[f64], attack: bool, event_step: usize) -> SafeLossResult {
    assert!(
        event_step >= 1 && event_step <= hazards.len(),
        "event_step {event_step} out of range 1..={}",
        hazards.len()
    );
    let h: f64 = hazards[..event_step].iter().map(|l| l.max(0.0)).sum();

    let (loss, grad_active) = if attack {
        // L = H − ln(e^H − 1) = −ln(1 − e^{−H}), stable via expm1/ln_1p.
        // −ln(1 − e^{−H}) = −ln(−expm1(−H))
        let one_minus_s = -(-h).exp_m1(); // 1 − e^{−H} ∈ (0, 1)
        let loss = if one_minus_s <= 0.0 {
            // H == 0 exactly: infinite loss; report a large finite value.
            GRAD_CLAMP
        } else {
            -one_minus_s.ln()
        };
        // dL/dλ = −1/(e^H − 1), clamped.
        let denom = h.exp_m1();
        let g = if denom <= 1.0 / GRAD_CLAMP {
            -GRAD_CLAMP
        } else {
            -1.0 / denom
        };
        (loss, g)
    } else {
        (h, 1.0)
    };

    let mut dl = vec![0.0; hazards.len()];
    for d in &mut dl[..event_step] {
        *d = grad_active;
    }
    SafeLossResult {
        loss,
        dl_dhazard: dl,
        cum_hazard: h,
    }
}

/// Mean SAFE loss over a batch (diagnostic helper for training logs).
///
/// # Panics
/// Panics as [`safe_loss_and_grad`] does, on a sample whose event step is
/// zero or past its series.
pub fn batch_loss(samples: &[(&[f64], bool, usize)]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples
        .iter()
        .map(|(hz, c, t)| safe_loss_and_grad(hz, *c, *t).loss)
        .sum::<f64>()
        / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn censored_loss_is_cumulative_hazard() {
        let r = safe_loss_and_grad(&[0.1, 0.2, 0.3], false, 3);
        assert!((r.loss - 0.6).abs() < 1e-12);
        assert_eq!(r.dl_dhazard, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn censored_gradient_stops_at_event_step() {
        let r = safe_loss_and_grad(&[0.1, 0.2, 0.3, 0.4], false, 2);
        assert_eq!(r.dl_dhazard, vec![1.0, 1.0, 0.0, 0.0]);
        assert!((r.loss - 0.3).abs() < 1e-12);
    }

    #[test]
    fn attack_loss_decreases_with_hazard() {
        // More hazard mass before the event -> lower loss for attacks.
        let lo = safe_loss_and_grad(&[0.1, 0.1], true, 2).loss;
        let hi = safe_loss_and_grad(&[1.0, 1.0], true, 2).loss;
        assert!(hi < lo);
    }

    #[test]
    fn attack_loss_equals_neg_log_one_minus_survival() {
        let hz = [0.4, 0.7, 0.2];
        let r = safe_loss_and_grad(&hz, true, 3);
        let s = (-(0.4 + 0.7 + 0.2f64)).exp();
        assert!((r.loss - (-(1.0 - s).ln())).abs() < 1e-12);
    }

    #[test]
    fn attack_gradient_is_negative_and_uniform_before_event() {
        let r = safe_loss_and_grad(&[0.5, 0.5, 0.5, 0.5], true, 3);
        assert!(r.dl_dhazard[0] < 0.0);
        assert_eq!(r.dl_dhazard[0], r.dl_dhazard[1]);
        assert_eq!(r.dl_dhazard[0], r.dl_dhazard[2]);
        assert_eq!(r.dl_dhazard[3], 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let hz = vec![0.3, 0.8, 0.1, 0.6];
        for (attack, t_i) in [(true, 3), (false, 4), (true, 4), (false, 2)] {
            let r = safe_loss_and_grad(&hz, attack, t_i);
            let eps = 1e-6;
            for k in 0..hz.len() {
                let mut up = hz.clone();
                up[k] += eps;
                let mut dn = hz.clone();
                dn[k] -= eps;
                let num = (safe_loss_and_grad(&up, attack, t_i).loss
                    - safe_loss_and_grad(&dn, attack, t_i).loss)
                    / (2.0 * eps);
                assert!(
                    (r.dl_dhazard[k] - num).abs() < 1e-6,
                    "attack={attack} t_i={t_i} k={k}: {} vs {num}",
                    r.dl_dhazard[k]
                );
            }
        }
    }

    #[test]
    fn zero_hazard_attack_is_clamped_not_infinite() {
        let r = safe_loss_and_grad(&[0.0, 0.0], true, 2);
        assert!(r.loss.is_finite());
        assert!(r.dl_dhazard[0].is_finite());
        assert!(r.dl_dhazard[0] <= -1.0, "strong push upward expected");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn event_step_zero_panics() {
        safe_loss_and_grad(&[0.1], true, 0);
    }

    #[test]
    fn batch_loss_averages() {
        let a = [0.5, 0.5];
        let b = [0.1, 0.1];
        let l1 = safe_loss_and_grad(&a, true, 2).loss;
        let l2 = safe_loss_and_grad(&b, false, 2).loss;
        let avg = batch_loss(&[(&a, true, 2), (&b, false, 2)]);
        assert!((avg - (l1 + l2) / 2.0).abs() < 1e-12);
    }
}
