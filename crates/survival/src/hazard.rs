//! Hazard → survival transforms.

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

/// Incremental rolling-survival state for one online detector instance.
#[derive(Clone, Debug)]
pub struct RollingSurvival {
    window: usize,
    buf: Vec<f64>,
    head: usize,
    filled: usize,
    sum: f64,
}

impl RollingSurvival {
    /// Creates a rolling accumulator over `window` steps.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "rolling window must be >= 1");
        RollingSurvival {
            window,
            buf: vec![0.0; window],
            head: 0,
            filled: 0,
            sum: 0.0,
        }
    }

    /// Pushes the next hazard and returns the current survival probability.
    ///
    /// Non-finite hazards are treated as 0 (certain survival contribution):
    /// `NaN.max(0.0)` is `NaN`, so without the guard a single corrupted
    /// input would poison the ring buffer's running sum forever — every
    /// subsequent survival value would be `NaN` even after the bad value
    /// rotated out of the window.
    pub fn push(&mut self, hazard: f64) -> f64 {
        let h = if hazard.is_finite() {
            hazard.max(0.0)
        } else {
            0.0
        };
        self.sum += h - self.buf[self.head];
        self.buf[self.head] = h;
        self.head = (self.head + 1) % self.window;
        self.filled = (self.filled + 1).min(self.window);
        if self.sum < 0.0 {
            self.sum = 0.0;
        }
        (-self.sum).exp()
    }

    /// Resets the accumulator (e.g. after mitigation ends).
    pub fn reset(&mut self) {
        self.buf.iter_mut().for_each(|v| *v = 0.0);
        self.head = 0;
        self.filled = 0;
        self.sum = 0.0;
    }

    /// Current survival probability without pushing.
    pub fn survival(&self) -> f64 {
        (-self.sum).exp()
    }

    /// The full internal state `(window, buf, head, filled, sum)` for
    /// checkpointing. Restoring these exact values via
    /// [`RollingSurvival::restore`] continues the accumulator bit-for-bit.
    pub fn state(&self) -> (usize, &[f64], usize, usize, f64) {
        (self.window, &self.buf, self.head, self.filled, self.sum)
    }

    /// Rebuilds an accumulator from the state captured by
    /// [`RollingSurvival::state`]. Returns `Err` on internally-inconsistent
    /// values (wrong buffer length, cursor out of range, non-finite sum) so
    /// a corrupted checkpoint cannot smuggle a poisoned ring buffer in.
    pub fn restore(
        window: usize,
        buf: Vec<f64>,
        head: usize,
        filled: usize,
        sum: f64,
    ) -> Result<Self, &'static str> {
        if window == 0 {
            return Err("rolling window must be >= 1");
        }
        if buf.len() != window {
            return Err("ring buffer length != window");
        }
        if head >= window || filled > window {
            return Err("ring cursor out of range");
        }
        if !sum.is_finite() || sum < 0.0 || buf.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err("non-finite or negative hazard state");
        }
        Ok(RollingSurvival {
            window,
            buf,
            head,
            filled,
            sum,
        })
    }
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

    #[test]
    fn incremental_matches_batch() {
        let hz = [0.3, 0.0, 1.2, 0.7, 0.0, 0.1, 2.0, 0.0];
        let batch = rolling_survival(&hz, 3);
        let mut inc = RollingSurvival::new(3);
        for (t, &h) in hz.iter().enumerate() {
            let s = inc.push(h);
            assert!((s - batch[t]).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn nan_hazard_does_not_poison_the_window() {
        let mut inc = RollingSurvival::new(3);
        inc.push(0.5);
        let s = inc.push(f64::NAN);
        assert!(s.is_finite(), "NaN hazard leaked into survival: {s}");
        let s = inc.push(f64::INFINITY);
        assert!(s.is_finite());
        // Once the finite hazard rotates out, survival fully recovers.
        for _ in 0..3 {
            inc.push(0.0);
        }
        assert_eq!(inc.survival(), 1.0);
    }

    #[test]
    fn state_roundtrip_is_bit_identical() {
        let hz = [0.3, 0.0, 1.2, 0.7, 0.0];
        let mut a = RollingSurvival::new(3);
        for &h in &hz {
            a.push(h);
        }
        let (w, buf, head, filled, sum) = a.state();
        let mut b = RollingSurvival::restore(w, buf.to_vec(), head, filled, sum).unwrap();
        for &h in &[0.1, 2.0, 0.0, 0.4] {
            assert_eq!(a.push(h).to_bits(), b.push(h).to_bits());
        }
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        assert!(RollingSurvival::restore(0, vec![], 0, 0, 0.0).is_err());
        assert!(RollingSurvival::restore(2, vec![0.0; 3], 0, 0, 0.0).is_err());
        assert!(RollingSurvival::restore(2, vec![0.0; 2], 2, 0, 0.0).is_err());
        assert!(RollingSurvival::restore(2, vec![0.0; 2], 0, 3, 0.0).is_err());
        assert!(RollingSurvival::restore(2, vec![0.0; 2], 0, 0, f64::NAN).is_err());
        assert!(RollingSurvival::restore(2, vec![f64::NAN; 2], 0, 0, 0.0).is_err());
        assert!(RollingSurvival::restore(2, vec![0.0; 2], 0, 0, -1.0).is_err());
    }

    #[test]
    fn reset_restores_full_survival() {
        let mut inc = RollingSurvival::new(4);
        inc.push(3.0);
        assert!(inc.survival() < 0.1);
        inc.reset();
        assert_eq!(inc.survival(), 1.0);
    }
}
