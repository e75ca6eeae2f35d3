//! The Adam optimizer (Kingma & Ba), the optimizer the paper trains with
//! (§5.3: Adam, learning rate 1e-4, batch size 64).

use crate::Params;

/// Adam with bias-corrected first/second moments.
///
/// Moment buffers are allocated lazily on the first step, in the visit order
/// of the [`Params`] implementation, so one optimizer instance is bound to
/// one model.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates Adam with the paper's defaults besides the learning rate.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The optimizer state `(t, m, v)` for checkpointing. The moment
    /// buffers are in [`Params::visit`] order; an optimizer restored from
    /// these values continues bit-identically to one that never stopped.
    pub fn moments(&self) -> (u64, &[Vec<f64>], &[Vec<f64>]) {
        (self.t, &self.m, &self.v)
    }

    /// Restores the state captured by [`Adam::moments`] for `params`, the
    /// model the optimizer will step.
    ///
    /// The whole state is checked before anything changes, and on `Err`
    /// nothing does: either no step was taken (`t == 0`, no moments) or
    /// there is one first and one second moment chunk per parameter chunk
    /// of `params`, in [`Params::visit`] order and of that chunk's length,
    /// every moment finite and every second moment non-negative.
    pub fn restore_moments(
        &mut self,
        params: &mut dyn Params,
        t: u64,
        m: Vec<Vec<f64>>,
        v: Vec<Vec<f64>>,
    ) -> Result<(), &'static str> {
        if m.len() != v.len() {
            return Err("first/second moment chunk counts differ");
        }
        if m.iter().zip(&v).any(|(a, b)| a.len() != b.len()) {
            return Err("first/second moment chunk shapes differ");
        }
        if (t == 0) != m.is_empty() {
            return Err("step count disagrees with the moments");
        }
        if !m.is_empty() {
            let (mut chunks, mut fits) = (0, true);
            params.visit(&mut |p, _| {
                fits &= m.get(chunks).is_some_and(|c| c.len() == p.len());
                chunks += 1;
            });
            if !fits || chunks != m.len() {
                return Err("moment shapes differ from the model's");
            }
        }
        let finite = |c: &Vec<Vec<f64>>| c.iter().flatten().all(|x| x.is_finite());
        if !finite(&m) || !finite(&v) || v.iter().flatten().any(|&x| x < 0.0) {
            return Err("non-finite moment or negative second moment");
        }
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Applies one update using the gradients currently stored in `params`.
    /// Gradients are *not* zeroed; call [`Params::zero_grads`] afterwards.
    pub fn step(&mut self, params: &mut dyn Params) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let mut idx = 0;
        let (m, v) = (&mut self.m, &mut self.v);
        params.visit(&mut |p, g| {
            if idx == m.len() {
                m.push(vec![0.0; p.len()]);
                v.push(vec![0.0; p.len()]);
            }
            let (mi, vi) = (&mut m[idx], &mut v[idx]);
            assert_eq!(mi.len(), p.len(), "param set changed shape between steps");
            for k in 0..p.len() {
                mi[k] = b1 * mi[k] + (1.0 - b1) * g[k];
                vi[k] = b2 * vi[k] + (1.0 - b2) * g[k] * g[k];
                let m_hat = mi[k] / bc1;
                let v_hat = vi[k] / bc2;
                p[k] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial 2-parameter quadratic "model" for optimizer tests.
    struct Quad {
        p: Vec<f64>,
        g: Vec<f64>,
        target: Vec<f64>,
    }

    impl Quad {
        fn loss(&self) -> f64 {
            self.p
                .iter()
                .zip(&self.target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }

        fn compute_grads(&mut self) {
            for k in 0..self.p.len() {
                self.g[k] = 2.0 * (self.p[k] - self.target[k]);
            }
        }
    }

    impl Params for Quad {
        fn visit(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
            f(&mut self.p, &mut self.g);
        }
    }

    #[test]
    fn converges_on_quadratic() {
        let mut q = Quad {
            p: vec![5.0, -3.0],
            g: vec![0.0; 2],
            target: vec![1.0, 2.0],
        };
        let mut adam = Adam::new(0.05);
        for _ in 0..2000 {
            q.compute_grads();
            adam.step(&mut q);
        }
        assert!(q.loss() < 1e-6, "loss={}", q.loss());
    }

    #[test]
    fn first_step_is_lr_sized() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut q = Quad {
            p: vec![10.0],
            g: vec![0.0],
            target: vec![0.0],
        };
        let mut adam = Adam::new(0.1);
        q.compute_grads();
        adam.step(&mut q);
        assert!((q.p[0] - 9.9).abs() < 1e-6, "p={}", q.p[0]);
    }

    #[test]
    fn zero_grad_means_no_motion() {
        let mut q = Quad {
            p: vec![1.0, 2.0],
            g: vec![0.0; 2],
            target: vec![1.0, 2.0],
        };
        let mut adam = Adam::new(0.1);
        q.compute_grads(); // zero at the optimum
        adam.step(&mut q);
        assert_eq!(q.p, vec![1.0, 2.0]);
    }

    #[test]
    fn moment_roundtrip_resumes_bit_identically() {
        let run = |split: Option<usize>| -> Vec<f64> {
            let mut q = Quad {
                p: vec![5.0, -3.0],
                g: vec![0.0; 2],
                target: vec![1.0, 2.0],
            };
            let mut adam = Adam::new(0.05);
            for step in 0..40 {
                if split == Some(step) {
                    // Checkpoint/restore into a brand-new optimizer.
                    let (t, m, v) = adam.moments();
                    let (m, v) = (m.to_vec(), v.to_vec());
                    adam = Adam::new(0.05);
                    adam.restore_moments(&mut q, t, m, v).unwrap();
                }
                q.compute_grads();
                adam.step(&mut q);
            }
            q.p
        };
        let uninterrupted = run(None);
        let resumed = run(Some(17));
        for (a, b) in uninterrupted.iter().zip(&resumed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Moments that disagree with each other, with the step count or with
    /// the model, or that hold a value no step could have produced, are
    /// refused and leave the optimizer as it was.
    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut q = Quad {
            p: vec![0.5, 1.0],
            g: vec![0.0; 2],
            target: vec![0.0; 2],
        };
        let mut adam = Adam::new(0.1);
        let two = || vec![vec![0.25; 2]];
        for (t, m, v) in [
            (1, two(), vec![vec![0.0; 3]]),
            (1, two(), vec![]),
            (1, vec![vec![0.0; 3]], vec![vec![0.0; 3]]),
            (
                1,
                vec![vec![0.0; 1], vec![0.0; 1]],
                vec![vec![0.0; 1], vec![0.0; 1]],
            ),
            (1, vec![], vec![]),
            (0, two(), two()),
            (1, vec![vec![f64::NAN, 0.0]], two()),
            (1, two(), vec![vec![f64::INFINITY, 0.0]]),
            (1, two(), vec![vec![-1.0, 0.0]]),
        ] {
            assert!(adam.restore_moments(&mut q, t, m, v).is_err());
            assert_eq!(adam.moments(), (0, &[][..], &[][..]));
        }
        adam.restore_moments(&mut q, 3, two(), two()).unwrap();
        adam.restore_moments(&mut q, 0, vec![], vec![]).unwrap();
        q.g = vec![1.0, -1.0];
        adam.step(&mut q);
    }

    #[test]
    fn step_counter_advances() {
        let mut q = Quad {
            p: vec![1.0],
            g: vec![1.0],
            target: vec![0.0],
        };
        let mut adam = Adam::new(0.1);
        adam.step(&mut q);
        adam.step(&mut q);
        assert_eq!(adam.steps(), 2);
    }
}
