//! Finite-difference gradient verification.
//!
//! Every layer and the full Xatu model are checked against central finite
//! differences. The checker drives the model purely through [`Params`], so
//! it works for arbitrary compositions.

use crate::Params;

/// Verifies analytic gradients of `loss` w.r.t. every parameter of `model`.
///
/// 1. Runs `backward(model)` (which must zero + populate gradient buffers).
/// 2. Snapshots analytic gradients.
/// 3. Perturbs each parameter by ±`eps` and compares the central difference
///    of `loss` against the analytic value.
///
/// Returns the maximum *relative* error, where relative means
/// `|num − ana| / max(1, |num|, |ana|)` (absolute for tiny gradients).
pub fn check_params_gradient<M, L, B>(model: &mut M, mut loss: L, mut backward: B, eps: f64) -> f64
where
    M: Params,
    L: FnMut(&mut M) -> f64,
    B: FnMut(&mut M),
{
    model.zero_grads();
    backward(model);

    // Snapshot analytic gradients.
    let mut analytic: Vec<Vec<f64>> = Vec::new();
    model.visit(&mut |_, g| analytic.push(g.to_vec()));

    let mut max_rel: f64 = 0.0;
    for (set, grads) in analytic.iter().enumerate() {
        for (k, &ana) in grads.iter().enumerate() {
            let num = numeric_partial(model, &mut loss, set, k, eps);
            let denom = 1.0_f64.max(num.abs()).max(ana.abs());
            max_rel = max_rel.max((num - ana).abs() / denom);
        }
    }
    max_rel
}

/// Like [`check_params_gradient`], but verifies only every `stride`-th
/// parameter of each set. Large models (the full Xatu model has ~100k
/// parameters over 273-dim inputs) use this to keep test time bounded while
/// still covering every parameter set.
pub fn check_params_gradient_sampled<M, L, B>(
    model: &mut M,
    mut loss: L,
    mut backward: B,
    eps: f64,
    stride: usize,
) -> f64
where
    M: Params,
    L: FnMut(&mut M) -> f64,
    B: FnMut(&mut M),
{
    assert!(stride >= 1, "stride must be >= 1");
    model.zero_grads();
    backward(model);
    let mut analytic: Vec<Vec<f64>> = Vec::new();
    model.visit(&mut |_, g| analytic.push(g.to_vec()));

    let mut max_rel: f64 = 0.0;
    for (set, grads) in analytic.iter().enumerate() {
        let mut k = set % stride; // stagger across sets
        while k < grads.len() {
            let num = numeric_partial(model, &mut loss, set, k, eps);
            let ana = grads[k];
            let denom = 1.0_f64.max(num.abs()).max(ana.abs());
            max_rel = max_rel.max((num - ana).abs() / denom);
            k += stride;
        }
    }
    max_rel
}

/// Central finite difference of `loss` w.r.t. parameter `k` of set `set`.
fn numeric_partial<M, L>(model: &mut M, loss: &mut L, set: usize, k: usize, eps: f64) -> f64
where
    M: Params,
    L: FnMut(&mut M) -> f64,
{
    let nudge = |model: &mut M, delta: f64| {
        let mut i = 0;
        model.visit(&mut |p, _| {
            if i == set {
                p[k] += delta;
            }
            i += 1;
        });
    };
    nudge(model, eps);
    let up = loss(model);
    nudge(model, -2.0 * eps);
    let down = loss(model);
    nudge(model, eps); // restore
    (up - down) / (2.0 * eps)
}

/// Central finite difference of a scalar function of a vector, for checking
/// input gradients.
pub fn numeric_gradient<F>(x: &[f64], mut f: F, eps: f64) -> Vec<f64>
where
    F: FnMut(&[f64]) -> f64,
{
    let mut grad = vec![0.0; x.len()];
    let mut xv = x.to_vec();
    for k in 0..x.len() {
        xv[k] = x[k] + eps;
        let up = f(&xv);
        xv[k] = x[k] - eps;
        let down = f(&xv);
        xv[k] = x[k];
        grad[k] = (up - down) / (2.0 * eps);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Poly {
        p: Vec<f64>,
        g: Vec<f64>,
    }

    impl Params for Poly {
        fn visit(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
            f(&mut self.p, &mut self.g);
        }
    }

    #[test]
    fn detects_correct_gradient() {
        // loss = p0^2 + 3 p1 -> grad = (2 p0, 3)
        let mut m = Poly {
            p: vec![1.5, -2.0],
            g: vec![0.0; 2],
        };
        let err = check_params_gradient(
            &mut m,
            |m| m.p[0] * m.p[0] + 3.0 * m.p[1],
            |m| {
                m.g[0] = 2.0 * m.p[0];
                m.g[1] = 3.0;
            },
            1e-6,
        );
        assert!(err < 1e-8, "err={err}");
    }

    #[test]
    fn detects_wrong_gradient() {
        let mut m = Poly {
            p: vec![1.5],
            g: vec![0.0],
        };
        let err = check_params_gradient(
            &mut m,
            |m| m.p[0] * m.p[0],
            |m| {
                m.g[0] = 5.0 * m.p[0]; // wrong on purpose
            },
            1e-6,
        );
        assert!(err > 0.5, "err={err}");
    }

    #[test]
    fn numeric_gradient_of_dot() {
        let x = [1.0, 2.0, 3.0];
        let w = [0.5, -1.0, 2.0];
        let g = numeric_gradient(&x, |x| x.iter().zip(&w).map(|(a, b)| a * b).sum(), 1e-6);
        for (gk, wk) in g.iter().zip(&w) {
            assert!((gk - wk).abs() < 1e-8);
        }
    }
}
