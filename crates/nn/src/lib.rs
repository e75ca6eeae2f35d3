//! From-scratch neural-network substrate for Xatu.
//!
//! The paper's model is a multi-timescale LSTM trained with a survival loss.
//! No deep-learning crate is available offline, so this crate implements the
//! required pieces from first principles:
//!
//! * [`matrix::Matrix`] — row-major dense matrices with the handful of BLAS
//!   kernels the layers need (`matvec`, transposed `matvec`, rank-1 update).
//! * [`arena::FrameArena`] — flat structure-of-arrays storage for sequences
//!   of equal-width frames; the substrate of the allocation-free hot path
//!   (traces, widened samples, input gradients).
//! * [`activations`] — sigmoid / tanh / softplus with derivatives. Sigmoid
//!   and tanh are in-tree (no `libm`): branch-free IEEE `+ − × ÷` on one
//!   `exp`, the same bits on every host and at every SIMD width.
//! * [`dense::Dense`] — fully-connected layer with bias.
//! * [`lstm::Lstm`] — an LSTM with hand-derived backpropagation through time,
//!   verified against central finite differences in the test-suite; and
//!   [`lstm::ServingLstm`], the same weights transposed once for the one
//!   online step, which advances both halves of a dual state.
//! * [`pooling`] — 1-D average pooling over feature time-series (the
//!   "aggregation layers" of §4.1) with gradient support for attribution.
//! * [`adam::Adam`] — the Adam optimizer of Kingma & Ba, the paper's choice.
//! * [`init`] — Xavier/Glorot initialisation from a seeded RNG.
//! * [`gradcheck`] — finite-difference utilities used pervasively in tests.
//! * [`simd`] — runtime dispatch of the online kernels' AVX2
//!   instantiation ([`SimdLevel`]), bit-identical to the plain one.
//! * [`autoencoder`] — an LSTM encoder–decoder over feature windows
//!   ([`autoencoder::LstmAutoencoder`]) for unsupervised reconstruction
//!   scoring, with the same allocation-free workspace discipline.
//!
//! All math is `f64`, training and serving alike: the models in this
//! workspace are small (≤64 hidden units), so the extra width costs little
//! and makes gradient verification exact to ~1e-8.

pub mod activations;
pub mod adam;
pub mod arena;
pub mod autoencoder;
pub mod dense;
pub mod gradcheck;
pub mod gradpool;
pub mod init;
pub mod lstm;
pub mod matrix;
pub mod pooling;
pub mod simd;

pub use adam::Adam;
pub use arena::FrameArena;
pub use autoencoder::{AeWorkspace, LstmAutoencoder};
pub use dense::Dense;
pub use gradpool::GradBufferPool;
pub use lstm::{Lstm, LstmState, LstmTrace, LstmWorkspace, OnlineWorkspace, ServingLstm};
pub use matrix::{LaneIndices, Matrix};
pub use simd::SimdLevel;

/// A parameter container that exposes its (parameter, gradient) pairs.
///
/// Layers implement this; composite models implement it by delegating to
/// their layers in a fixed order. The optimizer and the gradient checker both
/// drive training exclusively through this trait, so they work for any model.
pub trait Params {
    /// Visits every (parameters, gradients) slice pair in a fixed order.
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64]));

    /// Zeroes all gradient buffers.
    fn zero_grads(&mut self) {
        self.visit(&mut |_, g| g.iter_mut().for_each(|x| *x = 0.0));
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit(&mut |p, _| n += p.len());
        n
    }

    /// Scales all gradients by `s` (e.g. 1/batch-size averaging).
    fn scale_grads(&mut self, s: f64) {
        self.visit(&mut |_, g| g.iter_mut().for_each(|x| *x *= s));
    }

    /// Global L2 norm of the gradient, used for clipping diagnostics.
    fn grad_norm(&mut self) -> f64 {
        let mut acc = 0.0;
        self.visit(&mut |_, g| acc += g.iter().map(|x| x * x).sum::<f64>());
        acc.sqrt()
    }

    /// Clips the global gradient norm to `max_norm` if it exceeds it.
    fn clip_grad_norm(&mut self, max_norm: f64) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale_grads(max_norm / norm);
        }
    }

    /// Copies all gradients into `out` (flat, visit order). `out` must be
    /// exactly [`Params::param_count`] long.
    ///
    /// Together with [`Params::accumulate_grads_from`], this lets a batch
    /// be computed as independent per-sample gradient vectors and reduced
    /// in a fixed order — the substrate for thread-count-independent
    /// data-parallel training.
    fn export_grads_into(&mut self, out: &mut [f64]) {
        let mut offset = 0;
        self.visit(&mut |_, g| {
            out[offset..offset + g.len()].copy_from_slice(g);
            offset += g.len();
        });
        assert_eq!(offset, out.len(), "gradient export length mismatch");
    }

    /// Adds the flat gradient vector `src` (visit order) into the model's
    /// gradient buffers, element by element in index order.
    fn accumulate_grads_from(&mut self, src: &[f64]) {
        let mut offset = 0;
        self.visit(&mut |_, g| {
            let n = g.len();
            for (dst, s) in g.iter_mut().zip(&src[offset..offset + n]) {
                *dst += s;
            }
            offset += n;
        });
        assert_eq!(offset, src.len(), "gradient accumulate length mismatch");
    }

    /// Copies all parameters into `out` (flat, visit order).
    fn export_params_into(&mut self, out: &mut [f64]) {
        let mut offset = 0;
        self.visit(&mut |p, _| {
            out[offset..offset + p.len()].copy_from_slice(p);
            offset += p.len();
        });
        assert_eq!(offset, out.len(), "parameter export length mismatch");
    }

    /// Overwrites all parameters from the flat vector `src` (visit order);
    /// used to sync worker model replicas from the optimizer's copy.
    fn import_params_from(&mut self, src: &[f64]) {
        let mut offset = 0;
        self.visit(&mut |p, _| {
            p.copy_from_slice(&src[offset..offset + p.len()]);
            offset += p.len();
        });
        assert_eq!(offset, src.len(), "parameter import length mismatch");
    }
}
