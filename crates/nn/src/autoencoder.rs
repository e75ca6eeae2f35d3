//! LSTM encoder–decoder autoencoder for unsupervised reconstruction
//! scoring.
//!
//! The encoder LSTM consumes a window of feature frames; its final hidden
//! state is the latent code. The decoder LSTM starts from that code (cell
//! state zero) and is stepped on constant zero inputs — the unconditioned
//! decoder of the classic sequence autoencoder — while a dense output
//! layer maps each decoder hidden state to a reconstructed frame. The
//! target sequence is the *reversed* input window, which puts the easiest
//! frame (the last one seen) first and gives the decoder a curriculum.
//!
//! The latent code is the encoder's final **hidden** state only. The
//! decoder's initial cell is a constant zero, so its gradient is correctly
//! discarded, and the encoder receives exactly one extra hidden-state
//! gradient at its final step ([`LstmWorkspace::d_initial_h`]); the chain
//! is exact without needing to inject a cell gradient mid-trace.
//!
//! Everything runs through a reusable [`AeWorkspace`]: once the buffers
//! are warm, [`LstmAutoencoder::reconstruction_error`] and
//! [`LstmAutoencoder::loss_and_grad`] perform zero heap allocations
//! (pinned by `xatu-core`'s `alloc_budget` test).

use crate::arena::FrameArena;
use crate::dense::Dense;
use crate::init::Initializer;
use crate::lstm::{Lstm, LstmState, LstmTrace, LstmWorkspace};
use crate::Params;
use serde::{Deserialize, Serialize};

/// Clears and resizes a buffer, keeping capacity (zero-filled).
fn fit(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// The encoder–decoder reconstruction model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LstmAutoencoder {
    /// `input → hidden` over the window.
    encoder: Lstm,
    /// `1 → hidden`, stepped on zero inputs from the latent state.
    decoder: Lstm,
    /// `hidden → input` reconstruction head.
    out: Dense,
}

/// Reusable scratch for the autoencoder's forward and backward passes.
/// One workspace per worker; every buffer is resized with
/// capacity-keeping operations.
#[derive(Clone, Debug, Default)]
pub struct AeWorkspace {
    enc_trace: LstmTrace,
    dec_trace: LstmTrace,
    /// Decoder initial state: `h` = latent, `c` stays zero.
    dec_init: LstmState,
    /// Constant zero decoder inputs (`len × 1`).
    zero_frames: FrameArena,
    /// Reconstructed frames (`len × input`).
    recon: FrameArena,
    /// Per-step output-layer gradient (`input`).
    dy: Vec<f64>,
    /// Decoder hidden gradients, flat `len × hidden`.
    dhs_dec: Vec<f64>,
    /// Encoder hidden gradients, flat `len × hidden`.
    dhs_enc: Vec<f64>,
    enc_ws: LstmWorkspace,
    dec_ws: LstmWorkspace,
}

impl AeWorkspace {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reconstructed frames of the last forward pass (reversed-window
    /// order: step `t` reconstructs input frame `len − 1 − t`).
    pub fn reconstruction(&self) -> &FrameArena {
        &self.recon
    }
}

impl LstmAutoencoder {
    /// Creates an autoencoder for `input_dim`-wide frames with `hidden`
    /// latent units.
    pub fn new(input_dim: usize, hidden: usize, init: &mut Initializer) -> Self {
        LstmAutoencoder {
            encoder: Lstm::new(input_dim, hidden, init),
            decoder: Lstm::new(1, hidden, init),
            out: Dense::new(hidden, input_dim, init),
        }
    }

    /// Frame width this model reconstructs.
    pub fn input_dim(&self) -> usize {
        self.encoder.input_dim()
    }

    /// Latent width.
    pub fn hidden_dim(&self) -> usize {
        self.encoder.hidden_dim()
    }

    /// Re-creates gradient buffers (e.g. after deserialization).
    pub fn ensure_grads(&mut self) {
        self.encoder.ensure_grads();
        self.decoder.ensure_grads();
        self.out.ensure_grads();
    }

    /// Forward pass: encodes `window`, decodes, and returns the mean
    /// squared reconstruction error `Σ(r−x)² / (len·input)` against the
    /// reversed window. Reconstructions stay in `ws` for the backward
    /// pass. Allocation-free once `ws` is warm.
    ///
    /// # Panics
    /// Panics if `window` is empty or has the wrong frame width.
    pub fn reconstruction_error(&self, window: &FrameArena, ws: &mut AeWorkspace) -> f64 {
        assert_eq!(window.dim(), self.input_dim(), "autoencoder: frame width");
        assert!(!window.is_empty(), "autoencoder: empty window");
        let len = window.len();
        let hidden = self.hidden_dim();
        let dim = self.input_dim();

        self.encoder.begin(&mut ws.enc_trace);
        self.encoder.extend_arena(window, &mut ws.enc_trace);

        fit(&mut ws.dec_init.h, hidden);
        ws.dec_init.h.copy_from_slice(ws.enc_trace.final_h());
        fit(&mut ws.dec_init.c, hidden);
        self.decoder.begin_from(&ws.dec_init, &mut ws.dec_trace);
        ws.zero_frames.reset(1);
        for _ in 0..len {
            ws.zero_frames.push_zeroed();
        }
        self.decoder
            .extend_arena(&ws.zero_frames, &mut ws.dec_trace);

        ws.recon.reset(dim);
        let mut sq_sum = 0.0;
        for t in 0..len {
            let y = ws.recon.push_zeroed();
            self.out.forward_into(ws.dec_trace.h(t), y);
            let target = window.frame(len - 1 - t);
            for (r, x) in y.iter().zip(target) {
                let d = r - x;
                sq_sum += d * d;
            }
        }
        sq_sum / (len * dim) as f64
    }

    /// Forward + backward for one window: returns the mean squared error
    /// and *accumulates* parameter gradients (zero them first via
    /// [`Params::zero_grads`] when a fresh gradient is wanted).
    /// Allocation-free once `ws` is warm.
    pub fn loss_and_grad(&mut self, window: &FrameArena, ws: &mut AeWorkspace) -> f64 {
        let loss = self.reconstruction_error(window, ws);
        let len = window.len();
        let hidden = self.hidden_dim();
        let dim = self.input_dim();
        let scale = 2.0 / (len * dim) as f64;

        // Output layer: dy_t = 2(r_t − x_t)/(len·dim), dx goes straight
        // into the decoder's flat dh buffer.
        fit(&mut ws.dhs_dec, len * hidden);
        fit(&mut ws.dy, dim);
        for t in 0..len {
            let target = window.frame(len - 1 - t);
            let recon = ws.recon.frame(t);
            for ((dy, r), x) in ws.dy.iter_mut().zip(recon).zip(target) {
                *dy = scale * (r - x);
            }
            self.out.backward_into(
                ws.dec_trace.h(t),
                &ws.dy,
                &mut ws.dhs_dec[t * hidden..(t + 1) * hidden],
            );
        }

        // Decoder BPTT; its initial-h gradient is the latent gradient.
        self.decoder
            .backward_flat(&ws.dec_trace, &ws.dhs_dec, false, &mut ws.dec_ws);

        // Encoder BPTT: the latent gradient lands on the final step's
        // hidden output; the decoder's initial cell is a constant zero,
        // so its gradient is correctly dropped.
        fit(&mut ws.dhs_enc, len * hidden);
        ws.dhs_enc[(len - 1) * hidden..].copy_from_slice(ws.dec_ws.d_initial_h());
        self.encoder
            .backward_flat(&ws.enc_trace, &ws.dhs_enc, false, &mut ws.enc_ws);
        loss
    }
}

impl Params for LstmAutoencoder {
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.encoder.visit(f);
        self.decoder.visit(f);
        self.out.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_params_gradient;
    use crate::Adam;

    fn window(len: usize, dim: usize, seed: u64) -> FrameArena {
        let mut arena = FrameArena::new(dim);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for t in 0..len {
            let row = arena.push_zeroed();
            for (i, v) in row.iter_mut().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Mostly-zero frames, like real feature rows.
                if (state >> 33).is_multiple_of(3) {
                    *v = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) + 0.1 * (t + i) as f64;
                }
            }
        }
        arena
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut init = Initializer::new(11);
        let mut ae = LstmAutoencoder::new(5, 4, &mut init);
        let w = window(6, 5, 3);
        let max_rel = check_params_gradient(
            &mut ae,
            |m| {
                let mut ws = AeWorkspace::new();
                m.reconstruction_error(&w, &mut ws)
            },
            |m| {
                let mut ws = AeWorkspace::new();
                m.loss_and_grad(&w, &mut ws);
            },
            1e-5,
        );
        assert!(max_rel < 1e-6, "max relative gradient error {max_rel}");
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut init = Initializer::new(5);
        let mut ae = LstmAutoencoder::new(4, 6, &mut init);
        let windows: Vec<FrameArena> = (0..4).map(|i| window(8, 4, i)).collect();
        let mut ws = AeWorkspace::new();
        let mut adam = Adam::new(5e-3);
        let before: f64 = windows
            .iter()
            .map(|w| ae.reconstruction_error(w, &mut ws))
            .sum();
        for _ in 0..200 {
            for w in &windows {
                ae.zero_grads();
                ae.loss_and_grad(w, &mut ws);
                adam.step(&mut ae);
            }
        }
        let after: f64 = windows
            .iter()
            .map(|w| ae.reconstruction_error(w, &mut ws))
            .sum();
        assert!(
            after < before * 0.5,
            "reconstruction error did not drop: {before} -> {after}"
        );
    }

    #[test]
    fn anomalous_window_scores_higher_after_training() {
        let mut init = Initializer::new(9);
        let mut ae = LstmAutoencoder::new(4, 6, &mut init);
        let benign: Vec<FrameArena> = (0..6).map(|i| window(8, 4, i)).collect();
        let mut ws = AeWorkspace::new();
        let mut adam = Adam::new(5e-3);
        for _ in 0..300 {
            for w in &benign {
                ae.zero_grads();
                ae.loss_and_grad(w, &mut ws);
                adam.step(&mut ae);
            }
        }
        let benign_err: f64 = benign
            .iter()
            .map(|w| ae.reconstruction_error(w, &mut ws))
            .sum::<f64>()
            / benign.len() as f64;
        // A volumetric surge: feature 0 far outside the benign range.
        let mut attack = window(8, 4, 0);
        for t in 4..8 {
            attack.frame_mut(t)[0] = 50.0 + 10.0 * t as f64;
        }
        let attack_err = ae.reconstruction_error(&attack, &mut ws);
        assert!(
            attack_err > benign_err * 10.0,
            "attack error {attack_err} not clearly above benign {benign_err}"
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh() {
        let mut init = Initializer::new(2);
        let ae = LstmAutoencoder::new(3, 4, &mut init);
        let w1 = window(5, 3, 1);
        let w2 = window(7, 3, 2);
        let mut reused = AeWorkspace::new();
        let a1 = ae.reconstruction_error(&w1, &mut reused);
        let a2 = ae.reconstruction_error(&w2, &mut reused);
        let a1_again = ae.reconstruction_error(&w1, &mut reused);
        let b1 = ae.reconstruction_error(&w1, &mut AeWorkspace::new());
        let b2 = ae.reconstruction_error(&w2, &mut AeWorkspace::new());
        assert_eq!(a1.to_bits(), b1.to_bits());
        assert_eq!(a2.to_bits(), b2.to_bits());
        assert_eq!(a1.to_bits(), a1_again.to_bits());
    }

    #[test]
    fn params_roundtrip_through_flat_export() {
        let mut init = Initializer::new(4);
        let mut ae = LstmAutoencoder::new(3, 4, &mut init);
        let n = ae.param_count();
        assert!(n > 0);
        let mut flat = vec![0.0; n];
        ae.export_params_into(&mut flat);
        let mut other = LstmAutoencoder::new(3, 4, &mut Initializer::new(99));
        other.import_params_from(&flat);
        let w = window(6, 3, 7);
        let mut ws = AeWorkspace::new();
        assert_eq!(
            ae.reconstruction_error(&w, &mut ws).to_bits(),
            other.reconstruction_error(&w, &mut ws).to_bits()
        );
    }
}
