//! Benign-window trainer for the unsupervised reconstruction companion.
//!
//! The [`xatu_nn::LstmAutoencoder`] learns to reconstruct *benign*
//! volumetric feature windows — no labels, no CDet feed, nothing that
//! disappears when the upstream alert stream goes quiet. It trains through
//! the survival trainer's own minibatch loop and XCK1 checkpoint record
//! ([`crate::trainer`]), so a trained companion is bit-identical at any
//! thread count, killed or not.
//!
//! Training windows carry only the volumetric feature block
//! ([`volumetric_windows_from_samples`]): the companion's input
//! distribution is then invariant to CDet-feed state, which is what lets
//! it keep its full signal while the survival model degrades to
//! volumetric-only frames.

use crate::checkpoint::TrainIdentity;
use crate::error::XatuError;
use crate::sample::Sample;
use crate::trainer::{minibatch_loop, EpochStats, MinibatchRun, TrainCheckpointSpec};
use xatu_features::frame::offsets;
use xatu_nn::{AeWorkspace, FrameArena, LstmAutoencoder};
use xatu_obs::Registry;

/// Knobs of the companion trainer (deliberately few: the autoencoder has
/// no labels to balance and no thresholds to calibrate here).
#[derive(Clone, Copy, Debug)]
pub struct AeTrainConfig {
    /// Seed for weight init and batch shuffling.
    pub seed: u64,
    /// Latent width.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f64,
    /// Worker threads (0 = auto, same semantics as [`crate::XatuConfig`]).
    pub threads: usize,
}

impl Default for AeTrainConfig {
    fn default() -> Self {
        AeTrainConfig {
            seed: 17,
            hidden: 10,
            lr: 5e-3,
            batch_size: 8,
            epochs: 30,
            grad_clip: 5.0,
            threads: 0,
        }
    }
}

/// Extracts benign training windows from labeled samples: the volumetric
/// block of every *negative* sample's detection window, widened to `f64`.
/// Positive samples are skipped — the companion must never see an attack.
pub fn volumetric_windows_from_samples(samples: &[Sample]) -> Vec<FrameArena> {
    samples
        .iter()
        .filter(|s| !s.label)
        .map(|s| {
            let mut arena = FrameArena::new(offsets::A1);
            for frame in &s.window {
                let row = arena.push_zeroed();
                for (dst, src) in row.iter_mut().zip(&frame[..offsets::A1]) {
                    *dst = *src as f64;
                }
            }
            arena
        })
        .filter(|a| !a.is_empty())
        .collect()
}

/// A freshly initialized companion sized for `cfg` and `input_dim`-wide
/// frames (the volumetric block by default).
pub fn new_autoencoder(input_dim: usize, cfg: &AeTrainConfig) -> LstmAutoencoder {
    let mut init = xatu_nn::init::Initializer::new(cfg.seed);
    LstmAutoencoder::new(input_dim, cfg.hidden, &mut init)
}

/// Trains `ae` on benign `windows` in place; returns per-epoch stats
/// (mean reconstruction loss and pre-clip gradient norm).
///
/// Fails on a window of the wrong width ([`XatuError::DimensionMismatch`])
/// or an empty one ([`XatuError::InvalidSample`]).
pub fn train_autoencoder(
    ae: &mut LstmAutoencoder,
    windows: &[FrameArena],
    cfg: &AeTrainConfig,
) -> Result<Vec<EpochStats>, XatuError> {
    train_windows(ae, windows, cfg, None)
}

/// [`train_autoencoder`] with crash-safe checkpoint/resume, sharing the
/// [`TrainCheckpointSpec`] policy of the survival trainer. Resume is
/// bit-identical to an uninterrupted run at every thread count; a
/// checkpoint from a different run is rejected with
/// [`XatuError::CheckpointMismatch`].
pub fn train_autoencoder_resumable(
    ae: &mut LstmAutoencoder,
    windows: &[FrameArena],
    cfg: &AeTrainConfig,
    spec: &TrainCheckpointSpec<'_>,
) -> Result<Vec<EpochStats>, XatuError> {
    train_windows(ae, windows, cfg, Some(spec))
}

/// Reconstruction error of every window, in input order (the calibration
/// input for [`crate::fusion::ErrorNormalizer::from_benign_errors`]).
pub fn reconstruction_errors(ae: &LstmAutoencoder, windows: &[FrameArena]) -> Vec<f64> {
    let mut ws = AeWorkspace::new();
    windows
        .iter()
        .map(|w| ae.reconstruction_error(w, &mut ws))
        .collect()
}

fn train_windows(
    ae: &mut LstmAutoencoder,
    windows: &[FrameArena],
    cfg: &AeTrainConfig,
    ckpt: Option<&TrainCheckpointSpec<'_>>,
) -> Result<Vec<EpochStats>, XatuError> {
    for (index, w) in windows.iter().enumerate() {
        if w.dim() != ae.input_dim() {
            return Err(XatuError::DimensionMismatch {
                expected: ae.input_dim(),
                found: w.dim(),
            });
        }
        if w.is_empty() {
            return Err(XatuError::InvalidSample {
                index,
                reason: "empty autoencoder window".into(),
            });
        }
    }
    let run = MinibatchRun {
        seed: cfg.seed,
        salt: 0xAE01,
        lr: cfg.lr,
        batch_size: cfg.batch_size,
        epochs: cfg.epochs,
        grad_clip: cfg.grad_clip,
        threads: cfg.threads,
        identity: TrainIdentity::Autoencoder {
            window_count: windows.len() as u64,
            input_dim: ae.input_dim() as u64,
            hidden: ae.hidden_dim() as u64,
        },
    };
    // The companion's epochs stay out of the caller's telemetry.
    let step = LstmAutoencoder::loss_and_grad;
    minibatch_loop(ae, windows, &run, &mut Registry::new(), ckpt, step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xatu_nn::Params;

    fn cfg() -> AeTrainConfig {
        AeTrainConfig {
            seed: 23,
            hidden: 6,
            lr: 5e-3,
            batch_size: 4,
            epochs: 20,
            ..AeTrainConfig::default()
        }
    }

    /// Synthetic benign windows: smooth low-amplitude volumetric-like
    /// frames of width `dim` with per-window phase.
    fn windows(n: usize, len: usize, dim: usize) -> Vec<FrameArena> {
        (0..n)
            .map(|i| {
                let mut arena = FrameArena::new(dim);
                for t in 0..len {
                    let row = arena.push_zeroed();
                    for (k, v) in row.iter_mut().enumerate() {
                        if k % 5 == 0 {
                            *v = 0.1 + 0.05 * (((i + t + k) % 7) as f64);
                        }
                    }
                }
                arena
            })
            .collect()
    }

    #[test]
    fn loss_decreases_over_training() {
        let c = cfg();
        let w = windows(12, 8, 10);
        let mut ae = new_autoencoder(10, &c);
        let stats = train_autoencoder(&mut ae, &w, &c).unwrap();
        assert_eq!(stats.len(), c.epochs);
        let first = stats[0].mean_loss;
        let last = stats.last().unwrap().mean_loss;
        assert!(
            last < first * 0.5,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn training_is_thread_count_invariant() {
        let mut c1 = cfg();
        c1.threads = 1;
        let mut c4 = cfg();
        c4.threads = 4;
        let w = windows(10, 8, 10);
        let mut a1 = new_autoencoder(10, &c1);
        let mut a4 = new_autoencoder(10, &c4);
        let s1 = train_autoencoder(&mut a1, &w, &c1).unwrap();
        let s4 = train_autoencoder(&mut a4, &w, &c4).unwrap();
        for (a, b) in s1.iter().zip(&s4) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            assert_eq!(a.mean_grad_norm.to_bits(), b.mean_grad_norm.to_bits());
        }
        let e1 = reconstruction_errors(&a1, &w);
        let e4 = reconstruction_errors(&a4, &w);
        for (a, b) in e1.iter().zip(&e4) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_window_set_is_a_noop() {
        let c = cfg();
        let mut ae = new_autoencoder(10, &c);
        assert!(train_autoencoder(&mut ae, &[], &c).unwrap().is_empty());
    }

    #[test]
    fn wrong_width_window_is_a_typed_error() {
        let c = cfg();
        let mut ae = new_autoencoder(10, &c);
        let w = windows(2, 4, 7);
        match train_autoencoder(&mut ae, &w, &c) {
            Err(XatuError::DimensionMismatch {
                expected: 10,
                found: 7,
            }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    fn ck_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xatu_ae_ck_{}_{name}", std::process::id()));
        p
    }

    fn params_of(ae: &mut LstmAutoencoder) -> Vec<u64> {
        let mut p = vec![0.0; ae.param_count()];
        ae.export_params_into(&mut p);
        p.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn killed_training_resumes_bit_identically_across_thread_counts() {
        let mut c1 = cfg();
        c1.threads = 1;
        let mut c4 = cfg();
        c4.threads = 4;
        let w = windows(12, 8, 10);
        let path = ck_path("kill_resume");
        let _ = std::fs::remove_file(&path);

        // Reference: uninterrupted single-thread run.
        let mut reference = new_autoencoder(10, &c1);
        let ref_stats = train_autoencoder(&mut reference, &w, &c1).unwrap();

        // Victim: checkpoints every 6 epochs at 4 threads, crashes at 9 —
        // the surviving checkpoint is from epoch 6.
        let mut victim = new_autoencoder(10, &c4);
        let killed = train_autoencoder_resumable(
            &mut victim,
            &w,
            &c4,
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 6,
                resume: false,
                kill_after_epochs: Some(9),
            },
        )
        .unwrap();
        assert_eq!(killed.len(), 9, "kill point ignored");

        // Survivor resumes at 1 thread; tail and final params must match
        // the reference to the last bit.
        let mut survivor = new_autoencoder(10, &c1);
        let resumed = train_autoencoder_resumable(
            &mut survivor,
            &w,
            &c1,
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 6,
                resume: true,
                kill_after_epochs: None,
            },
        )
        .unwrap();
        assert_eq!(resumed.len(), c1.epochs - 6);
        assert_eq!(resumed[0].epoch, 6);
        for (a, b) in resumed.iter().zip(&ref_stats[6..]) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            assert_eq!(a.mean_grad_norm.to_bits(), b.mean_grad_norm.to_bits());
        }
        assert_eq!(params_of(&mut survivor), params_of(&mut reference));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_checkpoint_is_rejected_on_identity() {
        let c = cfg();
        let w = windows(8, 8, 10);
        let path = ck_path("foreign");
        let _ = std::fs::remove_file(&path);
        let mut ae = new_autoencoder(10, &c);
        train_autoencoder_resumable(
            &mut ae,
            &w,
            &c,
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 8,
                resume: false,
                kill_after_epochs: Some(8),
            },
        )
        .unwrap();
        let mut other = cfg();
        other.seed = c.seed.wrapping_add(1);
        let mut ae2 = new_autoencoder(10, &other);
        match train_autoencoder_resumable(
            &mut ae2,
            &w,
            &other,
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 8,
                resume: true,
                kill_after_epochs: None,
            },
        ) {
            Err(XatuError::CheckpointMismatch { reason, .. }) => {
                assert!(reason.contains("seed"), "{reason}");
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        // A different geometry is also rejected, not silently imported.
        let fat = AeTrainConfig { hidden: 7, ..c };
        let mut wide = new_autoencoder(10, &fat);
        match train_autoencoder_resumable(
            &mut wide,
            &w,
            &fat,
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 8,
                resume: true,
                kill_after_epochs: None,
            },
        ) {
            Err(XatuError::CheckpointMismatch { .. }) => {}
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
