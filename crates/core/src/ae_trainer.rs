//! Benign-window trainer for the unsupervised reconstruction companion.
//!
//! The [`xatu_nn::LstmAutoencoder`] learns to reconstruct *benign*
//! volumetric feature windows — no labels, no CDet feed, nothing that
//! disappears when the upstream alert stream goes quiet. The training
//! loop mirrors [`crate::trainer`] exactly: pooled per-window gradient
//! buffers, worker replicas synced from the optimizer's copy each batch,
//! fixed-order gradient reduction, seeded Fisher–Yates shuffling, and
//! XCK1 checkpoint/resume that replays the completed epochs' shuffle
//! permutations — so a trained companion is bit-identical at any thread
//! count, killed or not.
//!
//! Training windows carry only the volumetric feature block
//! ([`volumetric_windows_from_samples`]): the companion's input
//! distribution is then invariant to CDet-feed state, which is what lets
//! it keep its full signal while the survival model degrades to
//! volumetric-only frames.

use crate::checkpoint::{load_autoencoder, save_autoencoder, AutoencoderCheckpoint};
use crate::error::XatuError;
use crate::sample::Sample;
use crate::trainer::TrainCheckpointSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use xatu_features::frame::offsets;
use xatu_nn::{Adam, AeWorkspace, FrameArena, GradBufferPool, LstmAutoencoder, Params};
use xatu_par::{par_zip_with_workers, resolve_threads};

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

/// Per-epoch companion-training diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct AeEpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean reconstruction loss over the epoch.
    pub mean_loss: f64,
    /// Mean global gradient norm before clipping.
    pub mean_grad_norm: f64,
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

/// Trains `ae` on benign `windows` in place; returns per-epoch stats.
pub fn train_autoencoder(
    ae: &mut LstmAutoencoder,
    windows: &[FrameArena],
    cfg: &AeTrainConfig,
) -> Result<Vec<AeEpochStats>, XatuError> {
    train_ae_inner(ae, windows, cfg, None)
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
) -> Result<Vec<AeEpochStats>, XatuError> {
    train_ae_inner(ae, windows, cfg, Some(spec))
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

/// One worker replica: a model copy plus its reusable workspace.
struct AeWorker {
    ae: LstmAutoencoder,
    ws: AeWorkspace,
}

fn train_ae_inner(
    ae: &mut LstmAutoencoder,
    windows: &[FrameArena],
    cfg: &AeTrainConfig,
    ckpt: Option<&TrainCheckpointSpec<'_>>,
) -> Result<Vec<AeEpochStats>, XatuError> {
    if windows.is_empty() {
        return Ok(Vec::new());
    }
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
    let threads = resolve_threads(cfg.threads);
    let mut adam = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xAE01));
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut stats = Vec::with_capacity(cfg.epochs);

    // Resume: exactly the survival trainer's protocol — restore params and
    // Adam moments, then replay the completed epochs' permutations so the
    // RNG and `order` reach the checkpointed run's precise state.
    let mut start_epoch = 0usize;
    if let Some(spec) = ckpt {
        if spec.resume && spec.path.exists() {
            let ck = load_autoencoder(spec.path)?;
            check_ae_resume_identity(&ck, ae, windows, cfg, spec.path)?;
            ae.import_params_from(&ck.params);
            adam.restore_moments(ck.adam_t, ck.adam_m.clone(), ck.adam_v.clone())
                .map_err(|e| XatuError::corrupt(spec.path, e))?;
            for _ in 0..ck.epochs_done {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
            }
            start_epoch = ck.epochs_done as usize;
        }
    }

    let param_count = ae.param_count();
    let mut pool = GradBufferPool::new(param_count);
    let mut workers: Vec<AeWorker> = Vec::new();
    let mut param_snapshot = vec![0.0; param_count];
    let mut chunk_items: Vec<&FrameArena> = Vec::new();
    let mut seq_ws = AeWorkspace::new();

    for epoch in start_epoch..cfg.epochs {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut epoch_loss = 0.0;
        let mut epoch_norm = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let slots = pool.take(chunk.len());
            let n_workers = threads.min(chunk.len());
            if n_workers <= 1 {
                for (slot, &i) in slots.iter_mut().zip(chunk) {
                    ae.zero_grads();
                    slot.1 = ae.loss_and_grad(&windows[i], &mut seq_ws);
                    ae.export_grads_into(&mut slot.0);
                }
            } else {
                while workers.len() < n_workers {
                    workers.push(AeWorker {
                        ae: ae.clone(),
                        ws: AeWorkspace::new(),
                    });
                }
                ae.export_params_into(&mut param_snapshot);
                for w in &mut workers[..n_workers] {
                    w.ae.import_params_from(&param_snapshot);
                }
                chunk_items.clear();
                chunk_items.extend(chunk.iter().map(|&i| &windows[i]));
                par_zip_with_workers(
                    &mut workers[..n_workers],
                    &chunk_items,
                    &mut slots[..],
                    |w, _idx, window, slot| {
                        w.ae.zero_grads();
                        slot.1 = w.ae.loss_and_grad(window, &mut w.ws);
                        w.ae.export_grads_into(&mut slot.0);
                    },
                );
            }
            // Fixed-order reduction, independent of worker assignment.
            ae.zero_grads();
            let mut batch_loss = 0.0;
            for (buf, window_loss) in slots.iter() {
                ae.accumulate_grads_from(buf);
                batch_loss += *window_loss;
            }
            ae.scale_grads(1.0 / chunk.len() as f64);
            epoch_norm += ae.grad_norm();
            ae.clip_grad_norm(cfg.grad_clip);
            adam.step(ae);
            epoch_loss += batch_loss / chunk.len() as f64;
            batches += 1;
        }
        stats.push(AeEpochStats {
            epoch,
            mean_loss: epoch_loss / batches as f64,
            mean_grad_norm: epoch_norm / batches as f64,
        });

        if let Some(spec) = ckpt {
            let done = epoch + 1;
            if done % spec.every_epochs.max(1) == 0 || done == cfg.epochs {
                save_autoencoder(spec.path, &ae_snapshot(ae, &adam, windows, cfg, done))?;
            }
            if spec.kill_after_epochs == Some(done - start_epoch) && done < cfg.epochs {
                return Ok(stats);
            }
        }
    }
    Ok(stats)
}

/// Builds the checkpoint record for the current companion-training state.
fn ae_snapshot(
    ae: &mut LstmAutoencoder,
    adam: &Adam,
    windows: &[FrameArena],
    cfg: &AeTrainConfig,
    epochs_done: usize,
) -> AutoencoderCheckpoint {
    let mut params = vec![0.0; ae.param_count()];
    ae.export_params_into(&mut params);
    let (adam_t, m, v) = adam.moments();
    AutoencoderCheckpoint {
        seed: cfg.seed,
        lr_bits: cfg.lr.to_bits(),
        batch_size: cfg.batch_size as u64,
        window_count: windows.len() as u64,
        input_dim: ae.input_dim() as u64,
        hidden: ae.hidden_dim() as u64,
        epochs_total: cfg.epochs as u64,
        epochs_done: epochs_done as u64,
        params,
        adam_t,
        adam_m: m.to_vec(),
        adam_v: v.to_vec(),
    }
}

/// Rejects a checkpoint that does not describe *this* run.
fn check_ae_resume_identity(
    ck: &AutoencoderCheckpoint,
    ae: &mut LstmAutoencoder,
    windows: &[FrameArena],
    cfg: &AeTrainConfig,
    path: &Path,
) -> Result<(), XatuError> {
    let mismatch = |reason: String| XatuError::CheckpointMismatch {
        path: path.display().to_string(),
        reason,
    };
    if ck.seed != cfg.seed {
        return Err(mismatch(format!("seed {} != {}", ck.seed, cfg.seed)));
    }
    if ck.lr_bits != cfg.lr.to_bits() {
        return Err(mismatch(format!(
            "learning rate {} != {}",
            f64::from_bits(ck.lr_bits),
            cfg.lr
        )));
    }
    if ck.batch_size != cfg.batch_size as u64 {
        return Err(mismatch(format!(
            "batch size {} != {}",
            ck.batch_size, cfg.batch_size
        )));
    }
    if ck.window_count != windows.len() as u64 {
        return Err(mismatch(format!(
            "window count {} != {}",
            ck.window_count,
            windows.len()
        )));
    }
    if ck.input_dim != ae.input_dim() as u64 {
        return Err(mismatch(format!(
            "input dim {} != {}",
            ck.input_dim,
            ae.input_dim()
        )));
    }
    if ck.hidden != ae.hidden_dim() as u64 {
        return Err(mismatch(format!(
            "hidden {} != {}",
            ck.hidden,
            ae.hidden_dim()
        )));
    }
    if ck.epochs_total != cfg.epochs as u64 {
        return Err(mismatch(format!(
            "epoch budget {} != {}",
            ck.epochs_total, cfg.epochs
        )));
    }
    if ck.params.len() != ae.param_count() {
        return Err(mismatch(format!(
            "parameter count {} != {}",
            ck.params.len(),
            ae.param_count()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
