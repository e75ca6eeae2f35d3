//! Training loop: SAFE survival loss (or the cross-entropy ablation) with
//! Adam, deterministic shuffling, gradient clipping and loss logging.
//!
//! Minibatches are data-parallel: each item's forward/backward runs on a
//! worker replica of the model and writes its gradient into a pooled
//! per-item buffer; the batch gradient is then reduced sequentially in
//! chunk index order. Every thread count — including 1 — performs the same
//! floating-point operations in the same order, so trained parameters are
//! bit-identical no matter how many workers run.
//!
//! That loop, checkpoint/resume included, is `minibatch_loop`; this
//! survival trainer and [`crate::ae_trainer`] are thin adaptors over it.

use crate::checkpoint::{load_trainer, save_trainer, TrainIdentity, TrainerCheckpoint};
use crate::config::{LossKind, XatuConfig};
use crate::error::XatuError;
use crate::model::{ForwardTrace, ModelWorkspace, XatuModel};
use crate::sample::{Sample, WideSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use xatu_nn::activations::sigmoid;
use xatu_nn::{Adam, GradBufferPool, Params};
use xatu_obs::{alloc_hook, Registry};
use xatu_par::{block_ranges_into, resolve_threads, WorkerPool};
use xatu_survival::safe_loss::safe_loss_and_grad;

/// Per-epoch training diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean loss over the epoch.
    pub mean_loss: f64,
    /// Mean global gradient norm before clipping.
    pub mean_grad_norm: f64,
}

/// Crash-safe checkpointing policy for [`train_resumable`].
#[derive(Clone, Copy, Debug)]
pub struct TrainCheckpointSpec<'a> {
    /// Checkpoint file (written atomically; see [`crate::checkpoint`]).
    pub path: &'a Path,
    /// Save after every this many completed epochs (and at the end).
    pub every_epochs: usize,
    /// Load `path` before training if it exists, resuming where the
    /// checkpoint left off instead of starting over.
    pub resume: bool,
    /// Fault injection: abandon the run after this many epochs *this
    /// invocation*, simulating a crash. Nothing is saved at the kill
    /// point — only the periodic checkpoints survive, exactly as when a
    /// real process dies.
    pub kill_after_epochs: Option<usize>,
}

/// Trains `model` on `samples` in place; returns per-epoch stats.
///
/// Shuffling is seeded from `cfg.seed` so training is fully reproducible.
/// Fails on an internally inconsistent sample ([`XatuError::InvalidSample`]).
pub fn train(
    model: &mut XatuModel,
    samples: &[Sample],
    cfg: &XatuConfig,
) -> Result<Vec<EpochStats>, XatuError> {
    let mut obs = Registry::new();
    train_with_obs(model, samples, cfg, &mut obs)
}

/// [`train_with_obs`] with crash-safe checkpoint/resume.
///
/// With `spec.resume` set and a checkpoint on disk, training fast-forwards
/// to the checkpointed epoch — parameters and Adam moments are restored
/// exactly, and the shuffle RNG is replayed through the completed epochs'
/// permutations — so the final model is bit-identical to an uninterrupted
/// run, at every thread count. A checkpoint from a different run (other
/// seed, loss, learning rate, batch size, sample count, epoch budget or
/// model shape) is rejected with [`XatuError::CheckpointMismatch`] instead
/// of silently producing a chimera.
pub fn train_resumable(
    model: &mut XatuModel,
    samples: &[Sample],
    cfg: &XatuConfig,
    obs: &mut Registry,
    spec: &TrainCheckpointSpec<'_>,
) -> Result<Vec<EpochStats>, XatuError> {
    train_inner(model, samples, cfg, obs, Some(spec))
}

/// [`train`], recording telemetry into `obs`.
///
/// Per-epoch loss and gradient norm are emitted as `train.epoch` events:
/// both are bit-identical across thread counts (fixed-order gradient
/// reduction), so they belong in the deterministic digest. Epoch wall time
/// goes into the wall section and per-epoch allocation deltas (read from
/// [`alloc_hook`], fed by a counting allocator when one is installed) into
/// the volatile section — both digest-exempt.
pub fn train_with_obs(
    model: &mut XatuModel,
    samples: &[Sample],
    cfg: &XatuConfig,
    obs: &mut Registry,
) -> Result<Vec<EpochStats>, XatuError> {
    train_inner(model, samples, cfg, obs, None)
}

fn train_inner(
    model: &mut XatuModel,
    samples: &[Sample],
    cfg: &XatuConfig,
    obs: &mut Registry,
    ckpt: Option<&TrainCheckpointSpec<'_>>,
) -> Result<Vec<EpochStats>, XatuError> {
    for (index, s) in samples.iter().enumerate() {
        s.validate(model.cfg.gran())
            .map_err(|reason| XatuError::InvalidSample { index, reason })?;
    }
    // Every sample is widened f32→f64 exactly once, up front; the epoch
    // loop then runs entirely on the flat arenas.
    let items: Vec<(&Sample, WideSample)> = samples
        .iter()
        .map(|s| (s, WideSample::from_sample(s)))
        .collect();
    let run = MinibatchRun {
        seed: cfg.seed,
        salt: 0x7EA1,
        lr: cfg.lr,
        batch_size: cfg.batch_size,
        epochs: cfg.epochs,
        grad_clip: cfg.grad_clip,
        threads: cfg.threads,
        identity: TrainIdentity::Survival {
            loss: cfg.loss,
            sample_count: samples.len() as u64,
        },
    };
    minibatch_loop(model, &items, &run, obs, ckpt, |m, (s, w), scratch| {
        accumulate_sample(m, s, w, cfg.loss, scratch)
    })
}

/// One run of [`minibatch_loop`]: the knobs it reads and the identity
/// its checkpoints carry.
pub(crate) struct MinibatchRun {
    /// Seed of the run; the shuffle RNG starts at `seed + salt`, the salt
    /// differing per trainer.
    pub seed: u64,
    pub salt: u64,
    pub lr: f64,
    pub batch_size: usize,
    pub epochs: usize,
    pub grad_clip: f64,
    pub threads: usize,
    pub identity: TrainIdentity,
}

/// The one minibatch loop: trains `model` on `items` for `run.epochs`,
/// checkpointing (and resuming) per `ckpt`; returns the epochs it ran.
/// `step(model, item, scratch)` is one item's forward and backward into a
/// zeroed model, through the calling worker's reusable `scratch`; it
/// returns the item's loss.
pub(crate) fn minibatch_loop<M, I, W>(
    model: &mut M,
    items: &[I],
    run: &MinibatchRun,
    obs: &mut Registry,
    ckpt: Option<&TrainCheckpointSpec<'_>>,
    step: impl Fn(&mut M, &I, &mut W) -> f64 + Sync,
) -> Result<Vec<EpochStats>, XatuError>
where
    M: Params + Clone + Send,
    I: Sync,
    W: Default + Send,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let threads = resolve_threads(run.threads);
    let mut adam = Adam::new(run.lr);
    let mut rng = StdRng::seed_from_u64(run.seed.wrapping_add(run.salt));
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut stats = Vec::with_capacity(run.epochs);

    // Resume: restore parameters and optimizer state exactly, then replay
    // the completed epochs' Fisher-Yates permutations so both the RNG and
    // the `order` vector (which persists across epochs) reach the precise
    // state the checkpointed run had — resumed training is bit-identical
    // to never having stopped.
    let mut start_epoch = 0usize;
    if let Some(spec) = ckpt {
        if spec.resume && spec.path.exists() {
            let ck = load_trainer(spec.path, run.identity.kind())?;
            start_epoch = run.resume(model, &mut adam, ck, spec.path)?;
            for _ in 0..start_epoch {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
            }
        }
    }

    // Data-parallel scaffolding, reused across batches and epochs: one
    // pooled flat gradient buffer per item slot, worker replicas (model +
    // scratch, grown lazily, params re-synced from `model` each batch), a
    // scratch vector for the parameter snapshot, the sequential path's own
    // persistent scratch, and one parked thread pool for the whole run.
    // Steady-state forward+backward through these buffers allocates
    // nothing.
    let param_count = model.param_count();
    let mut pool = GradBufferPool::new(param_count);
    let mut workers: Vec<(M, W)> = Vec::new();
    let mut param_snapshot = vec![0.0; param_count];
    let mut seq_scratch = W::default();
    let mut threads_pool = WorkerPool::default();
    let mut ranges = Vec::new();

    obs.add("train.samples", items.len() as u64);
    obs.add("train.epochs", (run.epochs - start_epoch) as u64);
    for epoch in start_epoch..run.epochs {
        let epoch_start = xatu_obs::enabled().then(std::time::Instant::now);
        let allocs_before = alloc_hook::allocs();
        // Fisher-Yates shuffle.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut epoch_loss = 0.0;
        let mut epoch_norm = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(run.batch_size) {
            let slots = pool.take(chunk.len());
            let n_workers = threads.min(chunk.len());
            if n_workers <= 1 {
                // Same canonical computation as the parallel path — each
                // item's gradient from a zeroed model into its own buffer —
                // just without the replica sync.
                for (slot, &i) in slots.iter_mut().zip(chunk) {
                    model.zero_grads();
                    slot.1 = step(model, &items[i], &mut seq_scratch);
                    model.export_grads_into(&mut slot.0);
                }
            } else {
                while workers.len() < n_workers {
                    workers.push((model.clone(), W::default()));
                }
                model.export_params_into(&mut param_snapshot);
                for (replica, _) in &mut workers[..n_workers] {
                    replica.import_params_from(&param_snapshot);
                }
                // Contiguous blocks of the chunk, block `b` on replica `b`
                // and into the slots of its own items.
                block_ranges_into(chunk.len(), n_workers, &mut ranges);
                threads_pool.ensure_workers(ranges.len() - 1);
                let mut rest = &mut slots[..];
                let mut tasks: Vec<_> = ranges
                    .iter()
                    .zip(&mut workers)
                    .map(|(&(a, b), worker)| {
                        let (block, tail) = std::mem::take(&mut rest).split_at_mut(b - a);
                        rest = tail;
                        (worker, &chunk[a..b], block)
                    })
                    .collect();
                threads_pool.run_tasks(&mut tasks, &|(worker, ids, block)| {
                    let (replica, scratch) = &mut **worker;
                    for (&i, slot) in ids.iter().zip(block.iter_mut()) {
                        replica.zero_grads();
                        slot.1 = step(replica, &items[i], scratch);
                        replica.export_grads_into(&mut slot.0);
                    }
                });
            }
            // Fixed-order reduction: the batch gradient is summed in chunk
            // index order regardless of which worker filled which buffer.
            model.zero_grads();
            let mut batch_loss = 0.0;
            for (buf, item_loss) in slots.iter() {
                model.accumulate_grads_from(buf);
                batch_loss += *item_loss;
            }
            model.scale_grads(1.0 / chunk.len() as f64);
            epoch_norm += model.grad_norm();
            model.clip_grad_norm(run.grad_clip);
            adam.step(model);
            epoch_loss += batch_loss / chunk.len() as f64;
            batches += 1;
        }
        let st = EpochStats {
            epoch,
            mean_loss: epoch_loss / batches as f64,
            mean_grad_norm: epoch_norm / batches as f64,
        };
        obs.add("train.batches", batches as u64);
        obs.event(
            "train.epoch",
            vec![
                ("epoch", epoch.into()),
                ("loss", st.mean_loss.into()),
                ("grad_norm", st.mean_grad_norm.into()),
            ],
        );
        if let Some(t0) = epoch_start {
            obs.record_wall("train.epoch_seconds", t0.elapsed().as_secs_f64());
        }
        obs.add_volatile(
            "train.epoch_allocs",
            alloc_hook::allocs().saturating_sub(allocs_before),
        );
        stats.push(st);

        if let Some(spec) = ckpt {
            let done = epoch + 1;
            if done % spec.every_epochs.max(1) == 0 || done == run.epochs {
                save_trainer(spec.path, &run.checkpoint(model, &adam, done))?;
            }
            if spec.kill_after_epochs == Some(done - start_epoch) && done < run.epochs {
                // Simulated crash: return what ran, save nothing further.
                return Ok(stats);
            }
        }
    }
    Ok(stats)
}

impl MinibatchRun {
    /// Restores `model` and `adam` from `ck`, the record read from `path`,
    /// and returns the epochs it completed. The whole record is checked
    /// against this run and the model before either changes, and on `Err`
    /// neither does: the run's identity, finite parameters, and moments
    /// that fit the model ([`Adam::restore_moments`]).
    pub(crate) fn resume(
        &self,
        model: &mut impl Params,
        adam: &mut Adam,
        ck: TrainerCheckpoint,
        path: &Path,
    ) -> Result<usize, XatuError> {
        ck.check_resumes(&self.checkpoint(model, adam, 0), path)?;
        if ck.params.iter().any(|v| !v.is_finite()) {
            return Err(XatuError::corrupt(path, "non-finite model parameter"));
        }
        adam.restore_moments(model, ck.adam_t, ck.adam_m, ck.adam_v)
            .map_err(|e| XatuError::corrupt(path, e))?;
        model.import_params_from(&ck.params);
        Ok(ck.epochs_done as usize)
    }

    /// The checkpoint record of this run's state `done` epochs in.
    pub(crate) fn checkpoint(
        &self,
        model: &mut impl Params,
        adam: &Adam,
        done: usize,
    ) -> TrainerCheckpoint {
        let mut params = vec![0.0; model.param_count()];
        model.export_params_into(&mut params);
        let (adam_t, m, v) = adam.moments();
        TrainerCheckpoint {
            seed: self.seed,
            lr_bits: self.lr.to_bits(),
            batch_size: self.batch_size as u64,
            identity: self.identity,
            epochs_total: self.epochs as u64,
            epochs_done: done as u64,
            params,
            adam_t,
            adam_m: m.to_vec(),
            adam_v: v.to_vec(),
        }
    }
}

/// A survival worker's scratch: the trace, BPTT workspace and logit
/// gradient it reuses across samples, batches and epochs.
type SampleScratch = (ForwardTrace, ModelWorkspace, Vec<f64>);

/// Forward + backward for one sample through a worker's scratch; returns
/// its loss. Gradients accumulate into the model's buffers.
fn accumulate_sample(
    model: &mut XatuModel,
    sample: &Sample,
    wide: &WideSample,
    loss: LossKind,
    (trace, ws, d_logits): &mut SampleScratch,
) -> f64 {
    model.forward_wide(wide, trace);
    match loss {
        LossKind::Survival => {
            let g = safe_loss_and_grad(&trace.hazards, sample.label, sample.event_step);
            model.backward_with(trace, Some(&g.dl_dhazard), None, false, ws);
            g.loss
        }
        LossKind::CrossEntropy => {
            // Per-step targets: attack from the anomaly step (or the CDet
            // event step when the onset is unknown) onward.
            let onset = sample.anomaly_step.unwrap_or(sample.event_step);
            let mut loss_val = 0.0;
            d_logits.clear();
            d_logits.extend(trace.logits.iter().enumerate().map(|(t, &l)| {
                let y = if sample.label && t + 1 >= onset {
                    1.0
                } else {
                    0.0
                };
                // Stable BCE-with-logits.
                loss_val += l.max(0.0) - l * y + (-l.abs()).exp().ln_1p();
                sigmoid(l) - y
            }));
            model.backward_with(trace, None, Some(d_logits), false, ws);
            loss_val / trace.logits.len().max(1) as f64
        }
    }
}

/// The detection *score* of a sample trajectory under each loss kind:
/// lower = more attack-like, so one thresholding rule ("alert when
/// score < threshold") serves both. Survival mode returns `S_t`
/// trajectories; cross-entropy mode returns `1 − p_t`.
pub fn score_trajectory(model: &XatuModel, sample: &Sample, loss: LossKind) -> Vec<f64> {
    match loss {
        LossKind::Survival => xatu_survival::hazard::survival_curve(&model.hazards(sample)),
        LossKind::CrossEntropy => model
            .step_probabilities(sample)
            .iter()
            .map(|p| 1.0 - p)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleMeta;
    use xatu_features::frame::NUM_FEATURES;
    use xatu_netflow::addr::Ipv4;
    use xatu_netflow::attack::AttackType;

    fn cfg() -> XatuConfig {
        XatuConfig {
            timescales: (1, 3, 6),
            short_len: 8,
            medium_len: 6,
            long_len: 4,
            window: 6,
            hidden: 5,
            epochs: 30,
            batch_size: 4,
            lr: 2e-2,
            ..XatuConfig::smoke_test()
        }
    }

    /// Synthetic dataset where attacks have a clear feature signature:
    /// feature 0 ramps up inside the window for positives.
    fn dataset(c: &XatuConfig, n: usize) -> Vec<Sample> {
        let mut out = Vec::new();
        for i in 0..n {
            let label = i % 2 == 0;
            let frame = |v: f32| -> Vec<f32> {
                let mut f = vec![0.0f32; NUM_FEATURES];
                f[0] = v;
                f[1] = 0.1;
                f
            };
            let window: Vec<Vec<f32>> = (0..c.window)
                .map(|t| {
                    if label && t >= 2 {
                        frame(1.0 + t as f32 * 0.5)
                    } else {
                        frame(0.05 * ((i + t) % 3) as f32)
                    }
                })
                .collect();
            out.push(Sample {
                ctx: [
                    vec![frame(0.02); c.short_len],
                    vec![frame(0.02); c.medium_len],
                    vec![frame(0.02); c.long_len],
                ],
                lead: Vec::new(),
                window,
                label,
                event_step: if label { c.window - 1 } else { c.window },
                anomaly_step: label.then_some(3),
                meta: SampleMeta {
                    customer: Ipv4(i as u32),
                    attack_type: AttackType::UdpFlood,
                    window_start: 0,
                },
            });
        }
        out
    }

    #[test]
    fn loss_decreases_over_training() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let samples = dataset(&c, 12);
        let stats = train(&mut model, &samples, &c).unwrap();
        assert_eq!(stats.len(), c.epochs);
        let first = stats[0].mean_loss;
        let last = stats.last().unwrap().mean_loss;
        assert!(
            last < first * 0.7,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn trained_model_separates_classes() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let samples = dataset(&c, 16);
        train(&mut model, &samples, &c).unwrap();
        // Survival at the event step: low for attacks, high for quiet.
        let mut atk = Vec::new();
        let mut quiet = Vec::new();
        for s in &samples {
            let traj = score_trajectory(&model, s, LossKind::Survival);
            let v = traj[s.event_step - 1];
            if s.label {
                atk.push(v);
            } else {
                quiet.push(v);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&atk) < mean(&quiet) - 0.2,
            "attack {} vs quiet {}",
            mean(&atk),
            mean(&quiet)
        );
    }

    #[test]
    fn cross_entropy_mode_also_learns() {
        let mut c = cfg();
        c.loss = LossKind::CrossEntropy;
        let mut model = XatuModel::new(&c);
        let samples = dataset(&c, 12);
        let stats = train(&mut model, &samples, &c).unwrap();
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
        // Scores: lower for attacks.
        let s_atk = score_trajectory(&model, &samples[0], c.loss);
        let s_quiet = score_trajectory(&model, &samples[1], c.loss);
        assert!(s_atk[c.window - 1] < s_quiet[c.window - 1]);
    }

    #[test]
    fn training_is_deterministic() {
        let c = cfg();
        let samples = dataset(&c, 8);
        let mut m1 = XatuModel::new(&c);
        let mut m2 = XatuModel::new(&c);
        let s1 = train(&mut m1, &samples, &c).unwrap();
        let s2 = train(&mut m2, &samples, &c).unwrap();
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.mean_loss, b.mean_loss);
        }
        assert_eq!(m1.hazards(&samples[0]), m2.hazards(&samples[0]));
    }

    #[test]
    fn training_telemetry_is_deterministic_and_matches_stats() {
        let c = cfg();
        let samples = dataset(&c, 8);
        let mut m1 = XatuModel::new(&c);
        let mut m2 = XatuModel::new(&c);
        let mut o1 = Registry::new();
        let mut o2 = Registry::new();
        let stats = train_with_obs(&mut m1, &samples, &c, &mut o1).unwrap();
        train_with_obs(&mut m2, &samples, &c, &mut o2).unwrap();
        let s1 = o1.snapshot();
        assert_eq!(s1.digest(), o2.snapshot().digest());
        if xatu_obs::enabled() {
            assert_eq!(s1.counter("train.epochs"), c.epochs as u64);
            assert_eq!(s1.counter("train.samples"), samples.len() as u64);
            let events = s1.events_of("train.epoch");
            assert_eq!(events.len(), c.epochs);
            // The recorded loss is the exact value returned to the caller.
            let last = events.last().unwrap();
            let loss_field = last
                .fields
                .iter()
                .find(|(n, _)| *n == "loss")
                .map(|(_, v)| v.to_string())
                .unwrap();
            assert_eq!(loss_field, format!("{:?}", stats.last().unwrap().mean_loss));
        }
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        assert!(train(&mut model, &[], &c).unwrap().is_empty());
    }

    #[test]
    fn gradients_are_finite_throughout() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let samples = dataset(&c, 8);
        let stats = train(&mut model, &samples, &c).unwrap();
        for st in &stats {
            assert!(st.mean_loss.is_finite());
            assert!(st.mean_grad_norm.is_finite());
        }
    }

    #[test]
    fn invalid_sample_is_a_typed_error() {
        let c = cfg();
        let mut model = XatuModel::new(&c);
        let mut samples = dataset(&c, 4);
        samples[2].event_step = 99;
        match train(&mut model, &samples, &c) {
            Err(crate::error::XatuError::InvalidSample { index: 2, reason }) => {
                assert!(reason.contains("event_step"), "{reason}");
            }
            other => panic!("expected InvalidSample, got {other:?}"),
        }
    }

    /// Every sequence of every sample is checked before training widens
    /// it: a frame the model cannot take is a typed error, not a panic in
    /// the widening or the LSTM, and so is a lead-in that does not match
    /// the window's start.
    #[test]
    fn malformed_sequences_are_typed_errors() {
        type Corrupt = fn(&mut Sample);
        let rows: [(&str, Corrupt, &str); 6] = [
            (
                "ragged short context",
                |s| s.ctx[0][1].truncate(NUM_FEATURES - 1),
                "short context frame 1 has width 272",
            ),
            (
                "medium context narrower than the model",
                |s| s.ctx[1].iter_mut().for_each(|f| f.truncate(8)),
                "medium context frame 0 has width 8",
            ),
            (
                "ragged long context",
                |s| s.ctx[2][3].push(0.0),
                "long context frame 3 has width 274",
            ),
            (
                "window narrower than the model",
                |s| s.window.iter_mut().for_each(|f| f.truncate(8)),
                "window frame 0 has width 8",
            ),
            (
                "lead-in on a window that starts on every edge",
                |s| s.lead = vec![vec![0.0; NUM_FEATURES]; 3],
                "lead-in of 3 minutes",
            ),
            (
                "no lead-in on a window 5 minutes past the long edge",
                |s| s.meta.window_start = 11,
                "needs 5",
            ),
        ];
        let c = cfg();
        for (what, corrupt, want) in rows {
            let mut model = XatuModel::new(&c);
            let mut samples = dataset(&c, 4);
            corrupt(&mut samples[1]);
            match train(&mut model, &samples, &c) {
                Err(crate::error::XatuError::InvalidSample { index: 1, reason }) => {
                    assert!(reason.contains(want), "{what}: {reason}");
                }
                other => panic!("{what}: expected InvalidSample, got {other:?}"),
            }
        }
    }

    fn ck_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xatu_train_ck_{}_{name}", std::process::id()));
        p
    }

    fn params_of(m: &mut XatuModel) -> Vec<u64> {
        let mut p = vec![0.0; m.param_count()];
        m.export_params_into(&mut p);
        p.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn killed_training_resumes_bit_identically() {
        let c = cfg();
        let samples = dataset(&c, 12);
        let path = ck_path("kill_resume");
        let _ = std::fs::remove_file(&path);

        // The reference: one uninterrupted run.
        let mut reference = XatuModel::new(&c);
        let ref_stats = train(&mut reference, &samples, &c).unwrap();

        // The victim: checkpoints every 7 epochs, "crashes" after 13 —
        // so the newest surviving checkpoint is from epoch 7.
        let mut victim = XatuModel::new(&c);
        let killed = train_resumable(
            &mut victim,
            &samples,
            &c,
            &mut Registry::new(),
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 7,
                resume: false,
                kill_after_epochs: Some(13),
            },
        )
        .unwrap();
        assert_eq!(killed.len(), 13, "kill point ignored");

        // The survivor: a fresh process resuming from disk.
        let mut survivor = XatuModel::new(&c);
        let resumed = train_resumable(
            &mut survivor,
            &samples,
            &c,
            &mut Registry::new(),
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 7,
                resume: true,
                kill_after_epochs: None,
            },
        )
        .unwrap();
        assert_eq!(resumed.len(), c.epochs - 7, "did not resume from epoch 7");
        assert_eq!(resumed[0].epoch, 7);
        // Per-epoch losses of the resumed tail match the reference run
        // exactly, and so do the final parameters.
        for (a, b) in resumed.iter().zip(&ref_stats[7..]) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            assert_eq!(a.mean_grad_norm.to_bits(), b.mean_grad_norm.to_bits());
        }
        assert_eq!(params_of(&mut survivor), params_of(&mut reference));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_across_thread_counts_is_bit_identical() {
        let mut c1 = cfg();
        c1.threads = 1;
        let mut c4 = cfg();
        c4.threads = 4;
        let samples = dataset(&c1, 12);
        let path = ck_path("threads");
        let _ = std::fs::remove_file(&path);

        // Reference at 1 thread, uninterrupted.
        let mut reference = XatuModel::new(&c1);
        train(&mut reference, &samples, &c1).unwrap();

        // Crash at 4 threads, resume at 1: the result must still match.
        let mut m = XatuModel::new(&c4);
        train_resumable(
            &mut m,
            &samples,
            &c4,
            &mut Registry::new(),
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 5,
                resume: false,
                kill_after_epochs: Some(11),
            },
        )
        .unwrap();
        let mut survivor = XatuModel::new(&c1);
        train_resumable(
            &mut survivor,
            &samples,
            &c1,
            &mut Registry::new(),
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 5,
                resume: true,
                kill_after_epochs: None,
            },
        )
        .unwrap();
        assert_eq!(params_of(&mut survivor), params_of(&mut reference));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let c = cfg();
        let samples = dataset(&c, 8);
        let path = ck_path("foreign");
        let _ = std::fs::remove_file(&path);
        let mut m = XatuModel::new(&c);
        train_resumable(
            &mut m,
            &samples,
            &c,
            &mut Registry::new(),
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 10,
                resume: false,
                kill_after_epochs: Some(10),
            },
        )
        .unwrap();
        let mut other = cfg();
        other.seed = c.seed.wrapping_add(1);
        let mut m2 = XatuModel::new(&other);
        match train_resumable(
            &mut m2,
            &samples,
            &other,
            &mut Registry::new(),
            &TrainCheckpointSpec {
                path: &path,
                every_epochs: 10,
                resume: true,
                kill_after_epochs: None,
            },
        ) {
            Err(crate::error::XatuError::CheckpointMismatch { reason, .. }) => {
                assert!(reason.contains("seed"), "{reason}");
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
