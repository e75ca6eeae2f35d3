//! Golden digests of the two trainers: the survival model's
//! ([`xatu_core::trainer`], SAFE and cross-entropy) and the companion
//! autoencoder's ([`xatu_core::ae_trainer`]).
//!
//! Every row trains a small fixed model on a fixed dataset three ways —
//! uninterrupted; checkpointing every two epochs and killed after the
//! second; resumed from that checkpoint — and folds into FNV-1a digests
//! ([`Golden`]):
//!
//! * `params` — the bits of every final parameter of the uninterrupted run;
//! * `epochs` — the bits of every epoch's `(mean_loss, mean_grad_norm)`;
//! * `checkpoint` — the bytes of the XCK1 file written at epoch 2.
//!
//! The killed-then-resumed run must reproduce `params` and `epochs`
//! exactly. Rows run at 1 and 4 worker threads against the same constants,
//! so the digests also pin thread-count invariance. A row that moves
//! prints its new value in the failure message.

use std::path::PathBuf;
use xatu_core::ae_trainer::{
    new_autoencoder, train_autoencoder, train_autoencoder_resumable, AeTrainConfig,
};
use xatu_core::config::{LossKind, XatuConfig};
use xatu_core::error::XatuError;
use xatu_core::model::XatuModel;
use xatu_core::sample::{Sample, SampleMeta};
use xatu_core::trainer::{train, train_resumable, TrainCheckpointSpec};
use xatu_features::frame::NUM_FEATURES;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::{FrameArena, Params};
use xatu_obs::Registry;

/// What a row's digests must read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    params: u64,
    epochs: u64,
    checkpoint: u64,
}

const SURVIVAL: Golden = Golden {
    params: 0xa6ca_e472_1902_c93e,
    epochs: 0x07b9_3598_8c65_ac72,
    checkpoint: 0xf32f_1e50_d408_aec9,
};
const CROSS_ENTROPY: Golden = Golden {
    params: 0x19fd_86b6_fadf_7d69,
    epochs: 0x2893_d194_09a1_fdcb,
    checkpoint: 0xa1df_7260_e0be_b262,
};
const AUTOENCODER: Golden = Golden {
    params: 0xa937_700c_d3d6_cb27,
    epochs: 0x0fde_c4d0_1841_5366,
    checkpoint: 0x7fa1_231c_268b_a815,
};

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn words(ws: &[u64]) -> u64 {
    fnv(ws.iter().flat_map(|w| w.to_le_bytes()))
}

/// One training run's outcome: final parameter bits and per-epoch
/// `(epoch, mean_loss bits, mean_grad_norm bits)`.
struct Trained {
    params: Vec<u64>,
    epochs: Vec<(usize, u64, u64)>,
}

fn params_of(model: &mut impl Params) -> Vec<u64> {
    let mut p = vec![0.0; model.param_count()];
    model.export_params_into(&mut p);
    p.iter().map(|v| v.to_bits()).collect()
}

fn epoch_words(epochs: &[(usize, u64, u64)]) -> Vec<u64> {
    epochs.iter().flat_map(|&(_, l, n)| [l, n]).collect()
}

fn scratch_file(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("xatu_trainer_golden_{}_{tag}", std::process::id()));
    p
}

fn spec(path: &std::path::Path, resume: bool) -> TrainCheckpointSpec<'_> {
    TrainCheckpointSpec {
        path,
        every_epochs: 2,
        resume,
        kill_after_epochs: (!resume).then_some(2),
    }
}

/// Runs the three-way protocol for one row and checks it against `want`.
fn check_row(
    row: &str,
    want: Golden,
    run: impl Fn(Option<&TrainCheckpointSpec<'_>>) -> Result<Trained, XatuError>,
) {
    let full = run(None).unwrap();
    let n = full.epochs.len();
    assert!(n > 2, "{row}: too few epochs to kill at 2");
    for (i, e) in full.epochs.iter().enumerate() {
        assert_eq!(e.0, i, "{row}: epoch index");
    }

    let path = scratch_file(row);
    let _ = std::fs::remove_file(&path);
    let killed = run(Some(&spec(&path, false))).unwrap();
    assert_eq!(killed.epochs.len(), 2, "{row}: kill point ignored");
    let ck_bytes = std::fs::read(&path).unwrap();
    let resumed = run(Some(&spec(&path, true))).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(resumed.epochs.len(), n - 2, "{row}: did not resume at 2");
    assert_eq!(resumed.epochs[0].0, 2, "{row}: resumed epoch index");

    // Kill + resume reproduces the uninterrupted run to the last bit.
    let mut stitched = killed.epochs;
    stitched.extend(resumed.epochs);
    assert_eq!(stitched, full.epochs, "{row}: resumed epoch stats");
    assert_eq!(resumed.params, full.params, "{row}: resumed parameters");

    let got = Golden {
        params: words(&full.params),
        epochs: words(&epoch_words(&full.epochs)),
        checkpoint: fnv(ck_bytes),
    };
    assert_eq!(got, want, "{row}: digests moved; new value {got:#x?}");
}

// ---------------------------------------------------------------------------
// The survival trainer.
// ---------------------------------------------------------------------------

fn survival_cfg(loss: LossKind, threads: usize) -> XatuConfig {
    XatuConfig {
        timescales: (1, 3, 6),
        short_len: 8,
        medium_len: 6,
        long_len: 4,
        window: 6,
        hidden: 5,
        epochs: 6,
        batch_size: 4,
        lr: 2e-2,
        loss,
        threads,
        ..XatuConfig::smoke_test()
    }
}

/// Fourteen samples (batches of 4, 4, 4, 2), attacks ramping feature 0.
fn samples(c: &XatuConfig) -> Vec<Sample> {
    (0..14)
        .map(|i| {
            let label = i % 2 == 0;
            let frame = |v: f32| -> Vec<f32> {
                let mut f = vec![0.0f32; NUM_FEATURES];
                f[0] = v;
                f[1] = 0.1;
                f[2 + i % 5] = 0.03 * i as f32;
                f
            };
            Sample {
                ctx: [
                    (0..c.short_len).map(|t| frame(0.01 * t as f32)).collect(),
                    vec![frame(0.02); c.medium_len],
                    vec![frame(0.02); c.long_len],
                ],
                lead: Vec::new(),
                window: (0..c.window)
                    .map(|t| {
                        if label && t >= 2 {
                            frame(1.0 + t as f32 * 0.5)
                        } else {
                            frame(0.05 * ((i + t) % 3) as f32)
                        }
                    })
                    .collect(),
                label,
                event_step: if label { c.window - 1 } else { c.window },
                anomaly_step: label.then_some(3),
                meta: SampleMeta {
                    customer: Ipv4(i as u32),
                    attack_type: AttackType::UdpFlood,
                    window_start: 0,
                },
            }
        })
        .collect()
}

fn survival_row(loss: LossKind, threads: usize, want: Golden) {
    let c = survival_cfg(loss, threads);
    let data = samples(&c);
    check_row(&format!("{loss:?}_t{threads}"), want, |spec| {
        let mut model = XatuModel::new(&c);
        let stats = match spec {
            Some(spec) => train_resumable(&mut model, &data, &c, &mut Registry::new(), spec)?,
            None => train(&mut model, &data, &c)?,
        };
        Ok(Trained {
            params: params_of(&mut model),
            epochs: stats
                .iter()
                .map(|s| (s.epoch, s.mean_loss.to_bits(), s.mean_grad_norm.to_bits()))
                .collect(),
        })
    });
}

#[test]
fn survival_loss_one_thread() {
    survival_row(LossKind::Survival, 1, SURVIVAL);
}

#[test]
fn survival_loss_four_threads() {
    survival_row(LossKind::Survival, 4, SURVIVAL);
}

#[test]
fn cross_entropy_one_thread() {
    survival_row(LossKind::CrossEntropy, 1, CROSS_ENTROPY);
}

#[test]
fn cross_entropy_four_threads() {
    survival_row(LossKind::CrossEntropy, 4, CROSS_ENTROPY);
}

// ---------------------------------------------------------------------------
// The companion autoencoder trainer.
// ---------------------------------------------------------------------------

const AE_DIM: usize = 10;

fn ae_cfg(threads: usize) -> AeTrainConfig {
    AeTrainConfig {
        seed: 23,
        hidden: 6,
        lr: 5e-3,
        batch_size: 4,
        epochs: 6,
        threads,
        ..AeTrainConfig::default()
    }
}

/// Fourteen benign windows of 8 frames, smooth per-window phase.
fn windows() -> Vec<FrameArena> {
    (0..14)
        .map(|i| {
            let mut arena = FrameArena::new(AE_DIM);
            for t in 0..8 {
                let row = arena.push_zeroed();
                for (k, v) in row.iter_mut().enumerate() {
                    if k % 3 == 0 {
                        *v = 0.1 + 0.05 * (((i + t + k) % 7) as f64);
                    }
                }
            }
            arena
        })
        .collect()
}

fn autoencoder_row(threads: usize) {
    let c = ae_cfg(threads);
    let data = windows();
    check_row(&format!("autoencoder_t{threads}"), AUTOENCODER, |spec| {
        let mut ae = new_autoencoder(AE_DIM, &c);
        let stats = match spec {
            Some(spec) => train_autoencoder_resumable(&mut ae, &data, &c, spec)?,
            None => train_autoencoder(&mut ae, &data, &c)?,
        };
        Ok(Trained {
            params: params_of(&mut ae),
            epochs: stats
                .iter()
                .map(|s| (s.epoch, s.mean_loss.to_bits(), s.mean_grad_norm.to_bits()))
                .collect(),
        })
    });
}

#[test]
fn autoencoder_one_thread() {
    autoencoder_row(1);
}

#[test]
fn autoencoder_four_threads() {
    autoencoder_row(4);
}

// ---------------------------------------------------------------------------
// A checkpoint of one trainer never resumes the other.
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_kinds_do_not_cross() {
    let c = survival_cfg(LossKind::Survival, 1);
    let data = samples(&c);
    let a = ae_cfg(1);
    let wins = windows();

    let survival_ck = scratch_file("cross_survival");
    let ae_ck = scratch_file("cross_ae");
    for p in [&survival_ck, &ae_ck] {
        let _ = std::fs::remove_file(p);
    }
    train_resumable(
        &mut XatuModel::new(&c),
        &data,
        &c,
        &mut Registry::new(),
        &spec(&survival_ck, false),
    )
    .unwrap();
    train_autoencoder_resumable(
        &mut new_autoencoder(AE_DIM, &a),
        &wins,
        &a,
        &spec(&ae_ck, false),
    )
    .unwrap();

    // The survival trainer handed the autoencoder's file, and the reverse.
    let s = train_resumable(
        &mut XatuModel::new(&c),
        &data,
        &c,
        &mut Registry::new(),
        &spec(&ae_ck, true),
    );
    assert!(
        matches!(s, Err(XatuError::CorruptCheckpoint { ref reason, .. }) if reason.contains("kind byte 3, expected 1")),
        "{s:?}"
    );
    let r = train_autoencoder_resumable(
        &mut new_autoencoder(AE_DIM, &a),
        &wins,
        &a,
        &spec(&survival_ck, true),
    );
    assert!(
        matches!(r, Err(XatuError::CorruptCheckpoint { ref reason, .. }) if reason.contains("kind byte 1, expected 3")),
        "{r:?}"
    );
    for p in [&survival_ck, &ae_ck] {
        std::fs::remove_file(p).unwrap();
    }
}
