//! Xatu's core: the multi-timescale LSTM survival model, its trainer, the
//! streaming auto-regressive detector, and the end-to-end pipeline.
//!
//! Module map (mirrors Fig 5 of the paper):
//!
//! * [`config`] — every knob of the system, with paper-scale and
//!   laptop-scale presets.
//! * [`sample`] — the training-sample representation: three context
//!   sequences at 1/10/60-minute granularity plus a detection window, a
//!   label, and the CDet event step.
//! * [`model`] — the multi-timescale LSTM (§4.1): three LSTMs over the
//!   pooled series, a dense combiner, and a softplus hazard head, with full
//!   hand-derived backpropagation (gradient-checked in tests).
//! * [`trainer`] — SAFE-loss training with Adam (§4.2, §5.3) and the binary
//!   cross-entropy ablation (Fig 18(d)), over the crate's one minibatch
//!   loop (data-parallel, fixed-order reduction, checkpoint/resume).
//! * [`dataset`] — turning a simulated world plus CDet alerts into balanced
//!   train/validation sample sets (§5.3) and Table 2 statistics.
//! * `detector` (crate-private) — the detector core: per-customer
//!   streaming state as flat arena rows (three dual LSTM states, pooling
//!   buckets, rolling survival, alert lifecycle), all `f64`, stepped by
//!   the head's served layers ([`xatu_nn::ServingLstm`], the trained
//!   weights transposed once) through one online step, with one
//!   definition each of the degradation ladder, the alert lifecycle, the
//!   telemetry and the checkpoint encoder/validator.
//! * [`fleet`] — [`FleetDetector`], the one streaming detector over that
//!   core: every customer of a minute per call, sharded across workers
//!   with thread-invariant results, or one customer-minute per call (the
//!   batch path's reference), with thresholded alerts and the optional
//!   companion fusion. The pipeline, the engine, the scenario matrix and the fault
//!   runs all serve through it.
//! * [`online`] — the detector's former name, an alias of
//!   [`FleetDetector`] kept for the benchmark harness.
//! * [`engine`] — the one definition of a minute close: NetFlow v5 bytes
//!   (or already-binned flows) → CDet alert feed → tracker upkeep → frames
//!   → per-type fleet heads → alerts. [`engine::AuxFeed`] owns every write,
//!   read and expiry of the auxiliary trackers; [`Engine`] composes it with
//!   the binner, the volume store and the live CDet. It links no
//!   simulator; everything below that streams a world is an adaptor over
//!   one of the two.
//! * [`pipeline`] — the full experiment: simulate → detect (CDet) → extract
//!   features → train per-type models → calibrate thresholds on validation
//!   → evaluate all systems on the test period, one [`FleetDetector`] head
//!   per trained type, with Xatu's own detections auto-regressed into the
//!   A2/A4/A5 trackers during testing (§5.3). Offline, so it drives
//!   [`engine::AuxFeed`]s phase by phase rather than an [`Engine`]. Its
//!   [`pipeline::world_extractor`] loads a simulated world's blocklist
//!   feed and routes into the extractor every world-streaming driver uses.
//! * [`gradients`] — input-gradient attribution (Fig 11: which auxiliary
//!   signal drove a detection, and when).
//! * [`error`] — the typed fault taxonomy ([`XatuError`]): what degraded
//!   input, corrupt checkpoints and I/O failures look like to callers.
//! * [`checkpoint`] — crash-safe checkpoint files (atomic write-then-
//!   rename, checksummed, versioned): one trainer record for both trainers,
//!   told apart by its identity block, and the detector's.
//! * [`faulted`] — the fault-injected streaming driver: a head-less
//!   [`Engine`] over a [`xatu_simnet::FaultedWorld`] feeding one detector
//!   head, with graceful degradation, the optional companion and optional
//!   mid-run checkpoint/kill/resume.
//! * [`scenarios`] — the adversarial scenario matrix: an [`Engine`] with
//!   one head per trained model streams composed multi-vector /
//!   pulse-wave / low-and-slow / carpet-bomb scenarios; both volumetric
//!   CDets and the booster are scored on detection rate, median delay and
//!   overhead.
//! * [`ae_trainer`] — benign-window training for the unsupervised
//!   reconstruction companion (LSTM autoencoder over volumetric frames):
//!   a thin adaptor that runs the [`trainer`]'s minibatch loop.
//! * [`fusion`] — score fusion: benign-quantile error normalization plus
//!   the max-combine (min of survivals) of the survival score with the
//!   companion's reconstruction score.

pub mod ae_trainer;
pub mod checkpoint;
pub mod config;
pub mod dataset;
mod detector;
pub mod engine;
pub mod error;
pub mod eval;
pub mod faulted;
pub mod fleet;
pub mod fusion;
pub mod gradients;
pub mod model;
pub mod online;
pub mod pipeline;
pub mod sample;
pub mod scenarios;
pub mod trainer;

pub use config::XatuConfig;
pub use engine::Engine;
pub use error::XatuError;
pub use fleet::{FleetDetector, FleetInput};
pub use model::XatuModel;
pub use pipeline::{Pipeline, PipelineConfig};
pub use scenarios::{run_scenario, ScenarioReport, ScenarioRunConfig};

/// The detector core's frame-side row, reachable only so the
/// micro-benchmarks can time its sanitizer.
#[doc(hidden)]
pub use detector::Row as FrameRow;
