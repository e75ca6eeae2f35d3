//! Xatu's core: the multi-timescale LSTM survival model, its trainer, the
//! online auto-regressive detector, and the end-to-end pipeline.
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
//!   the model's own `Lstm`, with one definition each of the degradation
//!   ladder, the alert lifecycle and the checkpoint encoder/validator.
//! * [`online`] — the per-address front-end of that core: one customer
//!   per call, thresholded alerts, the optional companion fusion, and
//!   auto-regressive tracker feedback (§5.3: during testing Xatu's own
//!   detections feed A2/A4/A5).
//! * [`engine`] — the one definition of a minute close: NetFlow v5 bytes
//!   (or already-binned flows) → CDet alert feed → tracker upkeep → frames
//!   → per-type fleet heads → alerts. [`engine::AuxFeed`] owns every write,
//!   read and expiry of the auxiliary trackers; [`Engine`] composes it with
//!   the binner, the volume store and the live CDet. It links no
//!   simulator; everything below that streams a world is an adaptor over
//!   one of the two.
//! * [`pipeline`] — the full experiment: simulate → detect (CDet) → extract
//!   features → train per-type models → calibrate thresholds on validation
//!   → evaluate all systems on the test period. Offline, so it drives
//!   [`engine::AuxFeed`]s phase by phase rather than an [`Engine`]. Its
//!   [`pipeline::world_extractor`] loads a simulated world's blocklist
//!   feed and routes into the extractor every world-streaming driver uses.
//! * [`gradients`] — input-gradient attribution (Fig 11: which auxiliary
//!   signal drove a detection, and when).
//! * [`error`] — the typed fault taxonomy ([`XatuError`]): what degraded
//!   input, corrupt checkpoints and I/O failures look like to callers.
//! * [`checkpoint`] — crash-safe checkpoint files (atomic write-then-
//!   rename, checksummed, versioned): one trainer record for both trainers,
//!   told apart by its identity block, and the online detector's.
//! * [`faulted`] — the fault-injected streaming driver: a head-less
//!   [`Engine`] over a [`xatu_simnet::FaultedWorld`] feeding the online
//!   detector, with graceful degradation and optional mid-run
//!   checkpoint/kill/resume.
//! * [`fleet`] — the batch front-end of the same core: every customer
//!   per call through cross-customer batched LSTM kernels and
//!   thread-invariant sharding, 100k+ customers per box, bit-identical
//!   to the online detector.
//! * [`scenarios`] — the adversarial scenario matrix: an [`Engine`] with
//!   one head streams composed multi-vector / pulse-wave / low-and-slow /
//!   carpet-bomb scenarios; both volumetric CDets, the booster and the
//!   fleet detector are scored on detection rate, median delay and
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
pub use scenarios::{run_scenario, DetectorScore, ScenarioReport, ScenarioRunConfig};
