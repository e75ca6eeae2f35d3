//! Evaluation metrics for DDoS detection boosting.
//!
//! The paper measures detection quality with three timeliness-aware metrics
//! defined in §2.3/§2.4 plus classical ROC measures:
//!
//! * **Mitigation effectiveness** — the fraction `B/A` of anomalous traffic
//!   (area `A`, from ground-truth anomaly start to mitigation end) that is
//!   actually diverted to the scrubber (area `B`, from detection to
//!   mitigation end).
//! * **Scrubbing overhead** — the ratio `C/A` of *extraneous* traffic sent
//!   to the scrubber (area `C`: scrubbed traffic outside the anomaly —
//!   detection before onset, or false alerts), reported *cumulatively per
//!   customer* over all of that customer's attacks.
//! * **Detection delay** — minutes from ground-truth anomaly start to the
//!   detector's alert (negative = detected before the anomaly).
//!
//! Modules: [`areas`] (A/B/C integration over per-minute volume series),
//! [`effectiveness`], [`overhead`], [`delay`], [`roc`], [`percentile`](mod@percentile),
//! and [`table`] (fixed-width report rendering used by the bench harness).

pub mod areas;
pub mod delay;
pub mod effectiveness;
pub mod overhead;
pub mod percentile;
pub mod roc;
pub mod table;

pub use areas::{AttackAreas, ScrubWindow};
pub use percentile::{percentile, Summary};
pub use roc::{roc_curve, RocPoint};
