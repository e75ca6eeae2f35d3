//! Survival analysis for early DDoS detection.
//!
//! The paper (§4.2 and Appendix C) models the onset of anomalous traffic as
//! a survival process: the network emits an instantaneous *hazard rate*
//! `λ_t ≥ 0` per timestep, and the *survival probability*
//! `S_t = exp(−Σ_{k≤t} λ_k)` is the probability that no attack has started
//! by time `t`. Detection fires when `S_t` drops below a calibrated
//! threshold.
//!
//! Modules:
//!
//! * [`hazard`] — hazard → survival transforms, including the rolling-window
//!   form online (auto-regressive) operation applies; the streaming ring
//!   that serves it lives in `xatu-core`'s detector arena.
//! * [`safe_loss`] — the SAFE survival loss the paper trains with, with an
//!   analytic, numerically-stable gradient.
//! * [`calibrate`] — threshold search: maximize an objective subject to a
//!   constraint holding for a quantile of customers (§5.3's "75 % of
//!   customers below a given overhead bound").

pub mod calibrate;
pub mod hazard;
pub mod kaplan_meier;
pub mod safe_loss;

pub use hazard::{rolling_survival, survival_curve};
pub use safe_loss::{safe_loss_and_grad, SafeLossResult};
