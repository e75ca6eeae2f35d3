//! The streaming detector interface.
//!
//! Every detection system — NetScout-style, FastNetMon-style, and Xatu's
//! online detector in `xatu-core` — consumes the same per-minute,
//! per-customer, per-signature volume observations and emits lifecycle
//! events, so they are interchangeable in the evaluation pipeline.

use crate::alert::Alert;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;

/// A lifecycle event produced by a detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorEvent {
    /// A new attack alert was raised.
    Raised(Alert),
    /// The mitigation-end notice for a previously raised alert.
    Ended(Alert),
}

/// One minute's observation for one (customer, attack-type signature).
#[derive(Clone, Copy, Debug)]
pub struct MinuteObservation {
    /// The minute being observed.
    pub minute: u32,
    /// Customer the traffic targets.
    pub customer: Ipv4,
    /// Attack type whose signature was matched against the traffic.
    pub attack_type: AttackType,
    /// Signature-matching bytes during the minute (sampling-upscaled).
    pub bytes: f64,
    /// Signature-matching packets during the minute.
    pub packets: f64,
}

/// A streaming threshold detector. `Send + Sync`, so an engine holding one
/// as a `Box<dyn Detector>` still moves between threads.
pub trait Detector: Send + Sync {
    /// Feeds one observation; returns any lifecycle events it triggers.
    fn observe(&mut self, obs: &MinuteObservation) -> Vec<DetectorEvent>;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// A boxed copy, state included.
    fn boxed_clone(&self) -> Box<dyn Detector>;
}

/// Forks a boxed detector mid-stream, state included.
impl Clone for Box<dyn Detector> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_is_copy_and_debuggable() {
        let obs = MinuteObservation {
            minute: 5,
            customer: Ipv4(1),
            attack_type: AttackType::UdpFlood,
            bytes: 100.0,
            packets: 10.0,
        };
        let copy = obs;
        assert_eq!(copy.minute, obs.minute);
        assert!(format!("{obs:?}").contains("UdpFlood"));
    }
}
