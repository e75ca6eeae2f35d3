//! Alert records shared by every detector.

use crate::traits::DetectorEvent;
use serde::{Deserialize, Serialize};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::{AttackType, Signature};

/// One detection event with its lifecycle timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alert {
    /// Victim customer address.
    pub customer: Ipv4,
    /// Detected attack type (drives the signature).
    pub attack_type: AttackType,
    /// Minute the detector raised the alert.
    pub detected_at: u32,
    /// Minute the mitigation-end notice fired (traffic back to normal),
    /// `None` while the attack is still considered active.
    pub mitigation_end: Option<u32>,
}

impl Alert {
    /// The anomalous-traffic signature this alert diverts to scrubbing.
    pub fn signature(&self) -> Signature {
        self.attack_type.signature()
    }

    /// Alert duration in minutes, if mitigation has ended.
    pub fn duration(&self) -> Option<u32> {
        self.mitigation_end
            .map(|e| e.saturating_sub(self.detected_at))
    }

    /// True if the alert is active at `minute` (detected, not yet ended).
    pub fn active_at(&self, minute: u32) -> bool {
        minute >= self.detected_at && self.mitigation_end.is_none_or(|e| minute < e)
    }
}

/// The alerts a detector has raised so far, each closed in place when its
/// mitigation-end notice arrives.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlertLog(pub Vec<Alert>);

impl AlertLog {
    /// Folds one lifecycle event in: `Raised` appends the alert, `Ended`
    /// stamps the newest open alert of the same (customer, type) with the
    /// event's mitigation end. An `Ended` with no open alert is ignored.
    pub fn apply(&mut self, ev: &DetectorEvent) {
        match ev {
            DetectorEvent::Raised(a) => self.0.push(*a),
            DetectorEvent::Ended(a) => {
                if let Some(open) = self.0.iter_mut().rev().find(|x| {
                    x.customer == a.customer
                        && x.attack_type == a.attack_type
                        && x.mitigation_end.is_none()
                }) {
                    open.mitigation_end = a.mitigation_end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert() -> Alert {
        Alert {
            customer: Ipv4(7),
            attack_type: AttackType::UdpFlood,
            detected_at: 100,
            mitigation_end: Some(110),
        }
    }

    #[test]
    fn duration_and_activity() {
        let a = alert();
        assert_eq!(a.duration(), Some(10));
        assert!(a.active_at(100));
        assert!(a.active_at(109));
        assert!(!a.active_at(110));
        assert!(!a.active_at(99));
    }

    #[test]
    fn open_alert_is_active_indefinitely() {
        let mut a = alert();
        a.mitigation_end = None;
        assert!(a.active_at(1_000_000));
        assert_eq!(a.duration(), None);
    }

    #[test]
    fn log_closes_the_newest_open_alert_of_the_pair() {
        let open = |customer, detected_at| Alert {
            customer: Ipv4(customer),
            detected_at,
            mitigation_end: None,
            ..alert()
        };
        let mut log = AlertLog::default();
        for a in [open(7, 1), open(8, 2), open(7, 3)] {
            log.apply(&DetectorEvent::Raised(a));
        }
        let ended = Alert {
            mitigation_end: Some(9),
            ..open(7, 3)
        };
        log.apply(&DetectorEvent::Ended(ended));
        let ends: Vec<_> = log.0.iter().map(|a| a.mitigation_end).collect();
        assert_eq!(ends, [None, None, Some(9)]);
        // Nothing open for this pair: ignored.
        log.apply(&DetectorEvent::Ended(Alert {
            customer: Ipv4(9),
            ..ended
        }));
        assert_eq!(log.0.len(), 3);
    }

    #[test]
    fn signature_comes_from_type() {
        assert_eq!(alert().signature(), AttackType::UdpFlood.signature());
    }
}
