//! A conservative, commercial-style threshold detector (the paper's CDet).
//!
//! Characteristics the paper attributes to the deployed appliance:
//! profiled (baseline-derived) thresholds with an absolute floor, and a
//! *sustained* confirmation period before alerting — which is exactly what
//! makes it late on short attacks (§2.3). Mitigation ends after traffic
//! stays below threshold for a quiet period.
//!
//! Per (customer, attack-type) state: a slow EWMA baseline of
//! signature-matching volume, threshold `max(floor, multiplier × baseline)`,
//! alert after `sustain` consecutive minutes above, end after `quiet`
//! consecutive minutes below.

use crate::alert::Alert;
use crate::traits::{Detector, DetectorEvent, MinuteObservation};
use std::collections::HashMap;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;

/// Tunables for the NetScout-style detector.
#[derive(Clone, Copy, Debug)]
pub struct NetScoutConfig {
    /// EWMA smoothing factor for the baseline (per minute).
    pub baseline_alpha: f64,
    /// Threshold multiplier over the baseline.
    pub multiplier: f64,
    /// Absolute threshold floor in bytes/minute (profiled detection floors
    /// alert volume so tiny customers don't page constantly).
    pub floor_bytes: f64,
    /// Consecutive above-threshold minutes required to alert.
    pub sustain: u32,
    /// Fast path: a surge above `fast_multiplier × threshold` alerts after
    /// only `fast_sustain` minutes — violent floods must not wait out the
    /// full confirmation period (commercial appliances trigger on rate
    /// severity, not duration alone).
    pub fast_multiplier: f64,
    /// Consecutive minutes required on the fast path.
    pub fast_sustain: u32,
    /// Consecutive below-threshold minutes required to end mitigation.
    pub quiet: u32,
}

impl Default for NetScoutConfig {
    fn default() -> Self {
        NetScoutConfig {
            baseline_alpha: 0.02,
            // Conservative, commercial-style: benign variation (including
            // multi-x flash crowds) must stay under threshold; only a
            // clear attack-scale surge alerts (the paper's premise that
            // CDet trades timeliness for a very low false-alarm rate).
            multiplier: 6.0,
            floor_bytes: 1.5e6, // ~0.2 Mbps sustained
            sustain: 8,
            fast_multiplier: 4.0,
            fast_sustain: 4,
            quiet: 5,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct CellState {
    baseline: f64,
    initialized: bool,
    above: u32,
    fast_above: u32,
    below: u32,
    active: Option<Alert>,
}

/// The NetScout-style detector.
#[derive(Clone, Debug, Default)]
pub struct NetScout {
    cfg: NetScoutConfig,
    cells: HashMap<(Ipv4, AttackType), CellState>,
}

impl NetScout {
    /// Creates a detector with default tuning.
    pub fn new() -> Self {
        Self::with_config(NetScoutConfig::default())
    }

    /// Creates a detector with explicit tuning.
    pub fn with_config(cfg: NetScoutConfig) -> Self {
        NetScout {
            cfg,
            cells: HashMap::new(),
        }
    }

    /// The current baseline for a cell (diagnostics).
    pub fn baseline(&self, customer: Ipv4, ty: AttackType) -> Option<f64> {
        self.cells.get(&(customer, ty)).map(|c| c.baseline)
    }
}

impl Detector for NetScout {
    fn observe(&mut self, obs: &MinuteObservation) -> Vec<DetectorEvent> {
        let cfg = self.cfg;
        let cell = self
            .cells
            .entry((obs.customer, obs.attack_type))
            .or_default();
        let mut events = Vec::new();

        if !cell.initialized {
            cell.baseline = obs.bytes;
            cell.initialized = true;
        }
        let threshold = cfg.floor_bytes.max(cfg.multiplier * cell.baseline);
        let anomalous = obs.bytes > threshold;
        let violent = obs.bytes > cfg.fast_multiplier * threshold;

        match cell.active {
            None => {
                if anomalous {
                    cell.above += 1;
                    cell.fast_above = if violent { cell.fast_above + 1 } else { 0 };
                    if cell.above >= cfg.sustain || cell.fast_above >= cfg.fast_sustain {
                        let alert = Alert {
                            customer: obs.customer,
                            attack_type: obs.attack_type,
                            detected_at: obs.minute,
                            mitigation_end: None,
                        };
                        cell.active = Some(alert);
                        cell.below = 0;
                        cell.fast_above = 0;
                        events.push(DetectorEvent::Raised(alert));
                    }
                } else {
                    cell.above = 0;
                    cell.fast_above = 0;
                    // Only learn the baseline from non-anomalous minutes so
                    // attacks do not poison the profile.
                    cell.baseline =
                        (1.0 - cfg.baseline_alpha) * cell.baseline + cfg.baseline_alpha * obs.bytes;
                }
            }
            Some(mut alert) => {
                if anomalous {
                    cell.below = 0;
                } else {
                    cell.below += 1;
                    if cell.below >= cfg.quiet {
                        alert.mitigation_end = Some(obs.minute);
                        cell.active = None;
                        cell.above = 0;
                        events.push(DetectorEvent::Ended(alert));
                    }
                }
            }
        }
        events
    }

    fn name(&self) -> &'static str {
        "NetScout"
    }

    fn boxed_clone(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(minute: u32, bytes: f64) -> MinuteObservation {
        MinuteObservation {
            minute,
            customer: Ipv4(1),
            attack_type: AttackType::UdpFlood,
            bytes,
            packets: bytes / 500.0,
        }
    }

    fn run(det: &mut NetScout, series: &[f64]) -> Vec<DetectorEvent> {
        let mut events = Vec::new();
        for (m, &b) in series.iter().enumerate() {
            events.extend(det.observe(&obs(m as u32, b)));
        }
        events
    }

    #[test]
    fn quiet_traffic_never_alerts() {
        let mut det = NetScout::new();
        let events = run(&mut det, &vec![1e5; 200]);
        assert!(events.is_empty());
    }

    #[test]
    fn sustained_flood_alerts_after_sustain_minutes() {
        let mut det = NetScout::new();
        let mut series = vec![1e5; 60];
        series.extend(vec![1e8; 20]);
        let events = run(&mut det, &series);
        let raised: Vec<&DetectorEvent> = events
            .iter()
            .filter(|e| matches!(e, DetectorEvent::Raised(_)))
            .collect();
        assert_eq!(raised.len(), 1);
        if let DetectorEvent::Raised(a) = raised[0] {
            // A 1000x flood trips the fast path after fast_sustain minutes.
            assert_eq!(a.detected_at, 63);
        }
    }

    #[test]
    fn mild_short_blip_below_sustain_is_ignored() {
        let mut det = NetScout::new();
        let mut series = vec![1e6; 60];
        // 8x baseline (over the 6x threshold, under the 4x fast factor)
        // for 3 minutes: neither path confirms.
        series.extend(vec![8e6; 5]);
        series.extend(vec![1e6; 60]);
        let events = run(&mut det, &series);
        assert!(events.is_empty(), "blip should not alert: {events:?}");
    }

    #[test]
    fn violent_short_flood_trips_fast_path() {
        let mut det = NetScout::new();
        let mut series = vec![1e6; 60];
        series.extend(vec![1e9; 5]); // 1000x for 5 minutes
        series.extend(vec![1e6; 60]);
        let events = run(&mut det, &series);
        assert!(
            matches!(events.first(), Some(DetectorEvent::Raised(_))),
            "violent flood must alert: {events:?}"
        );
    }

    #[test]
    fn mitigation_ends_after_quiet_period() {
        let mut det = NetScout::new();
        let mut series = vec![1e5; 60];
        series.extend(vec![1e8; 10]);
        series.extend(vec![1e5; 20]);
        let events = run(&mut det, &series);
        assert_eq!(events.len(), 2);
        if let DetectorEvent::Ended(a) = events[1] {
            // Attack ends at minute 70; quiet 5 -> end at minute 74.
            assert_eq!(a.mitigation_end, Some(74));
        } else {
            panic!("expected Ended");
        }
    }

    #[test]
    fn floor_suppresses_alerts_on_tiny_customers() {
        let mut det = NetScout::new();
        // 10x increase but far below the absolute floor.
        let mut series = vec![100.0; 60];
        series.extend(vec![1000.0; 30]);
        let events = run(&mut det, &series);
        assert!(events.is_empty());
    }

    #[test]
    fn baseline_not_poisoned_by_attack() {
        let mut det = NetScout::new();
        let mut series = vec![1e6; 60];
        series.extend(vec![1e9; 30]);
        run(&mut det, &series);
        let b = det.baseline(Ipv4(1), AttackType::UdpFlood).unwrap();
        assert!(b < 2e6, "baseline crept up to {b}");
    }

    #[test]
    fn cells_are_independent_per_type() {
        let mut det = NetScout::new();
        let mut events = Vec::new();
        for m in 0..60 {
            events.extend(det.observe(&obs(m, 1e5)));
            events.extend(det.observe(&MinuteObservation {
                attack_type: AttackType::TcpSyn,
                ..obs(m, 1e5)
            }));
        }
        for m in 60..70 {
            events.extend(det.observe(&obs(m, 1e8)));
            events.extend(det.observe(&MinuteObservation {
                attack_type: AttackType::TcpSyn,
                ..obs(m, 1e5)
            }));
        }
        let raised: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                DetectorEvent::Raised(a) => Some(a.attack_type),
                _ => None,
            })
            .collect();
        assert_eq!(raised, vec![AttackType::UdpFlood]);
    }
}
