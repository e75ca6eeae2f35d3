//! A FastNetMon-style dynamic-threshold detector.
//!
//! The paper's second baseline CDet: an open-source, NetFlow-driven
//! threshold system "configured with the best dynamic thresholds in
//! production". Compared to the commercial detector it reacts faster
//! (shorter confirmation) and uses mean+k·σ dynamic thresholds ("ban
//! thresholds") over a sliding statistics window, at the price of a
//! slightly higher base threshold floor on packets as well as bytes.

use crate::alert::Alert;
use crate::traits::{Detector, DetectorEvent, MinuteObservation};
use std::collections::HashMap;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;

/// Tunables for the FastNetMon-style detector.
#[derive(Clone, Copy, Debug)]
pub struct FastNetMonConfig {
    /// Sliding statistics window length (minutes).
    pub window: usize,
    /// Threshold = mean + `k_sigma`·σ over the window.
    pub k_sigma: f64,
    /// Absolute byte-rate floor (bytes/minute).
    pub floor_bytes: f64,
    /// Absolute packet-rate floor (packets/minute).
    pub floor_packets: f64,
    /// Consecutive anomalous minutes required to "ban" (alert).
    pub sustain: u32,
    /// Consecutive quiet minutes required to "unban" (end mitigation).
    pub quiet: u32,
}

impl Default for FastNetMonConfig {
    fn default() -> Self {
        FastNetMonConfig {
            window: 60,
            k_sigma: 12.0,
            floor_bytes: 3.0e6,
            floor_packets: 2.0e3,
            sustain: 2,
            quiet: 4,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct CellState {
    history: Vec<f64>, // ring of byte volumes
    head: usize,
    above: u32,
    below: u32,
    active: Option<Alert>,
}

impl CellState {
    fn stats(&self) -> (f64, f64) {
        if self.history.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.history.len() as f64;
        let mean = self.history.iter().sum::<f64>() / n;
        let var = self
            .history
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        (mean, var.sqrt())
    }

    fn learn(&mut self, window: usize, bytes: f64) {
        if self.history.len() < window {
            self.history.push(bytes);
        } else {
            self.history[self.head] = bytes;
            self.head = (self.head + 1) % window;
        }
    }
}

/// The FastNetMon-style detector.
#[derive(Clone, Debug, Default)]
pub struct FastNetMon {
    cfg: FastNetMonConfig,
    cells: HashMap<(Ipv4, AttackType), CellState>,
}

impl FastNetMon {
    /// Creates a detector with default tuning.
    pub fn new() -> Self {
        Self::with_config(FastNetMonConfig::default())
    }

    /// Creates a detector with explicit tuning.
    pub fn with_config(cfg: FastNetMonConfig) -> Self {
        FastNetMon {
            cfg,
            cells: HashMap::new(),
        }
    }
}

impl Detector for FastNetMon {
    fn observe(&mut self, obs: &MinuteObservation) -> Vec<DetectorEvent> {
        let cfg = self.cfg;
        let cell = self
            .cells
            .entry((obs.customer, obs.attack_type))
            .or_default();
        let mut events = Vec::new();

        let (mean, std) = cell.stats();
        let dynamic = mean + cfg.k_sigma * std;
        let anomalous = (obs.bytes > cfg.floor_bytes.max(dynamic)
            && obs.packets > cfg.floor_packets)
            // Until stats warm up, rely on the absolute floors alone.
            || (cell.history.len() < 5 && obs.bytes > 10.0 * cfg.floor_bytes);

        match cell.active {
            None => {
                if anomalous {
                    cell.above += 1;
                    if cell.above >= cfg.sustain {
                        let alert = Alert {
                            customer: obs.customer,
                            attack_type: obs.attack_type,
                            detected_at: obs.minute,
                            mitigation_end: None,
                        };
                        cell.active = Some(alert);
                        cell.below = 0;
                        events.push(DetectorEvent::Raised(alert));
                    }
                } else {
                    cell.above = 0;
                    cell.learn(cfg.window, obs.bytes);
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
        "FastNetMon"
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

    fn run(det: &mut FastNetMon, series: &[f64]) -> Vec<DetectorEvent> {
        let mut events = Vec::new();
        for (m, &b) in series.iter().enumerate() {
            events.extend(det.observe(&obs(m as u32, b)));
        }
        events
    }

    #[test]
    fn quiet_traffic_never_alerts() {
        let mut det = FastNetMon::new();
        assert!(run(&mut det, &vec![1e5; 200]).is_empty());
    }

    #[test]
    fn fnm_alerts_faster_than_netscout() {
        let mut fnm = FastNetMon::new();
        let mut ns = crate::netscout::NetScout::new();
        let mut series = vec![1e5; 60];
        series.extend(vec![1e8; 20]);
        let fnm_events = run(&mut fnm, &series);
        let mut ns_events = Vec::new();
        for (m, &b) in series.iter().enumerate() {
            ns_events.extend(ns.observe(&obs(m as u32, b)));
        }
        let raised_minute = |evs: &[DetectorEvent]| {
            evs.iter().find_map(|e| match e {
                DetectorEvent::Raised(a) => Some(a.detected_at),
                _ => None,
            })
        };
        let fm = raised_minute(&fnm_events).expect("fnm raised");
        let nm = raised_minute(&ns_events).expect("ns raised");
        // NetScout's fast path can tie FNM on violent floods, but FNM is
        // never slower.
        assert!(fm <= nm, "fnm={fm} ns={nm}");
    }

    #[test]
    fn packet_floor_suppresses_byte_only_spikes() {
        let mut det = FastNetMon::new();
        // Huge bytes but almost no packets (e.g. a few giant flows).
        let mut events = Vec::new();
        for m in 0..60 {
            events.extend(det.observe(&MinuteObservation {
                packets: 1.0,
                ..obs(m, 1e5)
            }));
        }
        for m in 60..70 {
            events.extend(det.observe(&MinuteObservation {
                packets: 10.0,
                ..obs(m, 1e9)
            }));
        }
        assert!(events.is_empty());
    }

    #[test]
    fn mitigation_lifecycle() {
        let mut det = FastNetMon::new();
        let mut series = vec![1e5; 60];
        series.extend(vec![1e8; 8]);
        series.extend(vec![1e5; 20]);
        let events = run(&mut det, &series);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], DetectorEvent::Raised(_)));
        assert!(matches!(events[1], DetectorEvent::Ended(_)));
    }

    #[test]
    fn dynamic_threshold_adapts_to_noisy_customers() {
        let mut det = FastNetMon::new();
        // Noisy baseline oscillating 1e6..9e6; spikes to 9e6 are normal here.
        let series: Vec<f64> = (0..120)
            .map(|i| if i % 2 == 0 { 1e6 } else { 9e6 })
            .collect();
        let events = run(&mut det, &series);
        assert!(events.is_empty(), "noisy-but-stable traffic must not alert");
    }
}
