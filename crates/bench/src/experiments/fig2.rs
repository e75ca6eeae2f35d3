//! Fig 2 — a single UDP attack case study: anomaly start via CUSUM, CDet
//! detection, and the A/B/C areas.
//!
//! Prints the per-minute UDP volume around the attack with annotations,
//! then the A/B/C areas and the effectiveness a CDet-style late detection
//! achieves — the paper's motivating example of late detection.

use xatu_core::eval::{build_ground_truth, VolumeStore};
use xatu_detectors::alert::AlertLog;
use xatu_detectors::netscout::NetScout;
use xatu_detectors::traits::Detector;
use xatu_metrics::areas::{integrate_areas, ScrubWindow};
use xatu_metrics::table::Table;
use xatu_netflow::attack::AttackType;
use xatu_simnet::scenario::single_udp_attack;

/// Runs the Fig 2 case study.
pub fn run(seed: u64) -> String {
    let (mut world, event) = single_udp_attack(seed);
    let total = world.total_minutes();
    let mut volumes = VolumeStore::new(total);
    let mut netscout = NetScout::new();
    let mut alerts = AlertLog::default();

    while !world.finished() {
        let bins = world.step();
        let minute = bins[0].minute;
        for bin in &bins {
            volumes.record(bin);
            if bin.customer == event.victim {
                let udp = volumes.channels(bin.customer, minute)[AttackType::UdpFlood.index()];
                for ev in netscout.observe(&udp) {
                    alerts.apply(&ev);
                }
            }
        }
    }

    let mut out = String::new();
    let Some(alert) = alerts.0.first().copied() else {
        return "fig2: CDet never detected the scripted attack (unexpected)".into();
    };
    let gt = build_ground_truth(&[alert], &volumes);
    let g = gt[0];

    // Per-minute trace around the attack (paper plots ~22 minutes).
    let base = g.anomaly_start.saturating_sub(9);
    let end = (g.mitigation_end + 3).min(total);
    let mut table = Table::new(
        "Fig 2: UDP attack — per-minute signature volume",
        &["minute", "Mbps", "phase"],
    );
    for m in base..end {
        let bytes = volumes.bytes_at(event.victim, AttackType::UdpFlood, m);
        let mbps = bytes * 8.0 / 60.0 / 1e6;
        let phase = if m < g.anomaly_start {
            "normal"
        } else if m < g.cdet_detected {
            "anomalous (pre-detection)"
        } else if m < g.mitigation_end {
            "anomalous -> scrubbed"
        } else {
            "normal"
        };
        table.row(&[
            format!("{}", m as i64 - g.anomaly_start as i64),
            format!("{mbps:.2}"),
            phase.to_string(),
        ]);
    }
    out.push_str(&table.render());

    let volume = volumes.bytes_range(event.victim, AttackType::UdpFlood, base, g.mitigation_end);
    let areas = integrate_areas(
        &volume,
        base,
        g.anomaly_start,
        g.mitigation_end,
        &[ScrubWindow {
            start: g.cdet_detected,
            end: g.mitigation_end,
        }],
    );
    out.push_str(&format!(
        "\nanomaly start (CUSUM): minute {} | CDet detection: minute {} (delay {} min) | mitigation end: {}\n",
        g.anomaly_start,
        g.cdet_detected,
        g.cdet_detected - g.anomaly_start,
        g.mitigation_end
    ));
    out.push_str(&format!(
        "A = {:.1} MB anomalous | B = {:.1} MB scrubbed | effectiveness B/A = {:.1}%\n",
        areas.a / 1e6,
        areas.b / 1e6,
        100.0 * areas.effectiveness()
    ));
    out
}
