//! Adversarial scenario evaluation: the per-family detection matrix.
//!
//! Drives a composed scenario ([`xatu_simnet::compose`]) through every
//! detection path at once:
//!
//! * **NetScout-style CDet** — the EWMA-baseline volumetric detector the
//!   evasion scheduler is tuned against. It doubles as the booster's CDet
//!   feed: its alerts update the auxiliary trackers, exactly as in the
//!   clean pipeline's test phase.
//! * **FastNetMon-style CDet** — the second volumetric detector, with a
//!   different sustain requirement (the matrix shows which shapes evade
//!   one but not the other).
//! * **Xatu booster** — one [`OnlineDetector`] per trained per-type model,
//!   fed the shared feature frames (volumetric + auxiliary signals).
//! * **Fleet booster** — a [`FleetDetector`] over the first trained model,
//!   fed the same frames through the batched path.
//!
//! Each detector is scored against the scenario's ground-truth spans:
//! detection rate, median detection delay (with the evaluation module's
//! early credit), and overhead (alert-minutes outside any span). The
//! recorded survival series is bit-comparable across thread counts — the
//! determinism gate in `bench_scenarios` replays a family at 1 and 4
//! workers and requires identical bits.

use crate::config::XatuConfig;
use crate::error::XatuError;
use crate::eval::{VolumeStore, EARLY_CREDIT};
use crate::fleet::{FleetDetector, FleetInput};
use crate::model::XatuModel;
use crate::online::OnlineDetector;
use crate::pipeline::{build_extractor, handle_alert_event, update_trackers, ActiveAlert};
use std::collections::BTreeMap;
use xatu_detectors::alert::Alert;
use xatu_detectors::fastnetmon::FastNetMon;
use xatu_detectors::netscout::NetScout;
use xatu_detectors::traits::{Detector, DetectorEvent, MinuteObservation};
use xatu_features::frame::FeatureFrame;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_par::{par_map, resolve_threads};
use xatu_simnet::{compose, ScenarioFamily, ScenarioSpan, WorldConfig};

/// Configuration of one scenario-matrix run.
#[derive(Clone, Debug)]
pub struct ScenarioRunConfig {
    /// Base world (seed, scale); the composer drops its attack chains.
    pub world: WorldConfig,
    /// Model/streaming knobs (timescales, window, threads).
    pub xatu: XatuConfig,
    /// Survival threshold for the booster detectors.
    pub threshold: f64,
}

/// One detector's score against a scenario's ground-truth spans.
#[derive(Clone, Debug)]
pub struct DetectorScore {
    /// Stable detector name for reports.
    pub detector: &'static str,
    /// Spans with at least one matching alert in the detection window.
    pub detected: usize,
    /// Total ground-truth spans.
    pub total: usize,
    /// Median minutes from span onset to first alert (negative with early
    /// credit; NaN when nothing was detected).
    pub median_delay: f64,
    /// Alert-minutes outside every span's detection window.
    pub overhead_minutes: u64,
}

/// What one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario family that ran.
    pub family: ScenarioFamily,
    /// Ground-truth spans the detectors were scored against.
    pub spans: Vec<ScenarioSpan>,
    /// Per-detector scores, in matrix order (NetScout, FastNetMon,
    /// booster, fleet booster).
    pub scores: Vec<DetectorScore>,
    /// The alert log each score was computed from, in the order of
    /// `scores`.
    pub alerts: Vec<Vec<Alert>>,
    /// Customers, in world order — the column order of `survivals`.
    pub customers: Vec<Ipv4>,
    /// Per-minute recorded survivals, row-major: for each minute, the
    /// first-model booster's survival per customer, then the fleet
    /// detector's. Bit-comparable across thread counts.
    pub survivals: Vec<f64>,
}

impl ScenarioReport {
    /// True when no recorded survival is NaN/∞.
    pub fn all_finite(&self) -> bool {
        self.survivals.iter().all(|v| v.is_finite())
    }

    /// The score row for `detector`, if present.
    pub fn score(&self, detector: &str) -> Option<&DetectorScore> {
        self.scores.iter().find(|s| s.detector == detector)
    }
}

/// Marks the newest matching open alert as ended.
fn close_alert(log: &mut [Alert], ended: &Alert) {
    if let Some(slot) = log.iter_mut().rev().find(|x| {
        x.customer == ended.customer
            && x.attack_type == ended.attack_type
            && x.mitigation_end.is_none()
    }) {
        slot.mitigation_end = ended.mitigation_end;
    }
}

fn record_event(log: &mut Vec<Alert>, ev: &DetectorEvent) {
    match ev {
        DetectorEvent::Raised(a) => log.push(*a),
        DetectorEvent::Ended(a) => close_alert(log, a),
    }
}

/// Scores one detector's alert log against the ground-truth spans.
fn score_alerts(
    detector: &'static str,
    alerts: &[Alert],
    spans: &[ScenarioSpan],
    total_minutes: u32,
) -> DetectorScore {
    let mut delays: Vec<f64> = Vec::new();
    for span in spans {
        let window_start = span.onset.saturating_sub(EARLY_CREDIT);
        let hit = alerts
            .iter()
            .filter(|a| {
                a.customer == span.victim
                    && a.detected_at >= window_start
                    && a.detected_at < span.end
            })
            .map(|a| a.detected_at)
            .min();
        if let Some(at) = hit {
            delays.push(at as f64 - span.onset as f64);
        }
    }
    let detected = delays.len();
    delays.sort_by(|a, b| a.partial_cmp(b).expect("delays are finite"));
    let median_delay = if delays.is_empty() {
        f64::NAN
    } else if delays.len() % 2 == 1 {
        delays[delays.len() / 2]
    } else {
        0.5 * (delays[delays.len() / 2 - 1] + delays[delays.len() / 2])
    };
    let mut overhead_minutes = 0u64;
    for a in alerts {
        let end = a.mitigation_end.unwrap_or(total_minutes).min(total_minutes);
        for m in a.detected_at..end {
            let covered = spans.iter().any(|s| {
                s.victim == a.customer && m + EARLY_CREDIT >= s.onset && m < s.end
            });
            if !covered {
                overhead_minutes += 1;
            }
        }
    }
    DetectorScore {
        detector,
        detected,
        total: spans.len(),
        median_delay,
        overhead_minutes,
    }
}

/// Runs one scenario family through every detection path.
///
/// `models` are the trained per-type survival models (the first one also
/// drives the fleet detector); the boosters serve at `cfg.threshold`.
pub fn run_scenario(
    models: &[(AttackType, XatuModel)],
    cfg: &ScenarioRunConfig,
    family: ScenarioFamily,
) -> Result<ScenarioReport, XatuError> {
    stream_scenario(models, cfg, family).map(|(report, _)| report)
}

/// [`run_scenario`], also handing back the extractor as the run left it.
fn stream_scenario(
    models: &[(AttackType, XatuModel)],
    cfg: &ScenarioRunConfig,
    family: ScenarioFamily,
) -> Result<(ScenarioReport, xatu_features::table1::FeatureExtractor), XatuError> {
    assert!(!models.is_empty(), "scenario runs need at least one model");
    let composed = compose(family, &cfg.world);
    let mut world = composed.world;
    let spans = composed.spans;
    let customers: Vec<Ipv4> = world.customers().to_vec();
    let total_minutes = world.total_minutes();
    let threads = resolve_threads(cfg.xatu.threads);

    let mut extractor = build_extractor(&world, &cfg.xatu, None);
    let mut volumes = VolumeStore::new(total_minutes);
    let mut netscout = NetScout::new();
    let mut fnm = FastNetMon::new();
    let mut active_cdet: BTreeMap<(Ipv4, AttackType), ActiveAlert> = BTreeMap::new();
    let mut ns_alerts: Vec<Alert> = Vec::new();
    let mut fnm_alerts: Vec<Alert> = Vec::new();

    let mut boosters: Vec<OnlineDetector> = models
        .iter()
        .map(|(ty, m)| OnlineDetector::new(m.clone(), *ty, cfg.threshold, &cfg.xatu))
        .collect();
    let mut fleet = FleetDetector::new(
        models[0].1.clone(),
        models[0].0,
        cfg.threshold,
        &cfg.xatu,
    );
    for &c in &customers {
        fleet.add_customer(c);
    }
    let mut booster_alerts: Vec<Alert> = Vec::new();
    let mut fleet_alerts: Vec<Alert> = Vec::new();
    let mut survivals: Vec<f64> =
        Vec::with_capacity(total_minutes as usize * customers.len() * 2);

    while !world.finished() {
        let minute = world.minute();
        let bins = world.step();
        for bin in &bins {
            volumes.record(bin);
        }
        // Both volumetric detectors see every (customer, type) channel;
        // NetScout doubles as the booster's CDet feed.
        for bin in &bins {
            for ty in AttackType::ALL {
                let obs = MinuteObservation {
                    minute,
                    customer: bin.customer,
                    attack_type: ty,
                    bytes: volumes.bytes_at(bin.customer, ty, minute),
                    packets: volumes.packets_at(bin.customer, ty, minute),
                };
                for ev in netscout.observe(&obs) {
                    handle_alert_event(
                        &ev,
                        minute,
                        &volumes,
                        &mut extractor,
                        &mut active_cdet,
                        &mut ns_alerts,
                    );
                }
                for ev in fnm.observe(&obs) {
                    record_event(&mut fnm_alerts, &ev);
                }
            }
        }
        for bin in &bins {
            update_trackers(&mut extractor, bin, &mut active_cdet, &volumes, false);
        }

        extractor.spoof.ensure_built();
        let frames: Vec<FeatureFrame> =
            par_map(threads, &bins, |_, bin| extractor.extract_shared(bin));

        for (bin, frame) in bins.iter().zip(&frames) {
            for det in boosters.iter_mut() {
                let (_, _, events) = det.observe(bin.customer, minute, &frame.0)?;
                for e in events {
                    record_event(&mut booster_alerts, &e);
                }
            }
        }
        let fleet_events: Vec<DetectorEvent> = fleet
            .step_minute_batch(minute, threads, |g, _addr, buf| {
                buf.copy_from_slice(&frames[g].0);
                FleetInput::Frame
            })?
            .to_vec();
        for e in &fleet_events {
            record_event(&mut fleet_alerts, e);
        }

        for &c in &customers {
            survivals.push(boosters[0].survival_of(c));
        }
        for &c in &customers {
            survivals.push(fleet.survival_of(c));
        }
        extractor.clustering.expire(minute);
    }

    for det in boosters.iter_mut() {
        for e in det.close_all(total_minutes) {
            record_event(&mut booster_alerts, &e);
        }
    }
    for e in fleet.close_all(total_minutes) {
        record_event(&mut fleet_alerts, &e);
    }

    let scores = vec![
        score_alerts("netscout", &ns_alerts, &spans, total_minutes),
        score_alerts("fastnetmon", &fnm_alerts, &spans, total_minutes),
        score_alerts("xatu_booster", &booster_alerts, &spans, total_minutes),
        score_alerts("xatu_fleet", &fleet_alerts, &spans, total_minutes),
    ];
    let report = ScenarioReport {
        family,
        spans,
        scores,
        alerts: vec![ns_alerts, fnm_alerts, booster_alerts, fleet_alerts],
        customers,
        survivals,
    };
    Ok((report, extractor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xatu_detectors::netscout::NetScoutConfig;
    use xatu_simnet::DetectorTimeConstants;

    fn smoke_cfg(seed: u64) -> ScenarioRunConfig {
        ScenarioRunConfig {
            world: WorldConfig::smoke_test(seed),
            xatu: XatuConfig {
                seed: seed.wrapping_add(1),
                ..XatuConfig::smoke_test()
            },
            threshold: 0.5,
        }
    }

    #[test]
    fn evasion_constants_mirror_the_real_detector() {
        // The simnet composer cannot depend on xatu-detectors, so it
        // mirrors the NetScout defaults; this is the cross-check that the
        // mirror stays honest.
        let mirror = DetectorTimeConstants::netscout_default();
        let real = NetScoutConfig::default();
        assert_eq!(mirror.ewma_alpha, real.baseline_alpha);
        assert_eq!(mirror.multiplier, real.multiplier);
        assert_eq!(mirror.sustain, real.sustain);
        assert_eq!(mirror.fast_sustain, real.fast_sustain);
    }

    #[test]
    fn scenario_run_is_finite_and_thread_invariant() {
        // Untrained model: cheap, and determinism does not care about
        // weights. Survival bits must match between 1 and 4 workers.
        let mut cfg = smoke_cfg(5);
        let models = vec![(AttackType::UdpFlood, XatuModel::new(&cfg.xatu))];
        cfg.xatu.threads = 1;
        let r1 = run_scenario(&models, &cfg, ScenarioFamily::PulseWave).expect("run");
        cfg.xatu.threads = 4;
        let r4 = run_scenario(&models, &cfg, ScenarioFamily::PulseWave).expect("run");
        assert!(r1.all_finite());
        assert_eq!(r1.survivals.len(), r4.survivals.len());
        for (i, (a, b)) in r1.survivals.iter().zip(&r4.survivals).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "survival {i} diverged");
        }
        assert_eq!(r1.spans, r4.spans);
        assert_eq!(r1.scores.len(), 4);
    }

    #[test]
    fn a5_window_slides_once_cdet_alerts_are_old() {
        // A carpet bomb opens CDet alerts on several customers at once, so
        // the clustering graph gains edges; 61 minutes after the last of
        // them closed, the 60-minute window must hold none.
        let cfg = smoke_cfg(9);
        let models = vec![(AttackType::UdpFlood, XatuModel::new(&cfg.xatu))];
        let (r, extractor) =
            stream_scenario(&models, &cfg, ScenarioFamily::CarpetBomb).expect("run");
        let total = cfg.world.days * 1440;
        let cdet = &r.alerts[0];
        let victims: std::collections::BTreeSet<_> = cdet.iter().map(|a| a.customer).collect();
        assert!(victims.len() > 1, "carpet bomb raised CDet alerts on {victims:?}");
        let last_end = cdet.iter().filter_map(|a| a.mitigation_end).max().expect("ended");
        assert!(last_end + 61 <= total, "last CDet alert ends at {last_end} of {total}");
        assert_eq!(extractor.clustering.edge_count(), 0);
    }

    #[test]
    fn pulse_wave_evades_the_netscout_sustain() {
        // The tentpole claim, pinned end to end: an on-run one minute
        // short of the fast-path sustain never accumulates enough
        // consecutive anomalous minutes for the NetScout-style CDet.
        let cfg = smoke_cfg(9);
        let models = vec![(AttackType::UdpFlood, XatuModel::new(&cfg.xatu))];
        let r = run_scenario(&models, &cfg, ScenarioFamily::PulseWave).expect("run");
        let ns = r.score("netscout").expect("netscout row");
        assert_eq!(
            ns.detected, 0,
            "pulse train must evade the sustain logic: {ns:?}"
        );
    }
}
