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
//! * **Xatu booster** — one [`FleetDetector`] head per trained per-type
//!   model, stepped by the engine on the shared feature frames
//!   (volumetric + auxiliary signals).
//!
//! Each detector is scored against the scenario's ground-truth spans:
//! detection rate, median detection delay (with the evaluation module's
//! early credit), and overhead (alert-minutes outside any span). The
//! recorded survival series is bit-comparable across thread counts — the
//! determinism gate in `bench_scenarios` replays a family at 1 and 4
//! workers and requires identical bits.

use crate::config::XatuConfig;
use crate::engine::{AuxFeed, Engine};
use crate::error::XatuError;
use crate::eval::EARLY_CREDIT;
use crate::fleet::FleetDetector;
use crate::model::XatuModel;
use crate::pipeline::world_extractor;
use xatu_detectors::alert::{Alert, AlertLog};
use xatu_detectors::fastnetmon::FastNetMon;
use xatu_detectors::netscout::NetScout;
use xatu_detectors::traits::Detector;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
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
    /// booster).
    pub scores: Vec<DetectorScore>,
    /// The alert log each score was computed from, in the order of
    /// `scores`.
    pub alerts: Vec<Vec<Alert>>,
    /// Customers, in world order — the column order of `survivals`.
    pub customers: Vec<Ipv4>,
    /// Per-minute recorded survivals, row-major: for each minute, the
    /// first head's survival per customer. Bit-comparable across thread
    /// counts.
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
            let covered = spans
                .iter()
                .any(|s| s.victim == a.customer && m + EARLY_CREDIT >= s.onset && m < s.end);
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
/// `models` are the trained per-type survival models; the boosters serve
/// at `cfg.threshold`.
///
/// The run is a source → [`Engine`] adaptor: the engine closes each minute
/// of the composed world with one head per model, and FastNetMon rides
/// beside on its volumes.
pub fn run_scenario(
    models: &[(AttackType, XatuModel)],
    cfg: &ScenarioRunConfig,
    family: ScenarioFamily,
) -> Result<ScenarioReport, XatuError> {
    assert!(!models.is_empty(), "scenario runs need at least one model");
    let composed = compose(family, &cfg.world);
    let mut world = composed.world;
    let spans = composed.spans;
    let total_minutes = world.total_minutes();

    let boosters = models
        .iter()
        .map(|(ty, m)| FleetDetector::new(m.clone(), *ty, cfg.threshold, &cfg.xatu))
        .collect();
    let mut engine = Engine::new(
        world.customers(),
        Box::new(NetScout::new()),
        AuxFeed::new(world_extractor(&world, &cfg.xatu)),
        boosters,
        cfg.xatu.threads,
    );
    let customers = engine.customers().to_vec();
    let present = vec![true; customers.len()];
    let mut fnm = FastNetMon::new();
    // NetScout (the engine's CDet), FastNetMon, booster.
    let mut logs: [AlertLog; 3] = Default::default();
    let mut survivals: Vec<f64> = Vec::with_capacity(total_minutes as usize * customers.len());

    while !world.finished() {
        let minute = world.minute();
        let closed = engine.close_bins(minute, &world.step(), &present, true)?;
        for ev in &closed.cdet_events {
            logs[0].apply(ev);
        }
        for &c in &customers {
            for obs in engine.volumes().channels(c, minute) {
                for ev in fnm.observe(&obs) {
                    logs[1].apply(&ev);
                }
            }
        }
        for (_, ev) in &closed.fleet_events {
            logs[2].apply(ev);
        }
        let head = &engine.heads()[0];
        survivals.extend(customers.iter().map(|&c| head.survival_of(c)));
    }
    for (_, ev) in engine.close_all(total_minutes) {
        logs[2].apply(&ev);
    }

    let alerts: Vec<Vec<Alert>> = logs.into_iter().map(|log| log.0).collect();
    let scores = ["netscout", "fastnetmon", "xatu_booster"]
        .into_iter()
        .zip(&alerts)
        .map(|(name, log)| score_alerts(name, log, &spans, total_minutes))
        .collect();
    Ok(ScenarioReport {
        family,
        spans,
        scores,
        alerts,
        customers,
        survivals,
    })
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
        assert_eq!(r1.scores.len(), 3);
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
