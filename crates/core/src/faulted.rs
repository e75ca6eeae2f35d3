//! Fault-injected streaming: drives a detector head against a
//! [`FaultedWorld`] with graceful degradation and crash-safe
//! checkpoint/resume.
//!
//! This is the robustness harness the clean pipeline deliberately lacks.
//! The clean [`crate::pipeline`] assumes a perfect collector: every
//! customer, every minute, every flow. This driver assumes the opposite —
//! a [`FaultSchedule`] suppresses bins, duplicates and delays flows,
//! renegotiates sampling rates and takes the CDet alert feed down — and
//! checks that the detector *degrades* instead of breaking:
//!
//! * Absent customer-minutes are driven as [`crate::fleet::FleetInput::Gap`] the minute
//!   they happen, so staleness handling runs on wall-clock time.
//! * While the CDet alert feed has been silent longer than
//!   [`crate::engine::CDET_SILENCE_LIMIT`], extracted frames fall back to
//!   their volumetric block — auxiliary trackers frozen by the dead feed
//!   must not be served as live evidence.
//! * The run can checkpoint the detector at a chosen minute (atomic,
//!   checksummed — see [`crate::checkpoint`]), simulate a crash, and
//!   resume bit-identically: the world and the whole [`Engine`] (volume
//!   store, CDet, trackers) are deterministic functions of the seed and
//!   are fast-forwarded by closing the same minutes again without a head;
//!   only the detector state is restored from disk.
//!
//! The driver is a source → [`Engine`] adaptor, like
//! [`crate::scenarios::run_scenario`]: the engine closes each
//! [`xatu_simnet::MinuteDelivery`] with one [`FleetDetector`] head, which
//! rides in it from the start — or, on resume, from the minute after the
//! checkpoint ([`Engine::add_head`]). To keep resume exact the engine's
//! trackers are fed CDet events only — Xatu's own alerts are not
//! auto-regressed (the clean pipeline's test phase does that): the
//! extractor's evolution must depend only on the seeded world and CDet,
//! never on the detector being fast-forwarded past.

use crate::checkpoint::{load_detector, save_detector};
use crate::config::XatuConfig;
use crate::engine::{AuxFeed, Engine};
use crate::error::XatuError;
use crate::fleet::FleetDetector;
use crate::fusion::Companion;
use crate::model::XatuModel;
use crate::pipeline::world_extractor;
use std::path::Path;
use xatu_detectors::alert::{Alert, AlertLog};
use xatu_detectors::netscout::NetScout;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_simnet::{FaultSchedule, FaultedWorld, World, WorldConfig};

/// Configuration of one fault-injected run.
#[derive(Clone, Debug)]
pub struct FaultedRunConfig {
    /// The simulated world (drives customers, attacks, blocklists).
    pub world: WorldConfig,
    /// Model/streaming knobs (timescales, window, threads).
    pub xatu: XatuConfig,
    /// The fault schedule layered over the world's flow stream.
    pub schedule: FaultSchedule,
    /// Optional unsupervised companion attached to the detector. While the
    /// feed is degraded the companion scores the customers instead of the
    /// volumetric-only survival; while it is lit, and with `None`, the run
    /// is the companion-free run bit for bit.
    pub companion: Option<Companion>,
}

impl FaultedRunConfig {
    /// Smoke-scale config with the given fault schedule.
    pub fn smoke_test(seed: u64, schedule: FaultSchedule) -> Self {
        let world = WorldConfig::smoke_test(seed);
        FaultedRunConfig {
            world,
            xatu: XatuConfig {
                seed: seed.wrapping_add(1),
                ..XatuConfig::smoke_test()
            },
            schedule,
            companion: None,
        }
    }
}

/// Crash-safety control for [`run_faulted`].
#[derive(Clone, Copy, Debug)]
pub enum RunControl<'a> {
    /// Run start to finish.
    Full,
    /// Save a detector checkpoint after processing `minute`; with `kill`
    /// set, abandon the run right after saving (simulating a crash — the
    /// partial report is what a dead process would leave behind).
    CheckpointAt {
        /// Minute after which to checkpoint.
        minute: u32,
        /// Checkpoint file.
        path: &'a Path,
        /// Abandon the run after saving.
        kill: bool,
    },
    /// Load the detector from `path` and fast-forward the deterministic
    /// world/extractor/CDet state past the checkpointed minute; scores are
    /// recorded only for the resumed tail. A checkpoint whose newest
    /// minute is at or past the world's last minute leaves no tail and is
    /// refused with [`XatuError::CheckpointMismatch`].
    ResumeFrom {
        /// Checkpoint file written by a previous `CheckpointAt`.
        path: &'a Path,
    },
}

/// Fault-injection counters, denormalized from the live counters so the
/// report is plain data (all zero when the `obs` feature is off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Customer-minute bins suppressed by outages/gaps.
    pub bins_suppressed: u64,
    /// Flows duplicated in delivery.
    pub flows_duplicated: u64,
    /// Flows held back for late delivery.
    pub flows_delayed: u64,
    /// Held-back flows that did arrive (late).
    pub flows_delivered_late: u64,
    /// Held-back flows lost entirely.
    pub flows_lost_late: u64,
    /// Flows removed by sampling renegotiation.
    pub flows_thinned_away: u64,
    /// Minutes with the CDet alert feed down.
    pub cdet_down_minutes: u64,
    /// Missing minutes the detector imputed.
    pub gaps_imputed: u64,
    /// Non-finite feature values sanitized.
    pub values_sanitized: u64,
    /// Customer states cold-restarted.
    pub cold_restarts: u64,
    /// Minutes served volumetric-only because the CDet feed was silent.
    pub degraded_feature_minutes: u64,
    /// Dark onsets with a companion attached: the companion starts voting.
    pub fusion_engaged: u64,
    /// Recoveries with a companion attached: the solo survival is reported
    /// again.
    pub fusion_recovered: u64,
    /// Customer-minutes whose reported survival was the companion's.
    pub fusion_ae_minutes: u64,
}

/// What one fault-injected run produced.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Customers, in world order — the column order of `survivals`.
    pub customers: Vec<Ipv4>,
    /// First minute with recorded scores (0 for full runs, the minute
    /// after the checkpoint for resumed runs).
    pub first_minute: u32,
    /// Minutes actually recorded (rows of `survivals`).
    pub minutes_recorded: u32,
    /// Reported survival per recorded minute × customer, row-major.
    /// Bit-comparable across runs: resume must reproduce these exactly.
    pub survivals: Vec<f64>,
    /// Xatu alerts over the recorded span (ends filled in when observed).
    pub alerts: Vec<Alert>,
    /// CDet alerts that got through the (possibly down) feed.
    pub cdet_alerts: Vec<Alert>,
    /// Fault-injection counters.
    pub counts: FaultCounts,
}

impl FaultReport {
    /// True when no recorded value is NaN/∞ — the degradation contract.
    pub fn all_finite(&self) -> bool {
        self.survivals.iter().all(|v| v.is_finite())
    }
}

/// Streams the faulted world through the feature extractor and detector.
///
/// `model` is the (already trained, or deliberately untrained) survival
/// model; the detector serves `attack_type` at `threshold`. Returns the
/// per-minute score record plus fault accounting. See [`RunControl`] for
/// the checkpoint/kill/resume modes.
pub fn run_faulted(
    model: XatuModel,
    attack_type: AttackType,
    threshold: f64,
    cfg: &FaultedRunConfig,
    control: RunControl<'_>,
) -> Result<FaultReport, XatuError> {
    let world = World::new(cfg.world);
    let total_minutes = world.total_minutes();

    // Resume: restore the detector; the engine replays the deterministic
    // parts of the stream (world, volumes, CDet, trackers) up to and
    // including the checkpointed minute without it.
    let (mut det, resume_after) = match control {
        RunControl::ResumeFrom { path } => {
            let ck = load_detector(path)?;
            let det = FleetDetector::from_checkpoint(&ck)
                .map_err(|e| XatuError::corrupt(path, e.to_string()))?;
            let minute = ck
                .customers
                .iter()
                .filter_map(|c| c.last_minute)
                .max()
                .ok_or_else(|| {
                    XatuError::corrupt(path, "checkpoint has no driven customers to resume from")
                })?;
            let last = total_minutes.saturating_sub(1);
            if minute >= last {
                return Err(XatuError::CheckpointMismatch {
                    path: path.display().to_string(),
                    reason: format!(
                        "its newest minute {minute} is at or past the world's last minute {last}"
                    ),
                });
            }
            (det, Some(minute))
        }
        _ => {
            let mut det = FleetDetector::new(model, attack_type, threshold, &cfg.xatu);
            det.set_warmup(2 * cfg.xatu.window as u32);
            (det, None)
        }
    };
    if let Some(comp) = &cfg.companion {
        // Companion state is not checkpointed: a resumed head's rings
        // re-warm over the resumed tail.
        det.set_companion(comp.clone());
    }
    let (heads, mut parked) = match resume_after {
        None => (vec![det], None),
        Some(_) => (Vec::new(), Some(det)),
    };
    let mut engine = Engine::new(
        world.customers(),
        Box::new(NetScout::new()),
        AuxFeed::new(world_extractor(&world, &cfg.xatu)),
        heads,
        cfg.xatu.threads,
    );
    let customers: Vec<Ipv4> = engine.customers().to_vec();
    // `MinuteDelivery::present` is indexed in world order, the engine's
    // `present` by ascending address.
    assert_eq!(
        customers,
        world.customers(),
        "customer addresses ascend with the index"
    );
    let mut cdet_alerts = AlertLog::default();
    let mut fw = FaultedWorld::new(world, cfg.schedule.clone());
    let first_minute = resume_after.map_or(0, |m| m + 1);
    let rows = (total_minutes - first_minute) as usize;
    let mut survivals: Vec<f64> = Vec::with_capacity(rows * customers.len());
    let mut alerts = AlertLog::default();
    let mut degraded_feature_minutes = 0u64;
    let mut minutes_recorded = 0u32;
    let mut killed = false;

    while !fw.finished() {
        let delivery = fw.step();
        let minute = delivery.minute;
        let closed =
            engine.close_bins(minute, &delivery.bins, &delivery.present, delivery.cdet_up)?;
        for ev in &closed.cdet_events {
            cdet_alerts.apply(ev);
        }
        if minute < first_minute {
            if minute + 1 == first_minute {
                // The fast-forward has closed the checkpointed minute.
                engine.add_head(parked.take().expect("one restored head"));
            }
            continue;
        }

        degraded_feature_minutes += u64::from(closed.degraded);
        for (_, ev) in &closed.fleet_events {
            alerts.apply(ev);
        }
        let det = &mut engine.heads_mut()[0];
        survivals.extend(customers.iter().map(|&c| det.survival_of(c)));
        minutes_recorded += 1;

        if let RunControl::CheckpointAt {
            minute: at,
            path,
            kill,
        } = control
        {
            if minute == at {
                save_detector(path, &det.to_checkpoint())?;
                if kill {
                    // Simulated crash: whatever was recorded so far is the
                    // dead process's legacy; the checkpoint is on disk.
                    killed = true;
                    break;
                }
            }
        }
    }

    if !killed {
        for (_, ev) in engine.close_all(total_minutes) {
            alerts.apply(&ev);
        }
    }
    let f = fw.obs();
    let d = engine.heads()[0].obs();
    Ok(FaultReport {
        customers,
        first_minute,
        minutes_recorded,
        survivals,
        alerts: alerts.0,
        cdet_alerts: cdet_alerts.0,
        counts: FaultCounts {
            bins_suppressed: f.bins_suppressed.get(),
            flows_duplicated: f.flows_duplicated.get(),
            flows_delayed: f.flows_delayed.get(),
            flows_delivered_late: f.flows_delivered_late.get(),
            flows_lost_late: f.flows_lost_late.get(),
            flows_thinned_away: f.flows_thinned_away.get(),
            cdet_down_minutes: f.cdet_down_minutes.get(),
            gaps_imputed: d.gaps_imputed.get(),
            values_sanitized: d.values_sanitized.get(),
            cold_restarts: d.cold_restarts.get(),
            degraded_feature_minutes,
            fusion_engaged: d.fusion_engaged.get(),
            fusion_recovered: d.fusion_recovered.get(),
            fusion_ae_minutes: d.fusion_ae_minutes.get(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xatu_faulted_{}_{name}", std::process::id()));
        p
    }

    fn run(schedule: FaultSchedule, control: RunControl<'_>) -> FaultReport {
        let cfg = FaultedRunConfig::smoke_test(7, schedule);
        let model = XatuModel::new(&cfg.xatu);
        run_faulted(model, AttackType::UdpFlood, 0.5, &cfg, control).expect("run")
    }

    #[test]
    fn clean_schedule_records_every_minute() {
        let cfg = FaultedRunConfig::smoke_test(7, FaultSchedule::clean());
        let total = World::new(cfg.world).total_minutes();
        let report = run(FaultSchedule::clean(), RunControl::Full);
        assert_eq!(report.first_minute, 0);
        assert_eq!(report.minutes_recorded, total);
        assert!(report.all_finite());
        assert_eq!(report.counts, FaultCounts::default());
    }

    #[test]
    fn everything_schedule_degrades_without_breaking() {
        let cfg = FaultedRunConfig::smoke_test(7, FaultSchedule::clean());
        let total = World::new(cfg.world).total_minutes();
        let n = World::new(cfg.world).customers().len();
        let schedule = FaultSchedule::builtin("everything", total, n).unwrap();
        let report = run(schedule, RunControl::Full);
        assert_eq!(report.minutes_recorded, total);
        assert!(report.all_finite());
        if xatu_obs::enabled() {
            assert!(report.counts.bins_suppressed > 0, "{:?}", report.counts);
            assert!(report.counts.gaps_imputed > 0, "{:?}", report.counts);
        }
    }

    #[test]
    fn checkpoint_kill_resume_is_bit_identical() {
        let cfg = FaultedRunConfig::smoke_test(7, FaultSchedule::clean());
        let total = World::new(cfg.world).total_minutes();
        let n = World::new(cfg.world).customers().len();
        let schedule = FaultSchedule::builtin("dup_late", total, n).unwrap();
        let at = total / 2;
        let path = tmp("kill_resume");
        let _ = std::fs::remove_file(&path);

        let full = run(schedule.clone(), RunControl::Full);
        let killed = run(
            schedule.clone(),
            RunControl::CheckpointAt {
                minute: at,
                path: &path,
                kill: true,
            },
        );
        assert_eq!(killed.minutes_recorded, at + 1);
        let resumed = run(schedule, RunControl::ResumeFrom { path: &path });
        assert_eq!(resumed.first_minute, at + 1);
        assert_eq!(resumed.minutes_recorded, total - at - 1);
        // The resumed tail reproduces the uninterrupted run bit for bit.
        let tail_start = (at + 1) as usize * full.customers.len();
        assert_eq!(full.survivals.len() - tail_start, resumed.survivals.len());
        for (i, (a, b)) in full.survivals[tail_start..]
            .iter()
            .zip(&resumed.survivals)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "survival {i} diverged");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
