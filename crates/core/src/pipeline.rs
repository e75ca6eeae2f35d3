//! The end-to-end Xatu experiment pipeline.
//!
//! Timeline (§5/§6 of the paper, scaled):
//!
//! 1. **Phase A** — stream the whole simulated world once: bin flows,
//!    extract Table 1 features with CDet-fed auxiliary trackers, run the
//!    NetScout-style CDet live, record per-(customer, type) signature
//!    volumes, and collect balanced training samples from the training
//!    period.
//! 2. **Train** — one multi-timescale survival model per attack type with
//!    enough positives, plus the Random-Forest baseline.
//! 3. **Phase B** — re-stream the identical world with CDet events
//!    replayed: warm the online LSTM states, record per-minute Xatu and RF
//!    detection scores over the validation period, and checkpoint the full
//!    stream state at the validation/test boundary.
//! 4. **Calibrate** — pick the score threshold that maximizes median
//!    validation effectiveness subject to the 75th-percentile per-customer
//!    overhead bound (§5.3).
//! 5. **Test** — from the checkpoint, run the stabilization + test periods
//!    with Xatu auto-regressively feeding its own alerts into its A2/A4/A5
//!    trackers (the CDet-fed extractor keeps serving the RF baseline), then
//!    evaluate every system on the post-stabilization window.

use crate::config::XatuConfig;
use crate::dataset::{DatasetBuilder, DatasetBundle, SplitBoundaries};
use crate::engine::AuxFeed;
use crate::eval::{
    alerts_from_score_series, build_ground_truth, evaluate_system, intervals_of, GtEvent,
    SystemAlerts, SystemEval, VolumeStore,
};
use crate::fleet::{FleetDetector, FleetInput};
use crate::model::XatuModel;
use crate::trainer::train_with_obs;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use xatu_detectors::alert::{Alert, AlertLog};
use xatu_detectors::fastnetmon::FastNetMon;
use xatu_detectors::netscout::NetScout;
use xatu_detectors::rf::{RandomForest, RfConfig};
use xatu_detectors::traits::{Detector, DetectorEvent};
use xatu_features::blocklist::BlocklistCategory;
use xatu_features::frame::FeatureFrame;
use xatu_features::pooled_history::{PooledHistory, Timescales};
use xatu_features::table1::FeatureExtractor;
use xatu_metrics::percentile::Summary;
use xatu_metrics::roc::{roc_curve, RocPoint};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_obs::{Registry, Snapshot, StderrSink};
use xatu_par::{par_map, resolve_threads};
use xatu_simnet::{World, WorldConfig};
use xatu_survival::calibrate::{pick_threshold, threshold_grid, CandidateEval, QuantileBound};

/// Top-level experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// The simulated world.
    pub world: WorldConfig,
    /// Model/training knobs.
    pub xatu: XatuConfig,
    /// Scrubbing-overhead bound (e.g. 0.001 = 0.1 %).
    pub overhead_bound: f64,
    /// Per-customer-minute probability of a negative training candidate.
    pub neg_prob: f64,
    /// Train and evaluate the Random-Forest baseline.
    pub with_rf: bool,
    /// Evaluate the FastNetMon-style detector.
    pub with_fnm: bool,
    /// Print progress to stderr.
    pub verbose: bool,
    /// Restricts the A1 blocklist feed to a subset of the 11 categories
    /// (`None` = all enabled) — the Fig 17 sweep knob.
    pub blocklist_categories: Option<BlocklistCategorySet>,
    /// Uses the FastNetMon-style detector as the CDet label source instead
    /// of the NetScout-style one — the Fig 18(a) independence check.
    pub label_with_fnm: bool,
}

/// A bitmask over the 11 blocklist categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlocklistCategorySet(pub u16);

impl BlocklistCategorySet {
    /// Empty set (A1 effectively disabled at the feed level).
    pub const NONE: BlocklistCategorySet = BlocklistCategorySet(0);

    /// True if the category index is enabled.
    pub fn contains_index(self, idx: usize) -> bool {
        (self.0 >> idx) & 1 == 1
    }
}

impl From<&[BlocklistCategory]> for BlocklistCategorySet {
    fn from(cats: &[BlocklistCategory]) -> Self {
        let mut mask = 0u16;
        for c in cats {
            mask |= 1 << c.index();
        }
        BlocklistCategorySet(mask)
    }
}

impl PipelineConfig {
    /// Laptop-scale default (Fig 8/9/10 class experiments).
    pub fn default_eval(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            xatu: XatuConfig {
                seed: seed.wrapping_add(1),
                ..XatuConfig::default()
            },
            overhead_bound: 0.001,
            neg_prob: 1.0e-3,
            with_rf: true,
            with_fnm: true,
            verbose: false,
            blocklist_categories: None,
            label_with_fnm: false,
        }
    }

    /// Small preset for retrain-heavy sweeps.
    pub fn sweep(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::small(seed),
            xatu: XatuConfig {
                seed: seed.wrapping_add(1),
                ..XatuConfig::sweep()
            },
            neg_prob: 1.5e-3,
            ..Self::default_eval(seed)
        }
    }

    /// Minimal preset for retrain-heavy sweeps (Fig 12/13/17/18): one
    /// full pipeline run in about a minute.
    pub fn mini(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::mini(seed),
            xatu: XatuConfig {
                seed: seed.wrapping_add(1),
                ..XatuConfig::mini()
            },
            neg_prob: 2e-3,
            ..Self::default_eval(seed)
        }
    }

    /// Tiny smoke-test preset (CI-sized).
    pub fn smoke_test(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::smoke_test(seed),
            xatu: XatuConfig {
                seed: seed.wrapping_add(1),
                short_len: 30,
                medium_len: 18,
                long_len: 12,
                window: 15,
                hidden: 8,
                epochs: 10,
                min_positives: 2,
                ..XatuConfig::smoke_test()
            },
            overhead_bound: 0.01,
            neg_prob: 2e-3,
            with_rf: false,
            with_fnm: false,
            verbose: false,
            blocklist_categories: None,
            label_with_fnm: false,
        }
    }
}

/// Everything phase A + training + validation produced; test evaluations
/// for different overhead bounds reuse it.
pub struct Prepared {
    cfg: PipelineConfig,
    split: SplitBoundaries,
    volumes: VolumeStore,
    /// Completed NetScout alerts over the full period.
    pub cdet_alerts: Vec<Alert>,
    /// Completed FastNetMon alerts (if enabled).
    pub fnm_alerts: Vec<Alert>,
    /// Ground truth derived from CDet alerts + CUSUM.
    pub ground_truth: Vec<GtEvent>,
    /// Per-type alert counts per period (Table 2).
    pub table2: Table2,
    /// Trained per-type survival models.
    pub models: Vec<(AttackType, XatuModel)>,
    /// Trained per-type RF baselines.
    pub rf_models: Vec<(AttackType, RandomForest)>,
    /// The balanced training bundle (kept for attribution case studies).
    pub bundle: DatasetBundle,
    /// Validation-period score series per system.
    val_scores_xatu: HashMap<(Ipv4, AttackType), Vec<f32>>,
    val_scores_rf: HashMap<(Ipv4, AttackType), Vec<f32>>,
    /// Checkpoint of the stream at the validation/test boundary.
    checkpoint: Checkpoint,
    /// Replayable CDet events by minute.
    cdet_events_by_minute: HashMap<u32, Vec<DetectorEvent>>,
    /// Telemetry frozen at the end of preparation (phases A + train + B).
    /// Each [`Prepared::evaluate`] call records its own run-local registry
    /// and absorbs this into the report's snapshot.
    pub obs: Snapshot,
}

/// Table 2: per-type CDet alert counts per split period.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table2 {
    /// `counts[type][0..3]` = train/validation/test alerts.
    pub counts: [[usize; 3]; 6],
}

/// Stream state frozen at the validation/test boundary.
#[derive(Clone)]
struct Checkpoint {
    world: World,
    /// The CDet-fed auxiliary feed: extractor plus open CDet alerts.
    aux: AuxFeed,
    /// One head per trained type, every customer registered in world order.
    detectors: Vec<FleetDetector>,
    rf_histories: HashMap<Ipv4, PooledHistory>,
}

/// The pipeline driver.
pub struct Pipeline {
    cfg: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(cfg: PipelineConfig) -> Self {
        Pipeline { cfg }
    }

    /// Runs everything end to end at the configured overhead bound.
    pub fn run(self) -> EvalReport {
        let bound = self.cfg.overhead_bound;
        let prepared = self.prepare();
        prepared.evaluate(bound)
    }

    /// Phases A + training + phase-B validation. The result can evaluate
    /// multiple overhead bounds cheaply.
    pub fn prepare(self) -> Prepared {
        let cfg = self.cfg;
        let threads = resolve_threads(cfg.xatu.threads);
        let split = SplitBoundaries::from_days(cfg.world.days);
        let mut obs = pipeline_registry(cfg.verbose);

        // ---------------- Phase A ----------------
        obs.trace(
            "phase",
            &[("name", "A: streaming world with live CDet".into())],
        );
        let phase_a_start = Instant::now();
        let mut world = World::new(cfg.world);
        let mut aux = build_aux(&world, &cfg);
        let mut histories: HashMap<Ipv4, PooledHistory> = HashMap::new();
        let mut volumes = VolumeStore::new(split.total);
        let mut cdet: Box<dyn Detector> = if cfg.label_with_fnm {
            Box::new(FastNetMon::new())
        } else {
            Box::new(NetScout::new())
        };
        let mut dataset = DatasetBuilder::new(&cfg.xatu, cfg.neg_prob);
        let mut cdet_alerts = AlertLog::default();
        let mut cdet_events_by_minute: HashMap<u32, Vec<DetectorEvent>> = HashMap::new();
        let mut alert_minutes: Vec<(Ipv4, u32)> = Vec::new();

        let raw_retain = cfg.xatu.raw_history_minutes() + 32;
        // Trailing per-customer volume EWMA for surge detection (negative
        // sampling must cover benign flash crowds — the volumetric
        // surges *without* auxiliary signals that the model has to learn
        // to ignore).
        let mut volume_ewma: HashMap<Ipv4, f64> = HashMap::new();
        let ts = Timescales {
            short: cfg.xatu.timescales.0,
            medium: cfg.xatu.timescales.1,
            long: cfg.xatu.timescales.2,
        };

        while !world.finished() {
            let bins = world.step();
            let minute = bins[0].minute;
            for bin in &bins {
                volumes.record(bin);
            }
            // CDet observes every (customer, type) signature volume.
            for bin in &bins {
                for obs in volumes.channels(bin.customer, minute) {
                    for ev in cdet.observe(&obs) {
                        cdet_events_by_minute.entry(minute).or_default().push(ev);
                        aux.on_event(&ev, minute, &volumes);
                        cdet_alerts.apply(&ev);
                        if let DetectorEvent::Raised(a) = ev {
                            alert_minutes.push((a.customer, a.detected_at));
                            if minute < split.train_end {
                                let onset = onset_of(&volumes, &a);
                                dataset.on_alert(a.customer, a.attack_type, onset, a.detected_at);
                            }
                        }
                    }
                }
            }
            // Tracker upkeep first (mutates shared per-customer state),
            // then feature extraction fanned out across customers — frames
            // come back in bin order, so the sequential consumption below
            // is identical for every thread count.
            for bin in &bins {
                aux.track(bin, &volumes);
            }
            let frames = aux.extract(threads, &bins);
            obs.add("features.frames_phase_a", frames.len() as u64);
            for (bin, frame) in bins.iter().zip(frames) {
                let total = bin.total_bytes() as f64;
                let ewma = volume_ewma.entry(bin.customer).or_insert(total);
                let surge = total > 4.0 * *ewma + 1e5;
                if !surge {
                    *ewma = 0.98 * *ewma + 0.02 * total;
                }
                if minute < split.train_end {
                    // Hard negatives of two kinds: minutes with live A1/A2
                    // signal (prep probing) and benign volumetric surges
                    // (flash crowds). Both patterns must be abundantly
                    // represented as non-attacks or the model fires on
                    // them; candidates too close to real alerts are
                    // dropped later by the alert-proximity filter.
                    let aux_active = frame.aux_block(1).iter().any(|&v| v > 0.0)
                        || frame.aux_block(2).iter().any(|&v| v > 0.0);
                    dataset.maybe_negative_weighted(
                        bin.customer,
                        minute,
                        if surge {
                            24.0
                        } else if aux_active {
                            8.0
                        } else {
                            1.0
                        },
                    );
                }
                histories
                    .entry(bin.customer)
                    .or_insert_with(|| PooledHistory::new(ts, raw_retain, cfg.xatu.long_len + 8))
                    .push(frame);
            }
            aux.expire(minute);
            dataset.collect_ready(minute, &histories);
        }
        let cdet_alerts = cdet_alerts.0;
        let bundle = dataset.finish(&alert_minutes);
        let ground_truth = build_ground_truth(&cdet_alerts, &volumes);
        let table2 = table2_of(&cdet_alerts, &split);
        record_world_obs(&mut obs, &world);
        obs.record_wall(
            "pipeline.phase_a_seconds",
            phase_a_start.elapsed().as_secs_f64(),
        );
        obs.event(
            "pipeline.phase_a_done",
            vec![
                ("cdet_alerts", cdet_alerts.len().into()),
                ("gt_events", ground_truth.len().into()),
                ("train_positives", bundle.positives.len().into()),
                ("train_negatives", bundle.negatives.len().into()),
            ],
        );

        // ---------------- FastNetMon (offline over stored volumes) -------
        let fnm_alerts = if cfg.with_fnm {
            obs.trace("phase", &[("name", "FastNetMon offline replay".into())]);
            let fnm_start = Instant::now();
            let alerts = run_fnm(&volumes, &world, split.total, threads);
            obs.record_wall("pipeline.fnm_seconds", fnm_start.elapsed().as_secs_f64());
            obs.add("fnm.alerts", alerts.len() as u64);
            alerts
        } else {
            Vec::new()
        };

        // ---------------- Training ----------------
        obs.trace(
            "phase",
            &[("name", "training per-type survival models".into())],
        );
        let train_start = Instant::now();
        let models = train_models(&bundle, &cfg.xatu, &mut obs);
        obs.record_wall(
            "pipeline.train_seconds",
            train_start.elapsed().as_secs_f64(),
        );
        let rf_models = if cfg.with_rf {
            obs.trace("phase", &[("name", "training RF baselines".into())]);
            let rf_start = Instant::now();
            let rf = train_rf_models(&bundle, &cfg.xatu, threads);
            obs.record_wall(
                "pipeline.rf_train_seconds",
                rf_start.elapsed().as_secs_f64(),
            );
            rf
        } else {
            Vec::new()
        };

        // ---------------- Phase B: warm + validation ----------------
        obs.trace(
            "phase",
            &[(
                "name",
                "B: warming online states and scoring validation".into(),
            )],
        );
        let phase_b_start = Instant::now();
        let mut world_b = World::new(cfg.world);
        let mut aux_b = build_aux(&world_b, &cfg);
        let customers = world_b.customers().to_vec();
        let mut detectors: Vec<FleetDetector> = models
            .iter()
            .map(|(ty, m)| {
                let mut d = FleetDetector::new(m.clone(), *ty, 0.0, &cfg.xatu);
                d.set_warmup(u32::MAX); // alerts disabled until the test run
                for &c in &customers {
                    d.add_customer(c);
                }
                d
            })
            .collect();
        let mut rf_histories: HashMap<Ipv4, PooledHistory> = HashMap::new();
        let mut rf_feats: Vec<f64> = Vec::new();
        let mut val_scores_xatu: HashMap<(Ipv4, AttackType), Vec<f32>> = HashMap::new();
        let mut val_scores_rf: HashMap<(Ipv4, AttackType), Vec<f32>> = HashMap::new();

        while world_b.minute() < split.val_end {
            let bins = world_b.step();
            let minute = bins[0].minute;
            replay_cdet_events(&cdet_events_by_minute, minute, &volumes, &mut aux_b);
            for bin in &bins {
                aux_b.track(bin, &volumes);
            }
            let frames = aux_b.extract(threads, &bins);
            obs.add("features.frames_phase_b", frames.len() as u64);
            for det in detectors.iter_mut() {
                step_head(det, minute, threads, &frames);
                if minute >= split.train_end {
                    for &c in &customers {
                        val_scores_xatu
                            .entry((c, det.attack_type()))
                            .or_default()
                            .push(det.survival_of(c) as f32);
                    }
                }
            }
            for (bin, frame) in bins.iter().zip(frames) {
                if cfg.with_rf {
                    let h = rf_histories
                        .entry(bin.customer)
                        .or_insert_with(|| PooledHistory::new(ts, 64, 8));
                    h.push(frame);
                    if minute >= split.train_end {
                        // One feature vector serves every per-type RF: the
                        // features depend only on the history, not the type.
                        rf_online_features_into(h, &mut rf_feats);
                        for (ty, rf) in &rf_models {
                            let score = 1.0 - rf.predict_proba(&rf_feats);
                            val_scores_rf
                                .entry((bin.customer, *ty))
                                .or_default()
                                .push(score as f32);
                        }
                    }
                }
            }
            aux_b.expire(minute);
        }

        obs.record_wall(
            "pipeline.phase_b_seconds",
            phase_b_start.elapsed().as_secs_f64(),
        );
        // Warm-up/validation detector telemetry (alerts are disabled here,
        // so only suppression counts and the survival distribution move).
        for det in &detectors {
            obs.add(
                "online.warmup_suppressed",
                det.obs().warmup_suppressed.get(),
            );
            obs.merge_histogram("online.survival", &det.obs().survival);
        }

        let checkpoint = Checkpoint {
            world: world_b,
            aux: aux_b,
            detectors,
            rf_histories,
        };

        Prepared {
            cfg,
            split,
            volumes,
            cdet_alerts,
            fnm_alerts,
            ground_truth,
            table2,
            models,
            rf_models,
            bundle,
            val_scores_xatu,
            val_scores_rf,
            checkpoint,
            cdet_events_by_minute,
            obs: obs.snapshot(),
        }
    }
}

impl Prepared {
    /// The chronological split in use.
    pub fn split(&self) -> SplitBoundaries {
        self.split
    }

    /// The stored signature-volume series.
    pub fn volumes(&self) -> &VolumeStore {
        &self.volumes
    }

    /// Calibrates thresholds on validation and evaluates the test period at
    /// `bound` for every system.
    pub fn evaluate(&self, bound: f64) -> EvalReport {
        let mut obs = pipeline_registry(self.cfg.verbose);
        let quiet = 5u32;
        let q = QuantileBound {
            quantile: 0.75,
            bound,
        };
        let calibrate_start = Instant::now();
        let gt_val: Vec<GtEvent> = self
            .ground_truth
            .iter()
            .filter(|e| {
                e.cdet_detected >= self.split.train_end && e.cdet_detected < self.split.val_end
            })
            .copied()
            .collect();

        // Per-type calibration: each attack type's model has its own score
        // distribution (UDP survival collapses harder than TCP ACK's), so
        // each gets its own threshold — the paper trains and evaluates the
        // six models independently.
        let xatu_thresholds: Vec<(AttackType, f64)> = self
            .models
            .iter()
            .map(|(ty, _)| {
                let th = self
                    .calibrate(&self.val_scores_xatu, &gt_val, q, quiet, Some(*ty))
                    .unwrap_or(0.002);
                (*ty, th)
            })
            .collect();
        let rf_thresholds: Vec<(AttackType, f64)> = if self.cfg.with_rf {
            self.rf_models
                .iter()
                .map(|(ty, _)| {
                    let th = self
                        .calibrate(&self.val_scores_rf, &gt_val, q, quiet, Some(*ty))
                        .unwrap_or(0.002);
                    (*ty, th)
                })
                .collect()
        } else {
            Vec::new()
        };
        obs.record_wall(
            "pipeline.calibrate_seconds",
            calibrate_start.elapsed().as_secs_f64(),
        );
        for (system, thresholds) in [("xatu", &xatu_thresholds), ("rf", &rf_thresholds)] {
            for (ty, th) in thresholds {
                obs.event(
                    "calibrate.threshold",
                    vec![
                        ("system", system.into()),
                        ("attack_type", format!("{ty:?}").into()),
                        ("threshold", (*th).into()),
                    ],
                );
            }
        }

        // ---------------- Test run (auto-regressive Xatu) ----------------
        let test_start = Instant::now();
        let (xatu_alerts, rf_alerts, test_scores_xatu, test_scores_rf) =
            self.run_test(&xatu_thresholds, &rf_thresholds, quiet, &mut obs);
        obs.record_wall("pipeline.test_seconds", test_start.elapsed().as_secs_f64());

        // ---------------- Evaluate all systems ----------------
        let eval_start = self.split.stabilization_end;
        let eval_end = self.split.total;
        let mut systems = Vec::new();

        let cdet_intervals = intervals_of(&self.cdet_alerts, eval_end);
        systems.push(evaluate_system(
            "NetScout",
            &cdet_intervals,
            &self.ground_truth,
            &self.volumes,
            eval_start,
            eval_end,
        ));
        if self.cfg.with_fnm {
            let fnm_intervals = intervals_of(&self.fnm_alerts, eval_end);
            systems.push(evaluate_system(
                "FastNetMon",
                &fnm_intervals,
                &self.ground_truth,
                &self.volumes,
                eval_start,
                eval_end,
            ));
        }
        if self.cfg.with_rf {
            systems.push(evaluate_system(
                "RF",
                &rf_alerts,
                &self.ground_truth,
                &self.volumes,
                eval_start,
                eval_end,
            ));
        }
        systems.push(evaluate_system(
            "Xatu",
            &xatu_alerts,
            &self.ground_truth,
            &self.volumes,
            eval_start,
            eval_end,
        ));

        // ---------------- ROC over test minutes ----------------
        let mut roc = Vec::new();
        roc.push((
            "Xatu".to_string(),
            self.minute_roc(&test_scores_xatu, eval_start),
        ));
        if self.cfg.with_rf {
            roc.push((
                "RF".to_string(),
                self.minute_roc(&test_scores_rf, eval_start),
            ));
        }

        // The report's snapshot is the prepare-time telemetry plus this
        // run's own recording, stitched in that fixed order.
        let mut snapshot = self.obs.clone();
        snapshot.absorb(&obs.snapshot());

        EvalReport {
            bound,
            xatu_thresholds,
            rf_thresholds,
            systems,
            gt_test: self
                .ground_truth
                .iter()
                .filter(|e| e.cdet_detected >= eval_start && e.cdet_detected < eval_end)
                .copied()
                .collect(),
            table2: self.table2,
            roc,
            obs: snapshot,
        }
    }

    /// Distribution diagnostics of the validation survival scores:
    /// (min, mean, fraction of minutes below 0.5).
    pub fn val_score_stats(&self) -> (f64, f64, f64) {
        let mut min = 1.0f64;
        let mut sum = 0.0f64;
        let mut below = 0usize;
        let mut n = 0usize;
        for series in self.val_scores_xatu.values() {
            for &s in series {
                let s = s as f64;
                min = min.min(s);
                sum += s;
                if s < 0.5 {
                    below += 1;
                }
                n += 1;
            }
        }
        if n == 0 {
            return (1.0, 1.0, 0.0);
        }
        (min, sum / n as f64, below as f64 / n as f64)
    }

    /// Threshold calibration on validation scores (§5.3).
    fn calibrate(
        &self,
        scores: &HashMap<(Ipv4, AttackType), Vec<f32>>,
        gt_val: &[GtEvent],
        q: QuantileBound,
        quiet: u32,
        only_type: Option<AttackType>,
    ) -> Option<f64> {
        let base = self.split.train_end;
        let gt_filtered: Vec<GtEvent> = gt_val
            .iter()
            .filter(|e| only_type.is_none_or(|t| e.attack_type == t))
            .copied()
            .collect();
        // Each candidate threshold is scored independently over the same
        // read-only validation scores, so the sweep fans out across
        // threads; candidates come back in grid order, making
        // `pick_threshold` see the identical list for any thread count.
        let grid = threshold_grid(24);
        let candidates: Vec<CandidateEval> = par_map(
            resolve_threads(self.cfg.xatu.threads),
            &grid,
            |_, &threshold| {
                let mut alerts: SystemAlerts = HashMap::new();
                for (&key, series) in scores {
                    if only_type.is_some_and(|t| key.1 != t) {
                        continue;
                    }
                    let intervals = alerts_from_score_series(series, base, threshold, quiet);
                    if !intervals.is_empty() {
                        alerts.insert(key, intervals);
                    }
                }
                // The scrubbing centre releases clean traffic during
                // validation exactly as it will during testing.
                self.apply_scrub_release(&mut alerts);
                let eval = evaluate_system(
                    "cand",
                    &alerts,
                    &gt_filtered,
                    &self.volumes,
                    base,
                    self.split.val_end,
                );
                let eff = Summary::p10_50_90(&eval.effectiveness_values());
                CandidateEval {
                    threshold,
                    objective: if eff.median.is_nan() { 0.0 } else { eff.median },
                    per_customer_cost: eval.overhead.ratios(),
                }
            },
        );
        pick_threshold(&candidates, q)
    }

    /// Streams the stabilization + test periods from the checkpoint with
    /// live thresholds; returns alert intervals and per-minute scores.
    #[allow(clippy::type_complexity)]
    fn run_test(
        &self,
        xatu_thresholds: &[(AttackType, f64)],
        rf_thresholds: &[(AttackType, f64)],
        quiet: u32,
        obs: &mut Registry,
    ) -> (
        SystemAlerts,
        SystemAlerts,
        HashMap<(Ipv4, AttackType), Vec<f32>>,
        HashMap<(Ipv4, AttackType), Vec<f32>>,
    ) {
        let cfg = &self.cfg;
        // These checkpoint clones are load-bearing, not waste:
        // [`Prepared::evaluate`] runs once per overhead bound over the same
        // `Prepared`, so every test run must fork the frozen stream state
        // rather than consume it.
        let mut world = self.checkpoint.world.clone();
        // Fork the extractor: CDet-fed for RF, Xatu-fed for Xatu (§5.3:
        // "for stabilization and testing periods, we rely on Xatu's
        // detection to extract these features").
        let mut aux_cdet = self.checkpoint.aux.clone();
        let mut aux_xatu = AuxFeed::new(aux_cdet.extractor().clone());
        let mut detectors = self.checkpoint.detectors.clone();
        for d in detectors.iter_mut() {
            let th = xatu_thresholds
                .iter()
                .find(|(ty, _)| *ty == d.attack_type())
                .map_or(0.002, |(_, th)| *th);
            d.set_threshold(th);
            d.set_warmup(0);
            // Fresh recording scope: phase-B observations were already
            // folded into the prepare-time snapshot.
            d.reset_obs();
        }
        let mut rf_histories = self.checkpoint.rf_histories.clone();

        let ts = Timescales {
            short: cfg.xatu.timescales.0,
            medium: cfg.xatu.timescales.1,
            long: cfg.xatu.timescales.2,
        };
        let mut xatu_alert_list = AlertLog::default();
        let mut test_scores_xatu: HashMap<(Ipv4, AttackType), Vec<f32>> = HashMap::new();
        let mut test_scores_rf: HashMap<(Ipv4, AttackType), Vec<f32>> = HashMap::new();
        let mut rf_feats: Vec<f64> = Vec::new();
        let threads = resolve_threads(cfg.xatu.threads);
        let customers = world.customers().to_vec();

        while !world.finished() {
            let bins = world.step();
            let minute = bins[0].minute;
            replay_cdet_events(
                &self.cdet_events_by_minute,
                minute,
                &self.volumes,
                &mut aux_cdet,
            );
            // During the stabilization prefix the Xatu-fed extractor also
            // receives the CDet feed: the paper's stabilization period
            // exists to let the auto-regressive feature state settle
            // before metrics are taken; afterwards Xatu is on its own.
            if minute < self.split.stabilization_end {
                replay_cdet_events(
                    &self.cdet_events_by_minute,
                    minute,
                    &self.volumes,
                    &mut aux_xatu,
                );
            }
            // Tracker upkeep for both extractor forks, then one extraction
            // fan-out per fork; frames return in bin order so the
            // sequential consumption below matches every thread count.
            if cfg.with_rf {
                for bin in &bins {
                    aux_cdet.track(bin, &self.volumes);
                }
            }
            for bin in &bins {
                aux_xatu.track_gated(bin, &self.volumes);
            }
            let frames_cdet = if cfg.with_rf {
                aux_cdet.extract(threads, &bins)
            } else {
                Vec::new()
            };
            let frames_xatu = aux_xatu.extract(threads, &bins);
            let mut frames_cdet = frames_cdet.into_iter();
            for (bin, frame_xatu) in bins.iter().zip(&frames_xatu) {
                // --- CDet-fed side: RF baseline. ---
                if cfg.with_rf {
                    let frame_cdet = frames_cdet.next().expect("one CDet frame per bin");
                    let h = rf_histories
                        .entry(bin.customer)
                        .or_insert_with(|| PooledHistory::new(ts, 64, 8));
                    h.push(frame_cdet);
                    // One feature vector serves every per-type RF.
                    rf_online_features_into(h, &mut rf_feats);
                    for (ty, rf) in &self.rf_models {
                        let score = 1.0 - rf.predict_proba(&rf_feats);
                        test_scores_rf
                            .entry((bin.customer, *ty))
                            .or_default()
                            .push(score as f32);
                    }
                }

                // --- Xatu-fed side: frame divergence. ---
                if cfg.verbose && cfg.with_rf {
                    // Frame-divergence diagnostic during ground-truth
                    // attacks (only when the CDet-fed frame exists).
                    let in_attack = self.ground_truth.iter().any(|e| {
                        e.customer == bin.customer
                            && minute >= e.anomaly_start
                            && minute < e.mitigation_end
                            && e.cdet_detected >= self.split.stabilization_end
                    });
                    if in_attack {
                        let sum = |v: &[f64]| v.iter().sum::<f64>();
                        obs.trace(
                            "frame.divergence",
                            &[
                                ("customer", bin.customer.to_string().into()),
                                ("minute", minute.into()),
                                ("volumetric", sum(frame_xatu.volumetric()).into()),
                                ("a1", sum(frame_xatu.aux_block(1)).into()),
                                ("a2", sum(frame_xatu.aux_block(2)).into()),
                                ("a4", sum(frame_xatu.aux_block(4)).into()),
                            ],
                        );
                    }
                }
            }
            // --- Xatu-fed side: auto-regressive detection, one head per
            // type; its alerts feed the Xatu-fed trackers. ---
            for det in detectors.iter_mut() {
                for ev in step_head(det, minute, threads, &frames_xatu) {
                    aux_xatu.on_event(ev, minute, &self.volumes);
                    xatu_alert_list.apply(ev);
                }
                for &c in &customers {
                    test_scores_xatu
                        .entry((c, det.attack_type()))
                        .or_default()
                        .push(det.survival_of(c) as f32);
                }
            }
            aux_cdet.expire(minute);
            aux_xatu.expire(minute);
        }
        for det in detectors.iter_mut() {
            for ev in det.close_all(self.split.total) {
                xatu_alert_list.apply(&ev);
            }
        }
        let xatu_alert_list = xatu_alert_list.0;
        // Detector lifecycle telemetry from this run, stitched in detector
        // (model) order. `close_all` ends are included in `alerts_ended`.
        for det in &detectors {
            let d = det.obs();
            obs.add("online.alerts_raised", d.raised.get());
            obs.add("online.alerts_ended", d.ended.get());
            obs.add("online.alerts_force_ended", d.force_ended.get());
            obs.add("online.warmup_suppressed", d.warmup_suppressed.get());
            obs.merge_histogram("online.survival", &d.survival);
        }

        if cfg.verbose {
            let min_s = test_scores_xatu
                .values()
                .flat_map(|v| v.iter())
                .fold(1.0f32, |a, &b| a.min(b));
            obs.trace(
                "test.summary",
                &[
                    ("xatu_alerts", xatu_alert_list.len().into()),
                    ("min_survival", f64::from(min_s).into()),
                ],
            );
            for a in xatu_alert_list.iter().take(60) {
                obs.trace(
                    "test.alert",
                    &[
                        ("attack_type", format!("{:?}", a.attack_type).into()),
                        ("customer", a.customer.to_string().into()),
                        ("detected_at", a.detected_at.into()),
                        ("mitigation_end", format!("{:?}", a.mitigation_end).into()),
                    ],
                );
            }
            for e in self
                .ground_truth
                .iter()
                .filter(|e| e.cdet_detected >= self.split.stabilization_end)
            {
                // Min survival of the matching model around this event.
                let min_s = test_scores_xatu
                    .get(&(e.customer, e.attack_type))
                    .map(|series| {
                        let base = self.split.val_end;
                        let from = e.anomaly_start.saturating_sub(15).saturating_sub(base) as usize;
                        let to = ((e.mitigation_end - base) as usize).min(series.len());
                        series[from.min(to)..to]
                            .iter()
                            .fold(1.0f32, |a, &b| a.min(b))
                    })
                    .unwrap_or(9.9);
                obs.trace(
                    "test.gt_event",
                    &[
                        ("attack_type", format!("{:?}", e.attack_type).into()),
                        ("customer", e.customer.to_string().into()),
                        ("onset", e.anomaly_start.into()),
                        ("detected", e.cdet_detected.into()),
                        ("mitigation_end", e.mitigation_end.into()),
                        ("min_survival", f64::from(min_s).into()),
                    ],
                );
            }
        }
        let mut xatu_alerts = intervals_of(&xatu_alert_list, self.split.total);
        self.apply_scrub_release(&mut xatu_alerts);
        // RF alerts from its score series.
        let mut rf_alerts: SystemAlerts = HashMap::new();
        if cfg.with_rf {
            for (&key, series) in &test_scores_rf {
                let th = rf_thresholds
                    .iter()
                    .find(|(ty, _)| *ty == key.1)
                    .map_or(0.002, |(_, th)| *th);
                let intervals = alerts_from_score_series(series, self.split.val_end, th, quiet);
                if !intervals.is_empty() {
                    rf_alerts.insert(key, intervals);
                }
            }
            self.apply_scrub_release(&mut rf_alerts);
        }
        (xatu_alerts, rf_alerts, test_scores_xatu, test_scores_rf)
    }

    /// The scrubbing centre's release behaviour (§2.1: once traffic runs
    /// clean, customers are told to stop diverting): each scrub interval
    /// is truncated after `SCRUB_QUIET` consecutive minutes without
    /// anomalous signature volume once any anomalous minute was scrubbed,
    /// or after `SCRUB_GRACE` minutes if none ever appears. This bounds
    /// the cost of false and too-early alerts exactly the way a real
    /// CScrub deployment does.
    fn apply_scrub_release(&self, alerts: &mut SystemAlerts) {
        const SCRUB_QUIET: u32 = 5;
        const SCRUB_GRACE: u32 = 15;
        for (&(customer, ty), intervals) in alerts.iter_mut() {
            for iv in intervals.iter_mut() {
                let (start, end) = *iv;
                let mut saw_anomalous = false;
                let mut quiet_run = 0u32;
                let mut release = end;
                for m in start..end {
                    if self.volumes.is_anomalous(customer, ty, m) {
                        saw_anomalous = true;
                        quiet_run = 0;
                    } else {
                        quiet_run += 1;
                    }
                    if saw_anomalous && quiet_run >= SCRUB_QUIET {
                        release = m + 1;
                        break;
                    }
                    if !saw_anomalous && m - start + 1 >= SCRUB_GRACE {
                        release = m + 1;
                        break;
                    }
                }
                iv.1 = release;
            }
            intervals.retain(|&(s, t)| t > s);
        }
    }

    /// Minute-level ROC over the post-stabilization test period.
    fn minute_roc(
        &self,
        scores: &HashMap<(Ipv4, AttackType), Vec<f32>>,
        eval_start: u32,
    ) -> Vec<RocPoint> {
        let base = self.split.val_end;
        let mut samples: Vec<(f64, bool)> = Vec::new();
        for (&(cust, ty), series) in scores {
            let spans: Vec<(u32, u32)> = self
                .ground_truth
                .iter()
                .filter(|e| e.customer == cust && e.attack_type == ty)
                .map(|e| (e.anomaly_start, e.mitigation_end))
                .collect();
            for (i, &s) in series.iter().enumerate() {
                let minute = base + i as u32;
                if minute < eval_start {
                    continue;
                }
                let label = spans.iter().any(|&(a, b)| minute >= a && minute < b);
                // Higher score = more attack-like for the ROC convention.
                samples.push((1.0 - s as f64, label));
            }
        }
        roc_curve(&samples)
    }
}

/// One full evaluation at a given overhead bound.
pub struct EvalReport {
    /// The overhead bound used for calibration.
    pub bound: f64,
    /// Calibrated per-type Xatu survival thresholds.
    pub xatu_thresholds: Vec<(AttackType, f64)>,
    /// Calibrated per-type RF score thresholds.
    pub rf_thresholds: Vec<(AttackType, f64)>,
    /// Per-system evaluations (NetScout, FastNetMon?, RF?, Xatu).
    pub systems: Vec<SystemEval>,
    /// Ground-truth events inside the reported test window.
    pub gt_test: Vec<GtEvent>,
    /// Table 2 counts.
    pub table2: Table2,
    /// ROC curves per ML system.
    pub roc: Vec<(String, Vec<RocPoint>)>,
    /// Stitched telemetry: preparation plus this evaluation run. The
    /// digest covers only the deterministic sections, so it is identical
    /// for every thread count.
    pub obs: Snapshot,
}

impl EvalReport {
    /// The evaluation of one system by name.
    pub fn system(&self, name: &str) -> Option<&SystemEval> {
        self.systems.iter().find(|s| s.name == name)
    }

    /// The telemetry snapshot as JSON, digest first ([`Snapshot::to_json`]).
    /// Floats round-trip bit-exactly.
    pub fn telemetry_json(&self) -> String {
        self.obs.to_json()
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "overhead bound {:.3}% | {} ground-truth test events\n",
            100.0 * self.bound,
            self.gt_test.len()
        ));
        for s in &self.systems {
            let eff = Summary::p10_50_90(&s.effectiveness_values());
            let delay = s.delay.summary();
            let ovh = s.overhead.summary();
            out.push_str(&format!(
                "{:>10}: eff med {:5.1}% [{:5.1}, {:5.1}] | delay med {:+5.1} min | ovh p75 {:.4} | detected {}/{}\n",
                s.name,
                100.0 * eff.median,
                100.0 * eff.lo,
                100.0 * eff.hi,
                delay.median,
                ovh.hi,
                s.detected,
                s.delay.total(),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Helpers shared by the phases.
// ---------------------------------------------------------------------

/// The registry for one recording scope: verbose runs stream events and
/// traces to stderr, quiet runs record silently.
fn pipeline_registry(verbose: bool) -> Registry {
    if verbose {
        Registry::with_sink(Arc::new(StderrSink { prefix: "pipeline" }))
    } else {
        Registry::new()
    }
}

/// Folds the world's generation counters into the registry. Every one is a
/// pure function of the seeded config, hence digest-safe.
fn record_world_obs(obs: &mut Registry, world: &World) {
    let w = world.obs();
    obs.add("simnet.minutes_stepped", w.minutes_stepped.get());
    obs.add("simnet.flows_generated", w.flows_generated.get());
    obs.add(
        "simnet.attack_flows_generated",
        w.attack_flows_generated.get(),
    );
    obs.add("simnet.flows_emitted", w.flows_emitted.get());
    obs.add("simnet.attacks_scheduled", world.attacks_scheduled() as u64);
    obs.add(
        "netflow.double_sample_rejects",
        world.sampler_double_sample_rejects(),
    );
}

/// A feature extractor loaded with `world`'s blocklist feed and routed
/// prefixes, under `xatu`'s ablation mask: the auxiliary state every
/// simulated stream (this pipeline, [`crate::faulted`],
/// [`crate::scenarios`]) hands its [`AuxFeed`].
pub fn world_extractor(world: &World, xatu: &XatuConfig) -> FeatureExtractor {
    let mut ex = FeatureExtractor::new();
    for (cat, subnet) in world.blocklist_feed() {
        ex.blocklists.add(BlocklistCategory::ALL[cat], subnet);
    }
    for (prefix, asn) in world.routed_prefixes() {
        ex.spoof.announce(prefix, asn);
    }
    ex.spoof.build();
    ex.mask = xatu.feature_mask;
    ex
}

/// The auxiliary feed of one pipeline phase: the world's extractor with the
/// Fig 17 blocklist-category restriction applied.
fn build_aux(world: &World, cfg: &PipelineConfig) -> AuxFeed {
    let mut ex = world_extractor(world, &cfg.xatu);
    if let Some(set) = cfg.blocklist_categories {
        for (i, cat) in BlocklistCategory::ALL.iter().enumerate() {
            ex.blocklists.set_enabled(*cat, set.contains_index(i));
        }
    }
    AuxFeed::new(ex)
}

/// Steps one head through `minute` on the frames [`AuxFeed::extract`]
/// returned for [`World::step`]'s bins: bin `i` is customer `i`, the order
/// the heads registered the world's customers in.
fn step_head<'a>(
    head: &'a mut FleetDetector,
    minute: u32,
    threads: usize,
    frames: &[FeatureFrame],
) -> &'a [DetectorEvent] {
    head.step_minute_batch(minute, threads, |i, _, buf| {
        buf.copy_from_slice(&frames[i].0);
        FleetInput::Frame
    })
    // Every customer is driven every minute with a full-width frame, so a
    // rejected minute can only be a pipeline bug.
    .expect("pipeline feeds monotone minutes")
}

/// CUSUM onset for an alert from the stored volumes.
fn onset_of(volumes: &VolumeStore, alert: &Alert) -> u32 {
    let lookback = alert.detected_at.saturating_sub(180);
    let series = volumes.bytes_range(
        alert.customer,
        alert.attack_type,
        lookback,
        alert.detected_at + 1,
    );
    xatu_detectors::cusum::mark_anomaly_start(
        &series,
        lookback,
        alert.detected_at,
        alert.attack_type,
    )
}

/// Replays the CDet events phase A recorded for `minute` into a feed.
fn replay_cdet_events(
    events: &HashMap<u32, Vec<DetectorEvent>>,
    minute: u32,
    volumes: &VolumeStore,
    aux: &mut AuxFeed,
) {
    for ev in events.get(&minute).into_iter().flatten() {
        aux.on_event(ev, minute, volumes);
    }
}

/// Trains the per-type survival models. Sequential over types on purpose:
/// [`train_with_obs`] is internally data-parallel over each minibatch, so
/// nesting a per-type fan-out on top would oversubscribe the cores —
/// and the sequential type order keeps the shared registry's epoch-event
/// stream deterministic.
fn train_models(
    bundle: &DatasetBundle,
    cfg: &XatuConfig,
    obs: &mut Registry,
) -> Vec<(AttackType, XatuModel)> {
    bundle
        .trainable_types(cfg.min_positives)
        .into_iter()
        .map(|ty| {
            let samples = bundle.for_type(ty);
            obs.event(
                "train.model",
                vec![
                    ("attack_type", format!("{ty:?}").into()),
                    ("samples", samples.len().into()),
                ],
            );
            let mut model = XatuModel::new(cfg);
            // Samples come from the dataset builder, which constructs them
            // consistent by design; a validation failure is a builder bug.
            train_with_obs(&mut model, &samples, cfg, obs).expect("builder emits valid samples");
            (ty, model)
        })
        .collect()
}

/// RF instance features at window step `t` (0-based): the current minute
/// frame plus the latest medium/long representations — "the same feature
/// set from the same three timescales".
fn rf_sample_features(s: &crate::sample::Sample, t: usize) -> Vec<f64> {
    let mut out: Vec<f64> = s.window[t].iter().map(|&v| v as f64).collect();
    let dim = out.len();
    let med: Vec<f64> = if t >= 10 {
        mean_frames(&s.window[t - 10..t])
    } else {
        s.medium
            .last()
            .map(|f| f.iter().map(|&v| v as f64).collect())
            .unwrap_or_else(|| vec![0.0; dim])
    };
    let long: Vec<f64> = s
        .long
        .last()
        .map(|f| f.iter().map(|&v| v as f64).collect())
        .unwrap_or_else(|| vec![0.0; dim]);
    out.extend(med);
    out.extend(long);
    out
}

fn mean_frames(frames: &[Vec<f32>]) -> Vec<f64> {
    let dim = frames[0].len();
    let mut acc = vec![0.0f64; dim];
    for f in frames {
        for (a, &v) in acc.iter_mut().zip(f) {
            *a += v as f64;
        }
    }
    let inv = 1.0 / frames.len() as f64;
    acc.iter_mut().for_each(|v| *v *= inv);
    acc
}

/// RF online features from a pooled history: latest raw frame + latest
/// medium and long representations, written into a caller-held buffer so
/// the per-customer-minute loops never re-allocate it. The callers invoke
/// it once per customer-minute (outside the per-type loop).
fn rf_online_features_into(h: &PooledHistory, out: &mut Vec<f64>) {
    let dim = xatu_features::frame::NUM_FEATURES;
    out.clear();
    out.reserve(3 * dim);
    match h.latest() {
        Some(f) => out.extend_from_slice(&f.0),
        None => out.resize(dim, 0.0),
    }
    match h.medium_tail(1).pop() {
        Some(med) => out.extend_from_slice(&med),
        None => out.resize(2 * dim, 0.0),
    }
    match h.long_tail(1).pop() {
        Some(long) => out.extend_from_slice(&long),
        None => out.resize(3 * dim, 0.0),
    }
}

/// Trains the per-type RF baselines on instance-expanded samples. Each
/// type's forest grows from its own seeded RNG, so the per-type fan-out is
/// deterministic regardless of thread count.
fn train_rf_models(
    bundle: &DatasetBundle,
    cfg: &XatuConfig,
    threads: usize,
) -> Vec<(AttackType, RandomForest)> {
    let types = bundle.trainable_types(cfg.min_positives);
    par_map(threads, &types, |_, &ty| {
        let samples = bundle.for_type(ty);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for s in &samples {
            if s.label {
                let onset = s.anomaly_step.unwrap_or(s.event_step).max(1);
                for t in onset - 1..s.event_step {
                    xs.push(rf_sample_features(s, t));
                    ys.push(true);
                }
                // Early-window steps are pre-attack: negatives.
                if onset > 2 {
                    xs.push(rf_sample_features(s, 0));
                    ys.push(false);
                }
            } else {
                xs.push(rf_sample_features(s, s.window.len() - 1));
                ys.push(false);
                xs.push(rf_sample_features(s, s.window.len() / 2));
                ys.push(false);
            }
        }
        let rf = RandomForest::train(
            &xs,
            &ys,
            RfConfig {
                n_trees: 40,
                max_depth: 10,
                seed: cfg.seed,
                ..RfConfig::default()
            },
        );
        (ty, rf)
    })
}

/// Runs the FastNetMon-style detector over the stored volume series.
/// The detector's cells are keyed by (customer, type) with no cross-
/// customer state, so the per-customer streams fan out across threads;
/// per-customer logs are stitched back in `world.customers()` order.
fn run_fnm(volumes: &VolumeStore, world: &World, total: u32, threads: usize) -> Vec<Alert> {
    let logs = par_map(threads, world.customers(), |_, &customer| {
        let mut fnm = FastNetMon::new();
        let mut log = AlertLog::default();
        for minute in 0..total {
            for obs in volumes.channels(customer, minute) {
                for ev in fnm.observe(&obs) {
                    log.apply(&ev);
                }
            }
        }
        log.0
    });
    logs.into_iter().flatten().collect()
}

/// Table 2 counts from the CDet alert stream.
fn table2_of(alerts: &[Alert], split: &SplitBoundaries) -> Table2 {
    let mut t = Table2::default();
    for a in alerts {
        let col = if a.detected_at < split.train_end {
            0
        } else if a.detected_at < split.val_end {
            1
        } else {
            2
        };
        t.counts[a.attack_type.index()][col] += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pipeline_end_to_end() {
        let report = Pipeline::new(PipelineConfig::smoke_test(5)).run();
        assert!(report.system("NetScout").is_some());
        let xatu = report.system("Xatu").expect("xatu evaluated");
        for v in xatu.effectiveness_values() {
            assert!((0.0..=1.0).contains(&v));
        }
        // In a world this tiny (≤4 positives per type) the calibrator may
        // legitimately pick very conservative thresholds; the smoke test
        // validates mechanics, not learning quality.
        for (_, th) in &report.xatu_thresholds {
            assert!((0.0..1.0).contains(th));
        }
        assert!(report.summary().contains("Xatu"));
        if xatu_obs::enabled() {
            assert!(report.obs.counter("simnet.flows_emitted") > 0);
            assert!(report.obs.counter("features.frames_phase_a") > 0);
            assert!(report.obs.counter("features.frames_phase_b") > 0);
            assert_eq!(
                report.obs.counter("online.alerts_raised"),
                report.obs.counter("online.alerts_ended")
            );
            let json = report.telemetry_json();
            assert!(json.contains("\"digest\""));
            assert!(json.contains(&format!("{:016x}", report.obs.digest())));
        }
    }

    #[test]
    fn table2_counts_sum_to_alert_count() {
        let prepared = Pipeline::new(PipelineConfig::smoke_test(6)).prepare();
        let total: usize = prepared.table2.counts.iter().flat_map(|r| r.iter()).sum();
        assert_eq!(total, prepared.cdet_alerts.len());
    }

    /// FNV-1a over what the detectors produced: the validation survival
    /// series, sorted by (customer, type), then, per report, the
    /// test-period Xatu alert intervals at that report's thresholds.
    fn detections_digest(prepared: &Prepared, reports: &[&EvalReport]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let sorted = |mut keys: Vec<(Ipv4, AttackType)>| {
            keys.sort_unstable_by_key(|&(c, ty)| (c, ty.index()));
            keys
        };
        let scores = &prepared.val_scores_xatu;
        for key in sorted(scores.keys().copied().collect()) {
            fold(&key.0 .0.to_le_bytes());
            fold(&[key.1.index() as u8]);
            for s in &scores[&key] {
                fold(&s.to_bits().to_le_bytes());
            }
        }
        for r in reports {
            let (alerts, ..) = prepared.run_test(
                &r.xatu_thresholds,
                &r.rf_thresholds,
                5,
                &mut Registry::new(),
            );
            for key in sorted(alerts.keys().copied().collect()) {
                fold(&key.0 .0.to_le_bytes());
                fold(&[key.1.index() as u8]);
                for &(start, end) in &alerts[&key] {
                    fold(&start.to_le_bytes());
                    fold(&end.to_le_bytes());
                }
            }
        }
        h
    }

    /// [`detections_digest`] of the seed-9 smoke pipeline at bounds 0.05
    /// and 0.0005.
    const DETECTIONS_DIGEST: u64 = 0xad7a_54ed_2768_9f48;

    /// Seed 9 trains a model and raises test-period alerts, so the
    /// detections digest covers real survivals and real alerts.
    #[test]
    fn prepared_supports_multiple_bounds() {
        let prepared = Pipeline::new(PipelineConfig::smoke_test(9)).prepare();
        assert!(!prepared.models.is_empty(), "seed 9 trains a model");
        let a = prepared.evaluate(0.05);
        let b = prepared.evaluate(0.0005);
        // A looser bound admits thresholds at least as aggressive.
        for ((ty_a, th_a), (ty_b, th_b)) in a.xatu_thresholds.iter().zip(&b.xatu_thresholds) {
            assert_eq!(ty_a, ty_b);
            assert!(*th_a >= th_b - 1e-12);
        }
        let digest = detections_digest(&prepared, &[&a, &b]);
        assert_eq!(
            digest, DETECTIONS_DIGEST,
            "validation survivals or test alerts moved (digest is {digest:#018x})"
        );
    }
}
