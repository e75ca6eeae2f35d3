//! The end-to-end Xatu experiment pipeline.
//!
//! Timeline (§5/§6 of the paper, scaled). Every period is a run of
//! [`Engine::close_bins`], the minute-close the engine serves:
//!
//! 1. **Phase A** — stream the simulated world through a head-less engine
//!    until the training set is complete ([`training_horizon`]): its live
//!    CDet (NetScout-style, or FastNetMon-style for
//!    [`PipelineConfig::label_with_fnm`]) schedules the positives, and its
//!    CDet-fed frames feed negative sampling and the training histories.
//! 2. **Train** — one multi-timescale survival model per attack type with
//!    enough positives, plus the Random-Forest baseline.
//! 3. **Phase B** — the one CDet-fed pass over the whole world: one
//!    engine with a head per trained type (alerts off) and the same live
//!    CDet. Its alerts label the world (ground truth, Table 2), its
//!    signature volumes are kept for evaluation and the FastNetMon replay,
//!    and it scores the RF baseline once, from the end of training to the
//!    end of the world. Up to the validation/test boundary it warms the
//!    online LSTM states and records per-minute Xatu scores; there the
//!    engine is cloned for the test runs and its heads dropped.
//! 4. **Calibrate** — pick the score threshold that maximizes median
//!    validation effectiveness subject to the 75th-percentile per-customer
//!    overhead bound (§5.3).
//! 5. **Test** — from a clone of that engine, self-fed from the end of
//!    stabilization ([`Engine::self_feed_from`]), run the stabilization +
//!    test periods with Xatu auto-regressively feeding its own alerts into
//!    its A2/A4/A5 trackers, then evaluate every system on the
//!    post-stabilization window. The RF baseline's alerts come from the
//!    scores phase B stored.

use crate::config::XatuConfig;
use crate::dataset::{training_horizon, DatasetBuilder, DatasetBundle, SplitBoundaries};
use crate::engine::{AuxFeed, Engine, MinuteClose};
use crate::eval::{
    build_ground_truth, evaluate_system, intervals_of, GtEvent, SystemAlerts, SystemEval,
    VolumeStore,
};
use crate::fleet::FleetDetector;
use crate::lifecycle::{alerts_from_score_series, scrub_release};
use crate::model::{pool_completed_into, read_pos, ModelConfig, XatuModel, TIMESCALES};
use crate::sample::WideSample;
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
use xatu_features::frame::NUM_FEATURES;
use xatu_features::pooled_history::PooledHistory;
use xatu_features::table1::FeatureExtractor;
use xatu_metrics::percentile::Summary;
use xatu_metrics::roc::{roc_curve, RocPoint};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_netflow::binning::MinuteFlows;
use xatu_nn::FrameArena;
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

/// Everything phase A, training and phase B produced; test evaluations for
/// different overhead bounds reuse it.
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
    val_scores_xatu: Scores,
    val_scores_rf: Scores,
    /// Test-period RF scores: CDet-fed, so the same at every bound.
    test_scores_rf: Scores,
    /// Checkpoint of the stream at the validation/test boundary.
    checkpoint: Checkpoint,
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

/// Per-minute detection scores, one series per (customer, attack type).
type Scores = HashMap<(Ipv4, AttackType), Vec<f32>>;

/// Stream state frozen at the validation/test boundary.
struct Checkpoint {
    world: World,
    /// The CDet-fed phase-B engine, one head per trained type in model
    /// order.
    engine: Engine,
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

    /// Phase A, training, and phase B over the whole world. The result can
    /// evaluate multiple overhead bounds cheaply.
    pub fn prepare(self) -> Prepared {
        let cfg = self.cfg;
        let threads = resolve_threads(cfg.xatu.threads);
        let split = SplitBoundaries::from_days(cfg.world.days);
        let mut obs = pipeline_registry(cfg.verbose);

        let horizon = training_horizon(&cfg.xatu, split.train_end);
        let bundle = phase_a(&cfg, &split, horizon, &mut obs);

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

        // ---------------- Phase B: the one CDet-fed pass ----------------
        obs.trace(
            "phase",
            &[(
                "name",
                "B: streaming world with live CDet, warming and scoring validation".into(),
            )],
        );
        let phase_b_start = Instant::now();
        let mut world = World::new(cfg.world);
        let heads = models
            .iter()
            .map(|(ty, m)| {
                let mut head = FleetDetector::new(m.clone(), *ty, 0.0, &cfg.xatu);
                head.set_warmup(u32::MAX); // alerts disabled until the test run
                head
            })
            .collect();
        let mut engine = world_engine(&world, &cfg, heads);
        let gran = ModelConfig::from(&cfg.xatu).gran();
        let mut cdet_alerts = AlertLog::default();
        let mut rf_histories: HashMap<Ipv4, PooledHistory> = HashMap::new();
        let mut rf_feats: Vec<f64> = Vec::new();
        let mut val_scores_xatu = Scores::new();
        let mut val_scores_rf = Scores::new();
        let mut test_scores_rf = Scores::new();
        let mut checkpoint = None;

        while !world.finished() {
            if world.minute() == split.val_end {
                // Warm-up/validation detector telemetry (alerts are
                // disabled here, so only suppression counts and the
                // survival distribution move).
                for head in engine.heads() {
                    obs.add(
                        "online.warmup_suppressed",
                        head.obs().warmup_suppressed.get(),
                    );
                    obs.merge_histogram("online.survival", &head.obs().survival);
                }
                checkpoint = Some(Checkpoint {
                    world: world.clone(),
                    engine: engine.clone(),
                });
                // The test runs step the heads; the rest of this pass
                // only labels the world and scores the RF.
                engine = engine.without_heads();
            }
            let bins = world.step();
            let minute = bins[0].minute;
            let closed = close(&mut engine, &bins);
            obs.add("features.frames_phase_b", closed.frames.len() as u64);
            for ev in &closed.cdet_events {
                cdet_alerts.apply(ev);
            }
            let scoring = minute >= split.train_end;
            if scoring {
                push_survivals(&engine, &mut val_scores_xatu);
            }
            if cfg.with_rf {
                let rf_scores = if minute < split.val_end {
                    &mut val_scores_rf
                } else {
                    &mut test_scores_rf
                };
                for (&customer, frame) in engine.customers().iter().zip(closed.frames) {
                    let h = rf_histories
                        .entry(customer)
                        .or_insert_with(|| PooledHistory::new(gran, 64, 8));
                    h.push(frame.expect("every customer is present"));
                    if scoring {
                        // One feature vector serves every per-type RF: the
                        // features depend only on the history, not the type.
                        rf_online_features_into(h, &mut rf_feats);
                        for (ty, rf) in &rf_models {
                            let score = 1.0 - rf.predict_proba(&rf_feats);
                            rf_scores
                                .entry((customer, *ty))
                                .or_default()
                                .push(score as f32);
                        }
                    }
                }
            }
        }
        let checkpoint = checkpoint.expect("the test period is not empty");
        let volumes = engine.into_volumes();
        let cdet_alerts = cdet_alerts.0;
        let ground_truth = build_ground_truth(&cdet_alerts, &volumes);
        let table2 = table2_of(&cdet_alerts, &split);
        record_world_obs(&mut obs, &world);
        obs.record_wall(
            "pipeline.phase_b_seconds",
            phase_b_start.elapsed().as_secs_f64(),
        );
        obs.event(
            "pipeline.phase_b_done",
            vec![
                ("cdet_alerts", cdet_alerts.len().into()),
                ("gt_events", ground_truth.len().into()),
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
            test_scores_rf,
            checkpoint,
            obs: obs.snapshot(),
        }
    }
}

/// Phase A: streams `cfg`'s world through a head-less, CDet-fed engine from
/// minute 0 until `stop` (or the world's end) and returns the training set.
/// The CDet's alerts before `split.train_end` schedule the positives, each
/// onset read off the volumes as they stand at detection; frames before it
/// draw the negatives; every alert seen feeds the alert-proximity filter.
fn phase_a(
    cfg: &PipelineConfig,
    split: &SplitBoundaries,
    stop: u32,
    obs: &mut Registry,
) -> DatasetBundle {
    obs.trace(
        "phase",
        &[(
            "name",
            "A: streaming the training period with live CDet".into(),
        )],
    );
    let phase_a_start = Instant::now();
    let mut world = World::new(cfg.world);
    let mut engine = world_engine(&world, cfg, Vec::new());
    let mut histories: HashMap<Ipv4, PooledHistory> = HashMap::new();
    let mut dataset = DatasetBuilder::new(&cfg.xatu, cfg.neg_prob);
    let mut alert_minutes: Vec<(Ipv4, u32)> = Vec::new();

    let raw_retain = cfg.xatu.raw_history_minutes() + 32;
    // Trailing per-customer volume EWMA for surge detection (negative
    // sampling must cover benign flash crowds — the volumetric surges
    // *without* auxiliary signals that the model has to learn to ignore).
    let mut volume_ewma: HashMap<Ipv4, f64> = HashMap::new();
    let gran = ModelConfig::from(&cfg.xatu).gran();

    while !world.finished() && world.minute() < stop {
        let bins = world.step();
        let minute = bins[0].minute;
        let closed = close(&mut engine, &bins);
        for ev in &closed.cdet_events {
            if let DetectorEvent::Raised(a) = ev {
                alert_minutes.push((a.customer, a.detected_at));
                if minute < split.train_end {
                    let onset = onset_of(engine.volumes(), a);
                    dataset.on_alert(a.customer, a.attack_type, onset, a.detected_at);
                }
            }
        }
        obs.add("features.frames_phase_a", closed.frames.len() as u64);
        for (bin, frame) in bins.iter().zip(closed.frames) {
            let frame = frame.expect("every customer is present");
            let total = bin.total_bytes() as f64;
            let ewma = volume_ewma.entry(bin.customer).or_insert(total);
            let surge = total > 4.0 * *ewma + 1e5;
            if !surge {
                *ewma = 0.98 * *ewma + 0.02 * total;
            }
            if minute < split.train_end {
                // Hard negatives of two kinds: minutes with live A1/A2
                // signal (prep probing) and benign volumetric surges (flash
                // crowds). Both patterns must be abundantly represented as
                // non-attacks or the model fires on them; candidates too
                // close to real alerts are dropped later by the
                // alert-proximity filter.
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
                .or_insert_with(|| PooledHistory::new(gran, raw_retain, cfg.xatu.long_len + 8))
                .push(frame);
        }
        dataset.collect_ready(minute, &histories);
    }
    let bundle = dataset.finish(&alert_minutes);
    obs.record_wall(
        "pipeline.phase_a_seconds",
        phase_a_start.elapsed().as_secs_f64(),
    );
    obs.event(
        "pipeline.phase_a_done",
        vec![
            ("train_positives", bundle.positives.len().into()),
            ("train_negatives", bundle.negatives.len().into()),
        ],
    );
    bundle
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
        // six models independently. Without the RF there are no RF models.
        let calibrate = |scores, &ty| {
            let (th, outcome) = self.calibrate(scores, &gt_val, q, ty);
            ((ty, th), (ty, outcome))
        };
        let (xatu_thresholds, xatu_calibration): (Vec<_>, Vec<_>) = self
            .models
            .iter()
            .map(|(ty, _)| calibrate(&self.val_scores_xatu, ty))
            .unzip();
        let (rf_thresholds, rf_calibration): (Vec<_>, Vec<_>) = self
            .rf_models
            .iter()
            .map(|(ty, _)| calibrate(&self.val_scores_rf, ty))
            .unzip();
        obs.record_wall(
            "pipeline.calibrate_seconds",
            calibrate_start.elapsed().as_secs_f64(),
        );
        for (system, thresholds, outcomes) in [
            ("xatu", &xatu_thresholds, &xatu_calibration),
            ("rf", &rf_thresholds, &rf_calibration),
        ] {
            for ((ty, th), (_, outcome)) in thresholds.iter().zip(outcomes) {
                obs.event(
                    "calibrate.threshold",
                    vec![
                        ("system", system.into()),
                        ("attack_type", format!("{ty:?}").into()),
                        ("threshold", (*th).into()),
                        ("outcome", outcome.name().into()),
                    ],
                );
            }
        }

        // ---------------- Test run (auto-regressive Xatu) ----------------
        let test_start = Instant::now();
        let (mut xatu_alerts, test_scores_xatu, _) = self.run_test(&xatu_thresholds, &mut obs);
        obs.record_wall("pipeline.test_seconds", test_start.elapsed().as_secs_f64());
        scrub_release(&mut xatu_alerts, &self.volumes);
        // The RF's test scores are CDet-fed, stored by phase B.
        let rf_alerts = self.score_alerts(&self.test_scores_rf, self.split.val_end, &rf_thresholds);

        // ---------------- Evaluate all systems ----------------
        // Xatu and the RF are released by the scrubbing centre; NetScout and
        // FastNetMon are scored as they alert ([`crate::lifecycle`] says why).
        let (eval_start, eval_end) = (self.split.stabilization_end, self.split.total);
        let mut scored = vec![("NetScout", intervals_of(&self.cdet_alerts, eval_end))];
        if self.cfg.with_fnm {
            scored.push(("FastNetMon", intervals_of(&self.fnm_alerts, eval_end)));
        }
        if self.cfg.with_rf {
            scored.push(("RF", rf_alerts));
        }
        scored.push(("Xatu", xatu_alerts));
        let (gt, volumes) = (&self.ground_truth, &self.volumes);
        let systems = scored
            .iter()
            .map(|(name, alerts)| evaluate_system(name, alerts, gt, volumes, eval_start, eval_end))
            .collect();

        // ---------------- ROC over test minutes ----------------
        let mut roc = Vec::new();
        roc.push((
            "Xatu".to_string(),
            self.minute_roc(&test_scores_xatu, eval_start),
        ));
        if self.cfg.with_rf {
            roc.push((
                "RF".to_string(),
                self.minute_roc(&self.test_scores_rf, eval_start),
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
            xatu_calibration,
            rf_calibration,
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

    /// Threshold calibration of `ty` on validation scores (§5.3): the
    /// threshold it is served at, and how that was reached ([`settle`]).
    fn calibrate(
        &self,
        scores: &Scores,
        gt_val: &[GtEvent],
        q: QuantileBound,
        ty: AttackType,
    ) -> (f64, Calibration) {
        let base = self.split.train_end;
        let gt_filtered: Vec<GtEvent> = gt_val
            .iter()
            .filter(|e| e.attack_type == ty)
            .copied()
            .collect();
        let grid = threshold_grid(24);
        if gt_filtered.is_empty() {
            return settle(0, &grid, &[], q);
        }
        // Each candidate threshold is scored independently over the same
        // read-only validation scores, so the sweep fans out across
        // threads; candidates come back in grid order, making
        // `pick_threshold` see the identical list for any thread count.
        let candidates: Vec<CandidateEval> = par_map(
            resolve_threads(self.cfg.xatu.threads),
            &grid,
            |_, &threshold| {
                // The scrubbing centre releases clean traffic during
                // validation exactly as it will during testing.
                let alerts = self.score_alerts(scores, base, &[(ty, threshold)]);
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
        settle(gt_filtered.len(), &grid, &candidates, q)
    }

    /// Streams the stabilization + test periods from the checkpoint with
    /// live thresholds; returns Xatu's alert intervals as the heads served
    /// them (before the scrubbing centre's release), its per-minute
    /// survivals, and the engine as the run left it.
    fn run_test(
        &self,
        xatu_thresholds: &[(AttackType, f64)],
        obs: &mut Registry,
    ) -> (SystemAlerts, Scores, Engine) {
        // These checkpoint clones are load-bearing, not waste:
        // [`Prepared::evaluate`] runs once per overhead bound over the same
        // `Prepared`, and the test run is auto-regressive, so every run
        // forks the frozen stream state rather than consume it.
        let mut world = self.checkpoint.world.clone();
        // §5.3: "for stabilization and testing periods, we rely on Xatu's
        // detection to extract these features". The CDet keeps feeding
        // Xatu's trackers through the stabilization prefix, which exists
        // to let the auto-regressive feature state settle before metrics
        // are taken; afterwards Xatu is on its own.
        let mut engine = self.checkpoint.engine.clone();
        engine.self_feed_from(self.split.stabilization_end);
        for (head, &(ty, th)) in engine.heads_mut().iter_mut().zip(xatu_thresholds) {
            debug_assert_eq!(head.attack_type(), ty, "thresholds come in model order");
            head.set_threshold(th);
            head.set_warmup(0);
            // Fresh recording scope: phase-B observations were already
            // folded into the prepare-time snapshot.
            head.reset_obs();
        }

        let mut xatu_alert_list = AlertLog::default();
        let mut test_scores_xatu = Scores::new();

        while !world.finished() {
            let bins = world.step();
            let closed = close(&mut engine, &bins);
            for (_, ev) in &closed.fleet_events {
                xatu_alert_list.apply(ev);
            }
            push_survivals(&engine, &mut test_scores_xatu);
        }
        for (_, ev) in engine.close_all(self.split.total) {
            xatu_alert_list.apply(&ev);
        }
        // Detector lifecycle telemetry from this run, stitched in head
        // (model) order. `close_all` ends are included in `alerts_ended`.
        for head in engine.heads() {
            let d = head.obs();
            obs.add("online.alerts_raised", d.raised.get());
            obs.add("online.alerts_ended", d.ended.get());
            obs.add("online.alerts_force_ended", d.force_ended.get());
            obs.add("online.warmup_suppressed", d.warmup_suppressed.get());
            obs.merge_histogram("online.survival", &d.survival);
        }

        let xatu_alerts = intervals_of(&xatu_alert_list.0, self.split.total);
        (xatu_alerts, test_scores_xatu, engine)
    }

    /// Alert intervals of every series in `scores` whose type has a
    /// threshold in `thresholds`, each series starting at minute `base`,
    /// released by the scrubbing centre ([`scrub_release`]).
    fn score_alerts(
        &self,
        scores: &Scores,
        base: u32,
        thresholds: &[(AttackType, f64)],
    ) -> SystemAlerts {
        let mut alerts = SystemAlerts::new();
        for (&key, series) in scores {
            if let Some(&(_, th)) = thresholds.iter().find(|(ty, _)| *ty == key.1) {
                let intervals = alerts_from_score_series(series, base, th);
                if !intervals.is_empty() {
                    alerts.insert(key, intervals);
                }
            }
        }
        scrub_release(&mut alerts, &self.volumes);
        alerts
    }

    /// Minute-level ROC over the post-stabilization test period.
    fn minute_roc(&self, scores: &Scores, eval_start: u32) -> Vec<RocPoint> {
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
    /// How each Xatu threshold was reached, in `xatu_thresholds` order.
    pub xatu_calibration: Vec<(AttackType, Calibration)>,
    /// How each RF threshold was reached, in `rf_thresholds` order.
    pub rf_calibration: Vec<(AttackType, Calibration)>,
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
        for (system, thresholds, outcomes) in [
            ("Xatu", &self.xatu_thresholds, &self.xatu_calibration),
            ("RF", &self.rf_thresholds, &self.rf_calibration),
        ] {
            if !thresholds.is_empty() {
                let served = served_thresholds(thresholds, outcomes);
                out.push_str(&format!("{system:>10} thresholds: {served}\n"));
            }
        }
        out
    }
}

/// One system's served thresholds, `"<type> <threshold> <outcome>"` per
/// type in model order, comma-separated: what [`EvalReport::summary`] and
/// the figures print beside a bound.
pub fn served_thresholds(
    thresholds: &[(AttackType, f64)],
    outcomes: &[(AttackType, Calibration)],
) -> String {
    let types: Vec<String> = thresholds
        .iter()
        .zip(outcomes)
        .map(|((ty, th), (_, outcome))| format!("{ty:?} {th:.3e} {}", outcome.name()))
        .collect();
    types.join(", ")
}

/// How a type's threshold was set on validation (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Calibration {
    /// The best grid threshold whose p75 validation overhead is within the
    /// bound.
    Calibrated,
    /// No grid threshold keeps p75 validation overhead within the bound:
    /// served at the tightest threshold of the grid, not at the bound.
    Infeasible,
    /// No validation event of the type to score a threshold by: served at
    /// the tightest threshold of the grid.
    Unscored,
    /// The best feasible threshold mitigates no validation event
    /// (objective 0), or has no customer to cost it: validation cannot
    /// tell the thresholds apart, so the type is served at the tightest
    /// threshold of the grid.
    Degenerate,
}

impl Calibration {
    /// Stable lower-case label for summaries and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Calibration::Calibrated => "calibrated",
            Calibration::Infeasible => "infeasible",
            Calibration::Unscored => "unscored",
            Calibration::Degenerate => "degenerate",
        }
    }
}

/// The threshold one type is served at, from its validation sweep over
/// `grid` (ascending) against `events` validation events: the best
/// feasible candidate, or — when there is none, nothing to score by, or
/// nothing that tells the candidates apart — the grid's tightest
/// threshold, which alerts least.
fn settle(
    events: usize,
    grid: &[f64],
    candidates: &[CandidateEval],
    q: QuantileBound,
) -> (f64, Calibration) {
    if events == 0 {
        return (grid[0], Calibration::Unscored);
    }
    let Some(th) = pick_threshold(candidates, q) else {
        return (grid[0], Calibration::Infeasible);
    };
    let informative = candidates
        .iter()
        .any(|c| c.threshold == th && c.objective != 0.0 && !c.per_customer_cost.is_empty());
    if informative {
        (th, Calibration::Calibrated)
    } else {
        (grid[0], Calibration::Degenerate)
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

/// The engine of one pipeline phase over `world`'s customers: `cfg`'s
/// labelling CDet feeding the world's extractor, with the Fig 17
/// blocklist-category restriction applied, and `heads` stepped on it.
fn world_engine(world: &World, cfg: &PipelineConfig, heads: Vec<FleetDetector>) -> Engine {
    let mut ex = world_extractor(world, &cfg.xatu);
    if let Some(set) = cfg.blocklist_categories {
        for (i, cat) in BlocklistCategory::ALL.iter().enumerate() {
            ex.blocklists.set_enabled(*cat, set.contains_index(i));
        }
    }
    let cdet: Box<dyn Detector> = if cfg.label_with_fnm {
        Box::new(FastNetMon::new())
    } else {
        Box::new(NetScout::new())
    };
    Engine::new(
        world.customers(),
        cdet,
        AuxFeed::new(ex),
        heads,
        cfg.xatu.threads,
    )
}

/// Closes the minute of `bins`, one per customer as [`World::step`] hands
/// them over: every customer present, the CDet feed up.
fn close(engine: &mut Engine, bins: &[MinuteFlows]) -> MinuteClose {
    let present = vec![true; bins.len()];
    engine
        .close_bins(bins[0].minute, bins, &present, true)
        // Every customer is driven every minute, each minute once, so a
        // rejected minute can only be a pipeline bug.
        .expect("pipeline feeds monotone minutes")
}

/// Appends each head's survival of each customer, as of the minute just
/// closed, to its (customer, type) series.
fn push_survivals(engine: &Engine, scores: &mut Scores) {
    for head in engine.heads() {
        for &c in engine.customers() {
            scores
                .entry((c, head.attack_type()))
                .or_default()
                .push(head.survival_of(c) as f32);
        }
    }
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

/// RF instance features at window step `t` (0-based): the minute's frame
/// plus the medium and long buckets the model reads at that step, which
/// are the last ones the schedule has completed by minute
/// `window_start + t` — what [`rf_online_features_into`] reads there:
/// "the same feature set from the same three timescales".
fn rf_sample_features(s: &WideSample, gran: [u32; TIMESCALES], t: usize) -> Vec<f64> {
    let mut out = s.minutes.frame(s.lead + t).to_vec();
    let mut buckets = FrameArena::new(0);
    for (&g, ctx) in gran.iter().zip(&s.ctx).skip(1) {
        let lead = (s.window_start % g) as usize;
        pool_completed_into(&s.minutes, s.lead - lead, g, &mut buckets);
        match read_pos(ctx.len(), lead, t, g) {
            Some(p) if p < ctx.len() => out.extend_from_slice(ctx.frame(p)),
            Some(p) => out.extend_from_slice(buckets.frame(p - ctx.len())),
            None => out.resize(out.len() + NUM_FEATURES, 0.0),
        }
    }
    out
}

/// RF online features from a pooled history: the latest raw frame and
/// the last completed medium and long buckets (zeros before the first),
/// written into a caller-held buffer so the per-customer-minute loops
/// never re-allocate it. The callers invoke it once per customer-minute
/// (outside the per-type loop).
fn rf_online_features_into(h: &PooledHistory, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(TIMESCALES * NUM_FEATURES);
    match h.latest() {
        Some(f) => out.extend_from_slice(&f.0),
        None => out.resize(NUM_FEATURES, 0.0),
    }
    let now = h.minutes_seen() as u32;
    for i in 1..TIMESCALES {
        match h.tail_before(i, now, 1).and_then(|mut b| b.pop()) {
            Some(bucket) => out.extend_from_slice(&bucket),
            None => out.resize(out.len() + NUM_FEATURES, 0.0),
        }
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
    let gran = ModelConfig::from(cfg).gran();
    par_map(threads, &types, |_, &ty| {
        let samples = bundle.for_type(ty);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for s in &samples {
            let wide = WideSample::from_sample(s);
            let features = |t| rf_sample_features(&wide, gran, t);
            if s.label {
                let onset = s.anomaly_step.unwrap_or(s.event_step).max(1);
                for t in onset - 1..s.event_step {
                    xs.push(features(t));
                    ys.push(true);
                }
                // Early-window steps are pre-attack: negatives.
                if onset > 2 {
                    xs.push(features(0));
                    ys.push(false);
                }
            } else {
                xs.push(features(s.window.len() - 1));
                ys.push(false);
                xs.push(features(s.window.len() / 2));
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
    use xatu_features::frame::FeatureFrame;

    /// The RF trains on what it is served. On a gap-free stream from
    /// minute 0, with the window at every offset from the long edge, the
    /// features `rf_sample_features` gives a `snapshot`-cut sample at
    /// window step `t` equal the ones `rf_online_features_into` gives at
    /// minute `window_start + t`: the minute's frame and the last medium
    /// and long buckets completed by then. The stream's values are exact
    /// in `f32`, and a context bucket the sample stored as `f32` is
    /// compared as one.
    #[test]
    fn rf_training_features_equal_the_served_ones() {
        for (g0, g1, g2) in [(1, 10, 60), (1, 3, 6)] {
            let gran = [g0, g1, g2];
            let c = XatuConfig {
                timescales: (g0, g1, g2),
                short_len: 4,
                medium_len: 2,
                long_len: 2,
                window: 2 * g1 as usize + 5,
                ..XatuConfig::smoke_test()
            };
            let minutes = 2 * g2 + c.window as u32;
            let mut history = PooledHistory::new(gran, minutes as usize, minutes as usize);
            let mut rf_history = PooledHistory::new(gran, 64, 8);
            let mut served = Vec::new();
            let mut feats = Vec::new();
            for m in 0..minutes as usize {
                let mut f = vec![0.0; NUM_FEATURES];
                for k in 0..5 {
                    f[(m * 29 + k * 53) % NUM_FEATURES] = ((m * 7 + k * 3) % 11) as f64 * 0.25;
                }
                history.push(FeatureFrame(f.clone()));
                rf_history.push(FeatureFrame(f));
                rf_online_features_into(&rf_history, &mut feats);
                served.push(feats.clone());
            }
            let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<_>>();
            for ws in g2..2 * g2 {
                let what = format!("{gran:?}, window at {ws}");
                let s = crate::dataset::snapshot(&c, &history, Ipv4(1), ws).expect(&what);
                let wide = WideSample::from_sample(&s);
                for t in 0..c.window {
                    let trained = rf_sample_features(&wide, gran, t);
                    let want = &served[ws as usize + t];
                    assert_eq!(narrow(&trained), narrow(want), "{what}, step {t}");
                }
            }
        }
    }

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

    /// Every sample of `bundle`, in order, bit for bit.
    fn bundle_digest(bundle: &DatasetBundle) -> u64 {
        let mut h = Fnv::new();
        for s in bundle.positives.iter().chain(&bundle.negatives) {
            h.key((s.meta.customer, s.meta.attack_type));
            h.bytes(&s.meta.window_start.to_le_bytes());
            h.bytes(&[u8::from(s.label)]);
            h.bytes(&(s.event_step as u64).to_le_bytes());
            h.bytes(&(s.anomaly_step.map_or(u64::MAX, |a| a as u64)).to_le_bytes());
            let rows = s.ctx.iter().flatten().chain(&s.lead).chain(&s.window);
            for row in rows {
                h.bytes(&(row.len() as u64).to_le_bytes());
                for v in row {
                    h.bytes(&v.to_bits().to_le_bytes());
                }
            }
        }
        h.0
    }

    /// Phase A stopped at the training horizon builds the bundle phase A
    /// run to the world's end builds, sample for sample and bit for bit.
    #[test]
    fn phase_a_stopped_at_the_horizon_builds_the_same_training_set() {
        for seed in [5, 9] {
            let cfg = PipelineConfig::smoke_test(seed);
            let split = SplitBoundaries::from_days(cfg.world.days);
            let horizon = training_horizon(&cfg.xatu, split.train_end);
            assert!(
                horizon < split.val_end,
                "seed {seed}: the horizon saves minutes"
            );
            let stopped = phase_a(&cfg, &split, horizon, &mut Registry::new());
            let whole = phase_a(&cfg, &split, split.total, &mut Registry::new());
            assert!(
                !whole.positives.is_empty(),
                "seed {seed}: a positive is drawn"
            );
            assert_eq!(
                (stopped.positives.len(), stopped.negatives.len()),
                (whole.positives.len(), whole.negatives.len()),
                "seed {seed}"
            );
            assert_eq!(
                bundle_digest(&stopped),
                bundle_digest(&whole),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn table2_counts_sum_to_alert_count() {
        let prepared = Pipeline::new(PipelineConfig::smoke_test(6)).prepare();
        let total: usize = prepared.table2.counts.iter().flat_map(|r| r.iter()).sum();
        assert_eq!(total, prepared.cdet_alerts.len());
    }

    /// FNV-1a, the fold every detections pin below shares.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn key(&mut self, (customer, ty): (Ipv4, AttackType)) {
            self.bytes(&customer.0.to_le_bytes());
            self.bytes(&[ty.index() as u8]);
        }

        /// Per-(customer, type) score series, sorted by key.
        fn scores(&mut self, scores: &Scores) {
            for key in sorted(scores.keys().copied().collect()) {
                self.key(key);
                for s in &scores[&key] {
                    self.bytes(&s.to_bits().to_le_bytes());
                }
            }
        }

        /// Alert intervals, sorted by key.
        fn intervals(&mut self, alerts: &SystemAlerts) {
            for key in sorted(alerts.keys().copied().collect()) {
                self.key(key);
                for &(start, end) in &alerts[&key] {
                    self.bytes(&start.to_le_bytes());
                    self.bytes(&end.to_le_bytes());
                }
            }
        }

        /// An alert list, in its order; an open end folds as `u32::MAX`.
        fn alerts(&mut self, alerts: &[Alert]) {
            for a in alerts {
                self.key((a.customer, a.attack_type));
                self.bytes(&a.detected_at.to_le_bytes());
                self.bytes(&a.mitigation_end.unwrap_or(u32::MAX).to_le_bytes());
            }
        }
    }

    fn sorted(mut keys: Vec<(Ipv4, AttackType)>) -> Vec<(Ipv4, AttackType)> {
        keys.sort_unstable_by_key(|&(c, ty)| (c, ty.index()));
        keys
    }

    /// What the detectors produced: the validation survival series, then,
    /// per report, the test-period Xatu alert intervals at that report's
    /// thresholds.
    fn detections_digest(prepared: &Prepared, reports: &[&EvalReport]) -> u64 {
        let mut h = Fnv::new();
        h.scores(&prepared.val_scores_xatu);
        for r in reports {
            let (mut alerts, _, _) = prepared.run_test(&r.xatu_thresholds, &mut Registry::new());
            scrub_release(&mut alerts, &prepared.volumes);
            h.intervals(&alerts);
        }
        h.0
    }

    /// [`detections_digest`] of the seed-9 smoke pipeline at bounds 0.05
    /// and 0.0005.
    const DETECTIONS_DIGEST: u64 = 0xe7c0_840f_7fe3_1e3f;

    /// Sweeps of a 24-threshold grid with every candidate at `cost` and
    /// `objective`, as `Prepared::calibrate` builds them.
    fn sweep(cost: f64, objective: f64) -> (Vec<f64>, Vec<CandidateEval>) {
        let grid = threshold_grid(24);
        let candidates = grid
            .iter()
            .map(|&threshold| CandidateEval {
                threshold,
                objective,
                per_customer_cost: vec![cost; 4],
            })
            .collect();
        (grid, candidates)
    }

    const BOUND: QuantileBound = QuantileBound {
        quantile: 0.75,
        bound: 0.001,
    };

    /// A feasible grid threshold is served, and called calibrated.
    #[test]
    fn a_type_that_meets_the_bound_is_calibrated() {
        let (grid, mut candidates) = sweep(0.0005, 0.4);
        candidates[9].objective = 0.6;
        candidates[10].per_customer_cost = vec![0.01; 4];
        candidates[10].objective = 0.9;
        assert_eq!(
            settle(3, &grid, &candidates, BOUND),
            (grid[9], Calibration::Calibrated)
        );
    }

    /// No grid threshold meets the bound: the type is served at the grid's
    /// tightest threshold and called infeasible. (It used to be served at
    /// 0.002, looser than a fifth of the grid, with nothing said.)
    #[test]
    fn a_type_that_cannot_meet_the_bound_is_infeasible_at_the_tightest_threshold() {
        let (grid, candidates) = sweep(0.02, 0.7);
        let (th, outcome) = settle(5, &grid, &candidates, BOUND);
        assert_eq!(outcome, Calibration::Infeasible);
        assert_eq!(th, grid[0]);
        assert!(grid.iter().all(|&g| th <= g));
    }

    /// No validation event: every candidate scores objective 0, which used
    /// to tie-break to the loosest threshold, 0.9999. Now it is served at
    /// the tightest and called unscored.
    #[test]
    fn a_type_without_a_validation_event_is_unscored_at_the_tightest_threshold() {
        let (grid, candidates) = sweep(0.0, 0.0);
        assert_eq!(
            settle(0, &grid, &candidates, BOUND),
            (grid[0], Calibration::Unscored)
        );
        assert_eq!(
            settle(0, &grid, &[], BOUND),
            (grid[0], Calibration::Unscored)
        );
    }

    /// The seed-13 shape: a UDP threshold above the quiet survival level
    /// fired on every validation minute, and the lifecycle without a cap
    /// made one interval that the release cut after its grace, so the 9
    /// loosest candidates detected nothing at almost no cost. They tied at
    /// objective 0, and the tie settled at 0.9999, "calibrated".
    #[test]
    fn an_always_firing_type_whose_feasible_candidates_tie_at_zero_is_degenerate() {
        let (grid, mut candidates) = sweep(0.02, 0.3);
        for c in &mut candidates[grid.len() - 9..] {
            c.objective = 0.0;
            c.per_customer_cost = vec![0.0002; 4];
        }
        assert_eq!(
            settle(39, &grid, &candidates, BOUND),
            (grid[0], Calibration::Degenerate)
        );
    }

    /// `CustomerOverhead::ratios` drops customers without attack volume, so
    /// a type with validation events can cost every candidate over no
    /// customer at all. An empty cost vector meets any bound; it is not a
    /// calibration.
    #[test]
    fn a_type_with_events_but_no_customer_cost_is_degenerate() {
        let (grid, candidates) = sweep(0.0, 0.5);
        let candidates: Vec<CandidateEval> = candidates
            .into_iter()
            .map(|c| CandidateEval {
                per_customer_cost: Vec::new(),
                ..c
            })
            .collect();
        assert_eq!(
            settle(2, &grid, &candidates, BOUND),
            (grid[0], Calibration::Degenerate)
        );
    }

    /// Seed 9 trains a model and raises test-period alerts, so the
    /// detections digest covers real survivals and real alerts.
    #[test]
    fn prepared_supports_multiple_bounds() {
        let prepared = Pipeline::new(PipelineConfig::smoke_test(9)).prepare();
        assert!(!prepared.models.is_empty(), "seed 9 trains a model");
        let a = prepared.evaluate(0.05);
        let b = prepared.evaluate(0.0005);
        // Every served threshold says how it was reached, in the summary
        // and in the telemetry.
        for r in [&a, &b] {
            let (summary, json) = (r.summary(), r.telemetry_json());
            for ((ty, th), (ty_c, outcome)) in r.xatu_thresholds.iter().zip(&r.xatu_calibration) {
                assert_eq!(ty, ty_c);
                assert!(summary.contains(&format!("{ty:?} {th:.3e} {}", outcome.name())));
                assert!(json.contains(&format!("\"outcome\":\"{}\"", outcome.name())));
            }
        }
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

    /// What a system's evaluation reads, comparable whatever the order of
    /// the overhead's customer map.
    fn eval_key(e: &SystemEval) -> String {
        let mut ratios = e.overhead.ratios();
        ratios.sort_by(f64::total_cmp);
        let delays = e.delay.values_with_miss_penalty();
        format!("{} {:?} {delays:?} {ratios:?}", e.detected, e.records)
    }

    /// Offline ≡ served on the seed-9 smoke headline, at bounds 0.05 and
    /// 0.0005 and at a loose 0.9 that alerts on every type. The test run's
    /// Xatu intervals, before the scrubbing centre's release, are the
    /// offline scorer's over the survivals that run recorded. No head
    /// imputes a minute in phase B or in the test run, which is why the
    /// offline scorer calls every minute fresh. And the headline scores
    /// NetScout unreleased: its row is `evaluate_system` over its alerts.
    #[test]
    fn the_test_run_serves_the_lifecycle_calibration_scores() {
        let prepared = Pipeline::new(PipelineConfig::smoke_test(9)).prepare();
        let imputed = |engine: &Engine| -> u64 {
            let heads = engine.heads();
            heads.iter().map(|h| h.obs().gaps_imputed.get()).sum()
        };
        assert_eq!(imputed(&prepared.checkpoint.engine), 0, "phase B");
        let loose: Vec<(AttackType, f64)> =
            prepared.models.iter().map(|(ty, _)| (*ty, 0.9)).collect();
        let (base, total) = (prepared.split.val_end, prepared.split.total);
        let mut raised = 0;
        for bound in [Some(0.05), Some(0.0005), None] {
            let report = bound.map(|b| prepared.evaluate(b));
            let thresholds = report.as_ref().map_or(&loose, |r| &r.xatu_thresholds);
            let (served, scores, engine) = prepared.run_test(thresholds, &mut Registry::new());
            assert_eq!(imputed(&engine), 0, "test run at {bound:?}");
            let mut offline = SystemAlerts::new();
            for (&key, series) in &scores {
                let th = thresholds
                    .iter()
                    .find(|(ty, _)| *ty == key.1)
                    .expect("a head")
                    .1;
                let intervals = alerts_from_score_series(series, base, th);
                if !intervals.is_empty() {
                    offline.insert(key, intervals);
                }
            }
            assert_eq!(served, offline, "at {bound:?}");
            raised += served.values().map(Vec::len).sum::<usize>();
            if let (Some(report), Some(0.05)) = (&report, bound) {
                let netscout = evaluate_system(
                    "NetScout",
                    &intervals_of(&prepared.cdet_alerts, total),
                    &prepared.ground_truth,
                    &prepared.volumes,
                    prepared.split.stabilization_end,
                    total,
                );
                let row = report.system("NetScout").expect("NetScout is scored");
                assert_eq!(eval_key(row), eval_key(&netscout));
            }
        }
        assert!(raised > 0, "the test runs raise alerts to compare");
    }

    /// What the RF and FastNetMon baselines produced on the seed-9 smoke
    /// pipeline: the FastNetMon alerts, the validation RF scores, then at
    /// bounds 0.05 and 0.0005 the test-period Xatu and RF alert intervals
    /// and the Xatu and RF score series.
    const RF_FNM_DIGEST: u64 = 0x3579_d743_d87c_6664;

    #[test]
    fn rf_and_fastnetmon_detections_hold() {
        let cfg = PipelineConfig {
            with_rf: true,
            with_fnm: true,
            ..PipelineConfig::smoke_test(9)
        };
        let prepared = Pipeline::new(cfg).prepare();
        assert!(!prepared.rf_models.is_empty(), "seed 9 trains an RF");
        let mut h = Fnv::new();
        h.alerts(&prepared.fnm_alerts);
        h.scores(&prepared.val_scores_rf);
        for bound in [0.05, 0.0005] {
            let r = prepared.evaluate(bound);
            let (mut xatu, xatu_scores, _) =
                prepared.run_test(&r.xatu_thresholds, &mut Registry::new());
            scrub_release(&mut xatu, &prepared.volumes);
            let (rf_scores, base) = (&prepared.test_scores_rf, prepared.split.val_end);
            let rf = prepared.score_alerts(rf_scores, base, &r.rf_thresholds);
            h.intervals(&xatu);
            h.intervals(&rf);
            h.scores(&xatu_scores);
            h.scores(rf_scores);
        }
        assert_eq!(
            h.0, RF_FNM_DIGEST,
            "RF or FastNetMon detections moved (digest is {:#018x})",
            h.0
        );
    }

    /// What the seed-9 smoke pipeline labelled by FastNetMon produced: the
    /// CDet alerts, Table 2 and the validation survival series.
    const FNM_LABELLED_DIGEST: u64 = 0x7daa_a5d4_2701_964d;

    #[test]
    fn fastnetmon_labelled_detections_hold() {
        let cfg = PipelineConfig {
            label_with_fnm: true,
            ..PipelineConfig::smoke_test(9)
        };
        let prepared = Pipeline::new(cfg).prepare();
        assert!(!prepared.models.is_empty(), "seed 9 trains a model");
        let mut h = Fnv::new();
        h.alerts(&prepared.cdet_alerts);
        for count in prepared.table2.counts.iter().flatten() {
            h.bytes(&(*count as u64).to_le_bytes());
        }
        h.scores(&prepared.val_scores_xatu);
        assert_eq!(
            h.0, FNM_LABELLED_DIGEST,
            "FastNetMon-labelled detections moved (digest is {:#018x})",
            h.0
        );
    }
}
