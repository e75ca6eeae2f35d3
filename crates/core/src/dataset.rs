//! Dataset assembly: turning a streamed world plus CDet alerts into
//! balanced per-type training sets (§5.3) with chronological splits.

use crate::config::XatuConfig;
use crate::model::ModelConfig;
use crate::sample::{lead_minutes, Sample, SampleMeta, WideSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xatu_features::frame::NUM_FEATURES;
use xatu_features::pooled_history::PooledHistory;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_netflow::MINUTES_PER_DAY;
use xatu_nn::FrameArena;

/// Chronological split boundaries (minutes), mirroring the paper's
/// 50/20/30-day split with the first third of testing used for the
/// auto-regressive stabilization period (§6: 10 of 30 days).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitBoundaries {
    /// End of the training period (exclusive).
    pub train_end: u32,
    /// End of the validation period (exclusive).
    pub val_end: u32,
    /// End of the stabilization prefix of the test period (exclusive).
    pub stabilization_end: u32,
    /// End of the whole period.
    pub total: u32,
}

impl SplitBoundaries {
    /// Builds the 50 % / 20 % / 30 % split over `days` days.
    pub fn from_days(days: u32) -> Self {
        let total = days * MINUTES_PER_DAY;
        let train_end = total / 2;
        let val_end = train_end + total / 5;
        let test_len = total - val_end;
        SplitBoundaries {
            train_end,
            val_end,
            stabilization_end: val_end + test_len / 3,
            total,
        }
    }

    /// Which period a minute falls into.
    pub fn period_of(&self, minute: u32) -> Period {
        if minute < self.train_end {
            Period::Train
        } else if minute < self.val_end {
            Period::Validation
        } else if minute < self.stabilization_end {
            Period::Stabilization
        } else {
            Period::Test
        }
    }
}

/// The four phases of the evaluation timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Period {
    /// Model training data.
    Train,
    /// Threshold calibration data.
    Validation,
    /// Auto-regressive warm-up, excluded from reported metrics.
    Stabilization,
    /// Reported evaluation period.
    Test,
}

/// How many minutes before the CUSUM anomaly onset the detection window
/// starts, so the window contains pre-onset context the model can alert in.
pub const WINDOW_LEAD: u32 = 10;

/// A positive sample waiting for its window frames to stream past.
#[derive(Clone, Debug)]
struct PendingPositive {
    customer: Ipv4,
    attack_type: AttackType,
    window_start: u32,
    /// CDet alert minute (absolute).
    event_minute: u32,
    /// CUSUM anomaly onset (absolute).
    anomaly_minute: u32,
}

/// A negative candidate waiting for its window frames.
#[derive(Clone, Debug)]
struct PendingNegative {
    customer: Ipv4,
    window_start: u32,
}

/// Streaming dataset builder. The pipeline drives it minute by minute.
pub struct DatasetBuilder {
    cfg: XatuConfig,
    pending_pos: Vec<PendingPositive>,
    pending_neg: Vec<PendingNegative>,
    positives: Vec<Sample>,
    negatives: Vec<Sample>,
    rng: StdRng,
    /// Per-customer-minute probability of drawing a negative candidate.
    neg_prob: f64,
}

impl DatasetBuilder {
    /// Creates a builder. `neg_prob` is tuned so candidate negatives
    /// comfortably outnumber expected positives before balancing.
    pub fn new(cfg: &XatuConfig, neg_prob: f64) -> Self {
        DatasetBuilder {
            cfg: *cfg,
            pending_pos: Vec::new(),
            pending_neg: Vec::new(),
            positives: Vec::new(),
            negatives: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(0xDA7A)),
            neg_prob,
        }
    }

    /// Registers a CDet alert: schedules a positive sample whose window
    /// starts [`WINDOW_LEAD`] minutes before the CUSUM onset.
    pub fn on_alert(
        &mut self,
        customer: Ipv4,
        attack_type: AttackType,
        anomaly_minute: u32,
        alert_minute: u32,
    ) {
        let window_start = anomaly_minute.saturating_sub(WINDOW_LEAD);
        self.pending_pos.push(PendingPositive {
            customer,
            attack_type,
            window_start,
            event_minute: alert_minute,
            anomaly_minute,
        });
    }

    /// Possibly schedules a negative candidate at (customer, minute).
    ///
    /// `aux_active` marks minutes whose frame shows auxiliary-signal
    /// activity (blocklisted / previous-attacker traffic). Those minutes
    /// are sampled at a boosted rate: they are the *hard negatives* that
    /// teach the model that preparation signals alone — without an
    /// imminent volumetric ramp — must not trigger an alarm (the paper's
    /// "Xatu does not raise an alarm right away" behaviour, §6.2).
    pub fn maybe_negative(&mut self, customer: Ipv4, minute: u32, aux_active: bool) {
        self.maybe_negative_weighted(customer, minute, if aux_active { 8.0 } else { 1.0 });
    }

    /// As [`Self::maybe_negative`], with an explicit sampling-probability
    /// multiplier (hard-negative mining weight).
    pub fn maybe_negative_weighted(&mut self, customer: Ipv4, minute: u32, weight: f64) {
        let p = (self.neg_prob * weight).min(1.0);
        if self.rng.random_bool(p) {
            self.pending_neg.push(PendingNegative {
                customer,
                window_start: minute,
            });
        }
    }

    /// Called after each minute's frames have been pushed into the pooled
    /// histories; materializes any pending samples whose windows are now
    /// fully in the past.
    pub fn collect_ready(
        &mut self,
        now: u32,
        histories: &std::collections::HashMap<Ipv4, PooledHistory>,
    ) {
        let window = self.cfg.window as u32;
        let cfg = self.cfg;

        let mut still_pos = Vec::new();
        for p in self.pending_pos.drain(..) {
            if p.window_start + window > now {
                still_pos.push(p);
                continue;
            }
            if let Some(h) = histories.get(&p.customer) {
                if let Some(mut s) = snapshot(&cfg, h, p.customer, p.window_start) {
                    s.label = true;
                    s.meta.attack_type = p.attack_type;
                    let step = (p.event_minute.saturating_sub(p.window_start) + 1).clamp(1, window);
                    s.event_step = step as usize;
                    let astep =
                        (p.anomaly_minute.saturating_sub(p.window_start) + 1).clamp(1, window);
                    s.anomaly_step = Some(astep as usize);
                    self.positives.push(s);
                }
            }
        }
        self.pending_pos = still_pos;

        let mut still_neg = Vec::new();
        for p in self.pending_neg.drain(..) {
            if p.window_start + window > now {
                still_neg.push(p);
                continue;
            }
            if let Some(h) = histories.get(&p.customer) {
                if let Some(s) = snapshot(&cfg, h, p.customer, p.window_start) {
                    self.negatives.push(s);
                }
            }
        }
        self.pending_neg = still_neg;
    }

    /// Finishes building: drops negative candidates that overlap any alert
    /// window (± one hour), then returns per-type balanced training sets
    /// of (positives, negatives).
    ///
    /// `alert_minutes` lists every CDet alert as `(customer, minute)`.
    pub fn finish(mut self, alert_minutes: &[(Ipv4, u32)]) -> DatasetBundle {
        let window = self.cfg.window as u32;
        self.negatives.retain(|n| {
            !alert_minutes.iter().any(|&(c, m)| {
                c == n.meta.customer
                    && (m as i64 - n.meta.window_start as i64).abs() < (window + 60) as i64
            })
        });
        DatasetBundle {
            positives: self.positives,
            negatives: self.negatives,
            seed: self.cfg.seed,
        }
    }

    /// Positives collected so far (diagnostics).
    pub fn positive_count(&self) -> usize {
        self.positives.len()
    }
}

/// The collected samples, ready for per-type assembly.
pub struct DatasetBundle {
    /// Attack samples, all types mixed.
    pub positives: Vec<Sample>,
    /// Clean samples.
    pub negatives: Vec<Sample>,
    seed: u64,
}

impl DatasetBundle {
    /// Attack types with at least `min_positives` samples, in fixed order.
    pub fn trainable_types(&self, min_positives: usize) -> Vec<AttackType> {
        AttackType::ALL
            .into_iter()
            .filter(|t| {
                self.positives
                    .iter()
                    .filter(|s| s.meta.attack_type == *t)
                    .count()
                    >= min_positives
            })
            .collect()
    }

    /// Negatives per positive in a per-type training set. The paper uses
    /// 1:1; we use 2:1 because the hard-negative pool (preparation-period
    /// minutes) must be dense enough to carve the "prep alone is not an
    /// attack" boundary at this scale (documented in DESIGN.md).
    pub const NEG_RATIO: usize = 2;

    /// Training set for one attack type: its positives plus
    /// `NEG_RATIO ×` negatives. Negatives are relabelled with the type so
    /// the sample metadata stays coherent.
    pub fn for_type(&self, ty: AttackType) -> Vec<Sample> {
        let pos: Vec<Sample> = self
            .positives
            .iter()
            .filter(|s| s.meta.attack_type == ty)
            .cloned()
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ (ty.index() as u64) << 17);
        let mut neg_idx: Vec<usize> = (0..self.negatives.len()).collect();
        for i in (1..neg_idx.len()).rev() {
            neg_idx.swap(i, rng.random_range(0..=i));
        }
        let mut out = pos;
        let n_pos = out.len();
        for &i in neg_idx
            .iter()
            .take((Self::NEG_RATIO * n_pos).min(self.negatives.len()))
        {
            let mut n = self.negatives[i].clone();
            n.meta.attack_type = ty;
            out.push(n);
        }
        out
    }

    /// Table 2 style counts: per-type (train-period) positives.
    pub fn counts_by_type(&self) -> [usize; 6] {
        let mut out = [0usize; 6];
        for s in &self.positives {
            out[s.meta.attack_type.index()] += 1;
        }
        out
    }
}

/// Cuts a sample from a pooled history on the serving schedule, as of
/// `window_start`: each timescale's context is its last completed buckets
/// that end at or before the window start (`short_len`, `medium_len`,
/// `long_len` of them), the lead-in is the minutes of the buckets still
/// open there ([`lead_minutes`]), and the window is the next `cfg.window`
/// minutes. The model pools lead-in ++ window on the same edges, so it
/// steps every LSTM on the buckets serving steps it on. Returns `None` if
/// the raw ring no longer holds the needed minutes, or while a timescale
/// has no completed bucket (the model needs a state of each).
pub(crate) fn snapshot(
    cfg: &XatuConfig,
    h: &PooledHistory,
    customer: Ipv4,
    window_start: u32,
) -> Option<Sample> {
    let wide = snapshot_wide(cfg, h, window_start)?;
    let narrow = |a: &FrameArena| -> Vec<Vec<f32>> {
        a.iter()
            .map(|f| f.iter().map(|&x| x as f32).collect())
            .collect()
    };
    let mut lead = narrow(&wide.minutes);
    let window = lead.split_off(wide.lead);
    Some(Sample {
        ctx: wide.ctx.each_ref().map(narrow),
        lead,
        window,
        label: false,
        event_step: cfg.window,
        anomaly_step: None,
        meta: SampleMeta {
            customer,
            attack_type: AttackType::UdpFlood, // overwritten by callers
            window_start,
        },
    })
}

/// [`snapshot`]'s sequences before they are narrowed to `f32`.
fn snapshot_wide(cfg: &XatuConfig, h: &PooledHistory, window_start: u32) -> Option<WideSample> {
    let gran = ModelConfig::from(cfg).gran();
    let lead = lead_minutes(gran, window_start);
    let minutes = h.raw_range(window_start - lead as u32, window_start + cfg.window as u32)?;
    let lens = [cfg.short_len, cfg.medium_len, cfg.long_len];
    let mut wide = WideSample {
        lead,
        window_start,
        ..WideSample::default()
    };
    for (i, arena) in wide.ctx.iter_mut().enumerate() {
        let buckets = h.tail_before(i, window_start, lens[i])?;
        if buckets.is_empty() {
            return None;
        }
        arena.fill_from_rows(NUM_FEATURES, &buckets);
    }
    wide.minutes.fill_from_rows(NUM_FEATURES, &minutes);
    (wide.window_len() > 0).then_some(wide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetDetector;
    use crate::model::{ForwardTrace, XatuModel};
    use std::collections::HashMap;
    use xatu_features::frame::FeatureFrame;

    fn cfg() -> XatuConfig {
        XatuConfig {
            timescales: (1, 10, 60),
            short_len: 20,
            medium_len: 6,
            long_len: 2,
            window: 10,
            ..XatuConfig::smoke_test()
        }
    }

    fn histories(_c: &XatuConfig, minutes: u32) -> HashMap<Ipv4, PooledHistory> {
        // Tests push the whole stream before collecting, so retention must
        // cover everything (the pipeline collects minute-by-minute and
        // needs only `raw_history_minutes`).
        let mut h = PooledHistory::new([1, 10, 60], minutes as usize, 300);
        for m in 0..minutes {
            let mut f = FeatureFrame::zeros();
            f.0[0] = m as f64;
            h.push(f);
        }
        let mut map = HashMap::new();
        map.insert(Ipv4(1), h);
        map
    }

    #[test]
    fn split_is_50_20_30() {
        let s = SplitBoundaries::from_days(100);
        assert_eq!(s.train_end, 50 * MINUTES_PER_DAY);
        assert_eq!(s.val_end, 70 * MINUTES_PER_DAY);
        assert_eq!(s.stabilization_end, 80 * MINUTES_PER_DAY);
        assert_eq!(s.total, 100 * MINUTES_PER_DAY);
        assert_eq!(s.period_of(0), Period::Train);
        assert_eq!(s.period_of(s.train_end), Period::Validation);
        assert_eq!(s.period_of(s.val_end), Period::Stabilization);
        assert_eq!(s.period_of(s.stabilization_end), Period::Test);
    }

    #[test]
    fn positive_sample_carries_event_and_anomaly_steps() {
        let c = cfg();
        let mut b = DatasetBuilder::new(&c, 0.0);
        let h = histories(&c, 500);
        // Onset at 400; window starts at 390; alert at 404.
        b.on_alert(Ipv4(1), AttackType::TcpAck, 400, 404);
        b.collect_ready(399, &h); // too early: window incomplete
        assert_eq!(b.positive_count(), 0);
        b.collect_ready(400 - WINDOW_LEAD + 10, &h);
        assert_eq!(b.positive_count(), 1);
        let bundle = b.finish(&[]);
        let s = &bundle.positives[0];
        assert!(s.label);
        assert_eq!(s.meta.window_start, 390);
        // The raw step 404 − 390 + 1 = 15 exceeds the 10-minute window and
        // is clamped: CDet detected after the window closed.
        assert_eq!(s.event_step, 10);
        // Raw anomaly step 400 − 390 + 1 = 11 is one past this test's
        // 10-minute window (window == lead) and clamps to the last step.
        assert_eq!(s.anomaly_step, Some(10));
        assert_eq!(s.window.len(), 10);
        // Window frames carry the right minutes in feature 0.
        assert_eq!(s.window[0][0], 390.0);
        assert_eq!(s.ctx[0].len(), 20);
        assert_eq!(s.ctx[0][19][0], 389.0);
        // 390 is on the medium edge, 30 minutes into a long bucket.
        assert_eq!(s.lead.len(), 30);
        assert_eq!(s.lead[0][0], 360.0);
        s.validate([1, 10, 60]).unwrap();
    }

    #[test]
    fn negatives_near_alerts_are_filtered() {
        let c = cfg();
        let mut b = DatasetBuilder::new(&c, 1.0);
        let h = histories(&c, 500);
        b.maybe_negative(Ipv4(1), 300, false);
        b.maybe_negative(Ipv4(1), 450, false);
        b.collect_ready(480, &h);
        let bundle = b.finish(&[(Ipv4(1), 310)]);
        // The 300-minute candidate is within ±(window+60) of the alert.
        assert_eq!(bundle.negatives.len(), 1);
        assert_eq!(bundle.negatives[0].meta.window_start, 450);
    }

    #[test]
    fn per_type_sets_are_balanced() {
        let c = cfg();
        let mut b = DatasetBuilder::new(&c, 1.0);
        let h = histories(&c, 3000);
        for k in 0..4 {
            b.on_alert(Ipv4(1), AttackType::UdpFlood, 500 + k * 100, 505 + k * 100);
        }
        for m in (1000..2500).step_by(100) {
            b.maybe_negative(Ipv4(1), m, false);
        }
        b.collect_ready(2990, &h);
        let bundle = b.finish(&[]);
        assert_eq!(bundle.counts_by_type()[0], 4);
        let set = bundle.for_type(AttackType::UdpFlood);
        let pos = set.iter().filter(|s| s.label).count();
        let neg = set.len() - pos;
        assert_eq!(pos, 4);
        assert_eq!(neg, DatasetBundle::NEG_RATIO * 4);
        assert!(set
            .iter()
            .all(|s| s.meta.attack_type == AttackType::UdpFlood));
    }

    #[test]
    fn trainable_types_respects_minimum() {
        let c = cfg();
        let mut b = DatasetBuilder::new(&c, 0.0);
        let h = histories(&c, 1000);
        b.on_alert(Ipv4(1), AttackType::IcmpFlood, 500, 505);
        b.collect_ready(990, &h);
        let bundle = b.finish(&[]);
        assert_eq!(bundle.trainable_types(1), vec![AttackType::IcmpFlood]);
        assert!(bundle.trainable_types(2).is_empty());
    }

    #[test]
    fn snapshot_fails_gracefully_past_retention() {
        let c = cfg();
        let h = histories(&c, 5000);
        // Window start far in the discarded past.
        assert!(snapshot(&c, &h[&Ipv4(1)], Ipv4(1), 10).is_none());
    }

    /// Training reads the schedule serving runs. On a gap-free stream from
    /// minute 0, with the window at every offset from the long edge, the
    /// hazard `forward_wide` computes on the `snapshot`-cut sample (before
    /// it is narrowed to `f32`) equals the arena row's at every window
    /// step, bit for bit. Each context is long enough to reach back to
    /// minute 0, and each period to keep the row's aged half started
    /// there, so both sides step every LSTM on the same buckets from the
    /// same zero state.
    #[test]
    fn training_reads_the_serving_schedule_bit_for_bit() {
        for (g0, g1, g2) in [(1, 10, 60), (1, 3, 6), (2, 4, 8), (10, 60, 120)] {
            let window = 2 * g1 as usize + 5;
            let minutes = 2 * g2 + window as u32;
            let len = |g: u32| minutes as usize / g as usize + 1;
            let c = XatuConfig {
                timescales: (g0, g1, g2),
                short_len: len(g0),
                medium_len: len(g1),
                long_len: len(g2),
                window,
                hidden: 3,
                ..XatuConfig::smoke_test()
            };
            let model = XatuModel::new(&c);
            let mut det = FleetDetector::new(model.clone(), AttackType::UdpFlood, 0.5, &c);
            let mut h = PooledHistory::new([g0, g1, g2], minutes as usize, minutes as usize);
            let mut served = Vec::new();
            for m in 0..minutes {
                let mut f = vec![0.0; NUM_FEATURES];
                for k in 0..7 {
                    f[(m as usize * 37 + k * 41) % NUM_FEATURES] =
                        (f64::from(m) * 0.31 + k as f64).sin();
                }
                served.push(det.observe(Ipv4(1), m, &f).expect("in-order minute").0);
                h.push(FeatureFrame(f));
            }
            let mut trace = ForwardTrace::default();
            for ws in g2..2 * g2 {
                let what = format!("{:?}, window at {ws}", c.timescales);
                let sample = snapshot_wide(&c, &h, ws).expect(&what);
                model.forward_wide(&sample, &mut trace);
                assert_eq!(trace.hazards.len(), window, "{what}");
                for (t, hazard) in trace.hazards.iter().enumerate() {
                    let want = served[ws as usize + t];
                    assert_eq!(hazard.to_bits(), want.to_bits(), "{what}, step {t}");
                }
            }
        }
    }

    #[test]
    fn snapshot_has_full_feature_width() {
        let c = cfg();
        let h = histories(&c, 500);
        let s = snapshot(&c, &h[&Ipv4(1)], Ipv4(1), 400).unwrap();
        assert_eq!(s.window[0].len(), NUM_FEATURES);
        assert_eq!(s.ctx[1].len(), c.medium_len);
        assert_eq!(s.ctx[2].len(), c.long_len);
    }
}
