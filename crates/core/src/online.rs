//! The streaming detector's former name, kept while the benchmark harness
//! still uses it: the detector is [`crate::fleet::FleetDetector`]. The
//! tests below are its single-customer tests, on the row path (`observe`,
//! `observe_gap`) and, for the companion, against the batch path too.

/// The streaming detector under its former name.
pub type OnlineDetector = crate::fleet::FleetDetector;

#[cfg(test)]
mod tests {
    use crate::config::XatuConfig;
    use crate::error::XatuError;
    use crate::fleet::{FleetDetector, FleetInput};
    use crate::fusion::{Companion, ErrorNormalizer};
    use crate::model::XatuModel;
    use crate::sample::{Sample, SampleMeta};
    use crate::trainer::train;
    use std::ops::Range;
    use xatu_detectors::traits::DetectorEvent;
    use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
    use xatu_netflow::addr::Ipv4;
    use xatu_netflow::attack::AttackType;
    use xatu_nn::simd::SimdLevel;
    use xatu_nn::{AeWorkspace, FrameArena, LstmAutoencoder};

    fn cfg() -> XatuConfig {
        XatuConfig {
            timescales: (1, 3, 6),
            short_len: 8,
            medium_len: 6,
            long_len: 4,
            window: 6,
            hidden: 5,
            epochs: 40,
            batch_size: 4,
            lr: 2e-2,
            ..XatuConfig::smoke_test()
        }
    }

    fn frame(v: f64) -> Vec<f64> {
        let mut f = vec![0.0; NUM_FEATURES];
        f[0] = v;
        f
    }

    /// Trains a model to fire when feature 0 ramps.
    fn trained_model(c: &XatuConfig) -> XatuModel {
        let mut samples = Vec::new();
        for i in 0..16 {
            let label = i % 2 == 0;
            let f32frame = |v: f32| -> Vec<f32> {
                let mut f = vec![0.0f32; NUM_FEATURES];
                f[0] = v;
                f
            };
            let window: Vec<Vec<f32>> = (0..c.window)
                .map(|t| {
                    if label && t >= 2 {
                        f32frame(2.0)
                    } else {
                        f32frame(0.05)
                    }
                })
                .collect();
            samples.push(Sample {
                ctx: [
                    vec![f32frame(0.05); c.short_len],
                    vec![f32frame(0.05); c.medium_len],
                    vec![f32frame(0.05); c.long_len],
                ],
                lead: Vec::new(),
                window,
                label,
                event_step: c.window,
                anomaly_step: label.then_some(3),
                meta: SampleMeta {
                    customer: Ipv4(i as u32),
                    attack_type: AttackType::UdpFlood,
                    window_start: 0,
                },
            });
        }
        let mut model = XatuModel::new(c);
        train(&mut model, &samples, c).expect("training succeeds");
        model
    }

    fn obs(det: &mut FleetDetector, cust: Ipv4, m: u32, v: f64) -> (f64, f64, Vec<DetectorEvent>) {
        det.observe(cust, m, &frame(v)).expect("in-order observe")
    }

    #[test]
    fn quiet_stream_never_alerts() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..200 {
            let (_, s, events) = obs(&mut det, Ipv4(1), m, 0.05);
            assert!(events.is_empty(), "minute {m}: survival {s}");
            if m > 30 {
                assert!(s > 0.5, "minute {m}: settled survival {s}");
            }
        }
    }

    #[test]
    fn ramp_triggers_alert_and_recovery_ends_it() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        let mut raised = None;
        let mut ended = None;
        for m in 0..300u32 {
            let v = if (100..140).contains(&m) { 2.0 } else { 0.05 };
            let (_, _, events) = obs(&mut det, Ipv4(1), m, v);
            for e in events {
                match e {
                    DetectorEvent::Raised(a) => raised = Some(a.detected_at),
                    DetectorEvent::Ended(a) => ended = Some(a.mitigation_end.unwrap()),
                }
            }
        }
        let raised = raised.expect("alert raised");
        let ended = ended.expect("alert ended");
        // Dual-state context promotion plus the rolling window add lag in
        // this tiny configuration; the alert must land on (or right after)
        // the surge, and must end once survival recovers.
        assert!((100..155).contains(&raised), "raised at {raised}");
        assert!(ended > raised, "ended at {ended}");
    }

    #[test]
    fn customers_are_independent() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        let mut cust2_alerts = 0;
        for m in 0..160u32 {
            let v1 = if m >= 100 { 2.0 } else { 0.05 };
            obs(&mut det, Ipv4(1), m, v1);
            let (_, _, ev) = obs(&mut det, Ipv4(2), m, 0.05);
            cust2_alerts += ev.len();
        }
        assert_eq!(cust2_alerts, 0);
        assert!(det.survival_of(Ipv4(1)) < det.survival_of(Ipv4(2)));
    }

    #[test]
    fn close_all_ends_open_alerts() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..130u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            obs(&mut det, Ipv4(1), m, v);
        }
        let events = det.close_all(130);
        assert_eq!(events.len(), 1);
        if let DetectorEvent::Ended(a) = events[0] {
            assert_eq!(a.mitigation_end, Some(130));
        }
    }

    /// `close_all` reports in the order customers were first observed,
    /// not in map order: the events feed alert logs that are compared
    /// across runs.
    #[test]
    fn close_all_reports_in_first_observe_order() {
        let c = cfg();
        // Untrained model, unreachable threshold, no warm-up: every
        // customer's first observation opens an alert.
        let mut det = FleetDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 2.0, &c);
        det.set_warmup(0);
        let order = [0x50u32, 0x03, 0x91, 0x2a, 0x77, 0x10, 0xe4, 0x08].map(Ipv4);
        for cust in order {
            let (_, _, ev) = obs(&mut det, cust, 0, 0.05);
            assert!(matches!(ev[..], [DetectorEvent::Raised(_)]));
        }
        let closed: Vec<Ipv4> = det
            .close_all(1)
            .iter()
            .map(|e| match e {
                DetectorEvent::Raised(a) | DetectorEvent::Ended(a) => a.customer,
            })
            .collect();
        assert_eq!(closed, order);
    }

    #[test]
    fn stuck_alert_is_force_ended_at_the_cap() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // Quiet lead-in, then a surge that never recovers: the scrubbing
        // centre's cap must cut the alert loose at max_alert_minutes.
        let mut spans = Vec::new();
        for m in 0..300u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            let (_, _, events) = obs(&mut det, Ipv4(1), m, v);
            for e in events {
                if let DetectorEvent::Ended(a) = e {
                    spans.push((a.detected_at, a.mitigation_end.unwrap()));
                }
            }
        }
        assert!(!spans.is_empty(), "stuck alert was never force-ended");
        for (start, end) in &spans {
            assert_eq!(
                end - start,
                det.max_alert_minutes(),
                "span {start}..{end} not cut at the cap"
            );
        }
        if xatu_obs::enabled() {
            let obs = det.obs();
            // Every recorded end here is a force-end, and the detector
            // re-raises right after each one.
            assert_eq!(obs.force_ended.get(), spans.len() as u64);
            assert_eq!(obs.ended.get(), spans.len() as u64);
            assert!(obs.raised.get() > spans.len() as u64);
            // One customer, warmup = 2 * window observations suppressed.
            assert_eq!(obs.warmup_suppressed.get(), 2 * c.window as u64);
            assert_eq!(obs.survival.count(), 300);
        }
    }

    #[test]
    fn threshold_zero_never_fires() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.0, &c);
        for m in 0..150u32 {
            let (_, _, ev) = obs(&mut det, Ipv4(1), m, 2.0);
            assert!(ev.is_empty());
        }
    }

    #[test]
    fn out_of_order_minutes_are_rejected() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        obs(&mut det, Ipv4(1), 10, 0.05);
        let before = det.survival_of(Ipv4(1));
        // Repeat and regress both fail, and neither perturbs state.
        for bad in [10, 3] {
            match det.observe(Ipv4(1), bad, &frame(0.05)) {
                Err(XatuError::OutOfOrderMinute { minute, last, .. }) => {
                    assert_eq!(minute, bad);
                    assert_eq!(last, 10);
                }
                other => panic!("expected OutOfOrderMinute, got {other:?}"),
            }
        }
        assert_eq!(before.to_bits(), det.survival_of(Ipv4(1)).to_bits());
        // The stream continues normally afterwards.
        obs(&mut det, Ipv4(1), 11, 0.05);
        if xatu_obs::enabled() {
            assert_eq!(det.obs().out_of_order.get(), 2);
        }
    }

    #[test]
    fn wrong_width_frame_is_rejected() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        assert!(matches!(
            det.observe(Ipv4(1), 0, &[0.0; 4]),
            Err(XatuError::DimensionMismatch {
                expected: NUM_FEATURES,
                found: 4
            })
        ));
    }

    #[test]
    fn short_gaps_are_imputed_and_the_stream_survives() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..60u32 {
            obs(&mut det, Ipv4(1), m, 0.05);
        }
        // Skip minutes 60..=64; minute 65 must impute five ZOH steps.
        let (_, s, _) = obs(&mut det, Ipv4(1), 65, 0.05);
        assert!(s.is_finite() && s > 0.5, "post-gap survival {s}");
        for m in 66..120u32 {
            let (_, s, _) = obs(&mut det, Ipv4(1), m, 0.05);
            assert!(s.is_finite());
        }
        if xatu_obs::enabled() {
            assert_eq!(det.obs().gaps_imputed.get(), 5);
            assert_eq!(det.obs().cold_restarts.get(), 0);
            assert_eq!(det.obs().gap_runs.count(), 1);
            // Wall-clock accounting stays aligned: 120 driven minutes.
            assert_eq!(det.obs().survival.count(), 120);
        }
    }

    #[test]
    fn staleness_blends_survival_toward_one_and_suppresses_raises() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // Attack traffic throughout warm-up and beyond, but with the
        // threshold at 0.0 nothing can fire; then the feed goes dark.
        det.set_threshold(0.0);
        for m in 0..100u32 {
            obs(&mut det, Ipv4(1), m, 2.0);
        }
        det.set_threshold(0.5);
        let mut last = det.survival_of(Ipv4(1));
        assert!(last < 0.5, "attack survival {last}");
        // Drive explicit gap minutes: reported survival must rise
        // monotonically toward 1.0 as the ZOH evidence goes stale, and no
        // alert may be raised on fully stale input.
        for m in 100..120u32 {
            let (_, s, ev) = det.observe_gap(Ipv4(1), m).expect("in-order gap");
            // Essentially monotone: the ZOH hazard can wobble slightly as
            // coarse buckets complete, but the blend must dominate.
            assert!(
                s >= last - 0.05,
                "minute {m}: blend regressed {last} -> {s}"
            );
            assert!(
                !ev.iter().any(|e| matches!(e, DetectorEvent::Raised(_))),
                "raised on stale input at minute {m}"
            );
            last = s;
        }
        assert!(last > 0.9, "fully stale survival {last}");
    }

    #[test]
    fn open_alert_ends_while_the_feed_is_dark() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        let mut raised = false;
        for m in 0..115u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            let (_, _, ev) = obs(&mut det, Ipv4(1), m, v);
            raised |= ev.iter().any(|e| matches!(e, DetectorEvent::Raised(_)));
        }
        assert!(raised, "surge never raised");
        // Feed goes dark mid-alert: the staleness blend must recover the
        // survival and end the alert without any real frame arriving.
        let mut ended_at = None;
        for m in 115..160u32 {
            let (_, _, ev) = det.observe_gap(Ipv4(1), m).expect("in-order gap");
            if let Some(DetectorEvent::Ended(a)) =
                ev.iter().find(|e| matches!(e, DetectorEvent::Ended(_)))
            {
                ended_at = Some(a.mitigation_end.unwrap());
                break;
            }
        }
        let ended_at = ended_at.expect("alert never ended during the outage");
        assert!(ended_at < 140, "alert lingered until {ended_at}");
    }

    #[test]
    fn long_gaps_cold_restart_the_customer() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // Get an alert open, then vanish for far longer than 3×window.
        for m in 0..110u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            obs(&mut det, Ipv4(1), m, v);
        }
        let (_, s, ev) = obs(&mut det, Ipv4(1), 500, 0.05);
        assert!(
            ev.iter().any(|e| matches!(e, DetectorEvent::Ended(_))),
            "cold restart must end the open alert"
        );
        assert!(s.is_finite());
        if xatu_obs::enabled() {
            assert_eq!(det.obs().cold_restarts.get(), 1);
            assert_eq!(det.obs().gaps_imputed.get(), 0);
        }
        // Re-warm-up: the restarted customer cannot alert immediately.
        // Minute 500 was its first post-restart observation, so the
        // warm-up window (two survival windows by default) covers minutes
        // 500..500+warmup-1.
        for m in 501..(500 + 2 * c.window as u32) {
            let (_, _, ev) = obs(&mut det, Ipv4(1), m, 2.0);
            assert!(ev.is_empty(), "alerted during re-warm-up at {m}");
        }
    }

    #[test]
    fn non_finite_frames_are_sanitized_not_propagated() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        for m in 0..40u32 {
            let mut f = frame(0.05);
            if m % 5 == 0 {
                f[0] = f64::NAN;
                f[17] = f64::INFINITY;
            }
            let (h, s, _) = det.observe(Ipv4(1), m, &f).expect("in-order");
            assert!(h.is_finite() && s.is_finite(), "minute {m}: {h} {s}");
        }
        assert!(det.survival_of(Ipv4(1)).is_finite());
        if xatu_obs::enabled() {
            assert_eq!(det.obs().values_sanitized.get(), 16);
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let c = cfg();
        let model = trained_model(&c);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &c);
        // A messy prefix: two customers, a surge, a gap, an open alert.
        for m in 0..130u32 {
            let v = if m >= 100 { 2.0 } else { 0.05 };
            if m != 57 && m != 58 {
                obs(&mut det, Ipv4(1), m, v);
            }
            obs(&mut det, Ipv4(2), m, 0.05);
        }
        let ck = det.to_checkpoint();
        let mut resumed = FleetDetector::from_checkpoint(&ck).expect("restore");
        // Continue both detectors through recovery and a second surge.
        for m in 130..260u32 {
            let v = if (180..200).contains(&m) { 2.0 } else { 0.05 };
            let (h1, s1, e1) = obs(&mut det, Ipv4(1), m, v);
            let (h2, s2, e2) = obs(&mut resumed, Ipv4(1), m, v);
            assert_eq!(h1.to_bits(), h2.to_bits(), "hazard diverged at {m}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "survival diverged at {m}");
            assert_eq!(e1, e2, "events diverged at {m}");
            let (_, s1b, _) = obs(&mut det, Ipv4(2), m, 0.05);
            let (_, s2b, _) = obs(&mut resumed, Ipv4(2), m, 0.05);
            assert_eq!(s1b.to_bits(), s2b.to_bits(), "customer 2 diverged at {m}");
        }
    }

    /// `XatuConfig::no_simd` reaches this front-end too: the detector
    /// reports the scalar level and scores the same bits as the auto one.
    #[test]
    fn no_simd_config_pins_scalar_and_matches_auto_bitwise() {
        let c = cfg();
        let model = trained_model(&c);
        let forced_cfg = XatuConfig { no_simd: true, ..c };
        let mut auto = FleetDetector::new(model.clone(), AttackType::UdpFlood, 0.5, &c);
        let mut forced = FleetDetector::new(model, AttackType::UdpFlood, 0.5, &forced_cfg);
        assert_eq!(auto.simd_level(), xatu_nn::simd::detect());
        assert_eq!(forced.simd_level(), SimdLevel::Scalar);
        for m in 0..160u32 {
            if m == 57 || m == 58 {
                continue; // a gap, so imputed catch-up rows are compared too
            }
            let v = if (100..130).contains(&m) { 2.0 } else { 0.05 };
            let (h1, s1, e1) = obs(&mut auto, Ipv4(1), m, v);
            let (h2, s2, e2) = obs(&mut forced, Ipv4(1), m, v);
            assert_eq!(h1.to_bits(), h2.to_bits(), "hazard diverged at {m}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "survival diverged at {m}");
            assert_eq!(e1, e2, "events diverged at {m}");
        }
        // A checkpoint does not carry the level: the resumed detector
        // follows the environment again.
        let resumed = FleetDetector::from_checkpoint(&forced.to_checkpoint()).expect("restore");
        assert_eq!(resumed.simd_level(), xatu_nn::simd::detect());
    }

    /// A companion whose normalizer is calibrated on this test's benign
    /// traffic (feature 0 at `0.05`). The autoencoder is untrained — the
    /// tests only need benign windows to score near 0 and attack windows
    /// near 1, which calibration alone guarantees.
    fn companion_for(c: &XatuConfig) -> Companion {
        use xatu_nn::init::Initializer;
        let ae = LstmAutoencoder::new(VOLUMETRIC_WIDTH, 4, &mut Initializer::new(3));
        let mut ws = AeWorkspace::new();
        let mut win = FrameArena::new(VOLUMETRIC_WIDTH);
        for _ in 0..c.window {
            let mut f = vec![0.0; VOLUMETRIC_WIDTH];
            f[0] = 0.05;
            win.push(&f);
        }
        let err = ae.reconstruction_error(&win, &mut ws);
        Companion {
            norm: ErrorNormalizer::from_benign_errors(&[err]),
            window: c.window,
            ae,
        }
    }

    /// Feature 0 surges over minutes 60..80.
    fn surge(m: u32) -> f64 {
        if (60..80).contains(&m) {
            2.0
        } else {
            0.05
        }
    }

    /// `det`'s stream on both paths: five customers each fed `frame(v(m))`
    /// and ticked with `dark(m)` before every minute, driven one
    /// customer-minute at a time through `observe` and, on copies, a whole
    /// minute at a time through `step_minute_batch` at 1 and 4 threads
    /// (four shards). Every event, every survival bit and the companion and
    /// survival telemetry must agree.
    fn assert_batch_matches_row(
        det: &FleetDetector,
        minutes: Range<u32>,
        v: impl Fn(u32) -> f64,
        dark: impl Fn(u32) -> bool,
    ) {
        let customers: Vec<Ipv4> = (1..=5).map(Ipv4).collect();
        let mut row = det.clone();
        for &cust in &customers {
            row.add_customer(cust);
        }
        let mut batch = [1, 4].map(|threads| (row.clone(), threads));
        for m in minutes {
            let f = frame(v(m));
            row.set_feed_degraded(dark(m));
            let mut events = Vec::new();
            for &cust in &customers {
                events.extend(row.observe(cust, m, &f).expect("in-order").2);
            }
            for (det, threads) in &mut batch {
                det.set_feed_degraded(dark(m));
                let got = det
                    .step_minute_batch(m, *threads, |_, _, buf| {
                        buf.copy_from_slice(&f);
                        FleetInput::Frame
                    })
                    .expect("in-order");
                assert_eq!(got, &events[..], "minute {m}, {threads} threads");
                for &cust in &customers {
                    assert_eq!(
                        det.survival_of(cust).to_bits(),
                        row.survival_of(cust).to_bits(),
                        "minute {m}, {threads} threads, {cust:?}"
                    );
                }
            }
        }
        if xatu_obs::enabled() {
            let want = row.obs();
            for (det, threads) in &batch {
                let got = det.obs();
                assert_eq!(
                    got.fusion_ae_minutes.get(),
                    want.fusion_ae_minutes.get(),
                    "{threads} threads"
                );
                assert_eq!(got.survival.counts(), want.survival.counts());
                assert_eq!(got.survival.sum().to_bits(), want.survival.sum().to_bits());
            }
        }
    }

    #[test]
    fn companion_scores_attacks_while_the_feed_is_dark() {
        let c = cfg();
        // Untrained survival model: any alert below must come from the
        // companion, via the full-degradation weight.
        let mut det = FleetDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 0.5, &c);
        det.set_companion(companion_for(&c));
        let start = det.clone();
        let mut raised_at = None;
        let mut ended_at = None;
        for m in 0..160u32 {
            det.set_feed_degraded(true);
            let v = if (60..80).contains(&m) { 2.0 } else { 0.05 };
            let (_, s, ev) = obs(&mut det, Ipv4(1), m, v);
            assert!(s.is_finite());
            for e in ev {
                match e {
                    DetectorEvent::Raised(a) if raised_at.is_none() => {
                        raised_at = Some(a.detected_at)
                    }
                    DetectorEvent::Ended(a) if ended_at.is_none() => ended_at = a.mitigation_end,
                    _ => {}
                }
            }
        }
        let raised_at = raised_at.expect("companion never raised during the surge");
        assert!(
            (60..80).contains(&raised_at),
            "companion raised at {raised_at}, surge was 60..80"
        );
        let ended_at = ended_at.expect("companion alert never ended");
        assert!(
            ended_at >= 80,
            "ended at {ended_at} before the surge cleared"
        );
        if xatu_obs::enabled() {
            assert_eq!(det.obs().fusion_engaged.get(), 1);
            assert_eq!(det.obs().fusion_recovered.get(), 0);
            // The ring fills after `window` minutes; every later minute is
            // companion-scored.
            assert_eq!(det.obs().fusion_ae_minutes.get(), 160 - c.window as u64 + 1);
        }
        assert_batch_matches_row(&start, 0..160, surge, |_| true);
    }

    #[test]
    fn companion_weight_ramps_down_over_the_rewarm_window() {
        let c = cfg();
        let mut det = FleetDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 0.5, &c);
        // Without a companion the ladder flag changes nothing.
        det.set_feed_degraded(true);
        assert_eq!(det.companion_weight(), 0.0);
        if xatu_obs::enabled() {
            assert_eq!(det.obs().fusion_engaged.get(), 0);
        }
        det.set_feed_degraded(false);

        det.set_companion(companion_for(&c));
        assert_eq!(det.companion_weight(), 0.0);
        det.set_feed_degraded(true);
        assert_eq!(det.companion_weight(), 1.0);
        det.set_feed_degraded(true);
        assert_eq!(det.companion_weight(), 1.0);
        // Recovery: full weight at the transition, then a strictly
        // decreasing ramp that reaches 0 and stays there.
        det.set_feed_degraded(false);
        let mut last = det.companion_weight();
        assert_eq!(last, 1.0);
        for _ in 0..2 * c.window {
            det.set_feed_degraded(false);
            let w = det.companion_weight();
            assert!(w <= last, "rewarm weight rose {last} -> {w}");
            last = w;
        }
        assert_eq!(last, 0.0);
        if xatu_obs::enabled() {
            assert_eq!(det.obs().fusion_engaged.get(), 1);
            assert_eq!(det.obs().fusion_recovered.get(), 1);
        }
        // The same ladder over a stream: dark up to the surge, ramping back
        // during it.
        let mut fresh = FleetDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 0.5, &c);
        fresh.set_companion(companion_for(&c));
        assert_batch_matches_row(&fresh, 0..160, surge, |m| (30..62).contains(&m));
    }

    #[test]
    fn companion_rings_rewarm_after_checkpoint_restore() {
        let c = cfg();
        let mut det = FleetDetector::new(XatuModel::new(&c), AttackType::UdpFlood, 0.5, &c);
        det.set_companion(companion_for(&c));
        for m in 0..40u32 {
            obs(&mut det, Ipv4(1), m, 0.05);
        }
        let ck = det.to_checkpoint();
        let mut resumed = FleetDetector::from_checkpoint(&ck).expect("restore");
        assert!(
            resumed.companion().is_none(),
            "companion is not checkpointed"
        );
        resumed.set_companion(companion_for(&c));
        let start = resumed.clone();
        for m in 40..80u32 {
            let (_, s, _) = resumed.observe(Ipv4(1), m, &frame(0.05)).expect("in-order");
            assert!(s.is_finite());
        }
        if xatu_obs::enabled() {
            // The restored ring starts empty: the first `window - 1`
            // resumed minutes pass through solo, then scoring resumes.
            assert_eq!(
                resumed.obs().fusion_ae_minutes.get(),
                40 - c.window as u64 + 1
            );
        }
        assert_batch_matches_row(&start, 40..80, |_| 0.05, |_| false);
    }
}
