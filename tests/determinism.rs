//! Thread-count invariance: every parallel layer (minibatch training,
//! feature extraction, FastNetMon replay, calibration sweep) must produce
//! bit-identical results whether it runs on one thread or many. These
//! tests pin that contract by running the same seeded work at
//! `threads = 1` and `threads = 4` and comparing raw `f64` bit patterns —
//! no tolerances, no "close enough".

use xatu::core::config::XatuConfig;
use xatu::core::model::XatuModel;
use xatu::core::pipeline::{Pipeline, PipelineConfig};
use xatu::core::sample::{Sample, SampleMeta};
use xatu::core::trainer::train;
use xatu::features::frame::{offsets, NUM_FEATURES};
use xatu::netflow::addr::Ipv4;
use xatu::netflow::attack::AttackType;
use xatu::nn::Params;

fn train_cfg(threads: usize) -> XatuConfig {
    XatuConfig {
        timescales: (1, 3, 6),
        short_len: 8,
        medium_len: 6,
        long_len: 4,
        window: 6,
        hidden: 6,
        epochs: 12,
        batch_size: 4,
        lr: 2e-2,
        threads,
        ..XatuConfig::smoke_test()
    }
}

/// A small labelled dataset with signal in one A2 feature — enough to make
/// gradients non-trivial so reduction-order bugs cannot hide behind zeros.
fn dataset(c: &XatuConfig, n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let label = i % 2 == 0;
            let frame = |a2: f32| -> Vec<f32> {
                let mut f = vec![0.0f32; NUM_FEATURES];
                f[offsets::A2] = a2;
                f[0] = 0.3 + 0.1 * (i % 3) as f32;
                f
            };
            let hot = if label { 1.2 } else { 0.0 };
            Sample {
                ctx: [
                    vec![frame(hot); c.short_len],
                    vec![frame(hot); c.medium_len],
                    vec![frame(0.0); c.long_len],
                ],
                lead: Vec::new(),
                window: vec![frame(hot); c.window],
                label,
                event_step: c.window,
                anomaly_step: label.then_some(2),
                meta: SampleMeta {
                    customer: Ipv4(i as u32),
                    attack_type: AttackType::UdpFlood,
                    window_start: 0,
                },
            }
        })
        .collect()
}

fn params_bits(model: &mut XatuModel) -> Vec<u64> {
    let n = model.param_count();
    let mut buf = vec![0.0f64; n];
    model.export_params_into(&mut buf);
    buf.into_iter().map(f64::to_bits).collect()
}

#[test]
fn training_is_bitwise_identical_across_thread_counts() {
    let run = |threads: usize| {
        let cfg = train_cfg(threads);
        let samples = dataset(&cfg, 12);
        let mut model = XatuModel::new(&cfg);
        let stats = train(&mut model, &samples, &cfg).expect("training succeeds");
        (params_bits(&mut model), stats)
    };
    let (p1, s1) = run(1);
    let (p4, s4) = run(4);
    assert_eq!(p1, p4, "trained parameters diverge between 1 and 4 threads");
    for (a, b) in s1.iter().zip(&s4) {
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        assert_eq!(a.mean_grad_norm.to_bits(), b.mean_grad_norm.to_bits());
    }
}

#[test]
fn prepare_is_bitwise_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut cfg = PipelineConfig::smoke_test(11);
        cfg.with_fnm = true;
        cfg.xatu.threads = threads;
        Pipeline::new(cfg).prepare()
    };
    let mut a = run(1);
    let mut b = run(4);

    assert_eq!(a.cdet_alerts, b.cdet_alerts, "CDet alert streams diverge");
    assert_eq!(
        a.fnm_alerts, b.fnm_alerts,
        "FastNetMon alert streams diverge"
    );
    assert_eq!(a.ground_truth.len(), b.ground_truth.len());
    for (x, y) in a.ground_truth.iter().zip(&b.ground_truth) {
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }

    assert_eq!(a.models.len(), b.models.len());
    for ((ty_a, ma), (ty_b, mb)) in a.models.iter_mut().zip(b.models.iter_mut()) {
        assert_eq!(ty_a, ty_b);
        assert_eq!(
            params_bits(ma),
            params_bits(mb),
            "model parameters for {ty_a:?} diverge between thread counts"
        );
    }

    // Validation scores feed calibration; their summary statistics are a
    // bit-exact fingerprint of the whole phase-B extraction + scoring path.
    let (min_a, mean_a, frac_a) = a.val_score_stats();
    let (min_b, mean_b, frac_b) = b.val_score_stats();
    assert_eq!(min_a.to_bits(), min_b.to_bits());
    assert_eq!(mean_a.to_bits(), mean_b.to_bits());
    assert_eq!(frac_a.to_bits(), frac_b.to_bits());

    // Calibration (the parallel threshold sweep) and the test run must
    // agree too — the report renders every per-system metric.
    let ra = a.evaluate(0.01);
    let rb = b.evaluate(0.01);
    assert_eq!(ra.xatu_thresholds, rb.xatu_thresholds);
    assert_eq!(ra.summary(), rb.summary());
}
