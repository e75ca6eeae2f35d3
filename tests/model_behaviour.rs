//! Behavioural integration tests for the learning stack: synthetic worlds
//! where the correct model behaviour is known by construction.

use xatu::core::config::{LossKind, XatuConfig};
use xatu::core::model::XatuModel;
use xatu::core::sample::{Sample, SampleMeta};
use xatu::core::trainer::{score_trajectory, train};
use xatu::features::frame::{offsets, NUM_FEATURES};
use xatu::netflow::addr::Ipv4;
use xatu::netflow::attack::AttackType;

fn cfg() -> XatuConfig {
    XatuConfig {
        timescales: (1, 3, 6),
        short_len: 10,
        medium_len: 6,
        long_len: 4,
        window: 8,
        hidden: 6,
        epochs: 40,
        batch_size: 4,
        lr: 2e-2,
        ..XatuConfig::smoke_test()
    }
}

fn frame(v: f32, a2: f32) -> Vec<f32> {
    let mut f = vec![0.0f32; NUM_FEATURES];
    f[5] = v; // UDP bytes (volumetric)
    f[offsets::A2] = a2;
    f
}

/// A dataset where volume surges appear in BOTH classes, but only attacks
/// couple the surge with A2 (previous-attacker) activity. The model must
/// learn the conjunction — the paper's flash-crowd discrimination story.
fn conjunction_dataset(c: &XatuConfig, n: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    for i in 0..n {
        let label = i % 2 == 0;
        let window: Vec<Vec<f32>> = (0..c.window)
            .map(|t| {
                if t >= 3 {
                    // Surge in both classes; A2 only for attacks.
                    frame(2.0, if label { 1.5 } else { 0.0 })
                } else {
                    frame(0.1, 0.0)
                }
            })
            .collect();
        out.push(Sample {
            ctx: [
                vec![frame(0.1, 0.0); c.short_len],
                vec![frame(0.1, 0.0); c.medium_len],
                vec![frame(0.1, 0.0); c.long_len],
            ],
            lead: Vec::new(),
            window,
            label,
            event_step: c.window,
            anomaly_step: label.then_some(4),
            meta: SampleMeta {
                customer: Ipv4(i as u32),
                attack_type: AttackType::UdpFlood,
                window_start: 0,
            },
        });
    }
    out
}

#[test]
fn model_learns_surge_aux_conjunction() {
    let c = cfg();
    let mut model = XatuModel::new(&c);
    let data = conjunction_dataset(&c, 24);
    train(&mut model, &data, &c).expect("training succeeds");
    let mut atk = Vec::new();
    let mut flash = Vec::new();
    for s in &data {
        let traj = score_trajectory(&model, s, LossKind::Survival);
        let v = traj[c.window - 1];
        if s.label {
            atk.push(v);
        } else {
            flash.push(v);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&atk) + 0.25 < mean(&flash),
        "attack S {} vs flash-crowd S {} — conjunction not learned",
        mean(&atk),
        mean(&flash)
    );
}

#[test]
fn survival_mode_detects_earlier_than_event_step() {
    // With the SAFE loss, hazards should already be elevated at the
    // anomaly step, well before the (late) event step.
    let c = cfg();
    let mut model = XatuModel::new(&c);
    let data = conjunction_dataset(&c, 24);
    train(&mut model, &data, &c).expect("training succeeds");
    let attack = data.iter().find(|s| s.label).unwrap();
    let traj = score_trajectory(&model, attack, LossKind::Survival);
    // Survival at the anomaly step +1 is already depressed relative to the
    // pre-anomaly steps.
    assert!(traj[4] < traj[1], "no early depression: {:?}", traj);
}

#[test]
fn masked_aux_model_cannot_separate_conjunction() {
    // With A2 masked out, the two classes are identical by construction,
    // so the model must stay near chance — the Fig 12 no-aux story.
    let mut c = cfg();
    c.feature_mask = xatu::features::frame::FeatureMask::volumetric_only();
    let mut model = XatuModel::new(&c);
    let mut data = conjunction_dataset(&c, 24);
    for s in &mut data {
        // Apply the mask to the stored frames, as the pipeline does at
        // extraction time.
        for f in s.ctx.iter_mut().chain([&mut s.window]).flatten() {
            for v in f[offsets::A2..offsets::A3].iter_mut() {
                *v = 0.0;
            }
        }
    }
    train(&mut model, &data, &c).expect("training succeeds");
    let mut atk = Vec::new();
    let mut flash = Vec::new();
    for s in &data {
        let traj = score_trajectory(&model, s, LossKind::Survival);
        let v = traj[c.window - 1];
        if s.label {
            atk.push(v);
        } else {
            flash.push(v);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        (mean(&atk) - mean(&flash)).abs() < 0.15,
        "identical inputs must not separate: {} vs {}",
        mean(&atk),
        mean(&flash)
    );
}
