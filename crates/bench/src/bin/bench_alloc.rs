//! Allocation + wall-clock profile of the training hot path.
//!
//! Wraps the global allocator in a counting shim and measures, for a
//! default-geometry model (273 features, hidden 24, window 30, context
//! 90/108/240) on a synthetic balanced dataset:
//!
//! * heap allocations and wall-clock **per training epoch** (the full
//!   `train` loop: forward + backward + reduce + Adam),
//! * heap allocations of **one steady-state forward+backward** on a warm
//!   model — the quantity the arena/workspace refactor drives to zero.
//!
//! The serving side is measured elsewhere: zero allocations per fleet
//! minute is `crates/core/tests/alloc_budget.rs`'s gate, and the time per
//! customer-minute is `bench_e2e`'s `core.fleet.step_us_per_customer_minute`.
//!
//! ```text
//! cargo run --release -p xatu-bench --bin bench_alloc -- [label] [samples] [epochs]
//! ```
//!
//! Writes `BENCH_alloc_<label>.json`. The committed `BENCH_alloc.json`
//! combines a pre-refactor `before` run with the current `after` run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xatu_bench::json::Value;
use xatu_core::config::XatuConfig;
use xatu_core::model::{ForwardTrace, ModelWorkspace, XatuModel};
use xatu_core::sample::{Sample, SampleMeta, WideSample};
use xatu_core::trainer::train;
use xatu_features::frame::NUM_FEATURES;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;

/// Counts every allocation and allocated byte that goes through the global
/// allocator. Realloc counts as one allocation (it may move).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        xatu_obs::alloc_hook::note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        xatu_obs::alloc_hook::note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn cfg(epochs: usize) -> XatuConfig {
    XatuConfig {
        epochs,
        threads: 1,
        ..XatuConfig::default()
    }
}

/// Deterministic synthetic dataset at default geometry: positives carry a
/// ramp in feature 0 inside the window.
fn dataset(c: &XatuConfig, n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let label = i % 2 == 0;
            let frame = |v: f32| -> Vec<f32> {
                let mut f = vec![0.0f32; NUM_FEATURES];
                f[0] = v;
                f[1] = 0.1;
                f
            };
            let window: Vec<Vec<f32>> = (0..c.window)
                .map(|t| {
                    if label && t >= 4 {
                        frame(1.0 + t as f32 * 0.2)
                    } else {
                        frame(0.05 * ((i + t) % 3) as f32)
                    }
                })
                .collect();
            Sample {
                ctx: [
                    vec![frame(0.02); c.short_len],
                    vec![frame(0.02); c.medium_len],
                    vec![frame(0.02); c.long_len],
                ],
                lead: Vec::new(),
                window,
                label,
                event_step: if label { c.window - 1 } else { c.window },
                anomaly_step: label.then_some(5),
                meta: SampleMeta {
                    customer: Ipv4(i as u32),
                    attack_type: AttackType::UdpFlood,
                    window_start: 0,
                },
            }
        })
        .collect()
}

/// Allocations of one forward+backward on a warm model (steady state):
/// runs the pass twice to warm trace, workspace and gradient buffers, then
/// counts a third pass through the same reused memory — the path the
/// trainer's per-worker loop takes.
fn steady_state_allocs(c: &XatuConfig, sample: &Sample) -> (u64, u64) {
    let mut model = XatuModel::new(c);
    let wide = WideSample::from_sample(sample);
    let mut trace = ForwardTrace::default();
    let mut ws = ModelWorkspace::default();
    // Hazards are deterministic for fixed parameters (backward only
    // accumulates gradients), so the loss gradient can be computed once
    // outside the counted region — the counted quantity is the model's
    // forward+backward alone, matching tests/alloc_budget.rs.
    model.forward_wide(&wide, &mut trace);
    let g = xatu_survival::safe_loss::safe_loss_and_grad(
        &trace.hazards,
        sample.label,
        sample.event_step,
    );
    let run = |model: &mut XatuModel, trace: &mut ForwardTrace, ws: &mut ModelWorkspace| {
        model.forward_wide(&wide, trace);
        model.backward_with(trace, Some(&g.dl_dhazard), None, false, ws);
    };
    run(&mut model, &mut trace, &mut ws); // cold backward (workspace grows)
    run(&mut model, &mut trace, &mut ws); // settle Vec amortization
    let (c0, b0) = snapshot();
    run(&mut model, &mut trace, &mut ws);
    let (c1, b1) = snapshot();
    (c1 - c0, b1 - b0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let label = args
        .first()
        .map(String::as_str)
        .unwrap_or("current")
        .to_string();
    let n_samples: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let epochs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    let c = cfg(epochs);
    let samples = dataset(&c, n_samples);

    // Steady-state forward+backward (the alloc-budget quantity).
    let (ss_allocs, ss_bytes) = steady_state_allocs(&c, &samples[0]);

    // Full training run: allocations + wall per epoch.
    let mut model = XatuModel::new(&c);
    let (a0, b0) = snapshot();
    let start = Instant::now();
    let stats = train(&mut model, &samples, &c).expect("training succeeds");
    let wall = start.elapsed().as_secs_f64();
    let (a1, b1) = snapshot();
    assert_eq!(stats.len(), epochs);

    let allocs_per_epoch = (a1 - a0) as f64 / epochs as f64;
    let bytes_per_epoch = (b1 - b0) as f64 / epochs as f64;
    let wall_per_epoch = wall / epochs as f64;

    let json = Value::Obj(vec![
        ("label", Value::str(&label)),
        (
            "geometry",
            Value::str("273 features, hidden 24, window 30, ctx 90/108/240"),
        ),
        ("samples", Value::num(n_samples)),
        ("epochs", Value::num(epochs)),
        ("steady_state_fwd_bwd_allocations", Value::num(ss_allocs)),
        ("steady_state_fwd_bwd_bytes", Value::num(ss_bytes)),
        ("allocations_per_epoch", Value::fixed(allocs_per_epoch, 0)),
        ("bytes_per_epoch", Value::fixed(bytes_per_epoch, 0)),
        ("wall_seconds_per_epoch", Value::fixed(wall_per_epoch, 4)),
        (
            "final_mean_loss",
            Value::fixed(stats.last().map_or(f64::NAN, |s| s.mean_loss), 6),
        ),
    ])
    .render();
    let path = format!("BENCH_alloc_{label}.json");
    std::fs::write(&path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("[bench_alloc] wrote {path}");
}
