//! Allocation-budget regression tests for the training hot path.
//!
//! This integration test is its own binary, so its counting
//! `#[global_allocator]` sees exactly this file's work. Both measurements
//! live in one `#[test]` — the harness would otherwise interleave
//! allocations from concurrently-running tests into the counters.
//!
//! Pinned invariants:
//!
//! * **Steady state is allocation-free**: a warm forward+backward
//!   (`forward_wide` into a reused trace, `backward_with` against a reused
//!   workspace) performs **zero** heap allocations. Any regression — a
//!   stray `Vec` in a step loop, a clone in BPTT — fails this exactly.
//! * **Cold start is bounded**: the first pass may allocate (arenas grow
//!   once), but within a pinned byte ceiling, so trace/workspace bloat
//!   can't creep in silently.
//! * **Serving is allocation-free on every front-end**: a warm fleet
//!   minute at 1 and 4 threads, and a warm
//!   `FleetDetector` observation, perform zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xatu_core::config::XatuConfig;
use xatu_core::fleet::{FleetDetector, FleetInput};
use xatu_core::model::{ForwardTrace, ModelWorkspace, XatuModel};
use xatu_core::sample::{Sample, SampleMeta, WideSample};
use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::init::Initializer;
use xatu_nn::{AeWorkspace, FrameArena, LstmAutoencoder};
use xatu_survival::safe_loss::safe_loss_and_grad;

struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

/// One attack-shaped sample at the paper's default geometry.
fn sample(c: &XatuConfig) -> Sample {
    let frame = |v: f32| -> Vec<f32> {
        let mut f = vec![0.0f32; NUM_FEATURES];
        f[0] = v;
        f[1] = 0.1;
        f
    };
    Sample {
        short: vec![frame(0.02); c.short_len],
        medium: vec![frame(0.02); c.medium_len],
        long: vec![frame(0.02); c.long_len],
        window: (0..c.window)
            .map(|t| frame(if t >= 4 { 1.0 + t as f32 * 0.2 } else { 0.05 }))
            .collect(),
        label: true,
        event_step: c.window - 1,
        anomaly_step: Some(5),
        meta: SampleMeta {
            customer: Ipv4(1),
            attack_type: AttackType::UdpFlood,
            window_start: 0,
        },
    }
}

#[test]
fn hot_path_allocation_budget() {
    let c = XatuConfig::default();
    let mut model = XatuModel::new(&c);
    let s = sample(&c);
    let wide = WideSample::from_sample(&s);
    let mut trace = ForwardTrace::default();
    let mut ws = ModelWorkspace::default();

    // --- Cold pass: arenas and workspaces grow exactly once. ---
    let (c0, b0) = snapshot();
    model.forward_wide(&wide, &mut trace);
    let g = safe_loss_and_grad(&trace.hazards, s.label, s.event_step);
    model.backward_with(&trace, Some(&g.dl_dhazard), None, false, &mut ws);
    let (c1, b1) = snapshot();
    let cold_bytes = b1 - b0;
    // Default geometry (273 features, hidden 24, window 30, ctx
    // 90/108/240) measures ~1.6 MB of cold buffer growth; the ceiling
    // leaves headroom for allocator rounding but catches structural bloat.
    assert!(
        cold_bytes < 4_000_000,
        "cold forward+backward grew {cold_bytes} bytes (allocs: {})",
        c1 - c0
    );

    // Second warm-up pass: Vec growth amortization (doubling) must settle.
    model.forward_wide(&wide, &mut trace);
    model.backward_with(&trace, Some(&g.dl_dhazard), None, false, &mut ws);

    // --- Steady state: zero heap allocations, the refactor's contract. ---
    let (c2, b2) = snapshot();
    model.forward_wide(&wide, &mut trace);
    model.backward_with(&trace, Some(&g.dl_dhazard), None, false, &mut ws);
    let (c3, b3) = snapshot();
    assert_eq!(
        c3 - c2,
        0,
        "steady-state forward+backward allocated {} times ({} bytes)",
        c3 - c2,
        b3 - b2
    );

    // The attribution variant (want_dx) must also be steady-state free.
    model.backward_with(&trace, Some(&g.dl_dhazard), None, true, &mut ws);
    let (c4, _) = snapshot();
    model.forward_wide(&wide, &mut trace);
    model.backward_with(&trace, Some(&g.dl_dhazard), None, true, &mut ws);
    let (c5, _) = snapshot();
    assert_eq!(c5 - c4, 0, "want_dx steady state allocated {}", c5 - c4);

    // --- Autoencoder companion: same contract, same gate. ---
    let mut ae = LstmAutoencoder::new(VOLUMETRIC_WIDTH, 16, &mut Initializer::new(9));
    ae.ensure_grads();
    let mut window = FrameArena::new(VOLUMETRIC_WIDTH);
    for t in 0..c.window {
        let mut f = vec![0.0; VOLUMETRIC_WIDTH];
        f[0] = 0.05 + t as f64 * 0.01;
        window.push(&f);
    }
    let mut ae_ws = AeWorkspace::new();

    // Cold pass: traces and workspaces grow once, within a pinned ceiling.
    let (a0, ab0) = snapshot();
    ae.reconstruction_error(&window, &mut ae_ws);
    ae.loss_and_grad(&window, &mut ae_ws);
    let (a1, ab1) = snapshot();
    let ae_cold = ab1 - ab0;
    assert!(
        ae_cold < 2_000_000,
        "cold autoencoder forward+backward grew {ae_cold} bytes (allocs: {})",
        a1 - a0
    );

    // Warm-up pass, then the steady state must be allocation-free for both
    // scoring (forward only) and training (forward+backward).
    ae.reconstruction_error(&window, &mut ae_ws);
    ae.loss_and_grad(&window, &mut ae_ws);
    let (a2, ab2) = snapshot();
    ae.reconstruction_error(&window, &mut ae_ws);
    ae.loss_and_grad(&window, &mut ae_ws);
    let (a3, ab3) = snapshot();
    assert_eq!(
        a3 - a2,
        0,
        "steady-state autoencoder pass allocated {} times ({} bytes)",
        a3 - a2,
        ab3 - ab2
    );

    // --- Fleet batch step: zero steady-state allocations at any thread
    // count. The sharded path's range buffer, shard cursor, task slots
    // and worker pool are all reused scratch, so a warm minute performs
    // no heap allocation even at `threads = 4` — the counting allocator
    // is process-global, so pool-thread allocations would be caught too.
    let fleet_cfg = XatuConfig::smoke_test();
    let fleet_model = XatuModel::new(&fleet_cfg);
    // Threshold 0.0: survival can never go below it, so no alert ever
    // raises and the lifecycle event buffers stay empty (asserted below —
    // an event push would be a legitimate allocation, not a regression).
    let mut fleet = FleetDetector::new(fleet_model, AttackType::UdpFlood, 0.0, &fleet_cfg);
    for i in 0..32u32 {
        fleet.add_customer(Ipv4(0x0a00_0000 + i));
    }
    let fill = |_i: usize, _a: Ipv4, frame: &mut [f64]| {
        frame.fill(0.0);
        frame[0] = 0.02;
        frame[1] = 0.1;
        FleetInput::Frame
    };
    // Warm-up: single-thread minutes grow worker 0's workspace for the
    // full-fleet batch, then sharded minutes spawn the pool, size the
    // range scratch, and cover full medium/long pooling cycles so every
    // boundary-minute code path has run at least once per shard width.
    for m in 0..60 {
        fleet.step_minute_batch(m, 1, fill).unwrap();
    }
    for m in 60..180 {
        fleet.step_minute_batch(m, 4, fill).unwrap();
    }
    // Steady state, single-threaded: a full long-granularity cycle.
    let (f0, fb0) = snapshot();
    for m in 180..240 {
        let events = fleet.step_minute_batch(m, 1, fill).unwrap();
        assert!(events.is_empty(), "unexpected lifecycle event at {m}");
    }
    let (f1, fb1) = snapshot();
    assert_eq!(
        f1 - f0,
        0,
        "steady-state fleet minutes (threads = 1) allocated {} times ({} bytes)",
        f1 - f0,
        fb1 - fb0
    );
    // Steady state, sharded: same cycle at 4 threads.
    let (f2, fb2) = snapshot();
    for m in 240..300 {
        let events = fleet.step_minute_batch(m, 4, fill).unwrap();
        assert!(events.is_empty(), "unexpected lifecycle event at {m}");
    }
    let (f3, fb3) = snapshot();
    assert_eq!(
        f3 - f2,
        0,
        "steady-state fleet minutes (threads = 4) allocated {} times ({} bytes)",
        f3 - f2,
        fb3 - fb2
    );

    // --- FleetDetector::observe: a warm customer's minute with no lifecycle
    // event allocates nothing — the returned empty `Vec<DetectorEvent>`
    // does not touch the heap, and a completed pooling bucket is averaged
    // in place. Real and imputed minutes both, over full medium/long
    // pooling cycles.
    let mut online = FleetDetector::new(
        XatuModel::new(&fleet_cfg),
        AttackType::UdpFlood,
        0.0,
        &fleet_cfg,
    );
    let customer = Ipv4(0x0a00_0001);
    let mut online_frame = vec![0.0; NUM_FEATURES];
    online_frame[0] = 0.02;
    online_frame[1] = 0.1;
    let drive = |online: &mut FleetDetector, m: u32| {
        let (_, _, events) = if m % 7 == 3 {
            online.observe_gap(customer, m).unwrap()
        } else {
            online.observe(customer, m, &online_frame).unwrap()
        };
        assert!(events.is_empty(), "unexpected lifecycle event at {m}");
    };
    for m in 0..120 {
        drive(&mut online, m);
    }
    let (o0, ob0) = snapshot();
    for m in 120..240 {
        drive(&mut online, m);
    }
    let (o1, ob1) = snapshot();
    assert_eq!(
        o1 - o0,
        0,
        "warm FleetDetector::observe minutes allocated {} times ({} bytes)",
        o1 - o0,
        ob1 - ob0
    );
}
