//! Deterministic telemetry for the Xatu workspace.
//!
//! Xatu runs *beside* a commercial detector at an ISP (§2.1, §5.3 of the
//! paper), so the pipeline's health — epoch losses, calibration sweeps,
//! alert lifecycles, scrubbing-overhead distributions — must be observable
//! in production without perturbing the computation it observes. This crate
//! is the workspace's telemetry substrate, built around two contracts:
//!
//! 1. **Determinism.** Everything that enters the snapshot [`digest`]
//!    (counters, gauges, histograms, the event sequence) must be
//!    **bit-identical for every thread count**, the same contract
//!    `xatu-par` pins for the computation itself. Quantities that cannot
//!    satisfy this — wall-clock timings, allocation counts observed under
//!    a concurrent scheduler — go into the *wall* and *volatile* sections,
//!    which are exported in snapshots but excluded from the digest.
//!    Per-worker aggregation follows the `xatu-par` recipe: each worker
//!    owns its own state and results are stitched in worker-index order
//!    ([`Snapshot::absorb`], [`FixedHistogram::merge`]).
//! 2. **Compile-out.** With the `obs` cargo feature disabled (default on),
//!    every recording method is a no-op, sinks are never invoked, and
//!    snapshots are empty. Both paths are always type-checked — gating is
//!    `cfg!`, not `#[cfg]` item surgery — so the no-op build cannot rot.
//!
//! Structured events additionally stream through a [`Sink`]: the pipeline
//! routes its former ad-hoc `eprintln!` diagnostics through
//! [`StderrSink`] when verbose, and [`NullSink`] (or no sink) otherwise.
//!
//! Nothing here depends on any external crate.

pub mod event;
pub mod hist;
pub mod registry;

pub use event::{FieldValue, NullSink, ObsEvent, Sink, StderrSink};
pub use hist::FixedHistogram;
pub use registry::{HistSnapshot, Registry, Snapshot, TimingSnapshot};

/// True when the `obs` feature is compiled in (recording is live).
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

/// A monotone event counter.
///
/// Embeds directly in hot-path structs (the packet sampler, the online
/// detector): an increment is one integer add with no allocation, and with
/// the `obs` feature off it compiles to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        if enabled() {
            self.0 += 1;
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        if enabled() {
            self.0 += n;
        }
    }

    /// The current count (always 0 with the feature disabled).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Zeroes the counter in place — used when per-worker telemetry is
    /// folded into an aggregate between batches and reused.
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

/// A last-value-wins gauge for deterministic `f64` readings.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(0.0)
    }

    /// Records a reading.
    #[inline]
    pub fn set(&mut self, v: f64) {
        if enabled() {
            self.0 = v;
        }
    }

    /// The last reading (0.0 with the feature disabled).
    #[inline]
    pub fn get(&self) -> f64 {
        self.0
    }
}

/// Histogram bounds for survival probabilities in [0, 1]: log-dense near 0
/// (where a sharp model collapses during attacks) and near 1 (quiet
/// traffic).
pub const SURVIVAL_BOUNDS: &[f64] = &[1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

/// Histogram bounds for per-customer scrubbing-overhead ratios.
pub const OVERHEAD_BOUNDS: &[f64] = &[1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0];

/// Histogram bounds for consecutive-missing-minute run lengths seen by the
/// degraded online detector (fault injection): short blips, window-scale
/// gaps, and hour-plus collector outages land in separate buckets.
pub const GAP_RUN_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 360.0];

/// Global allocation-observation hook.
///
/// The workspace's benchmark binaries install counting global allocators
/// (`bench_alloc`, `tests/alloc_budget.rs`); when they also feed this hook,
/// instrumented code (the trainer's per-epoch stats) can report allocation
/// deltas in its *volatile* telemetry without owning the allocator itself.
/// In ordinary builds nothing feeds the hook and the deltas read 0.
pub mod alloc_hook {
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Records one allocation of `bytes` bytes. Safe to call from a
    /// `GlobalAlloc` implementation: one relaxed atomic add, no allocation.
    #[inline]
    pub fn note_alloc(bytes: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Total allocations observed so far.
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Total bytes observed so far.
    pub fn bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        if enabled() {
            assert_eq!(c.get(), 5);
        } else {
            assert_eq!(c.get(), 0);
        }
    }

    #[test]
    fn gauge_keeps_last_value() {
        let mut g = Gauge::new();
        g.set(1.5);
        g.set(-2.25);
        if enabled() {
            assert_eq!(g.get(), -2.25);
        } else {
            assert_eq!(g.get(), 0.0);
        }
    }

    #[test]
    fn alloc_hook_accumulates() {
        let before = alloc_hook::allocs();
        alloc_hook::note_alloc(64);
        assert_eq!(alloc_hook::allocs(), before + 1);
        assert!(alloc_hook::bytes() >= 64);
    }
}
