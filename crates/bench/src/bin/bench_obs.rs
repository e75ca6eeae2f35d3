//! Telemetry snapshot dump + determinism probe.
//!
//! Runs the seeded smoke-scale pipeline end to end with telemetry enabled
//! and writes the full [`xatu_obs`] snapshot (digest first) to
//! `BENCH_obs_<label>.json`. The same prepared-and-evaluated run is then
//! repeated at a different worker count; the binary exits non-zero if the
//! two digests differ, so a CI invocation doubles as the snapshot
//! determinism check from DESIGN.md §11.
//!
//! ```text
//! cargo run --release -p xatu-bench --bin bench_obs -- [label] [seed]
//! ```
//!
//! The committed `BENCH_obs.json` is one such dump (default label/seed).

use xatu_core::pipeline::{EvalReport, Pipeline, PipelineConfig};

/// Prepares and evaluates the seeded smoke pipeline at a fixed worker
/// count, returning the report whose `obs` snapshot stitches phase A/B,
/// training, calibration and the test run.
fn run(seed: u64, threads: usize) -> EvalReport {
    let mut cfg = PipelineConfig::smoke_test(seed);
    cfg.with_fnm = true;
    cfg.xatu.threads = threads;
    Pipeline::new(cfg).prepare().evaluate(0.01)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let label = args
        .first()
        .map(String::as_str)
        .unwrap_or("current")
        .to_string();
    // Seed 9 by default: a smoke world where a model trains and the online
    // detector fires, so the dumped snapshot shows every section populated.
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(9);

    if !xatu_obs::enabled() {
        eprintln!("[bench_obs] built without the `obs` feature; snapshot will be empty");
    }

    let report = run(seed, 1);
    let digest = report.obs.digest();

    let json = report.telemetry_json();
    let path = format!("BENCH_obs_{label}.json");
    std::fs::write(&path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("[bench_obs] wrote {path}");
    eprintln!(
        "[bench_obs] digest={digest:016x} events={} counters: frames_a={} frames_b={} alerts={}",
        report.obs.events.len(),
        report.obs.counter("features.frames_phase_a"),
        report.obs.counter("features.frames_phase_b"),
        report.obs.counter("online.alerts_raised"),
    );

    // Cross-thread determinism: the digest covers counters, gauges,
    // histograms and the event sequence (wall-clock and alloc counts are
    // exempt), so it must be bit-identical at any worker count.
    let report4 = run(seed, 4);
    if report4.obs.digest() != digest {
        eprintln!(
            "[bench_obs] DIGEST MISMATCH: t1={digest:016x} t4={:016x}",
            report4.obs.digest()
        );
        std::process::exit(1);
    }
    eprintln!("[bench_obs] digest identical at threads=1 and threads=4");
}
