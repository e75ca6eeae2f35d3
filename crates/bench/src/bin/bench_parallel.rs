//! Wall-clock scaling harness for the data-parallel execution layers.
//!
//! Runs the full end-to-end `Pipeline::run` on one preset at a list of
//! thread counts, times each run, checks that every run produced the
//! identical report (the determinism contract), and writes the results to
//! `BENCH_parallel.json` in the current directory.
//!
//! ```text
//! cargo run --release -p xatu-bench --bin bench_parallel -- [preset] [threads...]
//! ```
//!
//! Defaults: preset `default_eval`, threads `1 2 4 8`. Presets:
//! `default_eval`, `sweep`, `mini`, `smoke_test`.

use std::time::Instant;
use xatu_core::pipeline::{Pipeline, PipelineConfig};

fn preset_cfg(preset: &str, seed: u64) -> PipelineConfig {
    match preset {
        "default_eval" => PipelineConfig::default_eval(seed),
        "sweep" => PipelineConfig::sweep(seed),
        "mini" => PipelineConfig::mini(seed),
        "smoke_test" => PipelineConfig::smoke_test(seed),
        other => panic!("unknown preset {other:?} (default_eval|sweep|mini|smoke_test)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = args
        .first()
        .map(String::as_str)
        .unwrap_or("default_eval")
        .to_string();
    let threads: Vec<usize> = if args.len() > 1 {
        args[1..]
            .iter()
            .map(|s| s.parse().expect("thread count must be an integer"))
            .collect()
    } else {
        vec![1, 2, 4, 8]
    };
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    eprintln!("[bench_parallel] preset={preset} threads={threads:?} host_cores={host_cores}");

    let mut timings: Vec<(usize, f64)> = Vec::new();
    let mut reference_summary: Option<String> = None;
    let mut identical = true;
    for &t in &threads {
        let mut cfg = preset_cfg(&preset, 1);
        cfg.xatu.threads = t;
        let start = Instant::now();
        let report = Pipeline::new(cfg).run();
        let secs = start.elapsed().as_secs_f64();
        let summary = report.summary();
        match &reference_summary {
            None => reference_summary = Some(summary),
            Some(reference) => {
                if *reference != summary {
                    identical = false;
                    eprintln!(
                        "[bench_parallel] WARNING: report at t={t} diverges from t={}",
                        threads[0]
                    );
                }
            }
        }
        eprintln!("[bench_parallel] threads={t} wall={secs:.2}s");
        timings.push((t, secs));
    }

    let base = timings
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|&(_, s)| s)
        .unwrap_or(timings[0].1);
    let mut entries = String::new();
    for (i, (t, secs)) in timings.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"threads\": {t}, \"wall_seconds\": {secs:.4}, \"speedup_vs_1\": {:.4}}}",
            base / secs
        ));
    }
    let json = format!(
        "{{\n  \"preset\": \"{preset}\",\n  \"host_cores\": {host_cores},\n  \
         \"identical_reports_across_thread_counts\": {identical},\n  \"runs\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("{json}");
}
