//! `bench_e2e`: one benchmark from NetFlow v5 bytes to alerts.
//!
//! Replays deterministic, seed-derived v5 wire bytes through the layers'
//! public functions — decode, minute binning, CDet feed, tracker writes,
//! 273-feature extraction, six per-type fleets — and reports named
//! end-to-end metrics, or, in a traced run, named per-layer metrics. See
//! the README beside this package for the tables, the workloads and the
//! command lines.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench_e2e --smoke
//! bench_e2e --all   [--seed <n>] [--seconds <s>] [--repeats <k>] [--out <file>]
//! bench_e2e --check <baseline.json>
//! ```

mod gen;
mod replay;
mod report;
mod run;
mod stats;
mod suite;
mod trace;
mod wire;
mod workloads;

use report::{
    best_timed_wall_ms, print_summary, result_line, summarize, summary_value, Json, Summary,
};
use run::{run_pass, PassOpts, PassResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{spec, Scale, Spec, WORKLOADS};

/// Seed of the committed baseline. A claim must also hold at another.
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// Untraced passes an end-to-end run makes at least: the per-minute best
/// of three passes drops the interference spikes of any one of them.
const MIN_PASSES: usize = 3;

/// Where run files, traces and the checkpoint scratch file go: beside the
/// executable, so inside the build directory and nowhere else.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let dir = exe
        .parent()
        .expect("the executable sits in a directory")
        .join("bench_e2e_out");
    std::fs::create_dir_all(&dir).expect("the build directory is writable");
    dir
}

/// A pass that still lowered the per-minute best by more than this share
/// says the host is noisy: the run goes on past `--seconds`.
const SETTLED_GAIN: f64 = 0.01;
/// … but never past this multiple of `--seconds` of timed wall.
const UNSETTLED_CAP: f64 = 1.8;

/// Runs one workload: passes of the same seed until `seconds` of timed
/// wall have been measured and — in an end-to-end run — until the last
/// pass no longer moved the per-minute best, so a quiet host stops on time
/// and a noisy one gets more chances at a clean reading of each minute.
/// Without `trace` every pass is untraced; with it, untraced and traced
/// passes alternate, so the traced numbers have an untraced twin to give
/// the tracing overhead.
fn run_workload(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_passes: usize,
    dir: &Path,
) -> Summary {
    let mut passes: Vec<PassResult> = Vec::new();
    let mut timed_s = 0.0;
    let mut settled = trace;
    while passes.len() < min_passes
        || timed_s < seconds
        || (!settled && timed_s < UNSETTLED_CAP * seconds)
    {
        let opts = PassOpts {
            traced: trace && passes.len() % 2 == 1,
            // The first pass carries the `OnlineDetector` reference; later
            // passes must reproduce its digest.
            reference: passes.is_empty(),
            out_dir: dir,
        };
        let p = run_pass(spec, seed, &opts);
        timed_s += p.timed_wall_s();
        passes.push(p);
        if !trace && passes.len() > 1 {
            let before = best_timed_wall_ms(&passes[..passes.len() - 1]);
            let after = best_timed_wall_ms(&passes);
            settled = (before - after) / after < SETTLED_GAIN;
        }
    }
    summarize(spec, seed, &passes)
}

fn write_run_files(
    s: &Summary,
    spans: Option<&[trace::Span]>,
    seconds: u64,
    trace: bool,
    dir: &Path,
) {
    let summary = serde_json::to_string_pretty(&Json(summary_value(s, seconds))).expect("encodes");
    let run_file = dir.join(format!("run_{}_trace{}.json", s.workload, u8::from(trace)));
    std::fs::write(&run_file, &summary).expect("the build directory is writable");
    if let Some(spans) = spans {
        let path = dir.join(format!("trace_{}.json", s.workload));
        trace::write_trace(&path, &summary, spans).expect("the build directory is writable");
        println!("  spans: {}", path.display());
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    all: bool,
    repeats: usize,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        all: false,
        repeats: 3,
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeats" => a.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?,
            "--out" => a.out = Some(value()?.into()),
            "--check" => a.check = Some(value()?.into()),
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// All four workloads at about 1/20 size: one reference pass and one
/// traced pass each, every gate on.
fn smoke(seed: u64) -> ExitCode {
    let dir = out_dir();
    let mut ok = true;
    for name in WORKLOADS {
        let spec = spec(name, Scale::Smoke).expect("listed workload");
        let s = run_workload(&spec, seed, 0.0, true, 2, &dir);
        print_summary(&s);
        let unaccounted = s
            .per_layer
            .iter()
            .find(|(d, _)| d.name == "bench.unaccounted_share");
        ok &= s.correct() && unaccounted.is_some_and(|(_, v)| *v < 0.05);
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(args.seed);
    }
    if let Some(baseline) = &args.check {
        return suite::check(baseline);
    }
    if args.all {
        return suite::all(args.seed, args.seconds, args.repeats, args.out.as_deref());
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("bench_e2e: one of --workload, --smoke, --all, --check is required");
        return ExitCode::from(2);
    };
    let Some(spec) = spec(name, Scale::Full) else {
        eprintln!("bench_e2e: unknown workload {name}; known: {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    let dir = out_dir();
    let min_passes = if args.trace { 2 } else { MIN_PASSES };
    let s = run_workload(
        &spec,
        args.seed,
        args.seconds as f64,
        args.trace,
        min_passes,
        &dir,
    );
    print_summary(&s);
    write_run_files(&s, s.spans.as_deref(), args.seconds, args.trace, &dir);
    println!("{}", result_line(&s, args.trace));
    if s.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
