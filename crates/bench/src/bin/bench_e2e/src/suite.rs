//! `--all`: every workload, `repeats` fresh processes each plus one traced
//! process, into one results file with the host and a noise figure per
//! metric. `--check`: the same set again, compared with a stored one under
//! the per-metric bounds.

use crate::out_dir;
use crate::report::{as_f64, at, host, obj, text, Json};
use crate::stats::{median, quartile_spread};
use crate::workloads::{Better, MetricDef, END_TO_END, WORKLOADS};
use serde::value::Value;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Runs this executable once on one workload, as the driver would, and
/// returns the run file it wrote.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            u8::from(trace)
        ));
    }
    let path = out_dir().join(format!("run_{workload}_trace{}.json", u8::from(trace)));
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Json(v) = serde_json::from_str(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(v)
}

fn noise_figure(values: &[f64], d: &MetricDef) -> Value {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    obj(vec![
        ("unit", text(d.unit)),
        ("better", text(d.better.as_str())),
        ("bound", Value::F64(d.bound)),
        (
            "values",
            Value::Seq(values.iter().map(|v| Value::F64(*v)).collect()),
        ),
        ("min", Value::F64(min)),
        ("median", Value::F64(median(values))),
        ("max", Value::F64(max)),
        (
            "quartile_spread",
            quartile_spread(values).map_or(Value::Null, Value::F64),
        ),
    ])
}

/// One complete set of runs as a results document.
fn run_set(seed: u64, seconds: u64, repeats: usize) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let mut runs = Vec::new();
        for r in 0..repeats {
            eprintln!("{name}: run {} of {repeats}", r + 1);
            runs.push(child_run(name, seed, seconds, false)?);
        }
        eprintln!("{name}: traced run");
        let traced = child_run(name, seed, seconds, true)?;
        let end_to_end = END_TO_END
            .iter()
            .map(|d| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|run| as_f64(at(run, &["end_to_end", d.name, "value"])?))
                    .collect();
                if values.len() != repeats {
                    return Err(format!("{name}: {} missing from a run", d.name));
                }
                Ok((d.name.to_string(), noise_figure(&values, d)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let pick = |key: &str| at(&traced, &[key]).cloned().unwrap_or(Value::Null);
        workloads.push((
            name.to_string(),
            obj(vec![
                ("end_to_end", Value::Map(end_to_end)),
                ("per_layer", pick("per_layer")),
                ("layer_share", pick("layer_share")),
                ("samples_per_percentile", pick("samples_per_percentile")),
                ("attempted", pick("attempted")),
                ("failed", pick("failed")),
                ("digest", pick("digest")),
            ]),
        ));
    }
    Ok(obj(vec![
        ("benchmark", text("bench_e2e")),
        ("claim", Value::Null),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("repeats", Value::U64(repeats as u64)),
        ("host", host()),
        ("workloads", Value::Map(workloads)),
    ]))
}

pub fn all(seed: u64, seconds: u64, repeats: usize, out: Option<&Path>) -> ExitCode {
    let set = match run_set(seed, seconds, repeats.max(1)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_e2e --all: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = serde_json::to_string_pretty(&Json(set)).expect("a value tree always encodes");
    let default_out = out_dir().join("results.json");
    let path = out.unwrap_or(&default_out);
    if let Err(e) = std::fs::write(path, doc + "\n") {
        eprintln!("bench_e2e --all: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results: {}", path.display());
    ExitCode::SUCCESS
}

/// The verdict on one metric of one workload.
///
/// `improved` when every fresh run reads better than every stored one;
/// `regressed` when the fresh median is worse than the stored one by more
/// than `bound`; `unresolved`, not `unchanged`, when either set's own
/// min–max spread exceeds `bound`.
pub fn verdict(old: &[f64], new: &[f64], better: Better, bound: f64) -> &'static str {
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let (old_med, new_med) = (median(old), median(new));
    let worse_by = sign * (new_med - old_med) / old_med.abs();
    let spread = |v: &[f64]| (worst(v) - best(v)) / median(v).abs();
    if worst(new) < best(old) {
        "improved"
    } else if worse_by > bound {
        "regressed"
    } else if spread(old).max(spread(new)) > bound {
        "unresolved"
    } else {
        "unchanged"
    }
}

fn values_of(set: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    at(
        set,
        &["workloads", workload, "end_to_end", metric, "values"],
    )?
    .as_seq()?
    .iter()
    .map(as_f64)
    .collect()
}

pub fn check(baseline: &Path) -> ExitCode {
    let stored = std::fs::read_to_string(baseline)
        .map_err(|e| e.to_string())
        .and_then(|doc| serde_json::from_str::<Json>(&doc).map_err(|e| e.to_string()));
    let Json(old) = match stored {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_e2e --check: {}: {e}", baseline.display());
            return ExitCode::from(2);
        }
    };
    let param = |key: &str| at(&old, &[key]).and_then(as_f64).map(|v| v as u64);
    let (Some(seed), Some(seconds), Some(repeats)) =
        (param("seed"), param("seconds"), param("repeats"))
    else {
        eprintln!(
            "bench_e2e --check: {} has no seed/seconds/repeats",
            baseline.display()
        );
        return ExitCode::from(2);
    };
    let new = match run_set(seed, seconds, repeats as usize) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_e2e --check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fresh = out_dir().join("check.json");
    let doc =
        serde_json::to_string_pretty(&Json(new.clone())).expect("a value tree always encodes");
    std::fs::write(&fresh, doc + "\n").expect("the build directory is writable");

    println!(
        "stored host: {}",
        serde_json::to_string(&Json(at(&old, &["host"]).cloned().unwrap_or(Value::Null)))
            .expect("encodes")
    );
    println!(
        "fresh host:  {}",
        serde_json::to_string(&Json(host())).expect("encodes")
    );
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "stored", "fresh", "change", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in WORKLOADS {
        for d in &END_TO_END {
            let (Some(a), Some(b)) = (
                values_of(&old, workload, d.name),
                values_of(&new, workload, d.name),
            ) else {
                println!("{workload:<14} {:<24} missing from one side", d.name);
                regressed += 1;
                continue;
            };
            let v = verdict(&a, &b, d.better, d.bound);
            regressed += usize::from(v == "regressed");
            unresolved += usize::from(v == "unresolved");
            let (ma, mb) = (median(&a), median(&b));
            println!(
                "{workload:<14} {:<24} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}%  {v}",
                d.name,
                (mb - ma) / ma * 100.0,
                d.bound * 100.0
            );
        }
    }
    println!("fresh set: {}", fresh.display());
    println!("check: {regressed} regressed, {unresolved} unresolved");
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let old = [100.0, 101.0, 99.0];
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&old, &[103.0, 102.0, 104.0], Better::Lower, 0.10),
            "unchanged"
        );
        assert_eq!(
            verdict(&old, &[115.0, 114.0, 116.0], Better::Lower, 0.10),
            "regressed"
        );
        assert_eq!(
            verdict(&old, &[90.0, 91.0, 92.0], Better::Lower, 0.10),
            "improved"
        );
        // Within the bound by median, but the fresh runs spread 30 %.
        assert_eq!(
            verdict(&old, &[90.0, 104.0, 120.0], Better::Lower, 0.10),
            "unresolved"
        );
        // Higher is better: a drop is the regression, a rise the gain.
        assert_eq!(
            verdict(&old, &[85.0, 86.0, 84.0], Better::Higher, 0.10),
            "regressed"
        );
        assert_eq!(
            verdict(&old, &[115.0, 114.0, 116.0], Better::Higher, 0.10),
            "improved"
        );
        assert_eq!(
            verdict(&old, &[97.0, 98.0, 99.5], Better::Higher, 0.10),
            "unchanged"
        );
    }
}
