//! From passes to named metrics, and the JSON around them.

use crate::run::{Gates, PassResult};
use crate::stats::{median, percentile};
use crate::trace::{layer, self_time_by_layer, Span};
use crate::workloads::{MetricDef, Spec, END_TO_END, PER_LAYER};
use serde::value::Value;

/// A JSON document as the offline `serde` stand-in models it.
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Looks up `path` through nested objects.
pub fn at<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter()
        .try_fold(v, |v, key| serde::value::get(v.as_map()?, key))
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// Where the numbers were taken: cores, SIMD level, compiler, features,
/// profile. Part of every output.
pub fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("nproc", Value::U64(nproc as u64)),
        ("simd", text(xatu_nn::simd::detect().name())),
        ("rustc", text(env!("BENCH_RUSTC"))),
        (
            "features",
            obj(vec![
                ("obs", Value::Bool(xatu_obs::enabled())),
                ("fast-math", Value::Bool(false)),
            ]),
        ),
        (
            "profile",
            obj(vec![
                ("name", text(env!("BENCH_PROFILE"))),
                ("opt_level", text(env!("BENCH_OPT_LEVEL"))),
                ("debug_assertions", Value::Bool(cfg!(debug_assertions))),
                ("lto", text("thin")),
                ("codegen_units", Value::U64(1)),
            ]),
        ),
        ("arch", text(std::env::consts::ARCH)),
        ("os", text(std::env::consts::OS)),
    ])
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run of one workload, reduced to its metrics.
pub struct Summary {
    pub workload: &'static str,
    pub why: &'static str,
    pub seed: u64,
    pub passes: usize,
    pub traced_passes: usize,
    /// Timed minutes per pass: the sample count behind p50 and p90.
    pub samples: usize,
    /// End-to-end metrics; `minute_close_ms_p90` is absent when fewer
    /// than ten samples lie beyond it (smoke sizes).
    pub end_to_end: Vec<(MetricDef, f64)>,
    /// Per-layer metrics; empty without a traced pass.
    pub per_layer: Vec<(MetricDef, f64)>,
    /// Share of the timed wall per span name, from the traced passes.
    pub layer_share: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub gates: Gates,
    pub digest: u64,
    /// Spans of the first traced pass, for the trace file.
    pub spans: Option<Vec<Span>>,
    /// Per pass, in run order: traced?, set-up seconds, timed wall seconds.
    pub pass_rows: Vec<(bool, f64, f64)>,
    /// Workers of the shadow fleet behind `par.fleet_step_speedup`.
    pub par_threads: usize,
}

impl Summary {
    pub fn failed(&self) -> u64 {
        self.gates.failed()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }
}

fn lookup(rows: &[(&'static str, u64)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, ns)| *ns as f64)
}

/// Per-minute minimum over passes. The same minute of the same seed is
/// the same work in every pass, so what differs is the host: on a shared
/// machine interference only ever adds time, and the fastest pass is the
/// closest reading of what the code costs (`bench_fleet` takes its best of
/// three windows for the same reason).
fn per_minute_best(passes: &[&PassResult]) -> Vec<f64> {
    let minutes = passes[0].minute_ms.len();
    (0..minutes)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.minute_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Σ of the per-minute best over the untraced passes so far, in ms: what
/// the end-to-end metrics will be computed from.
pub fn best_timed_wall_ms(passes: &[PassResult]) -> f64 {
    let untraced: Vec<&PassResult> = passes.iter().filter(|p| p.trace.is_none()).collect();
    per_minute_best(&untraced).iter().sum()
}

/// Σ duration of each minute's first `core.fleet` span (fleet 0, the one
/// the shadow fleet mirrors) over the timed minutes.
fn first_fleet_span_s(spans: &[Span], first_timed_minute: u32) -> f64 {
    let mut last_minute = None;
    let mut ns = 0u64;
    for s in spans
        .iter()
        .filter(|s| s.name == layer::FLEET && s.minute >= first_timed_minute)
    {
        if last_minute != Some(s.minute) {
            last_minute = Some(s.minute);
            ns += s.duration_ns();
        }
    }
    ns as f64 / 1e9
}

/// Reduces the passes of one run. `passes[i].trace.is_some()` marks the
/// traced ones; end-to-end metrics come from the untraced passes only.
pub fn summarize(spec: &Spec, seed: u64, passes: &[PassResult]) -> Summary {
    let untraced: Vec<&PassResult> = passes.iter().filter(|p| p.trace.is_none()).collect();
    let traced: Vec<&PassResult> = passes.iter().filter(|p| p.trace.is_some()).collect();
    assert!(!untraced.is_empty(), "a run has at least one untraced pass");
    let first = untraced[0];

    let mut gates = Gates::default();
    for p in passes {
        gates.add(&p.gates);
        // Same seed, same inputs, same outputs — traced or not.
        let same =
            p.digest == first.digest && p.timed == first.timed && p.wire_bytes == first.wire_bytes;
        gates.digest_mismatches += u64::from(!same);
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();

    let minute = per_minute_best(&untraced);
    let wall_s = minute.iter().sum::<f64>() / 1e3;
    let value = |name: &str| -> Option<f64> {
        Some(match name {
            "setup_s" => median(&untraced.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
            "flows_per_s" => first.timed.flows_decoded as f64 / wall_s,
            "customer_minutes_per_s" => first.timed.customer_minutes as f64 / wall_s,
            "minute_close_ms_p50" => median(&minute),
            "minute_close_ms_p90" => percentile(&minute, 90.0)?,
            "peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("end-to-end metric {other} has no formula"),
        })
    };
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|d| Some((*d, value(d.name)?)))
        .collect();

    let mut per_layer = Vec::new();
    let mut layer_share = Vec::new();
    if !traced.is_empty() {
        // Per traced pass, then the median over traced passes.
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); PER_LAYER.len()];
        let mut shares: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for p in &traced {
            let t = p.trace.as_ref().expect("traced pass");
            let by = self_time_by_layer(&t.spans, p.first_timed_minute);
            let traced_wall_ns = p.timed_wall_s() * 1e9;
            for (name, ns) in &by {
                let share = *ns as f64 / traced_wall_ns;
                match shares.iter_mut().find(|(n, _)| n == name) {
                    Some((_, v)) => v.push(share),
                    None => shares.push((name, vec![share])),
                }
            }
            let c = &p.timed;
            let per = |ns: f64, n: u64| ns / n.max(1) as f64;
            let (decode, binning) = (lookup(&by, layer::DECODE), lookup(&by, layer::BINNING));
            let (cdet, trackers) = (lookup(&by, layer::CDET_FEED), lookup(&by, layer::TRACKERS));
            let (extract, fleet) = (lookup(&by, layer::EXTRACT), lookup(&by, layer::FLEET));
            let fleet0_s = first_fleet_span_s(&t.spans, p.first_timed_minute);
            let layer_value = |name: &str| -> f64 {
                match name {
                    "netflow.v5.decode_ns_per_flow" => per(decode, c.flows_decoded),
                    "netflow.v5.wire_mb_per_s" => {
                        p.wire_bytes as f64 / 1e6 / (decode / 1e9).max(1e-9)
                    }
                    "netflow.v5.datagrams" => c.datagrams as f64,
                    "netflow.v5.parse_errors" => c.parse_errors as f64,
                    "netflow.binning.ns_per_flow" => per(binning, c.flows_decoded),
                    "netflow.binning.bins_released" => c.bins_released as f64,
                    "netflow.binning.late_drops" => p.late_drops as f64,
                    "netflow.binning.pending_max" => p.pending_max as f64,
                    "detectors.cdet_feed.us_per_customer_minute" => {
                        per(cdet, c.customer_minutes) / 1e3
                    }
                    "detectors.cdet_feed.alerts_raised" => c.cdet_alerts_raised as f64,
                    "detectors.cdet_feed.active_alerts_max" => p.active_alerts_max as f64,
                    "features.trackers.us_per_customer_minute" => {
                        per(trackers, c.customer_minutes) / 1e3
                    }
                    "features.trackers.records" => c.tracker_records as f64,
                    "features.extract.us_per_customer_minute" => {
                        per(extract, c.customer_minutes) / 1e3
                    }
                    "features.extract.ns_per_flow" => per(extract, c.flows_extracted),
                    "features.extract.nonzero_share" => t.nonzero_share,
                    "core.fleet.step_us_per_customer_minute" => {
                        per(fleet, c.customer_minutes) / 1e3
                    }
                    "core.fleet.events" => c.fleet_events as f64,
                    "core.fleet.gaps_imputed" => p.gaps_imputed as f64,
                    "core.fleet.cold_restarts" => p.cold_restarts as f64,
                    "core.fleet.rejected_minutes" => p.gates.rejected_minutes as f64,
                    "core.fleet.bytes_per_customer" => p.fleet_bytes_per_customer as f64,
                    // Untimed in end-to-end runs; taken on the pass that ran the reference.
                    "core.online.observe_us_per_customer_minute" => passes
                        .iter()
                        .find_map(|p| p.online_observe_us)
                        .unwrap_or(0.0),
                    "core.checkpoint.save_ms" => t.checkpoint_save_ms,
                    "core.checkpoint.load_ms" => t.checkpoint_load_ms,
                    "core.checkpoint.bytes" => t.checkpoint_bytes as f64,
                    // 0 on a one-core host: no measured row, no claim.
                    "par.fleet_step_speedup" => {
                        t.par_step_s.map_or(0.0, |par_s| fleet0_s / par_s.max(1e-9))
                    }
                    "simnet.gen_s" => median(&passes.iter().map(|p| p.gen_s).collect::<Vec<_>>()),
                    "bench.unaccounted_share" => lookup(&by, layer::MINUTE_CLOSE) / traced_wall_ns,
                    // Minute by minute against the untraced best, so one
                    // pass's interference spikes do not read as overhead.
                    "bench.trace_overhead_share" => {
                        let ratios: Vec<f64> = p
                            .minute_ms
                            .iter()
                            .zip(&minute)
                            .map(|(t, u)| t / u)
                            .collect();
                        median(&ratios) - 1.0
                    }
                    other => unreachable!("per-layer metric {other} has no formula"),
                }
            };
            for (col, d) in columns.iter_mut().zip(&PER_LAYER) {
                col.push(layer_value(d.name));
            }
        }
        per_layer = PER_LAYER
            .iter()
            .zip(&columns)
            .map(|(d, col)| (*d, median(col)))
            .collect();
        layer_share = shares.into_iter().map(|(n, v)| (n, median(&v))).collect();
    }

    Summary {
        workload: spec.name,
        why: spec.why,
        seed,
        passes: passes.len(),
        traced_passes: traced.len(),
        samples: minute.len(),
        end_to_end,
        per_layer,
        layer_share,
        attempted,
        gates,
        digest: first.digest,
        spans: traced
            .first()
            .and_then(|p| Some(p.trace.as_ref()?.spans.clone())),
        pass_rows: passes
            .iter()
            .map(|p| (p.trace.is_some(), p.setup_s, p.timed_wall_s()))
            .collect(),
        par_threads: traced
            .first()
            .and_then(|p| p.trace.as_ref())
            .map_or(1, |t| t.par_threads),
    }
}

fn metrics_value(metrics: &[(MetricDef, f64)]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    obj(vec![("value", Value::F64(*v)), ("unit", text(d.unit))]),
                )
            })
            .collect(),
    )
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` (end-to-end without `--trace`, per-layer with it).
pub fn result_line(s: &Summary, trace: bool) -> String {
    let metrics = if trace { &s.per_layer } else { &s.end_to_end };
    let v = obj(vec![
        ("correct", Value::Bool(s.correct())),
        ("attempted", Value::U64(s.attempted)),
        ("failed", Value::U64(s.failed())),
        ("metrics", metrics_value(metrics)),
    ]);
    serde_json::to_string(&Json(v)).expect("a value tree always encodes")
}

/// Everything a run knows, for the run file and the trace file's header.
pub fn summary_value(s: &Summary, seconds: u64) -> Value {
    obj(vec![
        ("workload", text(s.workload)),
        ("why", text(s.why)),
        ("seed", Value::U64(s.seed)),
        ("seconds", Value::U64(seconds)),
        ("passes", Value::U64(s.passes as u64)),
        ("traced_passes", Value::U64(s.traced_passes as u64)),
        ("par_threads", Value::U64(s.par_threads as u64)),
        ("samples_per_percentile", Value::U64(s.samples as u64)),
        ("host", host()),
        ("correct", Value::Bool(s.correct())),
        ("attempted", Value::U64(s.attempted)),
        ("failed", Value::U64(s.failed())),
        (
            "gates",
            Value::Map(
                s.gates
                    .rows()
                    .iter()
                    .map(|(n, c)| (n.to_string(), Value::U64(*c)))
                    .collect(),
            ),
        ),
        ("digest", text(&format!("{:016x}", s.digest))),
        (
            "passes_detail",
            Value::Seq(
                s.pass_rows
                    .iter()
                    .map(|(traced, setup_s, wall_s)| {
                        obj(vec![
                            ("traced", Value::Bool(*traced)),
                            ("setup_s", Value::F64(*setup_s)),
                            ("timed_wall_s", Value::F64(*wall_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics_value(&s.end_to_end)),
        ("per_layer", metrics_value(&s.per_layer)),
        (
            "layer_share",
            Value::Map(
                s.layer_share
                    .iter()
                    .map(|(n, v)| (n.to_string(), Value::F64(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Every metric by name with its unit, for a person.
pub fn print_summary(s: &Summary) {
    println!(
        "workload {}  seed {}  passes {} ({} traced)  minutes timed per pass {}",
        s.workload, s.seed, s.passes, s.traced_passes, s.samples
    );
    println!("  why: {}", s.why);
    let host = serde_json::to_string(&Json(host())).expect("a value tree always encodes");
    println!("  host: {host}");
    for (i, (traced, setup_s, wall_s)) in s.pass_rows.iter().enumerate() {
        let kind = if *traced { "traced" } else { "untraced" };
        println!("  pass {i} ({kind}): set-up {setup_s:.4} s, timed wall {wall_s:.4} s");
    }
    for (d, v) in s.end_to_end.iter().chain(&s.per_layer) {
        println!("  {:<46} {:>16.4} {}", d.name, v, d.unit);
    }
    if !s
        .end_to_end
        .iter()
        .any(|(d, _)| d.name == "minute_close_ms_p90")
    {
        println!(
            "  minute_close_ms_p90 not reported: fewer than 10 of {} samples lie beyond it",
            s.samples
        );
    }
    for (name, share) in &s.layer_share {
        println!(
            "  share of timed wall  {:<26} {:>6.2} %",
            name,
            share * 100.0
        );
    }
    println!(
        "  attempted {}  failed {}  digest {:016x}",
        s.attempted,
        s.failed(),
        s.digest
    );
    for (gate, count) in s.gates.rows().iter().filter(|(_, c)| *c > 0) {
        println!("  GATE FAILED  {gate}: {count}");
    }
}
