//! The four workloads and the metric tables (names, units, direction,
//! regression bounds). `BENCHMARK.json` at the repository root states the
//! same tables for the driver; a unit test holds the two together.

/// Which generator a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    IspDense,
    FleetWide,
    AttackStorm,
    DegradedFeed,
}

/// Size of a run: the measured sizes, or about 1/20 of them for `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One workload at one scale.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub customers: usize,
    /// Minutes replayed before the first timed one (inside `setup_s`), so
    /// CDet baselines, survival rings and lazy state fill first.
    pub warmup_minutes: u32,
    pub timed_minutes: u32,
    /// `attack_storm` only: timed minutes before the composed onset.
    pub lead_minutes: u32,
    /// Wire records per simulated flow, at most (1 = no fan-out).
    pub fanout: u32,
}

/// Workload names, in the order every report lists them.
pub const WORKLOADS: [&str; 4] = ["isp_dense", "fleet_wide", "attack_storm", "degraded_feed"];

/// The workload `name` at `scale`, or `None` for an unknown name.
///
/// Full sizes are chosen so one pass times about three seconds on the
/// 2-core host the baseline was taken on (README, "Sizes"); every full
/// workload times at least 120 minutes, so at least 12 samples lie beyond
/// the reported p90.
pub fn spec(name: &str, scale: Scale) -> Option<Spec> {
    let full = scale == Scale::Full;
    let pick = |f: usize, s: usize| if full { f } else { s };
    let warmup_minutes = pick(29, 9) as u32;
    let s = match name {
        "isp_dense" => Spec {
            name: "isp_dense",
            why: "paper record density (~2.4k flows per customer-minute): decode, binning and extraction dominate, the fleets do not",
            kind: Kind::IspDense,
            customers: pick(32, 4),
            warmup_minutes,
            timed_minutes: pick(121, 12) as u32,
            lead_minutes: 0,
            fanout: 128,
        },
        "fleet_wide" => Spec {
            name: "fleet_wide",
            why: "long tail of small customers (12-28 flows per customer-minute): the six per-type fleets dominate, decode and binning vanish",
            kind: Kind::FleetWide,
            customers: pick(450, 60),
            warmup_minutes,
            timed_minutes: pick(121, 12) as u32,
            lead_minutes: 0,
            fanout: 1,
        },
        "attack_storm" => Spec {
            name: "attack_storm",
            why: "carpet bomb on every customer: tracker writes beside extraction reads, live CDet alerts, the O(customers^2) clustering path",
            kind: Kind::AttackStorm,
            customers: pick(80, 16),
            warmup_minutes,
            timed_minutes: pick(151, 40) as u32,
            lead_minutes: pick(30, 5) as u32,
            fanout: 1,
        },
        "degraded_feed" => Spec {
            name: "degraded_feed",
            why: "every fault family at once: binner late drops, doubled bins, gap imputation and CDet-silence fallback, the layers' slow paths",
            kind: Kind::DegradedFeed,
            customers: pick(300, 40),
            warmup_minutes,
            timed_minutes: pick(121, 20) as u32,
            lead_minutes: 0,
            fanout: 1,
        },
        _ => return None,
    };
    Some(s)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric. `bound` is the share of the baseline's median by which
/// an end-to-end metric may get worse before `--check` (and the driver)
/// call it a regression; per-layer metrics carry no bound.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("flows_per_s", "1/s", Better::Higher, 0.25),
    e2e("customer_minutes_per_s", "1/s", Better::Higher, 0.25),
    e2e("minute_close_ms_p50", "ms", Better::Lower, 0.25),
    e2e("minute_close_ms_p90", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

use Better::{Higher, Lower};

/// Per-layer metrics, printed by a traced run. Layer = module.
pub const PER_LAYER: [MetricDef; 30] = [
    layer("netflow.v5.decode_ns_per_flow", "ns", Lower),
    layer("netflow.v5.wire_mb_per_s", "MB/s", Higher),
    layer("netflow.v5.datagrams", "count", Lower),
    layer("netflow.v5.parse_errors", "count", Lower),
    layer("netflow.binning.ns_per_flow", "ns", Lower),
    layer("netflow.binning.bins_released", "count", Lower),
    layer("netflow.binning.late_drops", "count", Lower),
    layer("netflow.binning.pending_max", "count", Lower),
    layer("detectors.cdet_feed.us_per_customer_minute", "us", Lower),
    layer("detectors.cdet_feed.alerts_raised", "count", Lower),
    layer("detectors.cdet_feed.active_alerts_max", "count", Lower),
    layer("features.trackers.us_per_customer_minute", "us", Lower),
    layer("features.trackers.records", "count", Lower),
    layer("features.extract.us_per_customer_minute", "us", Lower),
    layer("features.extract.ns_per_flow", "ns", Lower),
    layer("features.extract.nonzero_share", "share", Lower),
    layer("core.fleet.step_us_per_customer_minute", "us", Lower),
    layer("core.fleet.events", "count", Lower),
    layer("core.fleet.gaps_imputed", "count", Lower),
    layer("core.fleet.cold_restarts", "count", Lower),
    layer("core.fleet.rejected_minutes", "count", Lower),
    layer("core.fleet.bytes_per_customer", "B", Lower),
    layer("core.online.observe_us_per_customer_minute", "us", Lower),
    layer("core.checkpoint.save_ms", "ms", Lower),
    layer("core.checkpoint.load_ms", "ms", Lower),
    layer("core.checkpoint.bytes", "B", Lower),
    layer("par.fleet_step_speedup", "x", Higher),
    layer("simnet.gen_s", "s", Lower),
    layer("bench.unaccounted_share", "share", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    #[test]
    fn every_full_workload_times_enough_minutes_for_p90() {
        for name in WORKLOADS {
            let s = spec(name, Scale::Full).unwrap();
            assert!(s.timed_minutes >= 120, "{name}");
            assert_eq!(s.warmup_minutes, 29, "{name}");
            assert!(spec(name, Scale::Smoke).unwrap().customers * 4 <= s.customers);
        }
        assert!(spec("nonsense", Scale::Full).is_none());
    }

    /// `BENCHMARK.json` is the driver's copy of the tables above; when the
    /// repository root is reachable, the two must agree.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc: crate::report::Json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let root = doc.0.as_map().expect("object");
        let rows = |key: &str| -> Vec<Vec<(String, Value)>> {
            serde::value::get(root, key)
                .and_then(Value::as_seq)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|r| r.as_map().expect("row object").to_vec())
                .collect()
        };
        let field = |row: &[(String, Value)], k: &str| -> Value {
            serde::value::get(row, k).cloned().unwrap_or(Value::Null)
        };
        let names: Vec<Value> = rows("workloads").iter().map(|r| field(r, "name")).collect();
        let expect: Vec<Value> = WORKLOADS
            .iter()
            .map(|n| Value::Str(n.to_string()))
            .collect();
        assert_eq!(names, expect);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (row, d) in listed.iter().zip(defs) {
                assert_eq!(field(row, "name"), Value::Str(d.name.into()), "{key}");
                assert_eq!(field(row, "unit"), Value::Str(d.unit.into()), "{}", d.name);
                assert_eq!(
                    field(row, "better"),
                    Value::Str(d.better.as_str().into()),
                    "{}",
                    d.name
                );
                if key == "end_to_end" {
                    assert_eq!(field(row, "bound"), Value::F64(d.bound), "{}", d.name);
                }
            }
        }
    }
}
