//! The recording registry and its deterministic snapshots.

use crate::event::{FieldValue, ObsEvent, Sink};
use crate::hist::FixedHistogram;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Aggregated wall-clock timing for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimingSnapshot {
    /// Number of spans recorded.
    pub count: u64,
    /// Total wall-clock seconds across spans.
    pub total_seconds: f64,
}

/// Exported view of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (last entry is the overflow bucket).
    pub counts: Vec<u64>,
    /// Total non-NaN observations.
    pub count: u64,
    /// Sum of non-NaN observations.
    pub sum: f64,
    /// NaN observations dropped from the buckets.
    pub nan: u64,
}

/// A frozen, order-canonical view of a [`Registry`].
///
/// Counters, gauges, histograms and the event sequence are the
/// **deterministic** sections: they enter [`Snapshot::digest`] and must be
/// bit-identical across thread counts. `wall` (span timings) and
/// `volatile` (e.g. allocation counts) are exported for operators but
/// excluded from the digest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-value gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Fixed-bucket histograms, sorted by name.
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Structured events in recording order.
    pub events: Vec<ObsEvent>,
    /// Wall-clock span timings, sorted by name (digest-exempt).
    pub wall: Vec<(String, TimingSnapshot)>,
    /// Scheduler-dependent counters, sorted by name (digest-exempt).
    pub volatile: Vec<(String, u64)>,
}

impl Snapshot {
    /// FNV-1a digest over the deterministic sections (counters, gauges,
    /// histograms, event sequence). Wall timings and volatile counters are
    /// excluded by construction, so two runs of the same seeded work at
    /// different thread counts produce the same digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, v) in &self.counters {
            h.str("c").str(name).u64(*v);
        }
        for (name, v) in &self.gauges {
            h.str("g").str(name).f64(*v);
        }
        for (name, hist) in &self.histograms {
            h.str("h").str(name);
            for b in &hist.bounds {
                h.f64(*b);
            }
            for c in &hist.counts {
                h.u64(*c);
            }
            h.u64(hist.count).f64(hist.sum).u64(hist.nan);
        }
        for e in &self.events {
            h.str("e").str(e.kind);
            for (name, value) in &e.fields {
                h.str(name);
                match value {
                    FieldValue::U64(v) => h.str("u").u64(*v),
                    FieldValue::I64(v) => h.str("i").u64(*v as u64),
                    FieldValue::F64(v) => h.str("f").f64(*v),
                    FieldValue::Str(v) => h.str("s").str(v),
                };
            }
        }
        h.finish()
    }

    /// Merges another snapshot into this one: counters and volatile
    /// counters sum, gauges take the other's value, histograms merge
    /// bucket-wise, events and wall timings append/sum. Merging is
    /// deterministic given the operand order — stitch per-worker or
    /// per-phase snapshots in a fixed order, exactly like `xatu-par`
    /// stitches block results.
    ///
    /// # Panics
    /// If a histogram of the same name has other bounds in `other`: the
    /// two snapshots named different histograms alike.
    pub fn absorb(&mut self, other: &Snapshot) {
        merge_sum_u64(&mut self.counters, &other.counters);
        merge_last_f64(&mut self.gauges, &other.gauges);
        for (name, hist) in &other.histograms {
            match self.histograms.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => {
                    let mine = &mut self.histograms[i].1;
                    assert_eq!(
                        mine.bounds, hist.bounds,
                        "histogram bounds mismatch: {name}"
                    );
                    for (a, b) in mine.counts.iter_mut().zip(&hist.counts) {
                        *a += b;
                    }
                    mine.count += hist.count;
                    mine.sum += hist.sum;
                    mine.nan += hist.nan;
                }
                Err(i) => self.histograms.insert(i, (name.clone(), hist.clone())),
            }
        }
        self.events.extend(other.events.iter().cloned());
        for (name, t) in &other.wall {
            match self.wall.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => {
                    self.wall[i].1.count += t.count;
                    self.wall[i].1.total_seconds += t.total_seconds;
                }
                Err(i) => self.wall.insert(i, (name.clone(), *t)),
            }
        }
        merge_sum_u64(&mut self.volatile, &other.volatile);
    }

    /// The value of a counter, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram for `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Events of one kind, in recording order.
    pub fn events_of(&self, kind: &str) -> Vec<&ObsEvent> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Compact JSON rendering of the whole snapshot, digest included.
    /// Floats use shortest-roundtrip formatting, so finite values survive a
    /// write/read cycle bit-exactly (same convention as the workspace's
    /// `serde_json` stand-in).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!("\"digest\":\"{:016x}\"", self.digest()));
        out.push_str(",\"counters\":{");
        push_entries(&mut out, &self.counters, |v| v.to_string());
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, &self.gauges, |v| format!("{v:?}"));
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"bounds\":{:?},\"counts\":{:?},\"count\":{},\"sum\":{:?},\"nan\":{}}}",
                json_str(name),
                h.bounds,
                h.counts,
                h.count,
                h.sum,
                h.nan
            ));
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"kind\":{}", json_str(e.kind)));
            for (name, value) in &e.fields {
                out.push(',');
                out.push_str(&json_str(name));
                out.push(':');
                match value {
                    FieldValue::U64(v) => out.push_str(&v.to_string()),
                    FieldValue::I64(v) => out.push_str(&v.to_string()),
                    FieldValue::F64(v) => out.push_str(&format!("{v:?}")),
                    FieldValue::Str(v) => out.push_str(&json_str(v)),
                }
            }
            out.push('}');
        }
        out.push_str("],\"wall\":{");
        for (i, (name, t)) in self.wall.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"total_seconds\":{:?}}}",
                json_str(name),
                t.count,
                t.total_seconds
            ));
        }
        out.push_str("},\"volatile\":{");
        push_entries(&mut out, &self.volatile, |v| v.to_string());
        out.push_str("}}");
        out
    }
}

fn push_entries<V>(out: &mut String, entries: &[(String, V)], fmt: impl Fn(&V) -> String) {
    for (i, (name, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(name));
        out.push(':');
        out.push_str(&fmt(v));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn merge_sum_u64(into: &mut Vec<(String, u64)>, from: &[(String, u64)]) {
    for (name, v) in from {
        match into.binary_search_by(|(n, _)| n.cmp(name)) {
            Ok(i) => into[i].1 += v,
            Err(i) => into.insert(i, (name.clone(), *v)),
        }
    }
}

fn merge_last_f64(into: &mut Vec<(String, f64)>, from: &[(String, f64)]) {
    for (name, v) in from {
        match into.binary_search_by(|(n, _)| n.cmp(name)) {
            Ok(i) => into[i].1 = *v,
            Err(i) => into.insert(i, (name.clone(), *v)),
        }
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }
    fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The mutable recording surface.
///
/// One registry is owned per sequential recording context (a pipeline run,
/// a training call). Parallel sections record into per-worker state
/// (embedded [`crate::Counter`]s / [`FixedHistogram`]s) that the owner
/// merges back in worker-index order.
#[derive(Default)]
pub struct Registry {
    sink: Option<Arc<dyn Sink>>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, FixedHistogram>,
    events: Vec<ObsEvent>,
    wall: BTreeMap<&'static str, TimingSnapshot>,
    volatile: BTreeMap<&'static str, u64>,
}

impl Registry {
    /// A registry with no sink.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry that forwards events and traces to `sink`.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Registry {
            sink: Some(sink),
            ..Registry::default()
        }
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        if crate::enabled() {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    /// Sets a gauge. The value must be deterministic (it enters the
    /// digest); wall-clock readings belong in [`Registry::record_wall`].
    #[inline]
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        if crate::enabled() {
            self.gauges.insert(name, v);
        }
    }

    /// Records one observation into the named fixed-bucket histogram
    /// (created on first use with `bounds`).
    #[inline]
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], v: f64) {
        if crate::enabled() {
            self.hists
                .entry(name)
                .or_insert_with(|| FixedHistogram::new(bounds))
                .observe(v);
        }
    }

    /// Merges a pre-aggregated histogram (e.g. a per-worker or per-detector
    /// one) into the named histogram.
    ///
    /// # Panics
    /// If the named histogram exists with other bounds
    /// ([`FixedHistogram::merge`]).
    pub fn merge_histogram(&mut self, name: &'static str, h: &FixedHistogram) {
        if crate::enabled() {
            self.hists
                .entry(name)
                .or_insert_with(|| FixedHistogram::new(h.bounds()))
                .merge(h);
        }
    }

    /// Records a structured event: stored in the snapshot (and digest) and
    /// forwarded to the sink.
    pub fn event(&mut self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        if !crate::enabled() {
            return;
        }
        if let Some(sink) = &self.sink {
            sink.emit(kind, &fields);
        }
        self.events.push(ObsEvent { kind, fields });
    }

    /// Emits a sink-only diagnostic: never stored, never digested. The
    /// replacement for ad-hoc `eprintln!` debugging.
    pub fn trace(&self, kind: &'static str, fields: &[(&'static str, FieldValue)]) {
        if crate::enabled() {
            if let Some(sink) = &self.sink {
                sink.emit(kind, fields);
            }
        }
    }

    /// Records a completed wall-clock span (digest-exempt).
    pub fn record_wall(&mut self, name: &'static str, seconds: f64) {
        if crate::enabled() {
            let t = self.wall.entry(name).or_default();
            t.count += 1;
            t.total_seconds += seconds;
        }
    }

    /// Times `f` as a wall-clock span named `name` (digest-exempt).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !crate::enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record_wall(name, start.elapsed().as_secs_f64());
        out
    }

    /// Adds `n` to a scheduler-dependent counter (digest-exempt).
    pub fn add_volatile(&mut self, name: &'static str, n: u64) {
        if crate::enabled() {
            *self.volatile.entry(name).or_insert(0) += n;
        }
    }

    /// Freezes the current state into an order-canonical snapshot.
    pub fn snapshot(&self) -> Snapshot {
        if !crate::enabled() {
            return Snapshot::default();
        }
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: self
                .hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.to_string(),
                        HistSnapshot {
                            bounds: h.bounds().to_vec(),
                            counts: h.counts().to_vec(),
                            count: h.count(),
                            sum: h.sum(),
                            nan: h.nan_count(),
                        },
                    )
                })
                .collect(),
            events: self.events.clone(),
            wall: self.wall.iter().map(|(k, t)| (k.to_string(), *t)).collect(),
            volatile: self
                .volatile
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NullSink;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.inc("alerts");
        r.add("flows", 10);
        r.gauge("loss", 0.25);
        r.observe("survival", crate::SURVIVAL_BOUNDS, 0.4);
        r.event(
            "phase",
            vec![("name", "train".into()), ("minute", 5u32.into())],
        );
        r.record_wall("phase_a", 1.25);
        r.add_volatile("allocs", 3);
        r
    }

    #[test]
    fn snapshot_sections_are_populated_when_enabled() {
        let s = sample_registry().snapshot();
        if crate::enabled() {
            assert_eq!(s.counter("alerts"), 1);
            assert_eq!(s.counter("flows"), 10);
            assert_eq!(s.gauge("loss"), Some(0.25));
            assert_eq!(s.histogram("survival").unwrap().count, 1);
            assert_eq!(s.events_of("phase").len(), 1);
            assert_eq!(s.wall.len(), 1);
            assert_eq!(s.volatile, vec![("allocs".to_string(), 3)]);
        } else {
            assert_eq!(s, Snapshot::default());
            assert_eq!(s.counter("alerts"), 0);
        }
    }

    #[test]
    fn digest_ignores_wall_and_volatile() {
        let mut a = sample_registry();
        let base = a.snapshot().digest();
        a.record_wall("phase_a", 99.0);
        a.add_volatile("allocs", 1_000_000);
        assert_eq!(a.snapshot().digest(), base);
        a.inc("alerts");
        if crate::enabled() {
            assert_ne!(a.snapshot().digest(), base);
        }
    }

    #[test]
    fn digest_is_insertion_order_independent_for_counters() {
        let mut a = Registry::new();
        a.inc("x");
        a.inc("y");
        let mut b = Registry::new();
        b.inc("y");
        b.inc("x");
        assert_eq!(a.snapshot().digest(), b.snapshot().digest());
    }

    #[test]
    fn absorb_matches_single_registry_recording() {
        // Split the same recording across two registries, stitch in order,
        // and compare against recording it all in one — the per-worker
        // aggregation contract.
        let mut whole = Registry::new();
        whole.add("flows", 7);
        whole.observe("survival", crate::SURVIVAL_BOUNDS, 0.1);
        whole.observe("survival", crate::SURVIVAL_BOUNDS, 0.9);
        whole.event("e", vec![("i", 0u32.into())]);
        whole.event("e", vec![("i", 1u32.into())]);

        let mut w0 = Registry::new();
        w0.add("flows", 3);
        w0.observe("survival", crate::SURVIVAL_BOUNDS, 0.1);
        w0.event("e", vec![("i", 0u32.into())]);
        let mut w1 = Registry::new();
        w1.add("flows", 4);
        w1.observe("survival", crate::SURVIVAL_BOUNDS, 0.9);
        w1.event("e", vec![("i", 1u32.into())]);

        let mut stitched = w0.snapshot();
        stitched.absorb(&w1.snapshot());
        assert_eq!(stitched.digest(), whole.snapshot().digest());
    }

    #[test]
    fn json_contains_digest_and_sections() {
        let s = sample_registry().snapshot();
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"digest\""));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"events\""));
        if crate::enabled() {
            assert!(json.contains("\"alerts\":1"));
            assert!(json.contains(&format!("{:016x}", s.digest())));
        }
    }

    #[test]
    fn sink_receives_events_and_traces() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountingSink(AtomicUsize);
        impl Sink for CountingSink {
            fn emit(&self, _k: &str, _f: &[(&'static str, FieldValue)]) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(CountingSink(AtomicUsize::new(0)));
        let mut r = Registry::with_sink(sink.clone());
        r.event("a", vec![]);
        r.trace("b", &[]);
        let expected = if crate::enabled() { 2 } else { 0 };
        assert_eq!(sink.0.load(Ordering::Relaxed), expected);
        let _ = Registry::with_sink(Arc::new(NullSink));
    }

    #[test]
    fn time_returns_closure_result() {
        let mut r = Registry::new();
        assert_eq!(r.time("span", || 41 + 1), 42);
        if crate::enabled() {
            assert_eq!(r.snapshot().wall[0].1.count, 1);
        }
    }
}
