//! Spans around the calls into each layer, taken from the benchmark's side.
//!
//! The replay path is generic over a [`Probe`]. End-to-end runs use
//! [`NoProbe`], whose methods are empty, so the timed minute holds one
//! `Instant` pair and nothing else. A traced run uses [`Tracer`], which
//! keeps `{name, minute, start_ns, end_ns, parent}` in a pre-sized `Vec`
//! and writes it out when the run ends. The minute-close span is the
//! parent of every layer span of its minute; the minute number is the
//! identifier they share.

use std::io::Write;
use std::time::Instant;

/// Span names: a layer is a module of the repository.
pub mod layer {
    pub const MINUTE_CLOSE: &str = "bench.minute_close";
    pub const GLUE: &str = "bench.glue";
    pub const DECODE: &str = "netflow.v5";
    pub const BINNING: &str = "netflow.binning";
    pub const CDET_FEED: &str = "detectors.cdet_feed";
    pub const TRACKERS: &str = "features.trackers";
    pub const EXTRACT: &str = "features.extract";
    pub const FLEET: &str = "core.fleet";
}

/// What the replay path calls at each layer boundary.
pub trait Probe {
    /// Opens a span under the current minute-close span (or as the
    /// minute-close span itself when none is open).
    fn begin(&mut self, name: &'static str, minute: u32) -> usize;
    fn end(&mut self, id: usize);
    /// Hands over what was recorded (nothing, for the end-to-end probe).
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

/// The end-to-end probe: compiles to nothing.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin(&mut self, _: &'static str, _: u32) -> usize {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: usize) {}
}

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub minute: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The traced probe.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the open minute-close span.
    root: u32,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            root: NO_PARENT,
        }
    }
}

impl Probe for Tracer {
    #[inline]
    fn begin(&mut self, name: &'static str, minute: u32) -> usize {
        let id = self.spans.len();
        let parent = self.root;
        if parent == NO_PARENT {
            self.root = id as u32;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            minute,
            start_ns: now,
            end_ns: now,
            parent,
        });
        id
    }

    #[inline]
    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        if self.root == id as u32 {
            self.root = NO_PARENT;
        }
    }

    fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover. Children are clipped to the parent's interval, and
/// overlapping children are not counted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Σ self time per span name over minutes `>= first_timed_minute`, in
/// first-appearance order.
pub fn self_time_by_layer(spans: &[Span], first_timed_minute: u32) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if s.minute < first_timed_minute {
            continue;
        }
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += self_ns,
            None => out.push((s.name, self_ns)),
        }
    }
    out
}

/// Writes `{"summary": <summary_json>, "spans": [...]}`.
pub fn write_trace(
    path: &std::path::Path,
    summary_json: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"summary\": {summary_json},\n\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"minute\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
            s.name, s.minute, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            minute: 40,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 100, 1100, NO_PARENT),
            span("a", 150, 350, 0),
            span("b", 400, 900, 0),
            // Overlaps `b`: only 900..950 is new cover.
            span("c", 850, 950, 0),
            // Sticks out of the parent: clipped to 1050..1100.
            span("d", 1050, 1300, 0),
            // Grandchild: shrinks `a`, not the root.
            span("a1", 200, 260, 1),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 1000 - (200 + 500 + 50 + 50));
        assert_eq!(st[1], 200 - 60);
        assert_eq!(st[2], 500);
        assert_eq!(st[5], 60);
        // Self times of a tree partition the root, up to the clipped parts.
        let by = self_time_by_layer(&spans, 0);
        assert_eq!(by[0], ("root", 200));
        assert_eq!(self_time_by_layer(&spans, 41), vec![]);
    }

    #[test]
    fn tracer_parents_layer_spans_under_the_open_minute() {
        let mut t = Tracer::with_capacity(8);
        let root = t.begin(layer::MINUTE_CLOSE, 7);
        let a = t.begin(layer::DECODE, 7);
        t.end(a);
        let b = t.begin(layer::FLEET, 7);
        t.end(b);
        t.end(root);
        let next = t.begin(layer::MINUTE_CLOSE, 8);
        t.end(next);
        let spans = t.take_spans();
        assert_eq!(spans[root].parent, NO_PARENT);
        assert_eq!(spans[a].parent, root as u32);
        assert_eq!(spans[b].parent, root as u32);
        assert_eq!(spans[next].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[root].end_ns >= spans[b].end_ns);
    }
}
