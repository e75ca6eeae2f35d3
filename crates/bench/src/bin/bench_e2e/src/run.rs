//! One pass of one workload: set-up, warm-up, the timed closed loop, and
//! the correctness gates around it.
//!
//! The loop is closed with one replayer and one minute in flight: minute
//! *m+1* is generated and encoded only after minute *m* has closed,
//! outside every timer, in this one process. Every end-to-end number is
//! taken with the fleets at `threads = 1`.

use crate::gen::{sample_customers, Generator};
use crate::replay::{fill_from, new_fleet, Counters, Stack, FLEET_WARMUP, THRESHOLD};
use crate::trace::{NoProbe, Probe, Span, Tracer};
use crate::wire::encode_minute;
use crate::workloads::Spec;
use std::path::Path;
use std::time::Instant;
use xatu_core::checkpoint::{load_detector, save_detector};
use xatu_core::online::OnlineDetector;
use xatu_core::{FleetDetector, XatuConfig, XatuModel};
use xatu_detectors::traits::DetectorEvent;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;

/// Customers per workload that get a reference `OnlineDetector` per type.
pub const REFERENCE_SAMPLE: usize = 16;

/// Failed operations and failed gates of a pass, by kind. All zero on a
/// correct run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gates {
    /// Datagrams `parse_datagram` refused.
    pub parse_errors: u64,
    /// Datagrams whose decoded records differ from the generated ones.
    pub twin_mismatches: u64,
    /// Minutes where Σ `est_bytes` over released bins is not Σ generated
    /// minus Σ late.
    pub conservation_mismatches: u64,
    /// Minutes where the binner's late drops are not the late flows sent,
    /// plus one if the total is not the fault layer's own count.
    pub late_drop_mismatches: u64,
    /// Released bins of a wrong minute or of an absent customer.
    pub stray_bins: u64,
    /// `step_minute_batch` errors plus customer-minutes it rejected as
    /// out of order.
    pub rejected_minutes: u64,
    /// (minute, type) pairs where fleet and `OnlineDetector` disagree on
    /// the sampled customers' events or survival bits.
    pub reference_mismatches: u64,
    /// Minutes where the multi-threaded shadow fleet disagrees with the
    /// single-threaded one.
    pub par_mismatches: u64,
    /// Passes whose event/survival digest differs from the first pass's.
    pub digest_mismatches: u64,
}

impl Gates {
    pub fn rows(&self) -> [(&'static str, u64); 9] {
        [
            ("parse_errors", self.parse_errors),
            ("twin_mismatches", self.twin_mismatches),
            ("conservation_mismatches", self.conservation_mismatches),
            ("late_drop_mismatches", self.late_drop_mismatches),
            ("stray_bins", self.stray_bins),
            ("rejected_minutes", self.rejected_minutes),
            ("reference_mismatches", self.reference_mismatches),
            ("par_mismatches", self.par_mismatches),
            ("digest_mismatches", self.digest_mismatches),
        ]
    }

    pub fn failed(&self) -> u64 {
        self.rows().iter().map(|(_, n)| n).sum()
    }

    pub fn add(&mut self, o: &Gates) {
        self.parse_errors += o.parse_errors;
        self.twin_mismatches += o.twin_mismatches;
        self.conservation_mismatches += o.conservation_mismatches;
        self.late_drop_mismatches += o.late_drop_mismatches;
        self.stray_bins += o.stray_bins;
        self.rejected_minutes += o.rejected_minutes;
        self.reference_mismatches += o.reference_mismatches;
        self.par_mismatches += o.par_mismatches;
        self.digest_mismatches += o.digest_mismatches;
    }
}

/// What a traced pass measures beside its spans.
#[derive(Clone, Debug)]
pub struct TraceExtras {
    pub spans: Vec<Span>,
    /// Share of non-zero entries over every frame the fleets saw.
    pub nonzero_share: f64,
    /// Shadow fleet (type 0) stepped at `par_threads`; `None` on one core.
    pub par_step_s: Option<f64>,
    pub par_threads: usize,
    pub checkpoint_save_ms: f64,
    pub checkpoint_load_ms: f64,
    pub checkpoint_bytes: u64,
}

/// Everything one pass produced.
#[derive(Clone, Debug)]
pub struct PassResult {
    pub setup_s: f64,
    /// Minute-close span per timed minute, in milliseconds.
    pub minute_ms: Vec<f64>,
    pub first_timed_minute: u32,
    /// Generator + encoder time over the timed minutes (outside the spans).
    pub gen_s: f64,
    /// Counters over the timed minutes.
    pub timed: Counters,
    /// Datagrams offered + flows pushed + customer-minutes stepped (per
    /// fleet) over the whole pass, warm-up included.
    pub attempted: u64,
    pub wire_bytes: u64,
    pub late_drops: u64,
    pub pending_max: usize,
    pub active_alerts_max: usize,
    pub gaps_imputed: u64,
    pub cold_restarts: u64,
    /// Σ over the six fleets of their per-customer state size.
    pub fleet_bytes_per_customer: usize,
    /// FNV-1a over every fleet event and every final survival bit.
    pub digest: u64,
    pub gates: Gates,
    /// Reference `OnlineDetector` cost, when the pass ran the reference.
    pub online_observe_us: Option<f64>,
    pub trace: Option<TraceExtras>,
}

impl PassResult {
    pub fn timed_wall_s(&self) -> f64 {
        self.minute_ms.iter().sum::<f64>() / 1e3
    }
}

/// What a pass does beside replaying.
pub struct PassOpts<'a> {
    /// Record spans, step the shadow fleet, round-trip a checkpoint.
    pub traced: bool,
    /// Run the `OnlineDetector` reference on the sampled customers.
    pub reference: bool,
    /// Directory for the checkpoint file (inside the build directory).
    pub out_dir: &'a Path,
}

pub fn run_pass(spec: &Spec, seed: u64, opts: &PassOpts<'_>) -> PassResult {
    if opts.traced {
        // Two spans per datagram batch and a dozen per minute.
        let per_minute = 16 + spec.customers * 4;
        let minutes = (spec.warmup_minutes + spec.timed_minutes) as usize;
        drive(
            spec,
            seed,
            opts,
            &mut Tracer::with_capacity(per_minute * minutes),
        )
    } else {
        drive(spec, seed, opts, &mut NoProbe)
    }
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_event(digest: &mut u64, type_idx: usize, e: &DetectorEvent) {
    let (tag, a) = match e {
        DetectorEvent::Raised(a) => (1u8, a),
        DetectorEvent::Ended(a) => (2u8, a),
    };
    fnv1a(digest, &[tag, type_idx as u8]);
    fnv1a(digest, &a.customer.0.to_le_bytes());
    fnv1a(digest, &a.detected_at.to_le_bytes());
    fnv1a(
        digest,
        &a.mitigation_end.map_or(u32::MAX, |m| m).to_le_bytes(),
    );
}

fn customer_of(e: &DetectorEvent) -> Ipv4 {
    match e {
        DetectorEvent::Raised(a) | DetectorEvent::Ended(a) => a.customer,
    }
}

/// One `OnlineDetector` per attack type over a seeded customer sample, fed
/// the frames the fleets saw: the relation
/// `fleet_matches_online_detector_bitwise_through_degradation` pins, held
/// on real extracted frames.
struct Reference {
    /// Sampled customers: index and address.
    sample: Vec<(usize, Ipv4)>,
    detectors: Vec<OnlineDetector>,
    observe_s: f64,
    observations: u64,
}

impl Reference {
    fn new(seed: u64, customers: &[Ipv4]) -> Self {
        let xatu = XatuConfig::default();
        let sample = sample_customers(seed, customers.len(), REFERENCE_SAMPLE);
        Reference {
            sample: sample.into_iter().map(|g| (g, customers[g])).collect(),
            detectors: AttackType::ALL
                .iter()
                .map(|&ty| {
                    let mut d = OnlineDetector::new(XatuModel::new(&xatu), ty, THRESHOLD, &xatu);
                    d.set_warmup(FLEET_WARMUP);
                    d
                })
                .collect(),
            observe_s: 0.0,
            observations: 0,
        }
    }

    /// Feeds the closed minute to the reference detectors and returns the
    /// number of types on which they disagree with the fleets.
    fn check_minute(&mut self, stack: &Stack, minute: u32) -> u64 {
        let mut mismatches = 0;
        for (t, det) in self.detectors.iter_mut().enumerate() {
            let mut online: Vec<DetectorEvent> = Vec::new();
            let mut failed = false;
            let t0 = Instant::now();
            for &(g, addr) in &self.sample {
                let r = match &stack.frames[g] {
                    Some(frame) => det.observe(addr, minute, &frame.0),
                    None => det.observe_gap(addr, minute),
                };
                match r {
                    Ok((_, _, events)) => online.extend(events),
                    Err(_) => failed = true,
                }
            }
            self.observe_s += t0.elapsed().as_secs_f64();
            self.observations += self.sample.len() as u64;
            // The fleet orders catch-up events before lifecycle events;
            // per customer both orders agree, so compare customer by
            // customer (stable sort).
            let mut fleet: Vec<DetectorEvent> = stack
                .events
                .iter()
                .filter(|(ft, e)| *ft == t && self.sample.iter().any(|(_, a)| *a == customer_of(e)))
                .map(|(_, e)| *e)
                .collect();
            fleet.sort_by_key(customer_of);
            online.sort_by_key(customer_of);
            let same_bits = self.sample.iter().all(|&(_, addr)| {
                det.survival_of(addr).to_bits() == stack.fleets[t].survival_of(addr).to_bits()
            });
            if failed || fleet != online || !same_bits {
                mismatches += 1;
            }
        }
        mismatches
    }
}

/// A second fleet of type 0 stepped on `threads` workers with the frames
/// the measured fleet saw: gives `par.fleet_step_speedup` a measured row
/// and pins thread-count invariance on real frames.
struct ShadowFleet {
    fleet: FleetDetector,
    threads: usize,
    step_s: f64,
}

impl ShadowFleet {
    fn step(&mut self, stack: &Stack, minute: u32, timed: bool) -> bool {
        let t0 = Instant::now();
        let events = self
            .fleet
            .step_minute_batch(minute, self.threads, fill_from(&stack.frames))
            .map(<[DetectorEvent]>::to_vec);
        if timed {
            self.step_s += t0.elapsed().as_secs_f64();
        }
        let expect: Vec<DetectorEvent> = stack
            .events
            .iter()
            .filter(|(t, _)| *t == 0)
            .map(|(_, e)| *e)
            .collect();
        events.is_ok_and(|ev| ev == expect)
    }
}

fn nonzero_entries(stack: &Stack) -> (u64, u64) {
    let mut nonzero = 0u64;
    let mut entries = 0u64;
    for frame in stack.frames.iter().flatten() {
        nonzero += frame.0.iter().filter(|&&v| v != 0.0).count() as u64;
        entries += frame.0.len() as u64;
    }
    (nonzero, entries)
}

fn drive<P: Probe>(spec: &Spec, seed: u64, opts: &PassOpts<'_>, probe: &mut P) -> PassResult {
    let pass_start = Instant::now();
    let mut gen = Generator::new(spec, seed);
    let start = gen.start_minute;
    let first_timed = start + spec.warmup_minutes;
    let end = first_timed + spec.timed_minutes;
    let mut stack = Stack::new(gen.world(), end);
    let mut reference = opts
        .reference
        .then(|| Reference::new(seed, &stack.customers));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shadow = (opts.traced && nproc >= 2).then(|| ShadowFleet {
        fleet: new_fleet(AttackType::ALL[0], &XatuConfig::default(), &stack.customers),
        threads: nproc.min(4),
        step_s: 0.0,
    });

    let mut gates = Gates::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut sequence = 0u32;
    let mut minute_ms = Vec::with_capacity(spec.timed_minutes as usize);
    let (mut setup_s, mut gen_s) = (0.0, 0.0);
    let mut warmup = Counters::default();
    let mut late_at_timed_start = 0u64;
    let (mut wire_bytes, mut late_sent) = (0u64, 0u64);
    let (mut nonzero, mut entries) = (0u64, 0u64);
    let mut rejected = 0u64;

    for minute in start..end {
        let timed = minute >= first_timed;
        if minute == first_timed {
            // Warm-up is over: what follows is measured from a clean slate.
            warmup = std::mem::take(&mut stack.c);
            late_at_timed_start = stack.late_drops();
            stack.pending_max = 0;
            stack.active_alerts_max = 0;
            for fleet in &mut stack.fleets {
                rejected += fleet.obs().out_of_order.get();
                fleet.reset_obs();
            }
            setup_s = pass_start.elapsed().as_secs_f64();
        }

        let g0 = Instant::now();
        let wire = {
            let input = gen.next_minute();
            assert_eq!(
                input.minute, minute,
                "generator and replayer share the clock"
            );
            encode_minute(&input, &mut sequence)
        };
        if timed {
            gen_s += g0.elapsed().as_secs_f64();
            wire_bytes += wire.wire_bytes;
        }
        late_sent += wire.late_flows;

        let late_before = stack.late_drops();
        let t0 = Instant::now();
        stack.close_minute(&wire, probe);
        let span = t0.elapsed();
        if timed {
            minute_ms.push(span.as_secs_f64() * 1e3);
        }

        // Gates, outside the timer, warm-up minutes included.
        gates.conservation_mismatches +=
            u64::from(stack.released_est_bytes != wire.on_time_est_bytes);
        gates.late_drop_mismatches +=
            u64::from(stack.late_drops() - late_before != wire.late_flows);
        gates.twin_mismatches += wire.twin_mismatches;
        if let Some(r) = &mut reference {
            gates.reference_mismatches += r.check_minute(&stack, minute);
        }
        if let Some(s) = &mut shadow {
            gates.par_mismatches += u64::from(!s.step(&stack, minute, timed));
        }
        for (t, e) in &stack.events {
            fold_event(&mut digest, *t, e);
        }
        if opts.traced && timed {
            let (nz, n) = nonzero_entries(&stack);
            nonzero += nz;
            entries += n;
        }
    }

    for fleet in &stack.fleets {
        for &addr in fleet.addrs() {
            fnv1a(
                &mut digest,
                &fleet.survival_of(addr).to_bits().to_le_bytes(),
            );
        }
        rejected += fleet.obs().out_of_order.get();
    }
    if let Some(s) = &shadow {
        let same = stack
            .customers
            .iter()
            .all(|&a| s.fleet.survival_of(a).to_bits() == stack.fleets[0].survival_of(a).to_bits());
        gates.par_mismatches += u64::from(!same);
    }
    let timed = stack.c;
    gates.parse_errors = warmup.parse_errors + timed.parse_errors;
    gates.stray_bins = warmup.stray_bins + timed.stray_bins;
    gates.rejected_minutes = warmup.fleet_errors + timed.fleet_errors + rejected;
    let attempted = |c: &Counters| c.datagrams + c.flows_decoded + 6 * c.customer_minutes;
    // The binner drops exactly the late arrivals, and those are exactly
    // the flows the fault layer says it delivered late.
    gates.late_drop_mismatches +=
        u64::from(stack.late_drops() != late_sent || late_sent != gen.flows_delivered_late());

    let trace = opts.traced.then(|| {
        let (save_ms, load_ms, bytes) =
            checkpoint_round_trip(&mut stack.fleets[0], opts.out_dir, spec.name);
        TraceExtras {
            spans: probe.take_spans(),
            nonzero_share: nonzero as f64 / entries.max(1) as f64,
            par_step_s: shadow.as_ref().map(|s| s.step_s),
            par_threads: shadow.as_ref().map_or(1, |s| s.threads),
            checkpoint_save_ms: save_ms,
            checkpoint_load_ms: load_ms,
            checkpoint_bytes: bytes,
        }
    });

    PassResult {
        setup_s,
        minute_ms,
        first_timed_minute: first_timed,
        gen_s,
        timed,
        attempted: attempted(&warmup) + attempted(&timed),
        wire_bytes,
        late_drops: stack.late_drops() - late_at_timed_start,
        pending_max: stack.pending_max,
        active_alerts_max: stack.active_alerts_max,
        gaps_imputed: stack
            .fleets
            .iter()
            .map(|f| f.obs().gaps_imputed.get())
            .sum(),
        cold_restarts: stack
            .fleets
            .iter()
            .map(|f| f.obs().cold_restarts.get())
            .sum(),
        fleet_bytes_per_customer: stack
            .fleets
            .iter()
            .map(FleetDetector::bytes_per_customer)
            .sum(),
        digest,
        gates,
        online_observe_us: reference
            .as_ref()
            .map(|r| r.observe_s * 1e6 / r.observations.max(1) as f64),
        trace,
    }
}

/// One `save_detector` / `load_detector` of a fleet through the XCK1
/// container: `(save ms, load ms, file bytes)`.
fn checkpoint_round_trip(fleet: &mut FleetDetector, dir: &Path, workload: &str) -> (f64, f64, u64) {
    let path = dir.join(format!("checkpoint_{workload}.xck"));
    let t0 = Instant::now();
    let ck = fleet.to_checkpoint();
    save_detector(&path, &ck).expect("checkpoint saves inside the build directory");
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let t1 = Instant::now();
    let back = load_detector(&path).expect("a checkpoint just written loads");
    let load_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        back.customers.len(),
        ck.customers.len(),
        "checkpoint lost customers"
    );
    let _ = std::fs::remove_file(&path);
    (save_ms, load_ms, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{layer, self_time_by_layer};
    use crate::workloads::{spec, Scale, WORKLOADS};

    /// Every gate holds on every workload, and a traced repeat of the same
    /// seed reproduces the untraced pass bit for bit.
    #[test]
    fn passes_are_correct_and_repeat_bit_for_bit() {
        let dir = std::env::temp_dir();
        for name in WORKLOADS {
            let spec = spec(name, Scale::Smoke).unwrap();
            let opts = |traced| PassOpts {
                traced,
                reference: !traced,
                out_dir: &dir,
            };
            let plain = run_pass(&spec, 3, &opts(false));
            let traced = run_pass(&spec, 3, &opts(true));
            assert_eq!(plain.gates, Gates::default(), "{name}");
            assert_eq!(traced.gates, Gates::default(), "{name}");
            assert_eq!(plain.digest, traced.digest, "{name}");
            assert_eq!(plain.timed, traced.timed, "{name}");
            assert_eq!(plain.minute_ms.len(), spec.timed_minutes as usize);
            assert!(plain.timed.flows_decoded > 0 && plain.online_observe_us.is_some());
            assert_ne!(
                plain.digest,
                run_pass(&spec, 4, &opts(false)).digest,
                "{name}: seed ignored"
            );

            // The layer spans tile the minute-close span.
            let t = traced.trace.expect("traced pass");
            let by = self_time_by_layer(&t.spans, traced.first_timed_minute);
            let total: u64 = by.iter().map(|(_, ns)| ns).sum();
            let root = by
                .iter()
                .find(|(n, _)| *n == layer::MINUTE_CLOSE)
                .expect("root spans")
                .1;
            assert!(
                (root as f64) < 0.05 * total as f64,
                "{name}: unaccounted {root} of {total} ns"
            );
            assert!(t.checkpoint_bytes > 0 && (0.0..=1.0).contains(&t.nonzero_share));
        }
    }

    #[test]
    fn degraded_feed_drops_exactly_the_late_arrivals() {
        let spec = spec("degraded_feed", Scale::Smoke).unwrap();
        let p = run_pass(
            &spec,
            1,
            &PassOpts {
                traced: false,
                reference: false,
                out_dir: &std::env::temp_dir(),
            },
        );
        assert!(
            p.late_drops > 0,
            "the fault plan delivers late flows inside the timed window"
        );
        assert!(
            p.gaps_imputed > 0,
            "outage and customer gap reach the fleets as gaps"
        );
        assert_eq!(p.gates, Gates::default());
    }
}
