//! Deterministic, seeded fault injection over a streaming [`World`].
//!
//! Real ISP telemetry is not the clean minute-aligned stream the rest of
//! the workspace simulates: collectors crash, per-customer exports gap out,
//! records arrive duplicated or minutes late, routers renegotiate their
//! sampling rate mid-stream, and the commercial detector's alert feed has
//! its own outages. This module injects exactly those faults — driven by
//! one seed, so every degraded stream is perfectly reproducible — by
//! wrapping a [`World`] in a [`FaultedWorld`] whose [`FaultedWorld::step`]
//! yields a [`MinuteDelivery`]: the per-customer bins *as a collector
//! would actually have seen them*, plus presence flags and the CDet feed's
//! liveness bit.
//!
//! The fault model (DESIGN.md §12):
//!
//! * **Collector outage** — every customer's bin for the minute is lost
//!   (not delayed): presence reads `false` and the generated flows are
//!   dropped, exactly as when a collector is down.
//! * **Customer gap** — one customer's export is missing for a span of
//!   minutes; everyone else is unaffected.
//! * **Duplicated flows** — each flow in the window is emitted twice with
//!   probability `magnitude` (retransmitted export datagrams).
//! * **Late flows** — each flow in the window is held back with
//!   probability `magnitude` and delivered 1–3 minutes later, in the bin
//!   of its *delivery* minute but with its original `minute` field intact.
//! * **Sampling renegotiation** — flows in the window pass through a
//!   [`FlowThinner`] with factor `magnitude`, modelling a router
//!   re-exporting at a coarser rate; estimates stay unbiased because the
//!   thinner composes the factor onto `FlowRecord::sampling`.
//! * **CDet dropout** — the auxiliary alert feed reads down
//!   (`cdet_up == false`); flow delivery is unaffected.

use crate::world::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use xatu_netflow::binning::MinuteFlows;
use xatu_netflow::record::FlowRecord;
use xatu_netflow::sampler::FlowThinner;
use xatu_obs::Counter;

/// The fault families the injector can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// All customers' bins lost for the window.
    CollectorOutage,
    /// One customer's bins lost for the window.
    CustomerGap,
    /// Flows duplicated with probability `magnitude`.
    DuplicateFlows,
    /// Flows held with probability `magnitude`, delivered 1–3 min late.
    LateFlows,
    /// Flows re-thinned by factor `magnitude` (rounded to u32).
    SamplingRenegotiation,
    /// The CDet alert feed reads down for the window.
    CdetDropout,
}

/// One contiguous fault: `kind` is active on minutes in `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// Which fault family.
    pub kind: FaultKind,
    /// First affected minute (inclusive).
    pub start: u32,
    /// First unaffected minute (exclusive).
    pub end: u32,
    /// Customer index the fault targets; `None` means every customer.
    /// Only [`FaultKind::CustomerGap`] is per-customer today.
    pub customer: Option<usize>,
    /// Kind-specific intensity: a probability for duplicate/late windows,
    /// a thinning factor for sampling renegotiation, unused otherwise.
    pub magnitude: f64,
}

impl FaultWindow {
    fn covers(&self, minute: u32) -> bool {
        minute >= self.start && minute < self.end
    }
}

/// `t · num / den` without overflow, for `num <= den`: the product is
/// taken in `u64`, and the quotient is at most `t`, so it fits back.
fn fraction(t: u32, num: u32, den: u32) -> u32 {
    debug_assert!(num <= den && den > 0);
    (u64::from(t) * u64::from(num) / u64::from(den)) as u32
}

/// A full fault plan for one run: a set of [`FaultWindow`]s plus the seed
/// that drives the per-flow coin flips (duplication, lateness, delays).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    /// The windows, in no particular order; overlaps are allowed.
    pub windows: Vec<FaultWindow>,
    /// Seed for the injector's per-flow randomness.
    pub seed: u64,
}

/// Names accepted by [`FaultSchedule::builtin`], in a fixed order so tests
/// can iterate every scenario.
pub const BUILTIN_SCHEDULES: &[&str] = &[
    "clean",
    "outage",
    "gaps",
    "dup_late",
    "sampling_drift",
    "cdet_dropout",
    "cdet_flap",
    "everything",
];

impl FaultSchedule {
    /// The no-fault schedule: a [`FaultedWorld`] over it reproduces the
    /// raw [`World`] stream exactly.
    pub fn clean() -> Self {
        FaultSchedule {
            windows: Vec::new(),
            seed: 0,
        }
    }

    /// A randomized schedule: 3–8 windows of random kinds, starts and
    /// spans, deterministic in `seed`. Windows are confined to the first
    /// three quarters of the run so the tail always recovers.
    pub fn generate(seed: u64, total_minutes: u32, n_customers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B9).wrapping_add(0xFA17));
        let n_windows = 3 + rng.random_range(0..6);
        let max_span = (total_minutes / 12).max(2);
        let mut windows = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            let kind = match rng.random_range(0..6) {
                0 => FaultKind::CollectorOutage,
                1 => FaultKind::CustomerGap,
                2 => FaultKind::DuplicateFlows,
                3 => FaultKind::LateFlows,
                4 => FaultKind::SamplingRenegotiation,
                _ => FaultKind::CdetDropout,
            };
            let start = rng.random_range(0..fraction(total_minutes, 3, 4).max(1));
            let span = 1 + rng.random_range(0..max_span);
            let customer = if kind == FaultKind::CustomerGap {
                Some(rng.random_range(0..n_customers.max(1)))
            } else {
                None
            };
            let magnitude = match kind {
                FaultKind::DuplicateFlows => 0.2 + 0.4 * rng.random::<f64>(),
                FaultKind::LateFlows => 0.2 + 0.3 * rng.random::<f64>(),
                FaultKind::SamplingRenegotiation => (2 + rng.random_range(0..7)) as f64,
                _ => 1.0,
            };
            windows.push(FaultWindow {
                kind,
                start,
                end: (start + span).min(total_minutes),
                customer,
                magnitude,
            });
        }
        FaultSchedule { windows, seed }
    }

    /// A named, hand-built scenario (see [`BUILTIN_SCHEDULES`]). Each
    /// stresses one fault family hard; `"everything"` layers them all.
    /// Returns `None` for unknown names.
    pub fn builtin(name: &str, total_minutes: u32, n_customers: usize) -> Option<Self> {
        let t = total_minutes;
        let span = (t / 10).max(3);
        let w = |kind, start: u32, len: u32, customer, magnitude| FaultWindow {
            kind,
            start,
            end: start.saturating_add(len).min(t),
            customer,
            magnitude,
        };
        let windows = match name {
            "clean" => Vec::new(),
            "outage" => vec![
                w(FaultKind::CollectorOutage, t / 4, span, None, 1.0),
                w(FaultKind::CollectorOutage, t / 2, 2, None, 1.0),
            ],
            "gaps" => (0..n_customers.min(4))
                .map(|c| {
                    w(
                        FaultKind::CustomerGap,
                        t / 5 + (c as u32) * (t / 8).max(1),
                        span,
                        Some(c),
                        1.0,
                    )
                })
                .collect(),
            "dup_late" => vec![
                w(FaultKind::DuplicateFlows, t / 6, span, None, 0.5),
                w(FaultKind::LateFlows, t / 3, span, None, 0.4),
                w(FaultKind::LateFlows, fraction(t, 2, 3), span, None, 0.3),
            ],
            "sampling_drift" => vec![
                w(FaultKind::SamplingRenegotiation, t / 4, span * 2, None, 4.0),
                w(
                    FaultKind::SamplingRenegotiation,
                    fraction(t, 3, 5),
                    span,
                    None,
                    8.0,
                ),
            ],
            "cdet_dropout" => vec![
                w(FaultKind::CdetDropout, t / 5, span * 2, None, 1.0),
                w(FaultKind::CdetDropout, fraction(t, 3, 5), span, None, 1.0),
            ],
            "cdet_flap" => {
                // Rapid feed up/down cycles across the middle of the run:
                // each down stretch is just longer than the driver's
                // silence tolerance, so the degradation ladder engages and
                // recovers once per flap. Regression target: the ladder
                // must not oscillate alerts on every cycle.
                let (down, up) = (14u32, 4u32);
                let mut windows = Vec::new();
                let mut start = t / 5;
                while start + down <= fraction(t, 4, 5) {
                    windows.push(w(FaultKind::CdetDropout, start, down, None, 1.0));
                    start += down + up;
                }
                windows
            }
            "everything" => vec![
                w(FaultKind::CollectorOutage, t / 6, 3, None, 1.0),
                w(FaultKind::CustomerGap, t / 4, span, Some(0), 1.0),
                w(FaultKind::DuplicateFlows, t / 3, span, None, 0.5),
                w(FaultKind::LateFlows, fraction(t, 2, 5), span, None, 0.4),
                w(FaultKind::SamplingRenegotiation, t / 2, span, None, 4.0),
                w(FaultKind::CdetDropout, fraction(t, 3, 5), span, None, 1.0),
            ],
            _ => return None,
        };
        Some(FaultSchedule {
            windows,
            seed: 0xFA17,
        })
    }

    fn outage_covers(&self, minute: u32, customer: usize) -> bool {
        self.windows.iter().any(|w| {
            w.covers(minute)
                && match w.kind {
                    FaultKind::CollectorOutage => true,
                    FaultKind::CustomerGap => w.customer == Some(customer),
                    _ => false,
                }
        })
    }

    fn cdet_up(&self, minute: u32) -> bool {
        !self
            .windows
            .iter()
            .any(|w| w.kind == FaultKind::CdetDropout && w.covers(minute))
    }

    fn dup_probability(&self, minute: u32) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.kind == FaultKind::DuplicateFlows && w.covers(minute))
            .map(|w| w.magnitude)
            .fold(0.0, f64::max)
    }

    fn late_probability(&self, minute: u32) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.kind == FaultKind::LateFlows && w.covers(minute))
            .map(|w| w.magnitude)
            .fold(0.0, f64::max)
    }

    fn thin_factor(&self, minute: u32) -> u32 {
        // At least 1: `max` maps NaN and anything below 1 to 1.0, and the
        // cast saturates (+inf reads `u32::MAX`).
        self.windows
            .iter()
            .filter(|w| w.kind == FaultKind::SamplingRenegotiation && w.covers(minute))
            .map(|w| w.magnitude.max(1.0) as u32)
            .max()
            .unwrap_or(1)
    }
}

/// Injection-side telemetry, deterministic in the world + schedule seeds.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultObs {
    /// (minute, customer) bins suppressed by outages or gaps.
    pub bins_suppressed: Counter,
    /// Extra flow copies injected by duplication windows.
    pub flows_duplicated: Counter,
    /// Flows held back for late delivery.
    pub flows_delayed: Counter,
    /// Held flows actually delivered (late arrivals).
    pub flows_delivered_late: Counter,
    /// Held flows never delivered (run ended, or delivery bin suppressed).
    pub flows_lost_late: Counter,
    /// Flows dropped by sampling-renegotiation thinning.
    pub flows_thinned_away: Counter,
    /// Minutes on which the CDet feed read down.
    pub cdet_down_minutes: Counter,
}

/// One minute of degraded delivery: what the collector handed downstream.
#[derive(Clone, Debug)]
pub struct MinuteDelivery {
    /// The wall-clock minute of this delivery.
    pub minute: u32,
    /// One bin per customer, in customer order — **always** full length;
    /// a suppressed bin is present in the vec but empty, with its
    /// `present` flag false, so downstream indexing never shifts.
    pub bins: Vec<MinuteFlows>,
    /// `present[i]` is false when customer `i`'s export was lost.
    pub present: Vec<bool>,
    /// Whether the CDet alert feed is live this minute.
    pub cdet_up: bool,
}

/// A [`World`] streamed through a [`FaultSchedule`].
///
/// `Clone` is how the faulted stream is checkpointed: the clone resumes
/// from the same minute with the same pending late-flow queue and the same
/// RNG phase, so replay is bit-identical.
#[derive(Clone)]
pub struct FaultedWorld {
    world: World,
    schedule: FaultSchedule,
    rng: StdRng,
    /// Held flows keyed by delivery minute: `(customer index, flow)`.
    late: BTreeMap<u32, Vec<(usize, FlowRecord)>>,
    /// Lazily created per renegotiation factor; reset outside windows so
    /// each renegotiation episode starts from phase 0.
    thinner: Option<FlowThinner>,
    obs: FaultObs,
}

impl FaultedWorld {
    /// Wraps a world in a fault schedule.
    pub fn new(world: World, schedule: FaultSchedule) -> Self {
        let rng = StdRng::seed_from_u64(schedule.seed.wrapping_mul(0x45d9f3b).wrapping_add(0xF0E1));
        FaultedWorld {
            world,
            schedule,
            rng,
            late: BTreeMap::new(),
            thinner: None,
            obs: FaultObs::default(),
        }
    }

    /// The wrapped world (ground truth, customers, blocklists …).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The schedule driving the injection.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Injection telemetry accumulated so far.
    pub fn obs(&self) -> &FaultObs {
        &self.obs
    }

    /// True when the configured period is exhausted.
    pub fn finished(&self) -> bool {
        self.world.finished()
    }

    /// The current minute (the one `step` will produce next).
    pub fn minute(&self) -> u32 {
        self.world.minute()
    }

    /// Advances one minute through the fault layer.
    ///
    /// # Panics
    /// Panics when the world is [`FaultedWorld::finished`], as
    /// [`World::step`] does. In a debug build it also panics when a late
    /// window holds a flow at a minute within 3 of `u32::MAX`: the
    /// delivery minute overflows (a period of over 8,000 years).
    pub fn step(&mut self) -> MinuteDelivery {
        let minute = self.world.minute();
        let mut bins = self.world.step();
        let n = bins.len();

        let dup_p = self.schedule.dup_probability(minute);
        let late_p = self.schedule.late_probability(minute);
        let factor = self.schedule.thin_factor(minute);
        if factor > 1 {
            let stale = self.thinner.as_ref().map(|t| t.factor() != factor);
            if stale.unwrap_or(true) {
                self.thinner = Some(FlowThinner::new(factor));
            }
        } else {
            self.thinner = None;
        }

        let mut present = vec![true; n];
        for (ci, bin) in bins.iter_mut().enumerate() {
            if self.schedule.outage_covers(minute, ci) {
                // Lost, not delayed: a down collector never sees the data.
                present[ci] = false;
                bin.flows.clear();
                self.obs.bins_suppressed.inc();
                continue;
            }
            if let Some(thinner) = self.thinner.as_mut() {
                let before = bin.flows.len();
                bin.flows = bin.flows.iter().filter_map(|f| thinner.thin(*f)).collect();
                self.obs
                    .flows_thinned_away
                    .add((before - bin.flows.len()) as u64);
            }
            if late_p > 0.0 {
                let mut kept = Vec::with_capacity(bin.flows.len());
                for f in bin.flows.drain(..) {
                    if self.rng.random::<f64>() < late_p {
                        let delay = 1 + self.rng.random_range(0..3) as u32;
                        self.late.entry(minute + delay).or_default().push((ci, f));
                        self.obs.flows_delayed.inc();
                    } else {
                        kept.push(f);
                    }
                }
                bin.flows = kept;
            }
            if dup_p > 0.0 {
                let originals = bin.flows.len();
                for i in 0..originals {
                    if self.rng.random::<f64>() < dup_p {
                        let copy = bin.flows[i];
                        bin.flows.push(copy);
                        self.obs.flows_duplicated.inc();
                    }
                }
            }
        }

        // Late arrivals land in the bin of their *delivery* minute, keeping
        // their original `minute` field — downstream sees genuinely stale
        // records. Arrivals into a suppressed bin are lost with it. `ci`
        // indexes `bins` and `present`: it was a customer index of an
        // earlier minute, and the world's customer list never changes.
        if let Some(arrivals) = self.late.remove(&minute) {
            for (ci, f) in arrivals {
                if present[ci] {
                    bins[ci].flows.push(f);
                    self.obs.flows_delivered_late.inc();
                } else {
                    self.obs.flows_lost_late.inc();
                }
            }
        }

        let cdet_up = self.schedule.cdet_up(minute);
        if !cdet_up {
            self.obs.cdet_down_minutes.inc();
        }

        MinuteDelivery {
            minute,
            bins,
            present,
            cdet_up,
        }
    }

    /// Flows still held in the late queue (lost if the run ends now).
    pub fn pending_late_flows(&self) -> usize {
        self.late.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn world(seed: u64) -> World {
        World::new(WorldConfig::smoke_test(seed))
    }

    #[test]
    fn clean_schedule_reproduces_the_raw_stream() {
        let mut raw = world(11);
        let mut faulted = FaultedWorld::new(world(11), FaultSchedule::clean());
        for _ in 0..40 {
            let a = raw.step();
            let d = faulted.step();
            assert!(d.present.iter().all(|&p| p));
            assert!(d.cdet_up);
            for (x, y) in a.iter().zip(&d.bins) {
                assert_eq!(x.flows, y.flows);
            }
        }
    }

    #[test]
    fn outage_suppresses_every_customer() {
        let w = world(12);
        let schedule = FaultSchedule {
            windows: vec![FaultWindow {
                kind: FaultKind::CollectorOutage,
                start: 5,
                end: 8,
                customer: None,
                magnitude: 1.0,
            }],
            seed: 1,
        };
        let mut f = FaultedWorld::new(w, schedule);
        for m in 0..12u32 {
            let d = f.step();
            assert_eq!(d.bins.len(), d.present.len());
            let expect_present = !(5..8).contains(&m);
            assert!(d.present.iter().all(|&p| p == expect_present), "m={m}");
            if !expect_present {
                assert!(d.bins.iter().all(|b| b.flows.is_empty()));
            }
        }
    }

    #[test]
    fn customer_gap_only_hits_its_target() {
        let w = world(13);
        let schedule = FaultSchedule {
            windows: vec![FaultWindow {
                kind: FaultKind::CustomerGap,
                start: 2,
                end: 6,
                customer: Some(1),
                magnitude: 1.0,
            }],
            seed: 1,
        };
        let mut f = FaultedWorld::new(w, schedule);
        for m in 0..8u32 {
            let d = f.step();
            for (ci, &p) in d.present.iter().enumerate() {
                let gapped = ci == 1 && (2..6).contains(&m);
                assert_eq!(p, !gapped, "m={m} ci={ci}");
            }
        }
    }

    #[test]
    fn late_flows_keep_their_original_minute() {
        let w = world(14);
        let schedule = FaultSchedule {
            windows: vec![FaultWindow {
                kind: FaultKind::LateFlows,
                start: 0,
                end: 5,
                customer: None,
                magnitude: 1.0, // hold everything
            }],
            seed: 2,
        };
        let mut f = FaultedWorld::new(w, schedule);
        let d0 = f.step();
        assert!(d0.bins.iter().all(|b| b.flows.is_empty()));
        assert!(f.pending_late_flows() > 0);
        let mut saw_stale = false;
        for _ in 1..10 {
            let d = f.step();
            for bin in &d.bins {
                for flow in &bin.flows {
                    if flow.minute < d.minute {
                        saw_stale = true;
                    }
                    assert!(flow.minute <= d.minute);
                    assert!(d.minute - flow.minute <= 3, "delay beyond cap");
                }
            }
        }
        assert!(saw_stale, "no late arrival observed");
    }

    #[test]
    fn duplication_only_adds_copies() {
        let mut raw = world(15);
        let schedule = FaultSchedule {
            windows: vec![FaultWindow {
                kind: FaultKind::DuplicateFlows,
                start: 0,
                end: 10,
                customer: None,
                magnitude: 1.0, // duplicate everything
            }],
            seed: 3,
        };
        let mut f = FaultedWorld::new(world(15), schedule);
        for _ in 0..10 {
            let a = raw.step();
            let d = f.step();
            for (x, y) in a.iter().zip(&d.bins) {
                assert_eq!(y.flows.len(), 2 * x.flows.len());
            }
        }
    }

    #[test]
    fn renegotiation_rescales_sampling_rate() {
        let w = world(16);
        let base_rate = w.config().sampling_rate;
        let schedule = FaultSchedule {
            windows: vec![FaultWindow {
                kind: FaultKind::SamplingRenegotiation,
                start: 0,
                end: 5,
                customer: None,
                magnitude: 4.0,
            }],
            seed: 4,
        };
        let mut f = FaultedWorld::new(w, schedule);
        let mut saw_flow = false;
        for _ in 0..5 {
            for bin in f.step().bins {
                for flow in bin.flows {
                    saw_flow = true;
                    assert_eq!(flow.sampling, base_rate * 4);
                }
            }
        }
        assert!(saw_flow, "thinning removed every flow");
        // After the window the stream returns to the base rate.
        for bin in f.step().bins {
            for flow in bin.flows {
                assert_eq!(flow.sampling, base_rate);
            }
        }
    }

    #[test]
    fn cdet_dropout_gates_only_the_feed_bit() {
        let w = world(17);
        let schedule = FaultSchedule {
            windows: vec![FaultWindow {
                kind: FaultKind::CdetDropout,
                start: 3,
                end: 7,
                customer: None,
                magnitude: 1.0,
            }],
            seed: 5,
        };
        let mut f = FaultedWorld::new(w, schedule);
        for m in 0..9u32 {
            let d = f.step();
            assert_eq!(d.cdet_up, !(3..7).contains(&m), "m={m}");
            assert!(d.present.iter().all(|&p| p));
        }
    }

    #[test]
    fn generated_schedules_are_deterministic_and_bounded() {
        let a = FaultSchedule::generate(99, 240, 4);
        let b = FaultSchedule::generate(99, 240, 4);
        assert_eq!(a, b);
        assert!(!a.windows.is_empty());
        for w in &a.windows {
            assert!(w.start < 240 && w.end <= 240 && w.end > w.start);
            if let Some(c) = w.customer {
                assert!(c < 4);
            }
        }
        let c = FaultSchedule::generate(100, 240, 4);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn every_builtin_name_resolves() {
        for name in BUILTIN_SCHEDULES {
            let s = FaultSchedule::builtin(name, 240, 4).expect("builtin resolves");
            for w in &s.windows {
                assert!(w.end <= 240);
            }
        }
        assert!(FaultSchedule::builtin("nonsense", 240, 4).is_none());
    }

    /// Periods past `u32::MAX / 5` used to overflow the window arithmetic
    /// (a debug build panicked); below that the windows are unchanged.
    #[test]
    fn schedules_over_the_longest_period_do_not_overflow() {
        let t = u32::MAX;
        // `cdet_flap` is left out: it lays a window every 18 minutes.
        for name in BUILTIN_SCHEDULES.iter().filter(|&&n| n != "cdet_flap") {
            let s = FaultSchedule::builtin(name, t, 4).expect("builtin resolves");
            assert!(s.windows.iter().all(|w| w.start < w.end), "{name}");
        }
        let s = FaultSchedule::builtin("everything", t, 4).expect("builtin resolves");
        let starts: Vec<u32> = s.windows.iter().map(|w| w.start).collect();
        assert_eq!(starts[4..], [t / 2, (u64::from(t) * 3 / 5) as u32]);
        let s = FaultSchedule::generate(3, t, 4);
        assert!(s.windows.iter().all(|w| w.start < w.end && w.end <= t));
        for t in [240, 5760, 1 << 20] {
            let s = FaultSchedule::builtin("everything", t, 4).expect("builtin resolves");
            let starts: Vec<u32> = s.windows.iter().map(|w| w.start).collect();
            assert_eq!(starts, [t / 6, t / 4, t / 3, t * 2 / 5, t / 2, t * 3 / 5]);
        }
    }

    #[test]
    fn faulted_world_clone_resumes_bit_identically() {
        let schedule = FaultSchedule::generate(7, 240, 4);
        let mut a = FaultedWorld::new(world(18), schedule);
        for _ in 0..20 {
            a.step();
        }
        let mut b = a.clone();
        for _ in 0..20 {
            let da = a.step();
            let db = b.step();
            assert_eq!(da.present, db.present);
            for (x, y) in da.bins.iter().zip(&db.bins) {
                assert_eq!(x.flows, y.flows);
            }
        }
    }
}
