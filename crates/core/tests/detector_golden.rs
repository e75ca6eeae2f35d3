//! Golden digests of the three detector front-ends.
//!
//! Every row streams a fixed input through one front-end —
//! [`FleetDetector::observe`], the exact fleet, the
//! [`run_faulted`] driver, solo and with a companion attached, or the
//! [`run_scenario`] matrix — and folds what the front-end emits into two
//! FNV-1a digests ([`Golden`]):
//!
//! * `events` — every [`DetectorEvent`] in emission order (kind, attack
//!   type, customer, raise minute, end minute) and nothing else: the
//!   **decisions**. A change to the numerics (an activation, a kernel's
//!   rounding) must leave these constants alone; if one moves, the change
//!   moved a decision and is not a numeric change.
//! * `full` — the same events plus the bits of every hazard and survival
//!   and the bytes [`save_detector`] writes for a mid-run or end-of-run
//!   checkpoint. These move, once and in the last bits, with any change
//!   that is *meant* to move scores; they are the gate for every change
//!   that claims to move nothing.
//!
//! A row that moves prints its new digest in the failure message. Update a
//! `full` constant only for a change that is meant to move scores or
//! checkpoint bytes, an `events` constant only for one that is meant to
//! move decisions, and say so in the change description.

use std::path::PathBuf;

use xatu_core::checkpoint::{attack_type_tag, load_detector, save_detector};
use xatu_core::config::XatuConfig;
use xatu_core::faulted::{run_faulted, FaultReport, FaultedRunConfig, RunControl};
use xatu_core::fleet::{FleetDetector, FleetInput};
use xatu_core::fusion::{Companion, ErrorNormalizer};
use xatu_core::model::XatuModel;
use xatu_core::scenarios::{run_scenario, ScenarioRunConfig};
use xatu_detectors::alert::Alert;
use xatu_detectors::traits::DetectorEvent;
use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_nn::init::Initializer;
use xatu_nn::LstmAutoencoder;
use xatu_simnet::faults::{FaultKind, FaultSchedule, BUILTIN_SCHEDULES};
use xatu_simnet::{ScenarioFamily, World, WorldConfig};

/// Incremental FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What a row's two digests must read: decisions only, and everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    events: u64,
    full: u64,
}

/// The two running digests of a row. Events fold into both; scores and
/// checkpoint bytes into `full` only.
struct Digest {
    events: Fnv,
    full: Fnv,
}

impl Digest {
    fn new() -> Self {
        Digest {
            events: Fnv(0xcbf2_9ce4_8422_2325),
            full: Fnv(0xcbf2_9ce4_8422_2325),
        }
    }

    fn finish(self) -> Golden {
        Golden {
            events: self.events.0,
            full: self.full.0,
        }
    }

    /// Checkpoint bytes: `full` only.
    fn bytes(&mut self, bytes: &[u8]) {
        self.full.bytes(bytes);
    }

    /// A count that is not a decision (e.g. minutes recorded): `full` only.
    fn u32(&mut self, v: u32) {
        self.full.bytes(&v.to_le_bytes());
    }

    /// A hazard or survival: `full` only.
    fn f64(&mut self, v: f64) {
        self.full.bytes(&v.to_bits().to_le_bytes());
    }

    fn decision(&mut self, bytes: &[u8]) {
        self.events.bytes(bytes);
        self.full.bytes(bytes);
    }

    fn event(&mut self, e: &DetectorEvent) {
        let (kind, a) = match e {
            DetectorEvent::Raised(a) => (1u8, a),
            DetectorEvent::Ended(a) => (2u8, a),
        };
        self.decision(&[kind, attack_type_tag(a.attack_type)]);
        self.decision(&a.customer.0.to_le_bytes());
        self.decision(&a.detected_at.to_le_bytes());
        self.decision(&a.mitigation_end.map_or(u32::MAX, |m| m).to_le_bytes());
    }

    fn events(&mut self, events: &[DetectorEvent]) {
        self.decision(&(events.len() as u32).to_le_bytes());
        for e in events {
            self.event(e);
        }
    }

    /// A finished alert log, folded as the `Ended` events it amounts to.
    fn alerts(&mut self, log: &[Alert]) {
        let ended: Vec<DetectorEvent> = log.iter().map(|a| DetectorEvent::Ended(*a)).collect();
        self.events(&ended);
    }
}

fn scratch_file(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("xatu_golden_{}_{tag}", std::process::id()));
    p
}

fn cfg() -> XatuConfig {
    XatuConfig {
        timescales: (1, 3, 6),
        short_len: 8,
        medium_len: 6,
        long_len: 4,
        window: 6,
        hidden: 5,
        ..XatuConfig::smoke_test()
    }
}

const N_CUST: usize = 7;
const THRESHOLD: f64 = 0.9;

fn addr(c: usize) -> Ipv4 {
    Ipv4(0x0a00_0000 + c as u32)
}

/// Sparse-ish frames with an occasional NaN/±∞ (sanitization), a surge on
/// customer 0 so alerts raise, quiet-end and force-end under
/// [`THRESHOLD`], and — when `idle` is set — customer 6 sending exactly
/// all-zero frames outside a short burst, with one planted `-0.0`.
fn frame(c: usize, m: u32, idle: bool, out: &mut [f64]) {
    out.fill(0.0);
    if idle && c == 6 {
        if (100..112).contains(&m) {
            out[3] = 1.5 + m as f64 * 0.01;
            out[17] = -0.7;
        } else if m == 130 {
            out[9] = -0.0;
        }
        return;
    }
    for k in 0..8usize {
        let idx = (c * 37 + m as usize * 13 + k * 29) % NUM_FEATURES;
        out[idx] = ((c + 1) as f64 * 0.17 + m as f64 * 0.031 + k as f64 * 0.71).sin();
    }
    if m % 23 == 3 && c.is_multiple_of(3) {
        out[5] = f64::NAN;
    }
    if m % 29 == 11 && c == 1 {
        out[40] = f64::INFINITY;
        out[41] = f64::NEG_INFINITY;
    }
    if c == 0 && (60..90).contains(&m) {
        out[0] = 3.0;
    }
}

/// The degradation schedule: a short outage imputed on return, explicit
/// gap minutes, a long outage (cold restart: 50 > 3 × window) and a late
/// joiner.
fn degradation(c: usize, m: u32) -> FleetInput {
    if c == 2 && (40..=45).contains(&m) {
        FleetInput::Skip
    } else if c == 3 && m.is_multiple_of(17) && m > 0 {
        FleetInput::Gap
    } else if (c == 4 && (50..100).contains(&m)) || (c == 5 && m < 20) {
        FleetInput::Skip
    } else {
        FleetInput::Frame
    }
}

/// Gap minutes of a built-in fault schedule, as the fleet sees them:
/// collector outages hit every customer, customer gaps hit their own.
fn builtin_gaps(plan: &FaultSchedule) -> impl Fn(usize, u32) -> FleetInput + Sync + '_ {
    move |c, m| {
        let gap = plan.windows.iter().any(|w| {
            m >= w.start
                && m < w.end
                && match w.kind {
                    FaultKind::CollectorOutage => true,
                    FaultKind::CustomerGap => w.customer == Some(c),
                    _ => false,
                }
        });
        if gap {
            FleetInput::Gap
        } else {
            FleetInput::Frame
        }
    }
}

/// `FleetDetector::observe` through `schedule`, one customer at a time, killed at
/// `kill_at` (checkpoint → file → fresh detector) and resumed.
fn online_digest(
    n: usize,
    minutes: u32,
    kill_at: u32,
    idle: bool,
    schedule: impl Fn(usize, u32) -> FleetInput,
    tag: &str,
) -> Golden {
    let c = cfg();
    let mut det = FleetDetector::new(XatuModel::new(&c), AttackType::UdpFlood, THRESHOLD, &c);
    let mut d = Digest::new();
    let mut buf = vec![0.0; NUM_FEATURES];
    for m in 0..minutes {
        if m == kill_at {
            let path = scratch_file(tag);
            save_detector(&path, &det.to_checkpoint()).expect("save");
            d.bytes(&std::fs::read(&path).expect("read back"));
            det = FleetDetector::from_checkpoint(&load_detector(&path).expect("load"))
                .expect("restore");
            let _ = std::fs::remove_file(&path);
        }
        for cst in 0..n {
            let out = match schedule(cst, m) {
                FleetInput::Skip => continue,
                FleetInput::Gap => det.observe_gap(addr(cst), m),
                FleetInput::Frame => {
                    frame(cst, m, idle, &mut buf);
                    det.observe(addr(cst), m, &buf)
                }
            };
            let (hazard, survival, events) = out.expect("in-order minute");
            d.f64(hazard);
            d.f64(survival);
            d.events(&events);
        }
        for cst in 0..n {
            d.f64(det.survival_of(addr(cst)));
        }
    }
    // `close_all` order is not part of the golden (it was map order in
    // the pre-collapse per-address detector); the set of events is.
    let mut closed = det.close_all(minutes);
    closed.sort_by_key(|e| match e {
        DetectorEvent::Raised(a) | DetectorEvent::Ended(a) => a.customer.0,
    });
    d.events(&closed);
    d.finish()
}

/// A fleet through `schedule`: per-minute events in emission order, every
/// customer's survival, a mid-run kill/resume through a checkpoint file,
/// the end-of-run checkpoint bytes and the `close_all` events.
fn fleet_digest(
    threads: usize,
    n: usize,
    minutes: u32,
    kill_at: u32,
    idle: bool,
    schedule: impl Fn(usize, u32) -> FleetInput + Sync,
    tag: &str,
) -> Golden {
    let c = cfg();
    let model = XatuModel::new(&c);
    let mut det = FleetDetector::new(model, AttackType::UdpFlood, THRESHOLD, &c);
    for cst in 0..n {
        det.add_customer(addr(cst));
    }
    let mut d = Digest::new();
    let path = scratch_file(tag);
    for m in 0..minutes {
        if m == kill_at {
            save_detector(&path, &det.to_checkpoint()).expect("save");
            d.bytes(&std::fs::read(&path).expect("read back"));
            let ck = load_detector(&path).expect("load");
            det = FleetDetector::from_checkpoint(&ck).expect("restore");
        }
        let events = det
            .step_minute_batch(m, threads, |i, _a, out| {
                let action = schedule(i, m);
                if matches!(action, FleetInput::Frame) {
                    frame(i, m, idle, out);
                }
                action
            })
            .expect("in-order minute");
        d.events(events);
        for cst in 0..n {
            d.f64(det.survival_of(addr(cst)));
        }
    }
    save_detector(&path, &det.to_checkpoint()).expect("save");
    d.bytes(&std::fs::read(&path).expect("read back"));
    let _ = std::fs::remove_file(&path);
    d.events(&det.close_all(minutes));
    d.finish()
}

/// A companion that wins the fused min on some minutes and not on others:
/// an untrained autoencoder, whose errors on these worlds run 0.72–1.68,
/// scored against a fixed (1, 2) band. Across the eight fused rows it
/// scores 34,344 minutes and is the lower survival on 20,769 of them.
fn companion(window: usize) -> Companion {
    Companion {
        ae: LstmAutoencoder::new(VOLUMETRIC_WIDTH, 4, &mut Initializer::new(5)),
        norm: ErrorNormalizer::new(1.0, 2.0),
        window,
    }
}

/// A fault report's recorded minutes, survivals and Xatu alert log.
fn report_digest(report: &FaultReport) -> Digest {
    let mut d = Digest::new();
    d.u32(report.minutes_recorded);
    for &s in &report.survivals {
        d.f64(s);
    }
    d.alerts(&report.alerts);
    d
}

/// `run_faulted` over a three-customer one-day world under the named
/// built-in schedule, checkpointing (without killing) at mid-run: the
/// report's survivals and alerts plus the checkpoint file's bytes.
fn faulted_digest(name: &str, fused: bool) -> Golden {
    let world = WorldConfig {
        n_customers: 3,
        days: 1,
        ..WorldConfig::smoke_test(11)
    };
    let total = World::new(world).total_minutes();
    let xatu = XatuConfig {
        seed: 12,
        threads: 1,
        ..XatuConfig::smoke_test()
    };
    let run_cfg = FaultedRunConfig {
        schedule: FaultSchedule::builtin(name, total, 3).expect("builtin resolves"),
        companion: fused.then(|| companion(xatu.window)),
        world,
        xatu,
    };
    let path = scratch_file(&format!("faulted_{name}_{fused}"));
    let report = run_faulted(
        XatuModel::new(&run_cfg.xatu),
        AttackType::UdpFlood,
        0.5,
        &run_cfg,
        RunControl::CheckpointAt {
            minute: total / 2,
            path: &path,
            kill: false,
        },
    )
    .expect("faulted run");
    let mut d = report_digest(&report);
    d.bytes(&std::fs::read(&path).expect("checkpoint written"));
    let _ = std::fs::remove_file(&path);
    d.finish()
}

/// `run_faulted` over the six-customer four-day smoke world, where CDet
/// alerts are old enough for the A5 window to have to slide: both alert
/// logs, and every survival.
fn faulted_smoke_digest(name: &str) -> Golden {
    let mut run_cfg = FaultedRunConfig::smoke_test(9, FaultSchedule::clean());
    run_cfg.xatu.threads = 1;
    let world = World::new(run_cfg.world);
    run_cfg.schedule = FaultSchedule::builtin(name, world.total_minutes(), world.customers().len())
        .expect("builtin resolves");
    let report = run_faulted(
        XatuModel::new(&run_cfg.xatu),
        AttackType::UdpFlood,
        0.5,
        &run_cfg,
        RunControl::Full,
    )
    .expect("faulted run");
    let mut d = report_digest(&report);
    d.alerts(&report.cdet_alerts);
    d.finish()
}

/// `run_scenario` over the smoke world with an untrained model: the
/// NetScout, FastNetMon and booster alert logs, then the booster's
/// survival of every customer at every minute, then those three scores.
fn scenario_digest(family: ScenarioFamily) -> Golden {
    let run_cfg = ScenarioRunConfig {
        world: WorldConfig::smoke_test(9),
        xatu: XatuConfig {
            seed: 10,
            threads: 1,
            ..XatuConfig::smoke_test()
        },
        threshold: 0.5,
    };
    let models = [(AttackType::UdpFlood, XatuModel::new(&run_cfg.xatu))];
    let report = run_scenario(&models, &run_cfg, family).expect("scenario run");
    let mut d = Digest::new();
    for log in &report.alerts {
        d.alerts(log);
    }
    for &s in &report.survivals {
        d.f64(s);
    }
    for score in &report.scores {
        d.bytes(score.detector.as_bytes());
        d.u32(score.detected as u32);
        d.u32(score.total as u32);
        d.f64(score.median_delay);
        d.bytes(&score.overhead_minutes.to_le_bytes());
    }
    d.finish()
}

/// Collects `(row, expected, got)` for every row that moved, so one run
/// reports all of them.
#[derive(Default)]
struct Moved(Vec<String>);

impl Moved {
    fn check(&mut self, row: &str, expected: Golden, got: Golden) {
        for (which, expected, got) in [
            ("events", expected.events, got.events),
            ("full", expected.full, got.full),
        ] {
            if expected != got {
                self.0.push(format!(
                    "{row} [{which}]: expected {expected:#018x}, got {got:#018x}"
                ));
            }
        }
    }

    fn finish(self) {
        assert!(
            self.0.is_empty(),
            "golden digests moved:\n{}",
            self.0.join("\n")
        );
    }
}

// History of the constants. `events`: captured with the split (on the
// `libm` activations) and not moved since. `full`: every row of the exact
// backend and of `run_faulted` was re-captured once, when `sigmoid`/`tanh`
// became the in-tree implementations (xatu-nn `activations`): across the
// 143,448 hazards and survivals the rows fold, 77.5 % kept their bits and
// the largest |Δ| was 4.4e-16; no `events` constant moved. The smoke-world rows
// (`FAULTED_SMOKE`, `SCENARIOS`) were captured on the drivers that never
// expired the A5 window; the fix moved the `full` side of both `run_faulted`
// rows and of `multi_vector` and `carpet_bomb`, once, and no `events` side.
// The eight fused `FAULTED` rows, both sides, were re-captured once when the
// test companion moved from a logistic blend to the max-combine min that
// every other caller uses; no other row moved. The four `SCENARIOS` rows
// were re-captured once when the digest stopped folding the fleet column
// (`xatu_fleet`: head 0 scored a second time); no other row moved.
// The `full` side of every row that folds checkpoint bytes (the online,
// exact-fleet and `run_faulted` rows) was re-captured once for checkpoint
// version 2 (a new version field, and an empty short-timescale bucket
// record per customer); no `events` side moved.

/// `g(events, full)`.
const fn g(events: u64, full: u64) -> Golden {
    Golden { events, full }
}

const ONLINE_DEGRADATION: Golden = g(0x78e8_6242_81a8_8856, 0x7c83_d705_ed0b_f5b4);
const EXACT_DEGRADATION: Golden = g(0x89b9_51d9_56ad_bf52, 0xa585_cfca_facb_a95e);
/// Per built-in schedule: `FleetDetector::observe`, exact fleet. Only
/// outage and gap windows reach these front-ends directly, so schedules
/// without them share the clean row.
const BUILTIN_GAPS: [[Golden; 2]; 8] = [
    // clean
    [
        g(0x09c9_83c1_9023_5a0d, 0x6805_79ba_3c65_c8a2),
        g(0xd27d_57b8_87e2_ec89, 0xd01e_ed92_2922_ff3f),
    ],
    // outage
    [
        g(0x990d_8c10_7d8f_206d, 0x3cd7_8001_d364_a5e2),
        g(0x717e_8b89_21ad_64e7, 0xe342_335a_23eb_65b0),
    ],
    // gaps
    [
        g(0xaba8_b902_a5a4_ceee, 0x8691_7ce1_7cf2_d9b5),
        g(0x304d_f166_e969_a458, 0x9ef5_04fa_ae64_39df),
    ],
    // dup_late
    [
        g(0x09c9_83c1_9023_5a0d, 0x6805_79ba_3c65_c8a2),
        g(0xd27d_57b8_87e2_ec89, 0xd01e_ed92_2922_ff3f),
    ],
    // sampling_drift
    [
        g(0x09c9_83c1_9023_5a0d, 0x6805_79ba_3c65_c8a2),
        g(0xd27d_57b8_87e2_ec89, 0xd01e_ed92_2922_ff3f),
    ],
    // cdet_dropout
    [
        g(0x09c9_83c1_9023_5a0d, 0x6805_79ba_3c65_c8a2),
        g(0xd27d_57b8_87e2_ec89, 0xd01e_ed92_2922_ff3f),
    ],
    // cdet_flap
    [
        g(0x09c9_83c1_9023_5a0d, 0x6805_79ba_3c65_c8a2),
        g(0xd27d_57b8_87e2_ec89, 0xd01e_ed92_2922_ff3f),
    ],
    // everything
    [
        g(0x8bf5_cf18_184b_46fb, 0xadfd_55e1_031c_aaa0),
        g(0x3d1c_8366_0bfd_6ecf, 0x3f52_f74a_77aa_543d),
    ],
];
/// Per built-in schedule: `run_faulted` solo, fused.
const FAULTED: [[Golden; 2]; 8] = [
    [
        g(0x4d25_767f_9dce_13f5, 0x4e22_4a2d_4372_2dcf),
        g(0xf155_4525_88bb_dd7b, 0x5886_1337_c96e_f0a6),
    ], // clean
    [
        g(0x4d25_767f_9dce_13f5, 0x2316_aae4_5e43_0e8a),
        g(0x54b0_d610_f00d_21aa, 0x4cb9_b0f1_0450_fd8c),
    ], // outage
    [
        g(0x4d25_767f_9dce_13f5, 0xb0e8_8c8e_5adc_5aa3),
        g(0xdae4_df9c_76b2_49c0, 0x0c82_0e2a_65e9_6a10),
    ], // gaps
    [
        g(0x4d25_767f_9dce_13f5, 0xc84a_cfcf_450f_eafe),
        g(0xf116_f02f_90b0_f912, 0xcc61_90b5_a78f_feb6),
    ], // dup_late
    [
        g(0x4d25_767f_9dce_13f5, 0xa398_e624_8ceb_514a),
        g(0xf155_4525_88bb_dd7b, 0x7a2c_d8a0_450f_7cc0),
    ], // sampling_drift
    [
        g(0x4d25_767f_9dce_13f5, 0xb796_2e7f_35f4_6113),
        g(0xf155_4525_88bb_dd7b, 0x654c_91b3_0476_d51a),
    ], // cdet_dropout
    [
        g(0x4d25_767f_9dce_13f5, 0x31c2_399d_6f83_ca4e),
        g(0xf155_4525_88bb_dd7b, 0xc13f_7015_f81d_2c4d),
    ], // cdet_flap
    [
        g(0x4d25_767f_9dce_13f5, 0x7802_3096_3193_59c9),
        g(0xde31_afd8_9d00_8763, 0x213e_922e_05fe_eda4),
    ], // everything
];

/// `run_faulted` on the smoke world: `clean`, `everything`.
const FAULTED_SMOKE: [(&str, Golden); 2] = [
    ("clean", g(0xc104_bccb_89f4_6b06, 0xedfb_4401_da0f_d7a9)),
    (
        "everything",
        g(0x2115_8170_e557_6d4b, 0x1238_2380_92a9_ad81),
    ),
];
/// `run_scenario` per family, in `ScenarioFamily::ALL` order.
const SCENARIOS: [Golden; 4] = [
    g(0xbccf_e98c_6d65_e5fd, 0xc001_3dc0_328a_e35a), // multi_vector
    g(0xeaec_eb95_1197_f3b8, 0x9489_9517_fd0a_34a5), // pulse_wave
    g(0x0b5b_641e_fa7e_becb, 0xca4b_3dc8_6447_239d), // low_and_slow
    g(0xc14f_3b9c_bdee_abcc, 0x3c04_3052_7a97_e3f4), // carpet_bomb
];

#[test]
fn degradation_schedule_digests() {
    let mut moved = Moved::default();
    moved.check(
        "online",
        ONLINE_DEGRADATION,
        online_digest(N_CUST, 160, 83, false, degradation, "online_deg"),
    );
    for threads in [1usize, 4] {
        moved.check(
            &format!("exact fleet, {threads} threads"),
            EXACT_DEGRADATION,
            fleet_digest(threads, N_CUST, 160, 83, false, degradation, "exact_deg"),
        );
    }
    moved.finish();
}

#[test]
fn builtin_schedule_gap_digests() {
    let mut moved = Moved::default();
    let (n, total) = (N_CUST, 160u32);
    for (name, want) in BUILTIN_SCHEDULES.iter().zip(BUILTIN_GAPS) {
        let plan = FaultSchedule::builtin(name, total, n).expect("builtin resolves");
        let tag = format!("gaps_{name}");
        moved.check(
            &format!("{name}: online"),
            want[0],
            online_digest(n, total, 71, true, builtin_gaps(&plan), &tag),
        );
        for threads in [1usize, 4] {
            moved.check(
                &format!("{name}: exact fleet, {threads} threads"),
                want[1],
                fleet_digest(threads, n, total, 71, true, builtin_gaps(&plan), &tag),
            );
        }
    }
    moved.finish();
}

#[test]
fn run_faulted_digests() {
    let mut moved = Moved::default();
    for (name, want) in BUILTIN_SCHEDULES.iter().zip(FAULTED) {
        moved.check(
            &format!("{name}: solo"),
            want[0],
            faulted_digest(name, false),
        );
        moved.check(
            &format!("{name}: fused"),
            want[1],
            faulted_digest(name, true),
        );
    }
    moved.finish();
}

#[test]
fn run_faulted_smoke_world_digests() {
    let mut moved = Moved::default();
    for (name, want) in FAULTED_SMOKE {
        moved.check(name, want, faulted_smoke_digest(name));
    }
    moved.finish();
}

#[test]
fn run_scenario_digests() {
    let mut moved = Moved::default();
    for (family, want) in ScenarioFamily::ALL.into_iter().zip(SCENARIOS) {
        moved.check(family.name(), want, scenario_digest(family));
    }
    moved.finish();
}
