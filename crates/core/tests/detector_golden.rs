//! Golden digests of the three detector front-ends.
//!
//! Every row streams a fixed input through one front-end —
//! [`OnlineDetector`], the exact fleet, the
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
use xatu_core::fusion::ErrorNormalizer;
use xatu_core::model::XatuModel;
use xatu_core::online::{Companion, OnlineDetector};
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
    if m % 23 == 3 && c % 3 == 0 {
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
    } else if c == 3 && m % 17 == 0 && m > 0 {
        FleetInput::Gap
    } else if c == 4 && (50..100).contains(&m) {
        FleetInput::Skip
    } else if c == 5 && m < 20 {
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

/// `OnlineDetector` through `schedule`, one customer at a time, killed at
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
    let mut det = OnlineDetector::new(XatuModel::new(&c), AttackType::UdpFlood, THRESHOLD, &c);
    let mut d = Digest::new();
    let mut buf = vec![0.0; NUM_FEATURES];
    for m in 0..minutes {
        if m == kill_at {
            let path = scratch_file(tag);
            save_detector(&path, &det.to_checkpoint()).expect("save");
            d.bytes(&std::fs::read(&path).expect("read back"));
            det = OnlineDetector::from_checkpoint(&load_detector(&path).expect("load"))
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
    // the pre-collapse `OnlineDetector`); the set of events is.
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
    let total = World::new(world.clone()).total_minutes();
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

/// `run_scenario` over the smoke world with an untrained model: the four
/// alert logs, then every recorded survival and every score.
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
// every other caller uses; no other row moved.

/// `g(events, full)`.
const fn g(events: u64, full: u64) -> Golden {
    Golden { events, full }
}

const ONLINE_DEGRADATION: Golden = g(0x78e8_6242_81a8_8856, 0xb524_6c2c_9f98_3a05);
const EXACT_DEGRADATION: Golden = g(0x89b9_51d9_56ad_bf52, 0x15ae_47bf_28d7_6cd8);
/// Per built-in schedule: `OnlineDetector`, exact fleet. Only
/// outage and gap windows reach these front-ends directly, so schedules
/// without them share the clean row.
const BUILTIN_GAPS: [[Golden; 2]; 8] = [
    // clean
    [
        g(0x09c9_83c1_9023_5a0d, 0xb770_23e0_44d4_5f71),
        g(0xd27d_57b8_87e2_ec89, 0x6a64_a65e_e5de_2952),
    ],
    // outage
    [
        g(0x990d_8c10_7d8f_206d, 0xbe30_e6b4_ca80_6664),
        g(0x717e_8b89_21ad_64e7, 0x9714_12f3_d51c_80e1),
    ],
    // gaps
    [
        g(0xaba8_b902_a5a4_ceee, 0x5f76_207d_8f05_25df),
        g(0x304d_f166_e969_a458, 0x28ae_1c40_b9cd_68cf),
    ],
    // dup_late
    [
        g(0x09c9_83c1_9023_5a0d, 0xb770_23e0_44d4_5f71),
        g(0xd27d_57b8_87e2_ec89, 0x6a64_a65e_e5de_2952),
    ],
    // sampling_drift
    [
        g(0x09c9_83c1_9023_5a0d, 0xb770_23e0_44d4_5f71),
        g(0xd27d_57b8_87e2_ec89, 0x6a64_a65e_e5de_2952),
    ],
    // cdet_dropout
    [
        g(0x09c9_83c1_9023_5a0d, 0xb770_23e0_44d4_5f71),
        g(0xd27d_57b8_87e2_ec89, 0x6a64_a65e_e5de_2952),
    ],
    // cdet_flap
    [
        g(0x09c9_83c1_9023_5a0d, 0xb770_23e0_44d4_5f71),
        g(0xd27d_57b8_87e2_ec89, 0x6a64_a65e_e5de_2952),
    ],
    // everything
    [
        g(0x8bf5_cf18_184b_46fb, 0xd676_c7b1_47db_dd2c),
        g(0x3d1c_8366_0bfd_6ecf, 0x7b9f_9132_60b3_c0a7),
    ],
];
/// Per built-in schedule: `run_faulted` solo, fused.
const FAULTED: [[Golden; 2]; 8] = [
    [
        g(0x4d25_767f_9dce_13f5, 0x57fe_e719_4267_a7fb),
        g(0xf155_4525_88bb_dd7b, 0x93c9_0972_949f_bc25),
    ], // clean
    [
        g(0x4d25_767f_9dce_13f5, 0x6990_d41c_938d_feb4),
        g(0x54b0_d610_f00d_21aa, 0x54ce_40bf_0b98_26ff),
    ], // outage
    [
        g(0x4d25_767f_9dce_13f5, 0x9888_d919_f122_2b40),
        g(0xdae4_df9c_76b2_49c0, 0x606f_09fd_aa26_dad0),
    ], // gaps
    [
        g(0x4d25_767f_9dce_13f5, 0xbe01_70dd_99fa_ed71),
        g(0xf116_f02f_90b0_f912, 0x7d14_f9c3_c0cb_ac8d),
    ], // dup_late
    [
        g(0x4d25_767f_9dce_13f5, 0xd444_9fb7_3f9f_bd85),
        g(0xf155_4525_88bb_dd7b, 0x79e9_245f_7904_f40a),
    ], // sampling_drift
    [
        g(0x4d25_767f_9dce_13f5, 0xc043_1113_eafe_b35a),
        g(0xf155_4525_88bb_dd7b, 0x8b49_2ce4_d0dc_bb29),
    ], // cdet_dropout
    [
        g(0x4d25_767f_9dce_13f5, 0xb525_a589_c9e6_e7b8),
        g(0xf155_4525_88bb_dd7b, 0xdb98_0e6d_2628_021e),
    ], // cdet_flap
    [
        g(0x4d25_767f_9dce_13f5, 0x59fc_203e_769d_9aea),
        g(0xde31_afd8_9d00_8763, 0xe854_ee50_a63d_68ba),
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
    g(0xc5e0_7624_66fe_104d, 0x702b_06e7_8b66_43b5), // multi_vector
    g(0xd527_d66f_d324_2b38, 0xcf17_9d4e_6b51_a568), // pulse_wave
    g(0x123f_402e_a7ee_24fb, 0x1d11_685b_abca_988f), // low_and_slow
    g(0x7103_cdc2_f395_1e8c, 0x18dc_8141_a006_533e), // carpet_bomb
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
