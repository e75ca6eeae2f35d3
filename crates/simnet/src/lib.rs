//! Seedable ISP traffic and DDoS-attack-ecosystem simulator.
//!
//! The paper evaluates Xatu on 100 days of proprietary NetFlow from a large
//! ISP. That dataset is not available, so this crate synthesizes an ISP
//! world that reproduces the *structural regularities* the paper's method
//! depends on (its §3 measurement findings):
//!
//! * diurnal/weekly benign traffic with bursty noise and occasional benign
//!   flash crowds (the false-positive pressure),
//! * a botnet ecosystem whose members are partially blocklisted and reused
//!   across attacks (A1/A2 signals),
//! * attack *preparation*: bot probing of the future victim that intensifies
//!   over the days before onset (Fig 15),
//! * spoofed attack traffic, only partially detectable (A3),
//! * serial same-type attack chains per victim (~98 % same-type transitions,
//!   Fig 4(b)) with the paper's specific cross-type transitions,
//! * correlated attack waves: one botnet hitting several customers in
//!   staggered windows (Fig 4(c)/Fig 16),
//! * short-and-low attacks: most attacks are minutes long and peak below
//!   21 Mbps (§2.3).
//!
//! Everything is driven by a single seed; the same [`config::WorldConfig`]
//! always produces the identical flow stream, attack schedule and blocklist
//! feed.

pub mod attack;
pub mod benign;
pub mod botnet;
pub mod composer;
pub mod config;
pub mod faults;
pub mod scenario;
pub mod schedule;
pub mod vectors;
pub mod world;

pub use attack::{AttackEvent, AttackPhase, InvalidEvent, RAMP_DR_FLOOR};
pub use botnet::{Botnet, Ecosystem};
pub use composer::{
    compose, ComposedScenario, DetectorTimeConstants, ScenarioFamily, ScenarioSpan,
};
pub use config::WorldConfig;
pub use faults::{
    FaultKind, FaultObs, FaultSchedule, FaultWindow, FaultedWorld, MinuteDelivery,
    BUILTIN_SCHEDULES,
};
pub use vectors::{AttackVector, VectorShape};
pub use world::{victim_bin, victim_signature_bytes, World, WorldObs};
