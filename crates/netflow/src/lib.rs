//! NetFlow substrate for Xatu.
//!
//! The Xatu paper consumes *sampled NetFlow* exported by routers of a large
//! ISP. This crate provides the corresponding substrate, built from scratch:
//!
//! * [`record::FlowRecord`] — a NetFlow-v5-style flow record (addresses,
//!   ports, protocol, TCP flags, byte/packet counters, sampling rate).
//! * [`addr`] — IPv4 address and prefix utilities, including the `/24`
//!   aggregation the paper applies to every blocklist entry and
//!   [`addr::Slash24Set`], the direct-index set of /24s behind the
//!   per-flow blocklist and spoof tests.
//! * [`sampler`] — deterministic and random 1:N packet samplers mirroring the
//!   1:1 … 1:10,000 sampling rates of the paper's routers, plus unbiased
//!   upscaling of sampled counters.
//! * [`binning`] — per-(customer, minute) flow binning, the unit at which
//!   Xatu's features are extracted.
//! * [`country`] — deterministic source-country attribution for the ten
//!   "popular countries" feature group of Table 1.
//! * [`export`] — a compact binary exporter/collector pair so flows can be
//!   persisted and replayed, with a versioned header and checksums.
//!
//! Everything is deterministic given a seed; there is no I/O besides the
//! explicit exporter.

pub mod addr;
pub mod attack;
pub mod binning;
pub mod country;
pub mod export;
pub mod record;
pub mod sampler;
pub mod v5;

pub use addr::{Ipv4, Prefix, Subnet24};
pub use attack::{AttackType, Severity, Signature};
pub use binning::{MinuteBinner, MinuteFlows};
pub use country::{Country, CountryMapper};
pub use export::{FlowReader, FlowWriter};
pub use record::{FlowRecord, Protocol, TcpFlags};
pub use sampler::{FlowThinner, PacketSampler, SamplingMode};

/// Number of minutes in a day, used throughout the workspace.
pub const MINUTES_PER_DAY: u32 = 24 * 60;

/// Number of minutes in an hour.
pub const MINUTES_PER_HOUR: u32 = 60;
