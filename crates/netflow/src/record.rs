//! Flow records and protocol metadata.
//!
//! A [`FlowRecord`] mirrors the fields of a NetFlow v5 record that Xatu's
//! feature extractor consumes: source/destination address and port, IP
//! protocol, cumulative TCP flags, byte and packet counters, plus the
//! sampling rate the exporting router applied (1:1 … 1:10,000 in the paper's
//! dataset).

use crate::addr::Ipv4;
use serde::{Deserialize, Serialize};

/// Transport protocol of a flow. Only the three protocols Xatu's Table 1
/// disaggregates are distinguished; everything else is `Other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// IP protocol 6.
    Tcp,
    /// IP protocol 17.
    Udp,
    /// IP protocol 1.
    Icmp,
    /// Any other IP protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA IP protocol number.
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Builds from an IANA protocol number.
    pub const fn from_number(n: u8) -> Self {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

/// Cumulative TCP flags observed on a flow, one bit per flag, matching the
/// NetFlow `tcp_flags` field layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag bit.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag bit.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag bit.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag bit.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG flag bit.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// The six flags in the fixed order used by the Table 1 feature layout.
    pub const ALL: [TcpFlags; 6] = [
        TcpFlags::SYN,
        TcpFlags::ACK,
        TcpFlags::RST,
        TcpFlags::FIN,
        TcpFlags::PSH,
        TcpFlags::URG,
    ];

    /// True if `self` has every bit of `flag` set.
    pub const fn has(self, flag: TcpFlags) -> bool {
        (self.0 & flag.0) == flag.0
    }

    /// Union of two flag sets.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }
}

/// A single (possibly sampled) flow record.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Minute timestamp since the start of the observation period.
    pub minute: u32,
    /// Source address.
    pub src: Ipv4,
    /// Destination address (a customer address in this workspace).
    pub dst: Ipv4,
    /// Transport protocol.
    pub proto: Protocol,
    /// Source port (0 for ICMP).
    pub src_port: u16,
    /// Destination port (0 for ICMP).
    pub dst_port: u16,
    /// Cumulative TCP flags (zero for non-TCP).
    pub tcp_flags: TcpFlags,
    /// Bytes accounted to the flow *after sampling* (i.e. as observed).
    pub bytes: u64,
    /// Packets accounted to the flow *after sampling*.
    pub packets: u64,
    /// Router sampling rate `N` meaning 1:N. 1 = unsampled.
    pub sampling: u32,
}

impl FlowRecord {
    /// Estimated original byte count, upscaled by the sampling rate.
    pub fn est_bytes(&self) -> u64 {
        self.bytes * self.sampling as u64
    }

    /// Estimated original packet count, upscaled by the sampling rate.
    pub fn est_packets(&self) -> u64 {
        self.packets * self.sampling as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_numbers_roundtrip() {
        for p in [
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Icmp,
            Protocol::Other(47),
        ] {
            assert_eq!(Protocol::from_number(p.number()), p);
        }
    }

    #[test]
    fn tcp_flag_bits() {
        let f = TcpFlags::SYN.union(TcpFlags::ACK);
        assert!(f.has(TcpFlags::SYN));
        assert!(f.has(TcpFlags::ACK));
        assert!(!f.has(TcpFlags::RST));
        assert_eq!(f.0, 0x12);
    }

    #[test]
    fn upscaling_multiplies_by_sampling_rate() {
        let r = FlowRecord {
            minute: 0,
            src: Ipv4(1),
            dst: Ipv4(2),
            proto: Protocol::Udp,
            src_port: 53,
            dst_port: 4000,
            tcp_flags: TcpFlags::default(),
            bytes: 100,
            packets: 2,
            sampling: 1000,
        };
        assert_eq!(r.est_bytes(), 100_000);
        assert_eq!(r.est_packets(), 2000);
    }
}
