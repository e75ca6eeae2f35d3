//! Shared attack vocabulary: the six prevalent attack types, severity
//! levels, and traffic signatures.
//!
//! These types are the common language between the simulator, the baseline
//! detectors, the feature extractor and the Xatu core, so they live in the
//! lowest-level crate. The six types cover 97.2 % of the paper's alerts
//! (Table 2).

use crate::record::{FlowRecord, Protocol, TcpFlags};
use serde::{Deserialize, Serialize};

/// The six prevalent attack types the paper trains per-type models for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackType {
    /// High-volume UDP flood (26.3 % of alerts).
    UdpFlood,
    /// TCP ACK flood (62.0 %).
    TcpAck,
    /// TCP SYN flood (1.4 %).
    TcpSyn,
    /// TCP RST flood (1.1 %).
    TcpRst,
    /// DNS amplification — the only reflection attack (7.2 %).
    DnsAmplification,
    /// ICMP flood (2.0 %).
    IcmpFlood,
}

impl AttackType {
    /// All six types in the fixed workspace order (also the A4 feature and
    /// Table 2 row order).
    pub const ALL: [AttackType; 6] = [
        AttackType::UdpFlood,
        AttackType::TcpAck,
        AttackType::TcpSyn,
        AttackType::TcpRst,
        AttackType::DnsAmplification,
        AttackType::IcmpFlood,
    ];

    /// Index into [`AttackType::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|t| *t == self).expect("in ALL")
    }

    /// Display label matching the paper's tables.
    pub const fn label(self) -> &'static str {
        match self {
            AttackType::UdpFlood => "UDP",
            AttackType::TcpAck => "TCP ACK",
            AttackType::TcpSyn => "TCP SYN",
            AttackType::TcpRst => "TCP RST",
            AttackType::DnsAmplification => "DNS Amp",
            AttackType::IcmpFlood => "ICMP",
        }
    }

    /// The coarse-grained traffic signature a CDet alert of this type
    /// carries (§2.1: destination, transport protocol, and ports).
    pub fn signature(self) -> Signature {
        match self {
            AttackType::UdpFlood => Signature {
                proto: Protocol::Udp,
                src_port: None,
                required_flags: None,
            },
            AttackType::TcpAck => Signature {
                proto: Protocol::Tcp,
                src_port: None,
                required_flags: Some(TcpFlags::ACK),
            },
            AttackType::TcpSyn => Signature {
                proto: Protocol::Tcp,
                src_port: None,
                required_flags: Some(TcpFlags::SYN),
            },
            AttackType::TcpRst => Signature {
                proto: Protocol::Tcp,
                src_port: None,
                required_flags: Some(TcpFlags::RST),
            },
            AttackType::DnsAmplification => Signature {
                proto: Protocol::Udp,
                src_port: Some(53),
                required_flags: None,
            },
            AttackType::IcmpFlood => Signature {
                proto: Protocol::Icmp,
                src_port: None,
                required_flags: None,
            },
        }
    }
}

/// Attack severity level, used by the A4 feature family ("attack severity
/// (low, medium, high) for each attack type", Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Bottom severity tercile.
    Low,
    /// Middle tercile.
    Medium,
    /// Top tercile.
    High,
}

impl Severity {
    /// All three levels in feature order.
    pub const ALL: [Severity; 3] = [Severity::Low, Severity::Medium, Severity::High];

    /// Index into [`Severity::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|s| *s == self).expect("in ALL")
    }

    /// Classifies a peak rate (bytes/minute) against fixed tercile cut
    /// points. The cuts correspond to the paper's observation that 75 % of
    /// attacks peak below 21 Mbps: low < 5 Mbps, medium < 21 Mbps, high
    /// above (expressed here in bytes/minute: Mbps · 60 s / 8).
    pub fn of_peak_bytes_per_minute(peak: f64) -> Severity {
        const MBPS_TO_BPM: f64 = 1e6 * 60.0 / 8.0;
        if peak < 5.0 * MBPS_TO_BPM {
            Severity::Low
        } else if peak < 21.0 * MBPS_TO_BPM {
            Severity::Medium
        } else {
            Severity::High
        }
    }
}

/// The coarse-grained anomalous-traffic signature of an alert (§2.1).
///
/// A flow *matches* the signature when its protocol matches, its source
/// port matches if one is pinned, and its TCP flags contain the required
/// flags if any are pinned. The destination is implicit: signatures are
/// always evaluated on flows already binned to one customer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Transport protocol of the anomalous traffic.
    pub proto: Protocol,
    /// Source port, when the attack pins one (DNS amplification: 53).
    pub src_port: Option<u16>,
    /// TCP flags that must be present (e.g. ACK for an ACK flood).
    pub required_flags: Option<TcpFlags>,
}

impl Signature {
    /// True if the flow matches this signature.
    pub fn matches(&self, flow: &FlowRecord) -> bool {
        if flow.proto != self.proto {
            return false;
        }
        if let Some(p) = self.src_port {
            if flow.src_port != p {
                return false;
            }
        }
        if let Some(f) = self.required_flags {
            if !flow.tcp_flags.has(f) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4;

    fn flow(proto: Protocol, src_port: u16, flags: TcpFlags) -> FlowRecord {
        FlowRecord {
            minute: 0,
            src: Ipv4(1),
            dst: Ipv4(2),
            proto,
            src_port,
            dst_port: 80,
            tcp_flags: flags,
            bytes: 100,
            packets: 1,
            sampling: 1,
        }
    }

    #[test]
    fn indices_are_stable() {
        assert_eq!(AttackType::UdpFlood.index(), 0);
        assert_eq!(AttackType::IcmpFlood.index(), 5);
        for (i, t) in AttackType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn udp_signature_matches_any_udp() {
        let sig = AttackType::UdpFlood.signature();
        assert!(sig.matches(&flow(Protocol::Udp, 9999, TcpFlags::default())));
        assert!(!sig.matches(&flow(Protocol::Tcp, 9999, TcpFlags::default())));
    }

    #[test]
    fn dns_amp_signature_pins_source_port_53() {
        let sig = AttackType::DnsAmplification.signature();
        assert!(sig.matches(&flow(Protocol::Udp, 53, TcpFlags::default())));
        assert!(!sig.matches(&flow(Protocol::Udp, 54, TcpFlags::default())));
    }

    #[test]
    fn tcp_signatures_require_flags() {
        let sig = AttackType::TcpSyn.signature();
        assert!(sig.matches(&flow(Protocol::Tcp, 1, TcpFlags::SYN)));
        assert!(sig.matches(&flow(Protocol::Tcp, 1, TcpFlags::SYN.union(TcpFlags::ACK))));
        assert!(!sig.matches(&flow(Protocol::Tcp, 1, TcpFlags::ACK)));
    }

    #[test]
    fn severity_terciles() {
        const MBPS: f64 = 1e6 * 60.0 / 8.0;
        assert_eq!(
            Severity::of_peak_bytes_per_minute(1.0 * MBPS),
            Severity::Low
        );
        assert_eq!(
            Severity::of_peak_bytes_per_minute(10.0 * MBPS),
            Severity::Medium
        );
        assert_eq!(
            Severity::of_peak_bytes_per_minute(100.0 * MBPS),
            Severity::High
        );
    }
}
