//! Per-(customer, minute) flow binning.
//!
//! Xatu extracts features "for every minute of original NetFlow data"
//! (§5.3). The [`MinuteBinner`] groups an unordered stream of flow records
//! into [`MinuteFlows`] bins, one per destination customer per minute, and
//! releases completed bins in timestamp order once the watermark advances.

use crate::addr::Ipv4;
use crate::record::FlowRecord;
use std::collections::BTreeMap;

/// All flows destined to one customer during one minute.
#[derive(Clone, Debug, Default)]
pub struct MinuteFlows {
    /// Minute timestamp of the bin.
    pub minute: u32,
    /// Customer (destination) address the bin belongs to.
    pub customer: Ipv4,
    /// The flows, in arrival order.
    pub flows: Vec<FlowRecord>,
}

impl MinuteFlows {
    /// Total upscaled bytes in the bin.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(FlowRecord::est_bytes).sum()
    }

    /// Total upscaled packets in the bin.
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(FlowRecord::est_packets).sum()
    }
}

/// Streaming binner with a watermark.
///
/// Flows may arrive slightly out of order (NetFlow export delay is about one
/// minute in the paper's dataset); bins are only released when
/// [`MinuteBinner::advance_watermark`] moves past their minute, which mirrors
/// a collector's export-delay handling.
#[derive(Clone, Debug, Default)]
pub struct MinuteBinner {
    bins: BTreeMap<(u32, Ipv4), MinuteFlows>,
    watermark: u32,
    late_drops: u64,
}

impl MinuteBinner {
    /// Creates an empty binner with watermark 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a flow to its (minute, customer) bin. Flows older than the
    /// watermark are counted as late drops and discarded.
    pub fn push(&mut self, flow: FlowRecord) {
        if flow.minute < self.watermark {
            self.late_drops += 1;
            return;
        }
        let key = (flow.minute, flow.dst);
        let bin = self.bins.entry(key).or_insert_with(|| MinuteFlows {
            minute: flow.minute,
            customer: flow.dst,
            ..MinuteFlows::default()
        });
        bin.flows.push(flow);
    }

    /// Advances the watermark to `minute` and returns every completed bin
    /// with `bin.minute < minute`, ordered by (minute, customer).
    pub fn advance_watermark(&mut self, minute: u32) -> Vec<MinuteFlows> {
        self.watermark = self.watermark.max(minute);
        let mut out = Vec::new();
        // BTreeMap keys are ordered, so split off the completed range.
        let keep = self.bins.split_off(&(self.watermark, Ipv4(0)));
        for (_, bin) in std::mem::replace(&mut self.bins, keep) {
            out.push(bin);
        }
        out
    }

    /// Number of flows dropped for arriving behind the watermark.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Number of bins currently buffered.
    pub fn pending(&self) -> usize {
        self.bins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Protocol, TcpFlags};

    fn flow(minute: u32, dst: u32, bytes: u64) -> FlowRecord {
        FlowRecord {
            minute,
            src: Ipv4(99),
            dst: Ipv4(dst),
            proto: Protocol::Udp,
            src_port: 1,
            dst_port: 2,
            tcp_flags: TcpFlags::default(),
            bytes,
            packets: 1,
            sampling: 1,
        }
    }

    #[test]
    fn bins_by_minute_and_customer() {
        let mut b = MinuteBinner::new();
        b.push(flow(0, 1, 10));
        b.push(flow(0, 2, 20));
        b.push(flow(1, 1, 30));
        let done = b.advance_watermark(1);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].customer, Ipv4(1));
        assert_eq!(done[0].total_bytes(), 10);
        assert_eq!(done[1].customer, Ipv4(2));
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn ordered_release() {
        let mut b = MinuteBinner::new();
        b.push(flow(2, 1, 1));
        b.push(flow(0, 1, 1));
        b.push(flow(1, 1, 1));
        let done = b.advance_watermark(3);
        let minutes: Vec<u32> = done.iter().map(|d| d.minute).collect();
        assert_eq!(minutes, vec![0, 1, 2]);
    }

    #[test]
    fn late_flows_are_dropped_and_counted() {
        let mut b = MinuteBinner::new();
        b.advance_watermark(5);
        b.push(flow(3, 1, 1));
        assert_eq!(b.late_drops(), 1);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn totals_upscale_sampling() {
        let mut b = MinuteBinner::new();
        let mut f = flow(0, 1, 10);
        f.sampling = 100;
        f.packets = 2;
        b.push(f);
        let done = b.advance_watermark(1);
        assert_eq!(done[0].total_bytes(), 1000);
        assert_eq!(done[0].total_packets(), 200);
    }
}
