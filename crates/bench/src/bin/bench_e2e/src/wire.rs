//! Generated flows → NetFlow v5 wire bytes, inside the format's limits.
//!
//! v5 carries one sampling rate per header, 32-bit counters, a 32-bit
//! millisecond clock and at most 30 records per datagram. The encoder
//! asserts each limit instead of truncating, so a generator that outgrows
//! the format stops the run rather than silently measuring other data.

use crate::gen::MinuteInput;
use xatu_netflow::record::FlowRecord;
use xatu_netflow::v5::{encode_datagram, parse_datagram, MAX_RECORDS};

/// One minute of exporter output, with the generator-side truth the
/// correctness gates compare against.
pub struct WireMinute {
    pub minute: u32,
    pub datagrams: Vec<Vec<u8>>,
    pub present: Vec<bool>,
    pub cdet_up: bool,
    pub flows: u64,
    pub wire_bytes: u64,
    /// Flows stamped with an earlier minute: the binner must drop these.
    pub late_flows: u64,
    /// Σ `est_bytes` of the flows that are on time.
    pub on_time_est_bytes: u64,
    /// Datagrams that did not decode back to the records they were
    /// encoded from (checked here, on the generator's side of the timer).
    pub twin_mismatches: u64,
}

/// Encodes one generated minute. Flows of present customers are laid out
/// in customer order, grouped by sampling rate (first appearance first),
/// and cut into datagrams of at most 30 records that never mix rates.
/// Every datagram is decoded again on the spot and compared, record by
/// record, with the flows it was built from.
pub fn encode_minute(input: &MinuteInput, sequence: &mut u32) -> WireMinute {
    assert!(
        (input.minute as u64 + 1) * 60_000 <= u32::MAX as u64,
        "minute {} overflows the v5 millisecond clock",
        input.minute
    );
    let mut rates: Vec<u32> = Vec::new();
    let mut w = WireMinute {
        minute: input.minute,
        datagrams: Vec::new(),
        present: input.present.clone(),
        cdet_up: input.cdet_up,
        flows: 0,
        wire_bytes: 0,
        late_flows: 0,
        on_time_est_bytes: 0,
        twin_mismatches: 0,
    };
    for (bin, &present) in input.bins.iter().zip(&input.present) {
        assert!(
            present || bin.flows.is_empty(),
            "a suppressed bin carries no flows"
        );
        for f in &bin.flows {
            assert!(f.packets <= u32::MAX as u64, "dPkts overflow: {f:?}");
            assert!(f.bytes <= u32::MAX as u64, "dOctets overflow: {f:?}");
            assert!(
                (1..=0x3FFF).contains(&f.sampling),
                "sampling outside 14 bits: {f:?}"
            );
            assert!(f.minute <= input.minute, "flow from the future: {f:?}");
            if f.minute < input.minute {
                w.late_flows += 1;
            } else {
                w.on_time_est_bytes += f.est_bytes();
            }
            if !rates.contains(&f.sampling) {
                rates.push(f.sampling);
            }
        }
        w.flows += bin.flows.len() as u64;
    }
    w.datagrams
        .reserve(w.flows as usize / MAX_RECORDS + rates.len());
    let mut chunk: Vec<FlowRecord> = Vec::with_capacity(MAX_RECORDS);
    for &rate in &rates {
        let of_rate = input
            .bins
            .iter()
            .flat_map(|b| &b.flows)
            .filter(|f| f.sampling == rate);
        for f in of_rate {
            chunk.push(*f);
            if chunk.len() == MAX_RECORDS {
                w.push_datagram(&mut chunk, sequence, rate);
            }
        }
        if !chunk.is_empty() {
            w.push_datagram(&mut chunk, sequence, rate);
        }
    }
    w
}

impl WireMinute {
    fn push_datagram(&mut self, chunk: &mut Vec<FlowRecord>, sequence: &mut u32, rate: u32) {
        let dgram = encode_datagram(chunk, *sequence, rate as u16);
        *sequence = sequence.wrapping_add(chunk.len() as u32);
        self.twin_mismatches += u64::from(parse_datagram(&dgram).map_or(true, |d| d != *chunk));
        self.wire_bytes += dgram.len() as u64;
        self.datagrams.push(dgram);
        chunk.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xatu_netflow::addr::Ipv4;
    use xatu_netflow::binning::MinuteFlows;
    use xatu_netflow::record::{Protocol, TcpFlags};

    fn flow(minute: u32, dst: u32, sampling: u32, bytes: u64) -> FlowRecord {
        FlowRecord {
            minute,
            src: Ipv4(0x3C00_0001 + bytes as u32),
            dst: Ipv4(dst),
            proto: Protocol::Tcp,
            src_port: 80,
            dst_port: 5000,
            tcp_flags: TcpFlags::ACK,
            bytes,
            packets: 2,
            sampling,
        }
    }

    fn input(flows_per_bin: Vec<Vec<FlowRecord>>, present: Vec<bool>) -> MinuteInput {
        MinuteInput {
            minute: 9,
            bins: flows_per_bin
                .into_iter()
                .enumerate()
                .map(|(i, flows)| MinuteFlows {
                    minute: 9,
                    customer: Ipv4(100 + i as u32),
                    flows,
                })
                .collect(),
            present,
            cdet_up: true,
        }
    }

    #[test]
    fn datagrams_never_mix_sampling_rates_and_round_trip() {
        // Rates 10 and 40 interleaved across two customers, one late flow.
        let a: Vec<FlowRecord> = (0..50)
            .map(|i| flow(9, 100, if i % 3 == 0 { 40 } else { 10 }, 100 + i))
            .collect();
        let mut b: Vec<FlowRecord> = (0..45)
            .map(|i| flow(9, 101, if i % 2 == 0 { 40 } else { 10 }, 900 + i))
            .collect();
        b.push(flow(7, 101, 10, 5));
        let inp = input(vec![a, b, vec![]], vec![true, true, false]);
        let mut seq = 0;
        let w = encode_minute(&inp, &mut seq);
        assert_eq!(
            (seq, w.flows, w.late_flows, w.twin_mismatches),
            (96, 96, 1, 0)
        );
        let on_time = |f: &&FlowRecord| f.minute == 9;
        let generated: u64 = inp
            .bins
            .iter()
            .flat_map(|b| &b.flows)
            .filter(on_time)
            .map(FlowRecord::est_bytes)
            .sum();
        assert_eq!(w.on_time_est_bytes, generated);
        let mut decoded_all = Vec::new();
        for dgram in &w.datagrams {
            let decoded = parse_datagram(dgram).unwrap();
            assert!((1..=MAX_RECORDS).contains(&decoded.len()));
            assert!(
                decoded.iter().all(|f| f.sampling == decoded[0].sampling),
                "mixed rates"
            );
            decoded_all.extend(decoded);
        }
        // Every generated record arrives exactly once, per rate in order.
        for rate in [40, 10] {
            let sent: Vec<&FlowRecord> = inp
                .bins
                .iter()
                .flat_map(|b| &b.flows)
                .filter(|f| f.sampling == rate)
                .collect();
            let got: Vec<&FlowRecord> = decoded_all.iter().filter(|f| f.sampling == rate).collect();
            assert_eq!(sent, got);
        }
        assert_eq!(
            w.wire_bytes,
            w.datagrams.iter().map(|d| d.len() as u64).sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "dOctets overflow")]
    fn counters_beyond_32_bits_are_refused_not_truncated() {
        let inp = input(vec![vec![flow(9, 100, 1, 1 << 33)]], vec![true]);
        encode_minute(&inp, &mut 0);
    }

    #[test]
    #[should_panic(expected = "sampling outside 14 bits")]
    fn sampling_beyond_14_bits_is_refused() {
        let inp = input(vec![vec![flow(9, 100, 20_000, 10)]], vec![true]);
        encode_minute(&inp, &mut 0);
    }
}
