//! NetFlow v5 datagram encoding and parsing.
//!
//! The simulator works with in-memory [`FlowRecord`]s, but a deployment
//! ingests real router exports. This module implements the classic
//! NetFlow v5 wire format — 24-byte header + 48-byte records, big-endian —
//! so the collector side of Xatu can consume genuine exporter output and
//! the test-suite can round-trip through the actual bytes routers send.
//!
//! Fields that v5 carries but the pipeline does not use (ifindex, ASes,
//! masks, next-hop) are emitted as zero and ignored on parse; sampling
//! rate is carried in the header's `sampling_interval` field as on real
//! exporters.

use crate::addr::Ipv4;
use crate::record::{FlowRecord, Protocol, TcpFlags};

/// v5 header length in bytes.
pub const HEADER_LEN: usize = 24;
/// v5 record length in bytes.
pub const RECORD_LEN: usize = 48;
/// Maximum records per datagram (per the v5 spec: 30).
pub const MAX_RECORDS: usize = 30;

/// A parse failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum V5Error {
    /// Datagram shorter than the header.
    TooShort,
    /// `version` field is not 5.
    BadVersion(u16),
    /// Header count disagrees with the datagram length.
    CountMismatch {
        /// Records promised by the header.
        declared: u16,
        /// Records that fit in the payload.
        available: usize,
    },
    /// A record's flow ends before it starts (`last < first` uptime).
    LastBeforeFirst {
        /// The record's index in the datagram.
        record: u16,
    },
    /// A record carries octets but no packets (`dPkts == 0 < dOctets`).
    OctetsWithoutPackets {
        /// The record's index in the datagram.
        record: u16,
    },
}

impl std::fmt::Display for V5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V5Error::TooShort => write!(f, "datagram shorter than a v5 header"),
            V5Error::BadVersion(v) => write!(f, "version {v} is not NetFlow v5"),
            V5Error::CountMismatch {
                declared,
                available,
            } => write!(
                f,
                "header declares {declared} records, payload holds {available}"
            ),
            V5Error::LastBeforeFirst { record } => {
                write!(f, "record {record} ends before it starts")
            }
            V5Error::OctetsWithoutPackets { record } => {
                write!(f, "record {record} carries octets in no packets")
            }
        }
    }
}

impl std::error::Error for V5Error {}

/// Encodes up to [`MAX_RECORDS`] flows into one v5 datagram.
///
/// `sys_uptime_ms` maps the minute timestamps onto the v5 first/last
/// uptime fields (1 minute = 60 000 ms); `sampling` goes into the header.
///
/// # Panics
/// Panics if `flows.len() > MAX_RECORDS`.
pub fn encode_datagram(flows: &[FlowRecord], sequence: u32, sampling: u16) -> Vec<u8> {
    assert!(
        flows.len() <= MAX_RECORDS,
        "v5 datagrams carry at most 30 records"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + flows.len() * RECORD_LEN);
    // Header.
    out.extend_from_slice(&5u16.to_be_bytes()); // version
    out.extend_from_slice(&(flows.len() as u16).to_be_bytes()); // count
    let uptime = flows.first().map_or(0, |f| f.minute) * 60_000;
    out.extend_from_slice(&uptime.to_be_bytes()); // sys_uptime
    out.extend_from_slice(&0u32.to_be_bytes()); // unix_secs
    out.extend_from_slice(&0u32.to_be_bytes()); // unix_nsecs
    out.extend_from_slice(&sequence.to_be_bytes()); // flow_sequence
    out.push(0); // engine_type
    out.push(0); // engine_id
                 // sampling_interval: top 2 bits mode (01 = packet interval), low 14 rate.
    let sampling_field: u16 = 0x4000 | (sampling & 0x3FFF);
    out.extend_from_slice(&sampling_field.to_be_bytes());

    for f in flows {
        out.extend_from_slice(&f.src.0.to_be_bytes()); // srcaddr
        out.extend_from_slice(&f.dst.0.to_be_bytes()); // dstaddr
        out.extend_from_slice(&0u32.to_be_bytes()); // nexthop
        out.extend_from_slice(&0u16.to_be_bytes()); // input ifindex
        out.extend_from_slice(&0u16.to_be_bytes()); // output ifindex
        out.extend_from_slice(&(f.packets as u32).to_be_bytes()); // dPkts
        out.extend_from_slice(&(f.bytes as u32).to_be_bytes()); // dOctets
        let first = f.minute * 60_000;
        out.extend_from_slice(&first.to_be_bytes()); // first
        out.extend_from_slice(&(first + 59_999).to_be_bytes()); // last
        out.extend_from_slice(&f.src_port.to_be_bytes());
        out.extend_from_slice(&f.dst_port.to_be_bytes());
        out.push(0); // pad1
        out.push(f.tcp_flags.0);
        out.push(f.proto.number());
        out.push(0); // tos
        out.extend_from_slice(&0u16.to_be_bytes()); // src_as
        out.extend_from_slice(&0u16.to_be_bytes()); // dst_as
        out.push(0); // src_mask
        out.push(0); // dst_mask
        out.extend_from_slice(&0u16.to_be_bytes()); // pad2
    }
    debug_assert_eq!(out.len(), HEADER_LEN + flows.len() * RECORD_LEN);
    out
}

/// Parses a v5 datagram into flow records.
pub fn parse_datagram(bytes: &[u8]) -> Result<Vec<FlowRecord>, V5Error> {
    let mut out = Vec::new();
    parse_datagram_into(bytes, &mut out)?;
    Ok(out)
}

/// Parses a v5 datagram, appending its flow records to `out`; returns how
/// many were appended. A datagram that fails to parse leaves `out` as it
/// was, so a collector can decode a whole feed into one reused buffer. One
/// record no exporter can mean — a flow that ends before it starts, or
/// octets carried in no packets — rejects the whole datagram.
///
/// The header and each record are read as fixed-size arrays, so every
/// field offset is checked when this compiles, not per byte.
pub fn parse_datagram_into(bytes: &[u8], out: &mut Vec<FlowRecord>) -> Result<usize, V5Error> {
    let Some((header, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(V5Error::TooShort);
    };
    let version = be16(header, 0);
    if version != 5 {
        return Err(V5Error::BadVersion(version));
    }
    let declared = be16(header, 2);
    let (records, _) = body.as_chunks::<RECORD_LEN>();
    let Some(records) = records.get(..usize::from(declared)) else {
        return Err(V5Error::CountMismatch {
            declared,
            available: records.len(),
        });
    };
    let sampling = u32::from((be16(header, 22) & 0x3FFF).max(1));
    for (i, r) in records.iter().enumerate() {
        // `i` < `declared`, a `u16`.
        let record = i as u16;
        if be32(r, 28) < be32(r, 24) {
            return Err(V5Error::LastBeforeFirst { record });
        }
        if be32(r, 16) == 0 && be32(r, 20) > 0 {
            return Err(V5Error::OctetsWithoutPackets { record });
        }
    }

    // Every check is above: from here on nothing fails, so `out` only
    // ever grows by whole datagrams. `records` is bounded by the input's
    // own length.
    out.reserve(records.len());
    out.extend(records.iter().map(|r| FlowRecord {
        minute: be32(r, 24) / 60_000,
        src: Ipv4(be32(r, 0)),
        dst: Ipv4(be32(r, 4)),
        proto: Protocol::from_number(r[38]),
        src_port: be16(r, 32),
        dst_port: be16(r, 34),
        tcp_flags: TcpFlags(r[37]),
        bytes: u64::from(be32(r, 20)),
        packets: u64::from(be32(r, 16)),
        sampling,
    }));
    Ok(records.len())
}

/// The big-endian `u16` at `o` of a fixed-size block; `o` is a constant at
/// every call, so the bounds check folds away.
#[inline(always)]
fn be16<const N: usize>(b: &[u8; N], o: usize) -> u16 {
    u16::from_be_bytes([b[o], b[o + 1]])
}

/// The big-endian `u32` at `o` of a fixed-size block, as [`be16`].
#[inline(always)]
fn be32<const N: usize>(b: &[u8; N], o: usize) -> u32 {
    u32::from_be_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoder before it read fixed-size records, kept verbatim as the
    /// reference the current one must equal on every input.
    fn reference_parse_datagram_into(
        bytes: &[u8],
        out: &mut Vec<FlowRecord>,
    ) -> Result<usize, V5Error> {
        if bytes.len() < HEADER_LEN {
            return Err(V5Error::TooShort);
        }
        let be16 = |o: usize| u16::from_be_bytes([bytes[o], bytes[o + 1]]);
        let be32 =
            |o: usize| u32::from_be_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        let version = be16(0);
        if version != 5 {
            return Err(V5Error::BadVersion(version));
        }
        let count = be16(2) as usize;
        let available = (bytes.len() - HEADER_LEN) / RECORD_LEN;
        if count > available {
            return Err(V5Error::CountMismatch {
                declared: count as u16,
                available,
            });
        }
        let sampling = (be16(22) & 0x3FFF).max(1) as u32;
        for i in 0..count {
            let o = HEADER_LEN + i * RECORD_LEN;
            let record = i as u16;
            if be32(o + 28) < be32(o + 24) {
                return Err(V5Error::LastBeforeFirst { record });
            }
            if be32(o + 16) == 0 && be32(o + 20) > 0 {
                return Err(V5Error::OctetsWithoutPackets { record });
            }
        }

        // Every check is above: from here on nothing fails, so `out` only
        // ever grows by whole datagrams. `count` is bounded by the input's
        // own length.
        out.reserve(count);
        for i in 0..count {
            let o = HEADER_LEN + i * RECORD_LEN;
            let first_ms = be32(o + 24);
            out.push(FlowRecord {
                minute: first_ms / 60_000,
                src: Ipv4(be32(o)),
                dst: Ipv4(be32(o + 4)),
                proto: Protocol::from_number(bytes[o + 38]),
                src_port: be16(o + 32),
                dst_port: be16(o + 34),
                tcp_flags: TcpFlags(bytes[o + 37]),
                bytes: be32(o + 20) as u64,
                packets: be32(o + 16) as u64,
                sampling,
            });
        }
        Ok(count)
    }

    fn flows(n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| FlowRecord {
                minute: 7,
                src: Ipv4(0x0A01_0000 + i as u32),
                dst: Ipv4(0x1400_0001),
                proto: if i % 2 == 0 {
                    Protocol::Udp
                } else {
                    Protocol::Tcp
                },
                src_port: 53,
                dst_port: 1000 + i as u16,
                tcp_flags: TcpFlags(0x10),
                bytes: 1500 * (i as u64 + 1),
                packets: i as u64 + 1,
                sampling: 100,
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let fs = flows(5);
        let dgram = encode_datagram(&fs, 42, 100);
        assert_eq!(dgram.len(), HEADER_LEN + 5 * RECORD_LEN);
        let back = parse_datagram(&dgram).unwrap();
        assert_eq!(back, fs);
    }

    #[test]
    fn empty_datagram_roundtrips() {
        let dgram = encode_datagram(&[], 0, 1);
        assert_eq!(parse_datagram(&dgram).unwrap(), vec![]);
    }

    #[test]
    fn max_records_roundtrip() {
        let fs = flows(MAX_RECORDS);
        let back = parse_datagram(&encode_datagram(&fs, 1, 10)).unwrap();
        assert_eq!(back.len(), MAX_RECORDS);
    }

    #[test]
    #[should_panic(expected = "at most 30")]
    fn over_max_panics() {
        encode_datagram(&flows(31), 0, 1);
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(parse_datagram(&[0u8; 10]), Err(V5Error::TooShort));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut dgram = encode_datagram(&flows(1), 0, 1);
        dgram[1] = 9;
        assert_eq!(parse_datagram(&dgram), Err(V5Error::BadVersion(9)));
    }

    #[test]
    fn truncated_payload_rejected() {
        let dgram = encode_datagram(&flows(3), 0, 1);
        let truncated = &dgram[..dgram.len() - RECORD_LEN];
        assert!(matches!(
            parse_datagram(truncated),
            Err(V5Error::CountMismatch {
                declared: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn parse_into_appends_and_leaves_the_buffer_alone_on_error() {
        let fs = flows(3);
        let dgram = encode_datagram(&fs, 0, 100);
        let mut out = vec![fs[0]];
        assert_eq!(parse_datagram_into(&dgram, &mut out), Ok(3));
        assert_eq!(out[1..], fs[..]);
        for bad in [&dgram[..10], &dgram[..dgram.len() - 1]] {
            assert!(parse_datagram_into(bad, &mut out).is_err());
            assert_eq!(out.len(), 4);
        }
    }

    #[test]
    fn sampling_survives_header_encoding() {
        let fs = flows(1);
        let back = parse_datagram(&encode_datagram(&fs, 0, 1000)).unwrap();
        assert_eq!(back[0].sampling, 1000);
    }

    /// The largest counters a record carries (`dOctets = dPkts = u32::MAX`)
    /// scaled by the largest sampling interval a header carries (`0x3FFF`)
    /// stay below 2^46, so a decoded flow's `est_bytes` and `est_packets`
    /// cannot overflow `u64`.
    #[test]
    fn the_largest_scaled_counters_fit_u64() {
        let mut fs = flows(1);
        fs[0].bytes = u64::from(u32::MAX);
        fs[0].packets = u64::from(u32::MAX);
        let back = parse_datagram(&encode_datagram(&fs, 0, 0x3FFF)).unwrap();
        let want = u64::from(u32::MAX) * 0x3FFF;
        assert!(want < 1 << 46);
        assert_eq!(back[0].sampling, 0x3FFF);
        assert_eq!((back[0].est_bytes(), back[0].est_packets()), (want, want));
    }

    /// What every call must hold, whatever the bytes: no panic; an `Err`
    /// leaves `out` as it was; an `Ok(n)` appends exactly the `n` records
    /// the header declares; and `out` never reserves past what the input's
    /// own length pays for (one record per 48 bytes, or the buffer's usual
    /// doubling).
    fn parse_and_check(bytes: &[u8], out: &mut Vec<FlowRecord>) -> Result<usize, V5Error> {
        let before = out.clone();
        let capacity = out.capacity();
        let result = parse_datagram_into(bytes, out);
        match result {
            Err(_) => {
                assert_eq!(*out, before);
                assert_eq!(out.capacity(), capacity);
            }
            Ok(n) => {
                assert_eq!(n, usize::from(u16::from_be_bytes([bytes[2], bytes[3]])));
                assert_eq!(out.len(), before.len() + n);
                assert_eq!(out[..before.len()], before[..]);
                assert!(HEADER_LEN + n * RECORD_LEN <= bytes.len());
                let paid_for = before.len() + bytes.len() / RECORD_LEN;
                assert!(out.capacity() <= (2 * capacity).max(paid_for).max(4));
            }
        }
        assert_eq!(
            parse_datagram(bytes),
            result.map(|n| out[out.len() - n..].to_vec())
        );
        let mut frozen = before;
        assert_eq!(reference_parse_datagram_into(bytes, &mut frozen), result);
        assert_eq!(frozen, *out);
        result
    }

    /// A record every field of which survives the wire: 32-bit counters, a
    /// minute whose milliseconds fit 32 bits, the datagram's sampling rate,
    /// and no octets without packets.
    fn wire_flow(w: u64, v: u64, sampling: u16) -> FlowRecord {
        let packets = (w.rotate_left(17) ^ v) & 0xFFFF_FFFF;
        FlowRecord {
            minute: (w >> 40) as u32 % 71_582,
            src: Ipv4(w as u32),
            dst: Ipv4(v as u32),
            proto: Protocol::from_number((w >> 32) as u8),
            src_port: (v >> 32) as u16,
            dst_port: (v >> 48) as u16,
            tcp_flags: TcpFlags((w >> 56) as u8),
            bytes: if packets == 0 {
                0
            } else {
                (w ^ v) & 0xFFFF_FFFF
            },
            packets,
            sampling: u32::from(sampling),
        }
    }

    proptest::proptest! {
        /// The decoder equals the frozen per-byte one — the same result,
        /// the same records appended — on random bytes under a v5 header,
        /// and on valid datagrams with their header, their timestamps and
        /// counters, or their length mutated.
        #[test]
        fn fixed_size_records_decode_like_the_frozen_reference(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..1600),
            count in 0u16..40,
            words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..=2 * MAX_RECORDS),
            sampling in 0u16..=u16::MAX,
            edits in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..8),
        ) {
            let check = |bytes: &[u8]| {
                let (mut got, mut want) = (flows(3), flows(3));
                let result = parse_datagram_into(bytes, &mut got);
                assert_eq!(result, reference_parse_datagram_into(bytes, &mut want));
                assert_eq!(got, want);
            };
            let mut random = bytes;
            check(&random);
            if random.len() >= 4 {
                random[..2].copy_from_slice(&5u16.to_be_bytes());
                random[2..4].copy_from_slice(&count.to_be_bytes());
            }
            check(&random);

            let sent: Vec<FlowRecord> = words
                .chunks_exact(2)
                .map(|w| wire_flow(w[0], w[1], sampling.max(1)))
                .collect();
            let mut dgram = encode_datagram(&sent, 3, sampling);
            check(&dgram);
            for edit in edits {
                let at = (edit >> 8) as usize % (dgram.len() + 1);
                match edit % 4 {
                    0 => dgram.truncate(at),
                    1 => dgram.extend(std::iter::repeat_n(edit as u8, at % 60)),
                    // A record's counters and timestamps, bytes 16..32.
                    2 if dgram.len() > HEADER_LEN => {
                        let k = at % ((dgram.len() - HEADER_LEN) / RECORD_LEN).max(1);
                        let o = HEADER_LEN + k * RECORD_LEN + 16 + (edit >> 16) as usize % 16;
                        if o < dgram.len() {
                            dgram[o] = (edit >> 20) as u8;
                        }
                    }
                    _ if at < dgram.len() => dgram[at] ^= 1 << (edit >> 16 & 7),
                    _ => {}
                }
                check(&dgram);
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_and_never_half_append(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..2000),
            claim_v5 in proptest::arbitrary::any::<bool>(),
            count in 0u16..45,
        ) {
            let mut bytes = bytes;
            // Random bytes almost never carry version 5: claim it, with a
            // count near what the length holds, for half the cases.
            if claim_v5 && bytes.len() >= 4 {
                bytes[..2].copy_from_slice(&5u16.to_be_bytes());
                bytes[2..4].copy_from_slice(&count.to_be_bytes());
            }
            let mut out = flows(2);
            let _ = parse_and_check(&bytes, &mut out);
            let _ = parse_and_check(&bytes, &mut Vec::new());
        }

        #[test]
        fn valid_datagrams_round_trip_and_mutated_ones_fail_whole(
            words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..=2 * MAX_RECORDS),
            sampling in 1u16..=0x3FFF,
            sequence in proptest::arbitrary::any::<u32>(),
            edits in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..6),
        ) {
            let sent: Vec<FlowRecord> = words
                .chunks_exact(2)
                .map(|w| wire_flow(w[0], w[1], sampling))
                .collect();
            let dgram = encode_datagram(&sent, sequence, sampling);
            let mut out = flows(1);
            assert_eq!(parse_and_check(&dgram, &mut out), Ok(sent.len()));
            assert_eq!(out[1..], sent[..]);

            // The same datagram with bytes overwritten, its tail cut, or
            // bytes appended: it parses whole (to the declared count) or
            // not at all.
            let mut mutated = dgram.clone();
            for edit in edits {
                let at = (edit >> 8) as usize % (mutated.len() + 1);
                match edit % 4 {
                    0 => mutated.truncate(at),
                    1 => mutated.extend(std::iter::repeat_n(edit as u8, at % 100)),
                    // Header bytes are where the checks are.
                    2 if !mutated.is_empty() => {
                        let at = at % mutated.len().min(HEADER_LEN);
                        mutated[at] = (edit >> 16) as u8;
                    }
                    _ if at < mutated.len() => mutated[at] ^= 1 << (edit >> 16 & 7),
                    _ => {}
                }
            }
            let _ = parse_and_check(&mutated, &mut out);
        }

        /// A valid datagram with one record made nonsense — its `last`
        /// uptime moved before its `first`, or its packets zeroed under
        /// non-zero octets — fails whole with that record named, and
        /// leaves `out` untouched; the same fields set at random never
        /// panic, and whatever parses is sense.
        #[test]
        fn nonsense_records_reject_the_whole_datagram(
            words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 2..=2 * MAX_RECORDS),
            pick in proptest::arbitrary::any::<u32>(),
            back in 1u32..=u32::MAX,
            raw in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 4),
        ) {
            let sent: Vec<FlowRecord> = words
                .chunks_exact(2)
                .map(|w| wire_flow(w[0], w[1], 100))
                .collect();
            let dgram = encode_datagram(&sent, 7, 100);
            let k = pick as usize % sent.len();
            let record = k as u16;
            let o = HEADER_LEN + k * RECORD_LEN;
            let put = |d: &mut Vec<u8>, at: usize, v: u32| d[o + at..o + at + 4].copy_from_slice(&v.to_be_bytes());
            let get = |d: &[u8], at: usize| u32::from_be_bytes(d[o + at..o + at + 4].try_into().unwrap());
            let mut out = flows(1);

            let mut late = dgram.clone();
            let first = get(&late, 24).max(1);
            put(&mut late, 24, first);
            put(&mut late, 28, first - back.min(first));
            assert_eq!(parse_and_check(&late, &mut out), Err(V5Error::LastBeforeFirst { record }));

            let mut empty = dgram.clone();
            put(&mut empty, 16, 0);
            put(&mut empty, 20, back);
            assert_eq!(parse_and_check(&empty, &mut out), Err(V5Error::OctetsWithoutPackets { record }));
            assert_eq!(out.len(), 1);

            let mut random = dgram.clone();
            for (at, v) in [16, 20, 24, 28].into_iter().zip(raw) {
                put(&mut random, at, v);
            }
            if let Ok(n) = parse_and_check(&random, &mut out) {
                for f in &out[out.len() - n..] {
                    assert!(f.packets > 0 || f.bytes == 0);
                }
                assert!(get(&random, 28) >= get(&random, 24));
            }
        }
    }
}
