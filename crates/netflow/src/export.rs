//! Binary flow export and replay.
//!
//! A compact, versioned binary format for persisting flow streams so that a
//! simulated scenario can be written once and replayed by multiple
//! experiments. The format is:
//!
//! ```text
//! magic "XNF1" | u32 record_count | records... | u64 fletcher checksum
//! record := u32 minute | u32 src | u32 dst | u8 proto | u16 sport |
//!           u16 dport | u8 flags | u64 bytes | u64 packets | u32 sampling
//! ```
//!
//! All integers little-endian. The checksum covers every record byte.

use crate::addr::Ipv4;
use crate::record::{FlowRecord, Protocol, TcpFlags};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"XNF1";
const RECORD_BYTES: usize = 4 + 4 + 4 + 1 + 2 + 2 + 1 + 8 + 8 + 4;

/// Streaming writer for the `XNF1` format.
pub struct FlowWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    count: u32,
    checksum: Fletcher64,
}

impl<W: Write> FlowWriter<W> {
    /// Creates a writer. The header is written on [`finish`](Self::finish)
    /// because the record count is part of it, so records are buffered.
    pub fn new(inner: W) -> Self {
        FlowWriter {
            inner,
            buf: Vec::new(),
            count: 0,
            checksum: Fletcher64::new(),
        }
    }

    /// Appends one record.
    pub fn write(&mut self, r: &FlowRecord) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&r.minute.to_le_bytes());
        self.buf.extend_from_slice(&r.src.0.to_le_bytes());
        self.buf.extend_from_slice(&r.dst.0.to_le_bytes());
        self.buf.push(r.proto.number());
        self.buf.extend_from_slice(&r.src_port.to_le_bytes());
        self.buf.extend_from_slice(&r.dst_port.to_le_bytes());
        self.buf.push(r.tcp_flags.0);
        self.buf.extend_from_slice(&r.bytes.to_le_bytes());
        self.buf.extend_from_slice(&r.packets.to_le_bytes());
        self.buf.extend_from_slice(&r.sampling.to_le_bytes());
        debug_assert_eq!(self.buf.len() - start, RECORD_BYTES);
        self.checksum.update(&self.buf[start..]);
        self.count += 1;
    }

    /// Writes header, records and trailing checksum; returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.write_all(MAGIC)?;
        self.inner.write_all(&self.count.to_le_bytes())?;
        self.inner.write_all(&self.buf)?;
        self.inner.write_all(&self.checksum.value().to_le_bytes())?;
        self.inner.flush()?;
        Ok(self.inner)
    }

    /// Records written so far.
    pub fn count(&self) -> u32 {
        self.count
    }
}

/// Reader for the `XNF1` format. Validates magic and checksum.
pub struct FlowReader<R: Read> {
    inner: R,
    remaining: u32,
    checksum: Fletcher64,
}

impl<R: Read> FlowReader<R> {
    /// Opens a stream, consuming and validating the header.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad magic: not an XNF1 stream",
            ));
        }
        let mut cnt = [0u8; 4];
        inner.read_exact(&mut cnt)?;
        Ok(FlowReader {
            inner,
            remaining: u32::from_le_bytes(cnt),
            checksum: Fletcher64::new(),
        })
    }

    /// Records left to read.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Reads the next record, or `None` after the last one (at which point
    /// the trailing checksum is verified).
    pub fn read(&mut self) -> io::Result<Option<FlowRecord>> {
        if self.remaining == 0 {
            let mut trailer = [0u8; 8];
            self.inner.read_exact(&mut trailer)?;
            if u64::from_le_bytes(trailer) != self.checksum.value() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checksum mismatch: corrupt XNF1 stream",
                ));
            }
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_BYTES];
        self.inner.read_exact(&mut buf)?;
        self.checksum.update(&buf);
        self.remaining -= 1;

        let le_u32 = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
        let le_u16 = |o: usize| u16::from_le_bytes(buf[o..o + 2].try_into().unwrap());
        let le_u64 = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        Ok(Some(FlowRecord {
            minute: le_u32(0),
            src: Ipv4(le_u32(4)),
            dst: Ipv4(le_u32(8)),
            proto: Protocol::from_number(buf[12]),
            src_port: le_u16(13),
            dst_port: le_u16(15),
            tcp_flags: TcpFlags(buf[17]),
            bytes: le_u64(18),
            packets: le_u64(26),
            sampling: le_u32(34),
        }))
    }

    /// Drains every remaining record into a vector, verifying the checksum.
    pub fn read_all(&mut self) -> io::Result<Vec<FlowRecord>> {
        let mut out = Vec::with_capacity(self.remaining as usize);
        while let Some(r) = self.read()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Fletcher-64 running checksum over bytes.
#[derive(Clone, Debug)]
struct Fletcher64 {
    a: u64,
    b: u64,
}

impl Fletcher64 {
    fn new() -> Self {
        Fletcher64 { a: 0, b: 0 }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a + x as u64) % 0xFFFF_FFFF;
            self.b = (self.b + self.a) % 0xFFFF_FFFF;
        }
    }

    fn value(&self) -> u64 {
        (self.b << 32) | self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_flows() -> Vec<FlowRecord> {
        (0..50)
            .map(|i| FlowRecord {
                minute: i,
                src: Ipv4(0x0A00_0000 + i),
                dst: Ipv4(0xC0A8_0001),
                proto: if i % 3 == 0 {
                    Protocol::Tcp
                } else {
                    Protocol::Udp
                },
                src_port: (i % 7) as u16 * 1000,
                dst_port: 443,
                tcp_flags: TcpFlags(0x12),
                bytes: 1000 + i as u64,
                packets: 3 + i as u64,
                sampling: 100,
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let flows = sample_flows();
        let mut w = FlowWriter::new(Vec::new());
        for f in &flows {
            w.write(f);
        }
        assert_eq!(w.count(), 50);
        let bytes = w.finish().unwrap();
        let mut r = FlowReader::new(&bytes[..]).unwrap();
        assert_eq!(r.remaining(), 50);
        let back = r.read_all().unwrap();
        assert_eq!(back, flows);
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let mut w = FlowWriter::new(Vec::new());
        for f in sample_flows() {
            w.write(&f);
        }
        let mut bytes = w.finish().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let mut r = FlowReader::new(&bytes[..]).unwrap();
        assert!(r.read_all().is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = b"NOPE\x00\x00\x00\x00".to_vec();
        assert!(FlowReader::new(&bytes[..]).is_err());
    }

    #[test]
    fn empty_stream_roundtrips() {
        let bytes = FlowWriter::new(Vec::new()).finish().unwrap();
        let mut r = FlowReader::new(&bytes[..]).unwrap();
        assert_eq!(r.read_all().unwrap(), vec![]);
    }
}
