//! A minimal libpcap writer (and self-check parser) for trace entries.
//!
//! Output is a classic pcap capture with the nanosecond-resolution magic
//! (`0xA1B23C4D`) and link type `DLT_USER0` (147). Each captured "packet"
//! is a 4-byte pseudo-header — node (u16 LE), direction code, layer code —
//! followed by the ASCII ns-2 trace line for the record, so Wireshark and
//! `tshark -x` show a readable per-event capture.
//!
//! Everything operates on in-memory byte vectors: file I/O stays in the
//! `harness` crate, on the wall-clock side of the determinism boundary.

use crate::ns2;
use crate::record::TraceEntry;

/// Link type for user-defined encapsulation 0.
pub const DLT_USER0: u32 = 147;
/// Nanosecond-resolution pcap magic number.
pub const MAGIC_NANOS: u32 = 0xA1B2_3C4D;
/// Bytes of pseudo-header in front of each record payload.
pub const PSEUDO_HEADER_BYTES: usize = 4;

/// Serialises entries into a complete pcap capture.
pub fn write<'a>(entries: impl IntoIterator<Item = &'a TraceEntry>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    // Global header: magic, version 2.4, thiszone 0, sigfigs 0, snaplen,
    // network.
    out.extend_from_slice(&MAGIC_NANOS.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes());
    out.extend_from_slice(&4u16.to_le_bytes());
    out.extend_from_slice(&0i32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&65535u32.to_le_bytes());
    out.extend_from_slice(&DLT_USER0.to_le_bytes());
    for entry in entries {
        let nanos = entry.at.as_nanos();
        let line = ns2::line(entry);
        let len = u32::try_from(PSEUDO_HEADER_BYTES + line.len()).unwrap_or(u32::MAX);
        // pcap's per-record timestamp is 32-bit seconds: a sim time past
        // 2^32 s (~136 years) saturates rather than silently wrapping and
        // reordering the capture. The nanos remainder is < 1e9 by
        // construction, so its conversion is infallible.
        let secs = u32::try_from(nanos / 1_000_000_000).unwrap_or(u32::MAX);
        let nsec = u32::try_from(nanos % 1_000_000_000).unwrap_or(0);
        out.extend_from_slice(&secs.to_le_bytes());
        out.extend_from_slice(&nsec.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(entry.record.node().raw()).to_le_bytes());
        out.push(entry.record.direction().code());
        out.push(entry.record.layer().code());
        out.extend_from_slice(line.as_bytes());
    }
    out
}

/// One parsed capture record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp in nanoseconds.
    pub ts_nanos: u64,
    /// Node index from the pseudo-header.
    pub node: u16,
    /// Direction code from the pseudo-header (see
    /// [`crate::Direction::code`]).
    pub direction: u8,
    /// Layer code from the pseudo-header (see [`crate::Layer::code`]).
    pub layer: u8,
    /// The record payload (ASCII trace line).
    pub data: Vec<u8>,
}

/// A parsed capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapFile {
    /// The link type from the global header.
    pub link_type: u32,
    /// Captured records, in file order.
    pub packets: Vec<PcapPacket>,
}

fn read_u16(bytes: &[u8], off: usize) -> Result<u16, String> {
    let slice = bytes.get(off..off + 2).ok_or_else(|| format!("truncated at byte {off}"))?;
    let arr: [u8; 2] = slice.try_into().map_err(|_| format!("truncated at byte {off}"))?;
    Ok(u16::from_le_bytes(arr))
}

fn read_u32(bytes: &[u8], off: usize) -> Result<u32, String> {
    let slice = bytes.get(off..off + 4).ok_or_else(|| format!("truncated at byte {off}"))?;
    let arr: [u8; 4] = slice.try_into().map_err(|_| format!("truncated at byte {off}"))?;
    Ok(u32::from_le_bytes(arr))
}

fn read_u8(bytes: &[u8], off: usize) -> Result<u8, String> {
    bytes.get(off).copied().ok_or_else(|| format!("truncated at byte {off}"))
}

/// Parses a capture previously produced by [`write`], validating the
/// structure (magic, lengths, pseudo-headers). Used by the self-parse test
/// and the `trace` CLI's round-trip check.
pub fn parse(bytes: &[u8]) -> Result<PcapFile, String> {
    let magic = read_u32(bytes, 0)?;
    if magic != MAGIC_NANOS {
        return Err(format!("bad magic {magic:#010x}, want {MAGIC_NANOS:#010x}"));
    }
    let major = read_u16(bytes, 4)?;
    let minor = read_u16(bytes, 6)?;
    if (major, minor) != (2, 4) {
        return Err(format!("unsupported pcap version {major}.{minor}"));
    }
    let link_type = read_u32(bytes, 20)?;
    let mut packets = Vec::new();
    let mut off = 24;
    while off < bytes.len() {
        let ts_sec = read_u32(bytes, off)?;
        let ts_nsec = read_u32(bytes, off + 4)?;
        if ts_nsec >= 1_000_000_000 {
            return Err(format!(
                "record {}: nanoseconds field {ts_nsec} out of range",
                packets.len()
            ));
        }
        let incl_len = read_u32(bytes, off + 8)? as usize;
        let orig_len = read_u32(bytes, off + 12)? as usize;
        if incl_len != orig_len {
            return Err(format!(
                "record {}: truncated capture ({incl_len} of {orig_len})",
                packets.len()
            ));
        }
        if incl_len < PSEUDO_HEADER_BYTES {
            return Err(format!("record {}: too short for pseudo-header", packets.len()));
        }
        let body_off = off + 16;
        let node = read_u16(bytes, body_off)?;
        let direction = read_u8(bytes, body_off + 2)?;
        let layer = read_u8(bytes, body_off + 3)?;
        let data = bytes
            .get(body_off + PSEUDO_HEADER_BYTES..body_off + incl_len)
            .ok_or_else(|| format!("record {}: truncated payload", packets.len()))?
            .to_vec();
        packets.push(PcapPacket {
            ts_nanos: u64::from(ts_sec) * 1_000_000_000 + u64::from(ts_nsec),
            node,
            direction,
            layer,
            data,
        });
        off = body_off + incl_len;
    }
    Ok(PcapFile { link_type, packets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use sim_core::SimTime;
    use wire::{FlowId, NodeId};

    fn entries() -> Vec<TraceEntry> {
        vec![
            TraceEntry {
                at: SimTime::from_nanos(1_000_000),
                record: TraceRecord::MacBackoff { node: NodeId::new(0), slots: 3, cw: 31 },
            },
            TraceEntry {
                at: SimTime::from_nanos(2_500_000_123),
                record: TraceRecord::TcpSend {
                    node: NodeId::new(1),
                    flow: FlowId::new(0),
                    seq: 4,
                    uid: 77,
                    bytes: 1500,
                    retransmit: false,
                },
            },
        ]
    }

    #[test]
    fn round_trips_structure() {
        let bytes = write(entries().iter());
        let parsed = parse(&bytes).expect("own output must parse");
        assert_eq!(parsed.link_type, DLT_USER0);
        assert_eq!(parsed.packets.len(), 2);
        assert_eq!(parsed.packets[0].ts_nanos, 1_000_000);
        assert_eq!(parsed.packets[0].node, 0);
        assert_eq!(parsed.packets[1].ts_nanos, 2_500_000_123);
        assert_eq!(parsed.packets[1].node, 1);
        let line = String::from_utf8(parsed.packets[1].data.clone()).expect("ascii payload");
        assert!(line.contains("tcp 1500"), "payload is the ns2 line: {line}");
    }

    #[test]
    fn timestamp_past_u32_seconds_saturates_not_wraps() {
        // (u32::MAX + 2) seconds: a raw `as u32` would wrap the seconds
        // field to 1 and reorder the capture; saturation pins it at the
        // format's ceiling and keeps nanos exact.
        let far = TraceEntry {
            at: SimTime::from_nanos((u64::from(u32::MAX) + 2) * 1_000_000_000 + 123),
            record: TraceRecord::MacBackoff { node: NodeId::new(0), slots: 1, cw: 15 },
        };
        let bytes = write(std::iter::once(&far));
        let parsed = parse(&bytes).expect("saturated capture still parses");
        let expect = u64::from(u32::MAX) * 1_000_000_000 + 123;
        assert_eq!(parsed.packets[0].ts_nanos, expect);
    }

    #[test]
    fn empty_capture_is_header_only() {
        let bytes = write(std::iter::empty());
        assert_eq!(bytes.len(), 24);
        let parsed = parse(&bytes).expect("header-only capture parses");
        assert!(parsed.packets.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = write(std::iter::empty());
        bytes[0] ^= 0xFF;
        assert!(parse(&bytes).expect_err("must fail").contains("bad magic"));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = write(entries().iter());
        let cut = &bytes[..bytes.len() - 3];
        assert!(parse(cut).expect_err("must fail").contains("truncated"));
    }
}
