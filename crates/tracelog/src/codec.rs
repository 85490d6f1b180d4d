//! The unbounded log's store: every admitted entry appended to one byte
//! buffer in a compact, lossless encoding, and decoded back in order.
//!
//! An entry is its timestamp, a one-byte variant tag, then the variant's
//! fields in declaration order, each through its [`Field`] impl:
//!
//! * the timestamp is a zigzag varint of its difference from the previous
//!   entry's;
//! * every `u64` field (`uid`, `seq`, `ack`, `rcv_nxt_after`) is a zigzag
//!   varint of its difference from the previous `u64` the store wrote, so
//!   consecutive records about one packet spend one byte naming it;
//! * `u32`, `NodeId`, `FlowId`, `SimDuration` and `SimTime` are LEB128
//!   varints;
//! * an `f64` is its bit pattern; enums, bools, `u8`s and `Option` tags take
//!   one byte each (the `sim_core` snapshot codec's bytes for them).
//!
//! The differences wrap, so times and `u64`s that go backwards or round
//! `u64::MAX` come back exactly; decoding is sequential, since each delta
//! needs the value before it. `TcpCwnd.phase`, a `&'static str`, travels as
//! a one-byte index into the store's table of the labels it has seen. The
//! table below states the layout once and writes both halves from it, so
//! they cannot drift.
//!
//! The bytes never leave the process, so they carry no header or version.
//! The flight-recorder ring keeps typed entries: it is bounded, and a dump
//! copies it whole.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use sim_core::{snap_enum, SimDuration, SimTime, SnapError, SnapshotReader, SnapshotWriter};
use wire::{Drai, FlowId, FrameKind, NodeId};

use crate::record::{PacketKind, TraceEntry, TraceRecord};

snap_enum! {
    PacketKind, "packet kind tag" {
        0 => TcpData, 1 => TcpAck, 2 => Rreq, 3 => Rrep, 4 => Rerr,
    }
}

/// Appends `value` as an LEB128 varint: seven bits a byte, low bits first,
/// the high bit set on every byte but the last.
fn put_varint(w: &mut SnapshotWriter, mut value: u64) {
    while value >= 0x80 {
        w.put_u8(value.to_le_bytes()[0] | 0x80);
        value >>= 7;
    }
    w.put_u8(value.to_le_bytes()[0]);
}

/// Reads an LEB128 varint, refusing one with bits past the 64th and one
/// longer than its value needs (so every value has exactly one encoding).
fn take_varint(r: &mut SnapshotReader<'_>) -> Result<u64, SnapError> {
    let mut value = 0;
    for shift in (0..64).step_by(7) {
        let byte = r.take_u8()?;
        // The tenth byte holds bit 63 alone and ends the varint.
        if shift == 63 && byte > 1 {
            return Err(SnapError::Invalid("varint overflow"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(SnapError::Invalid("overlong varint"));
            }
            return Ok(value);
        }
    }
    Err(SnapError::Invalid("varint overflow"))
}

/// Appends `value` as the zigzag varint of its wrapping difference from
/// `*base`, and makes it the next base.
fn put_delta(w: &mut SnapshotWriter, base: &mut u64, value: u64) {
    let delta = value.wrapping_sub(*base);
    *base = value;
    // Zigzag: 0, −1, 1, −2, … become 0, 1, 2, 3, …
    put_varint(w, (delta << 1) ^ (delta >> 63).wrapping_neg());
}

/// Reads what [`put_delta`] wrote against the same `*base`.
fn take_delta(r: &mut SnapshotReader<'_>, base: &mut u64) -> Result<u64, SnapError> {
    let zigzag = take_varint(r)?;
    *base = base.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
    Ok(*base)
}

/// The bytes and the bases the next deltas are taken from: the previous
/// entry's time and the previous `u64` field. Encoder and decoder each keep
/// one, and step them alike.
#[derive(Debug, Default)]
struct Cursor<B> {
    bytes: B,
    at: u64,
    word: u64,
}

type Encoder = Cursor<SnapshotWriter>;
type Decoder<'a> = Cursor<SnapshotReader<'a>>;

/// A decoder at the start of a store's bytes.
fn decoder(bytes: &[u8]) -> Decoder<'_> {
    Cursor { bytes: SnapshotReader::new(bytes), at: 0, word: 0 }
}

/// A record field's compact encoding.
trait Field: Sized {
    fn put(self, e: &mut Encoder);
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError>;
}

/// Fields whose snapshot-codec bytes are already one byte (or, for `f64`,
/// the bit pattern).
macro_rules! as_in_snapshots {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn put(self, e: &mut Encoder) {
                e.bytes.put(&self);
            }
            fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
                d.bytes.get()
            }
        }
    )+};
}

as_in_snapshots!(bool, u8, f64, FrameKind, PacketKind, Drai);

impl Field for u64 {
    fn put(self, e: &mut Encoder) {
        put_delta(&mut e.bytes, &mut e.word, self);
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        take_delta(&mut d.bytes, &mut d.word)
    }
}

impl Field for u32 {
    fn put(self, e: &mut Encoder) {
        put_varint(&mut e.bytes, u64::from(self));
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        u32::try_from(take_varint(&mut d.bytes)?).map_err(|_| SnapError::Invalid("u32 varint"))
    }
}

/// The broadcast address travels as its `u16::MAX` sentinel.
impl Field for NodeId {
    fn put(self, e: &mut Encoder) {
        put_varint(&mut e.bytes, u64::from(self.raw()));
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        match u16::try_from(take_varint(&mut d.bytes)?) {
            Ok(u16::MAX) => Ok(NodeId::BROADCAST),
            Ok(raw) => Ok(NodeId::new(raw)),
            Err(_) => Err(SnapError::Invalid("node id varint")),
        }
    }
}

impl Field for FlowId {
    fn put(self, e: &mut Encoder) {
        put_varint(&mut e.bytes, self.index() as u64);
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        u32::take(d).map(FlowId::new)
    }
}

/// Durations and instants travel as their nanoseconds.
macro_rules! as_nanos {
    ($($ty:ident),+) => {$(
        impl Field for $ty {
            fn put(self, e: &mut Encoder) {
                put_varint(&mut e.bytes, self.as_nanos());
            }
            fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
                take_varint(&mut d.bytes).map($ty::from_nanos)
            }
        }
    )+};
}

as_nanos!(SimDuration, SimTime);

impl<T: Field> Field for Option<T> {
    fn put(self, e: &mut Encoder) {
        e.bytes.put_bool(self.is_some());
        if let Some(value) = self {
            value.put(e);
        }
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        match d.bytes.take_u8()? {
            0 => Ok(None),
            1 => T::take(d).map(Some),
            _ => Err(SnapError::Invalid("option tag")),
        }
    }
}

/// Writes `put_record` and `take_record` from one table: each row is a
/// variant's tag and its fields in declaration order, with the phase label
/// after `;`.
macro_rules! layout {
    ($($tag:literal => $variant:ident { $($field:ident),+ $(; $label:ident)? }),+ $(,)?) => {
        fn put_record(e: &mut Encoder, labels: &mut Vec<&'static str>, record: &TraceRecord) {
            match *record {
                $(TraceRecord::$variant { $($field,)+ $($label)? } => {
                    e.bytes.put_u8($tag);
                    $(Field::put($field, e);)+
                    $(e.bytes.put_u8(label_index(labels, $label));)?
                })+
            }
        }

        fn take_record(
            d: &mut Decoder<'_>,
            labels: &[&'static str],
        ) -> Result<TraceRecord, SnapError> {
            Ok(match d.bytes.take_u8()? {
                $($tag => TraceRecord::$variant {
                    $($field: Field::take(d)?,)+
                    $($label: take_label(&mut d.bytes, labels)?)?
                },)+
                _ => return Err(SnapError::Invalid("trace record tag")),
            })
        }
    };
}

layout! {
    0 => PhyTx { node, dst, frame, bytes, uid, airtime, cw, nav_ahead },
    1 => PhyRx { node, from, frame, bytes, uid },
    2 => PhyCollision { node, from, frame, uid },
    3 => PhyLoss { node, from, frame, uid },
    4 => PhyMove { node, x, y },
    5 => MacBackoff { node, slots, cw },
    6 => MacRetryDrop { node, next_hop, uid },
    7 => RtrRecv { node, kind, uid, flow, bytes },
    8 => RtrForward { node, next_hop, kind, uid, flow, bytes, ttl, origin, route_valid_until },
    9 => RtrDrop { node, kind, uid, flow },
    10 => RtrRouteChange { node, dst, next_hop, hops, valid },
    11 => IfqEnqueue { node, uid, flow, depth, avbw, marked },
    // 12 is retired (a RED mark record): a byte string holding it is refused.
    13 => IfqDrop { node, uid, flow },
    14 => TcpSend { node, flow, seq, uid, bytes, retransmit },
    15 => TcpRecvData { node, flow, seq, uid, avbw, marked, rcv_nxt_after },
    16 => TcpAckTx { node, flow, ack, uid, mrai },
    17 => TcpRecvAck { node, flow, ack, uid, mrai },
    18 => TcpCwnd { node, flow, cwnd, ssthresh, srtt, rto; phase },
    19 => FaultDrop { node, uid },
    20 => FaultLink { a, b, up },
    21 => FaultNode { node, up },
}

/// `label`'s index in the table, appending it when new.
///
/// # Panics
///
/// Panics at a 257th distinct label: senders name four phases, so that
/// many is a bug, not a run.
fn label_index(labels: &mut Vec<&'static str>, label: &'static str) -> u8 {
    let index = match labels.iter().position(|&seen| seen == label) {
        Some(index) => index,
        None => {
            labels.push(label);
            labels.len() - 1
        }
    };
    match u8::try_from(index) {
        Ok(index) => index,
        Err(_) => panic!("more than 256 distinct phase labels in one trace log"),
    }
}

fn take_label(
    r: &mut SnapshotReader<'_>,
    labels: &[&'static str],
) -> Result<&'static str, SnapError> {
    let index = usize::from(r.take_u8()?);
    labels.get(index).copied().ok_or(SnapError::Invalid("phase label index"))
}

fn take_entry(d: &mut Decoder<'_>, labels: &[&'static str]) -> Result<TraceEntry, SnapError> {
    let at = SimTime::from_nanos(take_delta(&mut d.bytes, &mut d.at)?);
    Ok(TraceEntry { at, record: take_record(d, labels)? })
}

/// Entries appended as codec bytes, with the phase labels they index.
#[derive(Debug, Default)]
pub(crate) struct EntryBytes {
    encoder: Encoder,
    labels: Vec<&'static str>,
    len: usize,
}

impl EntryBytes {
    /// Appends one entry.
    pub(crate) fn push(&mut self, entry: &TraceEntry) {
        let e = &mut self.encoder;
        put_delta(&mut e.bytes, &mut e.at, entry.at.as_nanos());
        put_record(e, &mut self.labels, &entry.record);
        self.len += 1;
    }

    /// Entries appended.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes the entries occupy.
    pub(crate) fn byte_len(&self) -> usize {
        self.encoder.bytes.len()
    }

    /// The entries, decoded oldest first.
    pub(crate) fn iter(&self) -> Decoded<'_> {
        Decoded { d: decoder(self.encoder.bytes.as_bytes()), labels: &self.labels, left: self.len }
    }
}

/// The entries of an [`EntryBytes`], decoded in order.
#[derive(Debug)]
pub(crate) struct Decoded<'a> {
    d: Decoder<'a>,
    labels: &'a [&'static str],
    left: usize,
}

impl Iterator for Decoded<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.left == 0 {
            return None;
        }
        let entry = take_entry(&mut self.d, self.labels);
        // These are the store's own bytes: a failure here is a bug in this
        // module, not input to refuse.
        debug_assert!(entry.is_ok(), "a trace log's own bytes failed to decode: {entry:?}");
        self.left = if entry.is_ok() { self.left - 1 } else { 0 };
        entry.ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, TraceFilter, TraceLog};
    use proptest::prelude::*;
    use sim_core::{SimDuration, SimTime};
    use wire::{Drai, FlowId, FrameKind, NodeId};

    /// One entry of every variant, fields drawn from `seed`: ids include
    /// the broadcast address, uids `u64::MAX`, `cwnd` NaN and both zeros,
    /// phases several labels, and every `Option` is `Some` when `filled`
    /// and either otherwise.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a draw's low bits are a uniform value of the narrower type"
    )]
    fn every_variant(seed: u64, filled: bool) -> Vec<TraceEntry> {
        let mut rng = proptest::TestRng::new(seed);
        let mut next = move || rng.next_u64();
        let n = |draw: u64| match draw % 4 {
            0 => NodeId::BROADCAST,
            _ => NodeId::new(((draw >> 2) % u64::from(u16::MAX)) as u16),
        };
        let some = |draw: u64| filled || !draw.is_multiple_of(3);
        let uid = |draw: u64| if draw.is_multiple_of(5) { u64::MAX } else { draw };
        let ouid = |draw: u64| some(draw).then(|| uid(draw >> 2));
        let frame = |draw: u64| {
            [FrameKind::Rts, FrameKind::Cts, FrameKind::Data, FrameKind::Ack][(draw % 4) as usize]
        };
        let kind = |draw: u64| {
            [
                PacketKind::TcpData,
                PacketKind::TcpAck,
                PacketKind::Rreq,
                PacketKind::Rrep,
                PacketKind::Rerr,
            ][(draw % 5) as usize]
        };
        let flow = |draw: u64| some(draw).then(|| FlowId::new((draw >> 2) as u32));
        let drai = |draw: u64| some(draw).then(|| Drai::ALL[((draw >> 2) % 5) as usize]);
        let dur = |draw: u64| SimDuration::from_nanos(uid(draw));
        let odur = |draw: u64| some(draw).then(|| dur(draw >> 2));
        let float = |draw: u64| match draw % 5 {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            _ => f64::from_bits(draw),
        };
        let phase = |draw: u64| {
            ["slow-start", "congestion-avoidance", "fast-recovery", "rate-guided", ""]
                [(draw % 5) as usize]
        };
        let records = vec![
            TraceRecord::PhyTx {
                node: n(next()),
                dst: n(next()),
                frame: frame(next()),
                bytes: next() as u32,
                uid: ouid(next()),
                airtime: dur(next()),
                cw: next() as u32,
                nav_ahead: dur(next()),
            },
            TraceRecord::PhyRx {
                node: n(next()),
                from: n(next()),
                frame: frame(next()),
                bytes: next() as u32,
                uid: ouid(next()),
            },
            TraceRecord::PhyCollision {
                node: n(next()),
                from: n(next()),
                frame: frame(next()),
                uid: ouid(next()),
            },
            TraceRecord::PhyLoss {
                node: n(next()),
                from: n(next()),
                frame: frame(next()),
                uid: ouid(next()),
            },
            TraceRecord::PhyMove { node: n(next()), x: float(next()), y: float(next()) },
            TraceRecord::MacBackoff { node: n(next()), slots: next() as u32, cw: next() as u32 },
            TraceRecord::MacRetryDrop { node: n(next()), next_hop: n(next()), uid: uid(next()) },
            TraceRecord::RtrRecv {
                node: n(next()),
                kind: kind(next()),
                uid: uid(next()),
                flow: flow(next()),
                bytes: next() as u32,
            },
            TraceRecord::RtrForward {
                node: n(next()),
                next_hop: n(next()),
                kind: kind(next()),
                uid: uid(next()),
                flow: flow(next()),
                bytes: next() as u32,
                ttl: next() as u8,
                origin: some(next()),
                route_valid_until: some(next()).then(|| SimTime::from_nanos(uid(next()))),
            },
            TraceRecord::RtrDrop {
                node: n(next()),
                kind: kind(next()),
                uid: uid(next()),
                flow: flow(next()),
            },
            TraceRecord::RtrRouteChange {
                node: n(next()),
                dst: n(next()),
                next_hop: some(next()).then(|| n(next())),
                hops: next() as u32,
                valid: some(next()),
            },
            TraceRecord::IfqEnqueue {
                node: n(next()),
                uid: uid(next()),
                flow: flow(next()),
                depth: next() as u32,
                avbw: drai(next()),
                marked: some(next()),
            },
            TraceRecord::IfqDrop { node: n(next()), uid: uid(next()), flow: flow(next()) },
            TraceRecord::TcpSend {
                node: n(next()),
                flow: FlowId::new(next() as u32),
                seq: uid(next()),
                uid: uid(next()),
                bytes: next() as u32,
                retransmit: some(next()),
            },
            TraceRecord::TcpRecvData {
                node: n(next()),
                flow: FlowId::new(next() as u32),
                seq: uid(next()),
                uid: uid(next()),
                avbw: drai(next()),
                marked: some(next()),
                rcv_nxt_after: ouid(next()),
            },
            TraceRecord::TcpAckTx {
                node: n(next()),
                flow: FlowId::new(next() as u32),
                ack: uid(next()),
                uid: uid(next()),
                mrai: drai(next()),
            },
            TraceRecord::TcpRecvAck {
                node: n(next()),
                flow: FlowId::new(next() as u32),
                ack: uid(next()),
                uid: uid(next()),
                mrai: drai(next()),
            },
            TraceRecord::TcpCwnd {
                node: n(next()),
                flow: FlowId::new(next() as u32),
                cwnd: float(next()),
                ssthresh: some(next()).then(|| float(next())),
                srtt: odur(next()),
                rto: odur(next()),
                phase: phase(next()),
            },
            TraceRecord::FaultDrop { node: n(next()), uid: uid(next()) },
            TraceRecord::FaultLink { a: n(next()), b: n(next()), up: some(next()) },
            TraceRecord::FaultNode { node: n(next()), up: some(next()) },
        ];
        records
            .into_iter()
            .map(|record| TraceEntry { at: SimTime::from_nanos(uid(next())), record })
            .collect()
    }

    fn logged(entries: &[TraceEntry]) -> TraceLog {
        let mut log = TraceLog::new();
        for entry in entries {
            log.record(entry.at, entry.record);
        }
        log
    }

    /// The store's bytes and labels after `entries`.
    fn stored(entries: &[TraceEntry]) -> EntryBytes {
        let mut store = EntryBytes::default();
        for entry in entries {
            store.push(entry);
        }
        store
    }

    /// Every entry of `bytes`, or the first refusal.
    fn decode_all(
        bytes: &[u8],
        labels: &[&'static str],
        len: usize,
    ) -> Result<Vec<TraceEntry>, SnapError> {
        let mut d = decoder(bytes);
        let entries = (0..len).map(|_| take_entry(&mut d, labels)).collect::<Result<_, _>>()?;
        d.bytes.finish()?;
        Ok(entries)
    }

    /// Where a store's first entry keeps its tag: behind the time delta.
    fn first_tag_at(bytes: &[u8]) -> usize {
        let mut r = SnapshotReader::new(bytes);
        take_varint(&mut r).expect("a stored entry starts with its time");
        bytes.len() - r.remaining()
    }

    /// Each variant's tag and encoded length for its seed-3 entry, alone in
    /// an empty store with every `Option` filled, so a record that gains or
    /// loses a field fails here by name.
    #[test]
    fn every_variant_has_a_pinned_tag_and_length() {
        let pinned: [(&str, u8, usize); 21] = [
            ("PhyTx", 0, 57),
            ("PhyRx", 1, 32),
            ("PhyCollision", 2, 28),
            ("PhyLoss", 3, 27),
            ("PhyMove", 4, 30),
            ("MacBackoff", 5, 24),
            ("MacRetryDrop", 6, 25),
            ("RtrRecv", 7, 33),
            ("RtrForward", 8, 50),
            ("RtrDrop", 9, 30),
            ("RtrRouteChange", 10, 26),
            ("IfqEnqueue", 11, 36),
            ("IfqDrop", 13, 29),
            ("TcpSend", 14, 44),
            ("TcpRecvData", 15, 50),
            ("TcpAckTx", 16, 38),
            ("TcpRecvAck", 17, 40),
            ("TcpCwnd", 18, 48),
            ("FaultDrop", 19, 22),
            ("FaultLink", 20, 17),
            ("FaultNode", 21, 15),
        ];
        let entries = every_variant(3, true);
        for (entry, &(name, tag, len)) in entries.iter().zip(&pinned) {
            let debug = format!("{:?}", entry.record);
            assert!(debug.starts_with(&format!("{name} {{")), "{name} out of order: {debug}");
            assert!(!debug.contains("None"), "{name} left an option empty: {debug}");
            let store = stored(std::slice::from_ref(entry));
            let bytes = store.encoder.bytes.as_bytes();
            assert_eq!(
                (bytes[first_tag_at(bytes)], bytes.len()),
                (tag, len),
                "{name}'s layout moved"
            );
        }
    }

    #[test]
    fn iter_yields_exactly_what_was_kept_even_behind_a_filter() {
        let entries: Vec<TraceEntry> = (0..8).flat_map(|seed| every_variant(seed, false)).collect();
        let log = logged(&entries);
        assert_eq!(log.iter().count(), log.len());
        assert_eq!(log.len() as u64, log.kept());
        assert_eq!(log.kept(), entries.len() as u64);

        for layer in Layer::ALL {
            let mut log = TraceLog::with_filter(TraceFilter::all().layer(layer));
            for entry in &entries {
                log.record(entry.at, entry.record);
            }
            let kept = entries.iter().filter(|e| e.record.layer() == layer).count();
            assert!(kept > 0, "no {layer:?} records");
            assert_eq!(log.iter().count(), log.len());
            assert_eq!((log.len(), log.kept()), (kept, kept as u64));
            assert!(log.iter().all(|e| e.record.layer() == layer));
        }
    }

    #[test]
    fn unknown_tags_and_label_indices_are_refused() {
        let cwnd = every_variant(3, true).remove(17);
        let store = stored(&[cwnd]);
        let clean = store.encoder.bytes.as_bytes();
        assert!(decode_all(clean, &store.labels, 1).is_ok());

        // 12 is retired; 22 and up were never issued.
        let at = first_tag_at(clean);
        for tag in std::iter::once(12).chain(22..=u8::MAX) {
            let mut bytes = clean.to_vec();
            bytes[at] = tag;
            assert_eq!(
                decode_all(&bytes, &store.labels, 1),
                Err(SnapError::Invalid("trace record tag"))
            );
        }
        let mut bytes = clean.to_vec();
        *bytes.last_mut().expect("non-empty") = 1; // the table holds one label
        assert_eq!(
            decode_all(&bytes, &store.labels, 1),
            Err(SnapError::Invalid("phase label index"))
        );
        assert_eq!(
            decode_all(&clean[..clean.len() - 1], &store.labels, 1),
            Err(SnapError::Truncated)
        );
        // Tag 5 was the HELLO beacon's.
        for tag in [5, u8::MAX] {
            assert_eq!(
                SnapshotReader::new(&[tag]).get::<PacketKind>(),
                Err(SnapError::Invalid("packet kind tag"))
            );
        }
    }

    fn varint_bytes(value: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        put_varint(&mut w, value);
        w.finish()
    }

    fn read_varint(bytes: &[u8]) -> Result<u64, SnapError> {
        let mut r = SnapshotReader::new(bytes);
        let value = take_varint(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn varints_take_seven_bits_a_byte() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        for (value, bytes) in
            [(0, vec![0x00]), (127, vec![0x7f]), (128, vec![0x80, 0x01]), (u64::MAX, max)]
        {
            assert_eq!(varint_bytes(value), bytes, "{value}");
            assert_eq!(read_varint(&bytes), Ok(value), "{value}");
        }
    }

    #[test]
    fn overlong_and_overflowing_varints_are_refused() {
        let overflow = Err(SnapError::Invalid("varint overflow"));
        let overlong = Err(SnapError::Invalid("overlong varint"));
        // A tenth byte may carry bit 63 alone.
        for last in [0x02, 0x7f, 0x81, 0xff] {
            let mut bytes = vec![0xff; 9];
            bytes.push(last);
            assert_eq!(read_varint(&bytes), overflow, "tenth byte {last:#x}");
        }
        // An eleventh byte is never reached, whatever follows.
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert_eq!(read_varint(&eleven), overflow);
        // A value spelled longer than it needs would have two spellings.
        let mut zero_in_ten = vec![0x80; 9];
        zero_in_ten.push(0x00);
        for bytes in [vec![0x80, 0x00], vec![0xff, 0x80, 0x00], zero_in_ten] {
            assert_eq!(read_varint(&bytes), overlong, "{bytes:x?}");
        }
        assert_eq!(read_varint(&[0x80]), Err(SnapError::Truncated));
        assert_eq!(read_varint(&[]), Err(SnapError::Truncated));
    }

    /// Deltas wrap: a time or a `u64` that goes backwards, or round
    /// `u64::MAX` either way, comes back exactly.
    #[test]
    fn backward_and_wrapping_values_round_trip() {
        let words = [u64::MAX, 0, 1, u64::MAX - 1, 1 << 63, (1 << 63) - 1, 7, 3, 3, 0];
        let entries: Vec<TraceEntry> = words
            .iter()
            .zip(words.iter().rev())
            .map(|(&at, &uid)| TraceEntry {
                at: SimTime::from_nanos(at),
                record: TraceRecord::TcpSend {
                    node: NodeId::new(1),
                    flow: FlowId::new(0),
                    seq: uid.wrapping_add(1),
                    uid,
                    bytes: 1460,
                    retransmit: false,
                },
            })
            .collect();
        let store = stored(&entries);
        let back = decode_all(store.encoder.bytes.as_bytes(), &store.labels, entries.len());
        assert_eq!(back, Ok(entries));
    }

    /// The snapshot sweep's rule for untrusted bytes, applied to a store
    /// holding one entry per variant: every byte moved by +1, +0x80 and
    /// +0xff is refused or decoded (and renders), never a panic.
    #[test]
    fn every_single_byte_mutant_is_refused_or_decoded() {
        let store = stored(&every_variant(3, true));
        let clean = store.encoder.bytes.as_bytes();
        let (mut refused, mut decoded) = (0, 0);
        for pos in 0..clean.len() {
            for delta in [1u8, 0x80, 0xff] {
                let mut bytes = clean.to_vec();
                bytes[pos] = bytes[pos].wrapping_add(delta);
                match decode_all(&bytes, &store.labels, store.len()) {
                    Ok(entries) => {
                        decoded += 1;
                        for entry in &entries {
                            let _ = crate::ns2::line(entry);
                        }
                    }
                    Err(_) => refused += 1,
                }
            }
        }
        assert_eq!(refused + decoded, 3 * clean.len());
        assert!(refused > 0 && decoded > 0, "{refused} refused, {decoded} decoded");
    }

    proptest! {
        /// Every variant survives `TraceLog::new()` → `iter()`, compared by
        /// `Debug` so NaN compares equal to itself. Three rounds in one log
        /// put several phase labels in its table.
        #[test]
        fn every_variant_round_trips_through_the_log(seed in any::<u64>()) {
            let entries: Vec<TraceEntry> =
                (0..3).flat_map(|k| every_variant(seed.wrapping_add(k), false)).collect();
            let log = logged(&entries);
            let back: Vec<TraceEntry> = log.iter().collect();
            prop_assert_eq!(format!("{back:?}"), format!("{entries:?}"));
        }
    }
}
