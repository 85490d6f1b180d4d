//! The unbounded log's store: every admitted entry appended to one byte
//! buffer in a compact, lossless encoding, and decoded back in order.
//!
//! An entry is a tag byte, its timestamp, then the variant's fields in
//! declaration order, each through its [`Field`] impl:
//!
//! * the tag byte's low six bits are the variant's tag. Bit 7
//!   ([`SAME_INSTANT`]) marks an entry at the previous entry's instant (at
//!   zero, for the first), which writes no timestamp. Bit 6 ([`REFERENCE`])
//!   marks a reference, below;
//! * the timestamp is a zigzag varint of its difference from the previous
//!   entry's; a zero difference is the flag's to write;
//! * every `u64` field (`uid`, `seq`, `ack`, `rcv_nxt_after`) is a zigzag
//!   varint of its difference from the previous `u64` the store wrote, so
//!   consecutive records about one packet spend one byte naming it;
//! * a `PhyTx` airtime is a zigzag varint of its difference from the last
//!   airtime stored for the same frame kind;
//! * a `PhyMove` coordinate is an LEB128 varint of its bit pattern XOR the
//!   same node's previous stored coordinate (0.0 before its first move), so
//!   a short step clears the high bits;
//! * `u32`, `NodeId`, `FlowId`, `SimDuration` and `SimTime` are LEB128
//!   varints;
//! * any other `f64` is its bit pattern; enums, bools, `u8`s and `Option`
//!   tags take one byte each (the `sim_core` snapshot codec's bytes for
//!   them).
//!
//! A `PhyRx`, `PhyCollision` or `PhyLoss` that repeats its sender's last
//! stored `PhyTx` (the same frame kind and uid, and for a `PhyRx` the same
//! size) is a reference: its tag byte, then `node` and `from` alone. The
//! decoder copies the rest back from that `PhyTx`. Every base and table the
//! coding reads (times, `u64`s, airtimes, positions, last transmissions) is
//! rebuilt from stored entries only, by both halves alike: a filter that
//! keeps a receiver and not its sender stores the receive in full.
//!
//! The differences wrap, so times and `u64`s that go backwards or round
//! `u64::MAX` come back exactly; decoding is sequential, since each entry is
//! coded against the ones before it. `TcpCwnd.phase`, a `&'static str`,
//! travels as a one-byte index into the store's table of the labels it has
//! seen. The table below states the layout once and writes both halves
//! from it, so they cannot drift.
//!
//! The encoder builds each entry in one pass into a buffer on its own stack
//! frame and appends it to the store with one copy; the decoder reads
//! through `sim_core`'s [`SnapshotReader`]. The bytes never leave the
//! process, so they carry no header or version. The flight-recorder ring
//! keeps typed entries: it is bounded, and a dump copies it whole.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use sim_core::{snap_enum, DetMap, SimDuration, SimTime, SnapError, SnapshotReader};
use wire::{Drai, FlowId, FrameKind, NodeId};

use crate::record::{PacketKind, TraceEntry, TraceRecord};

snap_enum! {
    PacketKind, "packet kind tag" {
        0 => TcpData, 1 => TcpAck, 2 => Rreq, 3 => Rrep, 4 => Rerr,
    }
}

/// Tag-byte flag: the entry is at the previous entry's instant, and no
/// timestamp follows.
const SAME_INSTANT: u8 = 0x80;

/// Tag-byte flag: the entry repeats its sender's last stored `PhyTx`, and
/// only `node` and `from` follow.
const REFERENCE: u8 = 0x40;

/// Room for the longest entry: a `PhyTx` or a `TcpCwnd` with every varint
/// at its longest takes 59 bytes (a `PhyTx`: tag 1, time 10, two ids 3
/// each, frame 1, bytes 5, uid 11, airtime 10, cw 5, NAV 10).
const ENTRY_MAX: usize = 64;

/// One entry's bytes, built on the encoder's stack and appended whole.
struct Scratch {
    bytes: [u8; ENTRY_MAX],
    len: usize,
}

impl Scratch {
    fn new() -> Self {
        Scratch { bytes: [0; ENTRY_MAX], len: 0 }
    }

    fn put_u8(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }

    /// Appends `value` as an LEB128 varint: seven bits a byte, low bits
    /// first, the high bit set on every byte but the last.
    fn put_varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.put_u8(value.to_le_bytes()[0] | 0x80);
            value >>= 7;
        }
        self.put_u8(value.to_le_bytes()[0]);
    }

    /// Appends `value` as the zigzag varint of its wrapping difference from
    /// `*base`, and makes it the next base.
    fn put_delta(&mut self, base: &mut u64, value: u64) {
        let delta = value.wrapping_sub(*base);
        *base = value;
        // Zigzag: 0, −1, 1, −2, … become 0, 1, 2, 3, …
        self.put_varint((delta << 1) ^ (delta >> 63).wrapping_neg());
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
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

/// Adds the difference a zigzag varint holds to `*base`.
fn add_zigzag(base: &mut u64, zigzag: u64) -> u64 {
    *base = base.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
    *base
}

/// Reads what [`Scratch::put_delta`] wrote against the same `*base`.
fn take_delta(r: &mut SnapshotReader<'_>, base: &mut u64) -> Result<u64, SnapError> {
    let zigzag = take_varint(r)?;
    Ok(add_zigzag(base, zigzag))
}

/// What a `PhyTx` leaves for its sender's receivers to repeat.
#[derive(Clone, Copy, Debug)]
struct Sent {
    frame: FrameKind,
    bytes: u32,
    uid: Option<u64>,
}

/// What the next entry is coded against. Encoder and decoder each keep
/// one, and step it alike from the entries they store or decode.
#[derive(Debug, Default)]
struct Context {
    /// The previous entry's time.
    at: u64,
    /// The previous `u64` field.
    word: u64,
    /// Each frame kind's last airtime, by its snapshot tag.
    airtimes: [u64; 4],
    /// Each node's last `PhyTx`.
    sent: NodeTable<Option<Sent>>,
    /// Each node's last coordinates' bit patterns, `x` then `y`.
    coords: NodeTable<(u64, u64)>,
}

/// Node ids a [`NodeTable`] keeps in its vector; the rest go to its map.
const DENSE_IDS: usize = 4096;

/// A value per node: ids below [`DENSE_IDS`] in a vector grown to the
/// largest one stored, the rest in a map. A record naming node 65,534 —
/// which decoded bytes may — costs one map entry, not a table of 65,535
/// slots.
#[derive(Debug, Default)]
struct NodeTable<T> {
    dense: Vec<T>,
    sparse: DetMap<NodeId, T>,
}

impl<T: Clone + Default> NodeTable<T> {
    /// `node`'s slot, made if absent.
    fn slot(&mut self, node: NodeId) -> &mut T {
        let index = node.index();
        if index >= DENSE_IDS {
            return self.sparse.entry(node).or_default();
        }
        if index >= self.dense.len() {
            self.dense.resize(index + 1, T::default());
        }
        &mut self.dense[index]
    }

    /// `node`'s slot, if it was ever made.
    fn get(&self, node: NodeId) -> Option<&T> {
        match node.index() {
            index if index < DENSE_IDS => self.dense.get(index),
            _ => self.sparse.get(&node),
        }
    }
}

impl Context {
    fn last_airtime(&mut self, frame: FrameKind) -> &mut u64 {
        &mut self.airtimes[usize::from(frame as u8)]
    }

    fn last_x(&mut self, node: NodeId) -> &mut u64 {
        &mut self.coords.slot(node).0
    }

    fn last_y(&mut self, node: NodeId) -> &mut u64 {
        &mut self.coords.slot(node).1
    }

    fn sent_by(&self, node: NodeId) -> Option<Sent> {
        self.sent.get(node).copied().flatten()
    }

    /// Steps the tables the fields did not: a `PhyTx` becomes its
    /// sender's last.
    fn note(&mut self, record: &TraceRecord) {
        if let TraceRecord::PhyTx { node, frame, bytes, uid, .. } = *record {
            *self.sent.slot(node) = Some(Sent { frame, bytes, uid });
        }
    }
}

/// The encoder: one entry's bytes, and the store's context.
struct Encoder<'a> {
    out: Scratch,
    ctx: &'a mut Context,
}

impl Encoder<'_> {
    /// Writes the tag byte and, unless the entry is at the previous
    /// entry's instant, the time delta.
    fn put_head(&mut self, tag: u8, at: u64) {
        if at == self.ctx.at {
            self.out.put_u8(tag | SAME_INSTANT);
        } else {
            self.out.put_u8(tag);
            self.out.put_delta(&mut self.ctx.at, at);
        }
    }
}

/// The decoder: the bytes left, and the context rebuilt from the entries
/// decoded so far.
#[derive(Debug)]
struct Decoder<'a> {
    bytes: SnapshotReader<'a>,
    ctx: Context,
}

/// A decoder at the start of a store's bytes.
fn decoder(bytes: &[u8]) -> Decoder<'_> {
    Decoder { bytes: SnapshotReader::new(bytes), ctx: Context::default() }
}

/// A record field's compact encoding.
trait Field: Sized {
    fn put(self, e: &mut Encoder<'_>);
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError>;
}

/// Fields whose snapshot-codec bytes are one byte: the encoder writes that
/// byte, the decoder reads it back through the snapshot codec.
macro_rules! one_byte {
    ($($ty:ty => $byte:expr),+ $(,)?) => {$(
        impl Field for $ty {
            fn put(self, e: &mut Encoder<'_>) {
                let byte: fn($ty) -> u8 = $byte;
                e.out.put_u8(byte(self));
            }
            fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
                d.bytes.get()
            }
        }
    )+};
}

// The enums' snapshot tags are their declaration order.
one_byte! {
    bool => u8::from,
    u8 => |byte| byte,
    FrameKind => |frame| frame as u8,
    PacketKind => |kind| kind as u8,
    Drai => Drai::code,
}

/// The bit pattern, as the snapshot codec writes it.
impl Field for f64 {
    fn put(self, e: &mut Encoder<'_>) {
        for byte in self.to_bits().to_le_bytes() {
            e.out.put_u8(byte);
        }
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        d.bytes.get()
    }
}

impl Field for u64 {
    fn put(self, e: &mut Encoder<'_>) {
        e.out.put_delta(&mut e.ctx.word, self);
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        take_delta(&mut d.bytes, &mut d.ctx.word)
    }
}

impl Field for u32 {
    fn put(self, e: &mut Encoder<'_>) {
        e.out.put_varint(u64::from(self));
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        u32::try_from(take_varint(&mut d.bytes)?).map_err(|_| SnapError::Invalid("u32 varint"))
    }
}

/// The broadcast address travels as its `u16::MAX` sentinel.
impl Field for NodeId {
    fn put(self, e: &mut Encoder<'_>) {
        e.out.put_varint(u64::from(self.raw()));
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
    fn put(self, e: &mut Encoder<'_>) {
        e.out.put_varint(self.index() as u64);
    }
    fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
        u32::take(d).map(FlowId::new)
    }
}

/// Durations and instants travel as their nanoseconds.
macro_rules! as_nanos {
    ($($ty:ident),+) => {$(
        impl Field for $ty {
            fn put(self, e: &mut Encoder<'_>) {
                e.out.put_varint(self.as_nanos());
            }
            fn take(d: &mut Decoder<'_>) -> Result<Self, SnapError> {
                take_varint(&mut d.bytes).map($ty::from_nanos)
            }
        }
    )+};
}

as_nanos!(SimDuration, SimTime);

impl<T: Field> Field for Option<T> {
    fn put(self, e: &mut Encoder<'_>) {
        e.out.put_u8(u8::from(self.is_some()));
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

/// A field coded against the value last stored in its context slot, which
/// it then replaces.
trait Against: Sized {
    fn put(self, slot: &mut u64, out: &mut Scratch);
    fn take(slot: &mut u64, r: &mut SnapshotReader<'_>) -> Result<Self, SnapError>;
}

/// An airtime: the zigzag varint of its difference from the slot's.
impl Against for SimDuration {
    fn put(self, slot: &mut u64, out: &mut Scratch) {
        out.put_delta(slot, self.as_nanos());
    }
    fn take(slot: &mut u64, r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        take_delta(r, slot).map(SimDuration::from_nanos)
    }
}

/// A coordinate: the varint of its bit pattern XOR the slot's.
impl Against for f64 {
    fn put(self, slot: &mut u64, out: &mut Scratch) {
        let bits = self.to_bits();
        out.put_varint(bits ^ *slot);
        *slot = bits;
    }
    fn take(slot: &mut u64, r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        *slot ^= take_varint(r)?;
        Ok(f64::from_bits(*slot))
    }
}

/// Writes `put_record` and `take_record` from one table: each row is a
/// variant's tag and its fields in declaration order, with the phase label
/// after `;`. A field `against` a context slot, named by a field before
/// it, is coded through [`Against`].
macro_rules! layout {
    (@put $e:ident, $field:ident) => { Field::put($field, $e) };
    (@put $e:ident, $field:ident against $slot:ident($key:ident)) => {
        Against::put($field, $e.ctx.$slot($key), &mut $e.out)
    };
    (@take $d:ident, $field:ident) => { Field::take($d)? };
    (@take $d:ident, $field:ident against $slot:ident($key:ident)) => {
        Against::take($d.ctx.$slot($key), &mut $d.bytes)?
    };
    ($($tag:literal => $variant:ident {
        $($field:ident $(against $slot:ident($key:ident))?),+ $(; $label:ident)?
    }),+ $(,)?) => {
        fn put_record(
            e: &mut Encoder<'_>,
            labels: &mut Vec<&'static str>,
            at: u64,
            record: &TraceRecord,
        ) {
            match *record {
                $(TraceRecord::$variant { $($field,)+ $($label)? } => {
                    e.put_head($tag, at);
                    $(layout!(@put e, $field $(against $slot($key))?);)+
                    $(e.out.put_u8(label_index(labels, $label));)?
                })+
            }
        }

        fn take_record(
            d: &mut Decoder<'_>,
            tag: u8,
            labels: &[&'static str],
        ) -> Result<TraceRecord, SnapError> {
            Ok(match tag {
                $($tag => {
                    $(let $field = layout!(@take d, $field $(against $slot($key))?);)+
                    TraceRecord::$variant {
                        $($field,)+
                        $($label: take_label(&mut d.bytes, labels)?)?
                    }
                })+
                _ => return Err(SnapError::Invalid("trace record tag")),
            })
        }
    };
}

layout! {
    0 => PhyTx { node, dst, frame, bytes, uid, airtime against last_airtime(frame), cw, nav_ahead },
    1 => PhyRx { node, from, frame, bytes, uid },
    2 => PhyCollision { node, from, frame, uid },
    3 => PhyLoss { node, from, frame, uid },
    4 => PhyMove { node, x against last_x(node), y against last_y(node) },
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

/// The receive-side record a reference tagged `tag` stands for: `node`
/// hearing `sent`, `from`'s last stored `PhyTx`. `None` but for the tags of
/// `PhyRx`, `PhyCollision` and `PhyLoss`.
fn heard(tag: u8, node: NodeId, from: NodeId, sent: Sent) -> Option<TraceRecord> {
    let Sent { frame, bytes, uid } = sent;
    match tag {
        1 => Some(TraceRecord::PhyRx { node, from, frame, bytes, uid }),
        2 => Some(TraceRecord::PhyCollision { node, from, frame, uid }),
        3 => Some(TraceRecord::PhyLoss { node, from, frame, uid }),
        _ => None,
    }
}

/// The tag, receiver and sender of the reference that decodes back to
/// `record`, if one does.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "only receive-side records have a reference form; the rest are written in full"
)]
fn reference(ctx: &Context, record: &TraceRecord) -> Option<(u8, NodeId, NodeId)> {
    let (tag, node, from) = match *record {
        TraceRecord::PhyRx { node, from, .. } => (1, node, from),
        TraceRecord::PhyCollision { node, from, .. } => (2, node, from),
        TraceRecord::PhyLoss { node, from, .. } => (3, node, from),
        _ => return None,
    };
    let sent = ctx.sent_by(from)?;
    (heard(tag, node, from, sent) == Some(*record)).then_some((tag, node, from))
}

fn take_reference(d: &mut Decoder<'_>, tag: u8) -> Result<TraceRecord, SnapError> {
    let node = NodeId::take(d)?;
    let from = NodeId::take(d)?;
    let sent = d.ctx.sent_by(from).ok_or(SnapError::Invalid("reference to an unsent frame"))?;
    heard(tag, node, from, sent).ok_or(SnapError::Invalid("trace record tag"))
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

fn put_entry(e: &mut Encoder<'_>, labels: &mut Vec<&'static str>, entry: &TraceEntry) {
    let at = entry.at.as_nanos();
    match reference(e.ctx, &entry.record) {
        Some((tag, node, from)) => {
            e.put_head(tag | REFERENCE, at);
            node.put(e);
            from.put(e);
        }
        None => put_record(e, labels, at, &entry.record),
    }
    e.ctx.note(&entry.record);
}

fn take_entry(d: &mut Decoder<'_>, labels: &[&'static str]) -> Result<TraceEntry, SnapError> {
    let head = d.bytes.take_u8()?;
    if head & SAME_INSTANT == 0 {
        match take_varint(&mut d.bytes)? {
            0 => return Err(SnapError::Invalid("unflagged repeat of an instant")),
            zigzag => add_zigzag(&mut d.ctx.at, zigzag),
        };
    }
    let tag = head & !(SAME_INSTANT | REFERENCE);
    let record =
        if head & REFERENCE == 0 { take_record(d, tag, labels)? } else { take_reference(d, tag)? };
    d.ctx.note(&record);
    Ok(TraceEntry { at: SimTime::from_nanos(d.ctx.at), record })
}

/// Entries appended as codec bytes, with the context the next is coded
/// against and the phase labels they index.
#[derive(Debug, Default)]
pub(crate) struct EntryBytes {
    bytes: Vec<u8>,
    context: Context,
    labels: Vec<&'static str>,
    len: usize,
}

impl EntryBytes {
    /// Appends one entry.
    pub(crate) fn push(&mut self, entry: &TraceEntry) {
        let mut e = Encoder { out: Scratch::new(), ctx: &mut self.context };
        put_entry(&mut e, &mut self.labels, entry);
        self.bytes.extend_from_slice(e.out.as_slice());
        self.len += 1;
    }

    /// Entries appended.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes the entries occupy.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The entries, decoded oldest first.
    pub(crate) fn iter(&self) -> Decoded<'_> {
        Decoded { d: decoder(&self.bytes), labels: &self.labels, left: self.len }
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

    /// Entries whose bytes depend on what the store holds before them, each
    /// named: the seed-3 `PhyTx`, then receive-side records at its instant
    /// that repeat it or differ from it by one field, one that names a
    /// sender with nothing stored, the same frame kind sent again a
    /// nanosecond longer, and one node moved twice.
    fn in_context() -> Vec<(&'static str, TraceEntry)> {
        let tx = every_variant(3, true).remove(0);
        let TraceRecord::PhyTx { node: from, dst, frame, bytes, uid, airtime, cw, nav_ahead } =
            tx.record
        else {
            unreachable!("every_variant starts with a PhyTx")
        };
        let (a, b, c) = (NodeId::new(7), NodeId::new(8), NodeId::new(9));
        let other_uid = uid.map(|u| u ^ 1);
        let moved = |x: f64| TraceRecord::PhyMove { node: a, x, y: -250.5 };
        let later = |nanos: u64| SimTime::from_nanos(tx.at.as_nanos().wrapping_add(nanos));
        let rows = [
            ("PhyTx", tx.at, tx.record),
            ("PhyRx repeating it", tx.at, TraceRecord::PhyRx { node: a, from, frame, bytes, uid }),
            (
                "PhyCollision repeating it",
                tx.at,
                TraceRecord::PhyCollision { node: b, from, frame, uid },
            ),
            ("PhyLoss repeating it", tx.at, TraceRecord::PhyLoss { node: c, from, frame, uid }),
            (
                "PhyRx of another size",
                tx.at,
                TraceRecord::PhyRx { node: a, from, frame, bytes: bytes.wrapping_add(1), uid },
            ),
            (
                "PhyCollision of another uid",
                tx.at,
                TraceRecord::PhyCollision { node: b, from, frame, uid: other_uid },
            ),
            (
                "PhyRx from a silent sender",
                tx.at,
                TraceRecord::PhyRx { node: from, from: a, frame, bytes, uid },
            ),
            (
                "PhyTx a nanosecond longer",
                later(1_000),
                TraceRecord::PhyTx {
                    node: from,
                    dst,
                    frame,
                    bytes,
                    uid,
                    airtime: SimDuration::from_nanos(airtime.as_nanos().wrapping_add(1)),
                    cw,
                    nav_ahead,
                },
            ),
            ("PhyMove", later(2_000), moved(1200.25)),
            ("PhyMove a metre on", later(2_000), moved(1201.25)),
        ];
        rows.into_iter().map(|(name, at, record)| (name, TraceEntry { at, record })).collect()
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

    /// Each variant's tag byte and encoded length for its seed-3 entry,
    /// alone in an empty store with every `Option` filled, so a record that
    /// gains or loses a field fails here by name.
    #[test]
    fn every_variant_has_a_pinned_tag_and_length() {
        let pinned: [(&str, u8, usize); 21] = [
            ("PhyTx", 0, 48),
            ("PhyRx", 1, 32),
            ("PhyCollision", 2, 28),
            ("PhyLoss", 3, 27),
            ("PhyMove", 4, 25),
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
            let bytes = &store.bytes;
            assert_eq!((bytes[0], bytes.len()), (tag, len), "{name}'s layout moved");
        }

        // The same, for each entry of `in_context` appended behind the ones
        // before it: references, the instant flag, airtime and position
        // deltas.
        let (same, reference) = (SAME_INSTANT, SAME_INSTANT | REFERENCE);
        let pinned: [(u8, usize); 10] = [
            (0, 48),
            (reference | 1, 5),
            (reference | 2, 5),
            (reference | 3, 5),
            (same | 1, 13),
            (same | 2, 8),
            (same | 1, 13),
            (0, 33),
            (4, 23),
            (same | 4, 10),
        ];
        let rows = in_context();
        let mut store = EntryBytes::default();
        for ((name, entry), &(tag, len)) in rows.iter().zip(&pinned) {
            let before = store.byte_len();
            store.push(entry);
            let bytes = &store.bytes[before..];
            assert_eq!((bytes[0], bytes.len()), (tag, len), "{name}'s layout moved");
        }
        assert_eq!(rows.len(), pinned.len());
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
        let clean = &store.bytes[..];
        assert!(decode_all(clean, &store.labels, 1).is_ok());

        // 12 is retired; 22 to 63 were never issued. Either flag may stand
        // beside a tag.
        for base in std::iter::once(12).chain(22..REFERENCE) {
            for flags in [0, SAME_INSTANT] {
                let mut bytes = clean.to_vec();
                bytes[0] = base | flags;
                assert_eq!(
                    decode_all(&bytes, &store.labels, 1),
                    Err(SnapError::Invalid("trace record tag")),
                    "tag byte {:#x}",
                    bytes[0]
                );
            }
        }
        // Only a receive-side record has a reference form; this store holds
        // no PhyTx for a reference to name either.
        for base in (0..REFERENCE).filter(|tag| !(1..=3).contains(tag)) {
            for flags in [REFERENCE, SAME_INSTANT | REFERENCE] {
                let mut bytes = clean.to_vec();
                bytes[0] = base | flags;
                assert!(decode_all(&bytes, &store.labels, 1).is_err(), "tag byte {:#x}", bytes[0]);
            }
        }
        // A reference with a tag no receive-side record has, naming a
        // sender that did transmit.
        let rows: Vec<TraceEntry> = in_context().into_iter().map(|(_, entry)| entry).collect();
        let store = stored(&rows[..2]);
        let reference = stored(&rows[..1]).byte_len();
        let mut bytes = store.bytes.clone();
        bytes[reference] = SAME_INSTANT | REFERENCE | 4;
        assert_eq!(decode_all(&bytes, &[], 2), Err(SnapError::Invalid("trace record tag")));
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

    /// A zero time delta is the instant flag's to write, so each instant
    /// has one spelling; a reference needs its sender's `PhyTx` stored
    /// before it.
    #[test]
    fn unflagged_instants_and_unsent_references_are_refused() {
        // A FaultNode of node 4 at time zero, with and without the flag.
        let record = TraceRecord::FaultNode { node: NodeId::new(4), up: true };
        assert_eq!(
            decode_all(&[21 | SAME_INSTANT, 0x04, 0x01], &[], 1),
            Ok(vec![TraceEntry { at: SimTime::ZERO, record }])
        );
        assert_eq!(
            decode_all(&[21, 0x00, 0x04, 0x01], &[], 1),
            Err(SnapError::Invalid("unflagged repeat of an instant"))
        );

        // The store without its first entry, the PhyTx the next three
        // entries refer to.
        let rows: Vec<TraceEntry> = in_context().into_iter().map(|(_, entry)| entry).collect();
        let store = stored(&rows);
        let tail = &store.bytes[stored(&rows[..1]).byte_len()..];
        assert_eq!(
            decode_all(tail, &store.labels, rows.len() - 1),
            Err(SnapError::Invalid("reference to an unsent frame"))
        );
    }

    /// The encoder writes an enum, a bool or a `u8` as the one byte the
    /// snapshot codec writes for it, which is what the decoder reads.
    #[test]
    fn one_byte_fields_are_the_snapshot_codecs_bytes() {
        fn check<T: Field + sim_core::Snapshotable + Copy + std::fmt::Debug>(values: &[T]) {
            for &value in values {
                let mut context = Context::default();
                let mut e = Encoder { out: Scratch::new(), ctx: &mut context };
                value.put(&mut e);
                let mut w = sim_core::SnapshotWriter::new();
                w.put(&value);
                assert_eq!(e.out.as_slice(), &w.finish()[..], "{value:?}");
            }
        }
        check(&[FrameKind::Rts, FrameKind::Cts, FrameKind::Data, FrameKind::Ack]);
        check(&[
            PacketKind::TcpData,
            PacketKind::TcpAck,
            PacketKind::Rreq,
            PacketKind::Rrep,
            PacketKind::Rerr,
        ]);
        check(&Drai::ALL);
        check(&[false, true]);
        check(&[0u8, 1, 0x80, u8::MAX]);
        check(&[0.0, -0.0, 1.5, f64::NAN, f64::INFINITY]);
    }

    /// The two longest entries, every varint at its longest, fill 59 of the
    /// encoder's `ENTRY_MAX` bytes.
    #[test]
    fn the_longest_entries_fit_the_scratch() {
        let at = SimTime::from_nanos(1 << 63);
        let node = NodeId::new(u16::MAX - 1);
        let long = SimDuration::from_nanos(1 << 63);
        let records = [
            TraceRecord::PhyTx {
                node,
                dst: node,
                frame: FrameKind::Data,
                bytes: u32::MAX,
                uid: Some(1 << 63),
                airtime: long,
                cw: u32::MAX,
                nav_ahead: SimDuration::from_nanos(u64::MAX),
            },
            TraceRecord::TcpCwnd {
                node,
                flow: FlowId::new(u32::MAX),
                cwnd: f64::NAN,
                ssthresh: Some(f64::NAN),
                srtt: Some(SimDuration::from_nanos(u64::MAX)),
                rto: Some(SimDuration::from_nanos(u64::MAX)),
                phase: "slow-start",
            },
        ];
        for record in records {
            let store = stored(&[TraceEntry { at, record }]);
            assert_eq!(store.byte_len(), 59, "{record:?}");
        }
        const { assert!(59 <= ENTRY_MAX) };
    }

    fn varint_bytes(value: u64) -> Vec<u8> {
        let mut out = Scratch::new();
        out.put_varint(value);
        out.as_slice().to_vec()
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
        let back = decode_all(&store.bytes, &store.labels, entries.len());
        assert_eq!(back, Ok(entries));
    }

    /// Senders on both sides of the tables' bound, and the largest id a
    /// node may have, are heard by reference and move against their last
    /// coordinates as any other; only the ids below the bound take vector
    /// slots.
    #[test]
    fn ids_past_the_dense_bound_are_coded_against_their_own_last_values() {
        let tx = every_variant(3, true).remove(0);
        let TraceRecord::PhyTx { dst, frame, bytes, uid, airtime, cw, nav_ahead, .. } = tx.record
        else {
            unreachable!("every_variant starts with a PhyTx")
        };
        let ids = [4095, 4096, 65_534].map(NodeId::new);
        let mut entries = Vec::new();
        for (k, &node) in ids.iter().enumerate() {
            let send = TraceRecord::PhyTx { node, dst, frame, bytes, uid, airtime, cw, nav_ahead };
            let heard =
                TraceRecord::PhyRx { node: ids[(k + 1) % 3], from: node, frame, bytes, uid };
            for x in [10.0, 10.5] {
                entries
                    .push(TraceEntry { at: tx.at, record: TraceRecord::PhyMove { node, x, y: x } });
            }
            entries.extend([send, heard].map(|record| TraceEntry { at: tx.at, record }));
        }
        let store = stored(&entries);
        assert_eq!(decode_all(&store.bytes, &store.labels, entries.len()), Ok(entries.clone()));
        // Receptions of another size are written in full, and take more.
        let resized: Vec<TraceEntry> = entries
            .iter()
            .map(|&entry| {
                let TraceRecord::PhyRx { node, from, frame, bytes, uid } = entry.record else {
                    return entry;
                };
                let record = TraceRecord::PhyRx { node, from, frame, bytes: bytes + 1, uid };
                TraceEntry { record, ..entry }
            })
            .collect();
        assert!(store.byte_len() < stored(&resized).byte_len());
        let tables = &store.context;
        assert_eq!((tables.sent.dense.len(), tables.coords.dense.len()), (DENSE_IDS, DENSE_IDS));
        assert_eq!(tables.sent.sparse.keys().copied().collect::<Vec<_>>(), ids[1..]);
    }

    /// The snapshot sweep's rule for untrusted bytes, applied to a store
    /// holding one entry per variant and then the entries of `in_context`:
    /// every byte moved by +1, +0x80 and +0xff is refused or decoded (and
    /// renders), never a panic.
    #[test]
    fn every_single_byte_mutant_is_refused_or_decoded() {
        let mut entries = every_variant(3, true);
        entries.extend(in_context().into_iter().map(|(_, entry)| entry));
        let store = stored(&entries);
        let clean = &store.bytes[..];
        let (mut refused, mut decoded, mut unsent) = (0, 0, 0);
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
                    Err(refusal) => {
                        refused += 1;
                        unsent += usize::from(
                            refusal == SnapError::Invalid("reference to an unsent frame"),
                        );
                    }
                }
            }
        }
        assert_eq!(refused + decoded, 3 * clean.len());
        assert!(refused > 0 && decoded > 0, "{refused} refused, {decoded} decoded");
        assert!(unsent > 0, "no mutant named a sender with nothing stored");
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

        /// Six nodes send frames and record hearing each other's, the
        /// receive-side fields either repeating the sender's last frame or
        /// not. Every log round-trips: one admitting all, and ones behind a
        /// node filter that admits some receivers and not their senders.
        #[test]
        fn receivers_round_trip_with_and_without_their_senders(seed in any::<u64>()) {
            let entries = chatter(seed, 200);
            let logs = [
                TraceFilter::all(),
                TraceFilter::all().node(NodeId::new(1)).node(NodeId::new(3)),
                TraceFilter::all().node(NodeId::new(0)).node(NodeId::new(5)),
            ];
            for filter in logs {
                let mut log = TraceLog::with_filter(filter.clone());
                for entry in &entries {
                    log.record(entry.at, entry.record);
                }
                let kept: Vec<&TraceEntry> =
                    entries.iter().filter(|e| filter.admits(&e.record)).collect();
                let back: Vec<TraceEntry> = log.iter().collect();
                prop_assert_eq!(format!("{back:?}"), format!("{kept:?}"));
            }
        }
    }

    /// `len` entries among six nodes, drawn from `seed`: a quarter are
    /// `PhyTx`, the rest `PhyRx`, `PhyCollision` or `PhyLoss` naming a
    /// sender, each field copied from that sender's last frame or drawn
    /// afresh. Instants repeat, and now and then step back.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a draw's low bits are a uniform value of the narrower type"
    )]
    fn chatter(seed: u64, len: usize) -> Vec<TraceEntry> {
        let mut rng = proptest::TestRng::new(seed);
        let frames = [FrameKind::Rts, FrameKind::Cts, FrameKind::Data, FrameKind::Ack];
        let mut last: [(FrameKind, u32, Option<u64>); 6] = [(FrameKind::Rts, 0, None); 6];
        let mut at = 0u64;
        (0..len)
            .map(|_| {
                at = match rng.below(8) {
                    0..=3 => at,
                    4 => at.wrapping_sub(rng.below(1_000)),
                    _ => at.wrapping_add(rng.below(1_000_000)),
                };
                let node = NodeId::new(rng.below(6) as u16);
                let from = rng.below(6) as u16;
                let (mut frame, mut bytes, mut uid) = last[usize::from(from)];
                if rng.below(3) == 0 {
                    frame = frames[rng.below(4) as usize];
                }
                if rng.below(3) == 0 {
                    bytes = rng.below(2_000) as u32;
                }
                if rng.below(3) == 0 {
                    uid = (rng.below(4) != 0).then(|| rng.below(50));
                }
                let from_id = NodeId::new(from);
                let record = match rng.below(8) {
                    0 | 1 => {
                        last[usize::from(from)] = (frame, bytes, uid);
                        TraceRecord::PhyTx {
                            node: from_id,
                            dst: node,
                            frame,
                            bytes,
                            uid,
                            airtime: SimDuration::from_nanos(rng.below(4) * 50_000),
                            cw: 31,
                            nav_ahead: SimDuration::from_nanos(rng.below(100_000)),
                        }
                    }
                    2..=4 => TraceRecord::PhyRx { node, from: from_id, frame, bytes, uid },
                    5 | 6 => TraceRecord::PhyCollision { node, from: from_id, frame, uid },
                    _ => TraceRecord::PhyLoss { node, from: from_id, frame, uid },
                };
                TraceEntry { at: SimTime::from_nanos(at), record }
            })
            .collect()
    }
}
