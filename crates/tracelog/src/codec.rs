//! The unbounded log's store: every admitted entry appended to one byte
//! buffer in the `sim_core` snapshot codec, and decoded back in order.
//!
//! An entry is its timestamp, a one-byte variant tag, then the variant's
//! fields in declaration order, each through its own [`Snapshotable`] impl.
//! `TcpCwnd.phase`, a `&'static str`, travels as a one-byte index into the
//! store's table of the labels it has seen. The table below states the
//! layout once and writes both halves from it, so they cannot drift.
//!
//! The bytes never leave the process, so they carry no header or version.
//! The flight-recorder ring keeps typed entries: it is bounded, and a dump
//! copies it whole.
//!
//! [`Snapshotable`]: sim_core::Snapshotable

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use sim_core::{snap_enum, SnapError, SnapshotReader, SnapshotWriter};

use crate::record::{PacketKind, TraceEntry, TraceRecord};

snap_enum! {
    PacketKind, "packet kind tag" {
        0 => TcpData, 1 => TcpAck, 2 => Rreq, 3 => Rrep, 4 => Rerr,
    }
}

/// Writes `put_record` and `take_record` from one table: each row is a
/// variant's tag and its fields in declaration order, with the phase label
/// after `;`.
macro_rules! layout {
    ($($tag:literal => $variant:ident { $($field:ident),+ $(; $label:ident)? }),+ $(,)?) => {
        fn put_record(w: &mut SnapshotWriter, labels: &mut Vec<&'static str>, record: &TraceRecord) {
            match *record {
                $(TraceRecord::$variant { $($field,)+ $($label)? } => {
                    w.put_u8($tag);
                    $(w.put(&$field);)+
                    $(w.put_u8(label_index(labels, $label));)?
                })+
            }
        }

        fn take_record(
            r: &mut SnapshotReader<'_>,
            labels: &[&'static str],
        ) -> Result<TraceRecord, SnapError> {
            Ok(match r.take_u8()? {
                $($tag => TraceRecord::$variant {
                    $($field: r.get()?,)+
                    $($label: take_label(r, labels)?)?
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

fn take_entry(
    r: &mut SnapshotReader<'_>,
    labels: &[&'static str],
) -> Result<TraceEntry, SnapError> {
    Ok(TraceEntry { at: r.get()?, record: take_record(r, labels)? })
}

/// Entries appended as codec bytes, with the phase labels they index.
#[derive(Debug, Default)]
pub(crate) struct EntryBytes {
    bytes: SnapshotWriter,
    labels: Vec<&'static str>,
    len: usize,
}

impl EntryBytes {
    /// Appends one entry.
    pub(crate) fn push(&mut self, entry: &TraceEntry) {
        self.bytes.put(&entry.at);
        put_record(&mut self.bytes, &mut self.labels, &entry.record);
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
        Decoded {
            r: SnapshotReader::new(self.bytes.as_bytes()),
            labels: &self.labels,
            left: self.len,
        }
    }
}

/// The entries of an [`EntryBytes`], decoded in order.
#[derive(Debug)]
pub(crate) struct Decoded<'a> {
    r: SnapshotReader<'a>,
    labels: &'a [&'static str],
    left: usize,
}

impl Iterator for Decoded<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.left == 0 {
            return None;
        }
        let entry = take_entry(&mut self.r, self.labels);
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
        let mut r = SnapshotReader::new(bytes);
        let entries = (0..len).map(|_| take_entry(&mut r, labels)).collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(entries)
    }

    /// Each variant's tag and encoded length with every `Option` filled, so
    /// a record that gains or loses a field fails here by name.
    #[test]
    fn every_variant_has_a_pinned_tag_and_length() {
        let pinned: [(&str, u8, usize); 21] = [
            ("PhyTx", 0, 47),
            ("PhyRx", 1, 27),
            ("PhyCollision", 2, 23),
            ("PhyLoss", 3, 23),
            ("PhyMove", 4, 27),
            ("MacBackoff", 5, 19),
            ("MacRetryDrop", 6, 21),
            ("RtrRecv", 7, 29),
            ("RtrForward", 8, 42),
            ("RtrDrop", 9, 25),
            ("RtrRouteChange", 10, 21),
            ("IfqEnqueue", 11, 31),
            ("IfqDrop", 13, 24),
            ("TcpSend", 14, 36),
            ("TcpRecvData", 15, 43),
            ("TcpAckTx", 16, 33),
            ("TcpRecvAck", 17, 33),
            ("TcpCwnd", 18, 51),
            ("FaultDrop", 19, 19),
            ("FaultLink", 20, 14),
            ("FaultNode", 21, 12),
        ];
        let entries = every_variant(3, true);
        for (entry, &(name, tag, len)) in entries.iter().zip(&pinned) {
            let debug = format!("{:?}", entry.record);
            assert!(debug.starts_with(&format!("{name} {{")), "{name} out of order: {debug}");
            assert!(!debug.contains("None"), "{name} left an option empty: {debug}");
            let store = stored(std::slice::from_ref(entry));
            let bytes = store.bytes.as_bytes();
            assert_eq!((bytes[8], bytes.len()), (tag, len), "{name}'s layout moved");
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
        let clean = store.bytes.as_bytes();
        assert!(decode_all(clean, &store.labels, 1).is_ok());

        // 12 is retired; 22 and up were never issued.
        for tag in std::iter::once(12).chain(22..=u8::MAX) {
            let mut bytes = clean.to_vec();
            bytes[8] = tag;
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

    /// The snapshot sweep's rule for untrusted bytes, applied to a store
    /// holding one entry per variant: every byte moved by +1, +0x80 and
    /// +0xff is refused or decoded (and renders), never a panic.
    #[test]
    fn every_single_byte_mutant_is_refused_or_decoded() {
        let store = stored(&every_variant(3, true));
        let clean = store.bytes.as_bytes();
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
