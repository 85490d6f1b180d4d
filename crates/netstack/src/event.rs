//! The event taxonomy: what the scheduler carries, and the one place that
//! says which tag, layer, tie class and owner each kind of event has.
//!
//! [`EventKind`] is the fieldless mirror of [`Event`]; its discriminants are
//! the tags the trace digest folds and the snapshot format stores. Everything
//! that used to restate the taxonomy is a total match on one of the two
//! enums, so a new variant is a compile error until it is wired, and two
//! variants cannot share a tag (rustc E0081). Wildcard arms are refused in
//! this module, which is what keeps those matches total.
//!
//! A signal edge that emits nothing is not in the taxonomy. The *start*
//! edge touches only the receiving node, so `transmit` parks it in the
//! receiver's `PhyState` under the `(time, seq)` key the event would have
//! had and `Simulator::settle` applies it before the node's next event; tag
//! 1, which it used to carry, is retired and never reused. The *end* edge
//! at a listener out of decoding range arms EIFS and, if the MAC is
//! deferring and the medium goes idle there, restarts its countdown. Where
//! neither can happen — the MAC holds no packet, or the listener's PHY
//! already knows a signal or its own transmission lasting past the edge, so
//! the medium stays busy (`PhyState::covers`) — the edge is parked the same
//! way, under the key reserved for it. It becomes an event — [`Event::CsEnd`],
//! pushed under that key — when the MAC takes a packet
//! (`Simulator::try_feed_mac`) or the radio is switched off and may forget
//! the cover (`Simulator::radio_off`), or at once if neither rule admits it
//! when the frame is sent. [`Event::RxEnd`] is the end of a signal the
//! listener was in range to decode.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use aodv::AodvTimer;
use phy::TxId;
use sim_core::{
    RunPerf, SimTime, SnapError, SnapshotReader, SnapshotWriter, Snapshotable, TraceHash,
};
use tcp::TcpTimer;
use wire::{FlowId, MacFrame, NodeId, Packet};

/// Events driving the simulation.
#[derive(Debug)]
pub(crate) enum Event {
    /// A signal from a sender in decoding range ends at `node`; `frame` is
    /// what was on the air.
    RxEnd { node: NodeId, tx_id: TxId, frame: MacFrame },
    /// `node`'s own transmission left the air.
    TxDone { node: NodeId },
    /// MAC timer.
    MacTimer { node: NodeId, id: mac80211::TimerId },
    /// AODV discovery timer.
    AodvTimer { node: NodeId, id: AodvTimer },
    /// TCP retransmission timer for `flow` at `node`.
    TcpTimer { node: NodeId, flow: FlowId, id: TcpTimer },
    /// An FTP source starts.
    FlowStart { flow: FlowId },
    /// A jittered broadcast enqueue (AODV flood desynchronisation).
    JitteredEnqueue { node: NodeId, packet: Packet, next_hop: NodeId },
    /// Periodic position update for a moving node.
    MobilityTick { node: NodeId },
    /// Periodic DRAI sampling tick.
    Sample,
    /// A scripted fault fires (index into the loaded scenario fault list).
    Fault { index: usize },
    /// A signal `node` could sense and never decode ends there: its MAC held
    /// a packet when the signal was sent and its medium was not known to stay
    /// busy past the end, or the edge was parked and has been taken back (see
    /// the module docs).
    CsEnd { node: NodeId, tx_id: TxId },
}

/// Every queue entry, and every shift of a calendar bucket, moves one of
/// these: a variant that grows it is paid for by all the others.
const _: () = assert!(std::mem::size_of::<Event>() <= 72);
/// One per carrier-sense pair and direction, resident for the run and read
/// once per listener per frame: a field that widens it is paid for in memory
/// on every dense topology.
const _: () = assert!(std::mem::size_of::<phy::Link>() <= 16);
/// Taken out of its batch and matched on once per MAC action: a variant that
/// grows it grows every batch the driver builds on its stack by four of them.
const _: () = assert!(std::mem::size_of::<mac80211::MacOutput>() <= 72);

/// Which [`Event`] variant, without its fields. The discriminant is the
/// variant's tag in the trace digest and in the snapshot format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum EventKind {
    // 1 was `RxStart`.
    RxEnd = 2,
    TxDone = 3,
    MacTimer = 4,
    AodvTimer = 5,
    TcpTimer = 6,
    FlowStart = 7,
    JitteredEnqueue = 8,
    MobilityTick = 9,
    // 10 was the delayed-ACK timer.
    Sample = 11,
    Fault = 12,
    CsEnd = 13,
}

/// Whose liveness decides whether an event still runs under a fault script.
pub(crate) enum Owner {
    /// Work at one node.
    Node(NodeId),
    /// Work at the source node of a flow.
    FlowSource(FlowId),
    /// Nobody's: the event runs whatever the nodes' state.
    Global,
}

impl EventKind {
    /// Every kind, in tag order.
    const ALL: [EventKind; 11] = [
        EventKind::RxEnd,
        EventKind::TxDone,
        EventKind::MacTimer,
        EventKind::AodvTimer,
        EventKind::TcpTimer,
        EventKind::FlowStart,
        EventKind::JitteredEnqueue,
        EventKind::MobilityTick,
        EventKind::Sample,
        EventKind::Fault,
        EventKind::CsEnd,
    ];

    /// The work counter of the layer that owns this kind. Every kind has
    /// exactly one, so [`RunPerf::classified_total`] equals
    /// `events_processed` by construction.
    pub(crate) fn layer(self, perf: &mut RunPerf) -> &mut u64 {
        match self {
            EventKind::RxEnd | EventKind::TxDone | EventKind::CsEnd => &mut perf.phy_events,
            EventKind::MacTimer => &mut perf.mac_events,
            EventKind::AodvTimer | EventKind::JitteredEnqueue => &mut perf.routing_events,
            EventKind::TcpTimer | EventKind::FlowStart => &mut perf.transport_events,
            EventKind::MobilityTick => &mut perf.mobility_events,
            EventKind::Sample => &mut perf.sampling_events,
            EventKind::Fault => &mut perf.fault_events,
        }
    }
}

impl Snapshotable for EventKind {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self as u8);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let tag = r.take_u8()?;
        EventKind::ALL.into_iter().find(|k| *k as u8 == tag).ok_or(SnapError::Invalid("event tag"))
    }
}

impl Event {
    pub(crate) fn kind(&self) -> EventKind {
        match self {
            Event::RxEnd { .. } => EventKind::RxEnd,
            Event::TxDone { .. } => EventKind::TxDone,
            Event::MacTimer { .. } => EventKind::MacTimer,
            Event::AodvTimer { .. } => EventKind::AodvTimer,
            Event::TcpTimer { .. } => EventKind::TcpTimer,
            Event::FlowStart { .. } => EventKind::FlowStart,
            Event::JitteredEnqueue { .. } => EventKind::JitteredEnqueue,
            Event::MobilityTick { .. } => EventKind::MobilityTick,
            Event::Sample => EventKind::Sample,
            Event::Fault { .. } => EventKind::Fault,
            Event::CsEnd { .. } => EventKind::CsEnd,
        }
    }

    pub(crate) fn owner(&self) -> Owner {
        match self {
            Event::RxEnd { node, .. }
            | Event::CsEnd { node, .. }
            | Event::TxDone { node }
            | Event::MacTimer { node, .. }
            | Event::AodvTimer { node, .. }
            | Event::TcpTimer { node, .. }
            | Event::JitteredEnqueue { node, .. }
            | Event::MobilityTick { node } => Owner::Node(*node),
            Event::FlowStart { flow } => Owner::FlowSource(*flow),
            Event::Sample | Event::Fault { .. } => Owner::Global,
        }
    }

    /// Whether every node, flow and fault index this event carries exists in
    /// a simulator with `nodes` nodes, `flows` flows and `faults` scripted
    /// faults. `dispatch` indexes with them unchecked, so `restore` asks
    /// this of every event a snapshot queues before it accepts the bytes.
    /// Addresses (a next hop, which may be broadcast, and those inside a
    /// frame or packet) are looked up in maps, never indexed; the flow of a
    /// carried TCP segment is the exception.
    pub(crate) fn in_range(&self, nodes: usize, flows: usize, faults: usize) -> bool {
        let segment_ok =
            |p: Option<&Packet>| p.and_then(Packet::tcp).is_none_or(|s| s.flow.index() < flows);
        match self {
            Event::TxDone { node }
            | Event::CsEnd { node, .. }
            | Event::MacTimer { node, .. }
            | Event::AodvTimer { node, .. }
            | Event::MobilityTick { node } => node.index() < nodes,
            Event::RxEnd { node, frame, .. } => node.index() < nodes && segment_ok(frame.packet()),
            Event::TcpTimer { node, flow, .. } => node.index() < nodes && flow.index() < flows,
            Event::FlowStart { flow } => flow.index() < flows,
            Event::JitteredEnqueue { node, packet, next_hop: _ } => {
                node.index() < nodes && segment_ok(Some(packet))
            }
            Event::Sample => true,
            Event::Fault { index } => *index < faults,
        }
    }

    /// Folds this event, dispatched at `now`, into the running trace digest:
    /// the time, the kind's tag and the scheduling-relevant fields, so any
    /// reordering or content change between two same-seed runs flips the
    /// digest.
    pub(crate) fn fold(&self, hash: &mut TraceHash, now: SimTime) {
        hash.write_u64(now.as_nanos()).write_u64(self.kind() as u64);
        match self {
            Event::RxEnd { node, tx_id, frame } => {
                hash.write_u64(node.index() as u64)
                    .write_u64(tx_id.0)
                    .write_u64(frame.src.index() as u64)
                    .write_u64(frame.dst.index() as u64);
            }
            Event::CsEnd { node, tx_id } => {
                hash.write_u64(node.index() as u64).write_u64(tx_id.0);
            }
            Event::TxDone { node }
            | Event::MacTimer { node, .. }
            | Event::AodvTimer { node, .. }
            | Event::MobilityTick { node } => {
                hash.write_u64(node.index() as u64);
            }
            Event::TcpTimer { node, flow, .. } => {
                hash.write_u64(node.index() as u64).write_u64(flow.index() as u64);
            }
            Event::FlowStart { flow } => {
                hash.write_u64(flow.index() as u64);
            }
            Event::JitteredEnqueue { node, next_hop, .. } => {
                hash.write_u64(node.index() as u64).write_u64(next_hop.index() as u64);
            }
            Event::Sample => {}
            Event::Fault { index } => {
                hash.write_u64(*index as u64);
            }
        }
    }
}

impl Snapshotable for Event {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put(&self.kind());
        match self {
            Event::RxEnd { node, tx_id, frame } => {
                w.put(node);
                w.put(tx_id);
                w.put(frame);
            }
            Event::CsEnd { node, tx_id } => {
                w.put(node);
                w.put(tx_id);
            }
            Event::TxDone { node } | Event::MobilityTick { node } => w.put(node),
            Event::MacTimer { node, id } => {
                w.put(node);
                w.put(id);
            }
            Event::AodvTimer { node, id } => {
                w.put(node);
                w.put(id);
            }
            Event::TcpTimer { node, flow, id } => {
                w.put(node);
                w.put(flow);
                w.put(id);
            }
            Event::FlowStart { flow } => w.put(flow),
            Event::JitteredEnqueue { node, packet, next_hop } => {
                w.put(node);
                w.put(packet);
                w.put(next_hop);
            }
            Event::Sample => {}
            Event::Fault { index } => w.put_usize(*index),
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get::<EventKind>()? {
            EventKind::RxEnd => Event::RxEnd { node: r.get()?, tx_id: r.get()?, frame: r.get()? },
            EventKind::CsEnd => Event::CsEnd { node: r.get()?, tx_id: r.get()? },
            EventKind::TxDone => Event::TxDone { node: r.get()? },
            EventKind::MacTimer => Event::MacTimer { node: r.get()?, id: r.get()? },
            EventKind::AodvTimer => Event::AodvTimer { node: r.get()?, id: r.get()? },
            EventKind::TcpTimer => Event::TcpTimer { node: r.get()?, flow: r.get()?, id: r.get()? },
            EventKind::FlowStart => Event::FlowStart { flow: r.get()? },
            EventKind::JitteredEnqueue => {
                Event::JitteredEnqueue { node: r.get()?, packet: r.get()?, next_hop: r.get()? }
            }
            EventKind::MobilityTick => Event::MobilityTick { node: r.get()? },
            EventKind::Sample => Event::Sample,
            EventKind::Fault => Event::Fault { index: r.take_usize()? },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tags are the discriminants: 2..=13 but 10 decode to the kind
    /// that re-encodes to the same byte; the neighbours on either side and
    /// the retired tags — 1 was the start edge, 10 the delayed-ACK timer —
    /// are refused rather than misread.
    #[test]
    fn kind_tags_round_trip_and_reject_out_of_range() {
        assert_eq!(EventKind::ALL.len(), 11);
        for tag in (2..=13u8).filter(|&t| t != 10) {
            let kind = EventKind::decode(&mut SnapshotReader::new(&[tag])).expect("tag in range");
            assert_eq!(kind as u8, tag);
            let mut w = SnapshotWriter::new();
            w.put(&kind);
            assert_eq!(w.finish(), [tag]);
        }
        for tag in [0u8, 1, 10, 14] {
            assert_eq!(
                EventKind::decode(&mut SnapshotReader::new(&[tag])),
                Err(SnapError::Invalid("event tag"))
            );
        }
    }

    /// An event's first snapshot byte is its kind's tag, and the same number
    /// is what the digest folds — one taxonomy, two consumers.
    #[test]
    fn events_lead_with_their_kind_tag() {
        let event = Event::TcpTimer { node: NodeId::new(3), flow: FlowId::new(1), id: TcpTimer(9) };
        let mut w = SnapshotWriter::new();
        w.put(&event);
        let bytes = w.finish();
        assert_eq!(bytes[0], EventKind::TcpTimer as u8);
        let back = Event::decode(&mut SnapshotReader::new(&bytes)).expect("decodes");
        assert_eq!(back.kind(), EventKind::TcpTimer);
        let digest = |e: &Event| {
            let mut h = TraceHash::new();
            e.fold(&mut h, SimTime::from_nanos(5));
            h.digest()
        };
        assert_eq!(digest(&event), digest(&back));
        let mut by_hand = TraceHash::new();
        by_hand.write_u64(5).write_u64(6).write_u64(3).write_u64(1);
        assert_eq!(digest(&event), by_hand.digest());
    }
}
