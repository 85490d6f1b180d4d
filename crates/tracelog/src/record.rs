//! The typed trace-record catalogue: one variant per observable event class,
//! covering every layer of the stack.
//!
//! Records are small `Copy` values built from data the simulator already has
//! in hand at its choke points — recording allocates nothing per record
//! beyond the log's own growth.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use sim_core::{SimDuration, SimTime};
use wire::{Drai, FlowId, FrameKind, NodeId, Packet, Payload};

/// The protocol layer a record belongs to, used by [`crate::TraceFilter`]
/// and tagged in every rendering by [`Layer::ns2_tag`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Radio channel: frames on the air, collisions, channel losses.
    Phy,
    /// 802.11 DCF: backoff draws and retry-limit drops.
    Mac,
    /// AODV routing: per-hop receive/forward, route-table changes, drops.
    Rtr,
    /// Interface queue: enqueues, drops, AVBW-S stamps.
    Ifq,
    /// Transport agents: TCP send/receive and congestion-state snapshots.
    Agt,
    /// Scripted faults (a run file's `at` lines): link and node transitions
    /// and the packets a fault destroyed. No protocol layer did these.
    Fault,
}

impl Layer {
    /// All layers, in filter-mask bit order.
    pub const ALL: [Layer; 6] =
        [Layer::Phy, Layer::Mac, Layer::Rtr, Layer::Ifq, Layer::Agt, Layer::Fault];

    /// Bit used in [`crate::TraceFilter`]'s layer mask.
    pub(crate) fn bit(self) -> u8 {
        match self {
            Layer::Phy => 1,
            Layer::Mac => 1 << 1,
            Layer::Rtr => 1 << 2,
            Layer::Ifq => 1 << 3,
            Layer::Agt => 1 << 4,
            Layer::Fault => 1 << 5,
        }
    }

    /// The ns-2 wireless trace layer tag. PHY-level frame events use the
    /// `MAC` tag because that is where ns-2's old wireless format logs
    /// frames on the air — keeping lines eyeball-comparable. `FLT` is ours:
    /// ns-2 has no scripted faults to log.
    pub fn ns2_tag(self) -> &'static str {
        match self {
            Layer::Phy | Layer::Mac => "MAC",
            Layer::Rtr => "RTR",
            Layer::Ifq => "IFQ",
            Layer::Agt => "AGT",
            Layer::Fault => "FLT",
        }
    }

    /// Parses a CLI spelling (`phy`, `mac`, `rtr`/`aodv`, `ifq`, `agt`/`tcp`,
    /// `fault`).
    pub fn from_name(name: &str) -> Option<Layer> {
        match name {
            "phy" => Some(Layer::Phy),
            "mac" => Some(Layer::Mac),
            "rtr" | "aodv" | "rtg" => Some(Layer::Rtr),
            "ifq" | "queue" => Some(Layer::Ifq),
            "agt" | "tcp" => Some(Layer::Agt),
            "fault" => Some(Layer::Fault),
            _ => None,
        }
    }
}

/// Which way a record points, rendered as the ns-2 operation character
/// (`s`/`r`/`d`/`f`/`v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Originating transmission (`s`).
    Send,
    /// Reception (`r`).
    Recv,
    /// Drop (`d`).
    Drop,
    /// Transit forward at an intermediate node (`f`).
    Forward,
    /// A state observation with no packet motion (`v`).
    Meta,
}

impl Direction {
    /// The ns-2 trace-line operation character.
    pub fn ns2_op(self) -> char {
        match self {
            Direction::Send => 's',
            Direction::Recv => 'r',
            Direction::Drop => 'd',
            Direction::Forward => 'f',
            Direction::Meta => 'v',
        }
    }
}

/// Coarse packet classification used in routing/queue records (the ns-2
/// "packet type" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A TCP data segment.
    TcpData,
    /// A TCP acknowledgement.
    TcpAck,
    /// AODV route request.
    Rreq,
    /// AODV route reply.
    Rrep,
    /// AODV route error.
    Rerr,
}

impl PacketKind {
    /// Classifies a network-layer packet.
    pub fn of(packet: &Packet) -> PacketKind {
        match &packet.payload {
            Payload::Tcp(seg) if seg.is_data() => PacketKind::TcpData,
            Payload::Tcp(_) => PacketKind::TcpAck,
            Payload::Aodv(wire::AodvMessage::Rreq(_)) => PacketKind::Rreq,
            Payload::Aodv(wire::AodvMessage::Rrep(_)) => PacketKind::Rrep,
            Payload::Aodv(wire::AodvMessage::Rerr(_)) => PacketKind::Rerr,
        }
    }

    /// The ns-2 packet-type column string.
    pub fn ptype(self) -> &'static str {
        match self {
            PacketKind::TcpData => "tcp",
            PacketKind::TcpAck => "ack",
            PacketKind::Rreq => "rreq",
            PacketKind::Rrep => "rrep",
            PacketKind::Rerr => "rerr",
        }
    }
}

/// One observable event, as recorded at the simulator's choke points.
///
/// Every variant is a pure observation: constructing and recording one must
/// never change simulation behaviour (no RNG draws, no queue mutation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceRecord {
    /// A frame put on the air by `node`.
    PhyTx {
        /// Transmitting node.
        node: NodeId,
        /// Link-layer destination (may be broadcast).
        dst: NodeId,
        /// Frame kind (RTS/CTS/DATA/ACK).
        frame: FrameKind,
        /// Frame size on the wire.
        bytes: u32,
        /// Uid of the carried packet (data frames only).
        uid: Option<u64>,
        /// Time the frame occupies the medium.
        airtime: SimDuration,
        /// The sender's contention window as the frame leaves.
        cw: u32,
        /// How far beyond now the sender's own NAV reaches.
        nav_ahead: SimDuration,
    },
    /// A frame decoded successfully at `node`.
    PhyRx {
        /// Receiving node.
        node: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// Frame kind.
        frame: FrameKind,
        /// Frame size on the wire.
        bytes: u32,
        /// Uid of the carried packet (data frames only).
        uid: Option<u64>,
    },
    /// A reception ruined by an overlapping transmission.
    PhyCollision {
        /// Node whose reception collided.
        node: NodeId,
        /// Transmitter of the frame that was being received.
        from: NodeId,
        /// Frame kind.
        frame: FrameKind,
        /// Uid of the carried packet, if any.
        uid: Option<u64>,
    },
    /// A frame corrupted by the channel error model for this receiver.
    PhyLoss {
        /// Receiver that lost the frame.
        node: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// Frame kind.
        frame: FrameKind,
        /// Uid of the carried packet, if any.
        uid: Option<u64>,
    },
    /// A node's position changed (mobility step or scripted teleport).
    PhyMove {
        /// The node that moved.
        node: NodeId,
        /// New x coordinate in metres.
        x: f64,
        /// New y coordinate in metres.
        y: f64,
    },
    /// The DCF drew a backoff and armed its countdown.
    MacBackoff {
        /// Contending node.
        node: NodeId,
        /// Slots drawn (possibly carried over from an interrupted countdown).
        slots: u32,
        /// Contention window the draw came from.
        cw: u32,
    },
    /// The MAC gave up on a packet after exhausting its retry limit.
    MacRetryDrop {
        /// Node that dropped the packet.
        node: NodeId,
        /// Next hop the packet was addressed to.
        next_hop: NodeId,
        /// Uid of the dropped packet.
        uid: u64,
    },
    /// The routing layer received a packet from the MAC.
    RtrRecv {
        /// Receiving node.
        node: NodeId,
        /// Packet classification.
        kind: PacketKind,
        /// Packet uid.
        uid: u64,
        /// Flow, for TCP packets.
        flow: Option<FlowId>,
        /// Packet size.
        bytes: u32,
    },
    /// The routing layer handed a packet down toward `next_hop`.
    RtrForward {
        /// Forwarding node.
        node: NodeId,
        /// Chosen next hop (may be broadcast for floods).
        next_hop: NodeId,
        /// Packet classification.
        kind: PacketKind,
        /// Packet uid.
        uid: u64,
        /// Flow, for TCP packets.
        flow: Option<FlowId>,
        /// Packet size.
        bytes: u32,
        /// Remaining TTL.
        ttl: u8,
        /// Whether `node` originated the packet (ns-2 `s` vs `f`).
        origin: bool,
        /// For unicast TCP data: expiry of the route entry backing the
        /// forward, as the table held it at this instant — `None` if no
        /// valid entry did. Always `None` for any other packet.
        route_valid_until: Option<SimTime>,
    },
    /// The routing layer dropped a packet (no route, TTL expiry, …).
    RtrDrop {
        /// Dropping node.
        node: NodeId,
        /// Packet classification.
        kind: PacketKind,
        /// Packet uid.
        uid: u64,
        /// Flow, for TCP packets.
        flow: Option<FlowId>,
    },
    /// A routing-table entry was installed, refreshed, or invalidated.
    RtrRouteChange {
        /// Node whose table changed.
        node: NodeId,
        /// Route destination.
        dst: NodeId,
        /// Next hop (`None` once invalidated).
        next_hop: Option<NodeId>,
        /// Advertised hop count.
        hops: u32,
        /// Whether the entry is valid after the change.
        valid: bool,
    },
    /// A packet was accepted into a node's interface queue. For Muzha
    /// routers this is the point where the AVBW-S option has just been
    /// folded, so `avbw` is the path-minimum DRAI leaving this hop.
    IfqEnqueue {
        /// Queueing node.
        node: NodeId,
        /// Packet uid.
        uid: u64,
        /// Flow, for TCP packets.
        flow: Option<FlowId>,
        /// Queue depth after the enqueue.
        depth: u32,
        /// AVBW-S option value on the packet after this hop's stamp.
        avbw: Option<Drai>,
        /// Whether the packet carries a congestion mark.
        marked: bool,
    },
    /// The interface queue dropped a packet.
    IfqDrop {
        /// Dropping node.
        node: NodeId,
        /// Packet uid.
        uid: u64,
        /// Flow, for TCP packets.
        flow: Option<FlowId>,
    },
    /// A sender put a data segment on the wire.
    TcpSend {
        /// Sending node.
        node: NodeId,
        /// Flow.
        flow: FlowId,
        /// Segment sequence number.
        seq: u64,
        /// Packet uid.
        uid: u64,
        /// Segment size on the wire.
        bytes: u32,
        /// Whether this is a retransmission.
        retransmit: bool,
    },
    /// A receiver's agent accepted a data segment.
    TcpRecvData {
        /// Receiving node.
        node: NodeId,
        /// Flow.
        flow: FlowId,
        /// Segment sequence number.
        seq: u64,
        /// Packet uid.
        uid: u64,
        /// AVBW-S option as it arrived (path-minimum DRAI).
        avbw: Option<Drai>,
        /// Whether the segment was congestion-marked en route.
        marked: bool,
        /// The receiver's next expected in-order sequence number after
        /// absorbing the segment; `None` where `node` holds no receiver for
        /// `flow` and the segment went nowhere.
        rcv_nxt_after: Option<u64>,
    },
    /// A receiver emitted an acknowledgement.
    TcpAckTx {
        /// Acknowledging node.
        node: NodeId,
        /// Flow.
        flow: FlowId,
        /// Cumulative ACK number.
        ack: u64,
        /// Packet uid.
        uid: u64,
        /// Echoed MRAI, for Muzha flows.
        mrai: Option<Drai>,
    },
    /// A sender's agent accepted an acknowledgement.
    TcpRecvAck {
        /// Sending node (where the ACK arrived).
        node: NodeId,
        /// Flow.
        flow: FlowId,
        /// Cumulative ACK number.
        ack: u64,
        /// Packet uid.
        uid: u64,
        /// Echoed MRAI, for Muzha flows.
        mrai: Option<Drai>,
    },
    /// A congestion-state snapshot, recorded whenever the sender's window
    /// changes (mirrors the transport's internal cwnd trace exactly).
    TcpCwnd {
        /// Sending node.
        node: NodeId,
        /// Flow.
        flow: FlowId,
        /// Congestion window, in segments.
        cwnd: f64,
        /// Slow-start threshold, for variants that expose one.
        ssthresh: Option<f64>,
        /// Smoothed RTT estimate, once measured.
        srtt: Option<SimDuration>,
        /// Current retransmission timeout.
        rto: Option<SimDuration>,
        /// Congestion-control phase label (`slow-start`,
        /// `congestion-avoidance`, `fast-recovery`, or variant-specific).
        phase: &'static str,
    },
    /// A scripted fault destroyed a packet in `node`'s custody: a blackholed
    /// enqueue, a kill flushing queue / MAC / discovery buffers, or a flood
    /// rebroadcast still waiting out its jitter at a killed node.
    FaultDrop {
        /// Node whose custody was wiped.
        node: NodeId,
        /// Packet uid.
        uid: u64,
    },
    /// The scenario forced the `a`—`b` link down or released it.
    FaultLink {
        /// One endpoint (the record is attributed to it).
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Whether the link is usable after the transition.
        up: bool,
    },
    /// The scenario took a node down (kill, pause) or brought it back
    /// (revive, resume).
    FaultNode {
        /// The affected node.
        node: NodeId,
        /// Whether the node runs after the transition.
        up: bool,
    },
}

impl TraceRecord {
    /// The layer this record belongs to.
    pub fn layer(&self) -> Layer {
        match self {
            TraceRecord::PhyTx { .. }
            | TraceRecord::PhyRx { .. }
            | TraceRecord::PhyCollision { .. }
            | TraceRecord::PhyLoss { .. }
            | TraceRecord::PhyMove { .. } => Layer::Phy,
            TraceRecord::MacBackoff { .. } | TraceRecord::MacRetryDrop { .. } => Layer::Mac,
            TraceRecord::RtrRecv { .. }
            | TraceRecord::RtrForward { .. }
            | TraceRecord::RtrDrop { .. }
            | TraceRecord::RtrRouteChange { .. } => Layer::Rtr,
            TraceRecord::IfqEnqueue { .. } | TraceRecord::IfqDrop { .. } => Layer::Ifq,
            TraceRecord::TcpSend { .. }
            | TraceRecord::TcpRecvData { .. }
            | TraceRecord::TcpAckTx { .. }
            | TraceRecord::TcpRecvAck { .. }
            | TraceRecord::TcpCwnd { .. } => Layer::Agt,
            TraceRecord::FaultDrop { .. }
            | TraceRecord::FaultLink { .. }
            | TraceRecord::FaultNode { .. } => Layer::Fault,
        }
    }

    /// The node the record is attributed to (where it was observed).
    pub fn node(&self) -> NodeId {
        match *self {
            TraceRecord::PhyTx { node, .. }
            | TraceRecord::PhyRx { node, .. }
            | TraceRecord::PhyCollision { node, .. }
            | TraceRecord::PhyLoss { node, .. }
            | TraceRecord::PhyMove { node, .. }
            | TraceRecord::MacBackoff { node, .. }
            | TraceRecord::MacRetryDrop { node, .. }
            | TraceRecord::RtrRecv { node, .. }
            | TraceRecord::RtrForward { node, .. }
            | TraceRecord::RtrDrop { node, .. }
            | TraceRecord::RtrRouteChange { node, .. }
            | TraceRecord::IfqEnqueue { node, .. }
            | TraceRecord::IfqDrop { node, .. }
            | TraceRecord::TcpSend { node, .. }
            | TraceRecord::TcpRecvData { node, .. }
            | TraceRecord::TcpAckTx { node, .. }
            | TraceRecord::TcpRecvAck { node, .. }
            | TraceRecord::TcpCwnd { node, .. }
            | TraceRecord::FaultDrop { node, .. }
            | TraceRecord::FaultLink { a: node, .. }
            | TraceRecord::FaultNode { node, .. } => node,
        }
    }

    /// The flow the record concerns, when attributable to one.
    pub fn flow(&self) -> Option<FlowId> {
        match *self {
            TraceRecord::RtrRecv { flow, .. }
            | TraceRecord::RtrForward { flow, .. }
            | TraceRecord::RtrDrop { flow, .. }
            | TraceRecord::IfqEnqueue { flow, .. }
            | TraceRecord::IfqDrop { flow, .. } => flow,
            TraceRecord::TcpSend { flow, .. }
            | TraceRecord::TcpRecvData { flow, .. }
            | TraceRecord::TcpAckTx { flow, .. }
            | TraceRecord::TcpRecvAck { flow, .. }
            | TraceRecord::TcpCwnd { flow, .. } => Some(flow),
            TraceRecord::PhyTx { .. }
            | TraceRecord::PhyRx { .. }
            | TraceRecord::PhyCollision { .. }
            | TraceRecord::PhyLoss { .. }
            | TraceRecord::PhyMove { .. }
            | TraceRecord::MacBackoff { .. }
            | TraceRecord::MacRetryDrop { .. }
            | TraceRecord::RtrRouteChange { .. }
            | TraceRecord::FaultDrop { .. }
            | TraceRecord::FaultLink { .. }
            | TraceRecord::FaultNode { .. } => None,
        }
    }

    /// The uid of the packet involved, when one is.
    pub fn uid(&self) -> Option<u64> {
        match *self {
            TraceRecord::PhyTx { uid, .. }
            | TraceRecord::PhyRx { uid, .. }
            | TraceRecord::PhyCollision { uid, .. }
            | TraceRecord::PhyLoss { uid, .. } => uid,
            TraceRecord::MacRetryDrop { uid, .. }
            | TraceRecord::RtrRecv { uid, .. }
            | TraceRecord::RtrForward { uid, .. }
            | TraceRecord::RtrDrop { uid, .. }
            | TraceRecord::IfqEnqueue { uid, .. }
            | TraceRecord::IfqDrop { uid, .. }
            | TraceRecord::TcpSend { uid, .. }
            | TraceRecord::TcpRecvData { uid, .. }
            | TraceRecord::TcpAckTx { uid, .. }
            | TraceRecord::TcpRecvAck { uid, .. }
            | TraceRecord::FaultDrop { uid, .. } => Some(uid),
            TraceRecord::PhyMove { .. }
            | TraceRecord::MacBackoff { .. }
            | TraceRecord::RtrRouteChange { .. }
            | TraceRecord::TcpCwnd { .. }
            | TraceRecord::FaultLink { .. }
            | TraceRecord::FaultNode { .. } => None,
        }
    }

    /// Which way the record points (ns-2 `s`/`r`/`d`/`f`/`v`).
    pub fn direction(&self) -> Direction {
        match self {
            TraceRecord::PhyTx { .. }
            | TraceRecord::TcpSend { .. }
            | TraceRecord::TcpAckTx { .. } => Direction::Send,
            TraceRecord::PhyRx { .. }
            | TraceRecord::RtrRecv { .. }
            | TraceRecord::TcpRecvData { .. }
            | TraceRecord::TcpRecvAck { .. } => Direction::Recv,
            TraceRecord::PhyCollision { .. }
            | TraceRecord::PhyLoss { .. }
            | TraceRecord::MacRetryDrop { .. }
            | TraceRecord::RtrDrop { .. }
            | TraceRecord::IfqDrop { .. }
            | TraceRecord::FaultDrop { .. } => Direction::Drop,
            TraceRecord::RtrForward { origin, .. } => {
                if *origin {
                    Direction::Send
                } else {
                    Direction::Forward
                }
            }
            TraceRecord::PhyMove { .. }
            | TraceRecord::MacBackoff { .. }
            | TraceRecord::RtrRouteChange { .. }
            | TraceRecord::IfqEnqueue { .. }
            | TraceRecord::TcpCwnd { .. }
            | TraceRecord::FaultLink { .. }
            | TraceRecord::FaultNode { .. } => Direction::Meta,
        }
    }
}

/// A timestamped record, as stored in [`crate::TraceLog`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEntry {
    /// Virtual time the event was observed.
    pub at: SimTime,
    /// The observation.
    pub record: TraceRecord,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::TcpSegment;

    #[test]
    fn layer_names_parse() {
        assert_eq!(Layer::from_name("phy"), Some(Layer::Phy));
        assert_eq!(Layer::from_name("aodv"), Some(Layer::Rtr));
        assert_eq!(Layer::from_name("tcp"), Some(Layer::Agt));
        assert_eq!(Layer::from_name("fault"), Some(Layer::Fault));
        assert_eq!(Layer::from_name("bogus"), None);
    }

    #[test]
    fn packet_kind_classification() {
        let data = Packet::new(
            1,
            NodeId::new(0),
            NodeId::new(2),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)),
        );
        assert_eq!(PacketKind::of(&data), PacketKind::TcpData);
        assert_eq!(PacketKind::of(&data).ptype(), "tcp");
        let ack = Packet::new(
            2,
            NodeId::new(2),
            NodeId::new(0),
            Payload::Tcp(TcpSegment::ack(FlowId::new(0), 1)),
        );
        assert_eq!(PacketKind::of(&ack), PacketKind::TcpAck);
        let rerr = Packet::new(
            3,
            NodeId::new(1),
            NodeId::BROADCAST,
            Payload::Aodv(wire::AodvMessage::Rerr(wire::RouteError { unreachable: vec![] })),
        );
        assert_eq!(PacketKind::of(&rerr).ptype(), "rerr");
    }

    #[test]
    fn record_accessors() {
        let rec = TraceRecord::TcpSend {
            node: NodeId::new(0),
            flow: FlowId::new(3),
            seq: 7,
            uid: 42,
            bytes: 1500,
            retransmit: false,
        };
        assert_eq!(rec.layer(), Layer::Agt);
        assert_eq!(rec.node(), NodeId::new(0));
        assert_eq!(rec.flow(), Some(FlowId::new(3)));
        assert_eq!(rec.uid(), Some(42));
        assert_eq!(rec.direction(), Direction::Send);

        let backoff = TraceRecord::MacBackoff { node: NodeId::new(2), slots: 5, cw: 31 };
        assert_eq!(backoff.layer(), Layer::Mac);
        assert_eq!(backoff.flow(), None);
        assert_eq!(backoff.uid(), None);
        assert_eq!(backoff.direction(), Direction::Meta);
    }

    #[test]
    fn forward_direction_distinguishes_origin() {
        let mk = |origin| TraceRecord::RtrForward {
            node: NodeId::new(1),
            next_hop: NodeId::new(2),
            kind: PacketKind::TcpData,
            uid: 5,
            flow: Some(FlowId::new(0)),
            bytes: 1500,
            ttl: 62,
            origin,
            route_valid_until: None,
        };
        assert_eq!(mk(true).direction(), Direction::Send);
        assert_eq!(mk(false).direction(), Direction::Forward);
    }

    #[test]
    fn fault_records_have_their_own_layer() {
        let link = TraceRecord::FaultLink { a: NodeId::new(2), b: NodeId::new(3), up: false };
        assert_eq!(link.layer(), Layer::Fault);
        assert_eq!(link.node(), NodeId::new(2));
        assert_eq!(link.direction(), Direction::Meta);
        assert_eq!(link.layer().ns2_tag(), "FLT");
        let drop = TraceRecord::FaultDrop { node: NodeId::new(1), uid: 9 };
        assert_eq!((drop.uid(), drop.flow(), drop.direction()), (Some(9), None, Direction::Drop));
        let node = TraceRecord::FaultNode { node: NodeId::new(1), up: true };
        assert_eq!((node.layer(), node.uid()), (Layer::Fault, None));
    }

    #[test]
    fn record_sizes_are_pinned() {
        use std::mem::size_of;
        assert!(
            size_of::<TraceRecord>() <= 80,
            "TraceRecord grew to {} B: every choke point builds one and moves it into the log \
             and the checker — fit new fields under TcpCwnd, the widest variant",
            size_of::<TraceRecord>()
        );
        assert!(
            size_of::<TraceEntry>() <= 88,
            "TraceEntry grew to {} B: the flight-recorder ring and the checker's 24-entry trail \
             store it typed (the unbounded log stores codec bytes; their lengths are pinned in \
             codec.rs)",
            size_of::<TraceEntry>()
        );
    }
}
