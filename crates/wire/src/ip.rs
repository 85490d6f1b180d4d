//! Network-layer packets.

use crate::{AodvMessage, NodeId, TcpSegment};

/// What a network-layer packet carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A TCP segment (data or ACK).
    Tcp(TcpSegment),
    /// An AODV routing control message.
    Aodv(AodvMessage),
}

/// A network-layer packet travelling hop by hop through the ad hoc network.
///
/// `src`/`dst` are end-to-end addresses; the next MAC hop is chosen by the
/// routing layer at each node. `uid` uniquely identifies the packet across
/// its whole life (including MAC retransmissions) for tracing.
///
/// # Example
///
/// ```
/// use wire::{FlowId, NodeId, Packet, Payload, TcpSegment};
/// let seg = TcpSegment::data(FlowId::new(0), 0, 1460, None);
/// let pkt = Packet::new(1, NodeId::new(0), NodeId::new(4), Payload::Tcp(seg));
/// assert_eq!(pkt.size_bytes(), 1500);
/// assert!(pkt.is_tcp_data());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Unique packet identifier (assigned by the originating node's stack).
    pub uid: u64,
    /// Originating end host.
    pub src: NodeId,
    /// Final destination ([`NodeId::BROADCAST`] for flooded packets).
    pub dst: NodeId,
    /// Remaining hop budget; decremented per forward, dropped at zero.
    pub ttl: u8,
    /// The carried payload.
    pub payload: Payload,
}

/// Default IP TTL for unicast packets.
pub const DEFAULT_TTL: u8 = 64;

impl Packet {
    /// Creates a packet with the default TTL.
    pub fn new(uid: u64, src: NodeId, dst: NodeId, payload: Payload) -> Self {
        Packet { uid, src, dst, ttl: DEFAULT_TTL, payload }
    }

    /// Creates a packet with an explicit TTL (used by AODV's RREQ floods and
    /// one-hop RERR broadcasts).
    pub fn with_ttl(uid: u64, src: NodeId, dst: NodeId, ttl: u8, payload: Payload) -> Self {
        Packet { uid, src, dst, ttl, payload }
    }

    /// Size on the wire in bytes (drives MAC/PHY transmission timing).
    pub fn size_bytes(&self) -> u32 {
        match &self.payload {
            Payload::Tcp(seg) => seg.size_bytes(),
            Payload::Aodv(msg) => msg.size_bytes(),
        }
    }

    /// Whether the payload is a TCP data segment.
    pub fn is_tcp_data(&self) -> bool {
        matches!(&self.payload, Payload::Tcp(seg) if seg.is_data())
    }

    /// Whether the payload is a TCP acknowledgement.
    pub fn is_tcp_ack(&self) -> bool {
        matches!(&self.payload, Payload::Tcp(seg) if seg.is_ack())
    }

    /// Whether the payload is routing control traffic.
    pub fn is_control(&self) -> bool {
        matches!(&self.payload, Payload::Aodv(_))
    }

    /// The TCP segment inside, if any.
    pub fn tcp(&self) -> Option<&TcpSegment> {
        match &self.payload {
            Payload::Tcp(seg) => Some(seg),
            Payload::Aodv(_) => None,
        }
    }

    /// Mutable access to the TCP segment inside, if any (used by the Muzha
    /// router agent to fold DRAI and set congestion marks in-flight).
    pub fn tcp_mut(&mut self) -> Option<&mut TcpSegment> {
        match &mut self.payload {
            Payload::Tcp(seg) => Some(seg),
            Payload::Aodv(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AodvMessage, FlowId, RouteError};

    #[test]
    fn predicates_and_sizes() {
        let data = Packet::new(
            1,
            NodeId::new(0),
            NodeId::new(2),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)),
        );
        assert!(data.is_tcp_data() && !data.is_tcp_ack() && !data.is_control());
        assert_eq!(data.size_bytes(), 1500);
        assert_eq!(data.ttl, DEFAULT_TTL);

        let ack = Packet::new(
            2,
            NodeId::new(2),
            NodeId::new(0),
            Payload::Tcp(TcpSegment::ack(FlowId::new(0), 1)),
        );
        assert!(ack.is_tcp_ack() && !ack.is_tcp_data());
        assert_eq!(ack.size_bytes(), 40);

        let ctl = Packet::with_ttl(
            3,
            NodeId::new(1),
            NodeId::BROADCAST,
            5,
            Payload::Aodv(AodvMessage::Rerr(RouteError { unreachable: vec![] })),
        );
        assert!(ctl.is_control());
        assert_eq!(ctl.ttl, 5);
    }

    #[test]
    fn tcp_accessors() {
        let mut pkt = Packet::new(
            1,
            NodeId::new(0),
            NodeId::new(2),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 7, 1460, None)),
        );
        assert_eq!(pkt.tcp().unwrap().seq(), Some(7));
        pkt.tcp_mut().unwrap().set_congestion_mark();
        let ctl = Packet::new(
            2,
            NodeId::new(1),
            NodeId::BROADCAST,
            Payload::Aodv(AodvMessage::Rerr(RouteError { unreachable: vec![] })),
        );
        assert!(ctl.tcp().is_none());
    }
}
