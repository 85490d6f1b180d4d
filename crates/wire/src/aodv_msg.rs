//! AODV control message formats (RFC 3561 subset used by ns-2 and the paper).

use crate::NodeId;

/// Route request, flooded toward an unknown destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouteRequest {
    /// The node that wants a route.
    pub origin: NodeId,
    /// The originator's current sequence number.
    pub origin_seq: u32,
    /// Flood identifier; `(origin, broadcast_id)` dedups rebroadcasts.
    pub broadcast_id: u32,
    /// The node a route is wanted to.
    pub dst: NodeId,
    /// Last known destination sequence number (0 = unknown).
    pub dst_seq: u32,
    /// Hops traversed so far.
    pub hop_count: u8,
}

/// Route reply, unicast back along the reverse path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouteReply {
    /// The node that requested the route (reply travels toward it).
    pub origin: NodeId,
    /// The destination the route leads to.
    pub dst: NodeId,
    /// The destination's sequence number.
    pub dst_seq: u32,
    /// Hops from the replying node to `dst`.
    pub hop_count: u8,
}

/// Route error reporting unreachable destinations after a link break.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RouteError {
    /// Destinations now unreachable via the sender, with their incremented
    /// sequence numbers.
    pub unreachable: Vec<(NodeId, u32)>,
}

/// An AODV control message.
///
/// # Example
///
/// ```
/// use wire::{AodvMessage, NodeId, RouteRequest};
/// let msg = AodvMessage::Rreq(RouteRequest {
///     origin: NodeId::new(0),
///     origin_seq: 1,
///     broadcast_id: 1,
///     dst: NodeId::new(4),
///     dst_seq: 0,
///     hop_count: 0,
/// });
/// assert_eq!(msg.size_bytes(), 48);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AodvMessage {
    /// Route request (flooded).
    Rreq(RouteRequest),
    /// Route reply (unicast on the reverse path).
    Rrep(RouteReply),
    /// Route error (a TTL-1 broadcast to every neighbour).
    Rerr(RouteError),
}

impl AodvMessage {
    /// On-the-wire size in bytes, including the IP header.
    ///
    /// Sizes follow RFC 3561 message formats (RREQ 24 B, RREP 20 B, RERR
    /// 4 + 8 B per destination) plus a 20-byte IP header, mirroring ns-2.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a RERR lists at most one entry per u16 node id"
    )]
    pub fn size_bytes(&self) -> u32 {
        const IP_HEADER: u32 = 20;
        match self {
            AodvMessage::Rreq(_) => IP_HEADER + 24 + 4,
            AodvMessage::Rrep(_) => IP_HEADER + 20,
            AodvMessage::Rerr(e) => IP_HEADER + 4 + 8 * e.unreachable.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let rreq = AodvMessage::Rreq(RouteRequest {
            origin: NodeId::new(0),
            origin_seq: 1,
            broadcast_id: 2,
            dst: NodeId::new(3),
            dst_seq: 0,
            hop_count: 0,
        });
        assert_eq!(rreq.size_bytes(), 48);
        let rrep = AodvMessage::Rrep(RouteReply {
            origin: NodeId::new(0),
            dst: NodeId::new(3),
            dst_seq: 5,
            hop_count: 2,
        });
        assert_eq!(rrep.size_bytes(), 40);
        let rerr = AodvMessage::Rerr(RouteError {
            unreachable: vec![(NodeId::new(3), 6), (NodeId::new(4), 2)],
        });
        assert_eq!(rerr.size_bytes(), 40);
    }
}
