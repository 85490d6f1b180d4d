//! The snapshot layouts of the on-the-wire vocabulary, each stated once
//! through [`snap_record!`] / [`snap_enum!`]: a corrupted tag or bound is a
//! [`SnapError::Invalid`], never a mis-typed packet.

use sim_core::{snap_enum, snap_record, SnapError, SnapshotReader, SnapshotWriter, Snapshotable};

use crate::{
    AodvMessage, Drai, FrameBody, FrameKind, Hello, MacFrame, NodeId, Packet, Payload, RouteError,
    RouteReply, RouteRequest, SackBlock, SharedPacket, TcpSegment, TcpSegmentKind,
};

/// Hand-written: the broadcast address travels as the `u16::MAX` sentinel
/// that `NodeId::new` refuses.
impl Snapshotable for NodeId {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u16(self.raw());
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let raw = r.take_u16()?;
        if raw == u16::MAX {
            Ok(NodeId::BROADCAST)
        } else {
            Ok(NodeId::new(raw))
        }
    }
}

/// Hand-written: the byte is the DRAI level's wire code (1..=5), not a
/// variant tag of the format's own.
impl Snapshotable for Drai {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.code());
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Drai::from_code(r.take_u8()?).ok_or(SnapError::Invalid("drai code"))
    }
}

snap_record! {
    SackBlock { start, end }
    check |b| b.start < b.end => "sack block bounds";
}

snap_enum! {
    TcpSegmentKind, "tcp segment kind tag" {
        0 => Data { seq, payload_bytes, avbw, marked, retransmit },
        1 => Ack { ack, mrai, marked, ooo, sack },
    }
}

snap_record! { TcpSegment { flow, kind } }

snap_record! { RouteRequest { origin, origin_seq, broadcast_id, dst, dst_seq, hop_count } }

snap_record! { RouteReply { origin, dst, dst_seq, hop_count } }

snap_record! { RouteError { unreachable } }

snap_record! { Hello { seq } }

snap_enum! {
    AodvMessage, "aodv message tag" { 0 => Rreq(m), 1 => Rrep(m), 2 => Rerr(m), 3 => Hello(m) }
}

snap_enum! { Payload, "payload tag" { 0 => Tcp(segment), 1 => Aodv(message) } }

snap_record! { Packet { uid, src, dst, ttl, payload } }

/// Hand-written: sharing is a transient aliasing optimisation, not state. A
/// restored frame copy owns its packet; equality and behaviour are by value.
impl Snapshotable for SharedPacket {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.get().encode(w);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(SharedPacket::new(Packet::decode(r)?))
    }
}

snap_enum! { FrameKind, "frame kind tag" { 0 => Rts, 1 => Cts, 2 => Data, 3 => Ack } }

snap_enum! {
    FrameBody, "frame body tag" { 0 => Control(kind), 1 => Data(packet) }
    check |b| !matches!(b, FrameBody::Control(FrameKind::Data)) => "control frame with data kind";
}

snap_record! { MacFrame { src, dst, body, nav_until_nanos } }
