//! The per-node router agent applied in the packet forwarding path.

use sim_core::SimTime;
use wire::{Packet, TcpSegmentKind};

use crate::{DraiComputer, DraiConfig};

/// Counters for the router side of Muzha.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Data packets whose `AVBW-S` option was folded at this node.
    pub packets_stamped: u64,
    /// Data packets congestion-marked at this node.
    pub packets_marked: u64,
}

sim_core::snap_record! { RouterStats { packets_stamped, packets_marked } }

/// The Muzha router agent: every node (source, relays, even the
/// destination) runs one and applies it to every TCP data packet it
/// originates or forwards.
///
/// It owns the node's [`DraiComputer`] and performs the two per-packet
/// operations of the protocol (paper §4.4, §4.7):
///
/// * fold the node's current DRAI into the packet's `AVBW-S` option
///   (`min`), so the receiver learns the path bottleneck recommendation,
/// * set the congestion mark when the local queue is congested, so the
///   sender can tell congestion losses from random wireless losses.
///
/// Non-Muzha packets (no `AVBW-S` option) pass through untouched, which is
/// what makes Muzha incrementally deployable next to other TCP variants.
///
/// # Example
///
/// ```
/// use muzha::{DraiConfig, RouterAgent};
/// use sim_core::SimTime;
/// use wire::{Drai, FlowId, NodeId, Packet, Payload, TcpSegment, TcpSegmentKind};
///
/// let mut agent = RouterAgent::new(DraiConfig::default());
/// let seg = TcpSegment::data(FlowId::new(0), 0, 1460, Some(Drai::MAX));
/// let mut pkt = Packet::new(1, NodeId::new(0), NodeId::new(4), Payload::Tcp(seg));
/// agent.process_packet(&mut pkt, SimTime::ZERO);
/// // An idle node recommends aggressive acceleration — option unchanged.
/// match &pkt.tcp().unwrap().kind {
///     TcpSegmentKind::Data { avbw, .. } => assert_eq!(*avbw, Some(Drai::MAX)),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub struct RouterAgent {
    drai: DraiComputer,
    stats: RouterStats,
}

sim_core::snap_record! { given (cfg: DraiConfig) RouterAgent { drai: DraiComputer(cfg), stats } }

impl RouterAgent {
    /// Creates an agent with the given DRAI thresholds.
    pub fn new(cfg: DraiConfig) -> Self {
        RouterAgent { drai: DraiComputer::new(cfg), stats: RouterStats::default() }
    }

    /// Access to the underlying DRAI computer (to feed observations).
    pub fn drai_mut(&mut self) -> &mut DraiComputer {
        &mut self.drai
    }

    /// The underlying DRAI computer.
    pub fn drai(&self) -> &DraiComputer {
        &self.drai
    }

    /// Counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Applies the node's recommendation and marking policy to a packet
    /// about to be queued for transmission. No-op for ACKs, routing
    /// control packets, and non-Muzha data.
    pub fn process_packet(&mut self, packet: &mut Packet, now: SimTime) {
        let level = self.drai.current();
        let mark = self.drai.should_mark(now);
        let Some(seg) = packet.tcp_mut() else { return };
        if let TcpSegmentKind::Data { avbw: Some(_), .. } = seg.kind {
            seg.fold_drai(level);
            self.stats.packets_stamped += 1;
            if mark {
                seg.set_congestion_mark();
                self.stats.packets_marked += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Drai, FlowId, NodeId, Payload, TcpSegment};

    fn muzha_packet(avbw: Option<Drai>) -> Packet {
        Packet::new(
            1,
            NodeId::new(0),
            NodeId::new(4),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, avbw)),
        )
    }

    fn agent_with_queue(len: usize) -> RouterAgent {
        let mut a = RouterAgent::new(DraiConfig::default());
        for _ in 0..64 {
            a.drai_mut().observe_queue(len, SimTime::ZERO);
        }
        a
    }

    fn avbw_of(p: &Packet) -> Option<Drai> {
        match p.tcp().unwrap().kind {
            TcpSegmentKind::Data { avbw, .. } => avbw,
            _ => None,
        }
    }

    fn marked(p: &Packet) -> bool {
        matches!(p.tcp().unwrap().kind, TcpSegmentKind::Data { marked: true, .. })
    }

    #[test]
    fn folds_min_along_path() {
        let mut pkt = muzha_packet(Some(Drai::MAX));
        agent_with_queue(0).process_packet(&mut pkt, SimTime::ZERO); // accel
        assert_eq!(avbw_of(&pkt), Some(Drai::AggressiveAcceleration));
        agent_with_queue(15).process_packet(&mut pkt, SimTime::ZERO); // decel
        assert_eq!(avbw_of(&pkt), Some(Drai::ModerateDeceleration));
        // A later idle node cannot raise the recommendation again.
        agent_with_queue(0).process_packet(&mut pkt, SimTime::ZERO);
        assert_eq!(avbw_of(&pkt), Some(Drai::ModerateDeceleration));
    }

    #[test]
    fn marks_when_congested() {
        let mut pkt = muzha_packet(Some(Drai::MAX));
        let mut busy = agent_with_queue(20);
        busy.process_packet(&mut pkt, SimTime::ZERO);
        assert!(marked(&pkt));
        assert_eq!(busy.stats().packets_marked, 1);
        assert_eq!(busy.stats().packets_stamped, 1);
    }

    #[test]
    fn non_muzha_data_untouched() {
        let mut pkt = muzha_packet(None);
        let mut busy = agent_with_queue(30);
        busy.process_packet(&mut pkt, SimTime::ZERO);
        assert_eq!(avbw_of(&pkt), None);
        assert!(!marked(&pkt), "non-Muzha flows are not marked");
        assert_eq!(busy.stats().packets_stamped, 0);
    }

    #[test]
    fn acks_and_control_untouched() {
        let mut ack = Packet::new(
            2,
            NodeId::new(4),
            NodeId::new(0),
            Payload::Tcp(TcpSegment::ack(FlowId::new(0), 3)),
        );
        let mut busy = agent_with_queue(30);
        busy.process_packet(&mut ack, SimTime::ZERO);
        assert!(ack.is_tcp_ack());
        assert_eq!(busy.stats().packets_stamped, 0);
    }
}
