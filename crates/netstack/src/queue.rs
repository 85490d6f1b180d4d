//! The interface queue (IFQ) between routing and the MAC.

use std::collections::VecDeque;

use wire::{NodeId, Packet};

/// Queue statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets dropped because the queue was full (congestion drops).
    pub dropped: u64,
}

/// A bounded drop-tail interface queue holding `(packet, next_hop)` pairs
/// awaiting MAC transmission — ns-2's `Queue/DropTail` with the standard
/// 50-packet limit (paper Table 5.1), plus the conventional priority slot
/// for routing control packets (ns-2 uses a PriQueue for AODV).
///
/// # Example
///
/// ```
/// use netstack::DropTailQueue;
/// use wire::{FlowId, NodeId, Packet, Payload, TcpSegment};
///
/// let mut q = DropTailQueue::new(2);
/// let pkt = |uid| Packet::new(uid, NodeId::new(0), NodeId::new(1),
///     Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)));
/// assert!(q.push(pkt(1), NodeId::new(1), false).is_none());
/// assert!(q.push(pkt(2), NodeId::new(1), false).is_none());
/// // Full: the incoming data packet is dropped.
/// assert!(q.push(pkt(3), NodeId::new(1), false).is_some());
/// ```
#[derive(Debug)]
pub struct DropTailQueue {
    items: VecDeque<(Packet, NodeId)>,
    capacity: usize,
    stats: QueueStats,
}

impl DropTailQueue {
    /// Creates a queue holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        DropTailQueue { items: VecDeque::new(), capacity, stats: QueueStats::default() }
    }

    /// Enqueues a packet; `priority` packets (routing control) go to the
    /// head of the queue and evict the newest data packet when full.
    ///
    /// Returns the dropped packet, if the enqueue caused one (either the
    /// incoming packet itself or an evicted data packet).
    pub fn push(&mut self, packet: Packet, next_hop: NodeId, priority: bool) -> Option<Packet> {
        let dropped = if self.items.len() >= self.capacity {
            if priority {
                // Evict the newest data packet to make room for control.
                match self.items.iter().rposition(|(p, _)| !p.is_control()) {
                    Some(idx) => self.items.remove(idx).map(|(p, _)| p),
                    None => {
                        // Queue full of control traffic: drop the incoming.
                        self.stats.dropped += 1;
                        return Some(packet);
                    }
                }
            } else {
                self.stats.dropped += 1;
                return Some(packet);
            }
        } else {
            None
        };
        if dropped.is_some() {
            self.stats.dropped += 1;
        }
        if priority {
            self.items.push_front((packet, next_hop));
        } else {
            self.items.push_back((packet, next_hop));
        }
        dropped
    }

    /// Removes the packet at the head of the queue.
    pub fn pop(&mut self) -> Option<(Packet, NodeId)> {
        self.items.pop_front()
    }

    /// Current queue length in packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

sim_core::snap_record! { QueueStats { dropped } }

sim_core::snap_record! {
    given (capacity: usize) DropTailQueue { items, capacity = capacity, stats }
    check |q| q.items.len() <= q.capacity => "drop-tail queue over capacity";
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{AodvMessage, FlowId, Payload, RouteError, TcpSegment};

    fn data(uid: u64) -> Packet {
        Packet::new(
            uid,
            NodeId::new(0),
            NodeId::new(1),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)),
        )
    }

    fn control(uid: u64) -> Packet {
        Packet::new(
            uid,
            NodeId::new(0),
            NodeId::BROADCAST,
            Payload::Aodv(AodvMessage::Rerr(RouteError { unreachable: vec![] })),
        )
    }

    fn hop() -> NodeId {
        NodeId::new(1)
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10);
        for uid in 0..3 {
            assert!(q.push(data(uid), hop(), false).is_none());
        }
        assert_eq!(q.pop().unwrap().0.uid, 0);
        assert_eq!(q.pop().unwrap().0.uid, 1);
        assert_eq!(q.pop().unwrap().0.uid, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drop_tail_when_full() {
        let mut q = DropTailQueue::new(2);
        assert!(q.push(data(1), hop(), false).is_none());
        assert!(q.push(data(2), hop(), false).is_none());
        let dropped = q.push(data(3), hop(), false).unwrap();
        assert_eq!(dropped.uid, 3, "incoming packet is the one dropped");
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn priority_jumps_queue() {
        let mut q = DropTailQueue::new(10);
        let _ = q.push(data(1), hop(), false);
        let _ = q.push(control(2), hop(), true);
        assert_eq!(q.pop().unwrap().0.uid, 2, "control goes first");
    }

    #[test]
    fn priority_evicts_newest_data_when_full() {
        let mut q = DropTailQueue::new(2);
        let _ = q.push(data(1), hop(), false);
        let _ = q.push(data(2), hop(), false);
        let dropped = q.push(control(3), hop(), true).unwrap();
        assert_eq!(dropped.uid, 2, "newest data evicted");
        assert_eq!(q.pop().unwrap().0.uid, 3);
        assert_eq!(q.pop().unwrap().0.uid, 1);
    }

    #[test]
    fn control_dropped_when_full_of_control() {
        let mut q = DropTailQueue::new(2);
        let _ = q.push(control(1), hop(), true);
        let _ = q.push(control(2), hop(), true);
        let dropped = q.push(control(3), hop(), true).unwrap();
        assert_eq!(dropped.uid, 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DropTailQueue::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wire::{FlowId, Payload, TcpSegment};

    fn data(uid: u64) -> Packet {
        Packet::new(
            uid,
            NodeId::new(0),
            NodeId::new(1),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)),
        )
    }

    proptest! {
        /// Packets are conserved: everything pushed is either still queued,
        /// was popped, or was reported dropped — and the queue never
        /// exceeds its capacity.
        #[test]
        fn conservation_and_bounds(
            ops in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..200),
            cap in 1usize..16
        ) {
            let mut q = DropTailQueue::new(cap);
            let mut pushed = 0u64;
            let mut popped = 0u64;
            let mut dropped = 0u64;
            let mut uid = 0u64;
            for (push, priority) in ops {
                if push {
                    uid += 1;
                    pushed += 1;
                    if q.push(data(uid), NodeId::new(1), priority).is_some() {
                        dropped += 1;
                    }
                } else if q.pop().is_some() {
                    popped += 1;
                }
                prop_assert!(q.len() <= cap, "queue over capacity");
                prop_assert_eq!(pushed, popped + dropped + q.len() as u64,
                    "packets not conserved");
            }
        }
    }
}
