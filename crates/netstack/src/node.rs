//! One node's protocol stack — PHY state, MAC, AODV, interface queue,
//! Muzha router agent — and its snapshot codec. A node holds no transport
//! state: a flow owns its sender and receiver (`sim::Flow`).

use aodv::Aodv;
use mac80211::Mac;
use muzha::RouterAgent;
use phy::PhyState;
use sim_core::{SimRng, SimTime, SnapError, SnapshotReader, SnapshotWriter};
use wire::{NodeId, Packet, UidGen};

use crate::config::QueueDiscipline;
use crate::{BusyTracker, DropTailQueue, RedConfig, RedOutcome, RedQueue, SimConfig};

/// The node's interface queue under either discipline.
#[derive(Debug)]
pub(crate) enum Ifq {
    DropTail(DropTailQueue),
    Red(RedQueue),
}

/// What the interface queue did with an arriving packet, in the vocabulary
/// the trace log needs (mark and early-drop provenance preserved).
pub(crate) enum IfqPush {
    /// Stored; `marked` is true when RED ECN-marked the packet on the way
    /// in (drop-tail never marks).
    Stored { marked: bool },
    /// Shed; the packet returned may differ from the arrival (RED's
    /// priority path evicts stored data to protect routing control).
    Dropped { packet: Packet, early: bool },
}

impl Ifq {
    /// Enqueues a packet. `now` feeds RED's idle-time aging; drop-tail
    /// ignores it.
    pub(crate) fn push(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        priority: bool,
        now: SimTime,
        rng: &mut SimRng,
    ) -> IfqPush {
        match self {
            Ifq::DropTail(q) => match q.push(packet, next_hop, priority) {
                None => IfqPush::Stored { marked: false },
                Some(packet) => IfqPush::Dropped { packet, early: false },
            },
            Ifq::Red(q) => match q.push(packet, next_hop, priority, now, rng) {
                RedOutcome::Enqueued => IfqPush::Stored { marked: false },
                RedOutcome::EnqueuedMarked => IfqPush::Stored { marked: true },
                RedOutcome::Dropped { packet, early } => IfqPush::Dropped { packet, early },
            },
        }
    }

    pub(crate) fn pop(&mut self, now: SimTime) -> Option<(Packet, NodeId)> {
        match self {
            Ifq::DropTail(q) => q.pop(),
            Ifq::Red(q) => q.pop(now),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Ifq::DropTail(q) => q.len(),
            Ifq::Red(q) => q.len(),
        }
    }

    pub(crate) fn stats(&self) -> crate::queue::QueueStats {
        match self {
            Ifq::DropTail(q) => q.stats(),
            Ifq::Red(q) => q.stats(),
        }
    }
}

/// The RED parameters a node runs: the discipline's, at the simulation's
/// queue capacity.
fn red_at(capacity: usize, red: RedConfig) -> RedConfig {
    RedConfig { capacity, ..red }
}

pub(crate) struct Node {
    pub(crate) phy: PhyState,
    /// MAC stats snapshot at the previous DRAI sample (for retry deltas).
    pub(crate) last_mac_stats: mac80211::MacStats,
    pub(crate) mac: Mac,
    pub(crate) aodv: Aodv,
    pub(crate) ifq: Ifq,
    pub(crate) router: RouterAgent,
    pub(crate) uid: UidGen,
    pub(crate) busy: BusyTracker,
    pub(crate) routing_drops: u64,
}

impl Node {
    /// A fresh stack for node `id`; the MAC's backoff stream forks off `rng`.
    pub(crate) fn new(id: NodeId, cfg: &SimConfig, rng: &mut SimRng) -> Node {
        Node {
            phy: PhyState::new(),
            last_mac_stats: mac80211::MacStats::default(),
            mac: Mac::new(id, cfg.mac, rng.fork()),
            aodv: Aodv::new(id, cfg.aodv, UidGen::new(id)),
            ifq: match cfg.queue {
                QueueDiscipline::DropTail => Ifq::DropTail(DropTailQueue::new(cfg.ifq_capacity)),
                QueueDiscipline::Red(red) => Ifq::Red(RedQueue::new(red_at(cfg.ifq_capacity, red))),
            },
            router: RouterAgent::new(cfg.drai),
            // Transport packets use a separate uid stream so MAC dedup
            // never confuses them with routing packets.
            uid: UidGen::with_stream(id, 1),
            busy: BusyTracker::new(SimTime::ZERO),
            routing_drops: 0,
        }
    }

    /// Hand-written, with [`Node::decode_state`]: every layer's
    /// configuration is handed down from `cfg` instead of read, and
    /// `cfg.queue` says which interface queue the bytes hold.
    pub(crate) fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put(&self.phy);
        w.put(&self.last_mac_stats);
        self.mac.encode_state(w);
        self.aodv.encode_state(w);
        match &self.ifq {
            Ifq::DropTail(q) => q.encode_state(w),
            Ifq::Red(q) => q.encode_state(w),
        }
        self.router.encode_state(w);
        w.put(&self.uid);
        w.put(&self.busy);
        w.put_u64(self.routing_drops);
    }

    /// Decodes one node's state around `cfg`, the target simulator's
    /// configuration: MAC, AODV and DRAI parameters, the queue discipline and
    /// its capacity are not in the bytes.
    pub(crate) fn decode_state(
        r: &mut SnapshotReader<'_>,
        cfg: &SimConfig,
    ) -> Result<Node, SnapError> {
        let phy = r.get()?;
        let last_mac_stats = r.get()?;
        let mac = Mac::decode_state(r, cfg.mac)?;
        let aodv = Aodv::decode_state(r, cfg.aodv)?;
        let ifq = match cfg.queue {
            QueueDiscipline::DropTail => {
                Ifq::DropTail(DropTailQueue::decode_state(r, cfg.ifq_capacity)?)
            }
            QueueDiscipline::Red(red) => {
                Ifq::Red(RedQueue::decode_state(r, red_at(cfg.ifq_capacity, red))?)
            }
        };
        let router = RouterAgent::decode_state(r, cfg.drai)?;
        let uid = r.get()?;
        let busy = r.get()?;
        let routing_drops = r.take_u64()?;
        Ok(Node { phy, last_mac_stats, mac, aodv, ifq, router, uid, busy, routing_drops })
    }
}

#[cfg(test)]
mod red_integration_tests {
    use super::*;
    use crate::{topology, FlowSpec, Simulator, TcpVariant};

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn red_discipline_carries_traffic() {
        let cfg =
            SimConfig { queue: QueueDiscipline::Red(RedConfig::default()), ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.run_until(secs(5.0));
        assert!(sim.flow_report(flow).delivered_segments > 20);
    }

    #[test]
    fn red_ecn_marks_reach_a_muzha_sender() {
        // An aggressive RED (tiny thresholds, heavy averaging) on every
        // node: Muzha's data is ECN-marked in the queue, so its dup-ACK
        // discrimination sees "congestion" even without Muzha's own
        // marking (queue thresholds here are far below the DRAI mark_at).
        let red = RedConfig {
            min_threshold: 0.0,
            max_threshold: 1.0,
            queue_weight: 0.9,
            ecn: true,
            ..RedConfig::default()
        };
        let cfg = SimConfig { queue: QueueDiscipline::Red(red), ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(2), cfg);
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(secs(5.0));
        // Flow still works end to end with ECN marking in the path.
        assert!(sim.flow_report(flow).delivered_segments > 20);
        let marked: u64 = (0..sim.node_count())
            .map(|i| match &sim.nodes[i].ifq {
                Ifq::Red(q) => q.early_marks(),
                Ifq::DropTail(_) => 0,
            })
            .sum();
        assert!(marked > 0, "aggressive RED must have marked something");
    }

    #[test]
    fn red_without_ecn_drops_early() {
        let red = RedConfig {
            min_threshold: 0.0,
            max_threshold: 2.0,
            queue_weight: 0.9,
            ecn: false,
            ..RedConfig::default()
        };
        let cfg = SimConfig { queue: QueueDiscipline::Red(red), ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(2), cfg);
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.run_until(secs(10.0));
        let report = sim.flow_report(flow);
        assert!(report.delivered_segments > 10, "flow survives RED drops");
        let early: u64 = (0..sim.node_count())
            .map(|i| match &sim.nodes[i].ifq {
                Ifq::Red(q) => q.early_drops(),
                Ifq::DropTail(_) => 0,
            })
            .sum();
        assert!(early > 0, "early drops expected with tiny thresholds");
    }
}
