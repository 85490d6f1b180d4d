//! One node's protocol stack — PHY state, MAC, AODV, interface queue,
//! Muzha router agent — and its snapshot codec. A node holds no transport
//! state: a flow owns its sender and receiver (`sim::Flow`).

use aodv::Aodv;
use mac80211::Mac;
use muzha::RouterAgent;
use phy::PhyState;
use sim_core::{SimRng, SimTime, SnapError, SnapshotReader, SnapshotWriter};
use wire::{NodeId, UidGen};

use crate::{BusyTracker, DropTailQueue, SimConfig};

pub(crate) struct Node {
    pub(crate) phy: PhyState,
    /// MAC stats snapshot at the previous DRAI sample (for retry deltas).
    pub(crate) last_mac_stats: mac80211::MacStats,
    pub(crate) mac: Mac,
    pub(crate) aodv: Aodv,
    pub(crate) ifq: DropTailQueue,
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
            ifq: DropTailQueue::new(cfg.ifq_capacity),
            router: RouterAgent::new(cfg.drai),
            // Transport packets use a separate uid stream so MAC dedup
            // never confuses them with routing packets.
            uid: UidGen::with_stream(id, 1),
            busy: BusyTracker::new(SimTime::ZERO),
            routing_drops: 0,
        }
    }

    /// Hand-written, with [`Node::decode_state`]: every layer's
    /// configuration is handed down from `cfg` instead of read.
    pub(crate) fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put(&self.phy);
        w.put(&self.last_mac_stats);
        self.mac.encode_state(w);
        self.aodv.encode_state(w);
        self.ifq.encode_state(w);
        self.router.encode_state(w);
        w.put(&self.uid);
        w.put(&self.busy);
        w.put_u64(self.routing_drops);
    }

    /// Decodes one node's state around `cfg`, the target simulator's
    /// configuration: MAC, AODV and DRAI parameters and the queue's capacity
    /// are not in the bytes.
    pub(crate) fn decode_state(
        r: &mut SnapshotReader<'_>,
        cfg: &SimConfig,
    ) -> Result<Node, SnapError> {
        let phy = r.get()?;
        let last_mac_stats = r.get()?;
        let mac = Mac::decode_state(r, cfg.mac)?;
        let aodv = Aodv::decode_state(r, cfg.aodv)?;
        let ifq = DropTailQueue::decode_state(r, cfg.ifq_capacity)?;
        let router = RouterAgent::decode_state(r, cfg.drai)?;
        let uid = r.get()?;
        let busy = r.get()?;
        let routing_drops = r.take_u64()?;
        Ok(Node { phy, last_mac_stats, mac, aodv, ifq, router, uid, busy, routing_drops })
    }
}
