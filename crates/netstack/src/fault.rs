//! Scripted faults — what a run file's `at` lines state — and what the
//! simulator does with them: gating events on node liveness, applying each
//! fault, and the channel-loss draw a bursty-loss episode overrides.

use phy::{GeState, GilbertElliott};
use sim_core::{snap_enum, snap_record, DetSet, SimTime};
use tracelog::TraceRecord;
use wire::NodeId;

use crate::event::{Event, Owner};
use crate::Simulator;

/// One scripted fault.
///
/// Faults are applied by the simulator at their scheduled virtual time, on
/// the ordinary event queue, so they cannot perturb determinism.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Force the bidirectional `a`—`b` link down, independent of geometry.
    LinkDown {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Release a previously scripted link block.
    LinkUp {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Crash a node: radio off, interface queue and MAC state flushed,
    /// routing tables cleared. Packets in custody are accounted as fault
    /// drops, not silently lost.
    Kill {
        /// The node to crash.
        node: NodeId,
    },
    /// Power a killed node back up (fresh routes, same identity — packet
    /// uid streams continue so deduplication keeps working).
    Revive {
        /// The node to revive.
        node: NodeId,
    },
    /// Freeze a node: it stops processing timers and queued work but keeps
    /// all state; the radio stays off while paused.
    Pause {
        /// The node to freeze.
        node: NodeId,
    },
    /// Unfreeze a paused node, replaying the work deferred while frozen.
    Resume {
        /// The node to unfreeze.
        node: NodeId,
    },
    /// Begin a Gilbert–Elliott bursty-loss episode on the whole channel
    /// (replaces the flat Bernoulli `per_frame_loss` while active).
    GeStart(GilbertElliott),
    /// End the bursty-loss episode, returning to the configured flat loss.
    GeStop,
    /// Queue blackhole: the node's interface queue silently discards every
    /// enqueue attempt (a classic misbehaving-router fault).
    Blackhole {
        /// The misbehaving node.
        node: NodeId,
    },
    /// End a blackhole window.
    BlackholeOff {
        /// The node to restore.
        node: NodeId,
    },
    /// Clamp the node's interface queue to `capacity` packets (saturation
    /// window: a much smaller buffer than configured).
    Saturate {
        /// The node whose queue shrinks.
        node: NodeId,
        /// Temporary queue capacity in packets (0 behaves as blackhole).
        capacity: usize,
    },
    /// End a saturation window, restoring the configured capacity.
    SaturateOff {
        /// The node to restore.
        node: NodeId,
    },
    /// Partition the network: every link between a `left` node and a
    /// `right` node is forced down.
    Partition {
        /// Nodes on one side of the cut.
        left: Vec<NodeId>,
        /// Nodes on the other side.
        right: Vec<NodeId>,
    },
    /// Heal: release *all* currently scripted link blocks (from
    /// `link-down` and `partition` alike).
    Heal,
}

snap_enum! {
    FaultEvent, "fault event tag" {
        0 => LinkDown { a, b },
        1 => LinkUp { a, b },
        2 => Kill { node },
        3 => Revive { node },
        4 => Pause { node },
        5 => Resume { node },
        6 => GeStart(ge),
        7 => GeStop,
        8 => Blackhole { node },
        9 => BlackholeOff { node },
        10 => Saturate { node, capacity },
        11 => SaturateOff { node },
        12 => Partition { left, right },
        13 => Heal,
    }
}

impl FaultEvent {
    /// Every node the fault names, so a run can check them against its
    /// topology before the simulator indexes by one.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            FaultEvent::LinkDown { a, b } | FaultEvent::LinkUp { a, b } => vec![*a, *b],
            FaultEvent::Kill { node }
            | FaultEvent::Revive { node }
            | FaultEvent::Pause { node }
            | FaultEvent::Resume { node }
            | FaultEvent::Blackhole { node }
            | FaultEvent::BlackholeOff { node }
            | FaultEvent::Saturate { node, .. }
            | FaultEvent::SaturateOff { node } => vec![*node],
            FaultEvent::Partition { left, right } => [left.as_slice(), right].concat(),
            FaultEvent::GeStart(_) | FaultEvent::GeStop | FaultEvent::Heal => Vec::new(),
        }
    }
}

/// A fault scheduled at a virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedFault {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub fault: FaultEvent,
}

snap_record! { TimedFault { at, fault } }

/// Scenario-driven liveness of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeStatus {
    /// Normal operation.
    Up,
    /// Frozen by [`FaultEvent::Pause`]: state kept, work deferred.
    Paused,
    /// Crashed by [`FaultEvent::Kill`]: state flushed, events discarded.
    Killed,
}

/// What the scenario has done to one node.
struct NodeFault {
    status: NodeStatus,
    /// Events deferred while the node is paused.
    deferred: Vec<Event>,
    /// The interface queue blackholes every enqueue.
    blackhole: bool,
    /// Scripted interface-queue capacity clamp.
    saturate_cap: Option<usize>,
    /// This receiver's channel state during a Gilbert–Elliott episode.
    ge: GeState,
}

/// Everything a loaded fault scenario has changed, in one place.
pub(crate) struct FaultState {
    /// Every scripted fault loaded so far, addressed by [`Event::Fault`].
    scripted: Vec<TimedFault>,
    nodes: Vec<NodeFault>,
    /// Active Gilbert–Elliott bursty-loss episode, if any.
    ge_episode: Option<GilbertElliott>,
    /// Links currently forced down by the scenario (normalised pairs).
    scripted_down: DetSet<(NodeId, NodeId)>,
}

impl FaultState {
    pub(crate) fn new(node_count: usize) -> Self {
        let node = || NodeFault {
            status: NodeStatus::Up,
            deferred: Vec::new(),
            blackhole: false,
            saturate_cap: None,
            ge: GeState::new(),
        };
        FaultState {
            scripted: Vec::new(),
            nodes: (0..node_count).map(|_| node()).collect(),
            ge_episode: None,
            scripted_down: DetSet::new(),
        }
    }

    /// How many nodes this state describes; `restore` checks it against the
    /// simulator's own count.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// How many scripted faults [`Event::Fault`] may address.
    pub(crate) fn scripted_count(&self) -> usize {
        self.scripted.len()
    }

    /// Every event parked at a paused node; resume puts them back on the
    /// queue, so `restore` vets them with the queued ones.
    pub(crate) fn deferred(&self) -> impl Iterator<Item = &Event> {
        self.nodes.iter().flat_map(|n| &n.deferred)
    }

    /// The two queue faults are no-ops for a node this topology lacks: a
    /// script naming one has nothing to clamp.
    fn set_blackhole(&mut self, node: NodeId, on: bool) {
        if let Some(n) = self.nodes.get_mut(node.index()) {
            n.blackhole = on;
        }
    }

    fn set_saturate_cap(&mut self, node: NodeId, cap: Option<usize>) {
        if let Some(n) = self.nodes.get_mut(node.index()) {
            n.saturate_cap = cap;
        }
    }

    /// Whether `node` is neither paused nor killed — the test
    /// [`Simulator::gate_event`] passes an event on.
    pub(crate) fn is_up(&self, node: NodeId) -> bool {
        self.scripted.is_empty() || self.nodes[node.index()].status == NodeStatus::Up
    }

    /// Whether a scripted blackhole is eating `node`'s enqueues.
    pub(crate) fn blackholed(&self, node: NodeId) -> bool {
        self.nodes.get(node.index()).is_some_and(|n| n.blackhole)
    }

    /// The scripted clamp on `node`'s interface queue, if any.
    pub(crate) fn saturate_cap(&self, node: NodeId) -> Option<usize> {
        self.nodes.get(node.index()).and_then(|n| n.saturate_cap)
    }
}

snap_enum! { NodeStatus, "node status tag" { 0 => Up, 1 => Paused, 2 => Killed } }

snap_record! { NodeFault { status, deferred, blackhole, saturate_cap, ge } }

snap_record! { FaultState { scripted, nodes, ge_episode, scripted_down } }

impl Simulator {
    /// Loads scripted faults: every timed fault is scheduled on the
    /// ordinary event queue at its scripted virtual time (past times fire
    /// immediately), so twin runs with the same seed and faults stay
    /// bit-identical. Same-time faults keep list order.
    pub fn load_faults(&mut self, faults: &[TimedFault]) {
        for timed in faults {
            let index = self.fault.scripted.len();
            self.fault.scripted.push(timed.clone());
            self.schedule(timed.at.max(self.now), Event::Fault { index });
        }
    }

    /// Filters an event through the scenario's node liveness: events owned
    /// by a killed node are discarded (packets inside them become fault
    /// drops), and most events owned by a paused node are deferred for
    /// replay at resume time. Signal edges at a paused node are discarded —
    /// its radio is off and `radio_off` has made it forget the signal: the
    /// end edges that are events here, every other edge by the same test in
    /// [`Simulator::settle`].
    pub(crate) fn gate_event(&mut self, event: Event) -> Option<Event> {
        if self.fault.scripted.is_empty() {
            return Some(event);
        }
        let node = match event.owner() {
            Owner::Node(node) => node,
            Owner::FlowSource(flow) => self.flows[flow.index()].spec.src,
            Owner::Global => return Some(event),
        };
        match self.fault.nodes[node.index()].status {
            NodeStatus::Up => Some(event),
            NodeStatus::Killed => match event {
                // The physical node keeps moving even while crashed.
                Event::MobilityTick { .. } => Some(event),
                Event::JitteredEnqueue { packet, .. } => {
                    self.rec(TraceRecord::FaultDrop { node, uid: packet.uid });
                    None
                }
                _ => None,
            },
            NodeStatus::Paused => match event {
                Event::RxEnd { .. } | Event::CsEnd { .. } => None,
                _ => {
                    self.fault.nodes[node.index()].deferred.push(event);
                    None
                }
            },
        }
    }

    /// Applies scripted fault `index` at the current virtual time.
    pub(crate) fn apply_fault(&mut self, index: usize) {
        let Some(fault) = self.fault.scripted.get(index).map(|t| t.fault.clone()) else {
            return;
        };
        match fault {
            FaultEvent::LinkDown { a, b } => self.script_link(a, b, false),
            FaultEvent::LinkUp { a, b } => self.script_link(a, b, true),
            FaultEvent::Kill { node } => self.kill_node(node),
            FaultEvent::Revive { node } => self.revive_node(node),
            FaultEvent::Pause { node } => {
                if self.fault.nodes[node.index()].status == NodeStatus::Up {
                    self.fault.nodes[node.index()].status = NodeStatus::Paused;
                    self.radio_off(node);
                    self.rec(TraceRecord::FaultNode { node, up: false });
                }
            }
            FaultEvent::Resume { node } => {
                if self.fault.nodes[node.index()].status == NodeStatus::Paused {
                    self.fault.nodes[node.index()].status = NodeStatus::Up;
                    self.channel.set_node_enabled(node, true);
                    self.rec(TraceRecord::FaultNode { node, up: true });
                    let backlog = std::mem::take(&mut self.fault.nodes[node.index()].deferred);
                    let now = self.now;
                    for deferred in backlog {
                        self.schedule(now, deferred);
                    }
                }
            }
            FaultEvent::GeStart(ge) => {
                self.fault.ge_episode = Some(ge);
                // Every receiver starts the episode in the good state.
                for n in &mut self.fault.nodes {
                    n.ge = GeState::new();
                }
            }
            FaultEvent::GeStop => self.fault.ge_episode = None,
            FaultEvent::Blackhole { node } => self.fault.set_blackhole(node, true),
            FaultEvent::BlackholeOff { node } => self.fault.set_blackhole(node, false),
            FaultEvent::Saturate { node, capacity } => {
                self.fault.set_saturate_cap(node, Some(capacity));
            }
            FaultEvent::SaturateOff { node } => self.fault.set_saturate_cap(node, None),
            FaultEvent::Partition { left, right } => {
                for &a in &left {
                    for &b in &right {
                        if a != b {
                            self.script_link(a, b, false);
                        }
                    }
                }
            }
            FaultEvent::Heal => {
                let blocked: Vec<(NodeId, NodeId)> =
                    self.fault.scripted_down.iter().copied().collect();
                for (a, b) in blocked {
                    self.script_link(a, b, true);
                }
            }
        }
    }

    /// Blocks or releases one scripted link, keeping the channel and the
    /// bookkeeping set in sync and putting the transition on record. No-op
    /// if the link already is in the requested state.
    fn script_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let down = &mut self.fault.scripted_down;
        let changed = if up { down.remove(&key) } else { down.insert(key) };
        if changed {
            self.channel.set_link_blocked(a, b, !up);
            self.rec(TraceRecord::FaultLink { a, b, up });
        }
    }

    /// Takes `node` off the channel and makes its receiver forget the signals
    /// impinging on it: their end edges are discarded by [`Self::gate_event`]
    /// while it is down, so a reception left in the PHY would jam its carrier
    /// sense for the rest of the run. An end edge parked on one of them is
    /// discarded here and now. One parked on a signal still in flight is
    /// pushed into the queue as an [`Event::CsEnd`] under its own key: the
    /// cover it was parked under may be the energy just forgotten, and if the
    /// radio is back on when that signal arrives, its end is an idle edge
    /// that can restart the MAC's countdown (DESIGN §9.4). The fault is a
    /// `Global` event, which settled the node against its own key first, so
    /// every such end lies ahead of that key.
    fn radio_off(&mut self, node: NodeId) {
        self.channel.set_node_enabled(node, false);
        let events = &mut self.events;
        let dropped = self.nodes[node.index()].phy.radio_off(|end, seq, tx_id| {
            events.push_reserved(end, seq, Event::CsEnd { node, tx_id });
        });
        self.perf.edges_settled += dropped as u64;
    }

    /// Crashes a node: radio off, every packet in its custody (interface
    /// queue, MAC, AODV discovery buffers, deferred work) becomes a fault
    /// drop, and its routing state is wiped. Identity — in particular the
    /// packet uid streams — survives, so MAC deduplication at the
    /// neighbours keeps working across a revive.
    fn kill_node(&mut self, node: NodeId) {
        if self.fault.nodes[node.index()].status == NodeStatus::Killed {
            return;
        }
        self.fault.nodes[node.index()].status = NodeStatus::Killed;
        self.radio_off(node);
        let mut orphans: Vec<u64> = Vec::new();
        {
            let n = &mut self.nodes[node.index()];
            while let Some((packet, _)) = n.ifq.pop() {
                orphans.push(packet.uid);
            }
            if let Some(packet) = n.mac.abort() {
                orphans.push(packet.uid);
            }
            for packet in n.aodv.reset_routes() {
                orphans.push(packet.uid);
            }
        }
        for deferred in std::mem::take(&mut self.fault.nodes[node.index()].deferred) {
            match deferred {
                Event::JitteredEnqueue { packet, .. } => orphans.push(packet.uid),
                // The tick chain ends with the deferred tick.
                Event::MobilityTick { .. } => self.ticking[node.index()] = false,
                _ => {}
            }
        }
        for uid in orphans {
            self.rec(TraceRecord::FaultDrop { node, uid });
        }
        self.rec(TraceRecord::FaultNode { node, up: false });
    }

    /// Powers a killed node back up with empty routing state.
    fn revive_node(&mut self, node: NodeId) {
        if self.fault.nodes[node.index()].status != NodeStatus::Killed {
            return;
        }
        self.fault.nodes[node.index()].status = NodeStatus::Up;
        self.channel.set_node_enabled(node, true);
        self.rec(TraceRecord::FaultNode { node, up: true });
    }

    /// Whether the channel corrupts a data frame heading to `nb`: the
    /// scripted Gilbert–Elliott episode when one is active, otherwise the
    /// configured flat Bernoulli loss. The flat path draws from the RNG
    /// exactly as it did before fault injection existed, so fault-free
    /// runs stay bit-identical with older seeds.
    pub(crate) fn frame_lost(&mut self, nb: NodeId, loss_p: f64) -> bool {
        match self.fault.ge_episode {
            Some(ge) => self.fault.nodes[nb.index()].ge.frame_lost(&ge, &mut self.rng),
            None => loss_p > 0.0 && self.rng.chance(loss_p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, FlowReport, FlowSpec, SimConfig, TcpVariant};
    use faultline::InvariantChecker;
    use sim_core::{SnapError, SnapshotReader, SnapshotWriter};

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn at(s: f64, fault: FaultEvent) -> TimedFault {
        TimedFault { at: secs(s), fault }
    }

    fn encoded(state: &FaultState) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put(state);
        w.finish()
    }

    /// One of everything a script can leave behind: a paused node holding a
    /// deferred flood enqueue, a bursty-loss episode with one receiver in
    /// the bad state, a blackhole, a queue clamp and a scripted-down link.
    fn busy_state() -> FaultState {
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mut state = FaultState::new(3);
        state.scripted.push(TimedFault { at: secs(1.0), fault: FaultEvent::Pause { node: b } });
        state.nodes[1].status = NodeStatus::Paused;
        let rerr = wire::AodvMessage::Rerr(wire::RouteError { unreachable: vec![] });
        state.nodes[1].deferred.push(Event::JitteredEnqueue {
            node: b,
            packet: wire::Packet::new(42, b, NodeId::BROADCAST, wire::Payload::Aodv(rerr)),
            next_hop: NodeId::BROADCAST,
        });
        let ge = GilbertElliott::new(1.0, 1e-9, 0.0, 0.9).expect("valid episode");
        state.ge_episode = Some(ge);
        let _ = state.nodes[2].ge.frame_lost(&ge, &mut sim_core::SimRng::new(1));
        assert!(state.nodes[2].ge.is_bad(), "p_gb = 1 flips the receiver on its first frame");
        state.nodes[0].blackhole = true;
        state.nodes[2].saturate_cap = Some(1);
        state.scripted_down.insert((a, c));
        state
    }

    #[test]
    fn fault_nodes_lists_every_node_a_fault_names() {
        let n = NodeId::new;
        let faults = [
            FaultEvent::LinkDown { a: n(1), b: n(2) },
            FaultEvent::Saturate { node: n(3), capacity: 4 },
            FaultEvent::Partition { left: vec![n(0), n(1)], right: vec![n(7), n(9)] },
            FaultEvent::GeStop,
        ];
        let named: Vec<Vec<usize>> =
            faults.iter().map(|f| f.nodes().iter().map(|n| n.index()).collect()).collect();
        assert_eq!(named, [vec![1, 2], vec![3], vec![0, 1, 7, 9], vec![]]);
    }

    #[test]
    fn fault_state_codec_round_trips_every_kind_of_fault() {
        let state = busy_state();
        let bytes = encoded(&state);
        let mut r = SnapshotReader::new(&bytes);
        let back: FaultState = r.get().expect("decodes");
        r.finish().expect("no trailing bytes");
        assert_eq!(encoded(&back), bytes, "re-encoding must reproduce the bytes");
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.nodes[1].status, NodeStatus::Paused);
        assert!(matches!(
            back.nodes[1].deferred[..],
            [Event::JitteredEnqueue { ref packet, .. }] if packet.uid == 42
        ));
        assert!(back.blackholed(NodeId::new(0)) && !back.blackholed(NodeId::new(1)));
        assert_eq!(back.saturate_cap(NodeId::new(2)), Some(1));
        assert!(back.ge_episode.is_some() && back.nodes[2].ge.is_bad());
        assert!(back.scripted_down.contains(&(NodeId::new(0), NodeId::new(2))));
    }

    /// The fault block is the snapshot's second-to-last field (the work
    /// counters follow it). Swapping in a well-formed block sized for one
    /// node more must fail the restore, not index out of range later.
    #[test]
    fn restore_rejects_fault_state_sized_for_another_node_count() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        sim.run_until(secs(0.2));
        let bytes = sim.snapshot();
        let mut perf = SnapshotWriter::new();
        perf.put(&sim.perf);
        let perf = perf.finish();
        let own = encoded(&sim.fault);
        let fault_at = bytes.len() - perf.len() - own.len();
        assert_eq!(bytes[fault_at..bytes.len() - perf.len()], own[..], "layout assumption");
        let mut grafted = bytes[..fault_at].to_vec();
        grafted.extend_from_slice(&encoded(&busy_state()));
        grafted.extend_from_slice(&perf);
        assert_eq!(busy_state().node_count(), sim.node_count(), "same count restores");
        assert_eq!(sim.restore(&grafted), Ok(()));
        let mut grafted = bytes[..fault_at].to_vec();
        grafted.extend_from_slice(&encoded(&FaultState::new(sim.node_count() + 1)));
        grafted.extend_from_slice(&perf);
        assert_eq!(sim.restore(&grafted), Err(SnapError::Invalid("fault state node count")));
    }

    fn faulted_chain(
        hops: usize,
        faults: &[TimedFault],
        duration: f64,
    ) -> (FlowReport, InvariantChecker, u64) {
        let mut sim = Simulator::new(topology::chain(hops), SimConfig::default());
        let (src, dst) = topology::chain_flow(hops);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.load_faults(faults);
        sim.install_checker(InvariantChecker::new());
        sim.run_until(secs(duration));
        let checker = sim.take_checker().unwrap();
        (sim.flow_report(flow), checker, sim.trace_hash())
    }

    #[test]
    fn scripted_link_break_twin_runs_bit_identical() {
        let faults = [
            at(2.0, FaultEvent::LinkDown { a: NodeId::new(1), b: NodeId::new(2) }),
            at(4.0, FaultEvent::Heal),
        ];
        let (ra, ca, ha) = faulted_chain(4, &faults, 8.0);
        let (rb, cb, hb) = faulted_chain(4, &faults, 8.0);
        assert_eq!(ha, hb, "same seed + script must give identical trace hashes");
        assert_eq!(ra.delivered_segments, rb.delivered_segments);
        assert!(ca.is_clean(), "{:?}", ca.violations());
        assert!(cb.is_clean());
        assert!(ra.delivered_segments > 10, "flow should recover after heal");
    }

    #[test]
    fn kill_and_revive_relay_stalls_then_recovers() {
        let faults = [
            at(2.0, FaultEvent::Kill { node: NodeId::new(1) }),
            at(5.0, FaultEvent::Revive { node: NodeId::new(1) }),
        ];
        let (report, checker, _) = faulted_chain(2, &faults, 10.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(report.delivered_segments > 10, "flow must resume after revive");
        // Everything injected is accounted for: delivered, dropped
        // somewhere, destroyed by the kill, or genuinely still in flight.
        let ledger = checker.ledger();
        assert_eq!(
            ledger.injected,
            ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight
        );
    }

    #[test]
    fn blackhole_window_shows_up_as_fault_drops() {
        let faults = [
            at(2.0, FaultEvent::Blackhole { node: NodeId::new(1) }),
            at(4.0, FaultEvent::BlackholeOff { node: NodeId::new(1) }),
        ];
        let (report, checker, _) = faulted_chain(2, &faults, 8.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(checker.ledger().fault_dropped > 0, "blackhole ate nothing?");
        assert!(report.delivered_segments > 10, "flow must survive the window");
    }

    #[test]
    fn ge_episode_hurts_throughput_and_stays_deterministic() {
        let ge = GilbertElliott::new(0.05, 0.3, 0.0, 0.9).unwrap();
        let faults = [at(1.0, FaultEvent::GeStart(ge)), at(4.0, FaultEvent::GeStop)];
        let (bursty_a, ca, ha) = faulted_chain(4, &faults, 5.0);
        let (bursty_b, _, hb) = faulted_chain(4, &faults, 5.0);
        let (clean, _, _) = faulted_chain(4, &[], 5.0);
        assert_eq!(ha, hb);
        assert_eq!(bursty_a.delivered_segments, bursty_b.delivered_segments);
        assert!(ca.is_clean(), "{:?}", ca.violations());
        assert!(
            bursty_a.delivered_segments < clean.delivered_segments,
            "bursty loss ({}) should undercut the clean run ({})",
            bursty_a.delivered_segments,
            clean.delivered_segments
        );
        assert!(bursty_a.delivered_segments > 0, "some data must still get through");
    }

    #[test]
    fn saturate_clamps_the_queue() {
        let faults = [
            at(1.0, FaultEvent::Saturate { node: NodeId::new(1), capacity: 1 }),
            at(4.0, FaultEvent::SaturateOff { node: NodeId::new(1) }),
        ];
        let (report, checker, _) = faulted_chain(2, &faults, 8.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(checker.ledger().dropped > 0, "a 1-slot queue must shed load");
        assert!(report.delivered_segments > 10);
    }

    /// Segments `flow` delivers within 20 s of virtual time after `from`,
    /// stopping as soon as `enough` have arrived.
    fn delivered_after(sim: &mut Simulator, flow: wire::FlowId, from: f64, enough: u64) -> u64 {
        sim.run_until(secs(from));
        let before = sim.flow_report(flow).delivered_segments;
        let mut t = from;
        while t < from + 20.0 && sim.flow_report(flow).delivered_segments < before + enough {
            t += 0.5;
            sim.run_until(secs(t));
        }
        sim.flow_report(flow).delivered_segments - before
    }

    /// A pause that lands mid-reception used to drop the frame's end edge
    /// and leave its `Reception` in the relay's PHY for ever: carrier sense
    /// stuck busy, every later frame `CollisionLost`. Sweep the pause over
    /// the frame exchanges of a busy relay — resuming inside the frame's
    /// airtime, just after it, and much later — and require the flow to
    /// come back every time.
    #[test]
    fn no_pause_placement_leaves_the_relay_deaf() {
        let relay = NodeId::new(1);
        let mut deaf = Vec::new();
        for i in 0..200u32 {
            let pause = 2.0 + f64::from(i) * 0.000_37;
            for outage in [0.000_5, 0.002, 0.5] {
                let faults = [
                    at(pause, FaultEvent::Pause { node: relay }),
                    at(pause + outage, FaultEvent::Resume { node: relay }),
                ];
                let (mut sim, flow) = two_hop_flow();
                sim.load_faults(&faults);
                if delivered_after(&mut sim, flow, pause + outage, 50) < 50 {
                    let stuck = sim.nodes[relay.index()].phy.active_receptions();
                    deaf.push((pause, outage, stuck));
                }
            }
        }
        assert!(deaf.is_empty(), "{} of 600 placements stalled the flow: {deaf:?}", deaf.len());
    }

    /// `chain(2)` with one NewReno flow — the sweep's topology.
    fn two_hop_flow() -> (Simulator, wire::FlowId) {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        (sim, flow)
    }

    /// From a traced twin of [`two_hop_flow`]: when the first full-size data
    /// frame after t = 2 s goes on the air toward the relay (node 1). It
    /// stays there for over 5 ms.
    fn data_frame_toward_the_relay() -> f64 {
        let (mut twin, _) = two_hop_flow();
        twin.install_trace_log(tracelog::TraceLog::new());
        twin.run_until(secs(2.5));
        let log = twin.take_trace_log().expect("log was installed");
        let sent = log.iter().find_map(|e| match e.record {
            tracelog::TraceRecord::PhyTx { dst, frame: wire::FrameKind::Data, bytes, .. }
                if dst == NodeId::new(1) && e.at > secs(2.0) && bytes > 1000 =>
            {
                Some(e.at.as_secs_f64())
            }
            _ => None,
        });
        sent.expect("the source sends data frames to the relay after t = 2 s")
    }

    /// The same race through a crash: the relay is killed while a frame is
    /// arriving and revived before that frame's end edge.
    #[test]
    fn kill_and_revive_inside_one_frame_keeps_the_relay_usable() {
        let relay = NodeId::new(1);
        let mid_frame = data_frame_toward_the_relay() + 0.001;
        let faults = [
            at(mid_frame, FaultEvent::Kill { node: relay }),
            at(mid_frame + 0.000_5, FaultEvent::Revive { node: relay }),
        ];
        let (mut sim, flow) = two_hop_flow();
        sim.load_faults(&faults);
        sim.install_checker(InvariantChecker::new());
        sim.run_until(secs(mid_frame));
        assert_eq!(
            sim.nodes[relay.index()].phy.active_receptions(),
            0,
            "a dead radio hears nothing"
        );
        assert!(delivered_after(&mut sim, flow, mid_frame + 0.001, 50) >= 50);
        let checker = sim.take_checker().unwrap();
        assert!(checker.is_clean(), "{:?}", checker.violations());
    }

    /// Killing a paused node drops the mobility tick deferred at its radio,
    /// which ends its tick chain: a movement started later arms a new one
    /// and the node moves at its speed.
    #[test]
    fn killing_a_paused_node_ends_its_tick_chain() {
        let node = NodeId::new(0);
        let faults = [at(1.0, FaultEvent::Pause { node }), at(1.5, FaultEvent::Kill { node })];
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        sim.load_faults(&faults);
        let target = phy::Position::new(1000.0, 0.0);
        sim.move_node(node, target, 10.0);
        sim.run_until(secs(2.0));
        assert!(!sim.ticking[node.index()], "the deferred tick went with the kill");
        let stalled = sim.position(node);
        sim.move_node(node, target, 10.0);
        sim.run_until(secs(7.0));
        let moved = sim.position(node).distance_to(stalled);
        assert!((moved - 50.0).abs() < 1e-6, "5 s at 10 m/s must cover 50 m, got {moved}");
    }

    /// A relay killed a millisecond after a data frame reached it dies with
    /// that packet in custody: the log shows the flush — `FaultDrop`s at the
    /// relay, at the kill instant, then the `FaultNode` transition — and the
    /// ledger books the data among them as destroyed by the fault.
    #[test]
    fn a_kill_with_packets_in_custody_puts_the_flush_on_record() {
        let relay = NodeId::new(1);
        let kill = data_frame_toward_the_relay() + 0.0065;
        let faults = [at(kill, FaultEvent::Kill { node: relay })];
        let (mut sim, _) = two_hop_flow();
        sim.load_faults(&faults);
        sim.install_checker(InvariantChecker::new());
        sim.install_trace_log(tracelog::TraceLog::with_filter(
            tracelog::TraceFilter::all().layer(tracelog::Layer::Fault),
        ));
        sim.run_until(secs(4.0));
        let log = sim.take_trace_log().expect("log was installed").snapshot();
        let (last, flushed) = log.split_last().expect("the kill is on record");
        assert_eq!(last.record, TraceRecord::FaultNode { node: relay, up: false });
        assert!(!flushed.is_empty(), "the relay held nothing at t = {kill}");
        for e in &log {
            assert_eq!((e.at, e.record.node()), (secs(kill), relay), "{e:?}");
        }
        assert!(flushed.iter().all(|e| matches!(e.record, TraceRecord::FaultDrop { .. })));
        let ledger = sim.take_checker().unwrap().ledger();
        assert!((1..=flushed.len() as u64).contains(&ledger.fault_dropped), "{ledger:?}");
    }

    /// A radio switched off while a frame's leading edge is still in flight
    /// toward it (the 667 ns a signal needs for 200 m) and back on inside
    /// the frame's airtime gets an end edge for a signal it never tracked;
    /// that used to be an `expect` in the PHY.
    #[test]
    fn resume_inside_a_frame_whose_start_was_gated_ignores_its_end_edge() {
        let relay = NodeId::new(1);
        let sent = data_frame_toward_the_relay();
        let faults = [
            at(sent + 0.000_000_3, FaultEvent::Pause { node: relay }),
            at(sent + 0.001, FaultEvent::Resume { node: relay }),
        ];
        let (mut sim, flow) = two_hop_flow();
        sim.load_faults(&faults);
        sim.run_until(secs(sent + 0.001));
        assert_eq!(sim.nodes[relay.index()].phy.active_receptions(), 0, "the start edge was gated");
        assert!(delivered_after(&mut sim, flow, sent + 0.001, 50) >= 50);
    }

    /// The far end of the chain senses the source's frames without decoding
    /// them, and while its MAC holds a packet — an ACK waiting out that very
    /// frame — the signal's end edge is a queued `CsEnd`. Paused mid-signal,
    /// the node's radio forgets the signal, so the edge must be dropped when
    /// it pops, like an `RxEnd`: deferred, it would sit in snapshots'
    /// `deferred` lists and be re-queued at resume for a signal nobody is
    /// tracking.
    #[test]
    fn a_sense_only_end_edge_at_a_paused_node_is_dropped_not_deferred() {
        let listener = NodeId::new(2);
        let (mut sim, flow) = two_hop_flow();
        // The one signal at the listener is the source's, 500 m away, and no
        // end edge is parked with it: it is in the queue.
        let mid_signal = |sim: &Simulator| {
            let n = &sim.nodes[listener.index()];
            sim.nodes[0].phy.is_transmitting(sim.now)
                && !n.mac.is_idle()
                && n.phy.active_receptions() == 1
                && n.phy.parked_ends().count() == 0
        };
        let mut t = 2.0;
        while !mid_signal(&sim) {
            t += 0.000_1;
            assert!(t < 2.5, "the ACK stream never had to wait out a data frame");
            sim.run_until(secs(t));
        }
        // Longer than any frame: the edge pops while the node is paused.
        let faults = [
            at(t, FaultEvent::Pause { node: listener }),
            at(t + 0.01, FaultEvent::Resume { node: listener }),
        ];
        sim.load_faults(&faults);
        sim.run_until(secs(t + 0.009));
        assert!(!sim.nodes[0].phy.is_transmitting(sim.now), "the frame has passed");
        let is_signal_end = |e: &Event| matches!(e, Event::CsEnd { .. } | Event::RxEnd { .. });
        assert!(!sim.fault.deferred().any(is_signal_end), "its end edge was not kept for later");
        sim.run_until(secs(t + 0.01));
        assert_eq!(sim.fault.deferred().count(), 0);
        assert_eq!(sim.nodes[listener.index()].phy.active_receptions(), 0);
        assert!(delivered_after(&mut sim, flow, t + 0.01, 50) >= 50);
    }

    #[test]
    fn pause_defers_and_resume_replays() {
        let faults = [
            at(2.0, FaultEvent::Pause { node: NodeId::new(1) }),
            at(4.0, FaultEvent::Resume { node: NodeId::new(1) }),
        ];
        let (report, checker, _) = faulted_chain(2, &faults, 10.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(report.delivered_segments > 10, "flow must resume after unfreeze");
    }
}
