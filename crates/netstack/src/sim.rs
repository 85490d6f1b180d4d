//! The discrete-event simulator: the `Simulator` struct, its construction,
//! the run loop and `dispatch`, and the plumbing that executes the layer
//! state machines' outputs. Per-node state lives in `node.rs`, the event
//! taxonomy in `event.rs`, scripted faults in `fault.rs`, mobility in
//! `mobility.rs`.
//!
//! What a run shows leaves through one door: every choke point builds a
//! `tracelog::TraceRecord` — only when [`Simulator::observed`] says someone
//! is watching — and hands it to [`Simulator::rec`], which writes it to the
//! installed `TraceLog` (through the log's filter) and then feeds it to the
//! installed `faultline::InvariantChecker` (unfiltered). There is no second
//! vocabulary and no site reports an occurrence twice.

use aodv::AodvOutput;
use faultline::InvariantChecker;
use mac80211::{MacOutput, MacOutputs, MediumView};
use phy::{Arrival, Channel, Edge, Link, Position, RxOutcome, TxId};
use sim_core::{EventQueue, RunPerf, SimDuration, SimRng, SimTime, TieOrder, TraceHash};
use tcp::{Sender, TcpOutput, TcpReceiver, Transport};
use tracelog::{PacketKind, TraceLog, TraceRecord};
use wire::{FlowId, FrameKind, MacFrame, NodeId, Packet, Payload, TcpSegment, TcpSegmentKind};

use crate::event::{Event, Owner};
use crate::fault::FaultState;
use crate::mobility::{decode_movements, encode_movements, Movement};
use crate::node::Node;
use crate::{FlowReport, FlowSpec, NodeSummary, SimConfig, TcpVariant};

/// How often each node samples channel utilisation, queue length and the
/// MAC's retry ratio for its DRAI computer.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// The simulator: a set of nodes on a shared radio channel plus the global
/// event loop.
///
/// # Example
///
/// ```
/// use netstack::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
/// use sim_core::SimTime;
///
/// let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
/// let (src, dst) = topology::chain_flow(2);
/// let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
/// sim.run_until(SimTime::from_secs_f64(2.0));
/// let report = sim.flow_report(flow);
/// assert!(report.delivered_segments > 0);
/// ```
pub struct Simulator {
    pub(crate) cfg: SimConfig,
    pub(crate) channel: Channel,
    pub(crate) nodes: Vec<Node>,
    pub(crate) events: EventQueue<Event>,
    pub(crate) rng: SimRng,
    pub(crate) now: SimTime,
    next_tx_id: u64,
    pub(crate) flows: Vec<Flow>,
    /// The movement each node is executing, indexed by node.
    pub(crate) movements: Vec<Option<Movement>>,
    /// Whether a `MobilityTick` for the node is queued or deferred at its
    /// paused radio: one tick chain per node. Not in snapshots; a restore
    /// reads it off the queue.
    pub(crate) ticking: Vec<bool>,
    trace_hash: TraceHash,
    /// Structured trace log, the first consumer of [`Self::rec`]. A pure
    /// observer: recording never changes simulation behaviour, and with no
    /// observer installed a choke point pays one [`Self::observed`] test.
    pub(crate) log: Option<TraceLog>,
    /// Runtime invariant checker, the second consumer of [`Self::rec`]: fed
    /// every record, whatever the log's filter keeps.
    checker: Option<InvariantChecker>,
    /// Tie-order hook for the model-checking explorer: when installed,
    /// same-instant ties inside its window are broken by its decision
    /// vector instead of FIFO. `None` costs one branch per pop.
    tie_order: Option<TieOrder>,
    /// Everything a loaded fault scenario has changed.
    pub(crate) fault: FaultState,
    /// Deterministic work counters for this run (virtual events only).
    pub(crate) perf: RunPerf,
}

/// One TCP agent/sink pair (paper Table 5.2): the spec it was added with,
/// the sender at `spec.src` and the receiver at `spec.dst`. Which node hosts
/// an endpoint, and what either was configured with, is the spec's to say
/// and nobody else's: a segment or timer naming another node finds no
/// endpoint, and the snapshot writes the spec once, ahead of both records.
pub(crate) struct Flow {
    pub(crate) spec: FlowSpec,
    pub(crate) sender: Sender,
    pub(crate) receiver: TcpReceiver,
}

impl Simulator {
    /// Creates a simulator with one node per position.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty, or on a part of `cfg` the constructor
    /// it feeds refuses ([`SimConfig`] names them; every node builds each).
    pub fn new(positions: Vec<Position>, cfg: SimConfig) -> Self {
        assert!(!positions.is_empty(), "need at least one node");
        let mut rng = SimRng::new(cfg.seed);
        let channel = Channel::new(positions, cfg.radio);
        let nodes: Vec<Node> = (0..channel.node_count())
            .map(|i| Node::new(NodeId::from_index(i), &cfg, &mut rng))
            .collect();
        let mut events = EventQueue::new();
        events.push(SimTime::ZERO + SAMPLE_INTERVAL, Event::Sample);
        Simulator {
            cfg,
            channel,
            fault: FaultState::new(nodes.len()),
            movements: vec![None; nodes.len()],
            ticking: vec![false; nodes.len()],
            nodes,
            events,
            rng,
            now: SimTime::ZERO,
            next_tx_id: 0,
            flows: Vec::new(),
            trace_hash: TraceHash::new(),
            log: None,
            checker: None,
            tie_order: None,
            perf: RunPerf::default(),
        }
    }

    /// Registers a flow; its FTP source starts at `spec.start`.
    ///
    /// # Panics
    ///
    /// Panics if src or dst is out of range or src equals dst.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.src.index() < self.nodes.len(), "flow src out of range");
        assert!(spec.dst.index() < self.nodes.len(), "flow dst out of range");
        assert_ne!(spec.src, spec.dst, "flow endpoints must differ");
        let flow = FlowId::from_index(self.flows.len());
        let sender = Sender::new(flow, spec.variant, spec.tcp, spec.vegas, spec.muzha_cadence);
        let receiver = TcpReceiver::new(flow, spec.variant == TcpVariant::Sack);
        self.schedule(spec.start.max(self.now), Event::FlowStart { flow });
        self.flows.push(Flow { spec, sender, receiver });
        flow
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Running digest of every event dispatched so far (order- and
    /// content-sensitive). Two simulators built from the same topology,
    /// config and seed must report identical digests after identical
    /// `run_until` calls — the runtime twin of the static determinism policy
    /// (the root `clippy.toml`).
    /// Compare digests with [`sim_core::twin_run`].
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash.digest()
    }

    // ------------------------------------------------------------------
    // Tie ordering (crates/faultline)
    // ------------------------------------------------------------------

    /// Installs a tie-order hook: every event is popped through
    /// [`TieOrder::pop`], so same-instant scheduler ties inside the hook's
    /// window are broken by its decision vector instead of FIFO. With an
    /// empty vector the hook is behaviourally inert — it records the size
    /// of each tie run it saw but every choice stays at the FIFO head,
    /// reproducing the plain run bit for bit. Replaces any previous hook.
    pub fn install_tie_order(&mut self, order: TieOrder) {
        self.tie_order = Some(order);
    }

    /// Removes and returns the tie-order hook with its recorded choice log.
    pub fn take_tie_order(&mut self) -> Option<TieOrder> {
        self.tie_order.take()
    }

    // ------------------------------------------------------------------
    // Observation: one record stream, two consumers (crates/tracelog,
    // crates/faultline)
    // ------------------------------------------------------------------

    /// Installs a structured trace log fed from the simulator's choke
    /// points. Recording is a pure observation: twin runs with and without
    /// a log installed dispatch byte-identical event streams. Replaces any
    /// previously installed log.
    pub fn install_trace_log(&mut self, log: TraceLog) {
        self.log = Some(log);
    }

    /// Removes and returns the trace log, if one is installed.
    pub fn take_trace_log(&mut self) -> Option<TraceLog> {
        self.log.take()
    }

    /// A borrow of the installed trace log, if any.
    pub fn trace_log(&self) -> Option<&TraceLog> {
        self.log.as_ref()
    }

    /// Installs a runtime invariant checker fed every record this simulator
    /// builds from here on. Replaces any previous checker.
    pub fn install_checker(&mut self, checker: InvariantChecker) {
        self.checker = Some(checker);
    }

    /// Whether anyone is watching: a record is worth building only then.
    #[inline]
    pub(crate) fn observed(&self) -> bool {
        self.log.is_some() || self.checker.is_some()
    }

    /// Reports one observation at the current virtual time: to the log
    /// (through its filter) first, always, then to the checker (every
    /// record). A violation makes a flight-recorder log dump its ring, which
    /// therefore ends on the record that tripped the invariant.
    #[inline]
    pub(crate) fn rec(&mut self, record: TraceRecord) {
        if let Some(log) = &mut self.log {
            log.record(self.now, record);
        }
        let Some(checker) = &mut self.checker else { return };
        let before = checker.violations().len();
        checker.on_record(self.now, &record);
        if let (Some(violation), Some(log)) = (checker.violations().get(before), &mut self.log) {
            if log.is_flight_recorder() {
                log.dump(self.now, &violation.to_string());
            }
        }
    }

    /// Removes the checker, sealing it with [`InvariantChecker::finish`] at
    /// the current virtual time, and returns it for inspection.
    pub fn take_checker(&mut self) -> Option<InvariantChecker> {
        let mut checker = self.checker.take()?;
        checker.finish(self.now);
        Some(checker)
    }

    /// A borrow of the installed checker *without* sealing it. Checkpoint
    /// harnesses clone this alongside [`Self::snapshot`] — observers are not
    /// part of the snapshot, so a resumed run re-installs the clone to carry
    /// the checker's ledger across the restore boundary.
    pub fn checker(&self) -> Option<&InvariantChecker> {
        self.checker.as_ref()
    }

    /// A node's AODV counters (discoveries, RREQ/RREP/RERR sent, drops).
    pub fn aodv_stats(&self, node: NodeId) -> aodv::AodvStats {
        self.nodes[node.index()].aodv.stats()
    }

    /// Pops the next event due at or before `end`, with its `(time, seq)`
    /// key: through the tie-order hook when one is installed
    /// ([`TieOrder::pop`]), straight off the queue otherwise, in one call
    /// that looks at the head once, so an absent hook costs one branch per
    /// event.
    fn pop_event(&mut self, end: SimTime) -> Option<(SimTime, u64, Event)> {
        match &mut self.tie_order {
            Some(order) => {
                self.events.peek_time().filter(|&t| t <= end)?;
                order.pop(&mut self.events)
            }
            None => self.events.pop_due(end),
        }
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        self.events.push(at, event);
    }

    /// Runs the event loop until virtual time `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while let Some((now, seq, event)) = self.pop_event(end) {
            self.now = now;
            event.fold(&mut self.trace_hash, now);
            self.perf.events_processed += 1;
            *event.kind().layer(&mut self.perf) += 1;
            // The queue's length before this pop.
            self.perf.peak_event_queue = self.perf.peak_event_queue.max(self.events.len() + 1);
            // Bring whoever this event can read up to date with the signal
            // edges that, as queue entries, would have popped before it.
            match event.owner() {
                Owner::Node(node) => self.settle(node, now, seq),
                Owner::FlowSource(flow) => {
                    self.settle(self.flows[flow.index()].spec.src, now, seq);
                }
                Owner::Global => self.settle_all(now, seq),
            }
            self.dispatch(event);
        }
        self.now = end.max(self.now);
        // Everything due by `end` has happened before the caller looks.
        self.settle_all(self.now, u64::MAX);
    }

    /// Applies the parked signal edges due at `node` before scheduler key
    /// `(time, seq)`, in key order, behind the liveness test
    /// [`Self::gate_event`] applies to events. A start edge does what its
    /// `RxStart` event did at its own instant: note the signal in the PHY,
    /// the busy period in the utilisation tracker, the busy edge in the MAC.
    /// A parked end edge does what [`Event::CsEnd`] does where the idle
    /// edge that follows it cannot restart a countdown: forget the signal and
    /// arm EIFS. Either the MAC holds no packet, so there is no countdown,
    /// or the medium is still busy after the edge, so there is no idle edge.
    ///
    /// Such an edge reads and writes only its own node and emits nothing,
    /// and nothing reads a node between two of its own events except a
    /// `Global` one and the caller between runs, each of which settles every
    /// node first. So the node is, whenever it is looked at, in the state
    /// the never-materialised queue entries would have left it in. A MAC
    /// takes a packet only inside one of its node's own events, and takes
    /// its parked ends out of here as it does ([`Self::try_feed_mac`]).
    fn settle(&mut self, node: NodeId, time: SimTime, seq: u64) {
        let Node { phy, busy, mac, .. } = &mut self.nodes[node.index()];
        let edges = phy.settle(time, seq, self.fault.is_up(node), |radio, edge| match edge {
            Edge::Start { start, end, .. } => {
                busy.note(start, end);
                mac.on_medium_busy(start);
            }
            Edge::End { at, .. } => {
                debug_assert!(
                    mac.is_idle() || radio.carrier_busy(at),
                    "an end edge stayed parked at a MAC holding a packet on a medium going idle"
                );
                mac.on_rx_corrupted(at);
            }
        });
        self.perf.edges_settled += edges as u64;
    }

    fn settle_all(&mut self, time: SimTime, seq: u64) {
        for i in 0..self.nodes.len() {
            self.settle(NodeId::from_index(i), time, seq);
        }
    }

    /// This run's deterministic work counters so far. Timer cancellations
    /// are aggregated on demand from every layer's own tombstone counter.
    pub fn perf(&self) -> RunPerf {
        let mut perf = self.perf;
        for n in &self.nodes {
            perf.timers_cancelled += n.mac.timers_cancelled() + n.aodv.timers_cancelled();
        }
        for f in &self.flows {
            perf.timers_cancelled += f.sender.timers_cancelled();
        }
        perf
    }

    /// Report for one flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow` was never added.
    pub fn flow_report(&self, flow: FlowId) -> FlowReport {
        let Flow { spec, sender, receiver } = &self.flows[flow.index()];
        FlowReport {
            flow,
            variant: spec.variant,
            src: spec.src,
            dst: spec.dst,
            start: spec.start,
            sender: sender.stats(),
            srtt: sender.srtt(),
            delivered_segments: receiver.rcv_nxt(),
            delivered_bytes: receiver.delivered_bytes(),
        }
    }

    /// Reports for all flows, in registration order.
    pub fn all_flow_reports(&self) -> Vec<FlowReport> {
        (0..self.flows.len()).map(|i| self.flow_report(FlowId::from_index(i))).collect()
    }

    /// Everything the run produced in one bundle: all flow reports, all
    /// node summaries and the work counters.
    pub fn run_report(&self) -> crate::RunReport {
        crate::RunReport {
            flows: self.all_flow_reports(),
            nodes: self.all_node_summaries(),
            perf: self.perf(),
        }
    }

    /// Per-node drop/discovery summary.
    pub fn node_summary(&self, node: NodeId) -> NodeSummary {
        let n = &self.nodes[node.index()];
        NodeSummary {
            queue_drops: n.ifq.stats().dropped,
            mac_drops: n.mac.stats().drops,
            routing_drops: n.routing_drops,
            discoveries: n.aodv.stats().discoveries,
            collisions: n.mac.stats().rx_collisions,
        }
    }

    /// Summaries for every node.
    pub fn all_node_summaries(&self) -> Vec<NodeSummary> {
        (0..self.nodes.len()).map(|i| self.node_summary(NodeId::from_index(i))).collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn medium(&self, node: NodeId) -> MediumView {
        MediumView { busy: self.nodes[node.index()].phy.carrier_busy(self.now) }
    }

    fn dispatch(&mut self, event: Event) {
        let Some(event) = self.gate_event(event) else { return };
        match event {
            Event::RxEnd { node, tx_id, frame } => {
                let now = self.now;
                // The radio was off when this signal started, or has been
                // off since: the edge means nothing to it.
                let Some(outcome) = self.nodes[node.index()].phy.on_rx_end(tx_id, now) else {
                    return;
                };
                if self.observed() {
                    let uid = frame.packet().map(|p| p.uid);
                    let (from, kind) = (frame.src, frame.kind());
                    self.rec(match outcome {
                        RxOutcome::Decoded => TraceRecord::PhyRx {
                            node,
                            from,
                            frame: kind,
                            bytes: frame.size_bytes(),
                            uid,
                        },
                        RxOutcome::CollisionLost => {
                            TraceRecord::PhyCollision { node, from, frame: kind, uid }
                        }
                        // In range but undecodable: the channel error model
                        // corrupted it.
                        RxOutcome::NotDecodable => {
                            TraceRecord::PhyLoss { node, from, frame: kind, uid }
                        }
                    });
                }
                let medium = self.medium(node);
                // Both MAC calls are made before any output is executed.
                let mut outputs = MacOutputs::new();
                let mac = &mut self.nodes[node.index()].mac;
                match outcome {
                    RxOutcome::Decoded => {
                        mac.on_frame_decoded_into(frame, now, medium, &mut outputs);
                    }
                    // A frame lost to random channel error triggers the
                    // EIFS rule like a collision, exactly as in ns-2.
                    RxOutcome::CollisionLost | RxOutcome::NotDecodable => {
                        mac.on_rx_corrupted(now);
                    }
                }
                mac.on_medium_maybe_idle_into(now, medium, &mut outputs);
                self.process_mac_outputs(node, &mut outputs);
            }
            Event::CsEnd { node, tx_id } => {
                let now = self.now;
                if self.nodes[node.index()].phy.on_rx_end(tx_id, now).is_none() {
                    return; // as for `RxEnd`: the radio has been off
                }
                let medium = self.medium(node);
                // A sensed-but-undecodable signal triggers the EIFS rule —
                // this is what protects the CTS/ACK response windows of
                // exchanges two hops away — and is not a loss: untraced.
                let mac = &mut self.nodes[node.index()].mac;
                mac.on_rx_corrupted(now);
                let mut outputs = MacOutputs::new();
                mac.on_medium_maybe_idle_into(now, medium, &mut outputs);
                self.process_mac_outputs(node, &mut outputs);
            }
            Event::TxDone { node } => {
                let now = self.now;
                let medium = self.medium(node);
                let mut outputs = MacOutputs::new();
                self.nodes[node.index()].mac.on_tx_done_into(now, medium, &mut outputs);
                self.process_mac_outputs(node, &mut outputs);
            }
            Event::MacTimer { node, id } => {
                // Lazy cancellation: a tombstoned timer's queued event still
                // pops, but is discarded here instead of entering the MAC.
                if !self.nodes[node.index()].mac.timer_is_live(id) {
                    self.perf.timers_stale_popped += 1;
                    return;
                }
                let now = self.now;
                let medium = self.medium(node);
                let mut outputs = MacOutputs::new();
                self.nodes[node.index()].mac.on_timer_into(id, now, medium, &mut outputs);
                self.process_mac_outputs(node, &mut outputs);
            }
            Event::AodvTimer { node, id } => {
                if !self.nodes[node.index()].aodv.timer_is_live(id) {
                    self.perf.timers_stale_popped += 1;
                    return;
                }
                let now = self.now;
                let outputs = self.nodes[node.index()].aodv.on_timer(id, now);
                self.process_aodv_outputs(node, outputs);
            }
            Event::TcpTimer { node, flow, id } => {
                let Some(f) = self.flows.get(flow.index()).filter(|f| f.spec.src == node) else {
                    return;
                };
                if !f.sender.timer_is_live(id) {
                    self.perf.timers_stale_popped += 1;
                    return;
                }
                self.drive_sender(node, flow, SenderCall::Timer(id));
            }
            Event::JitteredEnqueue { node, packet, next_hop } => {
                self.enqueue_ifq(node, packet, next_hop);
            }
            Event::MobilityTick { node } => self.mobility_tick(node),
            Event::FlowStart { flow } => {
                let src = self.flows[flow.index()].spec.src;
                self.drive_sender(src, flow, SenderCall::Open);
            }
            Event::Sample => {
                let now = self.now;
                for n in &mut self.nodes {
                    let util = n.busy.sample(now);
                    n.router.drai_mut().observe_utilisation(util);
                    let len = n.ifq.len();
                    n.router.drai_mut().observe_queue(len, now);
                    // Retry ratio over this window: failed handshakes per
                    // transmission attempt.
                    let mac = n.mac.stats();
                    let attempts = mac.rts_sent + mac.data_sent;
                    let failures = mac.cts_timeouts + mac.ack_timeouts;
                    let (prev_attempts, prev_failures) = n.retry_baseline;
                    let tried = attempts.saturating_sub(prev_attempts);
                    let failed = failures.saturating_sub(prev_failures);
                    if tried > 0 {
                        n.router.drai_mut().observe_retry_ratio(failed as f64 / tried as f64);
                    }
                    n.retry_baseline = (attempts, failures);
                }
                self.schedule(now + SAMPLE_INTERVAL, Event::Sample);
            }
            Event::Fault { index } => self.apply_fault(index),
        }
    }

    // ------------------------------------------------------------------
    // Output processing
    // ------------------------------------------------------------------

    /// Executes a batch where it was filled: the caller built it on its own
    /// stack frame and lent it to the MAC (DESIGN §9.5), so the elements
    /// leave it here one at a time and the batch itself is never moved.
    /// [`MacOutput::ReadyForNext`] re-enters through [`Self::try_feed_mac`],
    /// which builds its own.
    fn process_mac_outputs(&mut self, node: NodeId, outputs: &mut MacOutputs) {
        for output in outputs.drain() {
            match output {
                MacOutput::Transmit { frame, airtime } => self.transmit(node, frame, airtime),
                MacOutput::SetTimer { id, at } => {
                    self.schedule(at, Event::MacTimer { node, id });
                }
                MacOutput::Deliver { packet, from } => {
                    let now = self.now;
                    if self.observed() {
                        self.rec(TraceRecord::RtrRecv {
                            node,
                            kind: PacketKind::of(&packet),
                            uid: packet.uid,
                            flow: packet.tcp().map(|s| s.flow),
                            bytes: packet.size_bytes(),
                        });
                    }
                    let outs = self.nodes[node.index()].aodv.on_packet_received(packet, from, now);
                    self.process_aodv_outputs(node, outs);
                }
                MacOutput::TxSuccess { .. } => {
                    // Forwarding succeeded; nothing further to do (stats are
                    // tracked inside the MAC).
                }
                MacOutput::TxFailed { packet, next_hop } => {
                    let now = self.now;
                    self.rec(TraceRecord::MacRetryDrop { node, next_hop, uid: packet.uid });
                    let outs = self.nodes[node.index()].aodv.on_link_failure(packet, next_hop, now);
                    self.process_aodv_outputs(node, outs);
                }
                MacOutput::Backoff { slots, cw } => {
                    self.rec(TraceRecord::MacBackoff { node, slots, cw });
                }
                MacOutput::ReadyForNext => self.try_feed_mac(node),
            }
        }
    }

    pub(crate) fn process_aodv_outputs(
        &mut self,
        node: NodeId,
        outputs: impl IntoIterator<Item = AodvOutput>,
    ) {
        for output in outputs {
            match output {
                AodvOutput::Forward { packet, next_hop } => {
                    if self.observed() {
                        let kind = PacketKind::of(&packet);
                        let route_valid_until = if kind == PacketKind::TcpData
                            && !next_hop.is_broadcast()
                        {
                            self.nodes[node.index()].aodv.route_valid_until(packet.dst, self.now)
                        } else {
                            None
                        };
                        self.rec(TraceRecord::RtrForward {
                            node,
                            next_hop,
                            kind,
                            uid: packet.uid,
                            flow: packet.tcp().map(|s| s.flow),
                            bytes: packet.size_bytes(),
                            ttl: packet.ttl,
                            origin: packet.src == node,
                            route_valid_until,
                        });
                    }
                    if next_hop.is_broadcast() {
                        // ns-2's AODV jitters every flood (re)broadcast by
                        // up to 10 ms; without it all neighbours of a
                        // broadcaster fire after exactly DIFS and collide
                        // deterministically.
                        let jitter =
                            sim_core::SimDuration::from_micros(u64::from(self.rng.below(10_000)));
                        self.schedule(
                            self.now + jitter,
                            Event::JitteredEnqueue { node, packet, next_hop },
                        );
                    } else {
                        self.enqueue_ifq(node, packet, next_hop);
                    }
                }
                AodvOutput::DeliverLocal(packet) => self.deliver_transport(node, packet),
                AodvOutput::SetTimer { id, at } => {
                    self.schedule(at, Event::AodvTimer { node, id });
                }
                AodvOutput::Dropped { packet, .. } => {
                    self.nodes[node.index()].routing_drops += 1;
                    let uid = packet.uid;
                    if self.observed() {
                        self.rec(TraceRecord::RtrDrop {
                            node,
                            kind: PacketKind::of(&packet),
                            uid,
                            flow: packet.tcp().map(|s| s.flow),
                        });
                    }
                }
                AodvOutput::RouteChange { dst, next_hop, hop_count, valid } => {
                    self.rec(TraceRecord::RtrRouteChange {
                        node,
                        dst,
                        next_hop,
                        hops: u32::from(hop_count),
                        valid,
                    });
                }
            }
        }
    }

    /// Makes one call into `flow`'s sender at `node` — none if the flow has
    /// no sender there — and executes what it asks for.
    ///
    /// A sender moves its window only inside such a call, so the window
    /// curve is written here: one [`TraceRecord::TcpCwnd`] after the call's
    /// own records when the window it leaves differs from the one it found,
    /// and always for [`SenderCall::Open`] (the curve's first point). The
    /// sender keeps no history; a log installed mid-run starts at the next
    /// move. These are also the records the checker's `tcp-cwnd-sane` reads:
    /// a window that did not move was judged when it last did.
    fn drive_sender(&mut self, node: NodeId, flow: FlowId, call: SenderCall<'_>) {
        let now = self.now;
        let Some(f) = self.flows.get_mut(flow.index()).filter(|f| f.spec.src == node) else {
            return;
        };
        let (dst, before) = (f.spec.dst, f.sender.cwnd());
        let outputs = match call {
            SenderCall::Open => f.sender.open(now),
            SenderCall::Ack(segment) => f.sender.on_ack_segment(segment, now),
            SenderCall::Timer(id) => f.sender.on_timer(id, now),
        };
        let opening = matches!(call, SenderCall::Open);
        for output in outputs {
            match output {
                TcpOutput::SendSegment(segment) => {
                    let uid = self.nodes[node.index()].uid.next();
                    match segment.kind {
                        TcpSegmentKind::Data { seq, retransmit, .. } => {
                            let bytes = segment.size_bytes();
                            self.rec(TraceRecord::TcpSend {
                                node,
                                flow,
                                seq,
                                uid,
                                bytes,
                                retransmit,
                            });
                        }
                        TcpSegmentKind::Ack { .. } => self.rec_ack_tx(node, flow, uid, &segment),
                    }
                    let packet = Packet::new(uid, node, dst, Payload::Tcp(segment));
                    self.route_local(node, packet);
                }
                TcpOutput::SetTimer { id, at } => {
                    self.schedule(at, Event::TcpTimer { node, flow, id });
                }
            }
        }
        if !self.observed() {
            return;
        }
        let tx = &self.flows[flow.index()].sender;
        let cwnd = tx.cwnd();
        if opening || cwnd != before {
            let (ssthresh, srtt, rto, phase) = (tx.ssthresh(), tx.srtt(), tx.rto(), tx.phase());
            self.rec(TraceRecord::TcpCwnd { node, flow, cwnd, ssthresh, srtt, rto, phase });
        }
    }

    /// Puts an ACK leaving `node` on record.
    fn rec_ack_tx(&mut self, node: NodeId, flow: FlowId, uid: u64, segment: &TcpSegment) {
        if let TcpSegmentKind::Ack { ack, mrai, .. } = segment.kind {
            self.rec(TraceRecord::TcpAckTx { node, flow, ack, uid, mrai });
        }
    }

    /// Routes a locally-originated packet through AODV.
    fn route_local(&mut self, node: NodeId, packet: Packet) {
        let now = self.now;
        let outs = self.nodes[node.index()].aodv.route_packet(packet, now);
        self.process_aodv_outputs(node, outs);
    }

    /// Enqueues a packet on the node's IFQ, applying the Muzha router agent
    /// (DRAI fold + congestion marking) on the way in.
    fn enqueue_ifq(&mut self, node: NodeId, mut packet: Packet, next_hop: NodeId) {
        let now = self.now;
        if self.fault.blackholed(node) {
            // A scripted blackhole eats the packet with no feedback at all;
            // the checker accounts it as a fault drop, not congestion.
            let uid = packet.uid;
            self.rec(TraceRecord::FaultDrop { node, uid });
            return;
        }
        if let Some(cap) = self.fault.saturate_cap(node) {
            if self.nodes[node.index()].ifq.len() >= cap {
                let uid = packet.uid;
                let flow = packet.tcp().map(|s| s.flow);
                self.nodes[node.index()].router.drai_mut().note_congestion_drop(now);
                self.rec(TraceRecord::IfqDrop { node, uid, flow });
                self.try_feed_mac(node);
                return;
            }
        }
        let (shed, uid, flow, avbw, marked, depth) = {
            let n = &mut self.nodes[node.index()];
            n.router.process_packet(&mut packet, now);
            let priority = packet.is_control();
            let uid = packet.uid;
            let flow = packet.tcp().map(|s| s.flow);
            let avbw = packet.tcp().and_then(|s| s.avbw());
            let marked = packet.tcp().is_some_and(|s| s.congestion_marked());
            let shed = n.ifq.push(packet, next_hop, priority);
            if shed.is_some() {
                // Congestion drop: future packets get marked (paper §4.7).
                n.router.drai_mut().note_congestion_drop(now);
            }
            let len = n.ifq.len();
            n.router.drai_mut().observe_queue(len, now);
            (shed, uid, flow, avbw, marked, len)
        };
        self.perf.peak_ifq_depth = self.perf.peak_ifq_depth.max(depth);
        match shed {
            None => {
                if self.observed() {
                    let depth = u32::try_from(depth).unwrap_or(u32::MAX);
                    self.rec(TraceRecord::IfqEnqueue { node, uid, flow, depth, avbw, marked });
                }
            }
            Some(shed) => {
                // The shed packet can differ from the arrival (priority
                // eviction), so trace its own identity.
                let uid = shed.uid;
                let flow = shed.tcp().map(|s| s.flow);
                self.rec(TraceRecord::IfqDrop { node, uid, flow });
            }
        }
        self.try_feed_mac(node);
    }

    /// Moves the head-of-line packet into an idle MAC.
    fn try_feed_mac(&mut self, node: NodeId) {
        let now = self.now;
        let medium = self.medium(node);
        let n = &mut self.nodes[node.index()];
        if !n.mac.is_idle() {
            return;
        }
        let Some((packet, next_hop)) = n.ifq.pop() else { return };
        let len = n.ifq.len();
        n.router.drai_mut().observe_queue(len, now);
        // From here until the packet leaves, an idle edge can restart
        // this MAC's countdown, and the timer that arms takes its seq
        // from the moment it is pushed: each end edge still parked here
        // must pop at its own key. They are all ahead of this event's.
        let events = &mut self.events;
        n.phy.unpark_ends(|end, seq, tx_id| {
            events.push_reserved(end, seq, Event::CsEnd { node, tx_id });
        });
        let mut outputs = MacOutputs::new();
        n.mac.start_packet_into(packet, next_hop, now, medium, &mut outputs);
        self.process_mac_outputs(node, &mut outputs);
    }

    /// Puts a frame on the air: marks the PHY, announces the signal to every
    /// node in carrier-sense range and sees to its end there, and schedules
    /// the sender's TxDone. The frame takes one block of sequence numbers:
    /// per listener, in carrier-sense-row order, one for the start edge and
    /// the next for the end edge — as a queued [`Event::RxEnd`] where the
    /// frame can be decoded; where it cannot, parked with the signal if the
    /// listener's MAC holds no packet or its medium is sure to be busy past
    /// the edge anyway ([`Self::parks_end`]), and otherwise a queued
    /// [`Event::CsEnd`] — and the last for the TxDone. Every queued entry
    /// keeps the `(time, seq)` key it had when each was pushed in turn.
    ///
    /// Loss draws and announcements go in row order, as the RNG and the keys
    /// require. The queue entries are filed in key order instead: the TxDone
    /// first (no end reaches a listener before the sender stops), then the
    /// ends by propagation delay, so each lands at its bucket's tail rather
    /// than walking back past the ends of nearer listeners.
    ///
    /// What a listener's share of this depends on besides the frame and the
    /// run — delay, power, whether it can decode, the delay order — is the
    /// channel's business and changes only when the channel does: it is read
    /// off the sender's link row (DESIGN §9.5), never derived here.
    fn transmit(&mut self, sender: NodeId, frame: MacFrame, airtime: sim_core::SimDuration) {
        let now = self.now;
        if self.observed() {
            let mac = &self.nodes[sender.index()].mac;
            self.rec(TraceRecord::PhyTx {
                node: sender,
                dst: frame.dst,
                frame: frame.kind(),
                bytes: frame.size_bytes(),
                uid: frame.packet().map(|p| p.uid),
                airtime,
                cw: mac.current_cw(),
                nav_ahead: mac.nav_ahead(now),
            });
        }
        let end = now + airtime;
        self.nodes[sender.index()].phy.begin_transmit(now, end);
        self.nodes[sender.index()].busy.note(now, end);
        let tx_id = TxId(self.next_tx_id);
        self.next_tx_id += 1;
        let loss_p = self.cfg.radio.per_frame_loss;
        // Random channel loss applies to data frames only.
        let lossy = frame.kind() == FrameKind::Data;
        // The row leaves the channel for the loops: nothing in them writes
        // the channel, and they need the rest of `self`.
        let row = self.channel.take_links(sender);
        let listeners = row.links().len() as u64;
        let block = self.events.reserve_seqs(2 * listeners + 1);
        // The listener at row position `at` starts under `start_seq(at)` and
        // ends under the next; the TxDone takes the block's last number.
        let start_seq = |at: usize| block + 2 * at as u64;
        for (at, link) in row.links().iter().enumerate() {
            let Link { peer: nb, power, in_rx_range, .. } = *link;
            let corrupted = in_rx_range && lossy && self.frame_lost(nb, loss_p);
            let decodable = in_rx_range && !corrupted;
            let rx_start = now + link.prop();
            let rx_end = rx_start + airtime;
            let seq = start_seq(at);
            let parks = !in_rx_range && self.parks_end(nb, rx_end, seq + 1);
            let parked_end = parks.then_some(seq + 1);
            let edge =
                Arrival { start: rx_start, seq, tx_id, end: rx_end, decodable, power, parked_end };
            self.nodes[nb.index()].phy.announce(edge);
        }
        self.events.push_reserved(end, block + 2 * listeners, Event::TxDone { node: sender });
        for (at, link) in row.in_delay_order() {
            let (node, rx_end) = (link.peer, now + link.prop() + airtime);
            if link.in_rx_range {
                let event = Event::RxEnd { node, tx_id, frame: frame.clone() };
                self.events.push_reserved(rx_end, start_seq(at) + 1, event);
            } else if !self.parks_end(node, rx_end, start_seq(at) + 1) {
                self.events.push_reserved(rx_end, start_seq(at) + 1, Event::CsEnd { node, tx_id });
            }
        }
        self.channel.put_links(sender, row);
    }

    /// Whether the end edge of a signal `node` senses and cannot decode,
    /// keyed `(end, seq)`, waits in its PHY instead of the queue: when the
    /// edge can restart no countdown — the MAC holds no packet, or the PHY
    /// already knows a signal or a transmission of its own lasting past the
    /// edge ([`phy::PhyState::covers`]), so the medium is still busy just
    /// after it (DESIGN §9.4). [`Self::transmit`] asks twice per listener,
    /// once as it announces the signal and once as it files the end edges;
    /// nothing between the two changes the answer, and an announced signal
    /// does not cover its own end.
    fn parks_end(&self, node: NodeId, end: SimTime, seq: u64) -> bool {
        let listener = &self.nodes[node.index()];
        listener.mac.is_idle() || listener.phy.covers(end, seq)
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

/// The three calls the driver makes into a sender: `Transport::open`,
/// `on_ack_segment` and `on_timer`.
#[derive(Clone, Copy)]
enum SenderCall<'a> {
    Open,
    Ack(&'a TcpSegment),
    Timer(tcp::TcpTimer),
}

impl Simulator {
    /// Hands a packet that reached its final destination to the transport
    /// layer (data → receiver → ACK back; ACK → sender).
    fn deliver_transport(&mut self, node: NodeId, packet: Packet) {
        let now = self.now;
        let uid = packet.uid;
        let Some(segment) = packet.tcp() else { return };
        let flow = segment.flow;
        match segment.kind {
            TcpSegmentKind::Data { seq, avbw, marked, .. } => {
                // The endpoint first: a segment may name any flow at all, and
                // only the flow's own destination has its receiver.
                let receiving = self.flows.get_mut(flow.index()).filter(|f| f.spec.dst == node);
                let absorbed = receiving.map(|f| {
                    let ack = f.receiver.on_data_segment(segment, now);
                    (ack, f.receiver.rcv_nxt())
                });
                let rcv_nxt_after = absorbed.as_ref().map(|&(_, rcv_nxt)| rcv_nxt);
                self.rec(TraceRecord::TcpRecvData {
                    node,
                    flow,
                    seq,
                    uid,
                    avbw,
                    marked,
                    rcv_nxt_after,
                });
                let Some((segment, _)) = absorbed else { return };
                let uid = self.nodes[node.index()].uid.next();
                self.rec_ack_tx(node, flow, uid, &segment);
                self.route_local(node, Packet::new(uid, node, packet.src, Payload::Tcp(segment)));
            }
            TcpSegmentKind::Ack { ack, mrai, .. } => {
                self.rec(TraceRecord::TcpRecvAck { node, flow, ack, uid, mrai });
                self.drive_sender(node, flow, SenderCall::Ack(segment));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Snapshot / restore (DESIGN.md §11)
// ----------------------------------------------------------------------

impl Simulator {
    /// Fingerprint of the run's immutable configuration: the `Debug`
    /// rendering of [`SimConfig`] plus the node count, folded through the
    /// trace hash. Snapshots embed it because the configuration itself is
    /// *not* serialized — [`Self::restore`] targets a simulator rebuilt with
    /// the same config, and refuses bytes taken under a different one.
    /// Placement needs no gate: positions and movements are in the bytes.
    fn cfg_fingerprint(&self) -> u64 {
        let mut h = TraceHash::new();
        h.write_str(&format!("{:?}", self.cfg)).write_u64(self.nodes.len() as u64);
        h.digest()
    }

    /// Serializes the complete mutable simulation state — event queue, RNG,
    /// trace-hash accumulator, every layer of every node, flow transports,
    /// mobility, fault state and work counters — into the versioned snapshot
    /// format. Observers (trace log, checker, tie-order hook) are
    /// not part of the simulation state and are not captured.
    ///
    /// A restore of these bytes into a freshly built simulator with the same
    /// topology, config and flow set continues the run bit-identically: same
    /// trace hash, same perf counters, same trace records.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = sim_core::SnapshotWriter::with_header();
        w.put_u64(self.cfg_fingerprint());
        w.put(&self.now);
        w.put_u64(self.next_tx_id);
        w.put(&self.rng);
        w.put(&self.trace_hash);
        w.put_usize(self.flows.len());
        for flow in &self.flows {
            w.put(&flow.spec);
            flow.sender.encode_state(&mut w);
            flow.receiver.encode_state(&mut w);
        }
        w.put(&self.events);
        self.channel.encode_state(&mut w);
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            node.encode_state(&mut w);
        }
        encode_movements(&self.movements, &mut w);
        w.put(&self.fault);
        w.put(&self.perf);
        w.finish()
    }

    /// Restores state captured by [`Self::snapshot`] into this simulator.
    ///
    /// The simulator must have been built with the same [`SimConfig`] and
    /// node count as the one that produced the bytes (checked via the
    /// embedded fingerprint). Everything mutable is overwritten; installed
    /// observers (trace log, checker, tie-order hook) are left as
    /// they are. All decoding completes before any state is touched, so a
    /// failed restore leaves the simulator unchanged.
    ///
    /// # Errors
    ///
    /// Any [`sim_core::SnapError`]: truncated or trailing bytes, a foreign
    /// or version-bumped header, out-of-domain fields, or a configuration
    /// fingerprint mismatch.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), sim_core::SnapError> {
        let mut r = sim_core::SnapshotReader::with_header(bytes)?;
        let fingerprint = r.take_u64()?;
        let own = self.cfg_fingerprint();
        if fingerprint != own {
            return Err(sim_core::SnapError::Mismatch(format!(
                "snapshot config fingerprint {fingerprint:#018x} != simulator's {own:#018x}"
            )));
        }
        let now: SimTime = r.get()?;
        let next_tx_id = r.take_u64()?;
        let rng: SimRng = r.get()?;
        let trace_hash: TraceHash = r.get()?;
        // Each flow's endpoints decode around its spec, which says what
        // either was configured with.
        let mut flows = Vec::new();
        for i in 0..r.take_usize()? {
            let (id, spec): (FlowId, FlowSpec) = (FlowId::from_index(i), r.get()?);
            let FlowSpec { variant, tcp, vegas, muzha_cadence, .. } = spec;
            let sender = Sender::decode_state(&mut r, id, variant, tcp, vegas, muzha_cadence)?;
            let receiver = TcpReceiver::decode_state(&mut r, id, variant == TcpVariant::Sack)?;
            flows.push(Flow { spec, sender, receiver });
        }
        let events: EventQueue<Event> = r.get()?;
        let channel = Channel::decode_state(&mut r, self.cfg.radio)?;
        let node_count = r.take_usize()?;
        if node_count != self.nodes.len() || channel.node_count() != node_count {
            return Err(sim_core::SnapError::Invalid("node count mismatch"));
        }
        for Flow { spec, .. } in &flows {
            if spec.src.index() >= node_count || spec.dst.index() >= node_count {
                return Err(sim_core::SnapError::Invalid("flow endpoint out of range"));
            }
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(Node::decode_state(&mut r, &self.cfg)?);
        }
        for edge in nodes.iter().flat_map(|n| n.phy.pending()) {
            if edge.start <= now {
                return Err(sim_core::SnapError::Invalid("pending arrival not after now"));
            }
            if edge.seq >= events.next_seq() {
                return Err(sim_core::SnapError::Invalid("pending arrival seq from the future"));
            }
        }
        // A parked end edge is one `settle` has yet to apply — later than
        // `now`, under a seq already issued — at a MAC with no packet to
        // contend for (taking one unparks them all), or at one whose medium
        // is sure to be busy just after the edge.
        for node in &nodes {
            for (_, end, seq) in node.phy.parked_ends() {
                if end <= now {
                    return Err(sim_core::SnapError::Invalid("parked end not after now"));
                }
                if seq >= events.next_seq() {
                    return Err(sim_core::SnapError::Invalid("parked end seq from the future"));
                }
                if !node.mac.is_idle() && !node.phy.covers(end, seq) {
                    return Err(sim_core::SnapError::Invalid(
                        "uncovered parked end at a MAC holding a packet",
                    ));
                }
            }
        }
        let movements = decode_movements(&mut r, node_count)?;
        let fault: FaultState = r.get()?;
        if fault.node_count() != node_count {
            return Err(sim_core::SnapError::Invalid("fault state node count"));
        }
        let faults = fault.scripted_count();
        for event in events.iter().chain(fault.deferred()) {
            if !event.in_range(node_count, flows.len(), faults) {
                return Err(sim_core::SnapError::Invalid("queued event index out of range"));
            }
            // One signal ends once at one listener: by an event or parked.
            if let Event::RxEnd { node, tx_id, .. } | Event::CsEnd { node, tx_id } = event {
                if nodes[node.index()].phy.parked_ends().any(|(parked, ..)| parked == *tx_id) {
                    return Err(sim_core::SnapError::Invalid("signal end both parked and queued"));
                }
            }
        }
        let mut ticking = vec![false; node_count];
        for event in events.iter().chain(fault.deferred()) {
            if let Event::MobilityTick { node } = event {
                ticking[node.index()] = true;
            }
        }
        let perf: RunPerf = r.get()?;
        r.finish()?;
        self.now = now;
        self.next_tx_id = next_tx_id;
        self.rng = rng;
        self.trace_hash = trace_hash;
        self.flows = flows;
        self.events = events;
        self.channel = channel;
        self.nodes = nodes;
        self.movements = movements;
        self.ticking = ticking;
        self.fault = fault;
        self.perf = perf;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn run_chain(hops: usize, variant: TcpVariant, duration: f64) -> (FlowReport, Simulator) {
        let mut sim = Simulator::new(topology::chain(hops), SimConfig::default());
        let (src, dst) = topology::chain_flow(hops);
        let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
        sim.run_until(secs(duration));
        (sim.flow_report(flow), sim)
    }

    /// One listener's share of `transmit` for a frame from a sender the test
    /// does not model: the start edge parked under the next sequence number,
    /// the end edge queued under the one after.
    fn signal_from_nowhere(sim: &mut Simulator, node: NodeId, start: SimTime) -> SimTime {
        let end = start + sim.cfg.mac.control_airtime(14);
        signal_from_nowhere_until(sim, node, start, end);
        end
    }

    /// The same for a signal on the air from `start` to `end`.
    fn signal_from_nowhere_until(sim: &mut Simulator, node: NodeId, start: SimTime, end: SimTime) {
        let tx_id = TxId(sim.next_tx_id);
        sim.next_tx_id += 1;
        let seq = sim.events.reserve_seq();
        let parked_end = None;
        let edge = Arrival { start, seq, tx_id, end, decodable: true, power: 1.0, parked_end };
        sim.nodes[node.index()].phy.announce(edge);
        let frame = MacFrame {
            src: NodeId::new(7),
            dst: NodeId::new(8),
            body: wire::FrameBody::Control(FrameKind::Ack),
            nav_until_nanos: 0,
        };
        sim.schedule(end, Event::RxEnd { node, tx_id, frame });
    }

    /// The same for a signal `node` can sense and not decode: with `park`
    /// the end edge goes where `transmit` puts it — with the signal under
    /// its reserved number at a MAC that holds no packet or under cover,
    /// into the queue otherwise; without, it is the queued `CsEnd` a MAC
    /// holding a packet got before the cover rule. Either way it takes the
    /// same two sequence numbers.
    fn sensed_from_nowhere(
        sim: &mut Simulator,
        node: NodeId,
        start: SimTime,
        park: bool,
    ) -> SimTime {
        let tx_id = TxId(sim.next_tx_id);
        sim.next_tx_id += 1;
        let end = start + sim.cfg.mac.control_airtime(14);
        let seq = sim.events.reserve_seqs(2);
        let parked_end = (park && sim.parks_end(node, end, seq + 1)).then_some(seq + 1);
        if parked_end.is_none() {
            sim.events.push_reserved(end, seq + 1, Event::CsEnd { node, tx_id });
        }
        let power = 1.0 / 16.0;
        let edge = Arrival { start, seq, tx_id, end, decodable: false, power, parked_end };
        sim.nodes[node.index()].phy.announce(edge);
        end
    }

    /// Hands `node`'s idle MAC a broadcast: with nothing to defer to, its
    /// attempt timer is queued for exactly one DIFS from now.
    fn start_a_broadcast(sim: &mut Simulator, node: NodeId) {
        let rerr = Payload::Aodv(wire::AodvMessage::Rerr(wire::RouteError { unreachable: vec![] }));
        let packet = Packet::new(1, node, NodeId::BROADCAST, rerr);
        sim.enqueue_ifq(node, packet, NodeId::BROADCAST);
    }

    /// A signal edge and a `MacTimer` on the same nanosecond at one node
    /// resolve by sequence number, as two queue entries would have: the
    /// timer scheduled first fires on an idle medium, transmits, and the
    /// edge then finds a radio that is sending.
    #[test]
    fn a_timer_queued_before_a_same_instant_signal_edge_transmits_over_it() {
        let mut sim = Simulator::new(topology::chain(1), SimConfig::default());
        let node = NodeId::new(0);
        let tie = SimTime::ZERO + sim.cfg.mac.difs();
        start_a_broadcast(&mut sim, node);
        assert_eq!(sim.events.peek_time(), Some(tie), "the attempt timer");
        let signal_end = signal_from_nowhere(&mut sim, node, tie);
        sim.run_until(tie);
        let n = &sim.nodes[node.index()];
        assert_eq!(n.mac.stats().data_sent, 1, "the timer came first and saw an idle medium");
        assert!(n.phy.is_transmitting(tie));
        assert!(n.phy.pending().is_empty(), "the run's end settles the edge at its own instant");
        sim.run_until(signal_end);
        assert_eq!(sim.nodes[node.index()].mac.stats().rx_collisions, 1, "half duplex");
        assert_eq!(sim.perf().timers_stale_popped, 0);
    }

    /// The other push order: the edge comes first, freezes the countdown and
    /// tombstones the timer, which then pops stale on the same nanosecond.
    #[test]
    fn a_signal_edge_queued_before_a_same_instant_timer_freezes_the_countdown() {
        let mut sim = Simulator::new(topology::chain(1), SimConfig::default());
        let node = NodeId::new(0);
        let tie = SimTime::ZERO + sim.cfg.mac.difs();
        let signal_end = signal_from_nowhere(&mut sim, node, tie);
        start_a_broadcast(&mut sim, node);
        assert_eq!(sim.events.peek_time(), Some(tie), "the attempt timer");
        sim.run_until(tie);
        assert_eq!(sim.nodes[node.index()].mac.stats().data_sent, 0, "the medium went busy first");
        assert_eq!(sim.perf().timers_stale_popped, 1, "the frozen countdown's timer");
        assert!(sim.nodes[node.index()].phy.carrier_busy(tie));
        // The deferred attempt goes out once the signal has passed, intact.
        sim.run_until(signal_end + sim_core::SimDuration::from_millis(2));
        let stats = sim.nodes[node.index()].mac.stats();
        assert_eq!((stats.data_sent, stats.rx_collisions), (1, 0));
    }

    /// Under a tie-order hook the edge is no member of the tie group: it is
    /// applied before whichever of the node's tied events with a larger
    /// sequence number the hook runs first. Here FIFO runs the timer (queued
    /// before the edge) on an idle medium; promoting a no-op tick queued
    /// *after* the edge brings the edge forward with it, and the timer, now
    /// second, finds its countdown frozen.
    #[test]
    fn a_promoted_tie_member_settles_edges_against_its_own_seq() {
        let run = |decisions: Vec<usize>| {
            let mut sim = Simulator::new(topology::chain(1), SimConfig::default());
            let node = NodeId::new(0);
            let tie = SimTime::ZERO + sim.cfg.mac.difs();
            start_a_broadcast(&mut sim, node);
            signal_from_nowhere(&mut sim, node, tie);
            sim.schedule(tie, Event::MobilityTick { node }); // nothing is moving
            sim.install_tie_order(TieOrder::new(decisions));
            sim.run_until(tie);
            let choices = sim.take_tie_order().expect("hook was installed").into_choices();
            assert_eq!(choices[0].ties, 2, "the timer and the tick; the edge is not listed");
            (sim.nodes[node.index()].mac.stats().data_sent, sim.perf().timers_stale_popped)
        };
        assert_eq!(run(Vec::new()), (1, 0), "FIFO: timer, then edge, then tick");
        assert_eq!(run(vec![1]), (0, 1), "tick promoted: edge, tick, then a stale timer");
    }

    /// A MAC that takes a packet while sense-only signals are on the air, or
    /// on their way, has their parked end edges pushed into the queue under
    /// the keys reserved for them. The twin whose every end edge was a queue
    /// entry from the start — what `transmit` does at a MAC already holding
    /// a packet — is from then on the same simulator byte for byte: same
    /// queue keys, and the attempt timer the last idle edge arms, which takes
    /// its sequence number when it is pushed, carries the same one.
    #[test]
    fn a_mac_that_takes_a_packet_gets_its_parked_ends_back_under_their_own_keys() {
        let at = |micros| SimTime::ZERO + sim_core::SimDuration::from_micros(micros);
        let node = NodeId::new(0);
        let build = |park: bool| {
            let mut sim = Simulator::new(topology::chain(1), SimConfig::default());
            // On the air when the packet arrives, and still in flight then.
            let first_end = sensed_from_nowhere(&mut sim, node, at(100), park);
            let second_end = sensed_from_nowhere(&mut sim, node, at(300), park);
            assert!(at(200) < first_end && at(300) < first_end && first_end < second_end);
            sim.run_until(at(200));
            start_a_broadcast(&mut sim, node);
            // Pushed between the unparking and the idle edge: the timer's
            // number depends on the edge being dispatched after this push.
            sim.schedule(first_end, Event::MobilityTick { node });
            (sim, second_end)
        };
        let (mut parked, idle_edge) = build(true);
        let (mut eager, _) = build(false);
        let phy = &parked.nodes[node.index()].phy;
        assert_eq!(phy.parked_ends().count(), 0, "both ends were taken out");
        assert_eq!((phy.active_receptions(), phy.pending().len()), (1, 1));
        assert!(parked.snapshot() == eager.snapshot(), "same queue, same keys");
        for sim in [&mut parked, &mut eager] {
            sim.run_until(idle_edge);
            assert_eq!(sim.nodes[node.index()].mac.stats().rx_collisions, 2);
            assert_eq!(sim.perf().edges_settled, 2, "the two start edges and nothing else");
        }
        assert!(parked.snapshot() == eager.snapshot());
        let eifs = parked.cfg.mac.eifs();
        let timer = |sim: &mut Simulator| {
            let (time, seq, event) = sim.events.pop_entry().expect("the attempt timer");
            assert!(matches!(event, Event::MacTimer { .. }), "{event:?}");
            (time, seq)
        };
        let armed = timer(&mut parked);
        assert_eq!(armed.0, idle_edge + eifs, "armed by the second end edge, at its own instant");
        assert_eq!(armed, timer(&mut eager));
    }

    /// A sense-only signal that comes and goes at a MAC with no packet
    /// leaves no event behind, and still arms EIFS: the next attempt waits
    /// EIFS, as it does when the end edge was a queue entry.
    #[test]
    fn a_parked_end_arms_eifs_for_the_next_attempt() {
        let node = NodeId::new(0);
        let attempt = |park: bool| {
            let mut sim = Simulator::new(topology::chain(1), SimConfig::default());
            let start = SimTime::ZERO + sim_core::SimDuration::from_micros(100);
            let end = sensed_from_nowhere(&mut sim, node, start, park);
            let later = end + sim_core::SimDuration::from_micros(50);
            sim.run_until(later);
            let n = &sim.nodes[node.index()];
            assert_eq!((n.phy.active_receptions(), n.phy.parked_ends().count()), (0, 0));
            assert_eq!(n.mac.stats().rx_collisions, 1);
            let perf = sim.perf();
            assert_eq!(
                (perf.events_processed, perf.edges_settled),
                if park { (0, 2) } else { (1, 1) }
            );
            start_a_broadcast(&mut sim, node);
            let fires = sim.events.peek_time().expect("the attempt timer");
            assert_eq!(fires, later + sim.cfg.mac.eifs(), "EIFS, not DIFS");
            sim.run_until(fires);
            assert_eq!(sim.nodes[node.index()].mac.stats().data_sent, 1);
            fires
        };
        assert_eq!(attempt(true), attempt(false));
    }

    /// A pause landing inside a sense-only signal discards the end edge
    /// parked on it and counts it, so events plus settled edges read what
    /// they read when that edge is a queue entry popped at a paused node:
    /// two faults, one start edge, one end edge.
    #[test]
    fn an_end_edge_parked_on_a_signal_a_pause_cuts_off_is_counted_once() {
        use crate::{FaultEvent, TimedFault};
        let node = NodeId::new(0);
        for park in [true, false] {
            let mut sim = Simulator::new(topology::chain(1), SimConfig::default());
            let start = SimTime::ZERO + sim_core::SimDuration::from_micros(100);
            let end = sensed_from_nowhere(&mut sim, node, start, park);
            assert!(secs(0.000_2) < end && end < secs(0.001), "the pause is mid-signal");
            sim.load_faults(&[
                TimedFault { at: secs(0.000_2), fault: FaultEvent::Pause { node } },
                TimedFault { at: secs(0.001), fault: FaultEvent::Resume { node } },
            ]);
            sim.run_until(secs(0.002));
            let n = &sim.nodes[node.index()];
            assert_eq!((n.phy.active_receptions(), n.phy.parked_ends().count()), (0, 0));
            assert_eq!(n.mac.stats().rx_collisions, 0, "the radio was off when the signal ended");
            assert_eq!(sim.fault.deferred().count(), 0);
            let perf = sim.perf();
            assert_eq!(
                (perf.events_processed, perf.edges_settled),
                if park { (2, 2) } else { (3, 1) }
            );
        }
    }

    /// A pause and a resume at one instant, between a sense-only signal's
    /// announcement and its arrival at a station deferring its packet to a
    /// longer signal: the end edge was parked under that signal's cover, the
    /// pause forgets the cover, and so the edge goes into the queue under its
    /// own key. From there the run is the one in which the edge was a queued
    /// `CsEnd` from the start: when the signal ends the medium goes idle, and
    /// the MAC restarts its countdown at that edge, EIFS on.
    #[test]
    fn a_pause_that_forgets_a_cover_queues_the_end_parked_under_it() {
        use crate::{FaultEvent, TimedFault};
        let at = |nanos| SimTime::ZERO + sim_core::SimDuration::from_nanos(nanos);
        let node = NodeId::new(0);
        // The cover: 100 µs to 4.1 ms.
        let (cover_start, cover_end, announced) = (at(100_000), at(4_100_000), at(200_000));
        // Under the 1.8 µs a signal needs to cross carrier-sense range.
        let (blink, arrives) = (at(200_500), at(201_500));
        let build = |park: bool| {
            let mut sim = Simulator::new(topology::chain(1), SimConfig::default());
            signal_from_nowhere_until(&mut sim, node, cover_start, cover_end);
            sim.run_until(announced);
            start_a_broadcast(&mut sim, node);
            let end = sensed_from_nowhere(&mut sim, node, arrives, park);
            assert!(end < cover_end);
            sim.load_faults(&[
                TimedFault { at: blink, fault: FaultEvent::Pause { node } },
                TimedFault { at: blink, fault: FaultEvent::Resume { node } },
            ]);
            (sim, end)
        };
        let (mut lazy, idle_edge) = build(true);
        let (mut eager, _) = build(false);
        let n = &lazy.nodes[node.index()];
        assert!(!n.mac.is_idle(), "the station holds its broadcast, deferring");
        assert_eq!(n.phy.parked_ends().count(), 1, "parked under the cover");
        for sim in [&mut lazy, &mut eager] {
            sim.run_until(blink);
            let n = &sim.nodes[node.index()];
            assert_eq!((n.phy.active_receptions(), n.phy.pending().len()), (0, 1));
            assert_eq!(n.phy.parked_ends().count(), 0);
            assert!(!n.phy.carrier_busy(blink), "the cover is forgotten");
        }
        // Everything but the queue's high-water mark, which the parked edge
        // kept one lower until the pause.
        assert_eq!(lazy.trace_hash(), eager.trace_hash());
        let queued_end = |sim: &Simulator| {
            sim.events
                .iter()
                .filter(|e| matches!(e, Event::CsEnd { node: n, .. } if *n == node))
                .count()
        };
        assert_eq!((queued_end(&lazy), queued_end(&eager)), (1, 1));
        let eifs = lazy.cfg.mac.eifs();
        let timer = |sim: &mut Simulator| {
            sim.run_until(idle_edge);
            let (time, seq, event) = sim.events.pop_entry().expect("the attempt timer");
            assert!(matches!(event, Event::MacTimer { .. }), "{event:?}");
            (time, seq)
        };
        let armed = timer(&mut lazy);
        assert_eq!(armed.0, idle_edge + eifs, "armed by the end edge, at its own instant");
        assert_eq!(armed, timer(&mut eager));
    }

    /// A start edge due exactly at a `run_until` boundary is applied by the
    /// first call's closing settle, and not again: one call across the
    /// boundary and two calls meeting at it leave byte-identical simulators.
    /// The same for an end edge parked with its signal.
    #[test]
    fn an_edge_due_at_a_run_boundary_is_applied_once_either_way() {
        let build = || {
            let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
            let (src, dst) = topology::chain_flow(2);
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            sim
        };
        // A frame goes on the air at `sent`: from the source, so that the
        // far end of the chain senses it and cannot decode it, and does so
        // with no packet in its MAC. Its start edge reaches the first
        // listener at `boundary`, its end edge is parked at the far one
        // until `parked_boundary`.
        let mut traced = build();
        traced.install_trace_log(TraceLog::new());
        traced.run_until(secs(1.1));
        let log = traced.take_trace_log().expect("log was installed");
        let parked = |sim: &Simulator| -> Vec<SimTime> {
            sim.nodes.iter().flat_map(|n| n.phy.parked_ends()).map(|(_, end, _)| end).collect()
        };
        let (probe, sent) = log
            .iter()
            .filter(|e| e.at > secs(1.0) && matches!(e.record, TraceRecord::PhyTx { .. }))
            .find_map(|e| {
                let mut probe = build();
                probe.run_until(e.at);
                (!parked(&probe).is_empty()).then_some((probe, e.at))
            })
            .expect("within 100 ms a busy chain sends a frame that an idle station only senses");
        let due = probe.nodes.iter().flat_map(|n| n.phy.pending()).map(|edge| edge.start).min();
        let boundary = due.expect("the frame just sent is in flight toward its listeners");
        assert!(boundary > sent);
        let parked_boundary = parked(&probe).into_iter().min().expect("checked above");
        assert!(parked_boundary > boundary);

        let mut whole = build();
        whole.run_until(secs(2.0));
        let heard =
            |sim: &Simulator| sim.nodes.iter().map(|n| n.phy.active_receptions()).sum::<usize>();
        for boundary in [boundary, parked_boundary] {
            let mut split = build();
            split.run_until(boundary);
            if boundary == parked_boundary {
                assert!(heard(&split) <= heard(&probe), "the signal has ended");
            } else {
                assert!(heard(&split) > heard(&probe), "the boundary edge has been applied");
            }
            assert!(split.nodes.iter().flat_map(|n| n.phy.pending()).all(|e| e.start > boundary));
            assert!(parked(&split).into_iter().all(|end| end > boundary));
            split.run_until(secs(2.0));
            assert_eq!(split.trace_hash(), whole.trace_hash());
            assert_eq!(split.perf(), whole.perf());
            assert!(split.snapshot() == whole.snapshot(), "the two simulators differ somewhere");
        }
    }

    /// An installed tie-order hook with an empty decision vector must be a
    /// pure observer: same trace hash and delivery count as the plain run,
    /// while its choice log proves ties were actually seen and left at FIFO.
    #[test]
    fn empty_tie_order_is_behaviourally_inert() {
        let run = |hook: bool| {
            let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            if hook {
                sim.install_tie_order(TieOrder::default());
            }
            sim.run_until(secs(3.0));
            let choices = sim.take_tie_order().map(TieOrder::into_choices);
            (sim.trace_hash(), sim.flow_report(flow).delivered_segments, choices)
        };
        let (plain_hash, plain_delivered, _) = run(false);
        let (hook_hash, hook_delivered, choices) = run(true);
        assert_eq!(plain_hash, hook_hash, "recording tie choices must not perturb the run");
        assert_eq!(plain_delivered, hook_delivered);
        let choices = choices.expect("hook was installed");
        assert!(!choices.is_empty(), "a 4-hop chain run surely has same-instant ties");
        assert!(choices.iter().all(|c| c.chosen == 0), "empty vector must stay FIFO");
        assert!(choices.iter().all(|c| c.ties >= 2), "runs of one are not choices");
    }

    /// Prescribing a non-FIFO tie break on a conflicting tie changes the
    /// dispatched event stream — the hash moves, proving the decision
    /// vector actually steers the scheduler.
    #[test]
    fn tie_order_decisions_steer_the_run() {
        let run = |decisions: Vec<usize>| {
            let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
            let (src, dst) = topology::chain_flow(4);
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            sim.install_tie_order(TieOrder::new(decisions));
            sim.run_until(secs(3.0));
            let order = sim.take_tie_order().expect("hook was installed");
            (sim.trace_hash(), order.into_choices())
        };
        let (fifo_hash, choices) = run(Vec::new());
        // Find the first tie group with a conflicting alternative and flip it.
        let target =
            choices.iter().position(|c| c.ties >= 2).expect("no tie groups in a 3 s chain run");
        let mut decisions = vec![0; target];
        decisions.push(1);
        let (flipped_hash, flipped_choices) = run(decisions.clone());
        assert_eq!(flipped_choices[target].chosen, 1, "prescription must be honoured");
        assert_ne!(fifo_hash, flipped_hash, "a permuted tie must change the event stream");
        // Replay determinism: the same vector reproduces the same run.
        let (replay_hash, _) = run(decisions);
        assert_eq!(flipped_hash, replay_hash, "same decision vector, same trace");
    }

    /// Which node hosts an endpoint is the flow's to say: a data segment, an
    /// ACK and a retransmission timer — live and stale — arriving at any
    /// node other than the flow's own endpoint find nothing there, and the
    /// simulator is byte for byte what it was.
    #[test]
    fn transport_input_at_a_node_that_is_not_the_endpoint_changes_nothing() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.run_until(secs(1.0));
        let f = &sim.flows[flow.index()];
        let rto = sim
            .events
            .iter()
            .find_map(|e| match *e {
                Event::TcpTimer { id, .. } if f.sender.timer_is_live(id) => Some(id),
                _ => None,
            })
            .expect("a sender with data in flight has its timer armed");
        let next = sim.flows[flow.index()].receiver.rcv_nxt();
        assert!(sim.flows[flow.index()].sender.stats().segments_sent > next, "data in flight");
        let before = sim.snapshot();
        for node in [src, NodeId::new(1)] {
            let data = TcpSegment::data(flow, next, wire::TCP_PAYLOAD_BYTES, None);
            sim.deliver_transport(node, Packet::new(1, src, dst, Payload::Tcp(data)));
        }
        for node in [NodeId::new(1), dst] {
            let ack = TcpSegment::ack(flow, next);
            sim.deliver_transport(node, Packet::new(2, dst, src, Payload::Tcp(ack)));
        }
        for node in [NodeId::new(1), dst] {
            for id in [rto, tcp::TcpTimer(u64::MAX)] {
                sim.dispatch(Event::TcpTimer { node, flow, id });
            }
        }
        assert!(sim.snapshot() == before, "an input at the wrong node moved something");
    }

    #[test]
    fn one_hop_newreno_delivers_data() {
        let (report, _sim) = run_chain(1, TcpVariant::NewReno, 3.0);
        assert!(
            report.delivered_segments > 100,
            "1-hop chain should move plenty of data, got {}",
            report.delivered_segments
        );
    }

    #[test]
    fn four_hop_chain_all_variants_make_progress() {
        for variant in TcpVariant::ALL {
            let (report, _sim) = run_chain(4, variant, 3.0);
            assert!(
                report.delivered_segments > 10,
                "{variant}: only {} segments over 4 hops",
                report.delivered_segments
            );
        }
    }

    #[test]
    fn throughput_decreases_with_hops() {
        let (short, _) = run_chain(2, TcpVariant::NewReno, 5.0);
        let (long, _) = run_chain(8, TcpVariant::NewReno, 5.0);
        assert!(
            short.delivered_bytes > long.delivered_bytes,
            "2-hop ({}) should beat 8-hop ({})",
            short.delivered_bytes,
            long.delivered_bytes
        );
    }

    #[test]
    fn timer_tombstones_are_counted() {
        let (_, sim) = run_chain(4, TcpVariant::NewReno, 3.0);
        let perf = sim.perf();
        // Every ACK re-arms the retransmission timer, tombstoning the old
        // one, and the MAC cancels response timers on every handshake.
        assert!(perf.timers_cancelled > 0, "expected lazy cancellations, got none");
        assert!(
            perf.timers_stale_popped <= perf.timers_cancelled,
            "stale pops ({}) cannot exceed cancellations ({})",
            perf.timers_stale_popped,
            perf.timers_cancelled
        );
        // Stale pops are classified before being discarded.
        assert_eq!(perf.classified_total(), perf.events_processed);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_chain(4, TcpVariant::Muzha, 3.0);
        let (b, _) = run_chain(4, TcpVariant::Muzha, 3.0);
        assert_eq!(a.delivered_segments, b.delivered_segments);
        assert_eq!(a.sender.segments_sent, b.sender.segments_sent);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let cfg = SimConfig { seed, ..SimConfig::default() };
            let mut sim = Simulator::new(topology::chain(4), cfg);
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            sim.run_until(secs(3.0));
            sim.flow_report(flow).sender.segments_sent
        };
        // Not guaranteed in general, but overwhelmingly likely; fixed seeds
        // keep this deterministic.
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn random_loss_still_delivers() {
        let radio = phy::RadioParams { per_frame_loss: 0.02, ..Default::default() };
        let mut sim =
            Simulator::new(topology::chain(4), SimConfig { radio, ..SimConfig::default() });
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(secs(5.0));
        let report = sim.flow_report(flow);
        assert!(report.delivered_segments > 10, "got {}", report.delivered_segments);
    }

    #[test]
    fn two_flows_on_cross_topology() {
        let mut sim = Simulator::new(topology::cross(4), SimConfig::default());
        let (hs, hd) = topology::cross_horizontal_flow(4);
        let (vs, vd) = topology::cross_vertical_flow(4);
        let f1 = sim.add_flow(FlowSpec::new(hs, hd, TcpVariant::NewReno));
        let f2 = sim.add_flow(FlowSpec::new(vs, vd, TcpVariant::Muzha));
        sim.run_until(secs(5.0));
        let r1 = sim.flow_report(f1);
        let r2 = sim.flow_report(f2);
        assert!(r1.delivered_segments > 5, "NewReno starved: {}", r1.delivered_segments);
        assert!(r2.delivered_segments > 5, "Muzha starved: {}", r2.delivered_segments);
    }

    #[test]
    fn delayed_flow_start() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let flow =
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno).starting_at(secs(2.0)));
        sim.run_until(secs(1.5));
        assert_eq!(sim.flow_report(flow).delivered_segments, 0, "not started yet");
        sim.run_until(secs(4.0));
        assert!(sim.flow_report(flow).delivered_segments > 0);
    }

    #[test]
    fn node_summaries_available() {
        let (_, sim) = run_chain(4, TcpVariant::NewReno, 3.0);
        let summaries = sim.all_node_summaries();
        assert_eq!(summaries.len(), 5);
        let total_disc: u64 = summaries.iter().map(|s| s.discoveries).sum();
        assert!(total_disc >= 1, "at least the initial route discovery");
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_flow_rejected() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        sim.add_flow(FlowSpec::new(NodeId::new(0), NodeId::new(0), TcpVariant::Reno));
    }

    #[test]
    fn fault_free_scenario_matches_plain_run_hash() {
        // Loading an empty scenario and a checker must not perturb the
        // event stream at all.
        let (plain, _) = run_chain(4, TcpVariant::Muzha, 3.0);
        let (instrumented, checker, _) = {
            let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
            sim.install_checker(InvariantChecker::new());
            sim.run_until(secs(3.0));
            let checker = sim.take_checker().unwrap();
            (sim.flow_report(flow), checker, sim.trace_hash())
        };
        assert_eq!(plain.delivered_segments, instrumented.delivered_segments);
        assert_eq!(plain.sender.segments_sent, instrumented.sender.segments_sent);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(checker.records_seen() > 100);
    }

    #[test]
    fn run_until_is_monotone() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        sim.run_until(secs(1.0));
        assert_eq!(sim.now(), secs(1.0));
        sim.run_until(secs(0.5)); // no-op, must not go backwards
        assert_eq!(sim.now(), secs(1.0));
    }

    #[test]
    fn advertised_window_caps_flight_everywhere() {
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let f_small = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno).with_window(4));
        sim.run_until(secs(5.0));
        let small = sim.flow_report(f_small);
        // With window 4 the cwnd trace must never exceed... cwnd may exceed
        // awnd numerically for Reno, but flight is capped; at least verify
        // data flowed.
        assert!(small.delivered_segments > 10);
    }
}

#[cfg(test)]
mod tracelog_tests {
    use super::*;
    use crate::topology;
    use tracelog::{Layer, TraceFilter};

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn traced_chain(hops: usize, variant: TcpVariant, duration: f64) -> (TraceLog, u64) {
        let mut sim = Simulator::new(topology::chain(hops), SimConfig::default());
        let (src, dst) = topology::chain_flow(hops);
        let _ = sim.add_flow(FlowSpec::new(src, dst, variant));
        sim.install_trace_log(TraceLog::new());
        sim.run_until(secs(duration));
        let log = sim.take_trace_log().expect("log installed");
        (log, sim.trace_hash())
    }

    #[test]
    fn tracing_is_a_pure_observer() {
        // Same seed, with and without a log: identical event streams.
        let mut plain = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let flow = plain.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        plain.run_until(secs(3.0));
        let (log, traced_hash) = traced_chain(4, TcpVariant::Muzha, 3.0);
        assert_eq!(plain.trace_hash(), traced_hash, "recording must not perturb the run");
        assert!(log.len() > 100, "a 3 s run must produce plenty of records");
        assert!(plain.flow_report(flow).delivered_segments > 0);
    }

    #[test]
    fn twin_runs_produce_identical_record_streams() {
        let (a, ha) = traced_chain(4, TcpVariant::NewReno, 3.0);
        let (b, hb) = traced_chain(4, TcpVariant::NewReno, 3.0);
        assert_eq!(ha, hb);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y), "record streams must match");
    }

    #[test]
    fn every_layer_shows_up_in_a_muzha_run() {
        let (log, _) = traced_chain(4, TcpVariant::Muzha, 3.0);
        for layer in Layer::ALL {
            // Every protocol layer speaks; no script was loaded, so no fault.
            assert_eq!(
                log.iter().any(|e| e.record.layer() == layer),
                layer != Layer::Fault,
                "{layer:?} records in a 3 s fault-free multi-hop run"
            );
        }
        // Muzha data carries AVBW-S stamps through the queues.
        assert!(log
            .iter()
            .any(|e| matches!(e.record, TraceRecord::IfqEnqueue { avbw: Some(_), .. })));
        // Window snapshots mirror the transport's own trace.
        assert!(log.iter().any(|e| matches!(e.record, TraceRecord::TcpCwnd { .. })));
    }

    #[test]
    fn filter_restricts_what_is_kept() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let _ = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.install_trace_log(TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt)));
        sim.run_until(secs(2.0));
        let log = sim.take_trace_log().expect("log installed");
        assert!(!log.is_empty(), "transport records expected");
        assert!(log.iter().all(|e| e.record.layer() == Layer::Agt));
        assert!(log.seen() > log.kept(), "non-AGT records were filtered out");
    }

    /// The window curve in the log is one `TcpCwnd` per transport call that
    /// moved the window, stamped at that call, and the flow's opening window.
    /// The oracle is an untraced twin stopped at every instant the traced run
    /// logged anything at, its sender's window read after each stop.
    #[test]
    fn one_cwnd_record_per_transport_call_that_moved_the_window() {
        let (log, _) = traced_chain(2, TcpVariant::Muzha, 3.0);
        let from_log: Vec<(SimTime, f64)> = log
            .iter()
            .filter_map(|e| match e.record {
                TraceRecord::TcpCwnd { cwnd, .. } => Some((e.at, cwnd)),
                _ => None,
            })
            .collect();

        let mut twin = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let flow = twin.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        let mut instants: Vec<SimTime> = log.iter().map(|e| e.at).collect();
        instants.dedup();
        let mut moves: Vec<(SimTime, f64)> = Vec::new();
        for at in instants {
            twin.run_until(at);
            let cwnd = twin.flows[flow.index()].sender.cwnd();
            if moves.last().is_none_or(|&(_, last)| last != cwnd) {
                moves.push((at, cwnd));
            }
        }
        assert!(moves.len() > 2, "the window should have moved: {moves:?}");
        assert_eq!(moves[0], (SimTime::ZERO, 2.0), "the opening window is the first point");
        assert_eq!(from_log, moves);
    }

    /// `rec` writes the log before it feeds the checker, whatever the
    /// record: a dump ends on the record that tripped the invariant.
    #[test]
    fn a_dump_ends_on_the_record_that_tripped_the_invariant() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        sim.install_checker(InvariantChecker::new());
        sim.install_trace_log(TraceLog::flight_recorder(2));
        let (node, flow) = (NodeId::new(1), FlowId::new(0));
        let quiet = TraceRecord::MacBackoff { node, slots: 3, cw: 31 };
        let sent =
            TraceRecord::TcpSend { node, flow, seq: 0, uid: 7, bytes: 1500, retransmit: false };
        let routeless = TraceRecord::RtrForward {
            node,
            next_hop: NodeId::new(2),
            kind: PacketKind::TcpData,
            uid: 7,
            flow: Some(flow),
            bytes: 1500,
            ttl: 62,
            origin: false,
            route_valid_until: None,
        };
        for record in [quiet, sent, routeless, quiet, sent] {
            sim.rec(record);
        }
        let checker = sim.take_checker().expect("checker installed");
        let tripped: Vec<&str> = checker.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(tripped, ["aodv-route-fresh", "conservation"]);
        let log = sim.take_trace_log().expect("log installed");
        let dumped: Vec<Vec<TraceRecord>> =
            log.dumps().iter().map(|d| d.entries.iter().map(|e| e.record).collect()).collect();
        assert_eq!(dumped, [[sent, routeless], [quiet, sent]]);
        assert_eq!(log.dumps()[0].reason, checker.violations()[0].to_string());
    }

    /// A control packet reaching a full IFQ takes the newest data packet's
    /// place: the drop on record names the evicted packet, not the arrival,
    /// the control packet waits at the head, and the ledger counts the
    /// eviction as the one drop it is.
    #[test]
    fn a_control_packet_at_a_full_ifq_evicts_the_newest_data_on_record() {
        let cfg = SimConfig { ifq_capacity: 3, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(1), cfg);
        sim.install_checker(InvariantChecker::new());
        sim.install_trace_log(TraceLog::new());
        let (node, next_hop, flow) = (NodeId::new(0), NodeId::new(1), FlowId::new(0));
        // The first packet goes straight into the idle MAC; three fill the queue.
        for uid in 1..=4 {
            let seq = (uid - 1) * 1460;
            let segment = TcpSegment::data(flow, seq, 1460, None);
            let bytes = segment.size_bytes();
            sim.rec(TraceRecord::TcpSend { node, flow, seq, uid, bytes, retransmit: false });
            let packet = Packet::new(uid, node, next_hop, Payload::Tcp(segment));
            sim.enqueue_ifq(node, packet, next_hop);
        }
        assert_eq!(sim.nodes[node.index()].ifq.len(), 3, "full");
        let rerr = Payload::Aodv(wire::AodvMessage::Rerr(wire::RouteError { unreachable: vec![] }));
        sim.enqueue_ifq(node, Packet::new(99, node, NodeId::BROADCAST, rerr), NodeId::BROADCAST);

        let log = sim.take_trace_log().expect("log installed");
        let drops: Vec<(u64, Option<FlowId>)> = log
            .iter()
            .filter_map(|e| match e.record {
                TraceRecord::IfqDrop { uid, flow, .. } => Some((uid, flow)),
                _ => None,
            })
            .collect();
        assert_eq!(drops, [(4, Some(flow))], "the newest data packet, not the arrival");
        let ifq = &mut sim.nodes[node.index()].ifq;
        assert_eq!(ifq.len(), 3);
        let (head, hop) = ifq.pop().expect("the queue holds the control packet");
        assert_eq!((head.uid, hop), (99, NodeId::BROADCAST), "control goes first");
        let checker = sim.take_checker().expect("checker installed");
        assert!(checker.is_clean(), "{:?}", checker.violations());
        let ledger = checker.ledger();
        let expected = faultline::LedgerSummary {
            injected: 4,
            delivered: 0,
            dropped: 1,
            fault_dropped: 0,
            in_flight: 3,
        };
        assert_eq!(ledger, expected);
        assert_eq!(
            ledger.injected,
            ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight
        );
    }

    #[test]
    fn disabled_log_leaves_no_trace_state() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        assert!(sim.trace_log().is_none());
        assert!(sim.take_trace_log().is_none());
    }
}
