//! The checker as it was, fed [`CheckEvent`]s — kept for one commit so the
//! record-fed [`crate::InvariantChecker`] can be run beside it and compared.

use std::collections::VecDeque;

use sim_core::{DetMap, DetSet, SimDuration, SimTime};
use wire::{FlowId, NodeId};

use crate::checker::{CheckerLimits, LedgerSummary, Violation};

/// One cross-layer observation from the simulator, in checker vocabulary.
///
/// `uid`s are wire-level packet identities; the checker only tracks uids it
/// saw born in an [`CheckEvent::Injected`] event (transport data packets),
/// so routing-internal traffic never confuses the conservation ledger.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckEvent {
    /// A transport data segment entered the network at its source.
    Injected {
        /// Source node.
        node: NodeId,
        /// Owning flow.
        flow: FlowId,
        /// Wire-level packet uid.
        uid: u64,
    },
    /// AODV forwarded (or originated) a packet towards `next_hop`.
    Forwarded {
        /// Forwarding node.
        node: NodeId,
        /// Chosen next hop (may be broadcast for routing control).
        next_hop: NodeId,
        /// Wire-level packet uid.
        uid: u64,
        /// Whether the packet carries TCP data.
        is_data: bool,
        /// For unicast data: expiry of the route entry used, as observed at
        /// forward time. `None` means no valid route backed the forward.
        route_valid_until: Option<SimTime>,
    },
    /// A packet reached its destination node's transport layer.
    Delivered {
        /// Destination node.
        node: NodeId,
        /// Owning flow.
        flow: FlowId,
        /// Wire-level packet uid.
        uid: u64,
        /// Whether this was a data segment (vs. a pure ACK).
        is_data: bool,
        /// The receiver's next expected in-order sequence number *after*
        /// absorbing the segment (data only; echoes the ACK for ACKs).
        rcv_nxt_after: u64,
    },
    /// The interface queue dropped a packet (overflow, RED, blackhole).
    QueueDrop {
        /// Dropping node.
        node: NodeId,
        /// Wire-level packet uid.
        uid: u64,
    },
    /// AODV dropped a packet (no route, TTL, buffer overflow, discovery
    /// failure, or broken-link transit data).
    RoutingDrop {
        /// Dropping node.
        node: NodeId,
        /// Wire-level packet uid.
        uid: u64,
    },
    /// Fault injection destroyed a packet in custody (e.g. a node kill
    /// flushing its queues).
    FaultDrop {
        /// Node whose custody was wiped.
        node: NodeId,
        /// Wire-level packet uid.
        uid: u64,
    },
    /// The MAC exhausted retries towards `next_hop` (link-layer failure).
    LinkFailure {
        /// Transmitting node.
        node: NodeId,
        /// Unreachable neighbor.
        next_hop: NodeId,
    },
    /// The node broadcast an AODV route-error message.
    RerrSent {
        /// Origin of the RERR.
        node: NodeId,
    },
    /// A frame hit the air.
    FrameSent {
        /// Transmitting node.
        node: NodeId,
        /// Time the frame occupies the medium.
        airtime: SimDuration,
        /// The sender's current contention window.
        cw: u32,
        /// How far beyond `now` the sender's NAV currently reaches.
        nav_ahead: SimDuration,
    },
    /// A sender's congestion state, sampled periodically.
    CwndUpdate {
        /// Sending node.
        node: NodeId,
        /// Owning flow.
        flow: FlowId,
        /// TCP variant name (for diagnostics).
        variant: &'static str,
        /// Congestion window, in segments.
        cwnd: f64,
        /// Slow-start threshold, if the variant maintains one.
        ssthresh: Option<f64>,
    },
    /// The scenario forced the `a`—`b` link down.
    ScriptedLinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The scenario released the `a`—`b` link.
    ScriptedLinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The scenario took a node down (kill or pause).
    NodeDown {
        /// The affected node.
        node: NodeId,
    },
    /// The scenario brought a node back (revive or resume).
    NodeUp {
        /// The affected node.
        node: NodeId,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UidState {
    InFlight,
    Delivered,
    Dropped,
    FaultDropped,
}

#[derive(Clone, Copy, Debug)]
struct RerrObligation {
    node: NodeId,
    neighbor: NodeId,
    at: SimTime,
}

/// Runtime invariant checker over the simulator's event stream.
///
/// Feed events with [`on_event`](Self::on_event), call
/// [`finish`](Self::finish) once at the end of the run, then inspect
/// [`violations`](Self::violations).
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    limits: CheckerLimits,
    events_seen: u64,
    trail: VecDeque<String>,
    violations: Vec<Violation>,
    /// Per-flow high-water mark of the receiver's `rcv_nxt`.
    rcv_nxt: DetMap<FlowId, u64>,
    /// Lifecycle of every injected data packet.
    uids: DetMap<u64, UidState>,
    /// Links currently forced down by the scenario (normalised pairs).
    down_links: DetSet<(NodeId, NodeId)>,
    /// Nodes currently down (killed or paused) by the scenario.
    down_nodes: DetSet<NodeId>,
    /// `(node, neighbor)` pairs where the node has observed a link-layer
    /// failure on a scripted-down link; forwarding data there again while
    /// the link stays down is a stale-route bug.
    dead_observed: DetSet<(NodeId, NodeId)>,
    /// Last time a node forwarded *data* to each neighbor.
    last_data_forward: DetMap<(NodeId, NodeId), SimTime>,
    /// Pending obligations: RERR expected from `node` at or after `at`.
    rerr_due: Vec<RerrObligation>,
    /// Times each node emitted a RERR.
    rerr_sent: DetMap<NodeId, SimTime>,
}

fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl InvariantChecker {
    /// A checker with default limits.
    pub fn new() -> Self {
        Self::with_limits(CheckerLimits::default())
    }

    /// A checker with custom limits.
    pub fn with_limits(limits: CheckerLimits) -> Self {
        InvariantChecker { limits, ..InvariantChecker::default() }
    }

    /// Number of events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The violations recorded so far (in order of detection).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Packet-conservation accounting over all injected data packets.
    pub fn ledger(&self) -> LedgerSummary {
        let mut s = LedgerSummary::default();
        for (_, state) in self.uids.iter() {
            s.injected += 1;
            match state {
                UidState::InFlight => s.in_flight += 1,
                UidState::Delivered => s.delivered += 1,
                UidState::Dropped => s.dropped += 1,
                UidState::FaultDropped => s.fault_dropped += 1,
            }
        }
        s
    }

    fn violate(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        let trail = self.trail.iter().cloned().collect();
        self.violations.push(Violation { at, invariant, detail, trail });
    }

    /// Observes one event.
    pub fn on_event(&mut self, now: SimTime, ev: &CheckEvent) {
        self.events_seen += 1;
        if self.trail.len() == self.limits.trail_len {
            self.trail.pop_front();
        }
        self.trail.push_back(format!("t={:.6}s {ev:?}", now.as_secs_f64()));
        match ev {
            CheckEvent::Injected { node, flow, uid } => {
                if self.uids.insert(*uid, UidState::InFlight).is_some() {
                    self.violate(
                        now,
                        "conservation",
                        format!("uid {uid:#x} injected twice (flow {flow} at {node})"),
                    );
                }
            }
            CheckEvent::Forwarded { node, next_hop, uid, is_data, route_valid_until } => {
                if *is_data && !next_hop.is_broadcast() {
                    match route_valid_until {
                        None => self.violate(
                            now,
                            "aodv-route-fresh",
                            format!(
                                "{node} forwarded data uid {uid:#x} to {next_hop} \
                                 with no valid route entry"
                            ),
                        ),
                        Some(expires) if *expires <= now => self.violate(
                            now,
                            "aodv-route-fresh",
                            format!(
                                "{node} forwarded data uid {uid:#x} to {next_hop} on a \
                                 route expired at t={:.6}s",
                                expires.as_secs_f64()
                            ),
                        ),
                        Some(_) => {}
                    }
                    self.last_data_forward.insert((*node, *next_hop), now);
                    if self.dead_observed.contains(&(*node, *next_hop))
                        && self.down_links.contains(&link_key(*node, *next_hop))
                    {
                        self.violate(
                            now,
                            "aodv-dead-link",
                            format!(
                                "{node} forwarded data uid {uid:#x} to {next_hop} over a \
                                 scripted-down link it already saw fail"
                            ),
                        );
                    }
                }
            }
            CheckEvent::Delivered { node, flow, uid, is_data, rcv_nxt_after } => {
                if *is_data {
                    if !self.uids.contains_key(uid) {
                        self.violate(
                            now,
                            "conservation",
                            format!(
                                "data uid {uid:#x} delivered at {node} but was never \
                                 injected"
                            ),
                        );
                    }
                    let prev = self.rcv_nxt.get(flow).copied().unwrap_or(0);
                    if *rcv_nxt_after < prev {
                        self.violate(
                            now,
                            "tcp-monotone",
                            format!(
                                "flow {flow}: receiver rcv_nxt went backwards \
                                 ({prev} -> {rcv_nxt_after}) at {node}"
                            ),
                        );
                    } else {
                        self.rcv_nxt.insert(*flow, *rcv_nxt_after);
                    }
                }
                self.terminate(now, *uid, UidState::Delivered);
            }
            CheckEvent::QueueDrop { uid, .. } | CheckEvent::RoutingDrop { uid, .. } => {
                self.terminate(now, *uid, UidState::Dropped);
            }
            CheckEvent::FaultDrop { uid, .. } => {
                self.terminate(now, *uid, UidState::FaultDropped);
            }
            CheckEvent::LinkFailure { node, next_hop } => {
                if self.down_links.contains(&link_key(*node, *next_hop)) {
                    self.dead_observed.insert((*node, *next_hop));
                    let active = self
                        .last_data_forward
                        .get(&(*node, *next_hop))
                        .is_some_and(|&t| now <= t + self.limits.rerr_window);
                    if active {
                        self.rerr_due.push(RerrObligation {
                            node: *node,
                            neighbor: *next_hop,
                            at: now,
                        });
                    }
                }
            }
            CheckEvent::RerrSent { node } => {
                self.rerr_sent.insert(*node, now);
                self.rerr_due.retain(|o| o.node != *node);
            }
            CheckEvent::FrameSent { node, airtime, cw, nav_ahead } => {
                if *airtime > self.limits.max_airtime {
                    self.violate(
                        now,
                        "mac-bounds",
                        format!(
                            "{node} sent a frame occupying the medium for {} us \
                             (cap {} us)",
                            airtime.as_micros(),
                            self.limits.max_airtime.as_micros()
                        ),
                    );
                }
                if *cw < self.limits.cw_min || *cw > self.limits.cw_max {
                    self.violate(
                        now,
                        "mac-bounds",
                        format!(
                            "{node} contention window {cw} outside [{}, {}]",
                            self.limits.cw_min, self.limits.cw_max
                        ),
                    );
                }
                if *nav_ahead > self.limits.max_nav_ahead {
                    self.violate(
                        now,
                        "mac-bounds",
                        format!(
                            "{node} NAV reaches {} us past now (cap {} us)",
                            nav_ahead.as_micros(),
                            self.limits.max_nav_ahead.as_micros()
                        ),
                    );
                }
            }
            CheckEvent::CwndUpdate { node, flow, variant, cwnd, ssthresh } => {
                if !cwnd.is_finite() || *cwnd <= 0.0 || *cwnd > self.limits.max_cwnd_segments {
                    self.violate(
                        now,
                        "tcp-cwnd-sane",
                        format!("flow {flow} ({variant}) at {node}: insane cwnd {cwnd}"),
                    );
                }
                if let Some(ss) = ssthresh {
                    if !ss.is_finite() || *ss <= 0.0 {
                        self.violate(
                            now,
                            "tcp-cwnd-sane",
                            format!("flow {flow} ({variant}) at {node}: insane ssthresh {ss}"),
                        );
                    }
                }
            }
            CheckEvent::ScriptedLinkDown { a, b } => {
                self.down_links.insert(link_key(*a, *b));
            }
            CheckEvent::ScriptedLinkUp { a, b } => {
                self.down_links.remove(&link_key(*a, *b));
                self.dead_observed.remove(&(*a, *b));
                self.dead_observed.remove(&(*b, *a));
                self.rerr_due.retain(|o| link_key(o.node, o.neighbor) != link_key(*a, *b));
            }
            CheckEvent::NodeDown { node } => {
                self.down_nodes.insert(*node);
            }
            CheckEvent::NodeUp { node } => {
                self.down_nodes.remove(node);
            }
        }
    }

    fn terminate(&mut self, _now: SimTime, uid: u64, to: UidState) {
        // Only packets born in an `Injected` event participate in the
        // ledger; routing control and ACK uids pass through untracked.
        // A second terminal is tolerated: a lost MAC-level ACK legitimately
        // duplicates custody (the data arrived, the sender retries), so the
        // first terminal wins and later ones are ignored.
        if let Some(state) = self.uids.get_mut(&uid) {
            if *state == UidState::InFlight {
                *state = to;
            }
        }
    }

    /// Closes the run: evaluates end-of-run obligations. Call exactly once,
    /// after the simulator has finished.
    pub fn finish(&mut self, now: SimTime) {
        let due = std::mem::take(&mut self.rerr_due);
        for o in due {
            let answered = self.rerr_sent.get(&o.node).is_some_and(|&t| t >= o.at);
            if !answered {
                self.violate(
                    now,
                    "aodv-rerr",
                    format!(
                        "{} saw the scripted-down link to {} fail at t={:.6}s while \
                         carrying data but never emitted a RERR",
                        o.node,
                        o.neighbor,
                        o.at.as_secs_f64()
                    ),
                );
            }
        }
    }
}
