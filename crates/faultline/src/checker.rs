//! The runtime cross-layer invariant checker.
//!
//! The simulator hands every [`TraceRecord`] it builds to an
//! [`InvariantChecker`] — the same values, in the same order, that a
//! `tracelog::TraceLog` stores; the checker asserts protocol properties that
//! must hold no matter what a fault scenario does to the network, and
//! records a [`Violation`] (with the recent records leading up to it) when
//! one breaks.

// What each record means to the checker is decided by name: a new variant
// does not compile until someone has said which invariant reads it, or none.
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use std::collections::VecDeque;

use sim_core::{DetMap, DetSet, SimDuration, SimTime};
use tracelog::{PacketKind, TraceEntry, TraceRecord};
use wire::{FlowId, NodeId};

/// Tunable bounds for the checker's sanity invariants.
#[derive(Clone, Copy, Debug)]
pub struct CheckerLimits {
    /// Upper bound on any sender's congestion window, in segments.
    pub max_cwnd_segments: f64,
    /// Upper bound on a single frame's airtime.
    pub max_airtime: SimDuration,
    /// Upper bound on how far a NAV may reach beyond now.
    pub max_nav_ahead: SimDuration,
    /// Smallest legal contention window (802.11b: 31).
    pub cw_min: u32,
    /// Largest legal contention window (802.11b: 1023).
    pub cw_max: u32,
    /// A link failure within this window of data activity on a scripted-down
    /// link obliges the node to emit a RERR.
    pub rerr_window: SimDuration,
    /// How many recent records a violation's trail captures.
    pub trail_len: usize,
}

impl Default for CheckerLimits {
    fn default() -> Self {
        CheckerLimits {
            max_cwnd_segments: 1.0e6,
            // Longest legal frame: ~1534 B + MAC overhead at the 1 Mbps
            // basic rate plus PLCP ≈ 13 ms; 20 ms leaves headroom.
            max_airtime: SimDuration::from_millis(20),
            max_nav_ahead: SimDuration::from_millis(50),
            cw_min: 31,
            cw_max: 1023,
            rerr_window: SimDuration::from_millis(1000),
            trail_len: 24,
        }
    }
}

/// A broken invariant, with the records that led up to it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Virtual time of the offending record (or of `finish`).
    pub at: SimTime,
    /// Stable invariant identifier (see the DESIGN.md catalogue).
    pub invariant: &'static str,
    /// Human-readable description of what broke.
    pub detail: String,
    /// The most recent records up to and including the offending one,
    /// oldest first, every field printed.
    pub trail: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}] t={:.6}s {}", self.invariant, self.at.as_secs_f64(), self.detail)?;
        for line in &self.trail {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Final packet-conservation accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Data packets injected at sources.
    pub injected: u64,
    /// Injected packets whose first terminal was delivery at the
    /// destination.
    pub delivered: u64,
    /// Injected packets whose first terminal was a queue/routing drop.
    pub dropped: u64,
    /// Injected packets destroyed by fault injection.
    pub fault_dropped: u64,
    /// Injected packets with no terminal record yet.
    pub in_flight: u64,
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

/// Runtime invariant checker over the simulator's record stream.
///
/// Feed records with [`on_record`](Self::on_record), call
/// [`finish`](Self::finish) once at the end of the run, then inspect
/// [`violations`](Self::violations).
///
/// `uid`s are wire-level packet identities; the conservation ledger tracks
/// only uids it saw born in a [`TraceRecord::TcpSend`] (transport data), so
/// ACKs and routing-internal traffic pass through it untracked.
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    limits: CheckerLimits,
    records_seen: u64,
    /// The last `limits.trail_len` records, kept as they came: a violation
    /// formats them, a clean run never does.
    trail: VecDeque<TraceEntry>,
    violations: Vec<Violation>,
    /// Per-flow high-water mark of the receiver's `rcv_nxt`.
    rcv_nxt: DetMap<FlowId, u64>,
    /// Lifecycle of every injected data packet.
    uids: DetMap<u64, UidState>,
    /// Links currently forced down by the scenario (normalised pairs).
    down_links: DetSet<(NodeId, NodeId)>,
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

    /// Number of records observed so far.
    pub fn records_seen(&self) -> u64 {
        self.records_seen
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
        let trail = self
            .trail
            .iter()
            .map(|e| format!("t={:.6}s {:?}", e.at.as_secs_f64(), e.record))
            .collect();
        self.violations.push(Violation { at, invariant, detail, trail });
    }

    /// Observes one record.
    pub fn on_record(&mut self, now: SimTime, record: &TraceRecord) {
        self.records_seen += 1;
        if self.trail.len() >= self.limits.trail_len {
            self.trail.pop_front();
        }
        self.trail.push_back(TraceEntry { at: now, record: *record });
        match *record {
            // A data segment enters the network at its source.
            TraceRecord::TcpSend { node, flow, uid, .. } => {
                if self.uids.insert(uid, UidState::InFlight).is_some() {
                    self.violate(
                        now,
                        "conservation",
                        format!("uid {uid:#x} injected twice (flow {flow} at {node})"),
                    );
                }
            }
            TraceRecord::RtrForward { node, next_hop, kind, uid, route_valid_until, .. } => {
                match kind {
                    PacketKind::Rerr => {
                        self.rerr_sent.insert(node, now);
                        self.rerr_due.retain(|o| o.node != node);
                    }
                    PacketKind::TcpData if !next_hop.is_broadcast() => {
                        self.on_data_forward(now, node, next_hop, uid, route_valid_until);
                    }
                    PacketKind::TcpData
                    | PacketKind::TcpAck
                    | PacketKind::Rreq
                    | PacketKind::Rrep => {}
                }
            }
            // No receiver for the flow at this node: the segment went
            // nowhere and its uid stays in flight.
            TraceRecord::TcpRecvData { rcv_nxt_after: None, .. } => {}
            TraceRecord::TcpRecvData { node, flow, uid, rcv_nxt_after: Some(rcv_nxt), .. } => {
                if !self.uids.contains_key(&uid) {
                    self.violate(
                        now,
                        "conservation",
                        format!("data uid {uid:#x} delivered at {node} but was never injected"),
                    );
                }
                let prev = self.rcv_nxt.get(&flow).copied().unwrap_or(0);
                if rcv_nxt < prev {
                    self.violate(
                        now,
                        "tcp-monotone",
                        format!(
                            "flow {flow}: receiver rcv_nxt went backwards \
                             ({prev} -> {rcv_nxt}) at {node}"
                        ),
                    );
                } else {
                    self.rcv_nxt.insert(flow, rcv_nxt);
                }
                self.terminate(uid, UidState::Delivered);
            }
            TraceRecord::IfqDrop { uid, .. } | TraceRecord::RtrDrop { uid, .. } => {
                self.terminate(uid, UidState::Dropped);
            }
            TraceRecord::FaultDrop { uid, .. } => self.terminate(uid, UidState::FaultDropped),
            // The MAC exhausted its retries towards `next_hop`: a link-layer
            // failure, which on a scripted-down link the node now knows of.
            TraceRecord::MacRetryDrop { node, next_hop, .. } => {
                if self.down_links.contains(&link_key(node, next_hop)) {
                    self.dead_observed.insert((node, next_hop));
                    let active = self
                        .last_data_forward
                        .get(&(node, next_hop))
                        .is_some_and(|&t| now <= t + self.limits.rerr_window);
                    if active {
                        self.rerr_due.push(RerrObligation { node, neighbor: next_hop, at: now });
                    }
                }
            }
            TraceRecord::PhyTx { node, airtime, cw, nav_ahead, .. } => {
                if airtime > self.limits.max_airtime {
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
                if cw < self.limits.cw_min || cw > self.limits.cw_max {
                    self.violate(
                        now,
                        "mac-bounds",
                        format!(
                            "{node} contention window {cw} outside [{}, {}]",
                            self.limits.cw_min, self.limits.cw_max
                        ),
                    );
                }
                if nav_ahead > self.limits.max_nav_ahead {
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
            // Written when the window moves (and at open): a value that did
            // not move was checked when it last did.
            TraceRecord::TcpCwnd { node, flow, cwnd, ssthresh, .. } => {
                if !cwnd.is_finite() || cwnd <= 0.0 || cwnd > self.limits.max_cwnd_segments {
                    self.violate(
                        now,
                        "tcp-cwnd-sane",
                        format!("flow {flow} at {node}: insane cwnd {cwnd}"),
                    );
                }
                if let Some(ss) = ssthresh {
                    if !ss.is_finite() || ss <= 0.0 {
                        self.violate(
                            now,
                            "tcp-cwnd-sane",
                            format!("flow {flow} at {node}: insane ssthresh {ss}"),
                        );
                    }
                }
            }
            TraceRecord::FaultLink { a, b, up: false } => {
                self.down_links.insert(link_key(a, b));
            }
            TraceRecord::FaultLink { a, b, up: true } => {
                self.down_links.remove(&link_key(a, b));
                self.dead_observed.remove(&(a, b));
                self.dead_observed.remove(&(b, a));
                self.rerr_due.retain(|o| link_key(o.node, o.neighbor) != link_key(a, b));
            }
            // No invariant reads these (an ACK's uid was never in the
            // ledger; a node going down shows in what its neighbours do).
            TraceRecord::TcpRecvAck { .. }
            | TraceRecord::TcpAckTx { .. }
            | TraceRecord::FaultNode { .. }
            | TraceRecord::PhyRx { .. }
            | TraceRecord::PhyCollision { .. }
            | TraceRecord::PhyLoss { .. }
            | TraceRecord::PhyMove { .. }
            | TraceRecord::MacBackoff { .. }
            | TraceRecord::RtrRecv { .. }
            | TraceRecord::RtrRouteChange { .. }
            | TraceRecord::IfqEnqueue { .. } => {}
        }
    }

    /// A unicast data forward: the route behind it must be live, and the
    /// link must not be one the node already saw fail while scripted down.
    fn on_data_forward(
        &mut self,
        now: SimTime,
        node: NodeId,
        next_hop: NodeId,
        uid: u64,
        route_valid_until: Option<SimTime>,
    ) {
        match route_valid_until {
            None => self.violate(
                now,
                "aodv-route-fresh",
                format!(
                    "{node} forwarded data uid {uid:#x} to {next_hop} with no valid route entry"
                ),
            ),
            Some(expires) if expires <= now => self.violate(
                now,
                "aodv-route-fresh",
                format!(
                    "{node} forwarded data uid {uid:#x} to {next_hop} on a route expired at \
                     t={:.6}s",
                    expires.as_secs_f64()
                ),
            ),
            Some(_) => {}
        }
        self.last_data_forward.insert((node, next_hop), now);
        if self.dead_observed.contains(&(node, next_hop))
            && self.down_links.contains(&link_key(node, next_hop))
        {
            self.violate(
                now,
                "aodv-dead-link",
                format!(
                    "{node} forwarded data uid {uid:#x} to {next_hop} over a scripted-down \
                     link it already saw fail"
                ),
            );
        }
    }

    fn terminate(&mut self, uid: u64, to: UidState) {
        // Only packets born in a `TcpSend` participate in the ledger;
        // routing control and ACK uids pass through untracked. A second
        // terminal is tolerated: a lost MAC-level ACK legitimately
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

#[cfg(test)]
mod tests {
    use super::*;
    use wire::FrameKind;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    const FLOW: FlowId = FlowId::new(0);

    fn sent(uid: u64) -> TraceRecord {
        TraceRecord::TcpSend {
            node: n(0),
            flow: FLOW,
            seq: uid,
            uid,
            bytes: 1500,
            retransmit: false,
        }
    }

    fn delivered(uid: u64, rcv_nxt_after: u64) -> TraceRecord {
        TraceRecord::TcpRecvData {
            node: n(3),
            flow: FLOW,
            seq: uid,
            uid,
            avbw: None,
            marked: false,
            rcv_nxt_after: Some(rcv_nxt_after),
        }
    }

    /// `n1` hands a packet of `kind` to `next_hop`.
    fn forward(
        kind: PacketKind,
        next_hop: NodeId,
        uid: u64,
        route_valid_until: Option<SimTime>,
    ) -> TraceRecord {
        TraceRecord::RtrForward {
            node: n(1),
            next_hop,
            kind,
            uid,
            flow: Some(FLOW),
            bytes: 1500,
            ttl: 62,
            origin: false,
            route_valid_until,
        }
    }

    /// `n1` forwards data to `n2` on a route good until `until`.
    fn data_forward(uid: u64, until: f64) -> TraceRecord {
        forward(PacketKind::TcpData, n(2), uid, Some(t(until)))
    }

    fn link(up: bool) -> TraceRecord {
        TraceRecord::FaultLink { a: n(1), b: n(2), up }
    }

    /// `n1`'s MAC gives up on `n2`.
    fn retry_drop() -> TraceRecord {
        TraceRecord::MacRetryDrop { node: n(1), next_hop: n(2), uid: 1 }
    }

    fn frame(airtime: SimDuration, cw: u32, nav_ahead: SimDuration) -> TraceRecord {
        TraceRecord::PhyTx {
            node: n(0),
            dst: n(1),
            frame: FrameKind::Data,
            bytes: 1534,
            uid: Some(1),
            airtime,
            cw,
            nav_ahead,
        }
    }

    fn window(cwnd: f64, ssthresh: Option<f64>) -> TraceRecord {
        TraceRecord::TcpCwnd {
            node: n(0),
            flow: FLOW,
            cwnd,
            ssthresh,
            srtt: None,
            rto: None,
            phase: "slow-start",
        }
    }

    fn invariants(c: &InvariantChecker) -> Vec<&'static str> {
        c.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn clean_stream_stays_clean() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &sent(1));
        c.on_record(t(1.1), &data_forward(1, 4.0));
        c.on_record(t(1.2), &delivered(1, 1460));
        c.finish(t(2.0));
        assert!(c.is_clean(), "{:?}", c.violations());
        assert_eq!(c.records_seen(), 3);
        assert_eq!(
            c.ledger(),
            LedgerSummary { injected: 1, delivered: 1, ..LedgerSummary::default() }
        );
    }

    #[test]
    fn receiver_regression_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &sent(1));
        c.on_record(t(1.1), &delivered(1, 2920));
        c.on_record(t(1.2), &sent(2));
        c.on_record(t(1.3), &delivered(2, 1460)); // rcv_nxt went backwards
        assert_eq!(invariants(&c), ["tcp-monotone"]);
        assert!(!c.violations()[0].trail.is_empty());
    }

    #[test]
    fn delivery_from_nowhere_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &delivered(77, 1460));
        assert_eq!(invariants(&c), ["conservation"]);
    }

    #[test]
    fn a_segment_for_a_flow_the_node_has_no_receiver_for_stays_in_flight() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &sent(1));
        let TraceRecord::TcpRecvData { node, flow, seq, uid, avbw, marked, .. } = delivered(1, 0)
        else {
            unreachable!()
        };
        let nowhere =
            TraceRecord::TcpRecvData { node, flow, seq, uid, avbw, marked, rcv_nxt_after: None };
        c.on_record(t(1.1), &nowhere);
        assert!(c.is_clean());
        assert_eq!(c.ledger().in_flight, 1);
    }

    #[test]
    fn double_injection_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &sent(5));
        c.on_record(t(1.1), &sent(5));
        assert_eq!(invariants(&c), ["conservation"]);
    }

    #[test]
    fn forwarding_without_route_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(2.0), &forward(PacketKind::TcpData, n(2), 9, None));
        c.on_record(t(3.0), &data_forward(10, 2.5)); // already expired
        assert_eq!(invariants(&c), ["aodv-route-fresh", "aodv-route-fresh"]);
        // Control, ACK and broadcast forwards carry no expiry and need none.
        c.on_record(t(4.0), &forward(PacketKind::Rreq, NodeId::BROADCAST, 11, None));
        c.on_record(t(4.0), &forward(PacketKind::TcpAck, n(2), 12, None));
        c.on_record(t(4.0), &forward(PacketKind::TcpData, NodeId::BROADCAST, 13, None));
        assert_eq!(c.violations().len(), 2);
    }

    #[test]
    fn forwarding_on_an_observed_dead_link_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &data_forward(1, 100.0));
        c.on_record(t(5.0), &link(false));
        // First attempt after the break is legitimate — the node cannot
        // know yet.
        c.on_record(t(5.1), &data_forward(2, 100.0));
        assert!(c.is_clean());
        c.on_record(t(5.2), &retry_drop());
        // ...but after the MAC told it, forwarding there again is a bug.
        c.on_record(t(5.3), &data_forward(3, 100.0));
        assert_eq!(invariants(&c), ["aodv-dead-link"]);
        // Once the link heals the route may be reused.
        c.on_record(t(6.0), &link(true));
        c.on_record(t(6.1), &data_forward(4, 100.0));
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn a_retry_drop_on_a_link_nobody_scripted_down_teaches_nothing() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &data_forward(1, 100.0));
        c.on_record(t(1.1), &retry_drop());
        c.on_record(t(1.2), &data_forward(2, 100.0));
        c.finish(t(2.0));
        assert!(c.is_clean(), "{:?}", c.violations());
    }

    #[test]
    fn missing_rerr_is_flagged_at_finish() {
        let mut c = InvariantChecker::new();
        c.on_record(t(4.9), &data_forward(1, 7.0));
        c.on_record(t(5.0), &link(false));
        c.on_record(t(5.1), &retry_drop());
        assert!(c.is_clean(), "the obligation falls due at finish");
        c.finish(t(10.0));
        assert_eq!(invariants(&c), ["aodv-rerr"]);
        assert_eq!(c.violations()[0].at, t(10.0));
        assert!(!c.violations()[0].trail.is_empty());
    }

    #[test]
    fn rerr_discharges_the_obligation() {
        let mut c = InvariantChecker::new();
        c.on_record(t(4.9), &data_forward(1, 7.0));
        c.on_record(t(5.0), &link(false));
        c.on_record(t(5.1), &retry_drop());
        c.on_record(t(5.1), &forward(PacketKind::Rerr, NodeId::BROADCAST, 50, None));
        c.finish(t(10.0));
        assert!(c.is_clean(), "{:?}", c.violations());
    }

    #[test]
    fn idle_link_failure_carries_no_rerr_obligation() {
        // A failure on a scripted-down link the node was not actively using
        // for data must not demand a RERR (there may be no route to report).
        let mut c = InvariantChecker::new();
        c.on_record(t(5.0), &link(false));
        c.on_record(t(9.0), &retry_drop());
        c.finish(t(10.0));
        assert!(c.is_clean());
    }

    #[test]
    fn mac_bounds_are_enforced() {
        let mut c = InvariantChecker::new();
        let ms = SimDuration::from_millis;
        c.on_record(t(1.0), &frame(ms(25), 2048, ms(60)));
        assert_eq!(invariants(&c), ["mac-bounds"; 3]);
        // A legal frame is quiet.
        c.on_record(t(1.1), &frame(SimDuration::from_micros(6328), 31, SimDuration::ZERO));
        assert_eq!(c.violations().len(), 3);
    }

    /// The window is checked on the records that carry it — one per move and
    /// one at open — and each kind of nonsense fires on the first that does.
    #[test]
    fn cwnd_sanity_fires_on_the_first_record_carrying_the_value() {
        let cap = CheckerLimits::default().max_cwnd_segments;
        for (bad, detail) in [
            (window(f64::NAN, None), "insane cwnd NaN"),
            (window(0.0, None), "insane cwnd 0"),
            (window(cap * 2.0, Some(64.0)), "insane cwnd 2000000"),
            (window(4.0, Some(f64::INFINITY)), "insane ssthresh inf"),
            (window(4.0, Some(f64::NAN)), "insane ssthresh NaN"),
        ] {
            let mut c = InvariantChecker::new();
            c.on_record(t(1.0), &window(2.5, Some(64.0)));
            c.on_record(t(1.0), &window(cap, None));
            assert!(c.is_clean(), "{:?}", c.violations());
            c.on_record(t(1.1), &bad);
            assert_eq!(invariants(&c), ["tcp-cwnd-sane"], "{bad:?}");
            let v = &c.violations()[0];
            assert!(v.detail.ends_with(detail), "{}", v.detail);
            assert_eq!(v.at, t(1.1));
            assert!(v.trail.last().is_some_and(|line| line.contains("TcpCwnd")));
        }
    }

    #[test]
    fn ledger_tracks_every_terminal_kind() {
        let mut c = InvariantChecker::new();
        for uid in 1..=5 {
            c.on_record(t(1.0), &sent(uid));
        }
        let flow = Some(FLOW);
        c.on_record(t(2.0), &delivered(1, 1460));
        c.on_record(t(2.1), &TraceRecord::IfqDrop { node: n(1), uid: 2, flow });
        c.on_record(t(2.2), &TraceRecord::FaultDrop { node: n(1), uid: 3 });
        let kind = PacketKind::TcpData;
        c.on_record(t(2.3), &TraceRecord::RtrDrop { node: n(1), kind, uid: 4, flow });
        // Untracked uid: ignored by the ledger.
        c.on_record(t(2.4), &TraceRecord::RtrDrop { node: n(1), kind, uid: 999, flow });
        let s = c.ledger();
        assert_eq!(
            s,
            LedgerSummary { injected: 5, delivered: 1, dropped: 2, fault_dropped: 1, in_flight: 1 }
        );
        assert_eq!(s.injected, s.delivered + s.dropped + s.fault_dropped + s.in_flight);
    }

    #[test]
    fn duplicate_terminal_is_tolerated_first_wins() {
        // Lost MAC ACK: the data was delivered, the retrying relay later
        // drops its copy. Not a protocol violation.
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &sent(1));
        c.on_record(t(2.0), &delivered(1, 1460));
        let kind = PacketKind::TcpData;
        c.on_record(t(2.5), &TraceRecord::RtrDrop { node: n(1), kind, uid: 1, flow: Some(FLOW) });
        assert!(c.is_clean());
        assert_eq!(c.ledger().delivered, 1);
        assert_eq!(c.ledger().dropped, 0);
    }

    #[test]
    fn trail_is_bounded_and_recent() {
        let limits = CheckerLimits { trail_len: 4, ..CheckerLimits::default() };
        let mut c = InvariantChecker::with_limits(limits);
        for uid in 0..50 {
            c.on_record(t(1.0 + uid as f64), &sent(uid));
        }
        c.on_record(t(60.0), &delivered(1000, 1460));
        let v = &c.violations()[0];
        assert_eq!(v.trail.len(), 4);
        // Oldest first, ending on the offending record itself.
        assert!(v.trail[0].starts_with("t=48.000000s TcpSend"), "{}", v.trail[0]);
        assert!(v.trail[3].starts_with("t=60.000000s TcpRecvData"), "{}", v.trail[3]);
        assert!(v.trail[3].contains("uid: 1000"));
        assert!(v.to_string().contains("conservation"));
    }
}
