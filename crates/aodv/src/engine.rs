//! The per-node AODV routing engine.

use std::collections::VecDeque;

use sim_core::DetMap;

use sim_core::{SimTime, SmallVec, TimerHandle, TimerSlab};
use wire::{AodvMessage, NodeId, Packet, Payload, RouteError, RouteReply, RouteRequest, UidGen};

use crate::{AodvConfig, RouteTable};

/// Identifies a discovery-timeout timer set by the engine. The
/// driver can skip stale pops entirely by checking [`Aodv::timer_is_live`]
/// (a generation-checked tombstone from `sim_core`'s [`TimerSlab`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AodvTimer(TimerHandle);

/// Output batch returned by the engine's event handlers. Usually 0–3
/// entries, so the inline representation avoids a heap allocation per call.
pub type AodvOutputs = SmallVec<AodvOutput, 4>;

/// Why a packet was dropped by the routing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// No route and this node is not the source (cannot buffer).
    NoRoute,
    /// The IP TTL reached zero.
    TtlExpired,
    /// The discovery buffer overflowed (oldest packet evicted).
    BufferOverflow,
    /// Route discovery exhausted its retries.
    DiscoveryFailed,
}

/// Actions the driver must execute on the engine's behalf.
#[derive(Clone, Debug)]
pub enum AodvOutput {
    /// Queue `packet` for MAC transmission to `next_hop`
    /// ([`NodeId::BROADCAST`] for floods).
    Forward {
        /// The packet to send.
        packet: Packet,
        /// Link-layer next hop.
        next_hop: NodeId,
    },
    /// The packet is addressed to this node — hand it to the transport.
    DeliverLocal(Packet),
    /// Call [`Aodv::on_timer`] with `id` at `at`.
    SetTimer {
        /// Timer identity to echo back.
        id: AodvTimer,
        /// Absolute firing time.
        at: SimTime,
    },
    /// The packet was dropped; recorded for statistics.
    Dropped {
        /// The dropped packet.
        packet: Packet,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A routing-table entry changed. Purely informational: reports route
    /// installs/refreshes (RREQ reverse routes, RREP forward routes) and
    /// invalidations (link failure, RERR), so observers can trace route
    /// churn.
    RouteChange {
        /// Route destination.
        dst: NodeId,
        /// Next hop (`None` once invalidated).
        next_hop: Option<NodeId>,
        /// Hop count of the entry (0 when invalidated).
        hop_count: u8,
        /// Whether the entry is valid after the change.
        valid: bool,
    },
}

/// Counters for diagnostics and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AodvStats {
    /// RREQ floods originated (not rebroadcasts).
    pub discoveries: u64,
    /// RREQ packets transmitted (originated + rebroadcast).
    pub rreq_sent: u64,
    /// RREP packets originated or forwarded.
    pub rrep_sent: u64,
    /// RERR packets originated or propagated.
    pub rerr_sent: u64,
    /// Data packets dropped by routing.
    pub data_drops: u64,
}

#[derive(Debug)]
struct Pending {
    retries: u32,
    /// The armed discovery timeout; `None` only between creation and the
    /// first [`Aodv::send_rreq`] for this destination.
    timer: Option<AodvTimer>,
    buffered: VecDeque<Packet>,
}

sim_core::snap_record! { AodvTimer { 0 } }

sim_core::snap_record! { AodvStats { discoveries, rreq_sent, rrep_sent, rerr_sent, data_drops } }

sim_core::snap_record! { Pending { retries, timer, buffered } }

/// The AODV routing engine for one node.
///
/// Drive it with `route_packet` (locally-originated traffic),
/// `on_packet_received` (MAC deliveries), `on_link_failure` (MAC retry-limit
/// feedback) and `on_timer`; execute the returned [`AodvOutput`] actions.
#[derive(Debug)]
pub struct Aodv {
    addr: NodeId,
    cfg: AodvConfig,
    table: RouteTable,
    seq: u32,
    bcast_id: u32,
    seen: DetMap<(NodeId, u32), SimTime>,
    pending: DetMap<NodeId, Pending>,
    timers: TimerSlab,
    uid: UidGen,
    stats: AodvStats,
}

// The engine's full state: routing table, sequence and broadcast counters,
// duplicate-RREQ memory, pending discoveries with their buffered packets,
// the timer slab and counters.
sim_core::snap_record! {
    given (cfg: AodvConfig) Aodv {
        addr,
        cfg = cfg,
        table,
        seq,
        bcast_id,
        seen,
        pending,
        timers,
        uid,
        stats,
    }
}

impl Aodv {
    /// Creates the engine for node `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent.
    pub fn new(addr: NodeId, cfg: AodvConfig, uid: UidGen) -> Self {
        cfg.validate();
        Aodv {
            addr,
            cfg,
            table: RouteTable::new(),
            seq: 0,
            bcast_id: 0,
            seen: DetMap::new(),
            pending: DetMap::new(),
            timers: TimerSlab::new(),
            uid,
            stats: AodvStats::default(),
        }
    }

    /// The routing table (read-only, for tests and diagnostics).
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> AodvStats {
        self.stats
    }

    /// Whether a timer id set via [`AodvOutput::SetTimer`] has been neither
    /// cancelled nor fired. The driver consults this at its dispatch choke
    /// point to discard stale timer pops without entering the engine.
    pub fn timer_is_live(&self, id: AodvTimer) -> bool {
        self.timers.is_live(id.0)
    }

    /// Number of timers cancelled before firing (lazy tombstones whose
    /// queued events will pop stale).
    pub fn timers_cancelled(&self) -> u64 {
        self.timers.cancelled_count()
    }

    /// Whether a usable route to `dst` exists right now.
    pub fn has_route(&self, dst: NodeId, now: SimTime) -> bool {
        self.table.lookup(dst, now).is_some()
    }

    /// Expiry time of the currently valid route to `dst`, if one exists.
    /// Consumed by the runtime invariant checker to prove every forward
    /// rides a fresh route.
    pub fn route_valid_until(&self, dst: NodeId, now: SimTime) -> Option<SimTime> {
        self.table.lookup(dst, now).map(|r| r.expires)
    }

    /// Fault hook: wipes all routing state after a node crash — routes,
    /// pending discoveries (their timers become stale ids, which
    /// [`Aodv::on_timer`] ignores) and duplicate-RREQ memory — and returns
    /// the data packets that sat buffered awaiting discovery, so the caller
    /// can account for them instead of losing them silently. Identity state
    /// (sequence number, broadcast id, the packet uid generator) survives: a
    /// revived node must never reuse packet identifiers, or neighbours'
    /// duplicate filters would eat its fresh traffic.
    pub fn reset_routes(&mut self) -> Vec<Packet> {
        let mut flushed = Vec::new();
        let mut dead_timers = Vec::new();
        for (_, pending) in self.pending.iter_mut() {
            flushed.extend(pending.buffered.drain(..));
            dead_timers.extend(pending.timer.take());
        }
        for id in dead_timers {
            self.timers.cancel(id.0);
        }
        self.pending.clear();
        self.table = RouteTable::new();
        self.seen.clear();
        flushed
    }

    /// Routes a locally-originated packet: forward if a route exists,
    /// otherwise buffer it and start (or join) a route discovery.
    pub fn route_packet(&mut self, packet: Packet, now: SimTime) -> AodvOutputs {
        let mut out = AodvOutputs::new();
        self.route_or_buffer(packet, now, &mut out);
        out
    }

    /// Handles a packet delivered by the MAC from neighbour `prev_hop`.
    pub fn on_packet_received(
        &mut self,
        packet: Packet,
        prev_hop: NodeId,
        now: SimTime,
    ) -> AodvOutputs {
        let mut out = AodvOutputs::new();
        self.table.update_neighbor(prev_hop, now + self.cfg.active_route_timeout);
        match &packet.payload {
            Payload::Aodv(AodvMessage::Rreq(rreq)) => {
                let rreq = *rreq;
                self.handle_rreq(rreq, prev_hop, packet.ttl, now, &mut out);
            }
            Payload::Aodv(AodvMessage::Rrep(rrep)) => {
                let rrep = *rrep;
                self.handle_rrep(rrep, prev_hop, now, &mut out);
            }
            Payload::Aodv(AodvMessage::Rerr(rerr)) => {
                let rerr = rerr.clone();
                self.handle_rerr(&rerr, prev_hop, &mut out);
            }
            Payload::Tcp(_) => self.handle_transit_data(packet, now, &mut out),
        }
        out
    }

    /// Handles MAC-layer link failure feedback: the frame for `packet` could
    /// not be delivered to `next_hop` after all retries.
    pub fn on_link_failure(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        now: SimTime,
    ) -> AodvOutputs {
        let mut out = AodvOutputs::new();
        let broken = self.table.invalidate_via(next_hop);
        if !broken.is_empty() {
            for &(dst, _) in &broken {
                out.push(AodvOutput::RouteChange {
                    dst,
                    next_hop: None,
                    hop_count: 0,
                    valid: false,
                });
            }
            self.send_rerr(broken, &mut out);
        }
        if packet.is_control() {
            // Lost routing control traffic is not retried.
            out.push(AodvOutput::Dropped { packet, reason: DropReason::NoRoute });
            return out;
        }
        if packet.src == self.addr {
            // We originated it: buffer and re-discover.
            self.route_or_buffer(packet, now, &mut out);
        } else {
            self.stats.data_drops += 1;
            out.push(AodvOutput::Dropped { packet, reason: DropReason::NoRoute });
        }
        out
    }

    /// A discovery timer fired.
    pub fn on_timer(&mut self, id: AodvTimer, now: SimTime) -> AodvOutputs {
        let mut out = AodvOutputs::new();
        if !self.timers.fire(id.0) {
            // Cancelled (or already consumed): a lazy tombstone popping.
            return out;
        }
        let dst = self.pending.iter().find(|(_, p)| p.timer == Some(id)).map(|(dst, _)| *dst);
        // A live timer always belongs to one owner; if a route appeared in
        // the meantime, flush and finish instead of retrying.
        let Some(dst) = dst else { return out };
        if self.table.lookup(dst, now).is_some() {
            self.finish_discovery(dst, now, &mut out);
            return out;
        }
        let retries = self.pending.get(&dst).map(|p| p.retries).unwrap_or(0);
        if retries >= self.cfg.rreq_retries {
            // Give up: drop everything buffered for this destination.
            if let Some(p) = self.pending.remove(&dst) {
                for packet in p.buffered {
                    self.stats.data_drops += 1;
                    out.push(AodvOutput::Dropped { packet, reason: DropReason::DiscoveryFailed });
                }
            }
            return out;
        }
        if let Some(p) = self.pending.get_mut(&dst) {
            p.retries += 1;
        }
        self.send_rreq(dst, now, &mut out);
        out
    }

    // ------------------------------------------------------------------

    fn route_or_buffer(&mut self, packet: Packet, now: SimTime, out: &mut AodvOutputs) {
        if packet.dst == self.addr {
            out.push(AodvOutput::DeliverLocal(packet));
            return;
        }
        if let Some(route) = self.table.lookup(packet.dst, now) {
            let next_hop = route.next_hop;
            self.table.refresh(packet.dst, now, self.cfg.active_route_timeout);
            self.table.refresh(next_hop, now, self.cfg.active_route_timeout);
            out.push(AodvOutput::Forward { packet, next_hop });
            return;
        }
        let dst = packet.dst;
        match self.pending.get_mut(&dst) {
            Some(p) => {
                if p.buffered.len() >= self.cfg.buffer_capacity {
                    if let Some(evicted) = p.buffered.pop_front() {
                        self.stats.data_drops += 1;
                        out.push(AodvOutput::Dropped {
                            packet: evicted,
                            reason: DropReason::BufferOverflow,
                        });
                    }
                }
                p.buffered.push_back(packet);
            }
            None => {
                let mut buffered = VecDeque::new();
                buffered.push_back(packet);
                self.pending.insert(dst, Pending { retries: 0, timer: None, buffered });
                self.stats.discoveries += 1;
                self.send_rreq(dst, now, out);
            }
        }
    }

    fn send_rreq(&mut self, dst: NodeId, now: SimTime, out: &mut AodvOutputs) {
        self.seq = self.seq.saturating_add(1);
        self.bcast_id = self.bcast_id.saturating_add(1);
        // Suppress our own flood when neighbours rebroadcast it back at us.
        self.seen.insert((self.addr, self.bcast_id), now + self.cfg.rreq_seen_lifetime);
        let dst_seq = self.table.entry(dst).map(|r| r.dst_seq).unwrap_or(0);
        let rreq = RouteRequest {
            origin: self.addr,
            origin_seq: self.seq,
            broadcast_id: self.bcast_id,
            dst,
            dst_seq,
            hop_count: 0,
        };
        let packet = Packet::with_ttl(
            self.uid.next(),
            self.addr,
            NodeId::BROADCAST,
            self.cfg.rreq_ttl,
            Payload::Aodv(AodvMessage::Rreq(rreq)),
        );
        self.stats.rreq_sent += 1;
        out.push(AodvOutput::Forward { packet, next_hop: NodeId::BROADCAST });
        // Arm (or re-arm) the discovery timeout with binary exponential wait.
        let retries = self.pending.get(&dst).map(|p| p.retries).unwrap_or(0);
        let wait = self.cfg.net_traversal_time.saturating_mul(1 << retries.min(8));
        let id = self.alloc_timer();
        if let Some(old) = self.pending.get_mut(&dst).and_then(|p| p.timer.replace(id)) {
            // Tombstone a previously armed timeout (no-op if it just fired).
            self.timers.cancel(old.0);
        }
        out.push(AodvOutput::SetTimer { id, at: now + wait });
    }

    fn handle_rreq(
        &mut self,
        mut rreq: RouteRequest,
        prev_hop: NodeId,
        ttl: u8,
        now: SimTime,
        out: &mut AodvOutputs,
    ) {
        if rreq.origin == self.addr {
            return; // our own flood reflected back
        }
        let key = (rreq.origin, rreq.broadcast_id);
        if let Some(&until) = self.seen.get(&key) {
            if until > now {
                return; // duplicate
            }
        }
        self.seen.insert(key, now + self.cfg.rreq_seen_lifetime);
        // Only an unexpired id suppresses anything: keep no others, so the
        // table (and a snapshot of it) holds `rreq_seen_lifetime` of floods.
        self.seen.retain(|_, &mut until| until > now);
        // Learn/refresh the reverse route to the origin. Hop counts and
        // sequence numbers saturate: a decoded packet may carry any value.
        let hops = rreq.hop_count.saturating_add(1);
        if self.table.update(
            rreq.origin,
            prev_hop,
            hops,
            rreq.origin_seq,
            now + self.cfg.active_route_timeout,
        ) {
            out.push(AodvOutput::RouteChange {
                dst: rreq.origin,
                next_hop: Some(prev_hop),
                hop_count: hops,
                valid: true,
            });
        }
        self.flush_if_pending(rreq.origin, now, out);
        if rreq.dst == self.addr {
            // We are the destination: answer with our own sequence number.
            if self.seq <= rreq.dst_seq {
                self.seq = rreq.dst_seq.saturating_add(1);
            }
            let rrep =
                RouteReply { origin: rreq.origin, dst: self.addr, dst_seq: self.seq, hop_count: 0 };
            self.unicast_rrep_to(rrep, prev_hop, out);
            return;
        }
        // Fresh-enough cached route? Reply on the destination's behalf.
        if let Some(route) = self.table.lookup(rreq.dst, now) {
            if route.dst_seq >= rreq.dst_seq && route.dst_seq > 0 {
                let rrep = RouteReply {
                    origin: rreq.origin,
                    dst: rreq.dst,
                    dst_seq: route.dst_seq,
                    hop_count: route.hop_count,
                };
                self.unicast_rrep_to(rrep, prev_hop, out);
                return;
            }
        }
        // Rebroadcast the flood.
        if ttl > 1 {
            rreq.hop_count = hops;
            let packet = Packet::with_ttl(
                self.uid.next(),
                rreq.origin,
                NodeId::BROADCAST,
                ttl - 1,
                Payload::Aodv(AodvMessage::Rreq(rreq)),
            );
            self.stats.rreq_sent += 1;
            out.push(AodvOutput::Forward { packet, next_hop: NodeId::BROADCAST });
        }
    }

    fn handle_rrep(
        &mut self,
        mut rrep: RouteReply,
        prev_hop: NodeId,
        now: SimTime,
        out: &mut AodvOutputs,
    ) {
        // Learn the forward route to the destination.
        let hops = rrep.hop_count.saturating_add(1);
        if self.table.update(
            rrep.dst,
            prev_hop,
            hops,
            rrep.dst_seq,
            now + self.cfg.active_route_timeout,
        ) {
            out.push(AodvOutput::RouteChange {
                dst: rrep.dst,
                next_hop: Some(prev_hop),
                hop_count: hops,
                valid: true,
            });
        }
        if rrep.origin == self.addr {
            self.finish_discovery(rrep.dst, now, out);
            return;
        }
        // Forward toward the origin along the reverse route.
        if let Some(route) = self.table.lookup(rrep.origin, now) {
            let toward_origin = route.next_hop;
            rrep.hop_count = hops;
            self.unicast_rrep_to(rrep, toward_origin, out);
        }
        // No reverse route: the RREP dies here.
    }

    fn handle_rerr(&mut self, rerr: &RouteError, prev_hop: NodeId, out: &mut AodvOutputs) {
        let mut invalidated = Vec::new();
        for &(dst, seq) in &rerr.unreachable {
            if self.table.invalidate_route(dst, prev_hop, seq) {
                out.push(AodvOutput::RouteChange {
                    dst,
                    next_hop: None,
                    hop_count: 0,
                    valid: false,
                });
                invalidated.push((dst, seq));
            }
        }
        if !invalidated.is_empty() {
            self.send_rerr(invalidated, out);
        }
    }

    fn handle_transit_data(&mut self, mut packet: Packet, now: SimTime, out: &mut AodvOutputs) {
        if packet.dst == self.addr {
            out.push(AodvOutput::DeliverLocal(packet));
            return;
        }
        if packet.ttl <= 1 {
            self.stats.data_drops += 1;
            out.push(AodvOutput::Dropped { packet, reason: DropReason::TtlExpired });
            return;
        }
        packet.ttl -= 1;
        if let Some(route) = self.table.lookup(packet.dst, now) {
            let next_hop = route.next_hop;
            self.table.refresh(packet.dst, now, self.cfg.active_route_timeout);
            self.table.refresh(next_hop, now, self.cfg.active_route_timeout);
            out.push(AodvOutput::Forward { packet, next_hop });
        } else {
            // Mid-path node with no route: RERR back and drop.
            let seq =
                self.table.entry(packet.dst).map(|r| r.dst_seq.saturating_add(1)).unwrap_or(0);
            let dst = packet.dst;
            self.stats.data_drops += 1;
            out.push(AodvOutput::Dropped { packet, reason: DropReason::NoRoute });
            self.send_rerr(vec![(dst, seq)], out);
        }
    }

    fn finish_discovery(&mut self, dst: NodeId, now: SimTime, out: &mut AodvOutputs) {
        if let Some(pending) = self.pending.remove(&dst) {
            if let Some(id) = pending.timer {
                // Tombstone the pending timeout (no-op if it just fired).
                self.timers.cancel(id.0);
            }
            for packet in pending.buffered {
                self.route_or_buffer(packet, now, out);
            }
        }
    }

    /// If `dst` became reachable as a side effect (e.g. reverse route from a
    /// RREQ), flush any traffic we had buffered for it.
    fn flush_if_pending(&mut self, dst: NodeId, now: SimTime, out: &mut AodvOutputs) {
        if self.pending.contains_key(&dst) && self.table.lookup(dst, now).is_some() {
            self.finish_discovery(dst, now, out);
        }
    }

    fn unicast_rrep_to(&mut self, rrep: RouteReply, next_hop: NodeId, out: &mut AodvOutputs) {
        let packet = Packet::new(
            self.uid.next(),
            self.addr,
            rrep.origin,
            Payload::Aodv(AodvMessage::Rrep(rrep)),
        );
        self.stats.rrep_sent += 1;
        out.push(AodvOutput::Forward { packet, next_hop });
    }

    fn send_rerr(&mut self, unreachable: Vec<(NodeId, u32)>, out: &mut AodvOutputs) {
        let packet = Packet::with_ttl(
            self.uid.next(),
            self.addr,
            NodeId::BROADCAST,
            1,
            Payload::Aodv(AodvMessage::Rerr(RouteError { unreachable })),
        );
        self.stats.rerr_sent += 1;
        out.push(AodvOutput::Forward { packet, next_hop: NodeId::BROADCAST });
    }

    fn alloc_timer(&mut self) -> AodvTimer {
        AodvTimer(self.timers.schedule())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;
    use wire::{FlowId, TcpSegment};

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn mk(addr: u16) -> Aodv {
        Aodv::new(n(addr), AodvConfig::default(), UidGen::new(n(addr)))
    }

    fn data(uid: u64, src: u16, dst: u16) -> Packet {
        Packet::new(
            uid,
            n(src),
            n(dst),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)),
        )
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn find_rreq(out: &AodvOutputs) -> Option<&Packet> {
        out.iter().find_map(|o| match o {
            AodvOutput::Forward { packet, .. }
                if matches!(packet.payload, Payload::Aodv(AodvMessage::Rreq(_))) =>
            {
                Some(packet)
            }
            _ => None,
        })
    }

    fn find_rrep(out: &AodvOutputs) -> Option<(&Packet, NodeId)> {
        out.iter().find_map(|o| match o {
            AodvOutput::Forward { packet, next_hop }
                if matches!(packet.payload, Payload::Aodv(AodvMessage::Rrep(_))) =>
            {
                Some((packet, *next_hop))
            }
            _ => None,
        })
    }

    #[test]
    fn reset_routes_flushes_buffers_and_keeps_identity() {
        let mut a = mk(0);
        // Buffer two data packets behind a discovery.
        let _ = a.route_packet(data(1, 0, 2), t0());
        let _ = a.route_packet(data(2, 0, 2), t0());
        let pre_seq = a.seq;
        let pre_uid = a.uid.clone();
        let flushed = a.reset_routes();
        assert_eq!(flushed.iter().map(|p| p.uid).collect::<Vec<_>>(), vec![1, 2]);
        assert!(a.table().is_empty());
        assert_eq!(a.seq, pre_seq, "sequence number must survive a crash reset");
        assert_eq!(a.uid.clone().next(), pre_uid.clone().next(), "uid stream must not restart");
        // A fresh discovery starts cleanly afterwards.
        let out = a.route_packet(data(3, 0, 2), t0());
        assert!(find_rreq(&out).is_some());
    }

    #[test]
    fn route_valid_until_reports_the_entry_expiry() {
        let mut a = mk(0);
        let expires = t0() + SimDuration::from_millis(3000);
        a.table.update(n(2), n(1), 2, 5, expires);
        assert_eq!(a.route_valid_until(n(2), t0()), Some(expires));
        // Expired entries are not reported.
        assert_eq!(a.route_valid_until(n(2), expires), None);
        assert_eq!(a.route_valid_until(n(9), t0()), None);
    }

    #[test]
    fn no_route_triggers_discovery_and_buffers() {
        let mut a = mk(0);
        let out = a.route_packet(data(1, 0, 2), t0());
        assert!(find_rreq(&out).is_some());
        assert!(out.iter().any(|o| matches!(o, AodvOutput::SetTimer { .. })));
        assert_eq!(a.stats().discoveries, 1);
        // Second packet to the same destination joins the pending discovery.
        let out = a.route_packet(data(2, 0, 2), t0());
        assert!(find_rreq(&out).is_none(), "no second flood: {out:?}");
    }

    #[test]
    fn destination_replies_with_rrep() {
        let mut b = mk(2);
        let rreq = RouteRequest {
            origin: n(0),
            origin_seq: 1,
            broadcast_id: 1,
            dst: n(2),
            dst_seq: 0,
            hop_count: 0,
        };
        let pkt = Packet::with_ttl(
            9,
            n(0),
            NodeId::BROADCAST,
            64,
            Payload::Aodv(AodvMessage::Rreq(rreq)),
        );
        let out = b.on_packet_received(pkt, n(1), t0());
        let (rrep_pkt, hop) = find_rrep(&out).expect("destination must reply");
        assert_eq!(hop, n(1));
        match &rrep_pkt.payload {
            Payload::Aodv(AodvMessage::Rrep(r)) => {
                assert_eq!(r.origin, n(0));
                assert_eq!(r.dst, n(2));
                assert_eq!(r.hop_count, 0);
            }
            _ => unreachable!(),
        }
        // Reverse route to the origin was learned.
        assert!(b.has_route(n(0), t0()));
    }

    #[test]
    fn intermediate_rebroadcasts_rreq_once() {
        let mut m = mk(1);
        let rreq = RouteRequest {
            origin: n(0),
            origin_seq: 1,
            broadcast_id: 1,
            dst: n(5),
            dst_seq: 0,
            hop_count: 0,
        };
        let pkt = Packet::with_ttl(
            9,
            n(0),
            NodeId::BROADCAST,
            64,
            Payload::Aodv(AodvMessage::Rreq(rreq)),
        );
        let out = m.on_packet_received(pkt.clone(), n(0), t0());
        let fwd = find_rreq(&out).expect("must rebroadcast");
        match &fwd.payload {
            Payload::Aodv(AodvMessage::Rreq(r)) => assert_eq!(r.hop_count, 1),
            _ => unreachable!(),
        }
        assert_eq!(fwd.ttl, 63);
        // Duplicate suppressed.
        let out = m.on_packet_received(pkt, n(2), t0());
        assert!(find_rreq(&out).is_none());
    }

    #[test]
    fn full_discovery_flushes_buffered_packet() {
        let mut a = mk(0);
        let out = a.route_packet(data(1, 0, 2), t0());
        assert!(find_rreq(&out).is_some());
        // RREP comes back from neighbour 1 claiming a 1-hop route to 2.
        let rrep = RouteReply { origin: n(0), dst: n(2), dst_seq: 1, hop_count: 1 };
        let pkt = Packet::new(9, n(1), n(0), Payload::Aodv(AodvMessage::Rrep(rrep)));
        let out = a.on_packet_received(pkt, n(1), t0());
        let fwd: Vec<_> = out
            .iter()
            .filter(|o| matches!(o, AodvOutput::Forward { packet, .. } if packet.is_tcp_data()))
            .collect();
        assert_eq!(fwd.len(), 1, "buffered data must flush: {out:?}");
        match fwd[0] {
            AodvOutput::Forward { next_hop, .. } => assert_eq!(*next_hop, n(1)),
            _ => unreachable!(),
        }
        assert!(a.has_route(n(2), t0()));
    }

    #[test]
    fn intermediate_forwards_rrep_along_reverse_route() {
        let mut m = mk(1);
        // The RREQ from 0 passes through, teaching m the reverse route.
        let rreq = RouteRequest {
            origin: n(0),
            origin_seq: 1,
            broadcast_id: 1,
            dst: n(2),
            dst_seq: 0,
            hop_count: 0,
        };
        let pkt = Packet::with_ttl(
            8,
            n(0),
            NodeId::BROADCAST,
            64,
            Payload::Aodv(AodvMessage::Rreq(rreq)),
        );
        let _ = m.on_packet_received(pkt, n(0), t0());
        // The RREP from 2 arrives; must be forwarded to 0.
        let rrep = RouteReply { origin: n(0), dst: n(2), dst_seq: 1, hop_count: 0 };
        let pkt = Packet::new(9, n(2), n(0), Payload::Aodv(AodvMessage::Rrep(rrep)));
        let out = m.on_packet_received(pkt, n(2), t0());
        let (fwd, hop) = find_rrep(&out).expect("RREP must be forwarded");
        assert_eq!(hop, n(0));
        match &fwd.payload {
            Payload::Aodv(AodvMessage::Rrep(r)) => assert_eq!(r.hop_count, 1),
            _ => unreachable!(),
        }
        // m now has routes both ways.
        assert!(m.has_route(n(0), t0()) && m.has_route(n(2), t0()));
    }

    #[test]
    fn transit_data_forwarded_with_ttl_decrement() {
        let mut m = mk(1);
        m.table_mut_for_tests().update(
            n(2),
            n(2),
            1,
            1,
            t0() + sim_core::SimDuration::from_secs(10),
        );
        let out = m.on_packet_received(data(5, 0, 2), n(0), t0());
        match out.get(0).expect("one output expected") {
            AodvOutput::Forward { packet, next_hop } => {
                assert_eq!(*next_hop, n(2));
                assert_eq!(packet.ttl, wire::DEFAULT_TTL - 1);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn transit_data_without_route_drops_and_rerrs() {
        let mut m = mk(1);
        let out = m.on_packet_received(data(5, 0, 2), n(0), t0());
        assert!(out
            .iter()
            .any(|o| matches!(o, AodvOutput::Dropped { reason: DropReason::NoRoute, .. })));
        assert!(out.iter().any(|o| matches!(
            o,
            AodvOutput::Forward { packet, .. }
                if matches!(packet.payload, Payload::Aodv(AodvMessage::Rerr(_)))
        )));
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut m = mk(1);
        let mut pkt = data(5, 0, 2);
        pkt.ttl = 1;
        let out = m.on_packet_received(pkt, n(0), t0());
        assert!(out
            .iter()
            .any(|o| matches!(o, AodvOutput::Dropped { reason: DropReason::TtlExpired, .. })));
    }

    #[test]
    fn link_failure_invalidates_and_rediscovers_for_source() {
        let mut a = mk(0);
        a.table_mut_for_tests().update(
            n(2),
            n(1),
            2,
            1,
            t0() + sim_core::SimDuration::from_secs(10),
        );
        let out = a.on_link_failure(data(5, 0, 2), n(1), t0());
        assert!(!a.has_route(n(2), t0()));
        // RERR went out and a fresh discovery started.
        assert!(out.iter().any(|o| matches!(
            o,
            AodvOutput::Forward { packet, .. }
                if matches!(packet.payload, Payload::Aodv(AodvMessage::Rerr(_)))
        )));
        assert!(find_rreq(&out).is_some());
        assert_eq!(a.stats().rerr_sent, 1);
    }

    #[test]
    fn link_failure_mid_path_drops_foreign_packet() {
        let mut m = mk(1);
        m.table_mut_for_tests().update(
            n(2),
            n(2),
            1,
            1,
            t0() + sim_core::SimDuration::from_secs(10),
        );
        let out = m.on_link_failure(data(5, 0, 2), n(2), t0());
        assert!(out
            .iter()
            .any(|o| matches!(o, AodvOutput::Dropped { reason: DropReason::NoRoute, .. })));
        assert!(find_rreq(&out).is_none(), "mid-path node must not rediscover");
    }

    #[test]
    fn rerr_propagates_when_route_used() {
        let mut a = mk(0);
        a.table_mut_for_tests().update(
            n(5),
            n(1),
            3,
            4,
            t0() + sim_core::SimDuration::from_secs(10),
        );
        let rerr = RouteError { unreachable: vec![(n(5), 5)] };
        let pkt =
            Packet::with_ttl(9, n(1), NodeId::BROADCAST, 1, Payload::Aodv(AodvMessage::Rerr(rerr)));
        let out = a.on_packet_received(pkt, n(1), t0());
        assert!(!a.has_route(n(5), t0()));
        assert!(out.iter().any(|o| matches!(
            o,
            AodvOutput::Forward { packet, .. }
                if matches!(packet.payload, Payload::Aodv(AodvMessage::Rerr(_)))
        )));
        // A RERR about routes we don't use is not propagated.
        let rerr2 = RouteError { unreachable: vec![(n(9), 1)] };
        let pkt2 = Packet::with_ttl(
            10,
            n(1),
            NodeId::BROADCAST,
            1,
            Payload::Aodv(AodvMessage::Rerr(rerr2)),
        );
        let out2 = a.on_packet_received(pkt2, n(1), t0());
        assert!(out2.iter().all(|o| !matches!(
            o,
            AodvOutput::Forward { packet, .. }
                if matches!(packet.payload, Payload::Aodv(AodvMessage::Rerr(_)))
        )));
    }

    #[test]
    fn discovery_timeout_retries_then_gives_up() {
        let mut a = mk(0);
        // Every flood, first and retried, carries the network-wide TTL.
        let ttl = AodvConfig::default().rreq_ttl;
        let out = a.route_packet(data(1, 0, 2), t0());
        assert_eq!(find_rreq(&out).unwrap().ttl, ttl);
        let (id, at) = out
            .iter()
            .find_map(|o| match o {
                AodvOutput::SetTimer { id, at } => Some((*id, *at)),
                _ => None,
            })
            .unwrap();
        // First timeout: retry.
        let out = a.on_timer(id, at);
        assert_eq!(find_rreq(&out).expect("must retry").ttl, ttl);
        let (id2, at2) = out
            .iter()
            .find_map(|o| match o {
                AodvOutput::SetTimer { id, at } => Some((*id, *at)),
                _ => None,
            })
            .unwrap();
        assert!(at2 - at > sim_core::SimDuration::ZERO);
        // Keep timing out until the retry budget is exhausted; the final
        // timeout drops the buffered packet.
        let (mut id, mut at) = (id2, at2);
        let mut gave_up = false;
        for _ in 0..AodvConfig::default().rreq_retries + 1 {
            let out = a.on_timer(id, at);
            if out.iter().any(|o| {
                matches!(o, AodvOutput::Dropped { reason: DropReason::DiscoveryFailed, .. })
            }) {
                gave_up = true;
                break;
            }
            assert_eq!(find_rreq(&out).expect("must keep retrying").ttl, ttl);
            (id, at) = out
                .iter()
                .find_map(|o| match o {
                    AodvOutput::SetTimer { id, at } => Some((*id, *at)),
                    _ => None,
                })
                .unwrap();
        }
        assert!(gave_up, "discovery must eventually give up");
    }

    #[test]
    fn buffer_overflow_evicts_oldest() {
        let cfg = AodvConfig { buffer_capacity: 2, ..AodvConfig::default() };
        let mut a = Aodv::new(n(0), cfg, UidGen::new(n(0)));
        let _ = a.route_packet(data(1, 0, 2), t0());
        let _ = a.route_packet(data(2, 0, 2), t0());
        let out = a.route_packet(data(3, 0, 2), t0());
        let overflow = out
            .iter()
            .find(|o| matches!(o, AodvOutput::Dropped { reason: DropReason::BufferOverflow, .. }));
        match overflow {
            Some(AodvOutput::Dropped { packet, .. }) => assert_eq!(packet.uid, 1),
            _ => panic!("expected overflow drop: {out:?}"),
        }
    }

    #[test]
    fn discovery_completion_tombstones_the_timeout() {
        let mut a = mk(0);
        let out = a.route_packet(data(1, 0, 2), t0());
        let (id, at) = out
            .iter()
            .find_map(|o| match o {
                AodvOutput::SetTimer { id, at } => Some((*id, *at)),
                _ => None,
            })
            .unwrap();
        assert!(a.timer_is_live(id));
        // The RREP arrives before the timeout: discovery finishes and the
        // pending timeout becomes a tombstone.
        let rrep = RouteReply { origin: n(0), dst: n(2), dst_seq: 1, hop_count: 1 };
        let pkt = Packet::new(9, n(1), n(0), Payload::Aodv(AodvMessage::Rrep(rrep)));
        let _ = a.on_packet_received(pkt, n(1), t0());
        assert!(!a.timer_is_live(id), "completed discovery must kill its timer");
        assert_eq!(a.timers_cancelled(), 1);
        // The stale pop is ignored without starting a retry flood.
        let out = a.on_timer(id, at);
        assert!(out.is_empty(), "stale discovery timer must be ignored: {out:?}");
    }

    #[test]
    fn reset_routes_tombstones_pending_timers() {
        let mut a = mk(0);
        let out = a.route_packet(data(1, 0, 2), t0());
        let id = out
            .iter()
            .find_map(|o| match o {
                AodvOutput::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let _ = a.reset_routes();
        assert!(!a.timer_is_live(id));
        assert!(a.on_timer(id, t0()).is_empty());
    }

    #[test]
    fn own_rreq_echo_ignored() {
        let mut a = mk(0);
        let out = a.route_packet(data(1, 0, 2), t0());
        let rreq_pkt = find_rreq(&out).unwrap().clone();
        // A neighbour rebroadcasts our own flood back at us.
        let out = a.on_packet_received(rreq_pkt, n(1), t0());
        assert!(find_rreq(&out).is_none());
        assert!(find_rrep(&out).is_none());
    }

    fn rreq_pkt(dst: u16, dst_seq: u32, hop_count: u8) -> Packet {
        let rreq = RouteRequest {
            origin: n(0),
            origin_seq: 1,
            broadcast_id: 1,
            dst: n(dst),
            dst_seq,
            hop_count,
        };
        Packet::with_ttl(9, n(0), NodeId::BROADCAST, 64, Payload::Aodv(AodvMessage::Rreq(rreq)))
    }

    fn rerr_seqs(out: &AodvOutputs) -> Vec<(NodeId, u32)> {
        out.iter()
            .flat_map(|o| match o {
                AodvOutput::Forward { packet, .. } => match &packet.payload {
                    Payload::Aodv(AodvMessage::Rerr(e)) => e.unreachable.clone(),
                    _ => Vec::new(),
                },
                _ => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn rreq_at_hop_count_255_saturates() {
        let mut m = mk(1);
        let out = m.on_packet_received(rreq_pkt(5, 0, u8::MAX), n(0), t0());
        assert_eq!(m.table().entry(n(0)).unwrap().hop_count, u8::MAX);
        match &find_rreq(&out).expect("must rebroadcast").payload {
            Payload::Aodv(AodvMessage::Rreq(r)) => assert_eq!(r.hop_count, u8::MAX),
            _ => unreachable!(),
        }
    }

    #[test]
    fn rreq_for_us_at_seq_max_saturates() {
        let mut b = mk(2);
        let out = b.on_packet_received(rreq_pkt(2, u32::MAX, 0), n(1), t0());
        match &find_rrep(&out).expect("destination must reply").0.payload {
            Payload::Aodv(AodvMessage::Rrep(r)) => assert_eq!(r.dst_seq, u32::MAX),
            _ => unreachable!(),
        }
    }

    #[test]
    fn rrep_at_hop_count_255_saturates() {
        let mut m = mk(1);
        m.table_mut_for_tests().update(n(0), n(0), 1, 1, t0() + SimDuration::from_secs(10));
        let rrep = RouteReply { origin: n(0), dst: n(2), dst_seq: 1, hop_count: u8::MAX };
        let pkt = Packet::new(9, n(2), n(0), Payload::Aodv(AodvMessage::Rrep(rrep)));
        let out = m.on_packet_received(pkt, n(2), t0());
        assert_eq!(m.table().entry(n(2)).unwrap().hop_count, u8::MAX);
        match &find_rrep(&out).expect("RREP must be forwarded").0.payload {
            Payload::Aodv(AodvMessage::Rrep(r)) => assert_eq!(r.hop_count, u8::MAX),
            _ => unreachable!(),
        }
    }

    #[test]
    fn transit_data_under_a_dead_route_at_seq_max_saturates() {
        let mut m = mk(1);
        m.table_mut_for_tests().update(n(2), n(2), 1, u32::MAX, t0());
        let out = m.on_packet_received(data(5, 0, 2), n(0), t0());
        assert_eq!(rerr_seqs(&out), vec![(n(2), u32::MAX)]);
    }

    #[test]
    fn link_failure_under_a_route_at_seq_max_saturates() {
        let mut a = mk(0);
        a.table_mut_for_tests().update(n(2), n(1), 2, u32::MAX, t0() + SimDuration::from_secs(10));
        let out = a.on_link_failure(data(5, 0, 2), n(1), t0());
        assert_eq!(rerr_seqs(&out), vec![(n(2), u32::MAX)]);
    }

    #[test]
    fn discovery_at_seq_and_broadcast_id_max_saturates() {
        let mut a = mk(0);
        (a.seq, a.bcast_id) = (u32::MAX, u32::MAX);
        let out = a.route_packet(data(1, 0, 2), t0());
        match &find_rreq(&out).expect("must flood").payload {
            Payload::Aodv(AodvMessage::Rreq(r)) => {
                assert_eq!((r.origin_seq, r.broadcast_id), (u32::MAX, u32::MAX));
            }
            _ => unreachable!(),
        }
    }

    impl Aodv {
        fn table_mut_for_tests(&mut self) -> &mut RouteTable {
            &mut self.table
        }
    }
}
