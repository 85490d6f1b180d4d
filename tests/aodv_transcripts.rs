//! The AODV oracle: `Aodv` engines driven directly (no MAC, no PHY) by
//! seeded scripts of every call their driver makes — `route_packet`
//! (packets to ourselves included), `on_packet_received` of RREQ / RREP /
//! RERR / transit TCP, `on_link_failure` of control and data, own and
//! foreign, live and stale `on_timer` and `reset_routes` —
//! with everything the engines emit and show folded into one digest per
//! (configuration, shape) and compared against rows committed by an earlier
//! build (`tests/fixtures/aodv_transcripts.txt`).
//!
//! Two shapes. A *lone* engine (node 0) hears a made-up neighbourhood: RREQs
//! fresh, duplicated, its own echoed back, for it, answerable from its cache
//! with a fresh or a stale sequence number, at TTL 1; RREPs for it and to
//! forward, with and without a reverse route; RERRs from the route's next
//! hop and from others, with fresh and stale sequence numbers; transit data
//! for it, at TTL 1, routed and not; and link failures of what it sent and
//! of what it never sent. A *line* is three engines `0–1–2` (and a node 5
//! nobody reaches): every forward goes to the in-range neighbours 0.3–2 ms
//! later, a unicast fails by dice — or always, while its link is scripted
//! down — into the sender's `on_link_failure`, and broadcasts are lost by
//! dice.
//!
//! The digest folds the `Debug` of every `AodvOutput`, so timer ids and
//! packet uids are in it; then `AodvStats`, `timers_cancelled()` and, for
//! every node id the scripts speak of, the route entry's `(next_hop,
//! hop_count, dst_seq, valid, expires)`. It folds neither `Route`'s `Debug`
//! nor any snapshot byte, so a field nothing reads can leave `Route`, and a
//! snapshot format change leaves the fixture alone; the twin run at the
//! bottom is what pins the `Aodv` record (encode and decode every few
//! steps, same digest required).

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]
#![allow(clippy::cast_possible_truncation, reason = "test inputs are small generated values")]

use std::collections::BTreeMap;

use tcp_muzha::routing::{Aodv, AodvConfig, AodvOutput, AodvOutputs, AodvTimer, DropReason};
use tcp_muzha::sim::{SimDuration, SimRng, SimTime, SnapshotReader, SnapshotWriter, TraceHash};
use tcp_muzha::wire::{
    AodvMessage, FlowId, NodeId, Packet, Payload, RouteError, RouteReply, RouteRequest, TcpSegment,
    UidGen, DEFAULT_TTL,
};

const STEPS: usize = 5_000;
const CUT_EVERY: usize = 7;
/// Node ids the scripts speak of; the digest folds each one's route entry.
const UNIVERSE: u16 = 8;
/// The lone engine's neighbours: who hands it packets.
const PEERS: u16 = 4;
/// The line's node nobody reaches: discoveries for it fail.
const FAR: u16 = 5;

/// The branches of the engine's handlers the scripts must reach, counted by
/// what the engine shows (outputs and counters), never by looking inside.
const BRANCHES: [&str; 16] = [
    "duplicate suppressed",
    "reply as destination",
    "reply from cache",
    "rebroadcast",
    "RREP forwarded",
    "RREP with no reverse route",
    "RERR invalidating",
    "RERR ignored",
    "transit forwarded",
    "TTL expiry",
    "no-route RERR",
    "buffer eviction",
    "retry",
    "discovery failed",
    "stale timer",
    "reset flush",
];

fn configs() -> [(&'static str, AodvConfig); 2] {
    [
        ("default", AodvConfig::default()),
        ("buffer2", AodvConfig { buffer_capacity: 2, ..AodvConfig::default() }),
    ]
}

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// What the script's own event queue holds.
enum Due {
    /// Engine `.0`'s timer.
    Timer(usize, AodvTimer),
    /// Engine `.0` hears `.1` from neighbour `.2`.
    Arrive(usize, Packet, NodeId),
    /// Engine `.0`'s MAC gives up on `.1` to next hop `.2`.
    LinkFail(usize, Packet, NodeId),
}

/// What a received packet was, as far as counting branches goes.
enum Heard {
    Rreq { ours: bool, for_us: bool, ttl: u8 },
    Rrep { for_us: bool },
    Rerr,
    Data { for_us: bool },
}

struct Script {
    cfg: AodvConfig,
    nodes: Vec<Aodv>,
    rng: SimRng,
    now: SimTime,
    queue: Vec<(SimTime, u64, Due)>,
    seq: u64,
    /// Every timer any engine handed out, for stale pops.
    handed: Vec<(usize, AodvTimer)>,
    next_uid: u64,
    /// Lone: RREQs shown to the engine (with their TTL), for duplicates.
    heard: Vec<(RouteRequest, u8)>,
    /// Lone: floods the engine sent, for echoes.
    own: Vec<Packet>,
    /// Lone: unicasts the engine sent, for link failures of them.
    sent: Vec<(Packet, NodeId)>,
    /// Lone: the next broadcast id of each made-up origin.
    bcast: [u32; UNIVERSE as usize],
    /// Line: when link `i–(i+1)` comes back up.
    down_until: [SimTime; 2],
    h: TraceHash,
    cov: BTreeMap<&'static str, u64>,
}

impl Script {
    fn new(cfg: AodvConfig, line: bool, seed: u64) -> Self {
        let count = if line { 3 } else { 1 };
        Script {
            cfg,
            nodes: (0..count).map(|i| Aodv::new(n(i), cfg, UidGen::new(n(i)))).collect(),
            rng: SimRng::new(seed),
            now: SimTime::ZERO,
            queue: Vec::new(),
            seq: 0,
            handed: Vec::new(),
            next_uid: 1,
            heard: Vec::new(),
            own: Vec::new(),
            sent: Vec::new(),
            bcast: [0; UNIVERSE as usize],
            down_until: [SimTime::ZERO; 2],
            h: TraceHash::new(),
            cov: BTreeMap::new(),
        }
    }

    fn line(&self) -> bool {
        self.nodes.len() > 1
    }

    fn hit(&mut self, branch: &'static str) {
        debug_assert!(BRANCHES.contains(&branch), "unnamed branch {branch}");
        *self.cov.entry(branch).or_default() += 1;
    }

    fn push(&mut self, at: SimTime, due: Due) {
        self.seq += 1;
        self.queue.push((at, self.seq, due));
    }

    fn pick(&mut self, below: u32) -> u32 {
        self.rng.below(below)
    }

    fn uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    /// A TCP packet from `src` to `dst`: data, one time in five an ACK.
    fn tcp(&mut self, src: NodeId, dst: NodeId) -> Packet {
        if self.pick(5) == 0 {
            let uid = self.uid();
            Packet::new(uid, src, dst, Payload::Tcp(TcpSegment::ack(FlowId::new(0), uid)))
        } else {
            self.data(src, dst)
        }
    }

    /// A TCP data packet from `src` to `dst`.
    fn data(&mut self, src: NodeId, dst: NodeId) -> Packet {
        let uid = self.uid();
        Packet::new(uid, src, dst, Payload::Tcp(TcpSegment::data(FlowId::new(0), uid, 512, None)))
    }

    /// The valid routes of engine `i` right now: `(dst, next_hop, dst_seq)`.
    fn routes(&self, i: usize) -> Vec<(NodeId, NodeId, u32)> {
        (0..UNIVERSE)
            .filter_map(|d| self.nodes[i].table().lookup(n(d), self.now).map(|r| (n(d), r)))
            .map(|(d, r)| (d, r.next_hop, r.dst_seq))
            .collect()
    }

    /// Any node id but `me`.
    fn other(&mut self, me: NodeId) -> NodeId {
        let d = 1 + self.pick(u32::from(UNIVERSE) - 1) as u16;
        if n(d) == me {
            n(0)
        } else {
            n(d)
        }
    }

    /// Any node id: one time in `self_odds` ours, else another.
    fn dst(&mut self, me: NodeId, self_odds: u32) -> NodeId {
        if self.pick(self_odds) == 0 {
            me
        } else {
            self.other(me)
        }
    }

    fn peer(&mut self) -> NodeId {
        n(1 + self.pick(u32::from(PEERS)) as u16)
    }

    // ------------------------------------------------------------------
    // The calls, each counted and folded.

    fn receive(&mut self, i: usize, packet: Packet, prev_hop: NodeId) -> AodvOutputs {
        let me = n(i as u16);
        let heard = match &packet.payload {
            Payload::Aodv(AodvMessage::Rreq(q)) => {
                Heard::Rreq { ours: q.origin == me, for_us: q.dst == me, ttl: packet.ttl }
            }
            Payload::Aodv(AodvMessage::Rrep(p)) => Heard::Rrep { for_us: p.origin == me },
            Payload::Aodv(_) => Heard::Rerr,
            Payload::Tcp(_) => Heard::Data { for_us: packet.dst == me },
        };
        let before = self.nodes[i].stats();
        let out = self.nodes[i].on_packet_received(packet, prev_hop, self.now);
        let after = self.nodes[i].stats();
        let (rreqs, rreps, rerrs) = (
            after.rreq_sent - before.rreq_sent,
            after.rrep_sent - before.rrep_sent,
            after.rerr_sent - before.rerr_sent,
        );
        match heard {
            Heard::Rreq { ours: true, .. } => assert!(out.is_empty(), "an echo did {out:?}"),
            Heard::Rreq { ours: false, for_us, ttl } => {
                if rreps > 0 {
                    self.hit(if for_us { "reply as destination" } else { "reply from cache" });
                } else if rreqs > 0 {
                    self.hit("rebroadcast");
                } else if ttl > 1 {
                    // A fresh flood with hops left always answers or goes on.
                    self.hit("duplicate suppressed");
                }
            }
            Heard::Rrep { for_us: true } => {}
            Heard::Rrep { for_us: false } => {
                self.hit(if rreps > 0 { "RREP forwarded" } else { "RREP with no reverse route" });
            }
            Heard::Rerr => self.hit(if rerrs > 0 { "RERR invalidating" } else { "RERR ignored" }),
            Heard::Data { for_us: true } => {}
            Heard::Data { for_us: false } => {
                for o in out.iter() {
                    match o {
                        AodvOutput::Dropped { reason: DropReason::TtlExpired, .. } => {
                            self.hit("TTL expiry");
                        }
                        AodvOutput::Dropped { reason: DropReason::NoRoute, .. } => {
                            self.hit("no-route RERR");
                        }
                        AodvOutput::Forward { packet, .. } if !packet.is_control() => {
                            self.hit("transit forwarded");
                        }
                        _ => {}
                    }
                }
            }
        }
        out
    }

    fn timer(&mut self, i: usize, id: AodvTimer) -> AodvOutputs {
        let out = self.nodes[i].on_timer(id, self.now);
        if out
            .iter()
            .any(|o| matches!(o, AodvOutput::Forward { packet, .. } if packet.is_control()))
        {
            self.hit("retry");
        }
        out
    }

    /// A timer event that outlived its timer: any id an engine ever handed
    /// out that is dead by now.
    fn stale_timer(&mut self) -> Option<(usize, AodvOutputs)> {
        if self.handed.is_empty() {
            return None;
        }
        let k = self.pick(self.handed.len() as u32) as usize;
        let (i, id) = self.handed[k];
        if self.nodes[i].timer_is_live(id) {
            return None;
        }
        self.hit("stale timer");
        let out = self.nodes[i].on_timer(id, self.now);
        assert!(out.is_empty(), "a stale timer did something: {out:?}");
        Some((i, out))
    }

    fn reset(&mut self, i: usize) {
        let flushed = self.nodes[i].reset_routes();
        if !flushed.is_empty() {
            self.hit("reset flush");
        }
        self.h.write_u64(flushed.len() as u64);
        for p in &flushed {
            self.h.write_str(&format!("{p:?}"));
        }
    }

    /// Folds one step's outputs and what engine `i` shows after it, and
    /// files what the outputs ask the driver to do.
    fn absorb(&mut self, i: usize, code: u64, out: AodvOutputs) {
        self.h.write_u64(code).write_u64(i as u64).write_u64(self.now.as_nanos());
        self.h.write_u64(out.len() as u64);
        for o in out.iter() {
            self.h.write_str(&format!("{o:?}"));
        }
        for o in out {
            match o {
                AodvOutput::SetTimer { id, at } => {
                    assert!(at >= self.now, "a timer set into the past: {at:?} at {:?}", self.now);
                    self.handed.push((i, id));
                    self.push(at, Due::Timer(i, id));
                }
                AodvOutput::Forward { packet, next_hop } => self.forward(i, packet, next_hop),
                AodvOutput::Dropped { reason: DropReason::BufferOverflow, .. } => {
                    self.hit("buffer eviction");
                }
                AodvOutput::Dropped { reason: DropReason::DiscoveryFailed, .. } => {
                    self.hit("discovery failed");
                }
                AodvOutput::Dropped { .. }
                | AodvOutput::DeliverLocal(_)
                | AodvOutput::RouteChange { .. } => {}
            }
        }
        let aodv = &self.nodes[i];
        let st = aodv.stats();
        for v in [
            st.discoveries,
            st.rreq_sent,
            st.rrep_sent,
            st.rerr_sent,
            st.data_drops,
            aodv.timers_cancelled(),
        ] {
            self.h.write_u64(v);
        }
        for d in 0..UNIVERSE {
            match aodv.table().entry(n(d)) {
                Some(r) => {
                    self.h
                        .write_u64(1)
                        .write_u64(r.next_hop.index() as u64)
                        .write_u64(u64::from(r.hop_count))
                        .write_u64(u64::from(r.dst_seq))
                        .write_u64(u64::from(r.valid))
                        .write_u64(r.expires.as_nanos());
                }
                None => {
                    self.h.write_u64(0);
                }
            }
        }
    }

    /// Where engine `i`'s forward goes: in the line, to the in-range
    /// neighbours; alone, into the script's memory for echoes and link
    /// failures.
    fn forward(&mut self, i: usize, packet: Packet, next_hop: NodeId) {
        if !self.line() {
            if next_hop.is_broadcast() {
                if matches!(packet.payload, Payload::Aodv(AodvMessage::Rreq(q)) if q.origin == n(0))
                {
                    self.own.push(packet);
                    if self.own.len() > 16 {
                        self.own.remove(0);
                    }
                }
            } else {
                self.sent.push((packet, next_hop));
                if self.sent.len() > 32 {
                    self.sent.remove(0);
                }
            }
            return;
        }
        let me = n(i as u16);
        let hop = SimDuration::from_micros(300 + u64::from(self.pick(1_700)));
        let neighbours: Vec<usize> =
            [i.checked_sub(1), Some(i + 1).filter(|&j| j < 3)].into_iter().flatten().collect();
        let up = |s: &Self, j: usize| s.down_until[i.min(j)] <= s.now;
        if next_hop.is_broadcast() {
            for j in neighbours {
                if up(self, j) && self.pick(10) != 0 {
                    self.push(self.now + hop, Due::Arrive(j, packet.clone(), me));
                }
            }
            return;
        }
        let to = neighbours.into_iter().find(|&j| n(j as u16) == next_hop);
        match to {
            Some(j) if up(self, j) && self.pick(100) >= 6 => {
                self.push(self.now + hop, Due::Arrive(j, packet, me));
            }
            _ => {
                // The MAC's retry limit: some tens of ms later.
                let after = SimDuration::from_millis(5 + u64::from(self.pick(20)));
                self.push(self.now + after, Due::LinkFail(i, packet, next_hop));
            }
        }
    }

    // ------------------------------------------------------------------
    // The outside world.

    /// A lone engine's RREQ: fresh, a duplicate, its own echo, for it,
    /// answerable from its cache with a fresh or a stale sequence number.
    fn rreq(&mut self) -> (Packet, NodeId) {
        let prev = self.peer();
        match self.pick(10) {
            0 | 1 if !self.heard.is_empty() => {
                let k = self.pick(self.heard.len() as u32) as usize;
                let (q, ttl) = self.heard[k];
                let uid = self.uid();
                return (Packet::with_ttl(uid, q.origin, NodeId::BROADCAST, ttl, rreq(q)), prev);
            }
            2 if !self.own.is_empty() => {
                let k = self.pick(self.own.len() as u32) as usize;
                return (self.own[k].clone(), prev);
            }
            _ => {}
        }
        let origin = self.other(n(0));
        self.bcast[origin.index()] += 1;
        let routes = self.routes(0);
        let (dst, dst_seq) = match self.pick(4) {
            0 => (n(0), self.pick(4)),
            1 if !routes.is_empty() => {
                let (d, _, seq) = routes[self.pick(routes.len() as u32) as usize];
                // Stale (newer than what we hold), or fresh (at or below it).
                (d, if self.pick(3) == 0 { seq + 1 } else { seq.saturating_sub(self.pick(2)) })
            }
            _ => (self.other(n(0)), self.pick(6)),
        };
        let q = RouteRequest {
            origin,
            origin_seq: 1 + self.pick(12),
            broadcast_id: self.bcast[origin.index()],
            dst,
            dst_seq,
            hop_count: self.pick(5) as u8,
        };
        let ttl = if self.pick(6) == 0 { 1 } else { 2 + self.pick(63) as u8 };
        self.heard.push((q, ttl));
        if self.heard.len() > 24 {
            self.heard.remove(0);
        }
        let uid = self.uid();
        (Packet::with_ttl(uid, origin, NodeId::BROADCAST, ttl, rreq(q)), prev)
    }

    /// A lone engine's RREP: for it (mostly about a destination it floods
    /// for), or for somebody it may or may not hold a reverse route to.
    fn rrep(&mut self) -> (Packet, NodeId) {
        let prev = self.peer();
        let for_us = self.pick(2) == 0;
        let (origin, dst) = if for_us {
            let asked: Vec<NodeId> = self
                .own
                .iter()
                .filter_map(|p| match &p.payload {
                    Payload::Aodv(AodvMessage::Rreq(q)) => Some(q.dst),
                    _ => None,
                })
                .collect();
            let dst = if !asked.is_empty() && self.pick(3) != 0 {
                asked[self.pick(asked.len() as u32) as usize]
            } else {
                self.other(n(0))
            };
            (n(0), dst)
        } else {
            let routes = self.routes(0);
            let origin = if !routes.is_empty() && self.pick(2) == 0 {
                routes[self.pick(routes.len() as u32) as usize].0
            } else {
                self.other(n(0))
            };
            (origin, self.other(n(0)))
        };
        let p = RouteReply { origin, dst, dst_seq: self.pick(10), hop_count: self.pick(4) as u8 };
        let uid = self.uid();
        (Packet::new(uid, prev, origin, Payload::Aodv(AodvMessage::Rrep(p))), prev)
    }

    /// A lone engine's RERR: about routes it holds, from their next hop or
    /// from somebody else, with fresh or stale sequence numbers.
    fn rerr(&mut self) -> (Packet, NodeId) {
        let routes = self.routes(0);
        let mut prev = self.peer();
        let mut unreachable = Vec::new();
        for _ in 0..=self.pick(2) {
            if routes.is_empty() || self.pick(5) == 0 {
                unreachable.push((self.other(n(0)), self.pick(8)));
                continue;
            }
            let (d, hop, seq) = routes[self.pick(routes.len() as u32) as usize];
            if self.pick(3) != 0 {
                prev = hop;
            }
            let seq = match self.pick(3) {
                0 => seq.saturating_sub(1),
                1 => seq,
                _ => seq + 1,
            };
            unreachable.push((d, seq));
        }
        let uid = self.uid();
        let e = Payload::Aodv(AodvMessage::Rerr(RouteError { unreachable }));
        (Packet::with_ttl(uid, prev, NodeId::BROADCAST, 1, e), prev)
    }

    /// Transit TCP for a lone engine: for it, at TTL 1, routed or not.
    fn transit(&mut self) -> (Packet, NodeId) {
        let prev = self.peer();
        let routes = self.routes(0);
        let dst = match self.pick(3) {
            0 => n(0),
            1 if !routes.is_empty() => routes[self.pick(routes.len() as u32) as usize].0,
            _ => self.other(n(0)),
        };
        let src = self.other(n(0));
        let mut p = self.tcp(src, dst);
        if self.pick(6) == 0 {
            p.ttl = 1;
        }
        (p, prev)
    }

    /// A link failure for a lone engine: of something it sent, or of a
    /// packet (control or data, its own or not) it never did.
    fn link_failure(&mut self) -> (Packet, NodeId) {
        if !self.sent.is_empty() && self.pick(3) != 0 {
            let k = self.pick(self.sent.len() as u32) as usize;
            return self.sent.swap_remove(k);
        }
        let routes = self.routes(0);
        let hop = if !routes.is_empty() && self.pick(2) == 0 {
            routes[self.pick(routes.len() as u32) as usize].1
        } else {
            self.peer()
        };
        let packet = match self.pick(3) {
            0 => {
                let origin = self.other(n(0));
                let p = RouteReply { origin, dst: n(0), dst_seq: 1, hop_count: 0 };
                let uid = self.uid();
                Packet::new(uid, n(0), origin, Payload::Aodv(AodvMessage::Rrep(p)))
            }
            1 => {
                let dst = self.other(n(0));
                self.tcp(n(0), dst)
            }
            _ => {
                let (src, dst) = (self.other(n(0)), self.other(n(0)));
                self.tcp(src, dst)
            }
        };
        (packet, hop)
    }

    fn outside_lone(&mut self) -> (usize, u64, AodvOutputs) {
        let now = self.now;
        match self.pick(100) {
            0..=17 => {
                let dst = self.dst(n(0), 8);
                let p = self.tcp(n(0), dst);
                (0, 1, self.nodes[0].route_packet(p, now))
            }
            18..=37 => {
                let (p, prev) = self.rreq();
                (0, 2, self.receive(0, p, prev))
            }
            38..=49 => {
                let (p, prev) = self.rrep();
                (0, 3, self.receive(0, p, prev))
            }
            50..=59 => {
                let (p, prev) = self.rerr();
                (0, 4, self.receive(0, p, prev))
            }
            60..=74 => {
                let (p, prev) = self.transit();
                (0, 5, self.receive(0, p, prev))
            }
            75..=83 => {
                let (p, hop) = self.link_failure();
                (0, 6, self.nodes[0].on_link_failure(p, hop, now))
            }
            84..=87 => {
                let dst = self.dst(n(0), 8);
                let p = self.data(n(0), dst);
                (0, 1, self.nodes[0].route_packet(p, now))
            }
            88..=92 => match self.stale_timer() {
                Some((i, out)) => (i, 8, out),
                None => (0, 0, AodvOutputs::new()),
            },
            93 => {
                self.reset(0);
                (0, 9, AodvOutputs::new())
            }
            _ => (0, 0, AodvOutputs::new()),
        }
    }

    fn outside_line(&mut self) -> (usize, u64, AodvOutputs) {
        let now = self.now;
        let i = self.pick(3) as usize;
        let dst = [n(0), n(1), n(2), n(FAR)][self.pick(4) as usize];
        match self.pick(100) {
            0..=44 => {
                let mut p = self.tcp(n(i as u16), dst);
                p.ttl = match self.pick(10) {
                    0 => 1,
                    1 => 2,
                    _ => DEFAULT_TTL,
                };
                (i, 1, self.nodes[i].route_packet(p, now))
            }
            45..=52 => {
                let p = self.data(n(i as u16), dst);
                (i, 1, self.nodes[i].route_packet(p, now))
            }
            53..=57 => {
                let link = self.pick(2) as usize;
                let down = SimDuration::from_millis(200 + u64::from(self.pick(3_800)));
                self.down_until[link] = now + down;
                self.h.write_u64(10 + link as u64).write_u64(down.as_nanos());
                (i, 10, AodvOutputs::new())
            }
            58..=62 => match self.stale_timer() {
                Some((i, out)) => (i, 8, out),
                None => (i, 0, AodvOutputs::new()),
            },
            63 => {
                self.reset(i);
                (i, 9, AodvOutputs::new())
            }
            _ => (i, 0, AodvOutputs::new()),
        }
    }

    /// One step: whatever is due first — a queued event of the script's own
    /// or the outside world's next input.
    fn step(&mut self) {
        let gap = match self.pick(20) {
            0 => secs(1) + SimDuration::from_millis(u64::from(self.pick(11_000))),
            1..=5 => SimDuration::from_millis(20 + u64::from(self.pick(980))),
            _ => SimDuration::from_micros(1 + u64::from(self.pick(20_000))),
        };
        let outside_at = self.now + gap;
        // Timers that died in the queue are dropped unfired, as the driver's
        // dispatch does.
        let nodes = &self.nodes;
        self.queue.retain(|(_, _, due)| match due {
            Due::Timer(i, id) => nodes[*i].timer_is_live(*id),
            Due::Arrive(..) | Due::LinkFail(..) => true,
        });
        let first = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, (at, _, _))| *at <= outside_at)
            .min_by_key(|(_, (at, seq, _))| (*at, *seq))
            .map(|(k, _)| k);
        let (i, code, out) = match first {
            Some(k) => {
                let (at, _, due) = self.queue.swap_remove(k);
                self.now = at;
                match due {
                    Due::Timer(i, id) => (i, 11, self.timer(i, id)),
                    Due::Arrive(i, packet, prev) => (i, 12, self.receive(i, packet, prev)),
                    Due::LinkFail(i, packet, hop) => {
                        (i, 13, self.nodes[i].on_link_failure(packet, hop, at))
                    }
                }
            }
            None => {
                self.now = outside_at;
                if self.line() {
                    self.outside_line()
                } else {
                    self.outside_lone()
                }
            }
        };
        self.absorb(i, code, out);
    }

    /// Replaces every engine by what its own snapshot decodes to.
    fn cut(&mut self) {
        for aodv in &mut self.nodes {
            let mut w = SnapshotWriter::new();
            aodv.encode_state(&mut w);
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes);
            *aodv = Aodv::decode_state(&mut r, self.cfg).expect("an engine decodes its own bytes");
            r.finish().expect("and consumes them all");
        }
    }

    fn run(mut self, twin: bool) -> (String, BTreeMap<&'static str, u64>) {
        for step in 0..STEPS {
            if twin && step % CUT_EVERY == 0 {
                self.cut();
            }
            self.step();
        }
        let mut sums = [0u64; 6];
        for aodv in &self.nodes {
            let st = aodv.stats();
            let row = [
                st.discoveries,
                st.rreq_sent,
                st.rrep_sent,
                st.rerr_sent,
                st.data_drops,
                aodv.timers_cancelled(),
            ];
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        let sums = sums.map(|v| v.to_string()).join(" ");
        (format!("{:016x} {sums}", self.h.digest()), self.cov)
    }
}

fn rreq(q: RouteRequest) -> Payload {
    Payload::Aodv(AodvMessage::Rreq(q))
}

fn seed_of(c: usize, line: bool) -> u64 {
    0xA0D7_0000 + (c as u64) * 0x101 + u64::from(line) * 0x1_0001
}

/// One fixture row per (configuration, shape): its name, the digest, and —
/// so that a moved row says something — the engines' summed counters
/// (discoveries, RREQs, RREPs, RERRs sent, data drops, timers cancelled).
fn rows(twin: bool, cov: &mut Vec<BTreeMap<&'static str, u64>>) -> Vec<String> {
    let mut rows = Vec::new();
    for (c, (cname, cfg)) in configs().into_iter().enumerate() {
        for (shape, line) in [("lone", false), ("line", true)] {
            let (row, reached) = Script::new(cfg, line, seed_of(c, line)).run(twin);
            rows.push(format!("{cname}/{shape} {row}"));
            cov.push(reached);
        }
    }
    rows
}

fn committed() -> Vec<&'static str> {
    include_str!("fixtures/aodv_transcripts.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect()
}

#[test]
fn aodv_transcripts_match_the_committed_fixture() {
    let rows = rows(false, &mut Vec::new());
    assert!(
        rows == committed(),
        "AODV's behaviour changed against tests/fixtures/aodv_transcripts.txt; this build \
         produces:\n{}\n",
        rows.join("\n")
    );
}

/// The scripts reach every branch the fixture is there to pin — counted,
/// over all four rows, not asserted in a comment.
#[test]
fn aodv_transcripts_cover_the_handlers() {
    let mut cov = Vec::new();
    rows(false, &mut cov);
    for branch in BRANCHES {
        let got: u64 = cov.iter().map(|c| c.get(branch).copied().unwrap_or(0)).sum();
        assert!(got >= 5, "{branch}: reached {got} times, wanted at least 5\n{cov:#?}");
    }
}

/// The AODV-level snapshot twin: the same scripts with every engine
/// replaced by its own decoded snapshot every [`CUT_EVERY`]-th step produce
/// the rows of the uninterrupted runs.
#[test]
fn aodv_transcripts_survive_a_snapshot_at_every_kth_step() {
    let rows = rows(true, &mut Vec::new());
    assert!(
        rows == committed(),
        "a decoded engine behaves unlike the one encoded; with cuts this build produces:\n{}\n",
        rows.join("\n")
    );
}
