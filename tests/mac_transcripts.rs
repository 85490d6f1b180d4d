//! The MAC oracle: one `Mac` driven directly (no network, no PHY) by seeded
//! scripts of every call its driver makes — `start_packet`,
//! `on_medium_busy`, `on_medium_maybe_idle` under busy and idle views,
//! `on_frame_decoded` of RTS / CTS / DATA / ACK (for us, for others,
//! duplicate uid, broadcast, during a NAV), `on_rx_corrupted`, live and stale
//! `on_timer`, `on_tx_done` after each `Transmit`, `abort` — with everything
//! the MAC emits and shows folded into one digest per (parameters, era mix)
//! and compared against rows committed by an earlier build
//! (`tests/fixtures/mac_transcripts.txt`).
//!
//! The digest folds the `Debug` of every `MacOutput`, so `TimerId`s are in
//! it: the `TimerSlab` free list is LIFO, which makes the *order* of the
//! MAC's allocate / cancel / fire calls part of its behaviour. It folds no
//! snapshot byte, so a snapshot format change leaves the fixture alone; the
//! twin run at the bottom is what pins the `Mac` record (encode and decode
//! every few steps, same digest required).
//!
//! The five calls that emit have two spellings — `on_x(..) -> MacOutputs`
//! and `on_x_into(.., &mut MacOutputs)` — and the scripts are replayed
//! through each ([`Script::emit`]): the second into a batch that already
//! holds somebody else's element, which must come back first and untouched.
//!
//! The script honours the driver contract and not PHY physics. The contract,
//! as `netstack::sim` keeps it: time is monotone; a timer the MAC asked for
//! fires at its instant if it is still live, and a queued `TxDone` exactly
//! once per `Transmit`; `start_packet` only when `is_idle()`; half duplex —
//! a signal that ends while we are on the air is reported corrupted, never
//! decoded; and no CTS for us is decoded while a SIFS response we were
//! handed is pending (two decodes are at least a PLCP apart on any PHY, and
//! SIFS is shorter — the one pair the MAC's handlers do not define by
//! input alone). What is *not* honoured: signals need not start before they
//! end, NAV fields are arbitrary, peers answer or stay silent by dice, and
//! power is cut (`abort`) inside SIFS gaps far more often than chance would.

use std::collections::{BTreeMap, BTreeSet};

use tcp_muzha::mac::{Mac, MacOutput, MacOutputs, MacParams, MacStats, MediumView, TimerId};
use tcp_muzha::sim::{SimDuration, SimRng, SimTime, SnapshotReader, SnapshotWriter, TraceHash};
use tcp_muzha::wire::{
    FlowId, FrameBody, FrameKind, MacFrame, NodeId, Packet, Payload, SharedPacket, TcpSegment,
};

const ME: u16 = 1;
const STEPS: usize = 6_000;
/// Steps per era. The twin cuts every [`CUT_EVERY`] steps, coprime to this,
/// so the cut walks through every offset of an era.
const ERA_LEN: usize = 250;
const CUT_EVERY: usize = 7;

/// What one era of a script is like.
#[derive(Clone, Copy)]
struct Era {
    /// Percent weights of the inputs the outside world makes: `[signal
    /// start, decoded frame, corrupted end, idle ping, start_packet, stale
    /// timer, abort]`.
    weights: [u32; 7],
    /// Percent chance the peer answers our RTS with a CTS.
    cts_reply: u32,
    /// Percent chance the peer answers our DATA with an ACK.
    ack_reply: u32,
    /// Percent chance the peer sends the DATA our CTS granted.
    data_follows: u32,
    /// Outside inputs are up to this many µs apart — or, one time in eight,
    /// inside one SIFS of each other.
    gap_us: u32,
    /// Percent of decoded frames addressed to us.
    for_us: u32,
}

const CALM: Era = Era {
    weights: [6, 6, 3, 10, 70, 4, 1],
    cts_reply: 96,
    ack_reply: 96,
    data_follows: 90,
    gap_us: 4_000,
    for_us: 30,
};
/// The next hop is gone: every RTS times out.
const DEAF_CTS: Era = Era {
    weights: [4, 3, 3, 10, 74, 5, 1],
    cts_reply: 0,
    ack_reply: 0,
    data_follows: 0,
    gap_us: 6_000,
    for_us: 10,
};
/// The next hop grants and then never acknowledges.
const DEAF_ACK: Era = Era {
    weights: [4, 3, 3, 10, 74, 5, 1],
    cts_reply: 100,
    ack_reply: 0,
    data_follows: 50,
    gap_us: 6_000,
    for_us: 10,
};
/// A busy neighbourhood: carriers, collisions, frozen countdowns.
const BUSY: Era = Era {
    weights: [30, 18, 22, 6, 19, 3, 2],
    cts_reply: 80,
    ack_reply: 85,
    data_follows: 70,
    gap_us: 300,
    for_us: 25,
};
/// Other people's exchanges: NAVs set, expired, reset.
const OVERHEARD: Era = Era {
    weights: [8, 50, 6, 8, 22, 3, 3],
    cts_reply: 90,
    ack_reply: 90,
    data_follows: 40,
    gap_us: 1_500,
    for_us: 5,
};
/// Everybody talks to us: the responder works.
const ANSWERING: Era = Era {
    weights: [8, 46, 5, 8, 27, 3, 3],
    cts_reply: 85,
    ack_reply: 85,
    data_follows: 60,
    gap_us: 1_200,
    for_us: 85,
};

/// The fixture's rows: two parameter sets × three era mixes.
const MIXES: [(&str, &[Era]); 3] = [
    ("exchange", &[CALM, DEAF_CTS, DEAF_ACK]),
    ("contended", &[BUSY, OVERHEARD, ANSWERING]),
    ("all", &[CALM, DEAF_CTS, DEAF_ACK, BUSY, OVERHEARD, ANSWERING]),
];

fn params() -> [(&'static str, MacParams); 2] {
    [
        ("rts", MacParams::default()),
        ("basic", MacParams { rts_enabled: false, ..MacParams::default() }),
    ]
}

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// A 512-byte DATA frame from a peer.
fn peer_data(uid: u64, src: NodeId, dst: NodeId, nav_until_nanos: u64) -> MacFrame {
    let segment = TcpSegment::data(FlowId::new(1), uid, 512, None);
    let packet = Packet::new(uid, src, dst, Payload::Tcp(segment));
    MacFrame { src, dst, body: FrameBody::Data(SharedPacket::new(packet)), nav_until_nanos }
}

/// Which call handed a timer out — all the script can know about one
/// without looking inside the MAC.
#[derive(Clone, Copy)]
enum Origin {
    Decoded,
    TxDone,
    Other,
}

#[derive(Clone, Copy)]
struct Handed {
    id: TimerId,
    origin: Origin,
    /// Set to fire exactly where the NAV ended when it was handed out.
    at_nav_end: bool,
}

/// What the script's own event queue holds.
enum Due {
    Timer(TimerId),
    TxDone(FrameKind, NodeId, u64),
    /// A peer's answer starts impinging.
    Carrier,
    /// A peer's answer ends.
    Reply(MacFrame),
}

/// The state chart's two coordinates, read off `Mac`'s derived `Debug`: the
/// one look the test takes past the public surface, used for counting
/// coverage and never folded into a digest.
fn chart(mac: &Mac) -> (String, String) {
    let dbg = format!("{mac:?}");
    let word = |key: &str| -> String {
        let at = dbg.find(key).unwrap_or_else(|| panic!("no {key:?} in {dbg}")) + key.len();
        dbg[at..].chars().take_while(|c| c.is_alphanumeric()).collect()
    };
    let mut responder = word(", responder: ");
    if responder == "Pending" {
        responder += &word(", responder: Pending { kind: ");
    }
    (word(", phase: "), responder)
}

const PHASES: [&str; 8] =
    ["NoPacket", "Defer", "Count", "TxRts", "WaitCts", "SifsData", "TxData", "WaitAck"];
const RESPONDERS: [&str; 5] = ["Idle", "PendingCts", "PendingAck", "SendingCts", "SendingAck"];

/// What the scripts reached, counted.
#[derive(Default, Debug)]
struct Coverage {
    phases: BTreeMap<String, u64>,
    responders: BTreeMap<String, u64>,
    /// The same, at the twin's cuts only.
    cut_phases: BTreeSet<String>,
    cut_responders: BTreeSet<String>,
    failed_by_cts_timeouts: u64,
    failed_by_ack_timeouts: u64,
    freezes: u64,
    resumes_after_freeze: u64,
    nav_expiries: u64,
    nav_resets_after_overheard_rts: u64,
    nav_resets_after_our_cts: u64,
    aborts_with_custody: u64,
    aborts_with_two_live_timers: u64,
    aborts_owing_an_answer_in_a_timeout: u64,
    abort_phases: BTreeSet<String>,
    live_timers: u64,
    stale_timers: u64,
    duplicates_not_redelivered: u64,
    broadcasts_delivered: u64,
    rts_for_us_under_nav_ignored: u64,
    cts_for_us_withheld: u64,
    busy_view_pings: u64,
    idle_view_pings: u64,
}

/// The MAC's five calls that emit, as the script makes them.
enum Call {
    StartPacket(Packet, NodeId),
    MaybeIdle,
    Decoded(MacFrame),
    Timer(TimerId),
    TxDone,
}

struct Script {
    params: MacParams,
    /// Make the calls that emit through their `_into` spelling.
    into: bool,
    mac: Mac,
    rng: SimRng,
    now: SimTime,
    queue: Vec<(SimTime, u64, Due)>,
    seq: u64,
    handed: Vec<Handed>,
    /// SIFS response timers handed out by `on_frame_decoded`.
    sifs: Vec<TimerId>,
    on_air: bool,
    carrier: u32,
    next_uid: u64,
    last_uid_from: [u64; 2],
    frozen: bool,
    h: TraceHash,
    cov: Coverage,
}

impl Script {
    fn new(params: MacParams, seed: u64, into: bool) -> Self {
        Script {
            params,
            into,
            mac: Mac::new(n(ME), params, SimRng::new(seed ^ 0xD0C)),
            rng: SimRng::new(seed),
            now: SimTime::ZERO,
            queue: Vec::new(),
            seq: 0,
            handed: Vec::new(),
            sifs: Vec::new(),
            on_air: false,
            carrier: 0,
            next_uid: 100,
            last_uid_from: [0; 2],
            frozen: false,
            h: TraceHash::new(),
            cov: Coverage::default(),
        }
    }

    fn view(&self) -> MediumView {
        MediumView { busy: self.carrier > 0 }
    }

    /// One emitting call, now, in the script's spelling. The `_into` forms
    /// append: handed a batch that holds an element already, they leave it
    /// where it was.
    fn emit(&mut self, call: Call) -> MacOutputs {
        let (now, view) = (self.now, self.view());
        let mac = &mut self.mac;
        if !self.into {
            return match call {
                Call::StartPacket(packet, hop) => mac.start_packet(packet, hop, now, view),
                Call::MaybeIdle => mac.on_medium_maybe_idle(now, view),
                Call::Decoded(frame) => mac.on_frame_decoded(frame, now, view),
                Call::Timer(id) => mac.on_timer(id, now, view),
                Call::TxDone => mac.on_tx_done(now, view),
            };
        }
        let mut out = MacOutputs::new();
        out.push(MacOutput::Backoff { slots: u32::MAX, cw: u32::MAX });
        match call {
            Call::StartPacket(packet, hop) => {
                mac.start_packet_into(packet, hop, now, view, &mut out)
            }
            Call::MaybeIdle => mac.on_medium_maybe_idle_into(now, view, &mut out),
            Call::Decoded(frame) => mac.on_frame_decoded_into(frame, now, view, &mut out),
            Call::Timer(id) => mac.on_timer_into(id, now, view, &mut out),
            Call::TxDone => mac.on_tx_done_into(now, view, &mut out),
        }
        let mut all = out.drain();
        let first = all.next();
        assert!(
            matches!(first, Some(MacOutput::Backoff { slots: u32::MAX, cw: u32::MAX })),
            "an `_into` call was handed a batch holding an element and left it led by {first:?}"
        );
        all.collect()
    }

    /// Whether a SIFS timer `on_frame_decoded` handed out is still to fire.
    fn sifs_pending(&self) -> bool {
        self.sifs.iter().any(|&t| self.mac.timer_is_live(t))
    }

    fn push(&mut self, at: SimTime, due: Due) {
        self.seq += 1;
        self.queue.push((at, self.seq, due));
    }

    fn packet(&mut self, dst: NodeId) -> Packet {
        self.next_uid += 1;
        let bytes = [40, 512, 1460][self.rng.below(3) as usize];
        Packet::new(
            self.next_uid,
            n(ME),
            dst,
            Payload::Tcp(TcpSegment::data(FlowId::new(0), self.next_uid, bytes, None)),
        )
    }

    /// A frame the outside world puts on the air.
    fn foreign_frame(&mut self, era: &Era) -> MacFrame {
        let for_us = self.rng.below(100) < era.for_us;
        let peer = self.rng.below(2) as usize;
        let (src, dst) = if for_us { (n(2 + peer as u16), n(ME)) } else { (n(5), n(6)) };
        let ahead = |rng: &mut SimRng, max_us: u32| match rng.below(10) {
            0 => 0, // reserves nothing
            _ => u64::from(1 + rng.below(max_us)) * 1_000,
        };
        let kind = [FrameKind::Rts, FrameKind::Cts, FrameKind::Data, FrameKind::Ack]
            [self.rng.below(4) as usize];
        let mut dst = dst;
        if kind == FrameKind::Cts && dst == n(ME) && self.sifs_pending() {
            // The contract's exclusion: somebody else's CTS instead.
            self.cov.cts_for_us_withheld += 1;
            dst = n(6);
        }
        let now = self.now.as_nanos();
        match kind {
            FrameKind::Rts | FrameKind::Cts | FrameKind::Ack => {
                let nav = match kind {
                    FrameKind::Rts => now + ahead(&mut self.rng, 9_000),
                    FrameKind::Cts => now + ahead(&mut self.rng, 8_000),
                    _ => 0,
                };
                MacFrame { src, dst, body: FrameBody::Control(kind), nav_until_nanos: nav }
            }
            FrameKind::Data => {
                let broadcast = self.rng.below(100) < 15;
                let uid = if self.rng.below(100) < 25 && self.last_uid_from[peer] != 0 {
                    self.last_uid_from[peer] // the peer missed our ACK and retries
                } else {
                    self.next_uid += 1;
                    self.next_uid
                };
                if for_us {
                    self.last_uid_from[peer] = uid;
                }
                let to = if broadcast { NodeId::BROADCAST } else { dst };
                let nav = if broadcast { 0 } else { now + ahead(&mut self.rng, 400) };
                peer_data(uid, src, to, nav)
            }
        }
    }

    /// A signal ends at us: decoded, or — while we are on the air ourselves
    /// — corrupted; then the idle ping, as `netstack` does at every `RxEnd`.
    fn signal_end(&mut self, frame: Option<MacFrame>) -> MacOutputs {
        self.carrier = self.carrier.saturating_sub(1);
        let mut out = MacOutputs::new();
        match frame {
            Some(frame) if !self.on_air => {
                let nav_before = self.mac.nav_ahead(self.now);
                let rts_for_us = frame.kind() == FrameKind::Rts && frame.dst == n(ME);
                let data_to = (frame.kind() == FrameKind::Data).then_some(frame.dst);
                let got = self.emit(Call::Decoded(frame));
                let delivered = got.iter().any(|o| matches!(o, MacOutput::Deliver { .. }));
                if data_to == Some(n(ME)) && !delivered {
                    self.cov.duplicates_not_redelivered += 1;
                }
                if data_to == Some(NodeId::BROADCAST) && delivered {
                    self.cov.broadcasts_delivered += 1;
                }
                if rts_for_us && nav_before > SimDuration::ZERO && got.is_empty() {
                    self.cov.rts_for_us_under_nav_ignored += 1;
                }
                for o in got.iter() {
                    if let MacOutput::SetTimer { id, at } = o {
                        if *at == self.now + self.params.sifs {
                            self.sifs.push(*id);
                        }
                    }
                }
                out.extend(got);
            }
            Some(_) | None => self.mac.on_rx_corrupted(self.now),
        }
        out.extend(self.emit(Call::MaybeIdle));
        out
    }

    /// Folds one step's outputs and what the MAC shows after it, and files
    /// what the outputs ask the driver to do.
    fn absorb(&mut self, code: u64, origin: Origin, out: MacOutputs) {
        self.h.write_u64(code).write_u64(self.now.as_nanos());
        self.h.write_u64(out.len() as u64);
        for o in out.iter() {
            self.h.write_str(&format!("{o:?}"));
        }
        for o in out {
            match o {
                MacOutput::SetTimer { id, at } => {
                    assert!(at >= self.now, "a timer set into the past: {at:?} at {:?}", self.now);
                    let nav = self.mac.nav_ahead(self.now);
                    let at_nav_end = nav > SimDuration::ZERO && at == self.now + nav;
                    self.handed.push(Handed { id, origin, at_nav_end });
                    self.push(at, Due::Timer(id));
                }
                MacOutput::Transmit { frame, airtime } => {
                    assert!(!self.on_air, "a second Transmit while one is on the air");
                    self.on_air = true;
                    let end = self.now + airtime;
                    self.push(end, Due::TxDone(frame.kind(), frame.dst, frame.nav_until_nanos));
                }
                MacOutput::Deliver { .. }
                | MacOutput::TxSuccess { .. }
                | MacOutput::TxFailed { .. }
                | MacOutput::ReadyForNext
                | MacOutput::Backoff { .. } => {}
            }
        }
        let mac = &self.mac;
        let st = mac.stats();
        for v in [
            u64::from(mac.current_cw()),
            mac.nav_ahead(self.now).as_nanos(),
            u64::from(mac.is_idle()),
            mac.timers_cancelled(),
            st.data_delivered,
            st.rts_sent,
            st.data_sent,
            st.cts_timeouts,
            st.ack_timeouts,
            st.drops,
            st.rx_collisions,
        ] {
            self.h.write_u64(v);
        }
    }

    /// One step: whatever is due first — a queued event of the script's own
    /// or the outside world's next input.
    fn step(&mut self, era: &Era) {
        // A power cut while an answer is owed *and* a timeout is running is
        // where `abort`'s cancel order shows: the outside world is drawn
        // into those SIFS gaps more often than into others.
        let owing = !self.mac.is_idle() && self.sifs_pending();
        let burst = self.rng.below(if owing { 2 } else { 8 }) == 0;
        let gap = if burst { 8 } else { era.gap_us };
        let outside_at = self.now + SimDuration::from_micros(1 + u64::from(self.rng.below(gap)));
        // Timers that died in the queue are dropped unfired, as the driver's
        // dispatch does.
        self.queue.retain(|(_, _, due)| match due {
            Due::Timer(id) => self.mac.timer_is_live(*id),
            Due::TxDone(..) | Due::Carrier | Due::Reply(_) => true,
        });
        let first = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, (at, _, _))| *at <= outside_at)
            .min_by_key(|(_, (at, seq, _))| (*at, *seq))
            .map(|(i, _)| i);
        let before = chart(&self.mac);
        let stats_before = self.mac.stats();
        let (code, origin, out) = match first {
            Some(i) => {
                let (at, _, due) = self.queue.swap_remove(i);
                self.now = at;
                let nav_before = self.mac.nav_ahead(self.now);
                match due {
                    Due::Timer(id) => {
                        self.cov.live_timers += 1;
                        let handed = self.handed.iter().rev().find(|t| t.id == id).copied();
                        let out = self.emit(Call::Timer(id));
                        let nav_after = self.mac.nav_ahead(self.now);
                        let after = chart(&self.mac);
                        if let Some(t) = handed {
                            if t.at_nav_end && before.0 == "Defer" && after.0 == "Count" {
                                self.cov.nav_expiries += 1;
                            }
                            if nav_before > SimDuration::ZERO && nav_after == SimDuration::ZERO {
                                match t.origin {
                                    Origin::Decoded => self.cov.nav_resets_after_overheard_rts += 1,
                                    Origin::TxDone => self.cov.nav_resets_after_our_cts += 1,
                                    Origin::Other => {}
                                }
                            }
                        }
                        (10, Origin::Other, out)
                    }
                    Due::TxDone(kind, dst, nav) => {
                        self.on_air = false;
                        let out = self.emit(Call::TxDone);
                        let p = self.params;
                        let roll = self.rng.below(100);
                        let answer = match kind {
                            FrameKind::Rts if roll < era.cts_reply => {
                                Some((FrameKind::Cts, p.cts_airtime(), nav))
                            }
                            FrameKind::Data if !dst.is_broadcast() && roll < era.ack_reply => {
                                Some((FrameKind::Ack, p.ack_airtime(), 0))
                            }
                            FrameKind::Cts if roll < era.data_follows => {
                                Some((FrameKind::Data, p.data_airtime(546), 0))
                            }
                            FrameKind::Rts | FrameKind::Cts | FrameKind::Data | FrameKind::Ack => {
                                None
                            }
                        };
                        if let Some((kind, airtime, nav)) = answer {
                            let start = self.now + p.sifs;
                            let frame = match kind {
                                FrameKind::Data => {
                                    self.next_uid += 1;
                                    let peer = (dst.index() - 2).min(1);
                                    self.last_uid_from[peer] = self.next_uid;
                                    let nav = start + airtime + p.sifs + p.ack_airtime();
                                    peer_data(self.next_uid, dst, n(ME), nav.as_nanos())
                                }
                                FrameKind::Rts | FrameKind::Cts | FrameKind::Ack => MacFrame {
                                    src: dst,
                                    dst: n(ME),
                                    body: FrameBody::Control(kind),
                                    nav_until_nanos: nav,
                                },
                            };
                            self.push(start, Due::Carrier);
                            self.push(start + airtime, Due::Reply(frame));
                        }
                        (11, Origin::TxDone, out)
                    }
                    Due::Carrier => {
                        self.carrier += 1;
                        self.mac.on_medium_busy(self.now);
                        (12, Origin::Other, MacOutputs::new())
                    }
                    Due::Reply(frame) => {
                        let out = self.signal_end(Some(frame));
                        (13, Origin::Decoded, out)
                    }
                }
            }
            None => {
                self.now = outside_at;
                let mut roll = self.rng.below(100);
                let kind = era
                    .weights
                    .iter()
                    .position(|&w| {
                        let hit = roll < w;
                        roll = roll.saturating_sub(w);
                        hit
                    })
                    .unwrap_or(3);
                let kind = if owing && self.rng.below(4) == 0 { 6 } else { kind };
                match kind {
                    0 if self.carrier < 2 => {
                        self.carrier += 1;
                        self.mac.on_medium_busy(self.now);
                        if before.0 == "Count" && chart(&self.mac).0 == "Defer" {
                            self.cov.freezes += 1;
                            self.frozen = true;
                        }
                        (0, Origin::Other, MacOutputs::new())
                    }
                    1 => {
                        let frame = self.foreign_frame(era);
                        (1, Origin::Decoded, self.signal_end(Some(frame)))
                    }
                    2 => (2, Origin::Other, self.signal_end(None)),
                    4 if self.mac.is_idle() => {
                        let dst = match self.rng.below(10) {
                            0 | 1 => NodeId::BROADCAST,
                            k => n(2 + (k % 2) as u16),
                        };
                        let packet = self.packet(dst);
                        (4, Origin::Other, self.emit(Call::StartPacket(packet, dst)))
                    }
                    5 if !self.handed.is_empty() => {
                        // A timer event that outlived its timer: any id we
                        // were ever handed that is dead by now.
                        let pick = self.rng.below(self.handed.len() as u32) as usize;
                        let id = self.handed[pick].id;
                        if self.mac.timer_is_live(id) {
                            (3, Origin::Other, self.emit(Call::MaybeIdle))
                        } else {
                            self.cov.stale_timers += 1;
                            let out = self.emit(Call::Timer(id));
                            assert!(out.is_empty(), "a stale timer did something: {out:?}");
                            (5, Origin::Other, out)
                        }
                    }
                    6 => {
                        let live =
                            self.handed.iter().filter(|t| self.mac.timer_is_live(t.id)).count();
                        if live >= 2 {
                            self.cov.aborts_with_two_live_timers += 1;
                        }
                        if before.1.starts_with("Pending") && before.0.starts_with("Wait") {
                            self.cov.aborts_owing_an_answer_in_a_timeout += 1;
                        }
                        self.cov.abort_phases.insert(before.0.clone());
                        let returned = self.mac.abort();
                        if returned.is_some() {
                            self.cov.aborts_with_custody += 1;
                        }
                        assert!(
                            self.handed.iter().all(|t| !self.mac.timer_is_live(t.id)),
                            "a timer outlived abort"
                        );
                        // The station lost power: its radio forgets what was
                        // in the air, its queued transmit end never comes.
                        self.queue.clear();
                        self.on_air = false;
                        self.carrier = 0;
                        self.h.write_u64(returned.map_or(0, |p| p.uid));
                        (6, Origin::Other, MacOutputs::new())
                    }
                    _ => {
                        if self.view().busy {
                            self.cov.busy_view_pings += 1;
                        } else {
                            self.cov.idle_view_pings += 1;
                        }
                        (3, Origin::Other, self.emit(Call::MaybeIdle))
                    }
                }
            }
        };
        let after = chart(&self.mac);
        let stats = self.mac.stats();
        if out.iter().any(|o| matches!(o, MacOutput::TxFailed { .. })) {
            if stats.cts_timeouts > stats_before.cts_timeouts {
                self.cov.failed_by_cts_timeouts += 1;
            }
            if stats.ack_timeouts > stats_before.ack_timeouts {
                self.cov.failed_by_ack_timeouts += 1;
            }
        }
        if self.frozen && before.0 == "Defer" && after.0 == "Count" {
            self.cov.resumes_after_freeze += 1;
            self.frozen = false;
        }
        if after.0 == "NoPacket" {
            self.frozen = false;
        }
        *self.cov.phases.entry(after.0).or_default() += 1;
        *self.cov.responders.entry(after.1).or_default() += 1;
        self.absorb(code, origin, out);
    }

    /// Replaces the MAC by what its own snapshot decodes to.
    fn cut(&mut self) {
        let (phase, responder) = chart(&self.mac);
        self.cov.cut_phases.insert(phase);
        self.cov.cut_responders.insert(responder);
        let mut w = SnapshotWriter::new();
        self.mac.encode_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        self.mac = Mac::decode_state(&mut r, self.params).expect("a MAC decodes its own bytes");
        r.finish().expect("and consumes them all");
    }

    fn run(mut self, mix: &[Era], twin: bool) -> (u64, MacStats, u64, Coverage) {
        let mut era = mix[0];
        for step in 0..STEPS {
            if step % ERA_LEN == 0 {
                era = mix[self.rng.below(mix.len() as u32) as usize];
            }
            if twin && step % CUT_EVERY == 0 {
                self.cut();
            }
            self.step(&era);
        }
        (self.h.digest(), self.mac.stats(), self.mac.timers_cancelled(), self.cov)
    }
}

fn seed_of(p: usize, m: usize) -> u64 {
    0x0DCF_0000 + (p as u64) * 0x101 + (m as u64) * 0x1_0001
}

/// One fixture row: its name, the digest, and — so that a moved row says
/// something — what the script added up to.
fn rows(twin: bool, into: bool, cov: &mut Vec<Coverage>) -> Vec<String> {
    let mut rows = Vec::new();
    for (p, (pname, params)) in params().into_iter().enumerate() {
        for (m, (mname, mix)) in MIXES.into_iter().enumerate() {
            let script = Script::new(params, seed_of(p, m), into);
            let (digest, st, cancelled, c) = script.run(mix, twin);
            rows.push(format!(
                "{pname}/{mname} {digest:016x} {} {} {} {} {} {} {} {cancelled}",
                st.rts_sent,
                st.data_sent,
                st.data_delivered,
                st.cts_timeouts,
                st.ack_timeouts,
                st.drops,
                st.rx_collisions,
            ));
            cov.push(c);
        }
    }
    rows
}

fn committed() -> Vec<&'static str> {
    include_str!("fixtures/mac_transcripts.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect()
}

#[test]
fn mac_transcripts_match_the_committed_fixture() {
    let mut cov = Vec::new();
    let rows = rows(false, false, &mut cov);
    assert!(
        rows == committed(),
        "the MAC's behaviour changed against tests/fixtures/mac_transcripts.txt; this build \
         produces:\n{}\n",
        rows.join("\n")
    );
}

/// The driver's spelling of the same calls — a batch it owns, lent to the
/// MAC, one already holding something — reads the same rows.
#[test]
fn mac_transcripts_read_the_same_through_the_into_spelling() {
    let mut cov = Vec::new();
    let rows = rows(false, true, &mut cov);
    assert!(
        rows == committed(),
        "the `_into` spelling of a MAC call does not do what the by-value one does; through it \
         this build produces:\n{}\n",
        rows.join("\n")
    );
}

/// The scripts reach what the fixture is there to pin — counted, over all
/// six rows, not asserted in a comment.
#[test]
fn mac_transcripts_cover_the_chart() {
    let mut cov = Vec::new();
    rows(false, false, &mut cov);
    let sum = |f: fn(&Coverage) -> u64| cov.iter().map(f).sum::<u64>();
    for phase in PHASES {
        let steps: u64 = cov.iter().map(|c| c.phases.get(phase).copied().unwrap_or(0)).sum();
        assert!(steps >= 50, "transmit side spent {steps} steps in {phase}");
    }
    for responder in RESPONDERS {
        let steps: u64 =
            cov.iter().map(|c| c.responders.get(responder).copied().unwrap_or(0)).sum();
        assert!(steps >= 50, "responder spent {steps} steps in {responder}");
    }
    for c in &cov {
        for name in c.phases.keys() {
            assert!(PHASES.contains(&name.as_str()), "unknown transmit-side state {name:?}");
        }
        for name in c.responders.keys() {
            assert!(RESPONDERS.contains(&name.as_str()), "unknown responder state {name:?}");
        }
    }
    let counted: [(&str, u64, u64); 18] = [
        ("TxFailed by CTS timeouts", sum(|c| c.failed_by_cts_timeouts), 5),
        ("TxFailed by ACK timeouts", sum(|c| c.failed_by_ack_timeouts), 5),
        ("countdowns frozen by a carrier", sum(|c| c.freezes), 20),
        ("frozen countdowns resumed", sum(|c| c.resumes_after_freeze), 20),
        ("NAV expiries that started a countdown", sum(|c| c.nav_expiries), 10),
        ("NAV resets after an overheard RTS", sum(|c| c.nav_resets_after_overheard_rts), 5),
        ("NAV resets after our own CTS", sum(|c| c.nav_resets_after_our_cts), 5),
        ("aborts with a packet in custody", sum(|c| c.aborts_with_custody), 10),
        ("aborts with two or more live timers", sum(|c| c.aborts_with_two_live_timers), 5),
        (
            "aborts with an answer pending and a CTS / ACK timeout running",
            sum(|c| c.aborts_owing_an_answer_in_a_timeout),
            5,
        ),
        ("live timers fired", sum(|c| c.live_timers), 1_000),
        ("stale timers fired", sum(|c| c.stale_timers), 100),
        ("DATA not redelivered", sum(|c| c.duplicates_not_redelivered), 10),
        ("broadcast DATA delivered", sum(|c| c.broadcasts_delivered), 10),
        ("RTS for us ignored under a NAV", sum(|c| c.rts_for_us_under_nav_ignored), 5),
        ("CTS for us withheld (the contract's exclusion)", sum(|c| c.cts_for_us_withheld), 1),
        ("idle pings under a busy view", sum(|c| c.busy_view_pings), 50),
        ("idle pings under an idle view", sum(|c| c.idle_view_pings), 50),
    ];
    for (what, got, at_least) in counted {
        assert!(got >= at_least, "{what}: {got}, wanted at least {at_least}\n{cov:#?}");
    }
    let abort_phases: BTreeSet<&str> =
        cov.iter().flat_map(|c| c.abort_phases.iter().map(String::as_str)).collect();
    assert!(abort_phases.len() >= 6, "abort was scripted in {abort_phases:?} only");
}

/// The MAC-level snapshot twin: the same scripts with the `Mac` replaced by
/// its own decoded snapshot every [`CUT_EVERY`]-th step produce the rows of
/// the uninterrupted runs, and the cuts fall in every state of both charts.
#[test]
fn mac_transcripts_survive_a_snapshot_at_every_kth_step() {
    assert_eq!(ERA_LEN % CUT_EVERY, 5, "the cut must walk through the eras");
    let mut cov = Vec::new();
    let rows = rows(true, false, &mut cov);
    assert!(
        rows == committed(),
        "a decoded MAC behaves unlike the one encoded; with cuts this build produces:\n{}\n",
        rows.join("\n")
    );
    let cut_phases: BTreeSet<&str> =
        cov.iter().flat_map(|c| c.cut_phases.iter().map(String::as_str)).collect();
    let cut_responders: BTreeSet<&str> =
        cov.iter().flat_map(|c| c.cut_responders.iter().map(String::as_str)).collect();
    assert_eq!(cut_phases, PHASES.into_iter().collect(), "transmit-side states cut");
    assert_eq!(cut_responders, RESPONDERS.into_iter().collect(), "responder states cut");
}
