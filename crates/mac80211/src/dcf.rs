//! The DCF medium-access state machine.

#![deny(clippy::wildcard_enum_match_arm)]

use std::mem;

use sim_core::{SimDuration, SimRng, SimTime, SmallVec, TimerHandle, TimerSlab};
use wire::{FrameBody, FrameKind, MacFrame, NodeId, Packet, SharedPacket};

use crate::MacParams;

/// Output batch of the MAC's event handlers. Usually 0–3 entries, so the
/// inline representation avoids a heap allocation per handler call.
///
/// Each handler has two spellings over one body: `on_x_into(.., out)` appends
/// to a batch the caller owns — the driver builds one where it executes it, so
/// nothing is moved between the MAC and the loop — and `on_x(..)`, which
/// constructs a batch, calls the first and returns it.
pub type MacOutputs = SmallVec<MacOutput, 4>;

/// A snapshot of physical carrier sense, supplied by the driver on every
/// call (the MAC never talks to the PHY directly).
#[derive(Clone, Copy, Debug)]
pub struct MediumView {
    /// Whether physical carrier sense reports the medium busy right now.
    pub busy: bool,
}

impl MediumView {
    /// An idle medium (convenience for tests).
    pub fn idle() -> Self {
        MediumView { busy: false }
    }

    /// A busy medium (convenience for tests).
    pub fn busy() -> Self {
        MediumView { busy: true }
    }
}

/// Identifies one timer set by the MAC. The driver schedules an event at the
/// requested time and calls [`Mac::on_timer`] with the id; stale ids are
/// ignored by the MAC, and the driver can skip the call entirely by checking
/// [`Mac::timer_is_live`] first (the generation-checked tombstone from
/// `sim_core`'s [`TimerSlab`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(TimerHandle);

/// Actions the driver must execute on the MAC's behalf.
#[derive(Clone, Debug)]
pub enum MacOutput {
    /// Put `frame` on the air now. The driver must mark the PHY as
    /// transmitting for `airtime`, schedule receptions at neighbours, and
    /// call [`Mac::on_tx_done`] when the airtime elapses.
    Transmit {
        /// The frame to transmit.
        frame: MacFrame,
        /// Its airtime (PLCP + serialisation).
        airtime: SimDuration,
    },
    /// Call [`Mac::on_timer`] with `id` at time `at`.
    SetTimer {
        /// Timer identity to echo back.
        id: TimerId,
        /// Absolute virtual firing time.
        at: SimTime,
    },
    /// A packet addressed to this node (or broadcast) arrived intact —
    /// deliver it to the upper layer. `from` is the transmitting neighbour
    /// (the previous hop), which routing needs for reverse-route learning.
    Deliver {
        /// The received packet.
        packet: Packet,
        /// The neighbour that transmitted it.
        from: NodeId,
    },
    /// The current unicast packet was acknowledged by the next hop.
    TxSuccess {
        /// The delivered packet.
        packet: Packet,
        /// The hop that acknowledged it.
        next_hop: NodeId,
    },
    /// The retry limit was exceeded — the link to `next_hop` is considered
    /// broken. Routing should react (AODV link-failure handling).
    TxFailed {
        /// The undeliverable packet.
        packet: Packet,
        /// The unreachable hop.
        next_hop: NodeId,
    },
    /// The MAC finished its current packet (success or failure) and can
    /// accept another via [`Mac::start_packet`].
    ReadyForNext,
    /// The DCF armed its contention countdown. Purely informational (the
    /// matching `SetTimer` drives the behaviour): reports the backoff slots
    /// in force — freshly drawn from `cw`, or carried over from a frozen
    /// countdown — so observers can trace contention. Not emitted for
    /// zero-slot (pure IFS) waits.
    Backoff {
        /// Backoff slots ahead of the transmission attempt.
        slots: u32,
        /// Contention window the draw was (or would have been) taken from.
        cw: u32,
    },
}

/// Counters exposed for diagnostics, DRAI utilisation input, and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Unicast data frames successfully acknowledged.
    pub data_delivered: u64,
    /// RTS frames transmitted.
    pub rts_sent: u64,
    /// DATA frames transmitted (including broadcast and retries).
    pub data_sent: u64,
    /// Attempts that ended in CTS timeout.
    pub cts_timeouts: u64,
    /// Attempts that ended in ACK timeout.
    pub ack_timeouts: u64,
    /// Packets dropped after exhausting a retry limit.
    pub drops: u64,
    /// Signal ends at this node that did not decode, i.e. calls to
    /// [`Mac::on_rx_corrupted`]: receptions lost to a collision or to the
    /// channel error model, *and* every sensed-but-out-of-decode-range
    /// signal — each arms EIFS. Not a count of collisions: on the
    /// benchmark's `city400_waypoint` it reads 249,450 against 2,539 TCP
    /// segments sent, nearly all of it sense-only ends.
    pub rx_collisions: u64,
}

/// The packet in custody and how often it has been tried.
#[derive(Clone, Debug)]
struct Outgoing {
    /// Shared so each retry's DATA frame is an `Rc` clone, not a deep copy.
    packet: SharedPacket,
    next_hop: NodeId,
    short_retries: u32,
    long_retries: u32,
}

/// The transmit side of the DCF: where the packet in custody stands. Each
/// state owns what it needs — the packet, the countdown, the one timer it
/// waits on — so a state without its data cannot be built. [`Mac::step`] is
/// the chart (DESIGN §3.2).
#[derive(Debug, Default)]
enum Phase {
    /// No packet under transmission.
    #[default]
    NoPacket,
    /// Have a packet; waiting for the medium to go idle. `carried_slots` is
    /// the frozen remainder of an interrupted backoff countdown.
    Defer { pkt: Outgoing, carried_slots: Option<u32> },
    /// Countdown armed: `timer` fires at IFS + slots × slot after `started`.
    Count { pkt: Outgoing, countdown: Countdown, timer: TimerId },
    /// Our RTS is on the air.
    TxRts { pkt: Outgoing },
    /// RTS sent; `timer` is the CTS timeout.
    WaitCts { pkt: Outgoing, timer: TimerId },
    /// CTS in hand; `timer` releases our DATA one SIFS after it.
    SifsData { pkt: Outgoing, timer: TimerId },
    /// Our DATA is on the air.
    TxData { pkt: Outgoing },
    /// DATA sent; `timer` is the ACK timeout.
    WaitAck { pkt: Outgoing, timer: TimerId },
}

/// What can happen to the packet in custody, besides a carrier freezing its
/// countdown ([`Mac::freeze_countdown`]) and [`Mac::abort`].
#[derive(Clone, Copy, Debug)]
enum Input {
    /// The medium may have gone idle.
    Resume,
    /// A CTS for us was decoded.
    Cts,
    /// A MAC ACK for us was decoded.
    Ack,
    /// Our RTS or DATA left the air.
    TxDone,
    /// A live timer fired that is neither the NAV's nor the responder's.
    Timer(TimerId),
}

/// A SIFS-timed answer owed to a peer.
#[derive(Clone, Copy, Debug)]
enum Response {
    /// CTS answering an RTS from `peer`; NAV field copied from the RTS.
    Cts { peer: NodeId, nav_until: SimTime },
    /// MAC ACK answering a DATA from `peer`.
    Ack { peer: NodeId },
}

/// The receive side's answers, beside the transmit side and independent of
/// whose packet that holds. What of ours is on the air is read off the two
/// ([`Mac::on_air`]) and stored nowhere.
#[derive(Clone, Copy, Debug, Default)]
enum Responder {
    #[default]
    Idle,
    /// `timer` puts `kind` on the air one SIFS after the frame it answers.
    Pending { kind: Response, timer: TimerId },
    /// Our CTS is on the air.
    SendingCts,
    /// Our MAC ACK is on the air.
    SendingAck,
}

#[derive(Clone, Copy, Debug)]
struct Countdown {
    started: SimTime,
    ifs: SimDuration,
    slots: u32,
}

/// The per-node 802.11 DCF MAC entity.
///
/// Drive it with `on_*` calls and execute the [`MacOutput`] actions it
/// returns. See the crate docs for the full contract.
#[derive(Debug)]
pub struct Mac {
    params: MacParams,
    addr: NodeId,
    rng: SimRng,

    phase: Phase,
    responder: Responder,

    // What outlives a packet: the window and the rules of the next countdown.
    cw: u32,
    needs_backoff: bool,
    use_eifs: bool,

    // Virtual carrier sense, which is nobody's packet.
    nav_until: SimTime,
    nav_timer: Option<TimerId>,
    nav_reset_timer: Option<TimerId>,
    nav_reset_armed_at: SimTime,
    last_busy: Option<SimTime>,

    timers: TimerSlab,

    /// Last delivered packet uid per transmitter, for duplicate filtering
    /// when our MAC ACK was lost and the peer retransmitted.
    rx_dedup: sim_core::DetMap<NodeId, u64>,

    stats: MacStats,
}

sim_core::snap_record! { TimerId { 0 } }

sim_core::snap_record! {
    MacStats {
        data_delivered, rts_sent, data_sent, cts_timeouts, ack_timeouts, drops, rx_collisions
    }
}

sim_core::snap_record! { Outgoing { packet, next_hop, short_retries, long_retries } }

sim_core::snap_record! { Countdown { started, ifs, slots } }

// The tag *is* the state: a variant's packet, countdown and timer travel
// with it, so no decoded `Mac` holds a state without its data.
sim_core::snap_enum! {
    Phase, "mac phase tag" {
        0 => NoPacket,
        1 => Defer { pkt, carried_slots },
        2 => Count { pkt, countdown, timer },
        3 => TxRts { pkt },
        4 => TxData { pkt },
        5 => WaitCts { pkt, timer },
        6 => WaitAck { pkt, timer },
        7 => SifsData { pkt, timer }
    }
}

sim_core::snap_enum! {
    Response, "mac response tag" { 0 => Cts { peer, nav_until }, 1 => Ack { peer } }
}

sim_core::snap_enum! {
    Responder, "mac responder tag" {
        0 => Idle, 1 => Pending { kind, timer }, 2 => SendingCts, 3 => SendingAck
    }
}

// The MAC's full state: the two charts, backoff, NAV, timer slab, the
// private RNG and counters.
sim_core::snap_record! {
    given (params: MacParams) Mac {
        params = params,
        addr,
        rng,
        phase,
        responder,
        cw,
        needs_backoff,
        use_eifs,
        nav_until,
        nav_timer,
        nav_reset_timer,
        nav_reset_armed_at,
        last_busy,
        timers,
        rx_dedup,
        stats,
    }
}

impl Mac {
    /// Creates a MAC entity for station `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `params` are inconsistent.
    pub fn new(addr: NodeId, params: MacParams, rng: SimRng) -> Self {
        params.validate();
        Mac {
            cw: params.cw_min,
            params,
            addr,
            rng,
            phase: Phase::NoPacket,
            responder: Responder::Idle,
            needs_backoff: false,
            use_eifs: false,
            nav_until: SimTime::ZERO,
            nav_timer: None,
            nav_reset_timer: None,
            nav_reset_armed_at: SimTime::ZERO,
            last_busy: None,
            timers: TimerSlab::new(),
            rx_dedup: sim_core::DetMap::new(),
            stats: MacStats::default(),
        }
    }

    /// Whether the MAC can accept a new packet via [`Mac::start_packet`].
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::NoPacket)
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// This station's address.
    pub fn addr(&self) -> NodeId {
        self.addr
    }

    /// The current contention window (invariant checking / diagnostics).
    pub fn current_cw(&self) -> u32 {
        self.cw
    }

    /// Whether a timer id set via [`MacOutput::SetTimer`] has been neither
    /// cancelled nor fired. The driver consults this at its dispatch choke
    /// point to discard stale timer pops without entering the MAC.
    pub fn timer_is_live(&self, id: TimerId) -> bool {
        self.timers.is_live(id.0)
    }

    /// Number of timers cancelled before firing (lazy tombstones whose
    /// queued events will pop stale).
    pub fn timers_cancelled(&self) -> u64 {
        self.timers.cancelled_count()
    }

    /// How far the NAV reservation reaches beyond `now` (zero when the
    /// virtual carrier sense is clear).
    pub fn nav_ahead(&self, now: SimTime) -> SimDuration {
        if self.nav_until > now {
            self.nav_until - now
        } else {
            SimDuration::ZERO
        }
    }

    /// Fault hook: hard-resets the transmit path, as when the station loses
    /// power mid-exchange. Any packet in custody is returned to the caller
    /// for accounting. Counters and the receive-side duplicate filter
    /// survive, so a revived station keeps rejecting retransmissions it
    /// already delivered; pending timers become stale ids, which
    /// [`Mac::on_timer`] already ignores.
    pub fn abort(&mut self) -> Option<Packet> {
        let answer = match mem::take(&mut self.responder) {
            Responder::Pending { timer, .. } => Some(timer),
            Responder::Idle | Responder::SendingCts | Responder::SendingAck => None,
        };
        // Cancel order decides which slot the slab hands out next: a
        // countdown or SIFS-before-DATA timer goes before the responder's,
        // a CTS / ACK timeout after it, the NAV pair last.
        let (pkt, first, second) = match mem::take(&mut self.phase) {
            Phase::NoPacket => (None, answer, None),
            Phase::Defer { pkt, .. } | Phase::TxRts { pkt } | Phase::TxData { pkt } => {
                (Some(pkt), answer, None)
            }
            Phase::Count { pkt, timer, .. } | Phase::SifsData { pkt, timer } => {
                (Some(pkt), Some(timer), answer)
            }
            Phase::WaitCts { pkt, timer } | Phase::WaitAck { pkt, timer } => {
                (Some(pkt), answer, Some(timer))
            }
        };
        let nav_pair = [self.nav_timer.take(), self.nav_reset_timer.take()];
        for id in [first, second].into_iter().chain(nav_pair).flatten() {
            self.cancel(id);
        }
        self.cw = self.params.cw_min;
        self.needs_backoff = false;
        self.use_eifs = false;
        self.nav_until = SimTime::ZERO;
        self.nav_reset_armed_at = SimTime::ZERO;
        self.last_busy = None;
        pkt.map(|p| p.packet.into_owned())
    }

    /// Hands the MAC its next packet to transmit toward `next_hop`
    /// (`NodeId::BROADCAST` next hop for flooded packets).
    ///
    /// # Panics
    ///
    /// Panics if the MAC already holds a packet; check [`Mac::is_idle`].
    pub fn start_packet(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        now: SimTime,
        medium: MediumView,
    ) -> MacOutputs {
        let mut out = MacOutputs::new();
        self.start_packet_into(packet, next_hop, now, medium, &mut out);
        out
    }

    /// [`Mac::start_packet`], appending to the caller's batch.
    ///
    /// # Panics
    ///
    /// As [`Mac::start_packet`].
    pub fn start_packet_into(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        now: SimTime,
        medium: MediumView,
        out: &mut MacOutputs,
    ) {
        assert!(self.is_idle(), "MAC already busy with a packet");
        let packet = SharedPacket::new(packet);
        let pkt = Outgoing { packet, next_hop, short_retries: 0, long_retries: 0 };
        self.phase = Phase::Defer { pkt, carried_slots: None };
        self.resume(now, medium, out);
    }

    /// The driver reports that an external signal started impinging on this
    /// node (physical carrier became busy).
    pub fn on_medium_busy(&mut self, now: SimTime) {
        self.last_busy = Some(now);
        self.freeze_countdown(now);
    }

    /// The driver reports that the medium may have gone idle (a reception or
    /// transmission ended). The MAC re-evaluates whether to resume its
    /// backoff countdown.
    pub fn on_medium_maybe_idle(&mut self, now: SimTime, medium: MediumView) -> MacOutputs {
        let mut out = MacOutputs::new();
        self.on_medium_maybe_idle_into(now, medium, &mut out);
        out
    }

    /// [`Mac::on_medium_maybe_idle`], appending to the caller's batch.
    pub fn on_medium_maybe_idle_into(
        &mut self,
        now: SimTime,
        medium: MediumView,
        out: &mut MacOutputs,
    ) {
        self.resume(now, medium, out);
    }

    /// A frame was decoded at this node's PHY.
    pub fn on_frame_decoded(
        &mut self,
        frame: MacFrame,
        now: SimTime,
        medium: MediumView,
    ) -> MacOutputs {
        let mut out = MacOutputs::new();
        self.on_frame_decoded_into(frame, now, medium, &mut out);
        out
    }

    /// [`Mac::on_frame_decoded`], appending to the caller's batch.
    pub fn on_frame_decoded_into(
        &mut self,
        frame: MacFrame,
        now: SimTime,
        medium: MediumView,
        out: &mut MacOutputs,
    ) {
        // A correct reception ends any EIFS obligation.
        self.use_eifs = false;
        if !frame.addressed_to(self.addr) {
            self.nav_until = self.nav_until.max(SimTime::from_nanos(frame.nav_until_nanos));
            if self.nav_until > now {
                // Virtual carrier became busy: freeze a running countdown.
                self.freeze_countdown(now);
            }
            if frame.kind() == FrameKind::Rts && self.nav_until > now {
                // 802.11 NAV-reset rule: an RTS-established NAV is released
                // if the granted exchange never starts (no carrier within
                // 2·SIFS + CTS airtime + 2 slots of the RTS ending).
                let wait = self.params.sifs * 2 + self.params.cts_airtime() + self.params.slot * 2;
                self.arm_nav_reset(now, wait, out);
            }
        } else {
            match frame.kind() {
                FrameKind::Rts => self.handle_rts(&frame, now, out),
                FrameKind::Cts => self.step(Input::Cts, now, medium, out),
                FrameKind::Data => self.handle_data(frame, now, out),
                FrameKind::Ack => self.step(Input::Ack, now, medium, out),
            }
        }
        self.resume(now, medium, out);
    }

    /// A corrupted (collided or undecodable) reception ended at this node.
    /// Triggers the EIFS rule.
    pub fn on_rx_corrupted(&mut self, _now: SimTime) {
        self.stats.rx_collisions += 1;
        self.use_eifs = true;
    }

    /// A timer set via [`MacOutput::SetTimer`] fired.
    pub fn on_timer(&mut self, id: TimerId, now: SimTime, medium: MediumView) -> MacOutputs {
        let mut out = MacOutputs::new();
        self.on_timer_into(id, now, medium, &mut out);
        out
    }

    /// [`Mac::on_timer`], appending to the caller's batch.
    pub fn on_timer_into(
        &mut self,
        id: TimerId,
        now: SimTime,
        medium: MediumView,
        out: &mut MacOutputs,
    ) {
        if !self.timers.fire(id.0) {
            // Cancelled (or already consumed): a lazy tombstone popping.
            return;
        }
        if self.nav_timer == Some(id) {
            self.nav_timer = None;
        } else if self.nav_reset_timer == Some(id) {
            self.nav_reset_timer = None;
            let heard_since = self.last_busy.is_some_and(|t| t >= self.nav_reset_armed_at);
            if heard_since || self.nav_until <= now {
                return;
            }
            // Nothing hit the air since the reservation: release it.
            self.nav_until = now;
        } else {
            match self.responder {
                Responder::Pending { kind, timer } if timer == id => {
                    self.fire_response(kind, out);
                    return;
                }
                Responder::Idle
                | Responder::Pending { .. }
                | Responder::SendingCts
                | Responder::SendingAck => self.step(Input::Timer(id), now, medium, out),
            }
        }
        self.resume(now, medium, out);
    }

    /// Our transmission (started via [`MacOutput::Transmit`]) left the air.
    pub fn on_tx_done(&mut self, now: SimTime, medium: MediumView) -> MacOutputs {
        let mut out = MacOutputs::new();
        self.on_tx_done_into(now, medium, &mut out);
        out
    }

    /// [`Mac::on_tx_done`], appending to the caller's batch.
    pub fn on_tx_done_into(&mut self, now: SimTime, medium: MediumView, out: &mut MacOutputs) {
        if !self.on_air() {
            // Nothing of ours was on the air: the driver contract excludes
            // the call, and it changes nothing.
            return;
        }
        match self.responder {
            Responder::SendingCts => {
                // We granted the medium; if the peer's DATA never starts,
                // release our self-imposed deferral instead of staying deaf
                // for the whole reserved exchange.
                let wait = self.params.sifs + self.params.slot * 2 + self.params.max_prop * 2;
                self.arm_nav_reset(now, wait, out);
                self.responder = Responder::Idle;
            }
            Responder::SendingAck => self.responder = Responder::Idle,
            // Not an answer's frame: the attempt's.
            Responder::Idle | Responder::Pending { .. } => {
                self.step(Input::TxDone, now, medium, out);
            }
        }
        self.resume(now, medium, out);
    }

    // ------------------------------------------------------------------
    // The transmit-side chart
    // ------------------------------------------------------------------

    /// The medium may have gone idle. Most of what a MAC is told is this,
    /// and only a deferring one acts on it: look before stepping.
    #[inline]
    fn resume(&mut self, now: SimTime, medium: MediumView, out: &mut MacOutputs) {
        if matches!(self.phase, Phase::Defer { .. }) {
            self.step(Input::Resume, now, medium, out);
        }
    }

    /// One step of the chart: what `input` makes of the state the packet in
    /// custody is in. A pair the chart has no edge for — a stale timer, a
    /// CTS nobody waits for, a second one inside the SIFS gap — leaves the
    /// state as it was and emits nothing.
    fn step(&mut self, input: Input, now: SimTime, medium: MediumView, out: &mut MacOutputs) {
        use Input::{Ack, Cts, Resume, Timer, TxDone};
        self.phase = match mem::take(&mut self.phase) {
            Phase::NoPacket => Phase::NoPacket,
            Phase::Defer { pkt, carried_slots } => match input {
                Resume if self.medium_clear(now, medium, out) => {
                    self.start_countdown(pkt, carried_slots, now, out)
                }
                Resume | Cts | Ack | TxDone | Timer(_) => Phase::Defer { pkt, carried_slots },
            },
            Phase::Count { pkt, countdown, timer } => match input {
                Timer(id) if id == timer => {
                    let answering = !matches!(self.responder, Responder::Idle);
                    if medium.busy || self.nav_until > now || answering {
                        // Lost the race with a late-arriving signal: refreeze.
                        self.frozen(pkt, countdown, now)
                    } else if pkt.next_hop.is_broadcast() || !self.params.rts_enabled {
                        // Backoff consumed; the next attempt draws afresh.
                        self.transmit_data(pkt, now, out)
                    } else {
                        self.transmit_rts(pkt, now, out)
                    }
                }
                Resume | Cts | Ack | TxDone | Timer(_) => Phase::Count { pkt, countdown, timer },
            },
            Phase::TxRts { pkt } => match input {
                TxDone => {
                    let timer = self.set_timer(now + self.params.cts_timeout(), out);
                    Phase::WaitCts { pkt, timer }
                }
                Resume | Cts | Ack | Timer(_) => Phase::TxRts { pkt },
            },
            Phase::WaitCts { mut pkt, timer } => match input {
                // One radio, one SIFS slot: a CTS decoded while we owe (or
                // are giving) somebody an answer is left to the CTS timeout.
                // No PHY decodes two frames less than a SIFS apart.
                Cts if matches!(self.responder, Responder::Idle) => {
                    self.cancel(timer);
                    // Reset the short retry count: the RTS got through.
                    pkt.short_retries = 0;
                    let timer = self.set_timer(now + self.params.sifs, out);
                    Phase::SifsData { pkt, timer }
                }
                Timer(id) if id == timer => {
                    self.stats.cts_timeouts += 1;
                    pkt.short_retries += 1;
                    let spent = pkt.short_retries >= self.params.short_retry_limit;
                    self.retry_or_fail(pkt, spent, out)
                }
                Resume | Cts | Ack | TxDone | Timer(_) => Phase::WaitCts { pkt, timer },
            },
            Phase::SifsData { pkt, timer } => match input {
                Timer(id) if id == timer => self.transmit_data(pkt, now, out),
                Resume | Cts | Ack | TxDone | Timer(_) => Phase::SifsData { pkt, timer },
            },
            Phase::TxData { pkt } => match input {
                TxDone if pkt.next_hop.is_broadcast() => self.finish_success(pkt, out),
                TxDone => {
                    let timer = self.set_timer(now + self.params.ack_timeout(), out);
                    Phase::WaitAck { pkt, timer }
                }
                Resume | Cts | Ack | Timer(_) => Phase::TxData { pkt },
            },
            Phase::WaitAck { mut pkt, timer } => match input {
                Ack => {
                    self.cancel(timer);
                    self.finish_success(pkt, out)
                }
                Timer(id) if id == timer => {
                    self.stats.ack_timeouts += 1;
                    pkt.long_retries += 1;
                    let spent = pkt.long_retries >= self.params.long_retry_limit;
                    self.retry_or_fail(pkt, spent, out)
                }
                Resume | Cts | TxDone | Timer(_) => Phase::WaitAck { pkt, timer },
            },
        };
    }

    /// Whether a deferring MAC may count down now; under a NAV, makes sure
    /// a timer wakes it exactly at the NAV's expiry.
    fn medium_clear(&mut self, now: SimTime, medium: MediumView, out: &mut MacOutputs) -> bool {
        if medium.busy || !matches!(self.responder, Responder::Idle) {
            // Stay deferred; the driver pings us again at the next idle
            // edge, our own answer's end included.
            return false;
        }
        if self.nav_until > now && self.nav_timer.is_none() {
            self.nav_timer = Some(self.set_timer(self.nav_until, out));
        }
        self.nav_until <= now
    }

    fn start_countdown(
        &mut self,
        pkt: Outgoing,
        carried_slots: Option<u32>,
        now: SimTime,
        out: &mut MacOutputs,
    ) -> Phase {
        let slots = match carried_slots {
            Some(s) => s,
            None if self.needs_backoff => self.rng.backoff_slot(self.cw),
            None => 0,
        };
        let ifs = if self.use_eifs { self.params.eifs() } else { self.params.difs() };
        if slots > 0 {
            out.push(MacOutput::Backoff { slots, cw: self.cw });
        }
        let timer = self.set_timer(now + ifs + self.params.slot * u64::from(slots), out);
        Phase::Count { pkt, countdown: Countdown { started: now, ifs, slots }, timer }
    }

    /// A running countdown stops — carrier, NAV, or an answer we owe — and
    /// what is left of it is carried.
    fn freeze_countdown(&mut self, now: SimTime) {
        if !matches!(self.phase, Phase::Count { .. }) {
            return; // every carrier edge comes here: look before taking
        }
        self.phase = match mem::take(&mut self.phase) {
            Phase::Count { pkt, countdown, timer } => {
                self.cancel(timer); // tombstone the pending timer
                self.frozen(pkt, countdown, now)
            }
            other @ (Phase::NoPacket
            | Phase::Defer { .. }
            | Phase::TxRts { .. }
            | Phase::WaitCts { .. }
            | Phase::SifsData { .. }
            | Phase::TxData { .. }
            | Phase::WaitAck { .. }) => other,
        };
    }

    fn frozen(&mut self, pkt: Outgoing, cd: Countdown, now: SimTime) -> Phase {
        self.needs_backoff = true; // deferral always implies backoff
        let elapsed = now.saturating_since(cd.started);
        let remaining = if elapsed <= cd.ifs {
            cd.slots
        } else {
            let consumed = (elapsed - cd.ifs).as_nanos() / self.params.slot.as_nanos().max(1);
            cd.slots.saturating_sub(consumed as u32)
        };
        Phase::Defer { pkt, carried_slots: Some(remaining) }
    }

    fn transmit_rts(&mut self, pkt: Outgoing, now: SimTime, out: &mut MacOutputs) -> Phase {
        let p = &self.params;
        let airtime = p.rts_airtime();
        // The NAV covers the whole exchange: CTS, DATA and ACK, a SIFS
        // before each, and propagation guard time.
        let data = p.data_airtime(pkt.packet.size_bytes() + wire::DATA_OVERHEAD_BYTES);
        let rest = p.sifs * 3 + p.cts_airtime() + data + p.ack_airtime() + p.max_prop * 4;
        let nav_until = now + airtime + rest;
        let frame = MacFrame {
            src: self.addr,
            dst: pkt.next_hop,
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: nav_until.as_nanos(),
        };
        self.stats.rts_sent += 1;
        out.push(MacOutput::Transmit { frame, airtime });
        Phase::TxRts { pkt }
    }

    fn transmit_data(&mut self, pkt: Outgoing, now: SimTime, out: &mut MacOutputs) -> Phase {
        let p = &self.params;
        let airtime = p.data_airtime(pkt.packet.size_bytes() + wire::DATA_OVERHEAD_BYTES);
        let nav_until = if pkt.next_hop.is_broadcast() {
            SimTime::ZERO
        } else {
            now + airtime + p.sifs + p.ack_airtime() + p.max_prop * 2
        };
        let frame = MacFrame {
            src: self.addr,
            dst: pkt.next_hop,
            // An `Rc` clone: every retry's frame shares the one allocation.
            body: FrameBody::Data(pkt.packet.clone()),
            nav_until_nanos: nav_until.as_nanos(),
        };
        self.stats.data_sent += 1;
        out.push(MacOutput::Transmit { frame, airtime });
        Phase::TxData { pkt }
    }

    /// An attempt timed out: back to contention under a doubled window, or
    /// — its retry limit `spent` — the link is reported broken.
    fn retry_or_fail(&mut self, pkt: Outgoing, spent: bool, out: &mut MacOutputs) -> Phase {
        self.needs_backoff = true;
        if spent {
            self.stats.drops += 1;
            self.cw = self.params.cw_min;
            let (packet, next_hop) = (pkt.packet.into_owned(), pkt.next_hop);
            out.push(MacOutput::TxFailed { packet, next_hop });
            out.push(MacOutput::ReadyForNext);
            Phase::NoPacket
        } else {
            self.cw = self.cw.saturating_mul(2).saturating_add(1).min(self.params.cw_max);
            Phase::Defer { pkt, carried_slots: None }
        }
    }

    fn finish_success(&mut self, pkt: Outgoing, out: &mut MacOutputs) -> Phase {
        self.cw = self.params.cw_min;
        self.needs_backoff = true; // post-transmission backoff
        if !pkt.next_hop.is_broadcast() {
            let (packet, next_hop) = (pkt.packet.into_owned(), pkt.next_hop);
            out.push(MacOutput::TxSuccess { packet, next_hop });
        }
        out.push(MacOutput::ReadyForNext);
        Phase::NoPacket
    }

    // ------------------------------------------------------------------
    // The responder (SIFS-timed CTS / ACK)
    // ------------------------------------------------------------------

    /// Whether a frame of ours is on the air: read off the two charts,
    /// stored nowhere.
    fn on_air(&self) -> bool {
        matches!(self.phase, Phase::TxRts { .. } | Phase::TxData { .. })
            || matches!(self.responder, Responder::SendingCts | Responder::SendingAck)
    }

    /// Whether a SIFS-timed answer can be promised: nothing of ours is on
    /// the air and neither SIFS slot — the responder's, or our own DATA's
    /// after a CTS — is taken.
    fn can_respond(&self) -> bool {
        let sifs_slot_taken = matches!(self.phase, Phase::SifsData { .. });
        matches!(self.responder, Responder::Idle) && !self.on_air() && !sifs_slot_taken
    }

    fn handle_rts(&mut self, frame: &MacFrame, now: SimTime, out: &mut MacOutputs) {
        // Respond with CTS only if our virtual carrier sense is idle too.
        if self.nav_until <= now && self.can_respond() {
            let nav_until = SimTime::from_nanos(frame.nav_until_nanos);
            self.schedule_response(Response::Cts { peer: frame.src, nav_until }, now, out);
        }
    }

    fn handle_data(&mut self, frame: MacFrame, now: SimTime, out: &mut MacOutputs) {
        let src = frame.src;
        let seq_key = frame.packet().map(|p| p.uid).unwrap_or(0);
        if !frame.dst.is_broadcast() && self.can_respond() {
            self.schedule_response(Response::Ack { peer: src }, now, out);
        }
        // Deliver unless we've already delivered this exact frame (ACK was
        // lost and the sender retried).
        let dup = self.rx_dedup.get(&src) == Some(&seq_key);
        if !dup {
            self.rx_dedup.insert(src, seq_key);
            if let Some(packet) = frame.into_packet() {
                self.stats.data_delivered += 1;
                out.push(MacOutput::Deliver { packet, from: src });
            }
        }
    }

    /// Promises `kind` one SIFS from now; callers have asked
    /// [`Self::can_respond`].
    fn schedule_response(&mut self, kind: Response, now: SimTime, out: &mut MacOutputs) {
        // Committing to a response suspends our own countdown.
        self.freeze_countdown(now);
        let timer = self.set_timer(now + self.params.sifs, out);
        self.responder = Responder::Pending { kind, timer };
    }

    fn fire_response(&mut self, kind: Response, out: &mut MacOutputs) {
        self.responder = Responder::Idle;
        if self.on_air() {
            // Radio unexpectedly occupied; drop the response (peer retries).
            return;
        }
        let p = &self.params;
        let (dst, kind, nav_until, airtime) = match kind {
            Response::Cts { peer, nav_until } => {
                // Defer our own attempts until the protected exchange ends.
                self.nav_until = self.nav_until.max(nav_until);
                self.responder = Responder::SendingCts;
                (peer, FrameKind::Cts, nav_until, p.cts_airtime())
            }
            Response::Ack { peer } => {
                self.responder = Responder::SendingAck;
                (peer, FrameKind::Ack, SimTime::ZERO, p.ack_airtime())
            }
        };
        let frame = MacFrame {
            src: self.addr,
            dst,
            body: FrameBody::Control(kind),
            nav_until_nanos: nav_until.as_nanos(),
        };
        out.push(MacOutput::Transmit { frame, airtime });
    }

    // ------------------------------------------------------------------
    // NAV and timers
    // ------------------------------------------------------------------

    fn arm_nav_reset(&mut self, now: SimTime, wait: SimDuration, out: &mut MacOutputs) {
        // Re-arming tombstones the previous reset timer, if still pending.
        if let Some(previous) = self.nav_reset_timer.take() {
            self.cancel(previous);
        }
        self.nav_reset_timer = Some(self.set_timer(now + wait, out));
        self.nav_reset_armed_at = now;
    }

    /// Allocates a timer and asks the driver to fire it at `at`.
    fn set_timer(&mut self, at: SimTime, out: &mut MacOutputs) -> TimerId {
        let id = TimerId(self.timers.schedule());
        out.push(MacOutput::SetTimer { id, at });
        id
    }

    fn cancel(&mut self, id: TimerId) {
        self.timers.cancel(id.0);
    }
}

#[cfg(test)]
#[allow(clippy::wildcard_enum_match_arm)]
mod tests {
    use super::*;
    use sim_core::SimRng;
    use wire::{FlowId, Payload, TcpSegment};

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn mk_mac(addr: u16) -> Mac {
        Mac::new(n(addr), MacParams::default(), SimRng::new(1))
    }

    fn data_packet(uid: u64, src: u16, dst: u16) -> Packet {
        Packet::new(
            uid,
            n(src),
            n(dst),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)),
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// Extracts the single SetTimer from outputs.
    fn timer_of(out: &MacOutputs) -> (TimerId, SimTime) {
        let timers: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                MacOutput::SetTimer { id, at } => Some((*id, *at)),
                _ => None,
            })
            .collect();
        assert_eq!(timers.len(), 1, "expected exactly one timer in {out:?}");
        timers[0]
    }

    fn transmit_of(out: &MacOutputs) -> (&MacFrame, SimDuration) {
        out.iter()
            .find_map(|o| match o {
                MacOutput::Transmit { frame, airtime } => Some((frame, *airtime)),
                _ => None,
            })
            .expect("no Transmit in outputs")
    }

    #[test]
    fn abort_returns_custody_and_resets_the_transmit_path() {
        let mut mac = mk_mac(0);
        let out = mac.start_packet(data_packet(42, 0, 1), n(1), t(0), MediumView::idle());
        let (id, at) = timer_of(&out);
        assert!(!mac.is_idle());
        let returned = mac.abort();
        assert_eq!(returned.map(|p| p.uid), Some(42));
        assert!(mac.is_idle());
        assert_eq!(mac.current_cw(), MacParams::default().cw_min);
        assert_eq!(mac.nav_ahead(at), SimDuration::ZERO);
        // The pre-abort timer id is stale and must be ignored.
        assert!(mac.on_timer(id, at, MediumView::idle()).is_empty());
        // The MAC accepts fresh work afterwards.
        let out = mac.start_packet(data_packet(43, 0, 1), n(1), at, MediumView::idle());
        assert!(!out.is_empty());
    }

    #[test]
    fn abort_without_custody_returns_none() {
        let mut mac = mk_mac(0);
        assert_eq!(mac.abort().map(|p| p.uid), None);
        assert!(mac.is_idle());
    }

    #[test]
    fn first_attempt_waits_difs_then_sends_rts() {
        let mut mac = mk_mac(0);
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::idle());
        let (id, at) = timer_of(&out);
        assert_eq!(at, t(50)); // DIFS, zero backoff on a fresh idle medium
        let out = mac.on_timer(id, at, MediumView::idle());
        let (frame, _) = transmit_of(&out);
        assert_eq!(frame.kind(), FrameKind::Rts);
        assert_eq!(frame.dst, n(1));
        assert_eq!(mac.stats().rts_sent, 1);
    }

    #[test]
    fn broadcast_skips_rts_and_completes_without_ack() {
        let mut mac = mk_mac(0);
        let pkt = Packet::new(
            7,
            n(0),
            NodeId::BROADCAST,
            Payload::Tcp(TcpSegment::ack(FlowId::new(0), 0)),
        );
        let out = mac.start_packet(pkt, NodeId::BROADCAST, t(0), MediumView::idle());
        let (id, at) = timer_of(&out);
        let out = mac.on_timer(id, at, MediumView::idle());
        let (frame, airtime) = transmit_of(&out);
        assert_eq!(frame.kind(), FrameKind::Data);
        let done = at + airtime;
        let out = mac.on_tx_done(done, MediumView::idle());
        assert!(out.iter().any(|o| matches!(o, MacOutput::ReadyForNext)));
        assert!(mac.is_idle());
    }

    #[test]
    fn full_rts_cts_data_ack_exchange() {
        let mut mac = mk_mac(0);
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::idle());
        let (id, at) = timer_of(&out);
        let out = mac.on_timer(id, at, MediumView::idle());
        let (_, rts_air) = transmit_of(&out);
        let rts_done = at + rts_air;
        // RTS leaves the air; MAC arms CTS timeout.
        let out = mac.on_tx_done(rts_done, MediumView::idle());
        let (_cts_to, _) = timer_of(&out);
        // CTS arrives.
        let cts = MacFrame {
            src: n(1),
            dst: n(0),
            body: FrameBody::Control(FrameKind::Cts),
            nav_until_nanos: 0,
        };
        let cts_rx = rts_done + SimDuration::from_micros(400);
        let out = mac.on_frame_decoded(cts, cts_rx, MediumView::idle());
        let (sifs_id, sifs_at) = timer_of(&out);
        assert_eq!(sifs_at, cts_rx + SimDuration::from_micros(10));
        // SIFS elapses; DATA goes out.
        let out = mac.on_timer(sifs_id, sifs_at, MediumView::idle());
        let (frame, data_air) = transmit_of(&out);
        assert_eq!(frame.kind(), FrameKind::Data);
        let data_done = sifs_at + data_air;
        let out = mac.on_tx_done(data_done, MediumView::idle());
        let _ack_timeout = timer_of(&out);
        // MAC ACK arrives.
        let ack = MacFrame {
            src: n(1),
            dst: n(0),
            body: FrameBody::Control(FrameKind::Ack),
            nav_until_nanos: 0,
        };
        let out = mac.on_frame_decoded(
            ack,
            data_done + SimDuration::from_micros(320),
            MediumView::idle(),
        );
        assert!(out.iter().any(|o| matches!(o, MacOutput::TxSuccess { .. })));
        assert!(out.iter().any(|o| matches!(o, MacOutput::ReadyForNext)));
        assert!(mac.is_idle());
    }

    #[test]
    fn cts_timeout_retries_then_fails_at_limit() {
        let mut mac = mk_mac(0);
        let mut now = t(0);
        let mut out = mac.start_packet(data_packet(1, 0, 1), n(1), now, MediumView::idle());
        let mut failed = false;
        for _round in 0..MacParams::default().short_retry_limit {
            let (id, at) = timer_of(&out);
            now = at;
            out = mac.on_timer(id, now, MediumView::idle());
            let tx = out.iter().find_map(|o| match o {
                MacOutput::Transmit { frame, airtime } => Some((frame.clone(), *airtime)),
                _ => None,
            });
            if let Some((frame, air)) = tx {
                assert_eq!(frame.kind(), FrameKind::Rts);
                now += air;
                out = mac.on_tx_done(now, MediumView::idle());
                // Let the CTS timeout fire.
                let (to_id, to_at) = timer_of(&out);
                now = to_at;
                out = mac.on_timer(to_id, now, MediumView::idle());
                if out.iter().any(|o| matches!(o, MacOutput::TxFailed { .. })) {
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "should give up after short retry limit");
        assert_eq!(mac.stats().drops, 1);
        assert!(mac.is_idle());
    }

    #[test]
    fn receiving_rts_schedules_cts_after_sifs() {
        let mut mac = mk_mac(1);
        let rts = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: t(10_000).as_nanos(),
        };
        let out = mac.on_frame_decoded(rts, t(100), MediumView::idle());
        let (id, at) = timer_of(&out);
        assert_eq!(at, t(110));
        let out = mac.on_timer(id, at, MediumView::idle());
        let (frame, _) = transmit_of(&out);
        assert_eq!(frame.kind(), FrameKind::Cts);
        assert_eq!(frame.dst, n(0));
        // CTS copies the RTS NAV end.
        assert_eq!(frame.nav_until_nanos, t(10_000).as_nanos());
    }

    #[test]
    fn rts_ignored_while_nav_busy() {
        let mut mac = mk_mac(1);
        // Overheard CTS sets NAV.
        let foreign_cts = MacFrame {
            src: n(5),
            dst: n(6),
            body: FrameBody::Control(FrameKind::Cts),
            nav_until_nanos: t(50_000).as_nanos(),
        };
        let out = mac.on_frame_decoded(foreign_cts, t(0), MediumView::idle());
        assert!(out.is_empty());
        // RTS for us arrives during the NAV: no CTS response.
        let rts = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: t(60_000).as_nanos(),
        };
        let out = mac.on_frame_decoded(rts, t(1_000), MediumView::idle());
        assert!(out.is_empty(), "must not respond during NAV: {out:?}");
    }

    #[test]
    fn receiving_data_delivers_and_acks() {
        let mut mac = mk_mac(1);
        let frame = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Data(SharedPacket::new(data_packet(9, 0, 1))),
            nav_until_nanos: 0,
        };
        let out = mac.on_frame_decoded(frame, t(0), MediumView::idle());
        assert!(out.iter().any(
            |o| matches!(o, MacOutput::Deliver { packet, from } if packet.uid == 9 && *from == n(0))
        ));
        let (id, at) = timer_of(&out);
        let out = mac.on_timer(id, at, MediumView::idle());
        let (frame, _) = transmit_of(&out);
        assert_eq!(frame.kind(), FrameKind::Ack);
    }

    #[test]
    fn duplicate_data_is_acked_but_not_redelivered() {
        let mut mac = mk_mac(1);
        let frame = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Data(SharedPacket::new(data_packet(9, 0, 1))),
            nav_until_nanos: 0,
        };
        let out = mac.on_frame_decoded(frame.clone(), t(0), MediumView::idle());
        assert!(out.iter().any(|o| matches!(o, MacOutput::Deliver { .. })));
        // Consume the ACK response so the response slot frees up.
        let (id, at) = timer_of(&out);
        let out = mac.on_timer(id, at, MediumView::idle());
        let (_, air) = transmit_of(&out);
        let _ = mac.on_tx_done(at + air, MediumView::idle());
        // Same frame again (retransmission after a lost ACK).
        let out = mac.on_frame_decoded(frame, t(100_000), MediumView::idle());
        assert!(
            !out.iter().any(|o| matches!(o, MacOutput::Deliver { .. })),
            "duplicate must not be redelivered: {out:?}"
        );
        // But it is ACKed again.
        let (id, at) = timer_of(&out);
        let out = mac.on_timer(id, at, MediumView::idle());
        assert_eq!(transmit_of(&out).0.kind(), FrameKind::Ack);
    }

    #[test]
    fn busy_medium_defers_countdown() {
        let mut mac = mk_mac(0);
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::busy());
        assert!(out.is_empty(), "must defer while busy: {out:?}");
        // Medium goes idle.
        let out = mac.on_medium_maybe_idle(t(1_000), MediumView::idle());
        let (_, at) = timer_of(&out);
        assert_eq!(at, t(1_050)); // DIFS after the idle edge (no prior freeze)
    }

    #[test]
    fn countdown_freezes_and_resumes_with_remaining_slots() {
        let mut mac = mk_mac(0);
        // Force a backoff draw by marking that backoff is needed.
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::busy());
        assert!(out.is_empty());
        let out = mac.on_medium_maybe_idle(t(1_000), MediumView::idle());
        let (_, fire1) = timer_of(&out);
        // Deferral happened, so a random backoff [0,31] was drawn on resume.
        let total1 = fire1 - t(1_050); // slots * 20us
                                       // Freeze partway through the countdown, after IFS + 1 slot.
        let freeze_at = t(1_050) + SimDuration::from_micros(20);
        if freeze_at < fire1 {
            mac.on_medium_busy(freeze_at);
            let out = mac.on_medium_maybe_idle(t(5_000), MediumView::idle());
            let (_, fire2) = timer_of(&out);
            let total2 = fire2 - t(5_050);
            // One slot was consumed.
            assert_eq!(total1 - total2, SimDuration::from_micros(20));
        }
    }

    #[test]
    fn nav_from_overheard_rts_defers_attempt() {
        let mut mac = mk_mac(2);
        let foreign_rts = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: t(9_000).as_nanos(),
        };
        let _ = mac.on_frame_decoded(foreign_rts, t(0), MediumView::idle());
        // New packet arrives; NAV blocks it, so the MAC arms a NAV-expiry timer.
        let out = mac.start_packet(data_packet(1, 2, 1), n(1), t(100), MediumView::idle());
        let (nav_id, nav_at) = timer_of(&out);
        assert_eq!(nav_at, t(9_000));
        // At NAV expiry the countdown starts.
        let out = mac.on_timer(nav_id, nav_at, MediumView::idle());
        let (_, at) = timer_of(&out);
        assert!(at >= t(9_000) + SimDuration::from_micros(50));
    }

    #[test]
    fn eifs_used_after_corrupted_reception() {
        let mut mac = mk_mac(0);
        mac.on_rx_corrupted(t(0));
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::idle());
        let (_, at) = timer_of(&out);
        // EIFS = 364 us (with zero backoff on first attempt).
        assert_eq!(at, t(364));
        assert_eq!(mac.stats().rx_collisions, 1);
    }

    #[test]
    fn correct_reception_clears_eifs() {
        let mut mac = mk_mac(0);
        mac.on_rx_corrupted(t(0));
        // Then a clean foreign frame is decoded.
        let foreign = MacFrame {
            src: n(5),
            dst: n(6),
            body: FrameBody::Control(FrameKind::Ack),
            nav_until_nanos: 0,
        };
        let _ = mac.on_frame_decoded(foreign, t(10), MediumView::idle());
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(100), MediumView::idle());
        let (_, at) = timer_of(&out);
        assert_eq!(at, t(150)); // plain DIFS again
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_start_packet_panics() {
        let mut mac = mk_mac(0);
        let _ = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::idle());
        let _ = mac.start_packet(data_packet(2, 0, 1), n(1), t(0), MediumView::idle());
    }

    #[test]
    fn stale_timer_ignored() {
        let mut mac = mk_mac(0);
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::idle());
        let (id, _) = timer_of(&out);
        assert!(mac.timer_is_live(id));
        // Medium goes busy; the pending timer is tombstoned.
        mac.on_medium_busy(t(10));
        assert!(!mac.timer_is_live(id), "cancelled timer must read as dead");
        assert_eq!(mac.timers_cancelled(), 1);
        let out = mac.on_timer(id, t(50), MediumView::idle());
        assert!(out.is_empty(), "stale timer must be ignored: {out:?}");
    }

    #[test]
    fn fired_timer_goes_dead_and_cannot_replay() {
        let mut mac = mk_mac(0);
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), t(0), MediumView::idle());
        let (id, at) = timer_of(&out);
        let out = mac.on_timer(id, at, MediumView::idle());
        assert!(!out.is_empty());
        assert!(!mac.timer_is_live(id), "fired timer must read as dead");
        // Replaying the same id is a stale pop, not a second attempt.
        let replay = mac.on_timer(id, at, MediumView::idle());
        assert!(replay.is_empty(), "replay must be ignored: {replay:?}");
        assert_eq!(mac.timers_cancelled(), 0, "firing is not a cancellation");
    }

    #[test]
    fn retry_frames_share_the_packet_allocation() {
        let params = MacParams { rts_enabled: false, ..MacParams::default() };
        let mut mac = Mac::new(n(0), params, SimRng::new(1));
        let mut now = t(0);
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), now, MediumView::idle());
        let (id, at) = timer_of(&out);
        now = at;
        let out = mac.on_timer(id, now, MediumView::idle());
        let (frame, air) = transmit_of(&out);
        let first = match &frame.body {
            FrameBody::Data(shared) => shared.clone(),
            other => panic!("expected DATA, got {other:?}"),
        };
        // The MAC's custody copy plus our extracted handle share one
        // allocation (ref_count counts every outstanding Rc clone).
        assert!(first.ref_count() >= 2, "custody + frame must share");
        now += air;
        let out = mac.on_tx_done(now, MediumView::idle());
        let (to_id, to_at) = timer_of(&out);
        now = to_at;
        // ACK timeout -> retry: the retry frame is another shared clone.
        let out = mac.on_timer(to_id, now, MediumView::idle());
        let out = {
            let (id2, at2) = timer_of(&out);
            mac.on_timer(id2, at2, MediumView::idle())
        };
        let (frame2, _) = transmit_of(&out);
        match &frame2.body {
            FrameBody::Data(shared) => {
                assert_eq!(shared.get().uid, 1);
                assert!(shared.ref_count() >= 2, "retry must not deep-copy");
            }
            other => panic!("expected DATA retry, got {other:?}"),
        }
    }

    #[test]
    fn nav_reset_releases_abandoned_reservation() {
        let mut mac = mk_mac(2);
        // Overheard RTS reserves the medium far into the future...
        let foreign_rts = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: t(9_000).as_nanos(),
        };
        let out = mac.on_frame_decoded(foreign_rts, t(0), MediumView::idle());
        // ...which also arms the NAV-reset timer.
        let (reset_id, reset_at) = timer_of(&out);
        assert!(reset_at < t(9_000), "reset must fire before the NAV end");
        // A packet arrives; NAV blocks it (nav timer armed at 9 ms).
        let out = mac.start_packet(data_packet(1, 2, 1), n(1), t(100), MediumView::idle());
        let _nav_timer = timer_of(&out);
        // Nothing hits the air before the reset fires: the reservation is
        // released and the countdown starts immediately.
        let out = mac.on_timer(reset_id, reset_at, MediumView::idle());
        let (_, fire_at) = timer_of(&out);
        assert!(
            fire_at < t(9_000),
            "countdown must start at NAV reset ({fire_at:?}), not at NAV expiry"
        );
    }

    #[test]
    fn nav_reset_cancelled_when_exchange_proceeds() {
        let mut mac = mk_mac(2);
        let foreign_rts = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: t(9_000).as_nanos(),
        };
        let out = mac.on_frame_decoded(foreign_rts, t(0), MediumView::idle());
        let (reset_id, reset_at) = timer_of(&out);
        // The granted exchange's DATA is heard before the reset deadline.
        mac.on_medium_busy(t(300));
        let out = mac.on_timer(reset_id, reset_at, MediumView::idle());
        assert!(out.is_empty(), "reset must be a no-op after carrier activity");
        // A packet must still be NAV-blocked until 9 ms.
        let out = mac.start_packet(data_packet(1, 2, 1), n(1), t(600), MediumView::idle());
        let (_, at) = timer_of(&out);
        assert_eq!(at, t(9_000), "NAV expiry timer expected");
    }

    #[test]
    fn cts_grant_released_if_data_never_comes() {
        let mut mac = mk_mac(1);
        // We answer an RTS with a CTS...
        let rts = MacFrame {
            src: n(0),
            dst: n(1),
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: t(9_000).as_nanos(),
        };
        let out = mac.on_frame_decoded(rts, t(0), MediumView::idle());
        let (sifs_id, sifs_at) = timer_of(&out);
        let out = mac.on_timer(sifs_id, sifs_at, MediumView::idle());
        let (frame, air) = transmit_of(&out);
        assert_eq!(frame.kind(), FrameKind::Cts);
        // ...the CTS leaves the air, arming the grant-release timer.
        let out = mac.on_tx_done(sifs_at + air, MediumView::idle());
        let (release_id, release_at) = timer_of(&out);
        // The peer's DATA never arrives. After release, our own packet is
        // not NAV-blocked anymore.
        let _ = mac.on_timer(release_id, release_at, MediumView::idle());
        let out = mac.start_packet(data_packet(9, 1, 0), n(0), release_at, MediumView::idle());
        let (_, at) = timer_of(&out);
        assert!(at < t(9_000), "self-NAV must be released, got countdown at {at:?}");
    }

    #[test]
    fn cw_doubles_on_retry_and_resets_on_success() {
        let mut mac = mk_mac(0);
        let mut now = t(0);
        let out = mac.start_packet(data_packet(1, 0, 1), n(1), now, MediumView::idle());
        let (id, at) = timer_of(&out);
        now = at;
        let out = mac.on_timer(id, now, MediumView::idle());
        let (_, air) = transmit_of(&out);
        now += air;
        let out = mac.on_tx_done(now, MediumView::idle());
        let (to_id, to_at) = timer_of(&out);
        now = to_at;
        // Timeout -> retry with doubled CW (observable via a later draw; here
        // we just verify the phase machine keeps going and stats count).
        let out = mac.on_timer(to_id, now, MediumView::idle());
        assert_eq!(mac.stats().cts_timeouts, 1);
        let (_, _at2) = timer_of(&out);
        assert!(!mac.is_idle());
    }

    /// The transmit-side states, in the order one exchange walks them.
    const STATES: [&str; 8] =
        ["NoPacket", "Defer", "Count", "TxRts", "WaitCts", "SifsData", "TxData", "WaitAck"];
    /// Those in which a DATA frame for us is promised an ACK.
    const ANSWERING: [&str; 4] = ["NoPacket", "Defer", "WaitCts", "WaitAck"];

    /// Every transmit-side state with the responder idle, then those in
    /// which it can be pending as well.
    fn chart_cases() -> impl Iterator<Item = (&'static str, bool)> {
        STATES.iter().map(|s| (*s, false)).chain(ANSWERING.iter().map(|s| (*s, true)))
    }

    /// A unicast DATA frame for station 0 from station 2.
    fn data_for_us(uid: u64) -> MacFrame {
        MacFrame {
            src: n(2),
            dst: n(0),
            body: FrameBody::Data(SharedPacket::new(data_packet(uid, 2, 0))),
            nav_until_nanos: 0,
        }
    }

    fn control(kind: FrameKind, src: u16, dst: u16) -> MacFrame {
        MacFrame { src: n(src), dst: n(dst), body: FrameBody::Control(kind), nav_until_nanos: 0 }
    }

    /// A MAC walked by scripted calls into one transmit-side state, with the
    /// instant it got there and every timer it was handed on the way.
    struct Walk {
        mac: Mac,
        now: SimTime,
        timers: Vec<(TimerId, SimTime)>,
        airtime: SimDuration,
    }

    impl Walk {
        fn note(&mut self, out: MacOutputs) {
            for o in out.iter() {
                match o {
                    MacOutput::SetTimer { id, at } => self.timers.push((*id, *at)),
                    MacOutput::Transmit { airtime, .. } => self.airtime = *airtime,
                    _ => {}
                }
            }
        }

        fn fire_newest(&mut self) {
            let (id, at) = self.timers.pop().expect("a timer to fire");
            self.now = at;
            let out = self.mac.on_timer(id, at, MediumView::idle());
            self.note(out);
        }

        fn tx_done(&mut self) {
            self.now += self.airtime;
            let out = self.mac.on_tx_done(self.now, MediumView::idle());
            self.note(out);
        }

        /// Walks to `stop`; with `answering`, a DATA frame for us is decoded
        /// there, so the responder is pending with an ACK.
        fn to(stop: &str, answering: bool) -> Walk {
            let mut w =
                Walk { mac: mk_mac(0), now: t(0), timers: Vec::new(), airtime: SimDuration::ZERO };
            for state in STATES {
                match state {
                    "NoPacket" => {}
                    "Defer" => {
                        let out = w.mac.start_packet(
                            data_packet(1, 0, 1),
                            n(1),
                            w.now,
                            MediumView::busy(),
                        );
                        w.note(out);
                    }
                    "Count" => {
                        w.now += SimDuration::from_micros(500);
                        let out = w.mac.on_medium_maybe_idle(w.now, MediumView::idle());
                        w.note(out);
                    }
                    "TxRts" | "TxData" => w.fire_newest(),
                    "WaitCts" | "WaitAck" => w.tx_done(),
                    "SifsData" => {
                        w.now += SimDuration::from_micros(320);
                        let cts = control(FrameKind::Cts, 1, 0);
                        let out = w.mac.on_frame_decoded(cts, w.now, MediumView::idle());
                        w.note(out);
                    }
                    other => unreachable!("{other}"),
                }
                if state == stop {
                    break;
                }
            }
            if answering {
                w.now += SimDuration::from_micros(5);
                let out = w.mac.on_frame_decoded(data_for_us(77), w.now, MediumView::idle());
                w.note(out);
                assert!(matches!(w.mac.responder, Responder::Pending { .. }), "{stop}");
            }
            assert!(format!("{:?}", w.mac.phase).starts_with(stop), "{stop}: {:?}", w.mac.phase);
            w
        }
    }

    fn encoded(mac: &Mac) -> Vec<u8> {
        let mut w = sim_core::SnapshotWriter::new();
        mac.encode_state(&mut w);
        w.finish()
    }

    /// Untrusted bytes: every single-byte mutation of an encoded MAC, in
    /// every transmit-side state with the responder idle and pending, either
    /// fails to decode or gives a MAC that runs on without panicking —
    /// carrier, idle edge, every timer it ever handed out or hands out now,
    /// a transmit end for every frame it puts on the air.
    #[test]
    fn mutated_mac_bytes_are_refused_or_run_without_panicking() {
        let (mut refused, mut ran) = (0, 0);
        for (stop, answering) in chart_cases() {
            let walk = Walk::to(stop, answering);
            let clean = encoded(&walk.mac);
            for offset in 0..clean.len() {
                for delta in [1u8, 0x80, 0xff] {
                    let mut bytes = clean.clone();
                    bytes[offset] = bytes[offset].wrapping_add(delta);
                    let mut r = sim_core::SnapshotReader::new(&bytes);
                    let Ok(mut mac) = Mac::decode_state(&mut r, MacParams::default()) else {
                        refused += 1;
                        continue;
                    };
                    ran += 1;
                    let mut now = walk.now + SimDuration::from_micros(1);
                    mac.on_medium_busy(now);
                    let mut due: Vec<MacOutput> = walk
                        .timers
                        .iter()
                        .map(|&(id, at)| MacOutput::SetTimer { id, at })
                        .collect();
                    due.extend(mac.on_medium_maybe_idle(now, MediumView::idle()));
                    // Bounded: a mutated retry count may keep an exchange
                    // going for longer than is worth following.
                    for _ in 0..64 {
                        let Some(next) = due.pop() else { break };
                        let out = match next {
                            MacOutput::SetTimer { id, at } => {
                                now = now.max(at.min(now + SimDuration::from_secs(1)));
                                mac.on_timer(id, now, MediumView::idle())
                            }
                            MacOutput::Transmit { airtime, .. } => {
                                now += airtime.min(SimDuration::from_secs(1));
                                mac.on_tx_done(now, MediumView::idle())
                            }
                            _ => continue,
                        };
                        due.extend(out);
                    }
                }
            }
        }
        assert!(refused > 1_000 && ran > 1_000, "{refused} refused, {ran} ran");
    }

    /// What `call` appends to a batch that already holds an element of
    /// somebody else's — which must still be there, first, afterwards.
    fn appended(call: impl FnOnce(&mut MacOutputs)) -> MacOutputs {
        let mut out = MacOutputs::new();
        out.push(MacOutput::Backoff { slots: u32::MAX, cw: u32::MAX });
        call(&mut out);
        let mut all = out.drain();
        let first = all.next();
        assert!(
            matches!(first, Some(MacOutput::Backoff { slots: u32::MAX, cw: u32::MAX })),
            "the batch was handed over holding an element and came back led by {first:?}"
        );
        all.collect()
    }

    /// In every state of the chart, under both views: every timer the walk
    /// there was handed (live, or cancelled on the way) and a frame of every
    /// kind — four for us, an RTS reserving the medium for somebody else —
    /// do through the `_into` spelling what they do through the by-value
    /// one, to the batch and to the MAC.
    #[test]
    fn the_into_spelling_appends_what_the_by_value_one_returns_in_every_state() {
        let later = SimDuration::from_micros(7);
        let mut calls = 0;
        for (stop, answering) in chart_cases() {
            let timers = Walk::to(stop, answering).timers;
            let mut reserving = control(FrameKind::Rts, 5, 6);
            reserving.nav_until_nanos = t(60_000).as_nanos();
            let frames = [
                control(FrameKind::Rts, 2, 0),
                control(FrameKind::Cts, 1, 0),
                data_for_us(90),
                control(FrameKind::Ack, 1, 0),
                reserving,
            ];
            for view in [MediumView::idle(), MediumView::busy()] {
                for input in 0..timers.len() + frames.len() {
                    let mut a = Walk::to(stop, answering);
                    let mut b = Walk::to(stop, answering);
                    let (by_value, into) = match timers.get(input) {
                        Some(&(id, at)) => {
                            let now = at.max(a.now + later);
                            (
                                a.mac.on_timer(id, now, view),
                                appended(|out| b.mac.on_timer_into(id, now, view, out)),
                            )
                        }
                        None => {
                            let frame = &frames[input - timers.len()];
                            let now = a.now + later;
                            (
                                a.mac.on_frame_decoded(frame.clone(), now, view),
                                appended(|out| {
                                    b.mac.on_frame_decoded_into(frame.clone(), now, view, out);
                                }),
                            )
                        }
                    };
                    let case = format!("{stop}, answering {answering}, {view:?}, input {input}");
                    assert_eq!(format!("{by_value:?}"), format!("{into:?}"), "{case}");
                    assert_eq!(format!("{:?}", a.mac), format!("{:?}", b.mac), "{case}");
                    calls += 1;
                }
            }
        }
        assert!(calls >= 12 * 2 * 6, "{calls} calls compared");
    }

    /// Every decoded frame ends in the idle-edge look a deferring MAC is
    /// waiting for: nothing else tells it the reception is over.
    #[test]
    fn a_frame_decoded_while_deferring_under_an_idle_view_starts_the_countdown() {
        let mut w = Walk::to("Defer", false);
        let now = w.now + SimDuration::from_micros(300);
        let overheard = control(FrameKind::Ack, 5, 6);
        let out =
            appended(|out| w.mac.on_frame_decoded_into(overheard, now, MediumView::idle(), out));
        let (_, at) = timer_of(&out);
        assert!(at >= now + MacParams::default().difs(), "{out:?}");
        assert!(format!("{:?}", w.mac.phase).starts_with("Count"), "{:?}", w.mac.phase);
    }

    #[test]
    fn second_cts_inside_the_sifs_gap_is_ignored() {
        let mut w = Walk::to("SifsData", false);
        let (sifs_id, sifs_at) = *w.timers.last().expect("the SIFS timer");
        let cancelled = w.mac.timers_cancelled();
        let again = w.now + SimDuration::from_micros(4);
        let out = w.mac.on_frame_decoded(control(FrameKind::Cts, 1, 0), again, MediumView::idle());
        assert!(out.is_empty(), "a second CTS re-armed something: {out:?}");
        assert!(w.mac.timer_is_live(sifs_id), "the SIFS timer must stand");
        assert_eq!(w.mac.timers_cancelled(), cancelled);
        // DATA still leaves one SIFS after the *first* CTS.
        let out = w.mac.on_timer(sifs_id, sifs_at, MediumView::idle());
        assert_eq!(transmit_of(&out).0.kind(), FrameKind::Data);
        assert_eq!(w.mac.stats().data_sent, 1);
    }

    /// `abort` in every state: custody comes back, every timer ever handed
    /// out is dead, and the timers were cancelled in the order that makes
    /// the slab hand out the same id next as it always has (the LIFO free
    /// list makes cancel order visible; `rts/contended` and `basic/contended`
    /// in `tests/fixtures/mac_transcripts.txt` fold the same ids).
    /// The next three timers handed out after an abort in each state (`+ack`:
    /// with an ACK pending), read off the build before the state chart.
    /// As `state` then `slot generation` of each of the three.
    const ABORT_NEXT_IDS: [&str; 12] = [
        "NoPacket 0 3 1 1 2 1",
        "Defer 0 3 1 3 2 1",
        "Count 0 5 1 3 2 1",
        "TxRts 0 5 1 1 2 1",
        "WaitCts 1 3 0 5 2 1",
        "SifsData 1 3 0 7 2 1",
        "TxData 0 9 1 1 2 1",
        "WaitAck 1 3 0 9 2 1",
        "NoPacket+ack 1 3 0 3 2 1",
        "Defer+ack 1 3 0 3 2 1",
        "WaitCts+ack 2 3 0 5 1 3",
        "WaitAck+ack 2 3 0 9 1 3",
    ];

    #[test]
    fn abort_in_every_state_returns_custody_and_kills_every_timer_in_order() {
        let mut next_ids = Vec::new();
        for (stop, answering) in chart_cases() {
            let mut w = Walk::to(stop, answering);
            // An overheard RTS first, so the NAV pair is armed as well.
            let mut rts = control(FrameKind::Rts, 5, 6);
            rts.nav_until_nanos = (w.now + SimDuration::from_millis(9)).as_nanos();
            let out = w.mac.on_frame_decoded(rts, w.now, MediumView::idle());
            w.note(out);
            let held = !w.mac.is_idle();
            assert_eq!(w.mac.abort().map(|p| p.uid), held.then_some(1), "{stop}");
            assert!(w.mac.is_idle(), "{stop}");
            for (id, _) in &w.timers {
                assert!(!w.mac.timer_is_live(*id), "{stop}: {id:?} outlived abort");
            }
            // Three timers held at once afterwards — NAV reset, NAV expiry,
            // a pending ACK — reach three deep into the slab's free list.
            let mut after = Walk { timers: Vec::new(), ..w };
            let mut rts = control(FrameKind::Rts, 5, 6);
            rts.nav_until_nanos = (after.now + SimDuration::from_millis(9)).as_nanos();
            let out = after.mac.on_frame_decoded(rts, after.now, MediumView::idle());
            after.note(out);
            let out =
                after.mac.start_packet(data_packet(2, 0, 1), n(1), after.now, MediumView::idle());
            after.note(out);
            let out = after.mac.on_frame_decoded(data_for_us(78), after.now, MediumView::idle());
            after.note(out);
            assert_eq!(after.timers.len(), 3, "{stop}");
            let ids = format!("{:?}", after.timers.iter().map(|(id, _)| id).collect::<Vec<_>>());
            let numbers: Vec<&str> =
                ids.split(|c: char| !c.is_ascii_digit()).filter(|s| !s.is_empty()).collect();
            let ack = if answering { "+ack" } else { "" };
            next_ids.push(format!("{stop}{ack} {}", numbers.join(" ")));
        }
        assert_eq!(next_ids, ABORT_NEXT_IDS, "{next_ids:#?}");
    }
}
