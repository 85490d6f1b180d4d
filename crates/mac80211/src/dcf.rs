//! The DCF medium-access state machine.

use sim_core::{SimDuration, SimRng, SimTime, SmallVec, TimerHandle, TimerSlab};
use wire::{FrameBody, FrameKind, MacFrame, NodeId, Packet, SharedPacket};

use crate::MacParams;

/// Output batch returned by the MAC's event handlers. Usually 0–3 entries,
/// so the inline representation avoids a heap allocation per handler call.
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

#[derive(Clone, Debug)]
struct Outgoing {
    /// Shared so each retry's DATA frame is an `Rc` clone, not a deep copy.
    packet: SharedPacket,
    next_hop: NodeId,
    short_retries: u32,
    long_retries: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// No packet under transmission.
    NoPacket,
    /// Have a packet; waiting for the medium to go idle. `carried_slots` is
    /// the frozen remainder of an interrupted backoff countdown.
    Defer,
    /// Countdown armed: timer fires at IFS + slots × slot after `started`.
    Count,
    /// Our RTS is on the air.
    TxRts,
    /// Our DATA is on the air.
    TxData,
    /// RTS sent; waiting for CTS.
    WaitCts,
    /// DATA sent; waiting for MAC ACK.
    WaitAck,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ResponseKind {
    /// CTS answering an RTS from `peer`; NAV field copied from the RTS.
    Cts { peer: NodeId, nav_until: SimTime },
    /// MAC ACK answering a DATA from `peer`.
    Ack { peer: NodeId },
    /// Our own DATA, released SIFS after receiving CTS.
    AttemptData,
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
    current: Option<Outgoing>,
    countdown: Option<Countdown>,
    carried_slots: Option<u32>,
    cw: u32,
    needs_backoff: bool,
    use_eifs: bool,

    nav_until: SimTime,

    response: Option<ResponseKind>,
    transmitting: Option<TxKind>,

    timers: TimerSlab,
    attempt_timer: Option<TimerId>,
    response_timer: Option<TimerId>,
    wait_timer: Option<TimerId>,
    nav_timer: Option<TimerId>,
    nav_reset_timer: Option<TimerId>,
    nav_reset_armed_at: SimTime,
    last_busy: Option<SimTime>,

    /// Last delivered packet uid per transmitter, for duplicate filtering
    /// when our MAC ACK was lost and the peer retransmitted.
    rx_dedup: sim_core::DetMap<NodeId, u64>,

    stats: MacStats,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxKind {
    AttemptRts,
    AttemptData,
    Response(FrameKind),
}

sim_core::snap_record! { TimerId { 0 } }

sim_core::snap_record! {
    MacStats {
        data_delivered, rts_sent, data_sent, cts_timeouts, ack_timeouts, drops, rx_collisions
    }
}

sim_core::snap_record! { Outgoing { packet, next_hop, short_retries, long_retries } }

sim_core::snap_enum! {
    Phase, "mac phase tag" {
        0 => NoPacket, 1 => Defer, 2 => Count, 3 => TxRts, 4 => TxData, 5 => WaitCts, 6 => WaitAck
    }
}

sim_core::snap_enum! {
    ResponseKind, "mac response tag" {
        0 => Cts { peer, nav_until }, 1 => Ack { peer }, 2 => AttemptData
    }
}

sim_core::snap_record! { Countdown { started, ifs, slots } }

sim_core::snap_enum! {
    TxKind, "mac tx kind tag" { 0 => AttemptRts, 1 => AttemptData, 2 => Response(kind) }
}

// The MAC's full state: DCF phase, packet in custody, countdown and backoff,
// NAV, pending response, timer slab, the private RNG and counters.
sim_core::snap_record! {
    given (params: MacParams) Mac {
        params = params,
        addr,
        rng,
        phase,
        current,
        countdown,
        carried_slots,
        cw,
        needs_backoff,
        use_eifs,
        nav_until,
        response,
        transmitting,
        timers,
        attempt_timer,
        response_timer,
        wait_timer,
        nav_timer,
        nav_reset_timer,
        nav_reset_armed_at,
        last_busy,
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
            current: None,
            countdown: None,
            carried_slots: None,
            needs_backoff: false,
            use_eifs: false,
            nav_until: SimTime::ZERO,
            response: None,
            transmitting: None,
            timers: TimerSlab::new(),
            attempt_timer: None,
            response_timer: None,
            wait_timer: None,
            nav_timer: None,
            nav_reset_timer: None,
            nav_reset_armed_at: SimTime::ZERO,
            last_busy: None,
            rx_dedup: sim_core::DetMap::new(),
            stats: MacStats::default(),
        }
    }

    /// Whether the MAC can accept a new packet via [`Mac::start_packet`].
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
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
        let packet = self.current.take().map(|c| c.packet.into_owned());
        self.phase = Phase::NoPacket;
        self.countdown = None;
        self.carried_slots = None;
        self.cw = self.params.cw_min;
        self.needs_backoff = false;
        self.use_eifs = false;
        self.nav_until = SimTime::ZERO;
        self.response = None;
        self.transmitting = None;
        self.cancel_attempt_timer();
        self.cancel_response_timer();
        self.cancel_wait_timer();
        self.cancel_nav_timer();
        self.cancel_nav_reset_timer();
        self.nav_reset_armed_at = SimTime::ZERO;
        self.last_busy = None;
        packet
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
        assert!(self.current.is_none(), "MAC already busy with a packet");
        self.current = Some(Outgoing {
            packet: SharedPacket::new(packet),
            next_hop,
            short_retries: 0,
            long_retries: 0,
        });
        self.phase = Phase::Defer;
        self.carried_slots = None;
        let mut out = MacOutputs::new();
        self.try_start_countdown(now, medium, &mut out);
        out
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
        self.try_start_countdown(now, medium, &mut out);
        out
    }

    /// A frame was decoded at this node's PHY.
    pub fn on_frame_decoded(
        &mut self,
        frame: MacFrame,
        now: SimTime,
        medium: MediumView,
    ) -> MacOutputs {
        let mut out = MacOutputs::new();
        // A correct reception ends any EIFS obligation.
        self.use_eifs = false;
        let for_me = frame.addressed_to(self.addr);
        if !for_me {
            let was_rts = frame.kind() == FrameKind::Rts;
            self.observe_nav(frame.nav_until_nanos, now, &mut out);
            if was_rts && self.nav_until > now {
                // 802.11 NAV-reset rule: an RTS-established NAV is released
                // if the granted exchange never starts (no carrier within
                // 2·SIFS + CTS airtime + 2 slots of the RTS ending).
                let wait = self.params.sifs * 2 + self.params.cts_airtime() + self.params.slot * 2;
                self.arm_nav_reset(now, wait, &mut out);
            }
            self.try_start_countdown(now, medium, &mut out);
            return out;
        }
        match frame.kind() {
            FrameKind::Rts => self.handle_rts(frame, now, &mut out),
            FrameKind::Cts => self.handle_cts(frame, now, &mut out),
            FrameKind::Data => self.handle_data(frame, now, &mut out),
            FrameKind::Ack => self.handle_ack(now, &mut out),
        }
        self.try_start_countdown(now, medium, &mut out);
        out
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
        if !self.timers.fire(id.0) {
            // Cancelled (or already consumed): a lazy tombstone popping.
            return out;
        }
        if self.attempt_timer == Some(id) {
            self.attempt_timer = None;
            self.fire_attempt(now, medium, &mut out);
        } else if self.response_timer == Some(id) {
            self.response_timer = None;
            self.fire_response(now, &mut out);
        } else if self.wait_timer == Some(id) {
            self.wait_timer = None;
            self.fire_wait_timeout(now, medium, &mut out);
        } else if self.nav_timer == Some(id) {
            self.nav_timer = None;
            self.try_start_countdown(now, medium, &mut out);
        } else if self.nav_reset_timer == Some(id) {
            self.nav_reset_timer = None;
            let heard_since = self.last_busy.is_some_and(|t| t >= self.nav_reset_armed_at);
            if !heard_since && self.nav_until > now {
                // Nothing hit the air since the reservation: release it.
                self.nav_until = now;
                self.try_start_countdown(now, medium, &mut out);
            }
        }
        out
    }

    /// Our transmission (started via [`MacOutput::Transmit`]) left the air.
    pub fn on_tx_done(&mut self, now: SimTime, medium: MediumView) -> MacOutputs {
        let mut out = MacOutputs::new();
        let kind = self.transmitting.take().expect("tx done without transmission");
        match kind {
            TxKind::AttemptRts => {
                debug_assert_eq!(self.phase, Phase::TxRts);
                self.phase = Phase::WaitCts;
                let id = self.alloc_timer();
                self.wait_timer = Some(id);
                out.push(MacOutput::SetTimer { id, at: now + self.params.cts_timeout() });
            }
            TxKind::AttemptData => {
                debug_assert_eq!(self.phase, Phase::TxData);
                let broadcast =
                    self.current.as_ref().map(|c| c.next_hop.is_broadcast()).unwrap_or(false);
                if broadcast {
                    self.finish_success(now, &mut out);
                } else {
                    self.phase = Phase::WaitAck;
                    let id = self.alloc_timer();
                    self.wait_timer = Some(id);
                    out.push(MacOutput::SetTimer { id, at: now + self.params.ack_timeout() });
                }
            }
            TxKind::Response(kind) => {
                if kind == FrameKind::Cts {
                    // We granted the medium; if the peer's DATA never
                    // starts, release our self-imposed deferral instead of
                    // staying deaf for the whole reserved exchange.
                    let wait = self.params.sifs + self.params.slot * 2 + self.params.max_prop * 2;
                    self.arm_nav_reset(now, wait, &mut out);
                }
            }
        }
        self.try_start_countdown(now, medium, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Receive-side handlers
    // ------------------------------------------------------------------

    fn handle_rts(&mut self, frame: MacFrame, now: SimTime, out: &mut MacOutputs) {
        // Respond with CTS only if our virtual carrier sense is idle and we
        // are not mid-transmission or already committed to a response.
        let available = self.nav_until <= now
            && self.transmitting.is_none()
            && self.response.is_none()
            && !matches!(self.phase, Phase::TxRts | Phase::TxData);
        if available {
            self.schedule_response(
                ResponseKind::Cts {
                    peer: frame.src,
                    nav_until: SimTime::from_nanos(frame.nav_until_nanos),
                },
                now,
                out,
            );
        }
    }

    fn handle_cts(&mut self, _frame: MacFrame, now: SimTime, out: &mut MacOutputs) {
        if self.phase == Phase::WaitCts {
            self.cancel_wait_timer();
            // Reset the short retry count: the RTS got through.
            if let Some(c) = self.current.as_mut() {
                c.short_retries = 0;
            }
            self.schedule_response(ResponseKind::AttemptData, now, out);
            // Phase stays WaitCts until the DATA actually launches.
        }
    }

    fn handle_data(&mut self, frame: MacFrame, now: SimTime, out: &mut MacOutputs) {
        let src = frame.src;
        let unicast = !frame.dst.is_broadcast();
        let seq_key = frame.packet().map(|p| p.uid).unwrap_or(0);
        if unicast && self.transmitting.is_none() && self.response.is_none() {
            self.schedule_response(ResponseKind::Ack { peer: src }, now, out);
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

    fn handle_ack(&mut self, now: SimTime, out: &mut MacOutputs) {
        if self.phase == Phase::WaitAck {
            self.cancel_wait_timer();
            self.finish_success(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Attempt path
    // ------------------------------------------------------------------

    fn try_start_countdown(&mut self, now: SimTime, medium: MediumView, out: &mut MacOutputs) {
        if self.phase != Phase::Defer || self.current.is_none() {
            return;
        }
        if medium.busy || self.transmitting.is_some() || self.response.is_some() {
            // Stay deferred; the driver pings us again at the next idle edge.
            return;
        }
        if self.nav_until > now {
            // Virtually busy: wake up exactly at NAV expiry.
            if self.nav_timer.is_none() {
                let id = self.alloc_timer();
                self.nav_timer = Some(id);
                out.push(MacOutput::SetTimer { id, at: self.nav_until });
            }
            return;
        }
        let slots = match self.carried_slots.take() {
            Some(s) => s,
            None if self.needs_backoff => self.rng.backoff_slot(self.cw),
            None => 0,
        };
        let ifs = if self.use_eifs { self.params.eifs() } else { self.params.difs() };
        let fire = now + ifs + self.params.slot * u64::from(slots);
        self.countdown = Some(Countdown { started: now, ifs, slots });
        let id = self.alloc_timer();
        self.attempt_timer = Some(id);
        self.phase = Phase::Count;
        if slots > 0 {
            out.push(MacOutput::Backoff { slots, cw: self.cw });
        }
        out.push(MacOutput::SetTimer { id, at: fire });
    }

    fn freeze_countdown(&mut self, now: SimTime) {
        if self.phase != Phase::Count {
            return;
        }
        let cd = self.countdown.take().expect("counting without countdown");
        let elapsed = now.saturating_since(cd.started);
        let remaining = if elapsed <= cd.ifs {
            cd.slots
        } else {
            let consumed = (elapsed - cd.ifs).as_nanos() / self.params.slot.as_nanos().max(1);
            cd.slots.saturating_sub(consumed as u32)
        };
        self.carried_slots = Some(remaining);
        self.cancel_attempt_timer(); // tombstone the pending timer
        self.needs_backoff = true; // deferral always implies backoff
        self.phase = Phase::Defer;
    }

    fn fire_attempt(&mut self, now: SimTime, medium: MediumView, out: &mut MacOutputs) {
        if self.phase != Phase::Count {
            return; // stale
        }
        if medium.busy || self.nav_until > now || self.transmitting.is_some() {
            // Lost the race with a late-arriving signal: refreeze.
            self.freeze_countdown(now);
            self.try_start_countdown(now, medium, out);
            return;
        }
        self.countdown = None;
        // Backoff consumed; the next attempt draws afresh.
        let current = self.current.as_ref().expect("attempt without packet");
        let broadcast = current.next_hop.is_broadcast();
        if broadcast || !self.params.rts_enabled {
            self.transmit_attempt_data(now, out);
        } else {
            self.transmit_rts(now, out);
        }
    }

    fn transmit_rts(&mut self, now: SimTime, out: &mut MacOutputs) {
        let (dst, data_bytes) = {
            let c = self.current.as_ref().expect("no packet");
            (c.next_hop, c.packet.size_bytes() + wire::DATA_OVERHEAD_BYTES)
        };
        let p = &self.params;
        let rts_end = now + p.rts_airtime();
        let nav_until = rts_end
            + p.sifs
            + p.cts_airtime()
            + p.sifs
            + p.data_airtime(data_bytes)
            + p.sifs
            + p.ack_airtime()
            + p.max_prop * 4;
        let frame = MacFrame {
            src: self.addr,
            dst,
            body: FrameBody::Control(FrameKind::Rts),
            nav_until_nanos: nav_until.as_nanos(),
        };
        self.stats.rts_sent += 1;
        self.phase = Phase::TxRts;
        self.transmitting = Some(TxKind::AttemptRts);
        let airtime = p.rts_airtime();
        out.push(MacOutput::Transmit { frame, airtime });
    }

    fn transmit_attempt_data(&mut self, now: SimTime, out: &mut MacOutputs) {
        let (dst, packet) = {
            let c = self.current.as_ref().expect("no packet");
            // An `Rc` clone: every retry's frame shares the one allocation.
            (c.next_hop, c.packet.clone())
        };
        let p = &self.params;
        let frame_bytes = packet.size_bytes() + wire::DATA_OVERHEAD_BYTES;
        let data_end = now + p.data_airtime(frame_bytes);
        let nav_until = if dst.is_broadcast() {
            SimTime::ZERO
        } else {
            data_end + p.sifs + p.ack_airtime() + p.max_prop * 2
        };
        let frame = MacFrame {
            src: self.addr,
            dst,
            body: FrameBody::Data(packet),
            nav_until_nanos: nav_until.as_nanos(),
        };
        self.stats.data_sent += 1;
        self.phase = Phase::TxData;
        self.transmitting = Some(TxKind::AttemptData);
        let airtime = p.data_airtime(frame_bytes);
        out.push(MacOutput::Transmit { frame, airtime });
    }

    fn fire_wait_timeout(&mut self, now: SimTime, medium: MediumView, out: &mut MacOutputs) {
        match self.phase {
            Phase::WaitCts => {
                self.stats.cts_timeouts += 1;
                let limit_hit = {
                    let c = self.current.as_mut().expect("waiting without packet");
                    c.short_retries += 1;
                    c.short_retries >= self.params.short_retry_limit
                };
                if limit_hit {
                    self.finish_failure(now, out);
                } else {
                    self.retry(now, medium, out);
                }
            }
            Phase::WaitAck => {
                self.stats.ack_timeouts += 1;
                let limit_hit = {
                    let c = self.current.as_mut().expect("waiting without packet");
                    c.long_retries += 1;
                    c.long_retries >= self.params.long_retry_limit
                };
                if limit_hit {
                    self.finish_failure(now, out);
                } else {
                    self.retry(now, medium, out);
                }
            }
            _ => {} // stale
        }
    }

    fn retry(&mut self, now: SimTime, medium: MediumView, out: &mut MacOutputs) {
        self.cw = (self.cw * 2 + 1).min(self.params.cw_max);
        self.needs_backoff = true;
        self.carried_slots = None;
        self.phase = Phase::Defer;
        self.try_start_countdown(now, medium, out);
    }

    fn finish_success(&mut self, _now: SimTime, out: &mut MacOutputs) {
        let c = self.current.take().expect("success without packet");
        self.cw = self.params.cw_min;
        self.needs_backoff = true; // post-transmission backoff
        self.phase = Phase::NoPacket;
        self.carried_slots = None;
        if !c.next_hop.is_broadcast() {
            out.push(MacOutput::TxSuccess { packet: c.packet.into_owned(), next_hop: c.next_hop });
        }
        out.push(MacOutput::ReadyForNext);
    }

    fn finish_failure(&mut self, _now: SimTime, out: &mut MacOutputs) {
        let c = self.current.take().expect("failure without packet");
        self.stats.drops += 1;
        self.cw = self.params.cw_min;
        self.needs_backoff = true;
        self.phase = Phase::NoPacket;
        self.carried_slots = None;
        out.push(MacOutput::TxFailed { packet: c.packet.into_owned(), next_hop: c.next_hop });
        out.push(MacOutput::ReadyForNext);
    }

    // ------------------------------------------------------------------
    // Response path (SIFS-timed CTS / ACK / post-CTS DATA)
    // ------------------------------------------------------------------

    fn schedule_response(&mut self, kind: ResponseKind, now: SimTime, out: &mut MacOutputs) {
        debug_assert!(self.response.is_none());
        // Committing to a response suspends our own countdown.
        self.freeze_countdown(now);
        self.response = Some(kind);
        let id = self.alloc_timer();
        self.response_timer = Some(id);
        out.push(MacOutput::SetTimer { id, at: now + self.params.sifs });
    }

    fn fire_response(&mut self, now: SimTime, out: &mut MacOutputs) {
        let Some(kind) = self.response.take() else { return };
        if self.transmitting.is_some() {
            // Radio unexpectedly occupied; drop the response (peer retries).
            return;
        }
        let p = &self.params;
        match kind {
            ResponseKind::Cts { peer, nav_until } => {
                let frame = MacFrame {
                    src: self.addr,
                    dst: peer,
                    body: FrameBody::Control(FrameKind::Cts),
                    nav_until_nanos: nav_until.as_nanos(),
                };
                // Defer our own attempts until the protected exchange ends.
                self.nav_until = self.nav_until.max(nav_until);
                self.transmitting = Some(TxKind::Response(FrameKind::Cts));
                let airtime = p.cts_airtime();
                out.push(MacOutput::Transmit { frame, airtime });
            }
            ResponseKind::Ack { peer } => {
                let frame = MacFrame {
                    src: self.addr,
                    dst: peer,
                    body: FrameBody::Control(FrameKind::Ack),
                    nav_until_nanos: 0,
                };
                self.transmitting = Some(TxKind::Response(FrameKind::Ack));
                let airtime = p.ack_airtime();
                out.push(MacOutput::Transmit { frame, airtime });
            }
            ResponseKind::AttemptData => {
                if self.phase == Phase::WaitCts && self.current.is_some() {
                    self.transmit_attempt_data(now, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // NAV
    // ------------------------------------------------------------------

    fn observe_nav(&mut self, nav_until_nanos: u64, now: SimTime, _out: &mut MacOutputs) {
        let until = SimTime::from_nanos(nav_until_nanos);
        if until > self.nav_until {
            self.nav_until = until;
        }
        if self.nav_until > now {
            // Virtual carrier became busy: freeze a running countdown.
            self.freeze_countdown(now);
        }
    }

    fn arm_nav_reset(&mut self, now: SimTime, wait: SimDuration, out: &mut MacOutputs) {
        // Re-arming tombstones the previous reset timer, if still pending.
        self.cancel_nav_reset_timer();
        let id = self.alloc_timer();
        self.nav_reset_timer = Some(id);
        self.nav_reset_armed_at = now;
        out.push(MacOutput::SetTimer { id, at: now + wait });
    }

    fn alloc_timer(&mut self) -> TimerId {
        TimerId(self.timers.schedule())
    }

    fn cancel_attempt_timer(&mut self) {
        if let Some(id) = self.attempt_timer.take() {
            self.timers.cancel(id.0);
        }
    }

    fn cancel_response_timer(&mut self) {
        if let Some(id) = self.response_timer.take() {
            self.timers.cancel(id.0);
        }
    }

    fn cancel_wait_timer(&mut self) {
        if let Some(id) = self.wait_timer.take() {
            self.timers.cancel(id.0);
        }
    }

    fn cancel_nav_timer(&mut self) {
        if let Some(id) = self.nav_timer.take() {
            self.timers.cancel(id.0);
        }
    }

    fn cancel_nav_reset_timer(&mut self) {
        if let Some(id) = self.nav_reset_timer.take() {
            self.timers.cancel(id.0);
        }
    }
}

#[cfg(test)]
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
}
