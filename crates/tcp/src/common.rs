//! The sender's sequence, RTT and timer bookkeeping.

use sim_core::{DetMap, SimDuration, SimTime};
use wire::{Drai, FlowId, TcpSegment, TcpSegmentKind};

use crate::{RttEstimator, TcpConfig, TcpOutput, TcpStats, TcpTimer};

/// Sequence, timing and timer bookkeeping of a [`crate::Sender`], readable
/// from outside through [`crate::Transport::send_state`]; only the sender
/// changes it. Sequence numbers are in segments; `una` is the lowest
/// unacknowledged segment, `nxt` the next fresh segment to transmit.
#[derive(Debug)]
pub struct SendState {
    /// Lowest unacknowledged segment.
    pub una: u64,
    /// Next fresh (never sent) segment.
    pub nxt: u64,
    /// Consecutive duplicate ACK count.
    pub(crate) dupacks: u32,
    /// RTT estimation and RTO computation.
    pub(crate) rtt: RttEstimator,
    /// Counters.
    pub(crate) stats: TcpStats,
    cfg: TcpConfig,
    high_water: u64,
    consecutive_timeouts: u32,
    /// Send times of candidate RTT-sample segments (Karn: entries are
    /// removed when a segment is retransmitted).
    send_times: DetMap<u64, SimTime>,
    armed_timer: Option<TcpTimer>,
    next_timer_id: u64,
    cancelled_timers: u64,
}

impl SendState {
    /// Creates fresh state for one flow.
    pub(crate) fn new(cfg: TcpConfig) -> Self {
        cfg.validate();
        SendState {
            una: 0,
            nxt: 0,
            dupacks: 0,
            rtt: RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            stats: TcpStats::default(),
            cfg,
            high_water: 0,
            consecutive_timeouts: 0,
            send_times: DetMap::new(),
            armed_timer: None,
            next_timer_id: 0,
            cancelled_timers: 0,
        }
    }

    /// The configuration this sender runs with.
    pub fn cfg(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Segments currently in flight.
    pub fn flight(&self) -> u64 {
        self.nxt.saturating_sub(self.una)
    }

    /// The usable window in segments: `min(cwnd, advertised)` with a floor
    /// of one segment.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates: a huge window caps, never wraps"
    )]
    pub fn usable_window(&self, cwnd: f64) -> u64 {
        let c = cwnd.floor().max(1.0) as u64;
        c.min(u64::from(self.cfg.advertised_window))
    }

    /// Whether a fresh segment fits in the window.
    pub fn can_send_fresh(&self, cwnd: f64) -> bool {
        self.flight() < self.usable_window(cwnd)
    }

    /// Data segment `seq` of `flow`. `avbw` is the initial AVBW-S option a
    /// router-assisted variant stamps on its data (`None` for plain TCP).
    pub(crate) fn make_segment(&self, flow: FlowId, seq: u64, avbw: Option<Drai>) -> TcpSegment {
        TcpSegment::data(flow, seq, self.cfg.payload_bytes, avbw)
    }

    /// Sends fresh segments while the window `min(cwnd, advertised)` has
    /// room, then makes sure the retransmission timer covers the flight.
    pub(crate) fn send_fresh(
        &mut self,
        flow: FlowId,
        avbw: Option<Drai>,
        cwnd: f64,
        now: SimTime,
        out: &mut Vec<TcpOutput>,
    ) {
        while self.can_send_fresh(cwnd) {
            let seq = self.nxt;
            self.nxt += 1;
            self.register_send(seq, now);
            out.push(TcpOutput::SendSegment(self.make_segment(flow, seq, avbw)));
        }
        if self.flight() > 0 {
            self.ensure_timer(now, out);
        }
    }

    /// Resends segment `seq`, flagged as a retransmission. Timer handling is
    /// the caller's: variants differ on whether a resend re-arms it.
    pub(crate) fn retransmit(
        &mut self,
        flow: FlowId,
        avbw: Option<Drai>,
        seq: u64,
        now: SimTime,
        out: &mut Vec<TcpOutput>,
    ) {
        self.register_send(seq, now);
        let mut seg = self.make_segment(flow, seq, avbw);
        if let TcpSegmentKind::Data { retransmit, .. } = &mut seg.kind {
            *retransmit = true;
        }
        out.push(TcpOutput::SendSegment(seg));
    }

    /// Records the transmission of segment `seq` at `now` and returns
    /// whether it was a retransmission (i.e. `seq` had been sent before).
    ///
    /// Retransmissions are excluded from RTT sampling (Karn's algorithm)
    /// and counted in the retransmission statistic.
    pub(crate) fn register_send(&mut self, seq: u64, now: SimTime) -> bool {
        let retransmit = seq < self.high_water;
        self.high_water = self.high_water.max(seq + 1);
        self.stats.segments_sent += 1;
        if retransmit {
            self.stats.retransmissions += 1;
            self.send_times.remove(&seq);
        } else {
            self.send_times.insert(seq, now);
        }
        retransmit
    }

    /// One past the highest segment ever transmitted.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Advances `una` for a cumulative ACK and returns an RTT sample from
    /// the newest acknowledged, never-retransmitted segment (if any).
    ///
    /// Returns `None` if the ACK does not advance `una` — it is old, or it
    /// acknowledges data never sent (RFC 793: such an ACK is dropped; taking
    /// it would empty the flight and let the window refill without bound).
    pub(crate) fn advance_una(&mut self, ack: u64, now: SimTime) -> Option<SimDuration> {
        if ack <= self.una || ack > self.high_water {
            return None;
        }
        let mut sample: Option<SimDuration> = None;
        for seq in self.una..ack.min(self.nxt) {
            if let Some(sent) = self.send_times.remove(&seq) {
                sample = Some(now.saturating_since(sent));
            }
        }
        self.una = ack;
        self.stats.acked_segments = self.stats.acked_segments.max(ack);
        self.dupacks = 0;
        self.consecutive_timeouts = 0;
        if let Some(rtt) = sample {
            self.rtt.sample(rtt);
        }
        sample
    }

    /// Records a duplicate ACK and returns the new count.
    pub(crate) fn register_dupack(&mut self) -> u32 {
        self.dupacks += 1;
        self.stats.dupacks += 1;
        self.dupacks
    }

    /// Arms (or re-arms) the retransmission timer to fire one RTO from now,
    /// pushing the `SetTimer` output. Re-arming tombstones the previously
    /// armed id: its queued event will pop stale.
    pub(crate) fn arm_timer(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        let id = TcpTimer(self.next_timer_id);
        self.next_timer_id += 1;
        if self.armed_timer.replace(id).is_some() {
            self.cancelled_timers += 1;
        }
        out.push(TcpOutput::SetTimer { id, at: now + self.rtt.rto() });
    }

    /// Arms the timer only if none is pending.
    pub(crate) fn ensure_timer(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        if self.armed_timer.is_none() {
            self.arm_timer(now, out);
        }
    }

    /// Cancels the pending timer (future firings of old ids are stale).
    pub(crate) fn cancel_timer(&mut self) {
        if self.armed_timer.take().is_some() {
            self.cancelled_timers += 1;
        }
    }

    /// Whether `id` is the currently armed retransmission timer. The driver
    /// consults this at its dispatch choke point to discard stale timer
    /// pops without entering the sender.
    pub fn timer_is_live(&self, id: TcpTimer) -> bool {
        self.armed_timer == Some(id)
    }

    /// Number of timers tombstoned before firing (cancellations plus
    /// re-arms that superseded a pending id).
    pub fn timers_cancelled(&self) -> u64 {
        self.cancelled_timers
    }

    /// Whether `id` is the currently armed timer; consumes it if so.
    pub(crate) fn take_timer_if_current(&mut self, id: TcpTimer) -> bool {
        if self.armed_timer == Some(id) {
            self.armed_timer = None;
            true
        } else {
            false
        }
    }

    /// Invalidates all pending RTT samples (after a timeout, every
    /// outstanding segment is ambiguous).
    pub(crate) fn clear_rtt_candidates(&mut self) {
        self.send_times.clear();
    }

    /// Records a retransmission timeout: applies exponential RTO backoff
    /// unless the fixed-RTO heuristic (paper §3.1 \[40\]) is enabled and this
    /// is at least the second consecutive timeout — consecutive timeouts
    /// are read as a route loss, so the timer is held to probe promptly
    /// once the route returns.
    pub(crate) fn note_timeout(&mut self) {
        self.consecutive_timeouts += 1;
        if self.cfg.fixed_rto && self.consecutive_timeouts >= 2 {
            return;
        }
        self.rtt.back_off();
    }

    /// Consecutive timeouts without an intervening new ACK (diagnostics).
    pub fn consecutive_timeouts(&self) -> u32 {
        self.consecutive_timeouts
    }
}

sim_core::snap_record! {
    given (cfg: TcpConfig) SendState {
        una,
        nxt,
        dupacks,
        rtt: RttEstimator(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
        stats,
        cfg = cfg,
        high_water,
        consecutive_timeouts,
        send_times,
        armed_timer,
        next_timer_id,
        cancelled_timers,
    }
    check |s| s.una <= s.nxt => "send state una past nxt";
    check |s| s.nxt <= s.high_water => "send state nxt past high water";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::testkit::t;

    fn st() -> SendState {
        SendState::new(TcpConfig::default())
    }

    #[test]
    fn window_accounting() {
        let mut s = st();
        assert_eq!(s.flight(), 0);
        assert!(s.can_send_fresh(1.0));
        assert!(!s.register_send(0, t(0)));
        s.nxt = 1;
        assert_eq!(s.flight(), 1);
        assert!(!s.can_send_fresh(1.0));
        assert!(s.can_send_fresh(2.0));
        // Advertised window caps cwnd.
        let s2 = SendState::new(TcpConfig { advertised_window: 4, ..TcpConfig::default() });
        assert_eq!(s2.usable_window(100.0), 4);
        // Fractional cwnd floors, with a 1-segment minimum.
        assert_eq!(s.usable_window(2.9), 2);
        assert_eq!(s.usable_window(0.2), 1);
    }

    #[test]
    fn cumulative_ack_advances_and_samples() {
        let mut s = st();
        for seq in 0..3 {
            s.register_send(seq, t(seq * 10));
        }
        s.nxt = 3;
        let sample = s.advance_una(3, t(100));
        // Newest acked segment (2) was sent at t=20 → RTT 80 ms.
        assert_eq!(sample, Some(SimDuration::from_millis(80)));
        assert_eq!(s.una, 3);
        assert_eq!(s.stats.acked_segments, 3);
    }

    #[test]
    fn old_ack_ignored() {
        let mut s = st();
        s.register_send(0, t(0));
        s.nxt = 1;
        assert!(s.advance_una(1, t(10)).is_some());
        assert!(s.advance_una(1, t(20)).is_none());
        assert!(s.advance_una(0, t(20)).is_none());
    }

    #[test]
    fn ack_for_unsent_data_is_ignored() {
        let mut s = st();
        let mut out = Vec::new();
        s.send_fresh(FlowId::new(0), None, 3.0, t(0), &mut out);
        assert_eq!((s.nxt, s.high_water(), s.flight()), (3, 3, 3));
        // One past everything sent, and a corrupted-looking huge number.
        for bogus in [4, 0x8000_0008] {
            assert_eq!(s.advance_una(bogus, t(10)), None);
            assert_eq!((s.una, s.flight()), (0, 3), "ack {bogus} must not move the window");
        }
        s.send_fresh(FlowId::new(0), None, 3.0, t(10), &mut out);
        assert_eq!(s.nxt, 3, "a full window stays full");
        // After a timeout rewinds `nxt`, segments up to the high-water mark
        // were still sent once and may yet be acknowledged.
        s.nxt = s.una;
        assert!(s.advance_una(3, t(20)).is_none(), "no RTT sample below the rewound nxt");
        assert_eq!(s.una, 3);
    }

    #[test]
    fn karn_excludes_retransmissions() {
        let mut s = st();
        assert!(!s.register_send(0, t(0)));
        s.nxt = 1;
        assert!(s.register_send(0, t(50))); // retransmission invalidates the sample
        let sample = s.advance_una(1, t(100));
        assert_eq!(sample, None);
        assert_eq!(s.stats.retransmissions, 1);
        assert_eq!(s.stats.segments_sent, 2);
    }

    #[test]
    fn dupack_counter_resets_on_new_ack() {
        let mut s = st();
        s.register_send(0, t(0));
        s.register_send(1, t(1));
        s.nxt = 2;
        assert_eq!(s.register_dupack(), 1);
        assert_eq!(s.register_dupack(), 2);
        let _ = s.advance_una(1, t(10));
        assert_eq!(s.dupacks, 0);
        assert_eq!(s.stats.dupacks, 2);
    }

    #[test]
    fn timer_lifecycle() {
        let mut s = st();
        let mut out = Vec::new();
        s.ensure_timer(t(0), &mut out);
        assert_eq!(out.len(), 1);
        let id = match out[0] {
            TcpOutput::SetTimer { id, .. } => id,
            _ => unreachable!(),
        };
        // ensure_timer is idempotent while armed.
        s.ensure_timer(t(1), &mut out);
        assert_eq!(out.len(), 1);
        assert!(s.take_timer_if_current(id));
        assert!(!s.take_timer_if_current(id), "consumed timers are stale");
        // Cancel invalidates.
        s.arm_timer(t(2), &mut out);
        let id2 = match out[1] {
            TcpOutput::SetTimer { id, .. } => id,
            _ => unreachable!(),
        };
        assert!(s.timer_is_live(id2));
        s.cancel_timer();
        assert!(!s.take_timer_if_current(id2));
        assert!(!s.timer_is_live(id2));
        assert_eq!(s.timers_cancelled(), 1);
        // Re-arming over a pending timer tombstones the old id.
        s.arm_timer(t(3), &mut out);
        s.arm_timer(t(4), &mut out);
        assert_eq!(s.timers_cancelled(), 2);
    }
}

#[cfg(test)]
mod fixed_rto_tests {
    use super::*;
    use crate::sender::testkit::t;

    #[test]
    fn standard_backoff_keeps_doubling() {
        let mut s = SendState::new(TcpConfig::default());
        s.rtt.sample(SimDuration::from_millis(100)); // RTO 300 ms
        s.note_timeout();
        s.note_timeout();
        s.note_timeout();
        assert_eq!(s.rtt.rto(), SimDuration::from_millis(2_400));
        assert_eq!(s.consecutive_timeouts(), 3);
    }

    #[test]
    fn fixed_rto_freezes_after_second_consecutive_timeout() {
        let cfg = TcpConfig { fixed_rto: true, ..TcpConfig::default() };
        let mut s = SendState::new(cfg);
        s.rtt.sample(SimDuration::from_millis(100)); // RTO 300 ms
        s.note_timeout(); // first timeout still doubles (could be congestion)
        assert_eq!(s.rtt.rto(), SimDuration::from_millis(600));
        s.note_timeout(); // consecutive: route loss — hold
        s.note_timeout();
        assert_eq!(s.rtt.rto(), SimDuration::from_millis(600), "RTO frozen");
        // A new ACK ends the episode; backoff resumes normally after it.
        s.register_send(0, t(0));
        s.nxt = 1;
        let _ = s.advance_una(1, t(10));
        assert_eq!(s.consecutive_timeouts(), 0);
        s.note_timeout();
        assert!(s.rtt.rto() > SimDuration::from_millis(200));
    }
}
