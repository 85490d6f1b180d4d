//! TCP-DOOR sender (Wang & Zhang 2002) — out-of-order delivery detection
//! and response, the paper's §3.1 pure end-to-end route-change heuristic
//! (\[39\]).

use sim_core::{SimDuration, SimTime};
use wire::{FlowId, TcpSegment, TcpSegmentKind};

use crate::{SendState, TcpConfig, TcpOutput, TcpTimer, Transport};

/// A TCP-DOOR sender: NewReno plus two responses to out-of-order (OOO)
/// delivery events, which in a MANET almost always mean a route changed
/// rather than congestion occurred:
///
/// * **Temporarily disabling congestion control** (T1 ≈ one RTT): right
///   after an OOO signal, duplicate-ACK runs retransmit without shrinking
///   the window, and a timeout retransmits without collapsing it.
/// * **Instant recovery** (T2 ≈ one RTT): if the window *was* reduced
///   within the last T2 before the OOO signal, the pre-reduction state is
///   restored — the reduction was a misdiagnosed route change.
///
/// The OOO signal itself comes from the receiver (an `ooo` flag on ACKs,
/// set when a fresh, non-retransmitted segment arrives below the highest
/// sequence seen — the segment-granularity equivalent of DOOR's ADSN/TPSN
/// options).
#[derive(Debug)]
pub struct DoorSender {
    flow: FlowId,
    s: SendState,
    cwnd: f64,
    ssthresh: f64,
    /// While in fast recovery: exit once `una` reaches this point.
    recovery_point: Option<u64>,
    /// Congestion responses are suppressed until this instant.
    cc_disabled_until: SimTime,
    /// The state saved at the last window reduction, for instant recovery.
    last_reduction: Option<Reduction>,
    /// OOO events acted upon (diagnostics).
    ooo_events: u64,
}

#[derive(Clone, Copy, Debug)]
struct Reduction {
    at: SimTime,
    prev_cwnd: f64,
    prev_ssthresh: f64,
}

impl DoorSender {
    /// Creates a TCP-DOOR sender.
    pub fn new(flow: FlowId, cfg: TcpConfig) -> Self {
        let s = SendState::new(cfg);
        DoorSender {
            flow,
            cwnd: cfg.initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            s,
            recovery_point: None,
            cc_disabled_until: SimTime::ZERO,
            last_reduction: None,
            ooo_events: 0,
        }
    }

    /// OOO signals the sender has reacted to (diagnostics).
    pub fn ooo_events(&self) -> u64 {
        self.ooo_events
    }

    /// Whether congestion responses are currently suppressed.
    pub fn congestion_control_disabled(&self, now: SimTime) -> bool {
        now < self.cc_disabled_until
    }

    /// Whether the sender is in fast recovery.
    pub fn in_fast_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    /// T1/T2: DOOR ties both to the RTT scale.
    fn window_span(&self) -> SimDuration {
        self.s.rtt.srtt().unwrap_or(SimDuration::from_millis(100))
    }

    fn on_ooo_signal(&mut self, now: SimTime) {
        self.ooo_events += 1;
        // Instant recovery: a reduction in the recent past was very likely
        // a misread route change — undo it.
        if let Some(red) = self.last_reduction {
            if now.saturating_since(red.at) <= self.window_span() {
                self.cwnd = self.cwnd.max(red.prev_cwnd);
                self.ssthresh = self.ssthresh.max(red.prev_ssthresh);
                self.last_reduction = None;
                // The fast-recovery episode born of that misread reduction
                // ends with it. Leaving `recovery_point` set would hand the
                // restored ssthresh to the episode's exit deflation
                // (`cwnd = ssthresh` on the next full ACK), silently
                // re-applying — or wildly overshooting — the undone cut.
                self.recovery_point = None;
                self.s.dupacks = 0;
            }
        }
        // And don't react to the disorder that is still in flight.
        self.cc_disabled_until = now + self.window_span();
    }

    fn note_reduction(&mut self, now: SimTime, prev_cwnd: f64, prev_ssthresh: f64) {
        self.last_reduction = Some(Reduction { at: now, prev_cwnd, prev_ssthresh });
    }
}

impl Transport for DoorSender {
    fn name(&self) -> &'static str {
        "DOOR"
    }

    fn flow(&self) -> FlowId {
        self.flow
    }

    fn open(&mut self, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.s.trace_cwnd(now, self.cwnd);
        self.s.send_fresh(self.flow, None, self.cwnd, now, &mut out);
        out
    }

    fn on_ack_segment(&mut self, segment: &TcpSegment, now: SimTime) -> Vec<TcpOutput> {
        let TcpSegmentKind::Ack { ack, ooo, .. } = &segment.kind else {
            return Vec::new();
        };
        let (ack, ooo) = (*ack, *ooo);
        if ooo {
            self.on_ooo_signal(now);
        }
        let mut out = Vec::new();
        if ack > self.s.una {
            let _ = self.s.advance_una(ack, now);
            match self.recovery_point {
                Some(point) if ack >= point => {
                    self.recovery_point = None;
                    self.cwnd = self.ssthresh;
                }
                Some(_) => {
                    self.s.retransmit(self.flow, None, ack, now, &mut out);
                    self.s.arm_timer(now, &mut out);
                }
                None => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += 1.0;
                    } else {
                        self.cwnd += 1.0 / self.cwnd;
                    }
                }
            }
            if self.recovery_point.is_none() {
                if self.s.flight() > 0 {
                    self.s.arm_timer(now, &mut out);
                } else {
                    self.s.cancel_timer();
                }
            }
            self.s.send_fresh(self.flow, None, self.cwnd, now, &mut out);
        } else if self.s.flight() > 0 {
            if self.in_fast_recovery() {
                self.cwnd += 1.0;
                self.s.send_fresh(self.flow, None, self.cwnd, now, &mut out);
            } else {
                let count = self.s.register_dupack();
                if count == self.s.cfg().dupack_threshold {
                    self.s.stats.fast_retransmits += 1;
                    self.recovery_point = Some(self.s.nxt);
                    let una = self.s.una;
                    if self.congestion_control_disabled(now) {
                        // Route-change window: repair the hole without
                        // touching the window.
                        self.s.retransmit(self.flow, None, una, now, &mut out);
                    } else {
                        let (pc, ps) = (self.cwnd, self.ssthresh);
                        self.ssthresh = (self.s.flight() as f64 / 2.0).max(2.0);
                        self.cwnd = self.ssthresh + self.s.cfg().dupack_threshold as f64;
                        self.note_reduction(now, pc, ps);
                        self.s.retransmit(self.flow, None, una, now, &mut out);
                    }
                    self.s.arm_timer(now, &mut out);
                }
            }
        }
        self.s.trace_cwnd(now, self.cwnd);
        out
    }

    fn on_timer(&mut self, id: TcpTimer, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        if !self.s.take_timer_if_current(id) || self.s.flight() == 0 {
            return out;
        }
        self.s.stats.timeouts += 1;
        self.recovery_point = None;
        self.s.dupacks = 0;
        self.s.nxt = self.s.una;
        self.s.clear_rtt_candidates();
        self.s.note_timeout();
        if !self.congestion_control_disabled(now) {
            let (pc, ps) = (self.cwnd, self.ssthresh);
            self.ssthresh = (self.s.flight() as f64 / 2.0).max(2.0);
            self.cwnd = 1.0;
            self.note_reduction(now, pc, ps);
        }
        self.s.send_fresh(self.flow, None, self.cwnd, now, &mut out);
        self.s.trace_cwnd(now, self.cwnd);
        out
    }

    fn send_state(&self) -> &SendState {
        &self.s
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> Option<f64> {
        Some(self.ssthresh)
    }

    fn phase(&self) -> &'static str {
        if self.in_fast_recovery() {
            "fast-recovery"
        } else if self.cwnd < self.ssthresh {
            "slow-start"
        } else {
            "congestion-avoidance"
        }
    }

    fn encode_state(&self, w: &mut sim_core::SnapshotWriter) {
        w.put(&self.s);
        w.put_f64(self.cwnd);
        w.put_f64(self.ssthresh);
        w.put(&self.recovery_point);
        w.put(&self.cc_disabled_until);
        w.put(&self.last_reduction);
        w.put_u64(self.ooo_events);
    }

    fn restore_state(
        &mut self,
        r: &mut sim_core::SnapshotReader<'_>,
    ) -> Result<(), sim_core::SnapError> {
        self.s = r.get()?;
        self.cwnd = r.take_f64()?;
        self.ssthresh = r.take_f64()?;
        self.recovery_point = r.get()?;
        self.cc_disabled_until = r.get()?;
        self.last_reduction = r.get()?;
        self.ooo_events = r.take_u64()?;
        Ok(())
    }
}

impl sim_core::Snapshotable for Reduction {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        w.put(&self.at);
        w.put_f64(self.prev_cwnd);
        w.put_f64(self.prev_ssthresh);
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        Ok(Reduction { at: r.get()?, prev_cwnd: r.take_f64()?, prev_ssthresh: r.take_f64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn ack(n: u64) -> TcpSegment {
        TcpSegment::ack(FlowId::new(0), n)
    }

    fn ooo_ack(n: u64) -> TcpSegment {
        TcpSegment {
            flow: FlowId::new(0),
            kind: TcpSegmentKind::Ack {
                ack: n,
                mrai: None,
                marked: false,
                ooo: true,
                sack: Vec::new(),
            },
        }
    }

    fn mk() -> DoorSender {
        DoorSender::new(FlowId::new(0), TcpConfig::default())
    }

    fn grow(tx: &mut DoorSender) {
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        let _ = tx.on_ack_segment(&ack(2), t(200));
        let _ = tx.on_ack_segment(&ack(3), t(210));
    }

    #[test]
    fn dupacks_without_ooo_reduce_normally() {
        let mut tx = mk();
        grow(&mut tx);
        let before = tx.cwnd();
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(400));
        }
        assert!(tx.in_fast_recovery());
        assert!(tx.cwnd() < before + 3.0 + 1e-9);
        assert!(tx.ssthresh < before, "window reduced without OOO");
    }

    #[test]
    fn ooo_disables_congestion_response() {
        let mut tx = mk();
        grow(&mut tx);
        let ss_before = tx.ssthresh;
        // OOO signal arrives, then a dup-ACK run inside the T1 window.
        let _ = tx.on_ack_segment(&ooo_ack(3), t(300));
        assert!(tx.congestion_control_disabled(t(310)));
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(310));
        }
        assert!(tx.in_fast_recovery(), "the hole is still repaired");
        assert_eq!(tx.ssthresh, ss_before, "no reduction during T1");
        assert_eq!(tx.ooo_events(), 1);
    }

    #[test]
    fn instant_recovery_restores_recent_reduction() {
        let mut tx = mk();
        grow(&mut tx);
        let before = (tx.cwnd(), tx.ssthresh);
        // A dup-ACK run reduces the window...
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(300));
        }
        assert!(tx.ssthresh < before.1);
        // ...but an OOO signal arrives within T2: the reduction is undone.
        let _ = tx.on_ack_segment(&ooo_ack(3), t(320));
        assert!(tx.cwnd() >= before.0, "cwnd restored: {}", tx.cwnd());
        assert!(tx.ssthresh >= before.1, "ssthresh restored");
    }

    #[test]
    fn ooo_during_fast_recovery_ends_the_episode() {
        let mut tx = mk();
        grow(&mut tx); // cwnd 4, ssthresh 64, una 3, nxt 7
        let before = (tx.cwnd(), tx.ssthresh);
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(300));
        }
        assert!(tx.in_fast_recovery());
        assert!(tx.ssthresh < before.1, "episode opened with a reduction");
        // OOO inside T2 undoes the reduction — and must end the episode
        // that reduction opened, or the next full ACK would set
        // cwnd = (restored) ssthresh: a silent re-reduction when ssthresh
        // was low, a wild inflation when it was restored high.
        let _ = tx.on_ack_segment(&ooo_ack(3), t(320));
        assert!(!tx.in_fast_recovery(), "instant recovery must exit fast recovery");
        assert!(tx.ssthresh >= before.1, "ssthresh restored");
        assert!(tx.cwnd() >= before.0, "cwnd restored");
        let cw = tx.cwnd();
        let out = tx.on_ack_segment(&ack(7), t(340));
        assert!(!tx.in_fast_recovery());
        assert!(
            (tx.cwnd() - (cw + 1.0)).abs() < 1e-9,
            "full ACK grows normally instead of jumping to ssthresh: cwnd {}",
            tx.cwnd()
        );
        assert!(!out.is_empty(), "flow keeps sending after the episode");
    }

    #[test]
    fn stale_reduction_not_restored() {
        let mut tx = mk();
        grow(&mut tx);
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(300));
        }
        let reduced = tx.ssthresh;
        // OOO arrives long after T2 (srtt ≈ 100 ms here).
        let _ = tx.on_ack_segment(&ooo_ack(3), t(2_000));
        assert_eq!(tx.ssthresh, reduced, "old reductions stand");
    }

    #[test]
    fn timeout_during_t1_keeps_window() {
        let mut tx = mk();
        grow(&mut tx);
        let w = tx.cwnd();
        let _ = tx.on_ack_segment(&ooo_ack(3), t(300));
        // Fire the pending retransmission timer inside the T1 window.
        let mut out = Vec::new();
        tx.s.arm_timer(t(300), &mut out);
        let id = out
            .iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let _ = tx.on_timer(id, t(310));
        assert_eq!(tx.cwnd(), w, "timeout in T1 must not collapse the window");
        assert_eq!(tx.stats().timeouts, 1);
    }
}
