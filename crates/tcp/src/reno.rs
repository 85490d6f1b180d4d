//! TCP Reno and TCP NewReno senders.

use sim_core::SimTime;
use wire::{FlowId, TcpSegment, TcpSegmentKind};

use crate::{SendState, TcpConfig, TcpOutput, TcpTimer, Transport};

/// Which member of the Tahoe/Reno lineage this sender is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RenoFlavor {
    /// TCP Tahoe: fast retransmit but **no** fast recovery — after the
    /// retransmission the window collapses to one segment and slow start
    /// begins again (the original 1988 behaviour, paper §2.1).
    Tahoe,
    /// TCP Reno: fast recovery, exited on the first new ACK.
    Reno,
    /// TCP NewReno: fast recovery with partial-ACK retransmissions, exited
    /// only at the recovery point (RFC 3782).
    NewReno,
}

/// A Reno-style sender: slow start, congestion avoidance (AIMD), fast
/// retransmit and (for Reno/NewReno) fast recovery.
///
/// With [`RenoFlavor::NewReno`] (the default via [`RenoSender::new_reno`]),
/// fast recovery handles multiple losses per window by retransmitting on
/// every partial ACK and staying in recovery until the recovery point is
/// reached — this is **TCP NewReno**, the paper's principal baseline.
///
/// # Example
///
/// ```
/// use sim_core::SimTime;
/// use tcp::{RenoSender, TcpConfig, Transport};
/// use wire::FlowId;
///
/// let mut tx = RenoSender::new_reno(FlowId::new(0), TcpConfig::default());
/// let out = tx.open(SimTime::ZERO);
/// assert!(!out.is_empty()); // initial segment + retransmission timer
/// assert_eq!(tx.cwnd(), 1.0);
/// ```
#[derive(Debug)]
pub struct RenoSender {
    flow: FlowId,
    s: SendState,
    cwnd: f64,
    ssthresh: f64,
    flavor: RenoFlavor,
    /// While in fast recovery: exit once `una` reaches this point.
    recovery_point: Option<u64>,
}

impl RenoSender {
    /// Creates a TCP Tahoe sender.
    pub fn tahoe(flow: FlowId, cfg: TcpConfig) -> Self {
        Self::build(flow, cfg, RenoFlavor::Tahoe)
    }

    /// Creates a plain TCP Reno sender.
    pub fn reno(flow: FlowId, cfg: TcpConfig) -> Self {
        Self::build(flow, cfg, RenoFlavor::Reno)
    }

    /// Creates a TCP NewReno sender.
    pub fn new_reno(flow: FlowId, cfg: TcpConfig) -> Self {
        Self::build(flow, cfg, RenoFlavor::NewReno)
    }

    fn build(flow: FlowId, cfg: TcpConfig, flavor: RenoFlavor) -> Self {
        let s = SendState::new(cfg);
        RenoSender {
            flow,
            cwnd: cfg.initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            s,
            flavor,
            recovery_point: None,
        }
    }

    /// Current slow-start threshold (diagnostics).
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Whether the sender is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.recovery_point.is_none() && self.cwnd < self.ssthresh
    }

    /// Whether the sender is in fast recovery.
    pub fn in_fast_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    fn halve_on_loss(&mut self) {
        self.ssthresh = (self.s.flight() as f64 / 2.0).max(2.0);
    }

    fn handle_new_ack(&mut self, ack: u64, now: SimTime, out: &mut Vec<TcpOutput>) {
        match self.recovery_point {
            Some(point) if ack >= point => {
                // Full ACK: leave fast recovery, deflate to ssthresh.
                self.recovery_point = None;
                self.cwnd = self.ssthresh;
                let _ = self.s.advance_una(ack, now);
            }
            Some(_point) if self.flavor == RenoFlavor::NewReno => {
                // Partial ACK (NewReno): the next hole is lost too.
                let newly_acked = ack - self.s.una;
                let _ = self.s.advance_una(ack, now);
                // Deflate by the amount acknowledged, re-inflate by one for
                // the retransmission (RFC 3782).
                self.cwnd = (self.cwnd - newly_acked as f64 + 1.0).max(1.0);
                self.s.retransmit(self.flow, None, ack, now, out);
                self.s.arm_timer(now, out);
            }
            Some(_) => {
                // Plain Reno treats any new ACK as recovery exit.
                self.recovery_point = None;
                self.cwnd = self.ssthresh;
                let _ = self.s.advance_una(ack, now);
            }
            None => {
                let _ = self.s.advance_una(ack, now);
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
            }
        }
        if self.recovery_point.is_none() {
            if self.s.flight() > 0 {
                self.s.arm_timer(now, out);
            } else {
                self.s.cancel_timer();
            }
        }
        self.s.send_fresh(self.flow, None, self.cwnd, now, out);
        self.s.trace_cwnd(now, self.cwnd);
    }

    fn handle_dupack(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        if self.s.flight() == 0 {
            return;
        }
        if self.in_fast_recovery() {
            // Window inflation: each dup ACK signals a departure.
            self.cwnd += 1.0;
            self.s.send_fresh(self.flow, None, self.cwnd, now, out);
            self.s.trace_cwnd(now, self.cwnd);
            return;
        }
        let count = self.s.register_dupack();
        if count == self.s.cfg().dupack_threshold {
            self.halve_on_loss();
            self.s.stats.fast_retransmits += 1;
            let una = self.s.una;
            self.s.retransmit(self.flow, None, una, now, out);
            if self.flavor == RenoFlavor::Tahoe {
                // No fast recovery: collapse to one segment and slow-start.
                self.cwnd = 1.0;
                self.s.dupacks = 0;
            } else {
                self.recovery_point = Some(self.s.nxt);
                self.cwnd = self.ssthresh + self.s.cfg().dupack_threshold as f64;
            }
            self.s.arm_timer(now, out);
            self.s.trace_cwnd(now, self.cwnd);
        }
    }
}

impl Transport for RenoSender {
    fn name(&self) -> &'static str {
        match self.flavor {
            RenoFlavor::Tahoe => "Tahoe",
            RenoFlavor::Reno => "Reno",
            RenoFlavor::NewReno => "NewReno",
        }
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
        let TcpSegmentKind::Ack { ack, .. } = &segment.kind else {
            return Vec::new();
        };
        let ack = *ack;
        let mut out = Vec::new();
        if ack > self.s.una {
            self.handle_new_ack(ack, now, &mut out);
        } else {
            self.handle_dupack(now, &mut out);
        }
        out
    }

    fn on_timer(&mut self, id: TcpTimer, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        if !self.s.take_timer_if_current(id) {
            return out;
        }
        if self.s.flight() == 0 {
            return out;
        }
        // Retransmission timeout: multiplicative decrease to one segment,
        // go-back-N from una, slow start again.
        self.s.stats.timeouts += 1;
        self.halve_on_loss();
        self.cwnd = 1.0;
        self.recovery_point = None;
        self.s.dupacks = 0;
        self.s.nxt = self.s.una;
        self.s.clear_rtt_candidates();
        self.s.note_timeout();
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
        } else if self.in_slow_start() {
            "slow-start"
        } else {
            "congestion-avoidance"
        }
    }

    fn encode_state(&self, w: &mut sim_core::SnapshotWriter) {
        w.put_u8(match self.flavor {
            RenoFlavor::Tahoe => 0,
            RenoFlavor::Reno => 1,
            RenoFlavor::NewReno => 2,
        });
        w.put(&self.s);
        w.put_f64(self.cwnd);
        w.put_f64(self.ssthresh);
        w.put(&self.recovery_point);
    }

    fn restore_state(
        &mut self,
        r: &mut sim_core::SnapshotReader<'_>,
    ) -> Result<(), sim_core::SnapError> {
        let flavor = match r.take_u8()? {
            0 => RenoFlavor::Tahoe,
            1 => RenoFlavor::Reno,
            2 => RenoFlavor::NewReno,
            _ => return Err(sim_core::SnapError::Invalid("reno flavor tag")),
        };
        if flavor != self.flavor {
            return Err(sim_core::SnapError::Invalid("reno flavor mismatch"));
        }
        self.s = r.get()?;
        self.cwnd = r.take_f64()?;
        self.ssthresh = r.take_f64()?;
        self.recovery_point = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tahoe_collapses_instead_of_recovering() {
        let mut tx = RenoSender::tahoe(FlowId::new(0), TcpConfig::default());
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        let _ = tx.on_ack_segment(&ack(2), t(200));
        let _ = tx.on_ack_segment(&ack(3), t(210));
        for _ in 0..2 {
            let _ = tx.on_ack_segment(&ack(3), t(300));
        }
        let out = tx.on_ack_segment(&ack(3), t(302));
        assert_eq!(sent_seqs(&out), vec![3], "fast retransmit still happens");
        assert_eq!(tx.cwnd(), 1.0, "Tahoe has no fast recovery");
        assert!(!tx.in_fast_recovery());
        assert!(tx.in_slow_start());
        assert_eq!(tx.name(), "Tahoe");
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + sim_core::SimDuration::from_millis(ms)
    }

    fn ack(n: u64) -> TcpSegment {
        TcpSegment::ack(FlowId::new(0), n)
    }

    fn sent_seqs(out: &[TcpOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TcpOutput::SendSegment(seg) => seg.seq(),
                _ => None,
            })
            .collect()
    }

    fn mk() -> RenoSender {
        RenoSender::new_reno(FlowId::new(0), TcpConfig::default())
    }

    #[test]
    fn open_sends_initial_window() {
        let mut tx = mk();
        let out = tx.open(t(0));
        assert_eq!(sent_seqs(&out), vec![0]);
        assert!(out.iter().any(|o| matches!(o, TcpOutput::SetTimer { .. })));
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        // ACK 1 → cwnd 2, sends 1 and 2.
        let out = tx.on_ack_segment(&ack(1), t(100));
        assert_eq!(tx.cwnd(), 2.0);
        assert_eq!(sent_seqs(&out), vec![1, 2]);
        // Two more ACKs → cwnd 4.
        let _ = tx.on_ack_segment(&ack(2), t(200));
        let _ = tx.on_ack_segment(&ack(3), t(210));
        assert_eq!(tx.cwnd(), 4.0);
        assert!(tx.in_slow_start());
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let cfg = TcpConfig { initial_ssthresh: 2.0, ..TcpConfig::default() };
        let mut tx = RenoSender::new_reno(FlowId::new(0), cfg);
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        assert_eq!(tx.cwnd(), 2.0);
        assert!(!tx.in_slow_start());
        let _ = tx.on_ack_segment(&ack(2), t(200));
        assert!((tx.cwnd() - 2.5).abs() < 1e-9, "cwnd = {}", tx.cwnd());
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        // Grow the window a little.
        let _ = tx.on_ack_segment(&ack(1), t(100)); // cwnd 2, sends 1,2
        let _ = tx.on_ack_segment(&ack(2), t(200)); // cwnd 3, sends 3,4
        let _ = tx.on_ack_segment(&ack(3), t(210)); // cwnd 4, sends 5,6
                                                    // Now 4 in flight (3,4,5,6 minus acks...). Send dup ACKs for 3.
        let _ = tx.on_ack_segment(&ack(3), t(300));
        let _ = tx.on_ack_segment(&ack(3), t(301));
        let out = tx.on_ack_segment(&ack(3), t(302));
        assert!(tx.in_fast_recovery());
        assert_eq!(sent_seqs(&out), vec![3], "must retransmit the hole");
        assert_eq!(tx.stats().fast_retransmits, 1);
        assert_eq!(tx.stats().retransmissions, 1);
        // ssthresh = flight/2 = 2 (4 in flight: 3,4,5,6).
        assert_eq!(tx.ssthresh(), 2.0);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        let _ = tx.on_ack_segment(&ack(2), t(200));
        let _ = tx.on_ack_segment(&ack(3), t(210));
        // flight: 3,4,5,6. Lose 3 and 5. Dup ACKs for 3:
        for _ in 0..2 {
            let _ = tx.on_ack_segment(&ack(3), t(300));
        }
        let _ = tx.on_ack_segment(&ack(3), t(302));
        assert!(tx.in_fast_recovery());
        // Retransmitted 3 arrives; receiver now acks up to 5 (4 was there).
        let out = tx.on_ack_segment(&ack(5), t(400));
        assert!(tx.in_fast_recovery(), "partial ACK keeps NewReno in recovery");
        // The hole is retransmitted first; the deflated window may also
        // clock out fresh data (RFC 3782 step 5).
        assert_eq!(sent_seqs(&out)[0], 5, "partial ACK retransmits next hole");
        // Full ACK (everything through 7 where nxt was 7).
        let _ = tx.on_ack_segment(&ack(7), t(500));
        assert!(!tx.in_fast_recovery());
        assert_eq!(tx.cwnd(), tx.ssthresh());
    }

    #[test]
    fn plain_reno_exits_recovery_on_any_new_ack() {
        let mut tx = RenoSender::reno(FlowId::new(0), TcpConfig::default());
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        let _ = tx.on_ack_segment(&ack(2), t(200));
        let _ = tx.on_ack_segment(&ack(3), t(210));
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(300));
        }
        assert!(tx.in_fast_recovery());
        let _ = tx.on_ack_segment(&ack(5), t(400));
        assert!(!tx.in_fast_recovery(), "Reno exits on the first new ACK");
    }

    #[test]
    fn dupacks_inflate_window_in_recovery() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        let _ = tx.on_ack_segment(&ack(2), t(200));
        let _ = tx.on_ack_segment(&ack(3), t(210));
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(300));
        }
        let before = tx.cwnd();
        let _ = tx.on_ack_segment(&ack(3), t(310)); // 4th dupack
        assert_eq!(tx.cwnd(), before + 1.0);
    }

    #[test]
    fn timeout_resets_to_one_and_resends() {
        let mut tx = mk();
        let out = tx.open(t(0));
        let timer = out
            .iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let out = tx.on_timer(timer, t(3000));
        assert_eq!(tx.cwnd(), 1.0);
        assert_eq!(sent_seqs(&out), vec![0], "go-back-N resend");
        assert_eq!(tx.stats().timeouts, 1);
        assert_eq!(tx.stats().retransmissions, 1);
        assert!(tx.in_slow_start());
    }

    #[test]
    fn stale_timer_ignored() {
        let mut tx = mk();
        let out = tx.open(t(0));
        let timer = out
            .iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        // A new ACK re-arms with a fresh id; the old one must be stale.
        let out2 = tx.on_ack_segment(&ack(1), t(100));
        assert!(out2.iter().any(|o| matches!(o, TcpOutput::SetTimer { .. })));
        let out3 = tx.on_timer(timer, t(3000));
        assert!(out3.is_empty());
        assert_eq!(tx.stats().timeouts, 0);
    }

    #[test]
    fn advertised_window_caps_flight() {
        let cfg =
            TcpConfig { advertised_window: 4, initial_ssthresh: 100.0, ..TcpConfig::default() };
        let mut tx = RenoSender::new_reno(FlowId::new(0), cfg);
        let _ = tx.open(t(0));
        let mut acked = 0;
        for i in 0..20 {
            acked += 1;
            let _ = tx.on_ack_segment(&ack(acked), t(100 + i * 10));
        }
        // cwnd grew well past 4, but flight never exceeds the advertised window.
        assert!(tx.cwnd() > 4.0);
        assert!(tx.s.flight() <= 4);
    }

    #[test]
    fn ack_of_everything_cancels_timer() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        let out = tx.on_ack_segment(&ack(1), t(100));
        // New data was sent, so a timer is armed.
        let timer = out
            .iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        // Ack everything in flight (2 segments were sent: 1 and 2).
        let _ = tx.on_ack_segment(&ack(3), t(200));
        // Idle sender: the pending timer firing must be harmless... but new
        // data was sent upon that ACK, so flight > 0 again. Drain fully:
        let _ = tx.on_ack_segment(&ack(tx.s.nxt), t(300));
        let _ = tx.on_ack_segment(&ack(tx.s.nxt), t(400));
        let _ = timer; // old ids are stale either way
    }

    #[test]
    fn cwnd_trace_records_evolution() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        let _ = tx.on_ack_segment(&ack(2), t(200));
        assert!(tx.cwnd_trace().len() >= 3);
        let last = tx.cwnd_trace().last().unwrap();
        assert_eq!(last.1, tx.cwnd());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sim_core::SimDuration;

    /// Feeds an arbitrary (possibly nonsensical) stream of ACK numbers and
    /// timer firings to a NewReno sender and checks structural invariants:
    /// `una` never regresses, the window never drops below one segment,
    /// flight stays within the advertised window, and counters are sane.
    fn check_invariants(flavor: RenoFlavor, acks: Vec<u8>) {
        let cfg = TcpConfig { advertised_window: 8, ..TcpConfig::default() };
        let mut tx = RenoSender::build(FlowId::new(0), cfg, flavor);
        let mut now = SimTime::ZERO;
        let mut timers: Vec<TcpTimer> = Vec::new();
        let collect = |out: Vec<TcpOutput>, timers: &mut Vec<TcpTimer>| {
            for o in out {
                if let TcpOutput::SetTimer { id, .. } = o {
                    timers.push(id);
                }
            }
        };
        collect(tx.open(now), &mut timers);
        let mut last_una = 0;
        for (i, &a) in acks.iter().enumerate() {
            now += SimDuration::from_millis(10);
            if a == 255 {
                // Fire the oldest pending timer id (possibly stale).
                if let Some(id) = timers.first().copied() {
                    timers.remove(0);
                    collect(tx.on_timer(id, now), &mut timers);
                }
            } else {
                let ack = TcpSegment::ack(FlowId::new(0), u64::from(a) % (tx.s.nxt + 2));
                collect(tx.on_ack_segment(&ack, now), &mut timers);
            }
            assert!(tx.s.una >= last_una, "una regressed at step {i}");
            last_una = tx.s.una;
            assert!(tx.cwnd() >= 1.0, "cwnd {} below one segment", tx.cwnd());
            assert!(tx.s.flight() <= 8, "flight {} exceeds advertised window", tx.s.flight());
            assert!(tx.s.una <= tx.s.nxt, "una beyond nxt");
            let st = tx.stats();
            assert!(st.retransmissions <= st.segments_sent);
        }
    }

    proptest! {
        #[test]
        fn newreno_invariants_hold(acks in proptest::collection::vec(any::<u8>(), 1..200)) {
            check_invariants(RenoFlavor::NewReno, acks);
        }

        #[test]
        fn reno_invariants_hold(acks in proptest::collection::vec(any::<u8>(), 1..200)) {
            check_invariants(RenoFlavor::Reno, acks);
        }

        #[test]
        fn tahoe_invariants_hold(acks in proptest::collection::vec(any::<u8>(), 1..200)) {
            check_invariants(RenoFlavor::Tahoe, acks);
        }
    }
}
