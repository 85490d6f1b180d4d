//! TCP Veno sender (Fu & Liew 2003) — the paper's cited *end-to-end* rival
//! to router-assisted loss discrimination.

use sim_core::{SimDuration, SimTime};
use wire::{FlowId, TcpSegment, TcpSegmentKind};

use crate::{SendState, TcpConfig, TcpOutput, TcpTimer, Transport};

/// A TCP Veno sender.
///
/// Veno grafts Vegas's backlog estimate onto Reno: `N = (cwnd/baseRTT −
/// cwnd/RTT) × baseRTT` estimates how many of this flow's segments are
/// queued in the network.
///
/// * In congestion avoidance, growth slows to one segment every *two* RTTs
///   once `N ≥ β` (the path is saturated — don't push).
/// * On a fast-retransmit loss, `N < β` means the network was *not*
///   backlogged, so the loss is deemed **random** and the window is only
///   cut to 4/5 instead of 1/2.
///
/// This is exactly the problem TCP Muzha solves with router marks, attacked
/// end-to-end — which is why the paper cites it (\[22\]) among the
/// alternatives. Comparing the two under random loss is done in
/// `examples/wireless_shootout.rs`.
#[derive(Debug)]
pub struct VenoSender {
    flow: FlowId,
    s: SendState,
    cwnd: f64,
    ssthresh: f64,
    beta: f64,
    base_rtt: Option<SimDuration>,
    last_rtt: Option<SimDuration>,
    /// While in fast recovery: exit once `una` reaches this point.
    recovery_point: Option<u64>,
    /// Counts ACKs in CA for the every-other-RTT growth when backlogged.
    ca_acks: u64,
}

impl VenoSender {
    /// Creates a Veno sender with the standard backlog threshold β = 3.
    pub fn new(flow: FlowId, cfg: TcpConfig) -> Self {
        let s = SendState::new(cfg);
        VenoSender {
            flow,
            cwnd: cfg.initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            s,
            beta: 3.0,
            base_rtt: None,
            last_rtt: None,
            recovery_point: None,
            ca_acks: 0,
        }
    }

    /// The current backlog estimate `N`, if measurable.
    pub fn backlog(&self) -> Option<f64> {
        let base = self.base_rtt?.as_secs_f64();
        let last = self.last_rtt?.as_secs_f64();
        if base <= 0.0 || last <= 0.0 {
            return None;
        }
        Some((self.cwnd / base - self.cwnd / last) * base)
    }

    /// Whether the sender is in fast recovery.
    pub fn in_fast_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    /// Whether the sender currently believes the path is backlogged.
    fn saturated(&self) -> bool {
        self.backlog().is_some_and(|n| n >= self.beta)
    }

    fn observe_rtt(&mut self, rtt: SimDuration) {
        self.last_rtt = Some(rtt);
        self.base_rtt = Some(match self.base_rtt {
            Some(b) => b.min(rtt),
            None => rtt,
        });
    }
}

impl Transport for VenoSender {
    fn name(&self) -> &'static str {
        "Veno"
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
            if let Some(rtt) = self.s.advance_una(ack, now) {
                self.observe_rtt(rtt);
            }
            match self.recovery_point {
                Some(point) if ack >= point => {
                    self.recovery_point = None;
                    self.cwnd = self.ssthresh;
                }
                Some(_) => {
                    // NewReno-style partial-ACK repair.
                    self.s.retransmit(self.flow, None, ack, now, &mut out);
                    self.s.arm_timer(now, &mut out);
                }
                None => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += 1.0; // slow start
                    } else if self.saturated() {
                        // Backlogged: grow every other ACK (≈ 1 segment
                        // per two RTTs aggregate).
                        self.ca_acks += 1;
                        if self.ca_acks.is_multiple_of(2) {
                            self.cwnd += 1.0 / self.cwnd;
                        }
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
                    // Veno's discrimination: low backlog → random loss →
                    // gentle 4/5 cut; high backlog → congestion → halve.
                    let factor = if self.saturated() { 0.5 } else { 0.8 };
                    self.ssthresh = (self.cwnd * factor).max(2.0);
                    self.s.stats.fast_retransmits += 1;
                    self.recovery_point = Some(self.s.nxt);
                    self.cwnd = self.ssthresh + self.s.cfg().dupack_threshold as f64;
                    let una = self.s.una;
                    self.s.retransmit(self.flow, None, una, now, &mut out);
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
        self.ssthresh = (self.s.flight() as f64 / 2.0).max(2.0);
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
        w.put_f64(self.beta);
        w.put(&self.base_rtt);
        w.put(&self.last_rtt);
        w.put(&self.recovery_point);
        w.put_u64(self.ca_acks);
    }

    fn restore_state(
        &mut self,
        r: &mut sim_core::SnapshotReader<'_>,
    ) -> Result<(), sim_core::SnapError> {
        self.s = r.get()?;
        self.cwnd = r.take_f64()?;
        self.ssthresh = r.take_f64()?;
        self.beta = r.take_f64()?;
        self.base_rtt = r.get()?;
        self.last_rtt = r.get()?;
        self.recovery_point = r.get()?;
        self.ca_acks = r.take_u64()?;
        Ok(())
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

    fn mk() -> VenoSender {
        VenoSender::new(FlowId::new(0), TcpConfig::default())
    }

    /// Grows the sender so several segments are in flight with a stable
    /// RTT of `rtt_ms`.
    fn grow(tx: &mut VenoSender, rtt_ms: u64) {
        let _ = tx.open(t(0));
        let mut now = rtt_ms;
        for n in 1..=3 {
            let _ = tx.on_ack_segment(&ack(n), t(now));
            now += 10;
        }
    }

    #[test]
    fn random_loss_cut_is_gentle() {
        let mut tx = mk();
        grow(&mut tx, 100);
        // baseRTT == lastRTT → backlog 0 → any loss is "random".
        let before = tx.cwnd();
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(400));
        }
        assert!(tx.in_fast_recovery());
        // ssthresh = 4/5 of cwnd, not half.
        assert!((tx.ssthresh() - before * 0.8).abs() < 1e-9, "ssthresh {}", tx.ssthresh());
    }

    #[test]
    fn congestion_loss_cut_is_half() {
        let mut tx = mk();
        grow(&mut tx, 100);
        // Inflate the last RTT so the backlog exceeds beta.
        tx.base_rtt = Some(SimDuration::from_millis(50));
        tx.last_rtt = Some(SimDuration::from_millis(500));
        let before = tx.cwnd();
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(3), t(400));
        }
        assert!(tx.in_fast_recovery());
        assert!((tx.ssthresh() - before * 0.5).abs() < 1e-9, "ssthresh {}", tx.ssthresh());
    }

    #[test]
    fn growth_slows_when_backlogged() {
        let mut tx = mk();
        let cfg = TcpConfig { initial_ssthresh: 1.0, ..TcpConfig::default() };
        let mut slow = VenoSender::new(FlowId::new(0), cfg);
        // Saturated path for `slow`, clean for `tx` — compare CA growth.
        let _ = tx.open(t(0));
        let _ = slow.open(t(0));
        tx.ssthresh = 1.0;
        tx.cwnd = 6.0;
        slow.cwnd = 6.0;
        tx.base_rtt = Some(SimDuration::from_millis(100));
        tx.last_rtt = Some(SimDuration::from_millis(100)); // N = 0
        slow.base_rtt = Some(SimDuration::from_millis(50));
        slow.last_rtt = Some(SimDuration::from_millis(500)); // N = 0.9·cwnd >> beta
        let (w0_fast, w0_slow) = (tx.cwnd(), slow.cwnd());
        for n in 1..=8 {
            let _ = tx.on_ack_segment(&ack(n), t(100 + n * 10));
            let _ = slow.on_ack_segment(&ack(n), t(100 + n * 10));
            // Keep the artificial RTT views pinned.
            tx.last_rtt = Some(SimDuration::from_millis(100));
            slow.last_rtt = Some(SimDuration::from_millis(500));
        }
        assert!(
            tx.cwnd() - w0_fast > slow.cwnd() - w0_slow,
            "unsaturated CA must grow faster: {} vs {}",
            tx.cwnd() - w0_fast,
            slow.cwnd() - w0_slow
        );
    }

    #[test]
    fn backlog_estimate_matches_vegas_formula() {
        let mut tx = mk();
        tx.cwnd = 10.0;
        tx.base_rtt = Some(SimDuration::from_millis(100));
        tx.last_rtt = Some(SimDuration::from_millis(200));
        // N = (10/0.1 - 10/0.2) * 0.1 = 5.
        assert!((tx.backlog().unwrap() - 5.0).abs() < 1e-9);
        assert!(tx.saturated());
    }

    impl VenoSender {
        fn ssthresh(&self) -> f64 {
            self.ssthresh
        }
    }
}
