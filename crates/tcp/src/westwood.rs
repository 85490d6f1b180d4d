//! TCP Westwood+ sender (Gerla et al. 2001) — end-to-end bandwidth
//! estimation, cited by the paper (\[24\]) among the wireless TCP
//! enhancements.

use sim_core::{SimDuration, SimTime};
use wire::{FlowId, TcpSegment, TcpSegmentKind};

use crate::{SendState, TcpConfig, TcpOutput, TcpTimer, Transport};

/// A TCP Westwood+ sender.
///
/// Westwood keeps Reno's probing but replaces the blind multiplicative
/// decrease with a measured one: the sender continuously estimates the
/// *eligible rate* from the ACK stream (segments acknowledged per RTT,
/// low-pass filtered) and, on loss, sets
///
/// ```text
/// ssthresh = BWE × RTTmin   (in segments)
/// ```
///
/// so a random wireless loss — which does not change the measured rate —
/// barely shrinks the operating point, while a congestion loss (rate
/// actually dropped) does.
#[derive(Debug)]
pub struct WestwoodSender {
    flow: FlowId,
    s: SendState,
    cwnd: f64,
    ssthresh: f64,
    /// Smoothed bandwidth estimate in segments per second.
    bwe: f64,
    /// Minimum RTT observed (the propagation estimate).
    rtt_min: Option<SimDuration>,
    /// Segments acknowledged during the current measurement round.
    round_acked: u64,
    /// When the current measurement round began.
    round_start: SimTime,
    /// The ACK number that closes the current round.
    round_end: u64,
    /// While in fast recovery: exit once `una` reaches this point.
    recovery_point: Option<u64>,
}

/// Low-pass filter coefficient for bandwidth samples (Westwood+ uses a
/// heavier smoothing than plain EWMA; 0.9 on the old value is customary).
const BW_FILTER_OLD: f64 = 0.9;

impl WestwoodSender {
    /// Creates a Westwood+ sender.
    pub fn new(flow: FlowId, cfg: TcpConfig) -> Self {
        let s = SendState::new(cfg);
        WestwoodSender {
            flow,
            cwnd: cfg.initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            s,
            bwe: 0.0,
            rtt_min: None,
            round_acked: 0,
            round_start: SimTime::ZERO,
            round_end: 0,
            recovery_point: None,
        }
    }

    /// The current bandwidth estimate in segments per second.
    pub fn bandwidth_estimate(&self) -> f64 {
        self.bwe
    }

    /// The minimum RTT observed so far.
    pub fn rtt_min(&self) -> Option<SimDuration> {
        self.rtt_min
    }

    /// Whether the sender is in fast recovery.
    pub fn in_fast_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    /// `BWE × RTTmin` in segments — the measured operating point.
    fn eligible_window(&self) -> f64 {
        match self.rtt_min {
            Some(rtt) => (self.bwe * rtt.as_secs_f64()).max(2.0),
            None => 2.0,
        }
    }

    fn close_round_if_due(&mut self, ack: u64, now: SimTime) {
        if ack < self.round_end {
            return;
        }
        let span = now.saturating_since(self.round_start);
        if span > SimDuration::ZERO && self.round_acked > 0 {
            let sample = self.round_acked as f64 / span.as_secs_f64();
            self.bwe = if self.bwe == 0.0 {
                sample
            } else {
                BW_FILTER_OLD * self.bwe + (1.0 - BW_FILTER_OLD) * sample
            };
        }
        self.round_acked = 0;
        self.round_start = now;
        self.round_end = self.s.nxt.max(ack + 1);
    }
}

impl Transport for WestwoodSender {
    fn name(&self) -> &'static str {
        "Westwood"
    }

    fn flow(&self) -> FlowId {
        self.flow
    }

    fn open(&mut self, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.round_start = now;
        self.round_end = self.s.usable_window(self.cwnd);
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
            let newly = ack - self.s.una;
            self.round_acked += newly;
            if let Some(rtt) = self.s.advance_una(ack, now) {
                self.rtt_min = Some(match self.rtt_min {
                    Some(m) => m.min(rtt),
                    None => rtt,
                });
            }
            self.close_round_if_due(ack, now);
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
                    // The Westwood decrease: adopt the *measured* rate.
                    self.ssthresh = self.eligible_window();
                    self.s.stats.fast_retransmits += 1;
                    self.recovery_point = Some(self.s.nxt);
                    self.cwnd = self.cwnd.min(self.ssthresh) + 3.0;
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
        self.ssthresh = self.eligible_window();
        self.cwnd = 1.0;
        self.recovery_point = None;
        self.s.dupacks = 0;
        self.s.nxt = self.s.una;
        self.round_end = self.s.una + 1;
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
        w.put_f64(self.bwe);
        w.put(&self.rtt_min);
        w.put_u64(self.round_acked);
        w.put(&self.round_start);
        w.put_u64(self.round_end);
        w.put(&self.recovery_point);
    }

    fn restore_state(
        &mut self,
        r: &mut sim_core::SnapshotReader<'_>,
    ) -> Result<(), sim_core::SnapError> {
        self.s = r.get()?;
        self.cwnd = r.take_f64()?;
        self.ssthresh = r.take_f64()?;
        self.bwe = r.take_f64()?;
        self.rtt_min = r.get()?;
        self.round_acked = r.take_u64()?;
        self.round_start = r.get()?;
        self.round_end = r.take_u64()?;
        self.recovery_point = r.get()?;
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

    fn mk() -> WestwoodSender {
        WestwoodSender::new(FlowId::new(0), TcpConfig::default())
    }

    #[test]
    fn bandwidth_estimate_tracks_ack_rate() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        // Ack one segment every 100 ms → ~10 segments/s.
        let mut now = 100;
        for n in 1..=20 {
            let _ = tx.on_ack_segment(&ack(n), t(now));
            now += 100;
        }
        let bwe = tx.bandwidth_estimate();
        assert!(bwe > 5.0 && bwe < 20.0, "BWE {bwe} should be near 10/s");
        assert!(tx.rtt_min().is_some());
    }

    #[test]
    fn loss_sets_ssthresh_to_measured_rate() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        let mut now = 100;
        for n in 1..=10 {
            let _ = tx.on_ack_segment(&ack(n), t(now));
            now += 100;
        }
        let expected = tx.bandwidth_estimate() * tx.rtt_min().unwrap().as_secs_f64();
        for _ in 0..3 {
            let _ = tx.on_ack_segment(&ack(10), t(now));
        }
        assert!(tx.in_fast_recovery());
        assert!(
            (tx.ssthresh - expected.max(2.0)).abs() < 1e-9,
            "ssthresh {} vs eligible {expected}",
            tx.ssthresh
        );
    }

    #[test]
    fn timeout_keeps_measured_ssthresh() {
        let mut tx = mk();
        let out = tx.open(t(0));
        let id = out
            .iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let out = tx.on_timer(id, t(3000));
        assert_eq!(tx.cwnd(), 1.0);
        assert!(tx.ssthresh >= 2.0);
        assert!(!out.is_empty());
        assert_eq!(tx.stats().timeouts, 1);
    }

    #[test]
    fn behaves_like_reno_growth_between_losses() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&ack(1), t(100));
        assert_eq!(tx.cwnd(), 2.0, "slow start doubles");
        let _ = tx.on_ack_segment(&ack(2), t(200));
        assert_eq!(tx.cwnd(), 3.0);
    }

    #[test]
    fn no_bwe_before_first_round() {
        let tx = mk();
        assert_eq!(tx.bandwidth_estimate(), 0.0);
        assert_eq!(tx.eligible_window(), 2.0, "floor of two segments");
    }
}
