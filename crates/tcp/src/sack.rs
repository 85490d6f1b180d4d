//! TCP SACK sender (ns-2 `sack1`-style scoreboard recovery).

use std::collections::BTreeSet;

use sim_core::SimTime;
use wire::{FlowId, SackBlock, TcpSegment, TcpSegmentKind};

use crate::{SendState, TcpConfig, TcpOutput, TcpTimer, Transport};

/// A TCP sender using selective acknowledgements.
///
/// Outside recovery it behaves exactly like Reno (slow start + AIMD). On
/// three duplicate ACKs it enters scoreboard-driven recovery: each arriving
/// ACK clocks out one transmission, preferring the lowest un-SACKed hole and
/// falling back to fresh data, so multiple losses in one window are repaired
/// in one round trip (the problem NewReno needs one RTT per loss for).
///
/// Must be paired with a SACK-enabled [`crate::TcpReceiver`].
#[derive(Debug)]
pub struct SackSender {
    flow: FlowId,
    s: SendState,
    cwnd: f64,
    ssthresh: f64,
    /// Segments above `una` reported received by the receiver.
    scoreboard: BTreeSet<u64>,
    /// While in recovery: exit once `una` reaches this point.
    recovery_point: Option<u64>,
    /// Holes already retransmitted during the current recovery episode.
    retransmitted: BTreeSet<u64>,
}

impl SackSender {
    /// Creates a SACK sender.
    pub fn new(flow: FlowId, cfg: TcpConfig) -> Self {
        let s = SendState::new(cfg);
        SackSender {
            flow,
            cwnd: cfg.initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            s,
            scoreboard: BTreeSet::new(),
            recovery_point: None,
            retransmitted: BTreeSet::new(),
        }
    }

    /// Whether the sender is in scoreboard recovery.
    pub fn in_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    /// Current slow-start threshold (diagnostics).
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn absorb_sack(&mut self, blocks: &[SackBlock]) {
        for b in blocks {
            for seq in b.start..b.end {
                if seq >= self.s.una {
                    self.scoreboard.insert(seq);
                }
            }
        }
    }

    fn prune_scoreboard(&mut self) {
        let una = self.s.una;
        self.scoreboard.retain(|&s| s >= una);
        self.retransmitted.retain(|&s| s >= una);
    }

    /// The lowest hole: a segment in `[una, high_water)` that is neither
    /// SACKed nor already retransmitted this recovery.
    fn next_hole(&self) -> Option<u64> {
        let mut seq = self.s.una;
        while seq < self.s.high_water() {
            if !self.scoreboard.contains(&seq) && !self.retransmitted.contains(&seq) {
                return Some(seq);
            }
            seq += 1;
        }
        None
    }

    /// One ACK-clocked transmission during recovery: hole first, else fresh.
    fn recovery_transmit(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        if let Some(hole) = self.next_hole() {
            self.retransmitted.insert(hole);
            self.s.retransmit(self.flow, None, hole, now, out);
        } else {
            let seq = self.s.nxt;
            self.s.nxt += 1;
            self.s.register_send(seq, now);
            out.push(TcpOutput::SendSegment(self.s.make_segment(self.flow, seq, None)));
        }
        self.s.ensure_timer(now, out);
    }
}

impl Transport for SackSender {
    fn name(&self) -> &'static str {
        "SACK"
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
        let TcpSegmentKind::Ack { ack, sack, .. } = &segment.kind else {
            return Vec::new();
        };
        let ack = *ack;
        let mut out = Vec::new();
        self.absorb_sack(sack);
        if ack > self.s.una {
            let _ = self.s.advance_una(ack, now);
            self.prune_scoreboard();
            match self.recovery_point {
                Some(point) if ack >= point => {
                    self.recovery_point = None;
                    self.retransmitted.clear();
                    self.cwnd = self.ssthresh;
                    self.s.arm_timer(now, out.as_mut());
                    self.s.send_fresh(self.flow, None, self.cwnd, now, &mut out);
                }
                Some(_) => {
                    // Partial ACK: keep repairing, one transmission per ACK.
                    self.s.arm_timer(now, out.as_mut());
                    self.recovery_transmit(now, &mut out);
                }
                None => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += 1.0;
                    } else {
                        self.cwnd += 1.0 / self.cwnd;
                    }
                    if self.s.flight() > 0 {
                        self.s.arm_timer(now, &mut out);
                    } else {
                        self.s.cancel_timer();
                    }
                    self.s.send_fresh(self.flow, None, self.cwnd, now, &mut out);
                }
            }
        } else if self.s.flight() > 0 {
            if self.in_recovery() {
                self.recovery_transmit(now, &mut out);
            } else {
                let count = self.s.register_dupack();
                if count == self.s.cfg().dupack_threshold {
                    self.ssthresh = (self.s.flight() as f64 / 2.0).max(2.0);
                    self.cwnd = self.ssthresh;
                    self.recovery_point = Some(self.s.nxt);
                    self.retransmitted.clear();
                    self.s.stats.fast_retransmits += 1;
                    self.recovery_transmit(now, &mut out);
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
        self.scoreboard.clear();
        self.retransmitted.clear();
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
        if self.in_recovery() {
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
        w.put(&self.scoreboard);
        w.put(&self.recovery_point);
        w.put(&self.retransmitted);
    }

    fn restore_state(
        &mut self,
        r: &mut sim_core::SnapshotReader<'_>,
    ) -> Result<(), sim_core::SnapError> {
        self.s = r.get()?;
        self.cwnd = r.take_f64()?;
        self.ssthresh = r.take_f64()?;
        self.scoreboard = r.get()?;
        self.recovery_point = r.get()?;
        self.retransmitted = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + sim_core::SimDuration::from_millis(ms)
    }

    fn plain_ack(n: u64) -> TcpSegment {
        TcpSegment::ack(FlowId::new(0), n)
    }

    fn sack_ack(n: u64, blocks: &[(u64, u64)]) -> TcpSegment {
        TcpSegment {
            flow: FlowId::new(0),
            kind: TcpSegmentKind::Ack {
                ack: n,
                mrai: None,
                marked: false,
                ooo: false,
                sack: blocks.iter().map(|&(s, e)| SackBlock::new(s, e)).collect(),
            },
        }
    }

    fn sent_seqs(out: &[TcpOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TcpOutput::SendSegment(seg) => seg.seq(),
                _ => None,
            })
            .collect()
    }

    fn mk() -> SackSender {
        SackSender::new(FlowId::new(0), TcpConfig::default())
    }

    /// Grows the window so segments 3..=6 are in flight, then loses 3 and 5.
    fn grow(tx: &mut SackSender) {
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&plain_ack(1), t(100)); // sends 1,2
        let _ = tx.on_ack_segment(&plain_ack(2), t(200)); // sends 3,4
        let _ = tx.on_ack_segment(&plain_ack(3), t(210)); // sends 5,6
    }

    #[test]
    fn behaves_like_reno_without_losses() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        let _ = tx.on_ack_segment(&plain_ack(1), t(100));
        assert_eq!(tx.cwnd(), 2.0);
        let _ = tx.on_ack_segment(&plain_ack(2), t(200));
        assert_eq!(tx.cwnd(), 3.0);
    }

    #[test]
    fn recovery_retransmits_only_holes() {
        let mut tx = mk();
        grow(&mut tx);
        // In flight: 3,4,5,6. Lost: 3 and 5. Receiver SACKs 4, then 6.
        let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(300));
        let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(301));
        let out = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(302));
        assert!(tx.in_recovery());
        // First recovery transmission: lowest hole = 3.
        assert_eq!(sent_seqs(&out), vec![3]);
        // Another dup ACK clocks out the next hole = 5 (4 and 6 are SACKed).
        let out = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(303));
        assert_eq!(sent_seqs(&out), vec![5]);
        // Both holes repaired in the same window: 2 retransmissions total.
        assert_eq!(tx.stats().retransmissions, 2);
        // Full ACK exits recovery.
        let _ = tx.on_ack_segment(&plain_ack(7), t(400));
        assert!(!tx.in_recovery());
        assert_eq!(tx.cwnd(), tx.ssthresh());
    }

    #[test]
    fn no_duplicate_hole_retransmissions() {
        let mut tx = mk();
        grow(&mut tx);
        for i in 0..3 {
            let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(300 + i));
        }
        assert!(tx.in_recovery());
        // Holes: 3 (retransmitted on entry), 5, 6. Further dupacks walk the
        // holes without repeating any.
        let out = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(310));
        assert_eq!(sent_seqs(&out), vec![5]);
        let out = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(311));
        assert_eq!(sent_seqs(&out), vec![6]);
        // All holes tried: next dupack clocks out fresh data.
        let out = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(312));
        assert_eq!(sent_seqs(&out), vec![7]);
    }

    #[test]
    fn timeout_clears_scoreboard() {
        let mut tx = mk();
        grow(&mut tx);
        let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(300));
        let mut out = Vec::new();
        tx.s.arm_timer(t(300), &mut out);
        let id = match out[0] {
            TcpOutput::SetTimer { id, .. } => id,
            _ => unreachable!(),
        };
        let out = tx.on_timer(id, t(4000));
        assert_eq!(tx.cwnd(), 1.0);
        assert_eq!(sent_seqs(&out), vec![3], "go-back-N from una");
        assert!(!tx.in_recovery());
        assert_eq!(tx.stats().timeouts, 1);
    }

    #[test]
    fn partial_ack_keeps_repairing() {
        let mut tx = mk();
        grow(&mut tx);
        // Lost 3 and 5; SACK info for 4 and 6.
        for i in 0..3 {
            let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(300 + i));
        }
        // Retransmitted 3 arrives → ACK advances to 5 (4 was SACKed/held).
        let out = tx.on_ack_segment(&sack_ack(5, &[(6, 7)]), t(400));
        assert!(tx.in_recovery());
        assert_eq!(sent_seqs(&out), vec![5], "partial ACK retransmits hole 5");
    }
}
