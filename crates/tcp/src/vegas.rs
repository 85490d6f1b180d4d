//! TCP Vegas sender: delay-based congestion avoidance.

use sim_core::{SimDuration, SimTime};
use wire::{FlowId, TcpSegment, TcpSegmentKind};

use crate::{SendState, TcpConfig, TcpOutput, TcpTimer, Transport, VegasConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Exponential growth every *other* RTT, until `diff > gamma`.
    SlowStart,
    /// α/β window regulation, once per RTT.
    CongestionAvoidance,
}

/// A TCP Vegas sender.
///
/// Vegas estimates the number of segments queued in the network from the
/// difference between expected (`cwnd / baseRTT`) and actual
/// (`cwnd / lastRTT`) rates, once per RTT:
///
/// * `diff < α` → grow the window by one segment,
/// * `diff > β` → shrink it by one segment,
/// * otherwise hold.
///
/// Slow start doubles the window only every other RTT and is left as soon
/// as `diff > γ`, shrinking the window by 1/8 (thesis §2.1.3). Loss recovery
/// reduces the window by a quarter on fast retransmit (gentler than Reno's
/// half) and resets to two segments on timeout.
///
/// The paper's expected behaviour: highest throughput on short chains, a
/// small and extremely steady window (≈3 segments), and almost no
/// retransmissions — but poor utilisation on long paths.
#[derive(Debug)]
pub struct VegasSender {
    flow: FlowId,
    s: SendState,
    vcfg: VegasConfig,
    cwnd: f64,
    mode: Mode,
    base_rtt: Option<SimDuration>,
    last_rtt: Option<SimDuration>,
    /// The sequence that closes the current RTT round.
    round_end: u64,
    /// Counts completed rounds (slow start doubles on even rounds).
    rounds: u64,
}

impl VegasSender {
    /// Creates a Vegas sender.
    pub fn new(flow: FlowId, cfg: TcpConfig, vcfg: VegasConfig) -> Self {
        vcfg.validate();
        let s = SendState::new(cfg);
        VegasSender {
            flow,
            cwnd: cfg.initial_cwnd.max(2.0),
            s,
            vcfg,
            mode: Mode::SlowStart,
            base_rtt: None,
            last_rtt: None,
            round_end: 0,
            rounds: 0,
        }
    }

    /// Lowest RTT observed so far (the propagation estimate).
    pub fn base_rtt(&self) -> Option<SimDuration> {
        self.base_rtt
    }

    /// Estimated segments queued in the network (`diff`), if measurable.
    pub fn diff(&self) -> Option<f64> {
        let base = self.base_rtt?.as_secs_f64();
        let last = self.last_rtt?.as_secs_f64();
        if base <= 0.0 || last <= 0.0 {
            return None;
        }
        let expected = self.cwnd / base;
        let actual = self.cwnd / last;
        Some((expected - actual) * base)
    }

    /// Whether the sender is still in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.mode == Mode::SlowStart
    }

    fn observe_rtt(&mut self, rtt: SimDuration) {
        self.last_rtt = Some(rtt);
        self.base_rtt = Some(match self.base_rtt {
            Some(b) => b.min(rtt),
            None => rtt,
        });
    }

    /// Once-per-RTT window regulation.
    fn end_of_round(&mut self) {
        self.rounds += 1;
        let Some(diff) = self.diff() else {
            // No measurement yet: conservative +1 growth.
            if self.mode == Mode::SlowStart {
                self.cwnd += 1.0;
            }
            return;
        };
        match self.mode {
            Mode::SlowStart => {
                if diff > self.vcfg.gamma {
                    // Leaving slow start: back off by 1/8 (thesis §2.1.3).
                    self.cwnd = (self.cwnd - self.cwnd / 8.0).max(2.0);
                    self.mode = Mode::CongestionAvoidance;
                } else if self.rounds.is_multiple_of(2) {
                    self.cwnd *= 2.0; // exponential growth every other RTT
                }
            }
            Mode::CongestionAvoidance => {
                if diff < self.vcfg.alpha {
                    self.cwnd += 1.0;
                } else if diff > self.vcfg.beta {
                    self.cwnd = (self.cwnd - 1.0).max(2.0);
                }
                // else: hold steady inside the [α, β] band.
            }
        }
    }
}

impl Transport for VegasSender {
    fn name(&self) -> &'static str {
        "Vegas"
    }

    fn flow(&self) -> FlowId {
        self.flow
    }

    fn open(&mut self, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.s.trace_cwnd(now, self.cwnd);
        self.round_end = self.s.usable_window(self.cwnd);
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
            if ack >= self.round_end {
                self.end_of_round();
                self.round_end = self.s.nxt.max(ack + 1);
            }
            if self.s.flight() > 0 {
                self.s.arm_timer(now, &mut out);
            } else {
                self.s.cancel_timer();
            }
            self.s.send_fresh(self.flow, None, self.cwnd, now, &mut out);
        } else if self.s.flight() > 0 {
            let count = self.s.register_dupack();
            if count == self.s.cfg().dupack_threshold {
                // Vegas reduces by a quarter on fast retransmit.
                self.cwnd = (self.cwnd * 0.75).max(2.0);
                self.mode = Mode::CongestionAvoidance;
                self.s.stats.fast_retransmits += 1;
                let una = self.s.una;
                self.s.retransmit(self.flow, None, una, now, &mut out);
                self.s.arm_timer(now, &mut out);
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
        self.cwnd = 2.0;
        self.mode = Mode::SlowStart;
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

    fn phase(&self) -> &'static str {
        if self.in_slow_start() {
            "slow-start"
        } else {
            "congestion-avoidance"
        }
    }

    fn encode_state(&self, w: &mut sim_core::SnapshotWriter) {
        w.put(&self.s);
        w.put(&self.vcfg);
        w.put_f64(self.cwnd);
        w.put_u8(match self.mode {
            Mode::SlowStart => 0,
            Mode::CongestionAvoidance => 1,
        });
        w.put(&self.base_rtt);
        w.put(&self.last_rtt);
        w.put_u64(self.round_end);
        w.put_u64(self.rounds);
    }

    fn restore_state(
        &mut self,
        r: &mut sim_core::SnapshotReader<'_>,
    ) -> Result<(), sim_core::SnapError> {
        self.s = r.get()?;
        self.vcfg = r.get()?;
        self.cwnd = r.take_f64()?;
        self.mode = match r.take_u8()? {
            0 => Mode::SlowStart,
            1 => Mode::CongestionAvoidance,
            _ => return Err(sim_core::SnapError::Invalid("vegas mode tag")),
        };
        self.base_rtt = r.get()?;
        self.last_rtt = r.get()?;
        self.round_end = r.take_u64()?;
        self.rounds = r.take_u64()?;
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

    fn mk() -> VegasSender {
        VegasSender::new(FlowId::new(0), TcpConfig::default(), VegasConfig::default())
    }

    fn sent_count(out: &[TcpOutput]) -> usize {
        out.iter().filter(|o| matches!(o, TcpOutput::SendSegment(_))).count()
    }

    /// Runs one full in-order RTT round: acks everything in flight with a
    /// fixed per-round RTT.
    fn run_round(tx: &mut VegasSender, now_ms: u64) {
        let nxt = tx.s.nxt;
        let una = tx.s.una;
        for seq in una..nxt {
            let _ = tx.on_ack_segment(&ack(seq + 1), t(now_ms));
        }
    }

    #[test]
    fn starts_with_two_segments() {
        let mut tx = mk();
        let out = tx.open(t(0));
        assert_eq!(tx.cwnd(), 2.0);
        assert_eq!(sent_count(&out), 2);
        assert!(tx.in_slow_start());
    }

    #[test]
    fn base_rtt_tracks_minimum() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        run_round(&mut tx, 100); // RTT 100 ms
        run_round(&mut tx, 150); // RTT 50 ms
        assert_eq!(tx.base_rtt(), Some(SimDuration::from_millis(50)));
    }

    #[test]
    fn slow_start_grows_every_other_round_only() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        // Constant RTT → diff 0 → stays in slow start.
        let w0 = tx.cwnd();
        run_round(&mut tx, 100); // round 1 (odd): hold
        let w1 = tx.cwnd();
        run_round(&mut tx, 200); // round 2 (even): double
        let w2 = tx.cwnd();
        assert_eq!(w1, w0, "odd rounds hold");
        assert_eq!(w2, w1 * 2.0, "even rounds double");
    }

    #[test]
    fn leaves_slow_start_when_diff_exceeds_gamma() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        // Round 1: establish baseRTT = 100 ms.
        run_round(&mut tx, 100);
        // Round 2: doubles (constant RTT so far).
        run_round(&mut tx, 200);
        assert!(tx.in_slow_start());
        let before = tx.cwnd();
        // Round 3: RTT inflates to 300 ms (queueing!) → diff >> gamma.
        // Ack segments one RTT later so the sample is 300 ms.
        let nxt = tx.s.nxt;
        for seq in tx.s.una..nxt {
            let _ = tx.on_ack_segment(&ack(seq + 1), t(500));
        }
        assert!(!tx.in_slow_start(), "must exit slow start");
        assert!((tx.cwnd() - before * 7.0 / 8.0).abs() < 1e-9, "1/8 decrease");
    }

    #[test]
    fn ca_band_holds_window() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        run_round(&mut tx, 100);
        // Force CA mode by inflating then settling.
        tx.mode = Mode::CongestionAvoidance;
        tx.base_rtt = Some(SimDuration::from_millis(100));
        tx.cwnd = 4.0;
        // RTT such that diff lands between alpha (1) and beta (3):
        // diff = cwnd * (1 - base/last) = 4 * (1 - 100/200) = 2.
        tx.last_rtt = Some(SimDuration::from_millis(200));
        let before = tx.cwnd();
        tx.end_of_round();
        assert_eq!(tx.cwnd(), before, "inside [alpha, beta]: hold");
    }

    #[test]
    fn ca_grows_below_alpha_and_shrinks_above_beta() {
        let mut tx = mk();
        tx.mode = Mode::CongestionAvoidance;
        tx.base_rtt = Some(SimDuration::from_millis(100));
        tx.cwnd = 8.0;
        // diff = 8 * (1 - 100/105) ≈ 0.38 < alpha → grow.
        tx.last_rtt = Some(SimDuration::from_millis(105));
        tx.end_of_round();
        assert_eq!(tx.cwnd(), 9.0);
        // diff = 9 * (1 - 100/200) = 4.5 > beta → shrink.
        tx.last_rtt = Some(SimDuration::from_millis(200));
        tx.end_of_round();
        assert_eq!(tx.cwnd(), 8.0);
    }

    #[test]
    fn fast_retransmit_reduces_by_quarter() {
        let mut tx = mk();
        let _ = tx.open(t(0));
        run_round(&mut tx, 100);
        run_round(&mut tx, 200); // cwnd = 4 now
        let before = tx.cwnd();
        for _ in 0..2 {
            let _ = tx.on_ack_segment(&ack(tx.s.una), t(300));
        }
        let out = tx.on_ack_segment(&ack(tx.s.una), t(301));
        assert_eq!(sent_count(&out), 1, "retransmit the hole");
        assert_eq!(tx.cwnd(), (before * 0.75).max(2.0));
        assert_eq!(tx.stats().fast_retransmits, 1);
    }

    #[test]
    fn timeout_resets_to_two() {
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
        assert_eq!(tx.cwnd(), 2.0);
        assert!(tx.in_slow_start());
        assert!(sent_count(&out) >= 1);
        assert_eq!(tx.stats().timeouts, 1);
    }

    #[test]
    fn window_never_below_two() {
        let mut tx = mk();
        tx.mode = Mode::CongestionAvoidance;
        tx.base_rtt = Some(SimDuration::from_millis(100));
        tx.last_rtt = Some(SimDuration::from_millis(1000));
        tx.cwnd = 2.0;
        for _ in 0..5 {
            tx.end_of_round();
        }
        assert_eq!(tx.cwnd(), 2.0);
    }
}
