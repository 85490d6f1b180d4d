//! The one TCP sender: the ACK / dup-ACK / timeout skeleton every variant
//! shares, with the window arithmetic delegated to a [`Policy`].

mod policy;

use sim_core::{SimTime, SnapError, SnapshotReader, SnapshotWriter};
use wire::{Drai, FlowId, TcpSegment, TcpSegmentKind};

use self::policy::{Cx, Loss, NewAck, PartialAck, Policy};
use crate::{
    AdjustmentCadence, SendState, TcpConfig, TcpOutput, TcpTimer, TcpVariant, Transport,
    VegasConfig,
};

/// A one-way TCP sender with an infinite backlog, in any [`TcpVariant`].
///
/// It owns what the variants share — sequence space, the retransmission
/// timer, the dup-ACK count, the fast-recovery bracket and go-back-N on
/// timeout — and asks its window policy for the rest (DESIGN §3.1). The
/// order of one call's outputs, `SetTimer` before or after the segments, is
/// part of each variant's behaviour; `tests/sender_transcripts.rs` pins it.
///
/// # Example
///
/// ```
/// use sim_core::SimTime;
/// use tcp::{AdjustmentCadence, Sender, TcpConfig, TcpVariant, Transport, VegasConfig};
/// use wire::FlowId;
///
/// let (vegas, cadence) = (VegasConfig::default(), AdjustmentCadence::default());
/// let mut tx =
///     Sender::new(FlowId::new(0), TcpVariant::Muzha, TcpConfig::default(), vegas, cadence);
/// let out = tx.open(SimTime::ZERO);
/// assert!(!out.is_empty()); // initial window + retransmission timer
/// assert_eq!(tx.cwnd(), 2.0); // Muzha starts directly in CA with two segments
/// ```
#[derive(Debug)]
pub struct Sender {
    flow: FlowId,
    s: SendState,
    cwnd: f64,
    /// While in fast recovery: exit once `una` reaches this point.
    recovery_point: Option<u64>,
    policy: Policy,
}

/// Constructor-only facade kept for `benchmark/`, whose NewReno kernel is
/// built through this name; everything else calls [`Sender::new`]. The next
/// PR that may edit `benchmark/` can delete it (ROADMAP).
#[derive(Debug)]
pub enum RenoSender {}

impl RenoSender {
    /// A TCP NewReno [`Sender`].
    pub fn new_reno(flow: FlowId, cfg: TcpConfig) -> Sender {
        let (vegas, cadence) = (VegasConfig::default(), AdjustmentCadence::default());
        Sender::new(flow, TcpVariant::NewReno, cfg, vegas, cadence)
    }
}

impl Sender {
    /// Creates the sender of `variant` for `flow`. `vegas` is read by
    /// [`TcpVariant::Vegas`] and `cadence` by [`TcpVariant::Muzha`] only.
    pub fn new(
        flow: FlowId,
        variant: TcpVariant,
        cfg: TcpConfig,
        vegas: VegasConfig,
        cadence: AdjustmentCadence,
    ) -> Self {
        let (policy, cwnd) = Policy::new(variant, &cfg, vegas, cadence);
        Sender { flow, s: SendState::new(cfg), cwnd, recovery_point: None, policy }
    }

    /// The policy with the context its hooks take.
    fn hooks(&mut self, now: SimTime) -> (&mut Policy, Cx<'_>) {
        (&mut self.policy, Cx { cwnd: &mut self.cwnd, s: &self.s, now })
    }

    fn send_fresh(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        self.s.send_fresh(self.flow, self.policy.avbw(), self.cwnd, now, out);
    }

    fn retransmit(&mut self, seq: u64, now: SimTime, out: &mut Vec<TcpOutput>) {
        self.s.retransmit(self.flow, self.policy.avbw(), seq, now, out);
    }

    /// SACK's ACK clock: one transmission — the lowest hole, else one fresh
    /// segment, window or not — under the timer already running. `false`,
    /// and nothing sent, for a policy without a scoreboard.
    fn clock_one(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) -> bool {
        let Some(scoreboard) = self.policy.scoreboard() else { return false };
        match scoreboard.take_hole(&self.s) {
            Some(hole) => self.s.retransmit(self.flow, None, hole, now, out),
            None => {
                let seq = self.s.nxt;
                self.s.nxt += 1;
                self.s.register_send(seq, now);
                out.push(TcpOutput::SendSegment(self.s.make_segment(self.flow, seq, None)));
            }
        }
        self.s.ensure_timer(now, out);
        true
    }

    fn on_new_ack(&mut self, ack: u64, mrai: Option<Drai>, now: SimTime, out: &mut Vec<TcpOutput>) {
        let newly = ack - self.s.una;
        let sample = self.s.advance_una(ack, now);
        let recovering = self.recovery_point.is_some();
        let (policy, cx) = self.hooks(now);
        policy.on_new_ack(cx, &NewAck { ack, newly, sample, mrai }, recovering);
        if let Some(point) = self.recovery_point {
            let step = if ack >= point { PartialAck::Exit } else { self.policy.partial_ack() };
            match step {
                PartialAck::Exit => {
                    self.recovery_point = None;
                    self.policy.on_recovery_exit(&mut self.cwnd);
                }
                PartialAck::Deflate | PartialAck::Hold => {
                    // The next hole is lost too.
                    if step == PartialAck::Deflate {
                        self.cwnd = (self.cwnd - newly as f64 + 1.0).max(1.0);
                    }
                    self.retransmit(ack, now, out);
                    self.s.arm_timer(now, out);
                }
                PartialAck::ClockOne => {
                    self.s.arm_timer(now, out);
                    self.clock_one(now, out);
                    return;
                }
            }
        }
        // Out of recovery the timer follows the flight. A scoreboard sender
        // leaving recovery re-arms even with nothing outstanding, so its
        // `SetTimer` precedes the segments below instead of following them.
        if self.recovery_point.is_none() {
            let scoreboard_exit = recovering && self.policy.scoreboard().is_some();
            if self.s.flight() > 0 || scoreboard_exit {
                self.s.arm_timer(now, out);
            } else {
                self.s.cancel_timer();
            }
        }
        self.send_fresh(now, out);
    }

    /// A duplicate ACK with data outstanding.
    fn on_dupack(&mut self, marked: bool, now: SimTime, out: &mut Vec<TcpOutput>) {
        let recovering = self.recovery_point.is_some();
        self.policy.on_dupack(&mut self.cwnd, recovering, marked);
        if recovering {
            // Each dup ACK signals a departure: clock data out.
            if !self.clock_one(now, out) {
                self.send_fresh(now, out);
            }
            return;
        }
        if self.s.register_dupack() != self.s.cfg().dupack_threshold {
            return;
        }
        self.s.stats.fast_retransmits += 1;
        let (policy, cx) = self.hooks(now);
        match policy.on_loss(cx) {
            Loss::Recover => self.recovery_point = Some(self.s.nxt),
            Loss::SlowStart => self.s.dupacks = 0,
            Loss::Continue => {}
        }
        if !self.clock_one(now, out) {
            let una = self.s.una;
            self.retransmit(una, now, out);
            self.s.arm_timer(now, out);
        }
    }

    /// Serialises the sender's complete mutable state: variant tag,
    /// `SendState`, window, recovery point, the policy's record. What
    /// [`Sender::new`] is given is configuration and is not written.
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put(&self.policy.variant());
        self.s.encode_state(w);
        w.put_f64(self.cwnd);
        w.put(&self.recovery_point);
        self.policy.encode(w);
    }

    /// Rebuilds the sender of `flow` from bytes written by
    /// [`Sender::encode_state`]; the other arguments are [`Sender::new`]'s,
    /// as the caller's flow table has them. [`SnapError::Invalid`] for
    /// another variant's record, a window that is not a number of at least
    /// one segment, a recovery point past everything ever sent or policy
    /// state out of domain; any other [`SnapError`] as the input is cut
    /// short.
    pub fn decode_state(
        r: &mut SnapshotReader<'_>,
        flow: FlowId,
        variant: TcpVariant,
        cfg: TcpConfig,
        vegas: VegasConfig,
        cadence: AdjustmentCadence,
    ) -> Result<Sender, SnapError> {
        if r.get::<TcpVariant>()? != variant {
            return Err(SnapError::Invalid("sender variant disagrees with its flow"));
        }
        let s = SendState::decode_state(r, cfg)?;
        let cwnd = r.take_f64()?;
        if !(cwnd.is_finite() && cwnd >= 1.0) {
            return Err(SnapError::Invalid("sender cwnd"));
        }
        let recovery_point: Option<u64> = r.get()?;
        if recovery_point.is_some_and(|point| point > s.high_water()) {
            return Err(SnapError::Invalid("sender recovery point past high water"));
        }
        let policy = Policy::decode(r, variant, &s, vegas, cadence)?;
        Ok(Sender { flow, s, cwnd, recovery_point, policy })
    }
}

impl Transport for Sender {
    fn name(&self) -> &'static str {
        self.policy.variant().name()
    }

    fn flow(&self) -> FlowId {
        self.flow
    }

    fn open(&mut self, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.policy.on_open(self.s.usable_window(self.cwnd), now);
        self.send_fresh(now, &mut out);
        out
    }

    fn on_ack_segment(&mut self, segment: &TcpSegment, now: SimTime) -> Vec<TcpOutput> {
        let TcpSegmentKind::Ack { ack, mrai, marked, ooo, sack } = &segment.kind else {
            return Vec::new();
        };
        let (ack, mrai, marked, ooo) = (*ack, *mrai, *marked, *ooo);
        let mut out = Vec::new();
        let (policy, cx) = self.hooks(now);
        if policy.before_ack(cx, mrai, ooo, sack) {
            self.recovery_point = None;
            self.s.dupacks = 0;
        }
        if ack > self.s.una {
            self.on_new_ack(ack, mrai, now, &mut out);
        } else if self.s.flight() > 0 {
            self.on_dupack(marked, now, &mut out);
        }
        out
    }

    fn on_timer(&mut self, id: TcpTimer, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        if !self.s.take_timer_if_current(id) || self.s.flight() == 0 {
            return out;
        }
        // The policy takes its loss, then go-back-N from `una`.
        self.s.stats.timeouts += 1;
        let (policy, cx) = self.hooks(now);
        policy.on_timeout(cx);
        self.recovery_point = None;
        self.s.dupacks = 0;
        self.s.nxt = self.s.una;
        self.s.clear_rtt_candidates();
        self.s.rtt.back_off();
        self.send_fresh(now, &mut out);
        out
    }

    fn send_state(&self) -> &SendState {
        &self.s
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> Option<f64> {
        self.policy.ssthresh()
    }

    fn phase(&self) -> &'static str {
        if self.recovery_point.is_some() {
            "fast-recovery"
        } else {
            self.policy.phase(self.cwnd)
        }
    }
}

/// The one helper module of the sender and policy unit tests: segment and
/// sender builders, output readers, and the views into a `Sender` the policy
/// tests need.
#[cfg(test)]
pub(crate) mod testkit {
    use sim_core::SimDuration;
    use wire::SackBlock;

    use super::policy::{Door, Muzha, Vegas, Veno, Westwood};
    use super::*;

    pub(crate) const FLOW: FlowId = FlowId::new(0);

    pub(crate) fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// An ACK for `n` with every option spelled out.
    pub(crate) fn ack_with(
        n: u64,
        mrai: Option<Drai>,
        marked: bool,
        ooo: bool,
        sack: &[(u64, u64)],
    ) -> TcpSegment {
        let sack = sack.iter().map(|&(s, e)| SackBlock::new(s, e)).collect();
        TcpSegment { flow: FLOW, kind: TcpSegmentKind::Ack { ack: n, mrai, marked, ooo, sack } }
    }

    /// A plain cumulative ACK.
    pub(crate) fn ack(n: u64) -> TcpSegment {
        ack_with(n, None, false, false, &[])
    }

    pub(crate) fn mk_with(
        variant: TcpVariant,
        cfg: TcpConfig,
        cadence: AdjustmentCadence,
    ) -> Sender {
        Sender::new(FLOW, variant, cfg, VegasConfig::default(), cadence)
    }

    pub(crate) fn mk_cfg(variant: TcpVariant, cfg: TcpConfig) -> Sender {
        mk_with(variant, cfg, AdjustmentCadence::PerRtt)
    }

    pub(crate) fn mk(variant: TcpVariant) -> Sender {
        mk_cfg(variant, TcpConfig::default())
    }

    /// Opens the flow and acknowledges segments 0, 1 and 2 at `rtt_ms`,
    /// `+10` and `+20` ms: a Reno-lineage sender is left with cwnd 4 and
    /// segments 3..=6 in flight.
    pub(crate) fn grow(tx: &mut Sender, rtt_ms: u64) {
        let _ = tx.open(t(0));
        for n in 1..=3 {
            let _ = tx.on_ack_segment(&ack(n), t(rtt_ms + (n - 1) * 10));
        }
    }

    /// Delivers `n` plain ACKs for `seq`, all at `at_ms`.
    pub(crate) fn dupacks(tx: &mut Sender, n: usize, seq: u64, at_ms: u64) {
        for _ in 0..n {
            let _ = tx.on_ack_segment(&ack(seq), t(at_ms));
        }
    }

    pub(crate) fn sent_seqs(out: &[TcpOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TcpOutput::SendSegment(seg) => seg.seq(),
                TcpOutput::SetTimer { .. } => None,
            })
            .collect()
    }

    /// The timer `out` asked for.
    pub(crate) fn timer_id(out: &[TcpOutput]) -> TcpTimer {
        out.iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer { id, .. } => Some(*id),
                TcpOutput::SendSegment(_) => None,
            })
            .expect("a timer was set")
    }

    /// Re-arms the retransmission timer by hand and returns its id.
    pub(crate) fn arm(tx: &mut Sender, now: SimTime) -> TcpTimer {
        let mut out = Vec::new();
        tx.s.arm_timer(now, &mut out);
        timer_id(&out)
    }

    pub(crate) fn recovering(tx: &Sender) -> bool {
        tx.recovery_point.is_some()
    }

    pub(crate) fn ssthresh(tx: &Sender) -> f64 {
        tx.ssthresh().expect("this variant keeps a slow-start threshold")
    }

    /// The policy state of a sender known to run it.
    macro_rules! policy_state {
        ($name:ident, $variant:ident, $state:ty) => {
            pub(crate) fn $name(tx: &mut Sender) -> &mut $state {
                match &mut tx.policy {
                    Policy::$variant(state) => state,
                    other => panic!("not a {} sender: {other:?}", stringify!($variant)),
                }
            }
        };
    }
    policy_state!(vegas, Vegas, Vegas);
    policy_state!(veno, Veno, Veno);
    policy_state!(westwood, Westwood, Westwood);
    policy_state!(door, Door, Door);
    policy_state!(muzha, Muzha, Muzha);

    /// The ten constructions: the nine variants, and Muzha per ACK.
    pub(crate) fn constructions() -> impl Iterator<Item = (TcpVariant, AdjustmentCadence)> {
        let per_rtt = TcpVariant::ALL.into_iter().map(|v| (v, AdjustmentCadence::PerRtt));
        per_rtt.chain([(TcpVariant::Muzha, AdjustmentCadence::PerAck)])
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sim_core::SimDuration;

    use super::testkit::*;
    use super::*;

    /// Tahoe / Reno / NewReno: slow start, AIMD, fast retransmit, fast recovery
    /// and its partial ACKs, and the skeleton they exercise.
    mod reno {
        use super::*;

        #[test]
        fn tahoe_collapses_instead_of_recovering() {
            let mut tx = mk(TcpVariant::Tahoe);
            grow(&mut tx, 100);
            dupacks(&mut tx, 2, 3, 300);
            let out = tx.on_ack_segment(&ack(3), t(302));
            assert_eq!(sent_seqs(&out), vec![3], "fast retransmit still happens");
            assert_eq!(tx.cwnd(), 1.0, "Tahoe has no fast recovery");
            assert!(!recovering(&tx));
            assert_eq!(tx.phase(), "slow-start");
            assert_eq!(tx.name(), "Tahoe");
        }

        #[test]
        fn open_sends_initial_window() {
            let mut tx = mk(TcpVariant::NewReno);
            let out = tx.open(t(0));
            assert_eq!(sent_seqs(&out), vec![0]);
            assert!(out.iter().any(|o| matches!(o, TcpOutput::SetTimer { .. })));
        }

        /// The same for every policy that keeps a slow-start threshold.
        #[test]
        fn slow_start_doubles_per_rtt() {
            use TcpVariant::{Door, NewReno, Reno, Sack, Tahoe, Veno, Westwood};
            for variant in [Tahoe, Reno, NewReno, Sack, Veno, Westwood, Door] {
                let mut tx = mk(variant);
                let _ = tx.open(t(0));
                // ACK 1 → cwnd 2, sends 1 and 2.
                let out = tx.on_ack_segment(&ack(1), t(100));
                assert_eq!(tx.cwnd(), 2.0, "{variant}");
                assert_eq!(sent_seqs(&out), vec![1, 2], "{variant}");
                // Two more ACKs → cwnd 4.
                let _ = tx.on_ack_segment(&ack(2), t(200));
                let _ = tx.on_ack_segment(&ack(3), t(210));
                assert_eq!(tx.cwnd(), 4.0, "{variant}");
                assert_eq!(tx.phase(), "slow-start", "{variant}");
            }
        }

        #[test]
        fn congestion_avoidance_grows_linearly() {
            let cfg = TcpConfig { initial_ssthresh: 2.0, ..TcpConfig::default() };
            let mut tx = mk_cfg(TcpVariant::NewReno, cfg);
            let _ = tx.open(t(0));
            let _ = tx.on_ack_segment(&ack(1), t(100));
            assert_eq!(tx.cwnd(), 2.0);
            assert_eq!(tx.phase(), "congestion-avoidance");
            let _ = tx.on_ack_segment(&ack(2), t(200));
            assert!((tx.cwnd() - 2.5).abs() < 1e-9, "cwnd = {}", tx.cwnd());
        }

        #[test]
        fn three_dupacks_trigger_fast_retransmit() {
            let mut tx = mk(TcpVariant::NewReno);
            grow(&mut tx, 100); // cwnd 4; 3, 4, 5, 6 in flight
            let _ = tx.on_ack_segment(&ack(3), t(300));
            let _ = tx.on_ack_segment(&ack(3), t(301));
            let out = tx.on_ack_segment(&ack(3), t(302));
            assert!(recovering(&tx));
            assert_eq!(tx.phase(), "fast-recovery");
            assert_eq!(sent_seqs(&out), vec![3], "must retransmit the hole");
            assert_eq!(tx.stats().fast_retransmits, 1);
            assert_eq!(tx.stats().retransmissions, 1);
            // ssthresh = flight/2 = 2 (4 in flight: 3,4,5,6).
            assert_eq!(ssthresh(&tx), 2.0);
        }

        #[test]
        fn newreno_partial_ack_retransmits_next_hole() {
            let mut tx = mk(TcpVariant::NewReno);
            grow(&mut tx, 100);
            // flight: 3,4,5,6. Lose 3 and 5. Dup ACKs for 3:
            dupacks(&mut tx, 3, 3, 300);
            assert!(recovering(&tx));
            let inflated = tx.cwnd();
            // Retransmitted 3 arrives; receiver now acks up to 5 (4 was there).
            let out = tx.on_ack_segment(&ack(5), t(400));
            assert!(recovering(&tx), "partial ACK keeps NewReno in recovery");
            // The hole is retransmitted first; the deflated window may also
            // clock out fresh data (RFC 3782 step 5).
            assert_eq!(sent_seqs(&out)[0], 5, "partial ACK retransmits next hole");
            assert_eq!(
                tx.cwnd(),
                inflated - 2.0 + 1.0,
                "deflated by the two acknowledged, less one"
            );
            // Full ACK (everything through 7 where nxt was 7).
            let _ = tx.on_ack_segment(&ack(7), t(500));
            assert!(!recovering(&tx));
            assert_eq!(tx.cwnd(), ssthresh(&tx));
        }

        #[test]
        fn plain_reno_exits_recovery_on_any_new_ack() {
            let mut tx = mk(TcpVariant::Reno);
            grow(&mut tx, 100);
            dupacks(&mut tx, 3, 3, 300);
            assert!(recovering(&tx));
            let _ = tx.on_ack_segment(&ack(5), t(400));
            assert!(!recovering(&tx), "Reno exits on the first new ACK");
        }

        #[test]
        fn dupacks_inflate_window_in_recovery() {
            let mut tx = mk(TcpVariant::NewReno);
            grow(&mut tx, 100);
            dupacks(&mut tx, 3, 3, 300);
            let before = tx.cwnd();
            let _ = tx.on_ack_segment(&ack(3), t(310)); // 4th dupack
            assert_eq!(tx.cwnd(), before + 1.0);
        }

        #[test]
        fn timeout_resets_to_one_and_resends() {
            let mut tx = mk(TcpVariant::NewReno);
            let timer = timer_id(&tx.open(t(0)));
            let out = tx.on_timer(timer, t(3000));
            assert_eq!(tx.cwnd(), 1.0);
            assert_eq!(sent_seqs(&out), vec![0], "go-back-N resend");
            assert_eq!(tx.stats().timeouts, 1);
            assert_eq!(tx.stats().retransmissions, 1);
            assert_eq!(tx.phase(), "slow-start");
        }

        #[test]
        fn stale_timer_ignored() {
            let mut tx = mk(TcpVariant::NewReno);
            let timer = timer_id(&tx.open(t(0)));
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
            let mut tx = mk_cfg(TcpVariant::NewReno, cfg);
            let _ = tx.open(t(0));
            for n in 1..=20 {
                let _ = tx.on_ack_segment(&ack(n), t(90 + n * 10));
            }
            // cwnd grew well past 4, but flight never exceeds the advertised window.
            assert!(tx.cwnd() > 4.0);
            assert!(tx.s.flight() <= 4);
        }

        /// The facade `benchmark/` builds its NewReno kernel through is the same
        /// sender.
        #[test]
        fn reno_sender_facade_builds_newreno() {
            let tx = RenoSender::new_reno(FLOW, TcpConfig::default());
            assert_eq!((tx.name(), tx.cwnd()), ("NewReno", 1.0));
        }
    }

    /// The sender's snapshot record: round trips for every construction, and a
    /// typed refusal for each way the bytes can be out of domain.
    mod codec {
        use sim_core::{SnapError, SnapshotReader, SnapshotWriter};

        use super::*;

        fn encode(tx: &Sender) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            tx.encode_state(&mut w);
            w.finish()
        }

        /// Decodes around the configuration `mk_with` builds with.
        fn decode_with(
            bytes: &[u8],
            variant: TcpVariant,
            cadence: AdjustmentCadence,
        ) -> Result<Sender, SnapError> {
            let mut r = SnapshotReader::new(bytes);
            let (cfg, vegas) = (TcpConfig::default(), VegasConfig::default());
            let tx = Sender::decode_state(&mut r, FLOW, variant, cfg, vegas, cadence)?;
            r.finish().map(|()| tx)
        }

        fn decode(bytes: &[u8], variant: TcpVariant) -> Result<Sender, SnapError> {
            decode_with(bytes, variant, AdjustmentCadence::PerRtt)
        }

        /// A sender of `variant` in fast recovery (Tahoe and Vegas: just past the
        /// loss) with a SACK block absorbed, so every part of the record is live.
        fn busy(variant: TcpVariant, cadence: AdjustmentCadence) -> Sender {
            let mut tx = mk_with(variant, TcpConfig::default(), cadence);
            let _ = tx.open(t(0));
            for n in 1..=4 {
                let _ = tx.on_ack_segment(
                    &ack_with(n, Some(Drai::MAX), false, false, &[]),
                    t(90 + n * 10),
                );
            }
            for i in 0..3 {
                let _ = tx.on_ack_segment(&ack_with(4, None, true, false, &[(5, 6)]), t(200 + i));
            }
            tx
        }

        #[test]
        fn every_construction_round_trips() {
            for (variant, cadence) in constructions() {
                let mut tx = busy(variant, cadence);
                let bytes = encode(&tx);
                let mut twin = decode_with(&bytes, variant, cadence)
                    .unwrap_or_else(|e| panic!("{variant}: {e}"));
                assert_eq!(encode(&twin), bytes, "{variant}: re-encoding differs");
                // And the twin behaves as the original from here on.
                for (n, at) in [(tx.s.una, 300), (tx.s.nxt, 310), (tx.s.nxt + 1, 320)] {
                    let (a, b) =
                        (tx.on_ack_segment(&ack(n), t(at)), twin.on_ack_segment(&ack(n), t(at)));
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{variant}: outputs diverged");
                }
                assert_eq!(encode(&twin), encode(&tx), "{variant}: states diverged");
            }
        }

        #[test]
        fn a_record_for_another_variant_is_refused() {
            let bytes = encode(&busy(TcpVariant::Vegas, AdjustmentCadence::PerRtt));
            assert_eq!(
                decode(&bytes, TcpVariant::NewReno).err(),
                Some(SnapError::Invalid("sender variant disagrees with its flow"))
            );
            // The variant tag alone rewritten: NewReno's record is one
            // number, so Vegas's is left over.
            let mut retagged = bytes.clone();
            retagged[0] = 2;
            assert!(matches!(
                decode(&retagged, TcpVariant::NewReno).err(),
                Some(SnapError::TrailingBytes(_))
            ));
            retagged[0] = 9;
            assert_eq!(
                decode(&retagged, TcpVariant::NewReno).err(),
                Some(SnapError::Invalid("tcp variant tag"))
            );
        }

        #[test]
        fn out_of_domain_fields_are_refused() {
            fn sack(tx: &mut Sender) -> &mut super::policy::Sack {
                tx.policy.scoreboard().expect("a SACK sender")
            }
            type Spoil = fn(&mut Sender);
            let cases: [(Spoil, Option<&str>); 10] = [
                (|_| {}, None),
                (|tx| tx.cwnd = f64::NAN, Some("sender cwnd")),
                (|tx| tx.cwnd = f64::INFINITY, Some("sender cwnd")),
                (|tx| tx.cwnd = 0.5, Some("sender cwnd")),
                (|tx| tx.recovery_point = Some(tx.s.high_water()), None),
                (
                    |tx| tx.recovery_point = Some(tx.s.high_water() + 1),
                    Some("sender recovery point past high water"),
                ),
                (|tx| sack(tx).ssthresh = f64::NAN, Some("sender ssthresh")),
                (|tx| sack(tx).ssthresh = f64::NEG_INFINITY, Some("sender ssthresh")),
                (|tx| sack(tx).scoreboard.extend([3]), Some("sack scoreboard below una")),
                (|tx| sack(tx).retransmitted.extend([0]), Some("sack scoreboard below una")),
            ];
            for (i, (spoil, want)) in cases.into_iter().enumerate() {
                let mut tx = busy(TcpVariant::Sack, AdjustmentCadence::PerRtt);
                assert!(tx.s.una > 3 && !sack(&mut tx).scoreboard.is_empty());
                spoil(&mut tx);
                let got = decode(&encode(&tx), TcpVariant::Sack).err();
                assert_eq!(got, want.map(SnapError::Invalid), "case {i}");
            }
        }
    }

    /// Feeds an arbitrary (possibly nonsensical) stream of ACKs — any number up
    /// to one past `nxt`, any MRAI, marked or not — and timer firings to a
    /// sender and checks structural invariants: `una` never regresses, the
    /// window never drops below one segment (nor, for Muzha, rises above the
    /// advertised one), flight stays within the advertised window (SACK
    /// excepted), and counters are sane.
    fn check_invariants(variant: TcpVariant, cadence: AdjustmentCadence, steps: &[(u8, u8, bool)]) {
        let cfg = TcpConfig { advertised_window: 8, ..TcpConfig::default() };
        let mut tx = mk_with(variant, cfg, cadence);
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
        for (i, &(a, level, marked)) in steps.iter().enumerate() {
            now += SimDuration::from_millis(10);
            if a == 255 {
                // Fire the oldest pending timer id (possibly stale).
                if !timers.is_empty() {
                    let id = timers.remove(0);
                    collect(tx.on_timer(id, now), &mut timers);
                }
            } else {
                let n = u64::from(a) % (tx.s.nxt + 2);
                let seg = ack_with(n, Drai::from_code(level % 6), marked, level > 250, &[]);
                collect(tx.on_ack_segment(&seg, now), &mut timers);
            }
            let name = tx.name();
            assert!(tx.s.una >= last_una, "{name}: una regressed at step {i}");
            last_una = tx.s.una;
            assert!(tx.cwnd() >= 1.0, "{name}: cwnd {} below one segment", tx.cwnd());
            if variant == TcpVariant::Muzha {
                assert!(tx.cwnd() <= 8.0 + 1e-9, "Muzha: cwnd above awnd: {}", tx.cwnd());
            }
            // SACK's recovery clocks one segment out per dup ACK, window or not
            // (ROADMAP item 3): the bound holds for the window-driven senders.
            if variant != TcpVariant::Sack {
                assert!(tx.s.flight() <= 8, "{name}: flight {} exceeds the window", tx.s.flight());
            }
            assert!(tx.s.una <= tx.s.nxt, "{name}: una beyond nxt");
            let st = tx.stats();
            assert!(st.retransmissions <= st.segments_sent, "{name}: more resent than sent");
        }
    }

    proptest! {
        #[test]
        fn invariants_hold_for_every_construction(
            steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..200),
        ) {
            for (variant, cadence) in constructions() {
                check_invariants(variant, cadence, &steps);
            }
        }
    }
}
