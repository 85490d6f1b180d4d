//! The window policies of the one [`crate::Sender`] (DESIGN §3.1): a closed
//! set, every hook a total `match`, so a tenth variant fails to compile at
//! each of them instead of inheriting a default.
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use std::collections::BTreeSet;

use sim_core::{snap_record, SimDuration, SimTime, SnapError, SnapshotReader, SnapshotWriter};
use wire::{Drai, SackBlock};

use crate::{AdjustmentCadence, SendState, TcpConfig, TcpVariant, VegasConfig};

/// What a hook may read of the sender, and the window it steers.
pub(crate) struct Cx<'a> {
    pub cwnd: &'a mut f64,
    pub s: &'a SendState,
    pub now: SimTime,
}

/// An ACK that acknowledges new data, after `una` has moved.
pub(crate) struct NewAck {
    pub ack: u64,
    /// `ack` minus the `una` it found.
    pub newly: u64,
    /// Karn-clean RTT sample, if the ACK gave one.
    pub sample: Option<SimDuration>,
    pub mrai: Option<Drai>,
}

/// What a partial ACK (new data, short of the recovery point) does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PartialAck {
    /// Leave recovery as on a full ACK (plain Reno).
    Exit,
    /// Retransmit the next hole, `cwnd −= newly − 1` (NewReno, RFC 3782).
    Deflate,
    /// Retransmit the next hole, window untouched.
    Hold,
    /// One transmission off the scoreboard, window or not (SACK).
    ClockOne,
}

/// What follows the window cut at the dup-ACK threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Loss {
    /// Fast recovery, until everything now outstanding is acknowledged.
    Recover,
    /// No recovery: slow-start again, and count dup ACKs from zero (Tahoe).
    SlowStart,
    /// No recovery, and the run of dup ACKs keeps counting (Vegas).
    Continue,
}

/// Which member of the Tahoe / Reno lineage a [`Policy::Reno`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flavor {
    /// Fast retransmit, then one segment and slow start: no fast recovery.
    Tahoe,
    /// Fast recovery, exited on the first new ACK.
    Reno,
    /// Fast recovery with partial-ACK retransmissions, exited only at the
    /// recovery point (RFC 3782) — the paper's principal baseline.
    NewReno,
}

/// The closed set of window policies.
#[derive(Debug)]
pub(crate) enum Policy {
    /// Slow start, AIMD congestion avoidance, fast retransmit and (Reno,
    /// NewReno) fast recovery.
    Reno {
        flavor: Flavor,
        ssthresh: f64,
    },
    Sack(Sack),
    Vegas(Vegas),
    Veno(Veno),
    Westwood(Westwood),
    Door(Door),
    Muzha(Muzha),
}

/// One new ACK: a segment in slow start, `1/cwnd` in congestion avoidance.
fn aimd(cwnd: &mut f64, ssthresh: f64) {
    if *cwnd < ssthresh {
        *cwnd += 1.0;
    } else {
        *cwnd += 1.0 / *cwnd;
    }
}

/// Reno's multiplicative decrease: half the flight, at least two segments.
fn half_flight(s: &SendState) -> f64 {
    (s.flight() as f64 / 2.0).max(2.0)
}

/// The window fast recovery opens with: `ssthresh` plus the dup ACKs seen.
fn inflated(ssthresh: f64, s: &SendState) -> f64 {
    ssthresh + f64::from(s.cfg().dupack_threshold)
}

impl Policy {
    /// The policy `variant` names, and the window it opens with.
    pub(crate) fn new(
        variant: TcpVariant,
        cfg: &TcpConfig,
        vegas: VegasConfig,
        cadence: AdjustmentCadence,
    ) -> (Policy, f64) {
        let ssthresh = cfg.initial_ssthresh;
        let reno = |flavor| Policy::Reno { flavor, ssthresh };
        // Vegas and Muzha open with two segments so that ACKs — RTT samples,
        // MRAI feedback — flow from the first round.
        let (one, two) = (cfg.initial_cwnd, cfg.initial_cwnd.max(2.0));
        match variant {
            TcpVariant::Tahoe => (reno(Flavor::Tahoe), one),
            TcpVariant::Reno => (reno(Flavor::Reno), one),
            TcpVariant::NewReno => (reno(Flavor::NewReno), one),
            TcpVariant::Sack => (Policy::Sack(Sack { ssthresh, ..Sack::default() }), one),
            TcpVariant::Vegas => (Policy::Vegas(Vegas::new(vegas)), two),
            TcpVariant::Veno => (Policy::Veno(Veno { ssthresh, ..Veno::default() }), one),
            TcpVariant::Westwood => {
                (Policy::Westwood(Westwood { ssthresh, ..Westwood::default() }), one)
            }
            TcpVariant::Door => (Policy::Door(Door { ssthresh, ..Door::default() }), one),
            TcpVariant::Muzha => (Policy::Muzha(Muzha { cadence, ..Muzha::default() }), two),
        }
    }

    pub(crate) fn variant(&self) -> TcpVariant {
        match self {
            Policy::Reno { flavor: Flavor::Tahoe, .. } => TcpVariant::Tahoe,
            Policy::Reno { flavor: Flavor::Reno, .. } => TcpVariant::Reno,
            Policy::Reno { flavor: Flavor::NewReno, .. } => TcpVariant::NewReno,
            Policy::Sack(_) => TcpVariant::Sack,
            Policy::Vegas(_) => TcpVariant::Vegas,
            Policy::Veno(_) => TcpVariant::Veno,
            Policy::Westwood(_) => TcpVariant::Westwood,
            Policy::Door(_) => TcpVariant::Door,
            Policy::Muzha(_) => TcpVariant::Muzha,
        }
    }

    /// The AVBW-S option on data: Muzha starts it at the maximum level and
    /// the routers fold their DRAI into it (§4.4).
    pub(crate) fn avbw(&self) -> Option<Drai> {
        match self {
            Policy::Muzha(_) => Some(Drai::MAX),
            Policy::Reno { .. }
            | Policy::Sack(_)
            | Policy::Vegas(_)
            | Policy::Veno(_)
            | Policy::Westwood(_)
            | Policy::Door(_) => None,
        }
    }

    /// The flow opens with `window` segments about to leave.
    pub(crate) fn on_open(&mut self, window: u64, now: SimTime) {
        match self {
            Policy::Vegas(v) => v.round_end = window,
            Policy::Westwood(w) => (w.round_start, w.round_end) = (now, window),
            Policy::Muzha(m) => m.round_end = window,
            Policy::Reno { .. } | Policy::Sack(_) | Policy::Veno(_) | Policy::Door(_) => {}
        }
    }

    /// What the ACK carries besides its number, read before the number is.
    /// `true` abandons the recovery episode under way.
    pub(crate) fn before_ack(
        &mut self,
        cx: Cx<'_>,
        mrai: Option<Drai>,
        ooo: bool,
        sack: &[SackBlock],
    ) -> bool {
        match self {
            Policy::Sack(sb) => sb.absorb(sack, cx.s.una),
            Policy::Door(d) => return ooo && d.on_ooo(cx),
            Policy::Muzha(m) => m.fold_round_mrai(mrai),
            Policy::Reno { .. } | Policy::Vegas(_) | Policy::Veno(_) | Policy::Westwood(_) => {}
        }
        false
    }

    /// A new ACK moved `una`: take the RTT sample and, outside recovery,
    /// grow the window.
    pub(crate) fn on_new_ack(&mut self, cx: Cx<'_>, a: &NewAck, recovering: bool) {
        match self {
            Policy::Reno { ssthresh, .. } if !recovering => aimd(cx.cwnd, *ssthresh),
            Policy::Door(d) if !recovering => aimd(cx.cwnd, d.ssthresh),
            Policy::Reno { .. } | Policy::Door(_) => {}
            Policy::Sack(sb) => {
                sb.prune(cx.s.una);
                if !recovering {
                    aimd(cx.cwnd, sb.ssthresh);
                }
            }
            Policy::Vegas(v) => v.on_new_ack(cx, a),
            Policy::Veno(v) => {
                if let Some(rtt) = a.sample {
                    v.rtts.observe(rtt);
                }
                if !recovering {
                    v.grow(cx.cwnd);
                }
            }
            Policy::Westwood(w) => {
                w.measure(&cx, a);
                if !recovering {
                    aimd(cx.cwnd, w.ssthresh);
                }
            }
            Policy::Muzha(m) => {
                m.marked_dupacks = 0;
                if !recovering {
                    m.adjust(cx, a);
                }
            }
        }
    }

    /// Tahoe and Vegas never recover, so never see one.
    pub(crate) fn partial_ack(&self) -> PartialAck {
        match self {
            Policy::Reno { flavor: Flavor::NewReno, .. } => PartialAck::Deflate,
            Policy::Reno { flavor: Flavor::Tahoe | Flavor::Reno, .. } | Policy::Vegas(_) => {
                PartialAck::Exit
            }
            Policy::Sack(_) => PartialAck::ClockOne,
            // NewReno-inherited repair (§4.8: Muzha "inherits most of the
            // congestion control mechanisms from traditional TCP NewReno").
            Policy::Veno(_) | Policy::Westwood(_) | Policy::Door(_) | Policy::Muzha(_) => {
                PartialAck::Hold
            }
        }
    }

    /// Recovery is over: deflate to `ssthresh`. Muzha keeps none — its
    /// window was halved, or deliberately left alone, on entry — and a DOOR
    /// episode that opened without a reduction closes without one.
    pub(crate) fn on_recovery_exit(&mut self, cwnd: &mut f64) {
        let unreduced = match self {
            Policy::Door(d) => d.unreduced.take(),
            Policy::Reno { .. }
            | Policy::Sack(_)
            | Policy::Vegas(_)
            | Policy::Veno(_)
            | Policy::Westwood(_)
            | Policy::Muzha(_) => None,
        };
        if let Some(window) = unreduced.or(self.ssthresh()) {
            *cwnd = window;
        }
    }

    /// A duplicate ACK with data outstanding. Inside recovery it signals a
    /// departure: the Reno lineage inflates the window, Muzha and SACK clock
    /// data out without. Outside it Muzha counts the marked ones.
    pub(crate) fn on_dupack(&mut self, cwnd: &mut f64, recovering: bool, marked: bool) {
        match self {
            Policy::Reno { .. } | Policy::Veno(_) | Policy::Westwood(_) | Policy::Door(_) => {
                if recovering {
                    *cwnd += 1.0;
                }
            }
            Policy::Muzha(m) if !recovering && marked => m.marked_dupacks += 1,
            Policy::Muzha(_) | Policy::Sack(_) | Policy::Vegas(_) => {}
        }
    }

    /// The dup-ACK count reached the threshold: cut the window.
    pub(crate) fn on_loss(&mut self, cx: Cx<'_>) -> Loss {
        match self {
            Policy::Reno { flavor, ssthresh } => {
                *ssthresh = half_flight(cx.s);
                if *flavor == Flavor::Tahoe {
                    *cx.cwnd = 1.0;
                    return Loss::SlowStart;
                }
                *cx.cwnd = inflated(*ssthresh, cx.s);
            }
            Policy::Sack(sb) => {
                sb.ssthresh = half_flight(cx.s);
                *cx.cwnd = sb.ssthresh;
                sb.retransmitted.clear();
            }
            Policy::Vegas(v) => {
                // A quarter, gentler than Reno's half.
                *cx.cwnd = (*cx.cwnd * 0.75).max(2.0);
                v.slow_start = false;
                return Loss::Continue;
            }
            Policy::Veno(v) => {
                // Veno's discrimination: low backlog → random loss → gentle
                // 4/5 cut; high backlog → congestion → halve.
                let factor = if v.saturated(*cx.cwnd) { 0.5 } else { 0.8 };
                v.ssthresh = (*cx.cwnd * factor).max(2.0);
                *cx.cwnd = inflated(v.ssthresh, cx.s);
            }
            Policy::Westwood(w) => {
                // The Westwood decrease: adopt the *measured* rate.
                w.ssthresh = w.eligible_window();
                *cx.cwnd = inflated(cx.cwnd.min(w.ssthresh), cx.s);
            }
            // T1: the hole is repaired without touching the window, which
            // the episode's exit takes the dup-ACK inflation off again.
            Policy::Door(d) if d.congestion_control_disabled(cx.now) => {
                d.unreduced = Some(*cx.cwnd);
            }
            Policy::Door(d) => {
                d.note_reduction(&cx);
                d.ssthresh = half_flight(cx.s);
                *cx.cwnd = inflated(d.ssthresh, cx.s);
            }
            Policy::Muzha(m) => {
                // Table 4.1: a mostly marked run → congestion → halve; an
                // unmarked one → random loss → no window reduction.
                if m.marked_dupacks * 2 >= cx.s.dupacks {
                    *cx.cwnd = (*cx.cwnd / 2.0).max(1.0);
                }
                m.marked_dupacks = 0;
            }
        }
        Loss::Recover
    }

    /// The timer fired with data outstanding; go-back-N follows.
    pub(crate) fn on_timeout(&mut self, cx: Cx<'_>) {
        *cx.cwnd = match self {
            Policy::Reno { ssthresh, .. } => {
                *ssthresh = half_flight(cx.s);
                1.0
            }
            Policy::Sack(sb) => {
                sb.ssthresh = half_flight(cx.s);
                sb.scoreboard.clear();
                sb.retransmitted.clear();
                1.0
            }
            Policy::Vegas(v) => {
                v.slow_start = true;
                v.round_end = cx.s.una + 1;
                2.0
            }
            Policy::Veno(v) => {
                v.ssthresh = half_flight(cx.s);
                1.0
            }
            Policy::Westwood(w) => {
                w.ssthresh = w.eligible_window();
                w.round_end = cx.s.una + 1;
                1.0
            }
            // T1: retransmit without collapsing the window.
            Policy::Door(d) if d.congestion_control_disabled(cx.now) => {
                d.unreduced.take().unwrap_or(*cx.cwnd)
            }
            Policy::Door(d) => {
                d.unreduced = None;
                d.note_reduction(&cx);
                d.ssthresh = half_flight(cx.s);
                1.0
            }
            // Table 4.1 row 4: timeout → cwnd = 1, stay in CA.
            Policy::Muzha(m) => {
                m.marked_dupacks = 0;
                m.round_mrai = None;
                m.round_end = cx.s.una + 1;
                1.0
            }
        };
    }

    /// A policy with a scoreboard repairs ACK-clocked — one transmission per
    /// ACK — instead of window-driven.
    pub(crate) fn scoreboard(&mut self) -> Option<&mut Sack> {
        match self {
            Policy::Sack(sb) => Some(sb),
            Policy::Reno { .. }
            | Policy::Vegas(_)
            | Policy::Veno(_)
            | Policy::Westwood(_)
            | Policy::Door(_)
            | Policy::Muzha(_) => None,
        }
    }

    /// The slow-start threshold, for the policies that keep one.
    pub(crate) fn ssthresh(&self) -> Option<f64> {
        match self {
            Policy::Reno { ssthresh, .. } => Some(*ssthresh),
            Policy::Sack(sb) => Some(sb.ssthresh),
            Policy::Veno(v) => Some(v.ssthresh),
            Policy::Westwood(w) => Some(w.ssthresh),
            Policy::Door(d) => Some(d.ssthresh),
            Policy::Vegas(_) | Policy::Muzha(_) => None,
        }
    }

    /// The phase label outside fast recovery.
    pub(crate) fn phase(&self, cwnd: f64) -> &'static str {
        let slow_start = match self {
            Policy::Vegas(v) => v.slow_start,
            // Steered by router feedback from the first ACK (Table 4.1).
            Policy::Muzha(_) => return "rate-guided",
            Policy::Reno { .. }
            | Policy::Sack(_)
            | Policy::Veno(_)
            | Policy::Westwood(_)
            | Policy::Door(_) => self.ssthresh().is_some_and(|ss| cwnd < ss),
        };
        if slow_start {
            "slow-start"
        } else {
            "congestion-avoidance"
        }
    }

    /// The snapshot record; the sender's variant tag says which one it is.
    pub(crate) fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            Policy::Reno { ssthresh, .. } => w.put(ssthresh),
            Policy::Sack(p) => w.put(p),
            Policy::Vegas(p) => p.encode_state(w),
            Policy::Veno(p) => w.put(p),
            Policy::Westwood(p) => w.put(p),
            Policy::Door(p) => w.put(p),
            Policy::Muzha(p) => p.encode_state(w),
        }
    }

    /// Reads `variant`'s record back around the flow's `vegas` and `cadence`,
    /// refusing an `ssthresh` that is not a number and scoreboard entries
    /// below `una`.
    pub(crate) fn decode(
        r: &mut SnapshotReader<'_>,
        variant: TcpVariant,
        s: &SendState,
        vegas: VegasConfig,
        cadence: AdjustmentCadence,
    ) -> Result<Policy, SnapError> {
        let (mut policy, _) = Policy::new(variant, s.cfg(), vegas, cadence);
        match &mut policy {
            Policy::Reno { ssthresh, .. } => *ssthresh = r.get()?,
            Policy::Sack(p) => {
                *p = r.get()?;
                let lowest = [p.scoreboard.first(), p.retransmitted.first()];
                if lowest.into_iter().flatten().any(|&seq| seq < s.una) {
                    return Err(SnapError::Invalid("sack scoreboard below una"));
                }
            }
            Policy::Vegas(p) => *p = Vegas::decode_state(r, vegas)?,
            Policy::Veno(p) => *p = r.get()?,
            Policy::Westwood(p) => *p = r.get()?,
            Policy::Door(p) => *p = r.get()?,
            Policy::Muzha(p) => *p = Muzha::decode_state(r, cadence)?,
        }
        if policy.ssthresh().is_some_and(|ss| !ss.is_finite()) {
            return Err(SnapError::Invalid("sender ssthresh"));
        }
        Ok(policy)
    }
}

snap_record! { Sack { ssthresh, scoreboard, retransmitted } }
snap_record! { Backlog { base_rtt, last_rtt } }
snap_record! {
    given (cfg: VegasConfig) Vegas { cfg = cfg, slow_start, rtts, round_end, rounds }
}
snap_record! { Veno { ssthresh, rtts, ca_acks } }
snap_record! { Westwood { ssthresh, bwe, rtt_min, round_acked, round_start, round_end } }
snap_record! { Door { ssthresh, cc_disabled_until, last_reduction, unreduced } }
snap_record! {
    given (cadence: AdjustmentCadence) Muzha {
        cadence = cadence,
        round_end,
        round_mrai,
        marked_dupacks,
    }
}

/// TCP SACK (ns-2 `sack1` style): Reno outside recovery; inside it each ACK
/// clocks out one transmission, the lowest un-SACKed hole first and fresh
/// data after, so several losses in a window are repaired in one round trip.
/// Needs a SACK-enabled [`crate::TcpReceiver`].
#[derive(Debug, Default)]
pub(crate) struct Sack {
    pub ssthresh: f64,
    /// Segments above `una` reported received by the receiver.
    pub scoreboard: BTreeSet<u64>,
    /// Holes already retransmitted during the current recovery episode.
    pub retransmitted: BTreeSet<u64>,
}

impl Sack {
    fn absorb(&mut self, blocks: &[SackBlock], una: u64) {
        for b in blocks {
            self.scoreboard.extend((b.start..b.end).filter(|&seq| seq >= una));
        }
    }

    fn prune(&mut self, una: u64) {
        self.scoreboard.retain(|&s| s >= una);
        self.retransmitted.retain(|&s| s >= una);
    }

    /// Takes the lowest hole — a segment in `[una, high_water)` neither
    /// SACKed nor already retransmitted this recovery — for retransmission.
    pub(crate) fn take_hole(&mut self, s: &SendState) -> Option<u64> {
        let hole = (s.una..s.high_water())
            .find(|seq| !self.scoreboard.contains(seq) && !self.retransmitted.contains(seq))?;
        self.retransmitted.insert(hole);
        Some(hole)
    }
}

/// Vegas's estimate of the flow's segments queued in the network, from the
/// lowest RTT seen and the latest: `(cwnd / baseRTT − cwnd / RTT) × baseRTT`.
#[derive(Debug, Default)]
pub(crate) struct Backlog {
    pub base_rtt: Option<SimDuration>,
    pub last_rtt: Option<SimDuration>,
}

impl Backlog {
    fn observe(&mut self, rtt: SimDuration) {
        self.last_rtt = Some(rtt);
        self.base_rtt = Some(self.base_rtt.map_or(rtt, |b| b.min(rtt)));
    }

    /// The estimate for a window of `cwnd`, once there is a sample.
    pub(crate) fn estimate(&self, cwnd: f64) -> Option<f64> {
        let base = self.base_rtt?.as_secs_f64();
        let last = self.last_rtt?.as_secs_f64();
        if base <= 0.0 || last <= 0.0 {
            return None;
        }
        let expected = cwnd / base;
        let actual = cwnd / last;
        Some((expected - actual) * base)
    }
}

/// TCP Vegas: once per RTT the backlog estimate `diff` regulates the
/// window — `diff < α` grows it by a segment, `diff > β` shrinks it by one,
/// between them it holds. Slow start doubles every other RTT and ends when
/// `diff > γ`, giving back 1/8 (thesis §2.1.3). A fast retransmit costs a
/// quarter and a timeout restarts from two segments.
#[derive(Debug)]
pub(crate) struct Vegas {
    pub cfg: VegasConfig,
    pub slow_start: bool,
    pub rtts: Backlog,
    /// The sequence that closes the current RTT round.
    pub round_end: u64,
    /// Counts completed rounds (slow start doubles on even rounds).
    pub rounds: u64,
}

impl Vegas {
    fn new(cfg: VegasConfig) -> Self {
        cfg.validate();
        Vegas { cfg, slow_start: true, rtts: Backlog::default(), round_end: 0, rounds: 0 }
    }

    fn on_new_ack(&mut self, cx: Cx<'_>, a: &NewAck) {
        if let Some(rtt) = a.sample {
            self.rtts.observe(rtt);
        }
        if a.ack >= self.round_end {
            self.end_of_round(cx.cwnd);
            self.round_end = cx.s.nxt.max(a.ack + 1);
        }
    }

    /// Once-per-RTT window regulation.
    pub(crate) fn end_of_round(&mut self, cwnd: &mut f64) {
        self.rounds += 1;
        let Some(diff) = self.rtts.estimate(*cwnd) else {
            // No measurement yet: conservative +1 growth.
            if self.slow_start {
                *cwnd += 1.0;
            }
            return;
        };
        if self.slow_start {
            if diff > self.cfg.gamma {
                *cwnd = (*cwnd - *cwnd / 8.0).max(2.0);
                self.slow_start = false;
            } else if self.rounds.is_multiple_of(2) {
                *cwnd *= 2.0;
            }
        } else if diff < self.cfg.alpha {
            *cwnd += 1.0;
        } else if diff > self.cfg.beta {
            *cwnd = (*cwnd - 1.0).max(2.0);
        }
    }
}

/// Veno's backlog threshold β, in segments.
const VENO_BETA: f64 = 3.0;

/// TCP Veno (\[22\]), the end-to-end rival to router-assisted loss
/// discrimination: Vegas's backlog `N` grafted onto Reno. Growth slows to a
/// segment every *two* RTTs once `N ≥ β`; a loss at `N < β` is deemed
/// **random** and costs 1/5 instead of 1/2.
#[derive(Debug, Default)]
pub(crate) struct Veno {
    pub ssthresh: f64,
    pub rtts: Backlog,
    /// Counts ACKs in CA for the every-other-RTT growth when backlogged.
    pub ca_acks: u64,
}

impl Veno {
    /// Whether the sender currently believes the path is backlogged.
    pub(crate) fn saturated(&self, cwnd: f64) -> bool {
        self.rtts.estimate(cwnd).is_some_and(|n| n >= VENO_BETA)
    }

    fn grow(&mut self, cwnd: &mut f64) {
        let slow_start = *cwnd < self.ssthresh;
        if !slow_start && self.saturated(*cwnd) {
            // Backlogged: grow every other ACK (≈ 1 segment per two RTTs
            // aggregate).
            self.ca_acks += 1;
            if !self.ca_acks.is_multiple_of(2) {
                return;
            }
        }
        aimd(cwnd, self.ssthresh);
    }
}

/// Weight of the old value in the bandwidth low-pass filter.
const BW_FILTER_OLD: f64 = 0.9;

/// TCP Westwood+ (\[24\]): Reno's probing with a *measured* decrease. The
/// rate is estimated from the ACK stream (segments per RTT, low-pass
/// filtered) and a loss sets `ssthresh = BWE × RTTmin`, so a random loss,
/// which leaves the rate alone, barely moves the operating point.
#[derive(Debug, Default)]
pub(crate) struct Westwood {
    pub ssthresh: f64,
    /// Smoothed bandwidth estimate in segments per second.
    pub bwe: f64,
    /// Minimum RTT observed (the propagation estimate).
    pub rtt_min: Option<SimDuration>,
    /// Segments acknowledged during the current measurement round.
    pub round_acked: u64,
    /// When the current measurement round began.
    pub round_start: SimTime,
    /// The ACK number that closes the current round.
    pub round_end: u64,
}

impl Westwood {
    /// `BWE × RTTmin` in segments — the measured operating point.
    pub(crate) fn eligible_window(&self) -> f64 {
        self.rtt_min.map_or(2.0, |rtt| (self.bwe * rtt.as_secs_f64()).max(2.0))
    }

    /// Counts the ACK into the current round and closes the round if due.
    fn measure(&mut self, cx: &Cx<'_>, a: &NewAck) {
        self.round_acked += a.newly;
        if let Some(rtt) = a.sample {
            self.rtt_min = Some(self.rtt_min.map_or(rtt, |m| m.min(rtt)));
        }
        if a.ack < self.round_end {
            return;
        }
        let span = cx.now.saturating_since(self.round_start);
        if span > SimDuration::ZERO && self.round_acked > 0 {
            let sample = self.round_acked as f64 / span.as_secs_f64();
            self.bwe = if self.bwe == 0.0 {
                sample
            } else {
                BW_FILTER_OLD * self.bwe + (1.0 - BW_FILTER_OLD) * sample
            };
        }
        self.round_acked = 0;
        self.round_start = cx.now;
        self.round_end = cx.s.nxt.max(a.ack + 1);
    }
}

/// TCP-DOOR (§3.1, \[39\]): NewReno plus two responses to out-of-order
/// (OOO) delivery — the receiver's `ooo` flag — which in a MANET means a
/// route changed, not congestion.
///
/// * **T1** (≈ one RTT after the signal): dup-ACK runs and timeouts
///   retransmit without reducing the window.
/// * **T2, instant recovery**: a reduction made within the last RTT before
///   the signal is undone — it was a misdiagnosed route change.
#[derive(Debug, Default)]
pub(crate) struct Door {
    pub ssthresh: f64,
    /// Congestion responses are suppressed until this instant.
    pub cc_disabled_until: SimTime,
    /// When the window was last reduced, and the `cwnd` and `ssthresh` it
    /// was reduced from, for instant recovery.
    pub last_reduction: Option<(SimTime, f64, f64)>,
    /// While in a recovery episode opened inside T1, without a reduction:
    /// the window it opened at.
    pub unreduced: Option<f64>,
}

impl Door {
    /// Whether congestion responses are currently suppressed.
    pub(crate) fn congestion_control_disabled(&self, now: SimTime) -> bool {
        now < self.cc_disabled_until
    }

    /// `true` if the signal undid a recent reduction: the recovery episode
    /// that reduction opened ends with it, or its exit deflation would
    /// re-apply, or wildly overshoot, the undone cut.
    fn on_ooo(&mut self, cx: Cx<'_>) -> bool {
        // T1/T2: DOOR ties both to the RTT scale.
        let span = cx.s.rtt.srtt().unwrap_or(SimDuration::from_millis(100));
        let undo = self.last_reduction.take_if(|(at, ..)| cx.now.saturating_since(*at) <= span);
        if let Some((_, prev_cwnd, prev_ssthresh)) = undo {
            *cx.cwnd = cx.cwnd.max(prev_cwnd);
            self.ssthresh = self.ssthresh.max(prev_ssthresh);
            self.unreduced = None;
        }
        // And don't react to the disorder that is still in flight.
        self.cc_disabled_until = cx.now + span;
        undo.is_some()
    }

    fn note_reduction(&mut self, cx: &Cx<'_>) {
        self.last_reduction = Some((cx.now, *cx.cwnd, self.ssthresh));
    }
}

/// TCP Muzha's sender half (Tables 4.1 and 5.2; §4.8).
///
/// * **No slow start, no ssthresh**: congestion avoidance from the start,
///   the window moved by the routers' recommendation instead of probing.
/// * **Once per RTT** the *minimum* MRAI echoed during the round adjusts
///   the window (Table 5.2): ×2, +1, hold, −1, or ×½.
/// * **Marked vs. unmarked dup ACKs** (Table 4.1): a mostly marked run →
///   halve and enter FF (fast retransmit & recovery); an unmarked run → the
///   loss was random, retransmit *without* touching the window.
/// * **Timeout** → one segment, remain in CA.
#[derive(Debug, Default)]
pub(crate) struct Muzha {
    pub cadence: AdjustmentCadence,
    /// The ACK that closes the current adjustment round.
    pub round_end: u64,
    /// Worst (minimum) MRAI echoed during the current round.
    pub round_mrai: Option<Drai>,
    /// Marked duplicate ACKs in the current dup-ACK run.
    pub marked_dupacks: u32,
}

impl Muzha {
    fn fold_round_mrai(&mut self, mrai: Option<Drai>) {
        if let Some(level) = mrai {
            self.round_mrai = Some(self.round_mrai.map_or(level, |cur| cur.fold(level)));
        }
    }

    /// Table 5.2: once per RTT round, or one ACK's worth of it per ACK.
    fn adjust(&mut self, cx: Cx<'_>, a: &NewAck) {
        let w = *cx.cwnd;
        let moved = match self.cadence {
            AdjustmentCadence::PerRtt if a.ack >= self.round_end => {
                self.round_end = cx.s.nxt.max(a.ack + 1);
                self.round_mrai.take().map(|level| match level {
                    Drai::AggressiveAcceleration => w * 2.0,
                    Drai::ModerateAcceleration => w + 1.0,
                    Drai::Stabilizing => w,
                    Drai::ModerateDeceleration => (w - 1.0).max(1.0),
                    Drai::AggressiveDeceleration => (w / 2.0).max(1.0),
                })
            }
            AdjustmentCadence::PerRtt => None,
            AdjustmentCadence::PerAck => a.mrai.map(|level| match level {
                Drai::AggressiveAcceleration => w + 1.0,
                Drai::ModerateAcceleration => w + 1.0 / w.max(1.0),
                Drai::Stabilizing => w,
                Drai::ModerateDeceleration => (w - 1.0 / w.max(1.0)).max(1.0),
                Drai::AggressiveDeceleration => (w - 0.5).max(1.0),
            }),
        };
        // Past the advertised window growth only delays the next reaction.
        if let Some(moved) = moved {
            *cx.cwnd = moved.min(f64::from(cx.s.cfg().advertised_window));
        }
    }
}

#[cfg(test)]
mod tests {
    use wire::TcpSegment;

    use super::*;
    use crate::sender::testkit::*;
    use crate::sender::Sender;
    use crate::{TcpOutput, Transport};

    /// SACK: scoreboard recovery, one transmission per ACK.
    mod sack {
        use super::*;

        fn sack_ack(n: u64, blocks: &[(u64, u64)]) -> TcpSegment {
            ack_with(n, None, false, false, blocks)
        }

        /// Segments 3..=6 in flight; the tests then lose 3 and 5.
        fn grown() -> Sender {
            let mut tx = mk(TcpVariant::Sack);
            grow(&mut tx, 100);
            tx
        }

        #[test]
        fn recovery_retransmits_only_holes() {
            let mut tx = grown();
            // In flight: 3,4,5,6. Lost: 3 and 5. Receiver SACKs 4, then 6.
            let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(300));
            let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(301));
            let out = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(302));
            assert!(recovering(&tx));
            // First recovery transmission: lowest hole = 3.
            assert_eq!(sent_seqs(&out), vec![3]);
            // Another dup ACK clocks out the next hole = 5 (4 and 6 are SACKed).
            let out = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(303));
            assert_eq!(sent_seqs(&out), vec![5]);
            // Both holes repaired in the same window: 2 retransmissions total.
            assert_eq!(tx.stats().retransmissions, 2);
            // Full ACK exits recovery.
            let _ = tx.on_ack_segment(&ack(7), t(400));
            assert!(!recovering(&tx));
            assert_eq!(tx.cwnd(), ssthresh(&tx));
        }

        #[test]
        fn no_duplicate_hole_retransmissions() {
            let mut tx = grown();
            for i in 0..3 {
                let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(300 + i));
            }
            assert!(recovering(&tx));
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
            let mut tx = grown();
            let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5)]), t(300));
            let id = arm(&mut tx, t(300));
            let out = tx.on_timer(id, t(4000));
            assert_eq!(tx.cwnd(), 1.0);
            assert_eq!(sent_seqs(&out), vec![3], "go-back-N from una");
            assert!(!recovering(&tx));
            assert_eq!(tx.stats().timeouts, 1);
            let scoreboard = tx.policy.scoreboard().expect("a SACK sender");
            assert!(scoreboard.scoreboard.is_empty() && scoreboard.retransmitted.is_empty());
        }

        #[test]
        fn partial_ack_keeps_repairing() {
            let mut tx = grown();
            // Lost 3 and 5; SACK info for 4 and 6.
            for i in 0..3 {
                let _ = tx.on_ack_segment(&sack_ack(3, &[(4, 5), (6, 7)]), t(300 + i));
            }
            // Retransmitted 3 arrives → ACK advances to 5 (4 was SACKed/held).
            let out = tx.on_ack_segment(&sack_ack(5, &[(6, 7)]), t(400));
            assert!(recovering(&tx));
            assert_eq!(sent_seqs(&out), vec![5], "partial ACK retransmits hole 5");
            // The timer is re-armed before the transmission, not after it.
            assert!(matches!(out[0], TcpOutput::SetTimer { .. }));
        }
    }

    /// Vegas: α/β/γ regulation once per RTT.
    mod vegas {
        use super::*;

        fn sent_count(out: &[TcpOutput]) -> usize {
            sent_seqs(out).len()
        }

        /// Runs one full in-order RTT round: acks everything in flight at `now_ms`.
        fn run_round(tx: &mut Sender, now_ms: u64) {
            for seq in tx.s.una..tx.s.nxt {
                let _ = tx.on_ack_segment(&ack(seq + 1), t(now_ms));
            }
        }

        /// Puts the sender in congestion avoidance with the given window and RTTs.
        fn in_ca(tx: &mut Sender, cwnd: f64, base_ms: u64, last_ms: u64) {
            tx.cwnd = cwnd;
            let v = vegas(tx);
            v.slow_start = false;
            v.rtts.base_rtt = Some(SimDuration::from_millis(base_ms));
            v.rtts.last_rtt = Some(SimDuration::from_millis(last_ms));
        }

        fn end_of_round(tx: &mut Sender) {
            let Policy::Vegas(v) = &mut tx.policy else { unreachable!() };
            v.end_of_round(&mut tx.cwnd);
        }

        #[test]
        fn starts_with_two_segments() {
            let mut tx = mk(TcpVariant::Vegas);
            let out = tx.open(t(0));
            assert_eq!(tx.cwnd(), 2.0);
            assert_eq!(sent_count(&out), 2);
            assert_eq!(tx.phase(), "slow-start");
            assert_eq!(tx.ssthresh(), None);
        }

        #[test]
        fn base_rtt_tracks_minimum() {
            let mut tx = mk(TcpVariant::Vegas);
            let _ = tx.open(t(0));
            run_round(&mut tx, 100); // RTT 100 ms
            run_round(&mut tx, 150); // RTT 50 ms
            assert_eq!(vegas(&mut tx).rtts.base_rtt, Some(SimDuration::from_millis(50)));
        }

        #[test]
        fn slow_start_grows_every_other_round_only() {
            let mut tx = mk(TcpVariant::Vegas);
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
            let mut tx = mk(TcpVariant::Vegas);
            let _ = tx.open(t(0));
            // Round 1: establish baseRTT = 100 ms. Round 2: doubles (constant RTT).
            run_round(&mut tx, 100);
            run_round(&mut tx, 200);
            assert_eq!(tx.phase(), "slow-start");
            let before = tx.cwnd();
            // Round 3: RTT inflates to 300 ms (queueing!) → diff >> gamma.
            run_round(&mut tx, 500);
            assert_eq!(tx.phase(), "congestion-avoidance", "must exit slow start");
            assert!((tx.cwnd() - before * 7.0 / 8.0).abs() < 1e-9, "1/8 decrease");
        }

        #[test]
        fn ca_band_holds_window() {
            let mut tx = mk(TcpVariant::Vegas);
            let _ = tx.open(t(0));
            run_round(&mut tx, 100);
            // diff = cwnd * (1 - base/last) = 4 * (1 - 100/200) = 2: between
            // alpha (1) and beta (3).
            in_ca(&mut tx, 4.0, 100, 200);
            end_of_round(&mut tx);
            assert_eq!(tx.cwnd(), 4.0, "inside [alpha, beta]: hold");
        }

        #[test]
        fn ca_grows_below_alpha_and_shrinks_above_beta() {
            let mut tx = mk(TcpVariant::Vegas);
            // diff = 8 * (1 - 100/105) ≈ 0.38 < alpha → grow.
            in_ca(&mut tx, 8.0, 100, 105);
            end_of_round(&mut tx);
            assert_eq!(tx.cwnd(), 9.0);
            // diff = 9 * (1 - 100/200) = 4.5 > beta → shrink.
            in_ca(&mut tx, 9.0, 100, 200);
            end_of_round(&mut tx);
            assert_eq!(tx.cwnd(), 8.0);
        }

        #[test]
        fn fast_retransmit_reduces_by_quarter() {
            let mut tx = mk(TcpVariant::Vegas);
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
            assert!(!recovering(&tx), "Vegas cuts without entering recovery");
        }

        #[test]
        fn timeout_resets_to_two() {
            let mut tx = mk(TcpVariant::Vegas);
            let id = timer_id(&tx.open(t(0)));
            let out = tx.on_timer(id, t(3000));
            assert_eq!(tx.cwnd(), 2.0);
            assert_eq!(tx.phase(), "slow-start");
            assert!(sent_count(&out) >= 1);
            assert_eq!(tx.stats().timeouts, 1);
        }

        #[test]
        fn window_never_below_two() {
            let mut tx = mk(TcpVariant::Vegas);
            in_ca(&mut tx, 2.0, 100, 1000);
            for _ in 0..5 {
                end_of_round(&mut tx);
            }
            assert_eq!(tx.cwnd(), 2.0);
        }
    }

    /// Veno: the backlog estimate discriminates random from congestion losses.
    mod veno {
        use super::*;

        fn set_rtts(tx: &mut Sender, base_ms: u64, last_ms: u64) {
            let v = veno(tx);
            v.rtts.base_rtt = Some(SimDuration::from_millis(base_ms));
            v.rtts.last_rtt = Some(SimDuration::from_millis(last_ms));
        }

        #[test]
        fn random_loss_cut_is_gentle() {
            let mut tx = mk(TcpVariant::Veno);
            grow(&mut tx, 100);
            // baseRTT == lastRTT → backlog 0 → any loss is "random".
            let before = tx.cwnd();
            dupacks(&mut tx, 3, 3, 400);
            assert!(recovering(&tx));
            // ssthresh = 4/5 of cwnd, not half.
            assert!((ssthresh(&tx) - before * 0.8).abs() < 1e-9, "ssthresh {}", ssthresh(&tx));
        }

        #[test]
        fn congestion_loss_cut_is_half() {
            let mut tx = mk(TcpVariant::Veno);
            grow(&mut tx, 100);
            // Inflate the last RTT so the backlog exceeds beta.
            set_rtts(&mut tx, 50, 500);
            let before = tx.cwnd();
            dupacks(&mut tx, 3, 3, 400);
            assert!(recovering(&tx));
            assert!((ssthresh(&tx) - before * 0.5).abs() < 1e-9, "ssthresh {}", ssthresh(&tx));
        }

        #[test]
        fn growth_slows_when_backlogged() {
            // Saturated path for `slow`, clean for `fast` — compare CA growth.
            let cfg = TcpConfig { initial_ssthresh: 1.0, ..TcpConfig::default() };
            let mut fast = mk_cfg(TcpVariant::Veno, cfg);
            let mut slow = mk_cfg(TcpVariant::Veno, cfg);
            let _ = fast.open(t(0));
            let _ = slow.open(t(0));
            fast.cwnd = 6.0;
            slow.cwnd = 6.0;
            for n in 1..=8 {
                // Keep the artificial RTT views pinned: N = 0 against N = 0.9·cwnd.
                set_rtts(&mut fast, 100, 100);
                set_rtts(&mut slow, 50, 500);
                let _ = fast.on_ack_segment(&ack(n), t(100 + n * 10));
                let _ = slow.on_ack_segment(&ack(n), t(100 + n * 10));
            }
            assert!(
                fast.cwnd() - 6.0 > slow.cwnd() - 6.0,
                "unsaturated CA must grow faster: {} vs {}",
                fast.cwnd() - 6.0,
                slow.cwnd() - 6.0
            );
        }

        #[test]
        fn backlog_estimate_matches_vegas_formula() {
            let mut tx = mk(TcpVariant::Veno);
            set_rtts(&mut tx, 100, 200);
            // N = (10/0.1 - 10/0.2) * 0.1 = 5.
            assert!((veno(&mut tx).rtts.estimate(10.0).unwrap() - 5.0).abs() < 1e-9);
            assert!(veno(&mut tx).saturated(10.0));
        }
    }

    /// Westwood+: `ssthresh = BWE × RTTmin` on loss.
    mod westwood {
        use super::*;

        #[test]
        fn bandwidth_estimate_tracks_ack_rate() {
            let mut tx = mk(TcpVariant::Westwood);
            let _ = tx.open(t(0));
            // Ack one segment every 100 ms → ~10 segments/s.
            for n in 1..=20 {
                let _ = tx.on_ack_segment(&ack(n), t(n * 100));
            }
            let w = westwood(&mut tx);
            assert!(w.bwe > 5.0 && w.bwe < 20.0, "BWE {} should be near 10/s", w.bwe);
            assert!(w.rtt_min.is_some());
        }

        #[test]
        fn loss_sets_ssthresh_to_measured_rate() {
            let mut tx = mk(TcpVariant::Westwood);
            let _ = tx.open(t(0));
            for n in 1..=10 {
                let _ = tx.on_ack_segment(&ack(n), t(n * 100));
            }
            let w = westwood(&mut tx);
            let expected = w.bwe * w.rtt_min.unwrap().as_secs_f64();
            dupacks(&mut tx, 3, 10, 1100);
            assert!(recovering(&tx));
            assert!(
                (ssthresh(&tx) - expected.max(2.0)).abs() < 1e-9,
                "ssthresh {} vs eligible {expected}",
                ssthresh(&tx)
            );
        }

        /// The window fast recovery opens with is inflated by the configured
        /// dup-ACK threshold, as for every other policy, not by a literal three.
        #[test]
        fn recovery_inflates_by_the_dupack_threshold() {
            let cfg = TcpConfig { dupack_threshold: 2, ..TcpConfig::default() };
            let mut tx = mk_cfg(TcpVariant::Westwood, cfg);
            grow(&mut tx, 100);
            let before = tx.cwnd();
            dupacks(&mut tx, 2, 3, 300);
            assert!(recovering(&tx));
            assert_eq!(tx.cwnd(), before.min(ssthresh(&tx)) + 2.0);
        }

        #[test]
        fn timeout_keeps_measured_ssthresh() {
            let mut tx = mk(TcpVariant::Westwood);
            let id = timer_id(&tx.open(t(0)));
            let out = tx.on_timer(id, t(3000));
            assert_eq!(tx.cwnd(), 1.0);
            assert!(ssthresh(&tx) >= 2.0);
            assert!(!out.is_empty());
            assert_eq!(tx.stats().timeouts, 1);
        }

        #[test]
        fn no_bwe_before_first_round() {
            let mut tx = mk(TcpVariant::Westwood);
            assert_eq!(westwood(&mut tx).bwe, 0.0);
            assert_eq!(westwood(&mut tx).eligible_window(), 2.0, "floor of two segments");
        }
    }

    /// TCP-DOOR: T1 (no congestion response after an OOO signal) and T2
    /// (instant recovery of a recent reduction).
    mod door {
        use super::*;

        fn ooo_ack(n: u64) -> TcpSegment {
            ack_with(n, None, false, true, &[])
        }

        /// cwnd 4, ssthresh 64, una 3, nxt 7.
        fn grown() -> Sender {
            let mut tx = mk(TcpVariant::Door);
            grow(&mut tx, 100);
            tx
        }

        #[test]
        fn dupacks_without_ooo_reduce_normally() {
            let mut tx = grown();
            let before = tx.cwnd();
            dupacks(&mut tx, 3, 3, 400);
            assert!(recovering(&tx));
            assert!(tx.cwnd() < before + 3.0 + 1e-9);
            assert!(ssthresh(&tx) < before, "window reduced without OOO");
        }

        #[test]
        fn ooo_disables_congestion_response() {
            let mut tx = grown();
            let ss_before = ssthresh(&tx);
            // OOO signal arrives, then a dup-ACK run inside the T1 window.
            let _ = tx.on_ack_segment(&ooo_ack(3), t(300));
            assert!(door(&mut tx).congestion_control_disabled(t(310)));
            dupacks(&mut tx, 3, 3, 310);
            assert!(recovering(&tx), "the hole is still repaired");
            assert_eq!(ssthresh(&tx), ss_before, "no reduction during T1");
        }

        #[test]
        fn instant_recovery_restores_recent_reduction() {
            let mut tx = grown();
            let before = (tx.cwnd(), ssthresh(&tx));
            // A dup-ACK run reduces the window...
            dupacks(&mut tx, 3, 3, 300);
            assert!(ssthresh(&tx) < before.1);
            // ...but an OOO signal arrives within T2: the reduction is undone.
            let _ = tx.on_ack_segment(&ooo_ack(3), t(320));
            assert!(tx.cwnd() >= before.0, "cwnd restored: {}", tx.cwnd());
            assert!(ssthresh(&tx) >= before.1, "ssthresh restored");
        }

        #[test]
        fn ooo_during_fast_recovery_ends_the_episode() {
            let mut tx = grown();
            let before = (tx.cwnd(), ssthresh(&tx));
            dupacks(&mut tx, 3, 3, 300);
            assert!(recovering(&tx));
            assert!(ssthresh(&tx) < before.1, "episode opened with a reduction");
            // OOO inside T2 undoes the reduction — and must end the episode
            // that reduction opened, or the next full ACK would set
            // cwnd = (restored) ssthresh: a silent re-reduction when ssthresh
            // was low, a wild inflation when it was restored high.
            let _ = tx.on_ack_segment(&ooo_ack(3), t(320));
            assert!(!recovering(&tx), "instant recovery must exit fast recovery");
            assert!(ssthresh(&tx) >= before.1, "ssthresh restored");
            assert!(tx.cwnd() >= before.0, "cwnd restored");
            let cw = tx.cwnd();
            let out = tx.on_ack_segment(&ack(7), t(340));
            assert!(!recovering(&tx));
            assert!(
                (tx.cwnd() - (cw + 1.0)).abs() < 1e-9,
                "full ACK grows normally instead of jumping to ssthresh: cwnd {}",
                tx.cwnd()
            );
            assert!(!out.is_empty(), "flow keeps sending after the episode");
        }

        #[test]
        fn stale_reduction_not_restored() {
            let mut tx = grown();
            dupacks(&mut tx, 3, 3, 300);
            let reduced = ssthresh(&tx);
            // OOO arrives long after T2 (srtt ≈ 100 ms here).
            let _ = tx.on_ack_segment(&ooo_ack(3), t(2_000));
            assert_eq!(ssthresh(&tx), reduced, "old reductions stand");
        }

        #[test]
        fn timeout_during_t1_keeps_window() {
            let mut tx = grown();
            let w = tx.cwnd();
            let _ = tx.on_ack_segment(&ooo_ack(3), t(300));
            // Fire the pending retransmission timer inside the T1 window.
            let id = arm(&mut tx, t(300));
            let _ = tx.on_timer(id, t(310));
            assert_eq!(tx.cwnd(), w, "timeout in T1 must not collapse the window");
            assert_eq!(tx.stats().timeouts, 1);
        }

        /// A timeout outside T1 halves the flight it found, like every
        /// other Reno-lineage policy. The standalone DOOR sender rewound
        /// `nxt` first and so halved an empty flight: `ssthresh` 2, always.
        #[test]
        fn timeout_halves_the_flight() {
            let mut tx = mk(TcpVariant::Door);
            let _ = tx.open(t(0));
            for n in 1..=7 {
                let _ = tx.on_ack_segment(&ack(n), t(90 + n * 10));
            }
            assert_eq!(tx.s.flight(), 8);
            let id = arm(&mut tx, t(200));
            let _ = tx.on_timer(id, t(3_000));
            assert_eq!((tx.cwnd(), ssthresh(&tx)), (1.0, 4.0));
        }

        /// An episode opened inside T1 without a reduction closes without
        /// one: the full ACK takes the dup-ACK inflation off again. Leaving
        /// through the shared `cwnd = ssthresh` exit took the window from 5
        /// to the untouched ssthresh of 64 and put the whole advertised
        /// window — 32 segments — on the air in one call.
        #[test]
        fn repair_without_reduction_closes_without_one() {
            let mut tx = grown();
            let before = tx.cwnd();
            let _ = tx.on_ack_segment(&ooo_ack(3), t(300));
            dupacks(&mut tx, 3, 3, 310);
            assert!(recovering(&tx));
            assert_eq!(ssthresh(&tx), 64.0, "T1: no reduction on entry");
            let out = tx.on_ack_segment(&ack(7), t(340));
            assert!(!recovering(&tx));
            assert!((tx.cwnd() - before).abs() <= 1.0, "cwnd {before} became {}", tx.cwnd());
            let sent = sent_seqs(&out).len();
            assert!(sent as f64 <= tx.cwnd(), "{sent} segments left on a window of {}", tx.cwnd());
        }
    }

    /// Muzha: Table 5.2 (window by MRAI, per RTT or per ACK) and Table 4.1
    /// (marked against unmarked dup-ACK runs, FF phase, timeout).
    mod muzha {
        use super::*;

        fn per_ack() -> Sender {
            mk_with(TcpVariant::Muzha, TcpConfig::default(), AdjustmentCadence::PerAck)
        }

        fn level_ack(n: u64, mrai: Drai) -> TcpSegment {
            ack_with(n, Some(mrai), false, false, &[])
        }

        fn marked_ack(n: u64, mrai: Drai) -> TcpSegment {
            ack_with(n, Some(mrai), true, false, &[])
        }

        /// Acks segments one by one until exactly one adjustment round
        /// completes (the ACK that reaches `round_end` triggers it).
        fn run_round(tx: &mut Sender, mrai: Drai, now_ms: u64) {
            let target = muzha(tx).round_end;
            while tx.s.una < target {
                let next = tx.s.una + 1;
                let _ = tx.on_ack_segment(&level_ack(next, mrai), t(now_ms));
            }
        }

        /// A sender grown to cwnd 8 by two rounds of aggressive acceleration.
        fn at_eight() -> Sender {
            let mut tx = mk(TcpVariant::Muzha);
            let _ = tx.open(t(0));
            for _ in 0..2 {
                run_round(&mut tx, Drai::AggressiveAcceleration, 100);
            }
            assert_eq!(tx.cwnd(), 8.0);
            tx
        }

        #[test]
        fn per_ack_cadence_matches_per_rtt_over_a_round() {
            // With constant AggressiveAcceleration, PerAck (+1/ack) doubles the
            // window over one round, same as PerRtt's single x2.
            let mut tx = per_ack();
            assert_eq!(muzha(&mut tx).cadence, AdjustmentCadence::PerAck);
            let _ = tx.open(t(0));
            assert_eq!(tx.cwnd(), 2.0);
            let _ = tx.on_ack_segment(&level_ack(1, Drai::AggressiveAcceleration), t(100));
            let _ = tx.on_ack_segment(&level_ack(2, Drai::AggressiveAcceleration), t(101));
            assert_eq!(tx.cwnd(), 4.0, "two ACKs at +1 each = one doubling");
        }

        #[test]
        fn per_ack_deceleration_is_gradual() {
            let mut tx = per_ack();
            let _ = tx.open(t(0));
            let w0 = tx.cwnd();
            let _ = tx.on_ack_segment(&level_ack(1, Drai::ModerateDeceleration), t(100));
            assert!(tx.cwnd() < w0 && tx.cwnd() > w0 - 1.0, "fractional step");
            // Aggressive deceleration loses half a segment per ACK.
            let w1 = tx.cwnd();
            let _ = tx.on_ack_segment(&level_ack(2, Drai::AggressiveDeceleration), t(101));
            assert!((tx.cwnd() - (w1 - 0.5)).abs() < 1e-9);
        }

        #[test]
        fn opens_in_ca_with_two_segments() {
            let mut tx = mk(TcpVariant::Muzha);
            let out = tx.open(t(0));
            assert_eq!(sent_seqs(&out), vec![0, 1]);
            assert!(!recovering(&tx));
            assert_eq!((tx.phase(), tx.ssthresh()), ("rate-guided", None));
            // Data segments carry the AVBW-S option.
            let TcpOutput::SendSegment(seg) = &out[0] else { unreachable!() };
            assert_eq!(seg.avbw(), Some(Drai::MAX));
        }

        #[test]
        fn aggressive_acceleration_doubles_per_round() {
            let mut tx = mk(TcpVariant::Muzha);
            let _ = tx.open(t(0));
            run_round(&mut tx, Drai::AggressiveAcceleration, 100);
            assert_eq!(tx.cwnd(), 4.0);
            run_round(&mut tx, Drai::AggressiveAcceleration, 200);
            assert_eq!(tx.cwnd(), 8.0);
        }

        #[test]
        fn moderate_acceleration_adds_one_per_round() {
            let mut tx = mk(TcpVariant::Muzha);
            let _ = tx.open(t(0));
            run_round(&mut tx, Drai::ModerateAcceleration, 100);
            assert_eq!(tx.cwnd(), 3.0);
            run_round(&mut tx, Drai::ModerateAcceleration, 200);
            assert_eq!(tx.cwnd(), 4.0);
        }

        #[test]
        fn stabilizing_holds() {
            let mut tx = mk(TcpVariant::Muzha);
            let _ = tx.open(t(0));
            run_round(&mut tx, Drai::Stabilizing, 100);
            run_round(&mut tx, Drai::Stabilizing, 200);
            assert_eq!(tx.cwnd(), 2.0);
        }

        #[test]
        fn decelerations_shrink() {
            let mut tx = mk(TcpVariant::Muzha);
            let _ = tx.open(t(0));
            for _ in 0..3 {
                run_round(&mut tx, Drai::AggressiveAcceleration, 100);
            }
            let w = tx.cwnd();
            run_round(&mut tx, Drai::ModerateDeceleration, 200);
            assert_eq!(tx.cwnd(), w - 1.0);
            let w = tx.cwnd();
            run_round(&mut tx, Drai::AggressiveDeceleration, 300);
            assert_eq!(tx.cwnd(), w / 2.0);
        }

        #[test]
        fn window_never_below_one_and_capped_by_awnd() {
            let cfg = TcpConfig { advertised_window: 8, ..TcpConfig::default() };
            let mut tx = mk_cfg(TcpVariant::Muzha, cfg);
            let _ = tx.open(t(0));
            for i in 0..10 {
                run_round(&mut tx, Drai::AggressiveAcceleration, 100 * (i + 1));
            }
            assert_eq!(tx.cwnd(), 8.0, "capped at the advertised window");
            for i in 0..10 {
                run_round(&mut tx, Drai::AggressiveDeceleration, 2000 + 100 * i);
            }
            assert_eq!(tx.cwnd(), 1.0, "floor of one segment");
        }

        #[test]
        fn round_uses_worst_mrai() {
            let mut tx = mk(TcpVariant::Muzha);
            let _ = tx.open(t(0));
            // Two ACKs in one round: one says accelerate, one says decelerate.
            let _ = tx.on_ack_segment(&level_ack(1, Drai::AggressiveAcceleration), t(100));
            let _ = tx.on_ack_segment(&level_ack(2, Drai::ModerateDeceleration), t(101));
            // Worst recommendation governs: 2 - 1 = 1... but the round closed at
            // the first ack >= round_end (2). Verify the result is <= hold.
            assert!(tx.cwnd() <= 2.0, "cwnd = {}", tx.cwnd());
        }

        #[test]
        fn marked_dupacks_halve_window() {
            let mut tx = at_eight();
            for _ in 0..2 {
                let _ =
                    tx.on_ack_segment(&marked_ack(tx.s.una, Drai::ModerateDeceleration), t(300));
            }
            let out = tx.on_ack_segment(&marked_ack(tx.s.una, Drai::ModerateDeceleration), t(301));
            assert!(recovering(&tx));
            assert_eq!(tx.phase(), "fast-recovery");
            assert_eq!(tx.cwnd(), 4.0, "congestion loss halves");
            assert_eq!(sent_seqs(&out)[0], tx.s.una, "hole retransmitted");
            assert_eq!(tx.stats().fast_retransmits, 1);
        }

        #[test]
        fn unmarked_dupacks_keep_window() {
            let mut tx = at_eight();
            for _ in 0..2 {
                let _ = tx.on_ack_segment(&level_ack(tx.s.una, Drai::Stabilizing), t(300));
            }
            let out = tx.on_ack_segment(&level_ack(tx.s.una, Drai::Stabilizing), t(301));
            assert!(recovering(&tx));
            assert_eq!(tx.cwnd(), 8.0, "random loss must not shrink the window");
            assert_eq!(sent_seqs(&out)[0], tx.s.una);
            assert_eq!(tx.stats().retransmissions, 1);
        }

        #[test]
        fn mixed_run_majority_marked_counts_as_congestion() {
            let mut tx = at_eight();
            // Two marked + one unmarked: majority marked → congestion.
            let _ = tx.on_ack_segment(&marked_ack(tx.s.una, Drai::Stabilizing), t(300));
            let _ = tx.on_ack_segment(&marked_ack(tx.s.una, Drai::Stabilizing), t(301));
            let _ = tx.on_ack_segment(&level_ack(tx.s.una, Drai::Stabilizing), t(302));
            assert!(recovering(&tx));
            assert_eq!(tx.cwnd(), 4.0);
        }

        #[test]
        fn ff_exit_on_full_ack() {
            let mut tx = at_eight();
            for _ in 0..3 {
                let _ = tx.on_ack_segment(&marked_ack(tx.s.una, Drai::Stabilizing), t(300));
            }
            assert!(recovering(&tx));
            let point = tx.recovery_point.unwrap();
            let _ = tx.on_ack_segment(&level_ack(point, Drai::Stabilizing), t(400));
            assert!(!recovering(&tx));
            assert_eq!(tx.cwnd(), 4.0, "the window halved on entry stays where it is");
        }

        #[test]
        fn partial_ack_retransmits_in_ff() {
            let mut tx = at_eight();
            for _ in 0..3 {
                let _ = tx.on_ack_segment(&marked_ack(tx.s.una, Drai::Stabilizing), t(300));
            }
            let point = tx.recovery_point.unwrap();
            let partial = tx.s.una + 2;
            assert!(partial < point);
            let out = tx.on_ack_segment(&level_ack(partial, Drai::Stabilizing), t(400));
            assert!(recovering(&tx));
            assert_eq!(sent_seqs(&out)[0], partial, "hole retransmitted on partial ACK");
        }

        #[test]
        fn timeout_resets_to_one_stays_ca() {
            let mut tx = mk(TcpVariant::Muzha);
            let id = timer_id(&tx.open(t(0)));
            let out = tx.on_timer(id, t(3000));
            assert_eq!(tx.cwnd(), 1.0);
            assert!(!recovering(&tx));
            assert_eq!(sent_seqs(&out), vec![0]);
            assert_eq!(tx.stats().timeouts, 1);
        }

        #[test]
        fn no_mrai_means_no_adjustment() {
            let mut tx = mk(TcpVariant::Muzha);
            let _ = tx.open(t(0));
            // Plain ACKs without the option (e.g. a misconfigured receiver).
            let _ = tx.on_ack_segment(&ack(1), t(100));
            let _ = tx.on_ack_segment(&ack(2), t(101));
            assert_eq!(tx.cwnd(), 2.0, "window holds without feedback");
        }
    }
}
