//! Per-node PHY reception state machine.

use sim_core::SimTime;

/// Identifies one over-the-air transmission (one frame, all its receivers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// The result of a completed reception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxOutcome {
    /// The frame arrived intact and can be handed to the MAC.
    Decoded,
    /// The frame overlapped another signal at this receiver (or the receiver
    /// was transmitting) and was corrupted.
    CollisionLost,
    /// The signal was sensed (energy) but was never decodable here: sender
    /// out of tx range, or the frame was corrupted by random channel error.
    NotDecodable,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Reception {
    tx_id: TxId,
    decodable: bool,
    corrupted: bool,
    power: f64,
    /// The `(time, seq)` key of this signal's end edge while that edge is
    /// parked here (see [`Arrival::parked_end`]).
    parked_end: Option<(SimTime, u64)>,
}

/// A signal on its way to a receiver: announced when the frame went on the
/// air, its leading edge not yet applied to the receiver's state.
///
/// `(start, seq)` is the key of the scheduler entry the start edge would
/// have been — `seq` is taken from the event queue at announce time
/// (`EventQueue::reserve_seq`) — so a driver can order the edge against
/// queued work exactly as the queue would have.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the leading edge reaches the receiver.
    pub start: SimTime,
    /// The edge's place in the scheduler's FIFO order.
    pub seq: u64,
    /// The transmission the signal belongs to.
    pub tx_id: TxId,
    /// When the trailing edge reaches the receiver.
    pub end: SimTime,
    /// See [`PhyState::on_rx_start`].
    pub decodable: bool,
    /// Relative received power.
    pub power: f64,
    /// `Some(seq)` parks the signal's end edge with it: no scheduler entry
    /// stands for that edge, [`PhyState::settle`] applies it under the key
    /// `(end, seq)`, and [`PhyState::unpark_ends`] hands it back for queueing
    /// under that key if it has to become an entry after all. For a signal
    /// that is sensed and never decodable only — the end of such a signal
    /// has no outcome to report — and only where nobody cares when the
    /// medium goes idle at that edge: a station with no packet to send, or
    /// one whose medium is sure to be busy then anyway
    /// ([`PhyState::covers`]). `None`: the driver delivers the end edge
    /// itself ([`PhyState::on_rx_end`]).
    pub parked_end: Option<u64>,
}

impl Arrival {
    fn key(&self) -> (SimTime, u64) {
        (self.start, self.seq)
    }
}

/// A signal edge [`PhyState::settle`] has just applied, reported with the
/// radio as it stands after it, for the caller's own bookkeeping of the same
/// edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// A leading edge: the signal occupies the medium here over
    /// `start..end`.
    Start {
        /// The transmission the signal belongs to.
        tx_id: TxId,
        /// The edge's own instant.
        start: SimTime,
        /// When the signal will have passed.
        end: SimTime,
    },
    /// The parked trailing edge of a signal that was sensed and could not
    /// be decoded.
    End {
        /// The transmission the signal belonged to.
        tx_id: TxId,
        /// The edge's own instant.
        at: SimTime,
    },
}

/// The radio state of one node: whether it is transmitting, which signals
/// currently impinge on it, which are about to, and whether its
/// carrier-sense reports busy.
///
/// A start edge touches nothing but this receiver, so it need not be a
/// scheduler event of its own: [`Self::announce`] parks it and
/// [`Self::settle`] applies, in `(time, seq)` order, every parked edge that
/// precedes a given scheduler key. The end edge of a signal nobody here can
/// decode may be parked with it ([`Arrival::parked_end`]). A driver that
/// settles a node before each piece of work it runs there leaves the node in
/// exactly the state eager [`Self::on_rx_start`] and [`Self::on_rx_end`]
/// calls at each edge's own instant would have.
///
/// The collision model includes *capture*, mirroring ns-2's wireless PHY:
/// when two signals overlap at a receiver, the earlier one survives if it is
/// at least `CAPTURE_RATIO` times stronger than the newcomer (the receiver
/// stays locked on); a newcomer that much stronger than the current signal
/// corrupts both (the receiver cannot re-lock mid-frame); comparable powers
/// corrupt both. A node that is transmitting cannot decode anything
/// (half duplex).
///
/// # Example
///
/// ```
/// use phy::{PhyState, RxOutcome, TxId};
/// use sim_core::SimTime;
///
/// let mut phy = PhyState::new();
/// let t0 = SimTime::from_nanos(0);
/// let t1 = SimTime::from_nanos(1_000);
/// phy.on_rx_start(TxId(1), t0, t1, true, 1.0);
/// assert!(phy.carrier_busy(t0));
/// assert_eq!(phy.on_rx_end(TxId(1), t1), Some(RxOutcome::Decoded));
/// assert!(!phy.carrier_busy(t1));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhyState {
    transmitting_until: Option<SimTime>,
    receptions: Vec<Reception>,
    /// Announced signals whose start edge is still to be applied, sorted by
    /// `(start, seq)`.
    pending: Vec<Arrival>,
    /// Latest instant at which any sensed signal (decodable or not) ends.
    energy_until: SimTime,
}

/// Power ratio above which the stronger frame survives an overlap (ns-2's
/// `CPThresh_`, 10 = 10 dB).
const CAPTURE_RATIO: f64 = 10.0;

impl PhyState {
    /// Creates an idle radio.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the node as transmitting until `until`.
    ///
    /// Any reception in progress is corrupted (the radio is half duplex).
    ///
    /// # Panics
    ///
    /// Panics if the node is already transmitting — the MAC must serialise
    /// its own transmissions.
    pub fn begin_transmit(&mut self, now: SimTime, until: SimTime) {
        assert!(!self.is_transmitting(now), "PHY asked to transmit while already transmitting");
        for r in &mut self.receptions {
            r.corrupted = true;
        }
        self.transmitting_until = Some(until);
    }

    /// Whether the node's own transmission is still on the air.
    #[inline]
    pub fn is_transmitting(&self, now: SimTime) -> bool {
        self.transmitting_until.is_some_and(|t| now < t)
    }

    /// Registers the start of an incoming signal with relative received
    /// `power` (any consistent unit; only ratios matter).
    ///
    /// `decodable` is false when the sender is out of tx range or the frame
    /// was corrupted by random channel error; such signals still interfere.
    /// Capture rule per overlapping pair (ns-2 semantics): the ongoing
    /// reception survives a newcomer weaker by at least the capture ratio;
    /// any other overlap corrupts both.
    pub fn on_rx_start(
        &mut self,
        tx_id: TxId,
        now: SimTime,
        end: SimTime,
        decodable: bool,
        power: f64,
    ) {
        self.start_reception(tx_id, now, end, decodable, power, None);
    }

    fn start_reception(
        &mut self,
        tx_id: TxId,
        now: SimTime,
        end: SimTime,
        decodable: bool,
        power: f64,
        parked_end: Option<(SimTime, u64)>,
    ) {
        let corrupted_by_tx = self.is_transmitting(now);
        let mut new_corrupted = corrupted_by_tx;
        for r in &mut self.receptions {
            if r.power >= power * CAPTURE_RATIO {
                // Receiver stays locked on the clearly stronger signal;
                // the weak newcomer is lost, the current frame survives.
                new_corrupted = true;
            } else {
                // Comparable power, or a late stronger arrival: the
                // receiver cannot separate them — both are lost.
                r.corrupted = true;
                new_corrupted = true;
            }
        }
        self.receptions.push(Reception {
            tx_id,
            decodable,
            corrupted: new_corrupted,
            power,
            parked_end,
        });
        self.energy_until = self.energy_until.max(end);
    }

    /// Parks a signal whose start edge [`Self::settle`] will apply.
    #[inline]
    pub fn announce(&mut self, arrival: Arrival) {
        // Edges mostly arrive in the order they were announced: walk back
        // only past the ones a nearer sender has overtaken.
        let at = self.pending.iter().rposition(|a| a.key() < arrival.key()).map_or(0, |i| i + 1);
        self.pending.insert(at, arrival);
    }

    /// Applies, in `(time, seq)` order, every parked edge that precedes the
    /// scheduler key `(time, seq)` — the start edge of each announced signal
    /// ([`Self::on_rx_start`] stamped with the arrival's own `start`) and the
    /// end edges parked with signals ([`Self::on_rx_end`] at the edge's own
    /// instant, its outcome always [`RxOutcome::NotDecodable`]) — calling
    /// `on_edge` after each, with the radio as that edge left it, for the
    /// caller's bookkeeping of the same edge. Returns how many edges that
    /// was.
    ///
    /// With `radio_on` false the due arrivals reach a receiver that is
    /// switched off and are dropped unheard, each taking its parked end with
    /// it (both are counted). Such a receiver tracks no signal
    /// ([`Self::radio_off`]), so no end edge is parked at it.
    #[inline]
    pub fn settle(
        &mut self,
        time: SimTime,
        seq: u64,
        radio_on: bool,
        on_edge: impl FnMut(&PhyState, Edge),
    ) -> usize {
        let key = (time, seq);
        let start_due = self.pending.first().is_some_and(|a| a.key() < key);
        if !start_due && self.next_parked_end().is_none_or(|(end, _)| end >= key) {
            return 0;
        }
        self.settle_due(key, radio_on, on_edge)
    }

    fn settle_due(
        &mut self,
        key: (SimTime, u64),
        radio_on: bool,
        mut on_edge: impl FnMut(&PhyState, Edge),
    ) -> usize {
        if !radio_on {
            let due = self.pending.iter().take_while(|a| a.key() < key).count();
            return self
                .pending
                .drain(..due)
                .map(|a| 1 + usize::from(a.parked_end.is_some()))
                .sum();
        }
        // `pending[..started]` has been applied; an applied start can park
        // an end that is due in this same pass.
        let (mut started, mut edges) = (0, 0);
        loop {
            let start = self.pending.get(started).copied().filter(|a| a.key() < key);
            let end = self.next_parked_end().filter(|&(end, _)| end < key);
            match (start, end) {
                (Some(a), end) if end.is_none_or(|(end, _)| a.key() < end) => {
                    let parked_end = a.parked_end.map(|seq| (a.end, seq));
                    self.start_reception(a.tx_id, a.start, a.end, a.decodable, a.power, parked_end);
                    on_edge(self, Edge::Start { tx_id: a.tx_id, start: a.start, end: a.end });
                    started += 1;
                }
                (_, Some(((at, _), idx))) => {
                    let r = self.receptions.swap_remove(idx);
                    debug_assert!(!r.decodable, "the end of a decodable signal was parked");
                    on_edge(self, Edge::End { tx_id: r.tx_id, at });
                }
                (_, None) => break,
            }
            edges += 1;
        }
        self.pending.drain(..started);
        edges
    }

    /// The earliest end edge parked on a signal being tracked, and where.
    fn next_parked_end(&self) -> Option<((SimTime, u64), usize)> {
        self.receptions.iter().enumerate().filter_map(|(i, r)| Some((r.parked_end?, i))).min()
    }

    /// Takes back every end edge parked at this receiver — on a signal it is
    /// tracking or on one still to arrive — handing `queue` the edge's
    /// `(time, seq)` key and transmission: from now on the driver delivers
    /// each of them itself ([`Self::on_rx_end`]), as a scheduler entry under
    /// that key. For the moment the receiving station starts to care about
    /// *when* a medium goes idle, which a lazily applied edge cannot tell it.
    pub fn unpark_ends(&mut self, mut queue: impl FnMut(SimTime, u64, TxId)) {
        for r in &mut self.receptions {
            if let Some((end, seq)) = r.parked_end.take() {
                queue(end, seq, r.tx_id);
            }
        }
        for a in &mut self.pending {
            if let Some(seq) = a.parked_end.take() {
                queue(a.end, seq, a.tx_id);
            }
        }
    }

    /// Whether the medium here is sure to be busy just after the end edge
    /// keyed `(end, seq)`, whatever else happens before it, unless the radio
    /// is switched off first: the node's own transmission lasts past `end`,
    /// or sensed energy does, or a signal does whose start edge comes before
    /// that key. Sensed energy only grows until [`Self::radio_off`], and a
    /// start edge due before the key is applied before it, so an edge parked
    /// under cover finds the medium busy when it is applied. Unapplied edges
    /// do not change the answer: a signal still to arrive counts here as
    /// the energy it becomes. For the end of a signal already announced,
    /// that signal does not cover its own end.
    pub fn covers(&self, end: SimTime, seq: u64) -> bool {
        self.transmitting_until.is_some_and(|t| t > end)
            || self.energy_until > end
            || self.pending.iter().any(|a| a.key() < (end, seq) && a.end > end)
    }

    /// Every end edge parked here, as `(transmission, time, seq)`: those of
    /// signals being tracked, then those of signals still to arrive.
    pub fn parked_ends(&self) -> impl Iterator<Item = (TxId, SimTime, u64)> + '_ {
        let tracked = self.receptions.iter().filter_map(|r| {
            let (end, seq) = r.parked_end?;
            Some((r.tx_id, end, seq))
        });
        tracked.chain(self.pending.iter().filter_map(|a| Some((a.tx_id, a.end, a.parked_end?))))
    }

    /// The announced signals whose start edge is still to come, in
    /// `(start, seq)` order.
    pub fn pending(&self) -> &[Arrival] {
        &self.pending
    }

    /// Completes a reception and reports its outcome, or `None` when the
    /// radio is not tracking `tx_id`: it was switched off
    /// ([`Self::radio_off`]) after the signal started, or was off when it
    /// did. Such an end edge means nothing to this receiver and the caller
    /// ignores it.
    #[inline]
    pub fn on_rx_end(&mut self, tx_id: TxId, _now: SimTime) -> Option<RxOutcome> {
        let idx = self.receptions.iter().position(|r| r.tx_id == tx_id)?;
        let r = self.receptions.swap_remove(idx);
        Some(if !r.decodable {
            RxOutcome::NotDecodable
        } else if r.corrupted {
            RxOutcome::CollisionLost
        } else {
            RxOutcome::Decoded
        })
    }

    /// Switches the receiver off (a paused or crashed node): every signal it
    /// was tracking and its sensed-energy horizon are forgotten, so carrier
    /// sense reads idle when it comes back. The end edges of the forgotten
    /// signals still arrive and find nothing ([`Self::on_rx_end`] returns
    /// `None`), and the ones parked here go with their signals: the return
    /// value is how many of those there were, edges dropped like the ones
    /// [`Self::settle`] counts. Signals announced but still in flight are
    /// dropped when their edge comes due, if the radio is still off then
    /// ([`Self::settle`] with `radio_on` false), and otherwise heard as usual;
    /// but the end edges parked on them are handed to `queue` as
    /// [`Self::unpark_ends`] hands them, since forgetting energy can take
    /// away the cover an edge was parked under ([`Self::covers`]). A radio
    /// switched off parks nothing. The node's own transmission, if one is on
    /// the air, is not this receiver's business and runs out by itself.
    pub fn radio_off(&mut self, queue: impl FnMut(SimTime, u64, TxId)) -> usize {
        let parked = self.receptions.iter().filter(|r| r.parked_end.is_some()).count();
        self.receptions.clear();
        self.energy_until = SimTime::ZERO;
        self.unpark_ends(queue);
        parked
    }

    /// Physical carrier sense: busy while transmitting or while any sensed
    /// signal is on the air.
    #[inline]
    pub fn carrier_busy(&self, now: SimTime) -> bool {
        self.is_transmitting(now) || !self.receptions.is_empty() || now < self.energy_until
    }

    /// The earliest instant at which the medium could be idle again given
    /// current knowledge (own tx end vs. sensed energy end).
    pub fn idle_at(&self, now: SimTime) -> SimTime {
        let tx_end = self.transmitting_until.filter(|&t| t > now).unwrap_or(now);
        tx_end.max(self.energy_until).max(now)
    }

    /// Number of signals currently impinging on this node (test/diagnostic).
    pub fn active_receptions(&self) -> usize {
        self.receptions.len()
    }
}

sim_core::snap_record! { TxId { 0 } }

// Only the end of a signal nobody here can decode is ever parked: `settle`
// applies a parked end without looking at an outcome.
sim_core::snap_record! {
    Reception { tx_id, decodable, corrupted, power, parked_end }
    check |r| !(r.decodable && r.parked_end.is_some()) => "parked end of a decodable signal";
}

sim_core::snap_record! {
    Arrival { start, seq, tx_id, end, decodable, power, parked_end }
    check |a| a.start <= a.end => "pending arrival ends before it starts";
    check |a| a.power.is_finite() => "pending arrival power";
    check |a| !(a.decodable && a.parked_end.is_some()) => "parked end of a decodable signal";
    // `settle` applies edges in key order: a signal must start before it ends.
    check |a| a.parked_end.is_none_or(|seq| a.key() < (a.end, seq))
        => "parked end not after its start";
}

sim_core::snap_record! {
    PhyState { transmitting_until, receptions, pending, energy_until }
    // `settle` stops at the first entry that is not due.
    check |p| p.pending.windows(2).all(|w| matches!(w, [a, b] if a.key() < b.key()))
        => "pending arrivals out of order";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn clean_reception_decodes() {
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        assert_eq!(phy.active_receptions(), 1);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::Decoded));
        assert_eq!(phy.active_receptions(), 0);
    }

    #[test]
    fn overlapping_receptions_collide() {
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        phy.on_rx_start(TxId(2), t(50), t(150), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::CollisionLost));
        assert_eq!(phy.on_rx_end(TxId(2), t(150)), Some(RxOutcome::CollisionLost));
    }

    #[test]
    fn interference_from_undecodable_signal_still_corrupts() {
        let mut phy = PhyState::new();
        // A far-away (carrier-sense-only) signal...
        phy.on_rx_start(TxId(1), t(0), t(100), false, 1.0);
        // ...overlaps a frame we would otherwise decode.
        phy.on_rx_start(TxId(2), t(10), t(90), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(2), t(90)), Some(RxOutcome::CollisionLost));
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::NotDecodable));
    }

    #[test]
    fn sequential_receptions_both_decode() {
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::Decoded));
        phy.on_rx_start(TxId(2), t(100), t(200), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(2), t(200)), Some(RxOutcome::Decoded));
    }

    #[test]
    fn transmission_corrupts_concurrent_reception() {
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        phy.begin_transmit(t(10), t(50));
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::CollisionLost));
    }

    #[test]
    fn reception_starting_during_tx_is_lost() {
        let mut phy = PhyState::new();
        phy.begin_transmit(t(0), t(100));
        phy.on_rx_start(TxId(1), t(50), t(150), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(150)), Some(RxOutcome::CollisionLost));
    }

    #[test]
    fn reception_after_tx_ends_is_fine() {
        let mut phy = PhyState::new();
        phy.begin_transmit(t(0), t(100));
        phy.on_rx_start(TxId(1), t(100), t(200), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(200)), Some(RxOutcome::Decoded));
    }

    #[test]
    fn random_loss_is_not_decodable() {
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(1), t(0), t(100), false, 1.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::NotDecodable));
    }

    #[test]
    fn carrier_sense_tracks_energy() {
        let mut phy = PhyState::new();
        assert!(!phy.carrier_busy(t(0)));
        phy.on_rx_start(TxId(1), t(0), t(100), false, 1.0);
        assert!(phy.carrier_busy(t(50)));
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::NotDecodable));
        assert!(!phy.carrier_busy(t(100)));
        assert_eq!(phy.idle_at(t(100)), t(100));
    }

    #[test]
    fn idle_at_accounts_for_tx_and_energy() {
        let mut phy = PhyState::new();
        phy.begin_transmit(t(0), t(100));
        assert_eq!(phy.idle_at(t(10)), t(100));
        phy.on_rx_start(TxId(1), t(20), t(150), false, 1.0);
        assert_eq!(phy.idle_at(t(30)), t(150));
        let _ = phy.on_rx_end(TxId(1), t(150));
        assert_eq!(phy.idle_at(t(200)), t(200));
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn double_transmit_panics() {
        let mut phy = PhyState::new();
        phy.begin_transmit(t(0), t(100));
        phy.begin_transmit(t(10), t(50));
    }

    #[test]
    fn radio_off_forgets_signals_and_their_end_edges_find_nothing() {
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        phy.on_rx_start(TxId(2), t(10), t(300), false, 1.0);
        phy.radio_off(|_, _, _| unreachable!("nothing is parked"));
        assert_eq!(phy.active_receptions(), 0);
        assert!(!phy.carrier_busy(t(20)), "no reception and no energy horizon left");
        assert_eq!(phy.idle_at(t(20)), t(20));
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), None);
        // Back on: a fresh frame is received as on an idle radio.
        phy.on_rx_start(TxId(3), t(120), t(200), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(3), t(200)), Some(RxOutcome::Decoded));
        assert_eq!(phy.on_rx_end(TxId(2), t(300)), None);
    }

    fn edge(start: u64, seq: u64, tx: u64, end: u64) -> Arrival {
        Arrival {
            start: t(start),
            seq,
            tx_id: TxId(tx),
            end: t(end),
            decodable: true,
            power: 1.0,
            parked_end: None,
        }
    }

    /// A sense-only signal whose end edge is parked under `end_seq`.
    fn sensed(start: u64, seq: u64, tx: u64, end: u64, end_seq: u64) -> Arrival {
        Arrival { decodable: false, parked_end: Some(end_seq), ..edge(start, seq, tx, end) }
    }

    /// `settle`'s report as a test reads it: `+tx` for a start, `-tx` for
    /// an end.
    fn signed(edge: Edge) -> i64 {
        match edge {
            Edge::Start { tx_id, .. } => tx_id.0 as i64,
            Edge::End { tx_id, .. } => -(tx_id.0 as i64),
        }
    }

    #[test]
    fn settle_applies_what_precedes_the_key_in_key_order() {
        let mut phy = PhyState::new();
        // Announced out of key order: a nearer sender overtakes.
        phy.announce(edge(50, 0, 1, 150));
        phy.announce(edge(40, 2, 2, 140));
        phy.announce(edge(50, 4, 3, 150));
        let keys = |phy: &PhyState| phy.pending().iter().map(|a| a.seq).collect::<Vec<_>>();
        assert_eq!(keys(&phy), [2, 0, 4]);
        let mut heard = Vec::new();
        // An event at t = 50 with seq 3 sits between the two t = 50 edges.
        assert_eq!(phy.settle(t(50), 3, true, |_, e| heard.push(signed(e))), 2);
        assert_eq!(heard, [2, 1]);
        assert_eq!(keys(&phy), [4], "the edge behind the key stays parked");
        assert_eq!(phy.active_receptions(), 2);
        assert!(phy.carrier_busy(t(50)));
        assert_eq!(phy.settle(t(50), 3, true, |_, _| unreachable!("nothing new is due")), 0);
        assert_eq!(
            phy.settle(t(50), 4, true, |_, _| unreachable!("a key is not before itself")),
            0
        );
        phy.settle(t(50), u64::MAX, true, |_, e| heard.push(signed(e)));
        assert_eq!(heard, [2, 1, 3]);
        assert!(phy.pending().is_empty());
    }

    /// Parked end edges are merged with the start edges by key: an end at
    /// the instant another signal starts goes first or second by `seq`, and
    /// one pass can start a signal and end it.
    #[test]
    fn settle_merges_parked_ends_with_starts_by_key() {
        let mut phy = PhyState::new();
        phy.announce(sensed(10, 0, 1, 60, 1));
        phy.announce(sensed(20, 2, 2, 40, 3));
        phy.announce(edge(60, 4, 3, 90)); // starts as signal 1 ends, queued after it
        phy.announce(sensed(40, 6, 4, 95, 7)); // starts as signal 2 ends, queued after it
        let mut seen = Vec::new();
        assert_eq!(phy.settle(t(15), 0, true, |_, e| seen.push(signed(e))), 1);
        assert_eq!(seen, [1]);
        assert_eq!(phy.parked_ends().map(|(tx, ..)| tx.0).collect::<Vec<_>>(), [1, 2, 4]);
        assert_eq!(phy.settle(t(60), 4, true, |_, e| seen.push(signed(e))), 4);
        assert_eq!(seen, [1, 2, -2, 4, -1], "signal 3's own key is the bound");
        assert_eq!(phy.active_receptions(), 1);
        assert_eq!(phy.settle(t(1000), 0, true, |_, e| seen.push(signed(e))), 2);
        assert_eq!(seen, [1, 2, -2, 4, -1, 3, -4]);
        assert!(phy.carrier_busy(t(80)) && phy.parked_ends().next().is_none());
        assert_eq!(phy.on_rx_end(TxId(3), t(90)), Some(RxOutcome::CollisionLost));
        assert!(!phy.carrier_busy(t(95)));
    }

    /// An unparked end is the driver's to deliver: `settle` leaves the
    /// signal alone and `on_rx_end` finds it, whether it had started or not.
    #[test]
    fn unparked_ends_are_left_to_the_driver() {
        let mut phy = PhyState::new();
        phy.announce(sensed(10, 0, 1, 60, 1));
        phy.announce(sensed(30, 2, 2, 70, 3));
        phy.settle(t(20), 0, true, |_, _| {});
        let mut queued = Vec::new();
        phy.unpark_ends(|end, seq, tx| queued.push((end, seq, tx.0)));
        assert_eq!(queued, [(t(60), 1, 1), (t(70), 3, 2)]);
        assert!(phy.parked_ends().next().is_none());
        phy.unpark_ends(|_, _, _| unreachable!("nothing is parked any more"));
        let mut seen = Vec::new();
        phy.settle(t(1000), 0, true, |_, e| seen.push(signed(e)));
        assert_eq!(seen, [2], "only the start edge still in flight");
        assert_eq!(phy.active_receptions(), 2);
        assert_eq!(phy.on_rx_end(TxId(1), t(60)), Some(RxOutcome::NotDecodable));
        assert_eq!(phy.on_rx_end(TxId(2), t(70)), Some(RxOutcome::NotDecodable));
    }

    #[test]
    fn edges_due_while_the_radio_is_off_are_dropped_unheard() {
        let mut phy = PhyState::new();
        phy.announce(edge(10, 0, 1, 100));
        phy.announce(sensed(15, 2, 3, 25, 3));
        phy.announce(edge(30, 4, 2, 130));
        let dropped =
            phy.settle(t(20), 0, false, |_, _| unreachable!("an off radio hears nothing"));
        assert_eq!(dropped, 3, "two start edges and the end parked with one of them");
        assert_eq!(phy.active_receptions(), 0);
        assert!(!phy.carrier_busy(t(20)));
        assert_eq!(phy.pending().len(), 1, "the edge still in flight is not touched");
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), None);
        assert_eq!(phy.settle(t(40), 0, true, |_, _| {}), 1);
        assert_eq!(phy.on_rx_end(TxId(2), t(130)), Some(RxOutcome::Decoded));
    }

    /// Switching the receiver off forgets the tracked signals with the end
    /// edges parked on them, and hands back the ones parked on a signal still
    /// in flight: that signal is heard if the radio is back on in time, and
    /// its end edge, perhaps parked under the cover of energy just forgotten,
    /// is the driver's to deliver.
    #[test]
    fn radio_off_forgets_parked_ends_with_their_signals() {
        let mut phy = PhyState::new();
        phy.announce(sensed(10, 0, 1, 60, 1));
        phy.announce(sensed(50, 2, 2, 90, 3));
        phy.settle(t(20), 0, true, |_, _| {});
        let mut queued = Vec::new();
        assert_eq!(phy.radio_off(|end, seq, tx| queued.push((end, seq, tx.0))), 1);
        assert_eq!(queued, [(t(90), 3, 2)]);
        assert!(phy.parked_ends().next().is_none(), "a radio switched off parks nothing");
        let mut seen = Vec::new();
        assert_eq!(phy.settle(t(1000), 0, true, |_, e| seen.push(signed(e))), 1);
        assert_eq!(seen, [2], "signal 1's end has nothing to end, signal 2's is queued");
        assert_eq!(phy.on_rx_end(TxId(2), t(90)), Some(RxOutcome::NotDecodable));
        assert!(!phy.carrier_busy(t(90)));
    }

    /// What covers an end edge: the node's own transmission, sensed energy,
    /// or a signal whose start edge is keyed before the end's, lasting past
    /// the end's instant — strictly, each of them.
    #[test]
    fn an_end_is_covered_by_whatever_is_sure_to_outlast_it() {
        let mut phy = PhyState::new();
        assert!(!phy.covers(t(50), 9));
        phy.begin_transmit(t(0), t(100));
        assert!(phy.covers(t(99), 9));
        assert!(!phy.covers(t(100), 9), "the transmission ends with the edge");
        phy.on_rx_start(TxId(1), t(10), t(150), false, 1.0);
        assert!(phy.covers(t(149), 9) && !phy.covers(t(150), 9));
        phy.announce(edge(200, 4, 2, 300));
        assert!(phy.covers(t(200), 5), "a signal starting at the edge's instant, keyed first");
        assert!(!phy.covers(t(200), 3), "keyed after the edge");
        assert!(!phy.covers(t(300), 5), "a signal does not outlast its own end");
        phy.radio_off(|_, _, _| unreachable!("nothing is parked"));
        assert!(!phy.covers(t(149), 9), "the energy is forgotten");
    }

    #[test]
    fn pending_arrivals_round_trip_and_malformed_ones_are_refused() {
        use sim_core::{SnapError, SnapshotReader, SnapshotWriter};
        let encoded = |phy: &PhyState| {
            let mut w = SnapshotWriter::new();
            w.put(phy);
            w.finish()
        };
        let decode = |bytes: &[u8]| SnapshotReader::new(bytes).get::<PhyState>();
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(7), t(0), t(90), true, 2.0);
        phy.announce(sensed(5, 4, 3, 95, 5));
        phy.settle(t(10), 0, true, |_, _| {});
        phy.announce(edge(40, 2, 2, 140));
        phy.announce(edge(50, 0, 1, 150));
        phy.announce(sensed(60, 6, 4, 160, 7));
        assert_eq!(phy.parked_ends().count(), 2, "one on a tracked signal, one in flight");
        assert_eq!(decode(&encoded(&phy)), Ok(phy.clone()));

        let mut unsorted = phy.clone();
        unsorted.pending.swap(0, 1);
        assert_eq!(
            decode(&encoded(&unsorted)),
            Err(SnapError::Invalid("pending arrivals out of order"))
        );
        let mut twice = phy.clone();
        twice.pending[1] = twice.pending[0];
        assert_eq!(
            decode(&encoded(&twice)),
            Err(SnapError::Invalid("pending arrivals out of order"))
        );
        let mut backwards = phy.clone();
        backwards.pending[0].end = t(39);
        assert_eq!(
            decode(&encoded(&backwards)),
            Err(SnapError::Invalid("pending arrival ends before it starts"))
        );
        for power in [f64::NAN, f64::INFINITY] {
            let mut odd = phy.clone();
            odd.pending[1].power = power;
            assert_eq!(decode(&encoded(&odd)), Err(SnapError::Invalid("pending arrival power")));
        }
        let decodable = Err(SnapError::Invalid("parked end of a decodable signal"));
        let mut tracked = phy.clone();
        tracked.receptions[1].decodable = true;
        assert_eq!(decode(&encoded(&tracked)), decodable);
        let mut in_flight = phy.clone();
        in_flight.pending[2].decodable = true;
        assert_eq!(decode(&encoded(&in_flight)), decodable);
        // A frame with no airtime: its end edge was reserved after its start.
        let mut instant = phy.clone();
        instant.pending[2].end = t(60);
        assert_eq!(decode(&encoded(&instant)), Ok(instant.clone()));
        instant.pending[2].parked_end = Some(6);
        assert_eq!(
            decode(&encoded(&instant)),
            Err(SnapError::Invalid("parked end not after its start"))
        );
    }

    #[test]
    fn three_way_collision() {
        let mut phy = PhyState::new();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        phy.on_rx_start(TxId(2), t(10), t(110), true, 1.0);
        phy.on_rx_start(TxId(3), t(20), t(120), true, 1.0);
        for (id, end) in [(1, 100), (2, 110), (3, 120)] {
            assert_eq!(phy.on_rx_end(TxId(id), t(end)), Some(RxOutcome::CollisionLost));
        }
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn strong_first_frame_survives_weak_interference() {
        let mut phy = PhyState::default();
        // Neighbour at 250 m (power 1.0) vs interferer at 500 m (1/16).
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        phy.on_rx_start(TxId(2), t(10), t(110), false, 1.0 / 16.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::Decoded), "captured");
        assert_eq!(phy.on_rx_end(TxId(2), t(110)), Some(RxOutcome::NotDecodable));
    }

    #[test]
    fn weak_frame_lost_to_strong_ongoing() {
        let mut phy = PhyState::default();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 16.0);
        phy.on_rx_start(TxId(2), t(10), t(110), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::Decoded));
        assert_eq!(phy.on_rx_end(TxId(2), t(110)), Some(RxOutcome::CollisionLost));
    }

    #[test]
    fn late_strong_arrival_kills_both() {
        let mut phy = PhyState::default();
        // Receiver locked onto the weak frame; a much stronger late frame
        // cannot be re-locked onto: both are lost (ns-2 semantics).
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        phy.on_rx_start(TxId(2), t(10), t(110), true, 16.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::CollisionLost));
        assert_eq!(phy.on_rx_end(TxId(2), t(110)), Some(RxOutcome::CollisionLost));
    }

    #[test]
    fn comparable_powers_collide() {
        let mut phy = PhyState::default();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 1.0);
        phy.on_rx_start(TxId(2), t(10), t(110), true, 2.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::CollisionLost));
        assert_eq!(phy.on_rx_end(TxId(2), t(110)), Some(RxOutcome::CollisionLost));
    }

    #[test]
    fn exactly_at_threshold_captures() {
        let mut phy = PhyState::default();
        phy.on_rx_start(TxId(1), t(0), t(100), true, 10.0);
        phy.on_rx_start(TxId(2), t(10), t(110), true, 1.0);
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), Some(RxOutcome::Decoded));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// How long a signal takes to arrive: mostly a few nanoseconds, so that
    /// edges tie, and now and then long enough for a signal announced
    /// earlier to start after a later one has ended.
    fn flight() -> impl Strategy<Value = u64> {
        (0u64..16).prop_map(|k| if k < 12 { k % 4 } else { 20 * k })
    }

    proptest! {
        /// Any schedule of receptions: at most one frame in any overlapping
        /// group decodes, and a frame decodes only if it overlapped nothing.
        #[test]
        fn no_capture_invariant(
            frames in proptest::collection::vec((0u64..1000, 1u64..500), 1..20)
        ) {
            // Build (start, end) intervals and replay them in start order.
            let mut intervals: Vec<(u64, u64)> =
                frames.iter().map(|&(s, d)| (s, s + d)).collect();
            intervals.sort_unstable();
            let mut phy = PhyState::new();
            // Interleave starts and ends in global time order.
            let mut evs: Vec<(u64, usize, bool)> = Vec::new(); // (time, idx, is_start)
            for (i, &(s, e)) in intervals.iter().enumerate() {
                evs.push((s, i, true));
                evs.push((e, i, false));
            }
            // Ends before starts at the same instant (back-to-back frames don't collide).
            evs.sort_by_key(|&(time, idx, is_start)| (time, is_start, idx));
            let mut outcome = vec![None; intervals.len()];
            for (time, idx, is_start) in evs {
                if is_start {
                    phy.on_rx_start(TxId(idx as u64), SimTime::from_nanos(time),
                        SimTime::from_nanos(intervals[idx].1), true, 1.0);
                } else {
                    outcome[idx] = Some(phy.on_rx_end(TxId(idx as u64), SimTime::from_nanos(time)));
                }
            }
            for (i, &(s1, e1)) in intervals.iter().enumerate() {
                let overlaps_any = intervals.iter().enumerate().any(|(j, &(s2, e2))| {
                    i != j && s1 < e2 && s2 < e1
                });
                match outcome[i].flatten().unwrap() {
                    RxOutcome::Decoded => prop_assert!(!overlaps_any,
                        "frame {i} decoded despite overlap"),
                    RxOutcome::CollisionLost => prop_assert!(overlaps_any,
                        "frame {i} lost without overlap"),
                    RxOutcome::NotDecodable => unreachable!(),
                }
            }
        }

        /// Lazy edges are exact. One receiver lives the same history twice:
        /// eagerly, every start edge, end edge and own transmission applied
        /// at its own `(time, seq)` key — the queue the simulator no longer
        /// builds; lazily, signals announced when the frame goes on the air,
        /// a random subset of the sense-only ones with their end edge
        /// parked, everything settled before each delivered end edge,
        /// transmission and probe, and `unpark_ends` called at random
        /// points, after which the ends it handed back are delivered under
        /// the keys it named. Overlaps, capture ratios, half-duplex
        /// corruption and same-instant ties included, both must report the
        /// same outcomes, apply the edges in the same order, show every
        /// probe the same radio — a probe under an edge's own key comes
        /// before that edge — and end in equal states.
        ///
        /// An `unpark_ends` call stands for the station taking a packet; at
        /// random points it hands it on again. While it holds one, the lazy
        /// world parks a sense-only end exactly when [`PhyState::covers`]
        /// admits it as the signal goes on the air, and every end it parks
        /// must find the medium busy when it is applied.
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "tx ids here are indices into `arrivals`")]
        fn settled_edges_match_eager_ones(
            frames in proptest::collection::vec(
                (0u64..300, flight(), 1u64..60, any::<bool>(), 0usize..5, any::<bool>()), 1..24),
            transmits in proptest::collection::vec((0u64..300, 1u64..40), 0..6),
            probes in proptest::collection::vec((0u64..400, 0usize..48), 0..16),
            custody in proptest::collection::vec((0u64..400, any::<bool>()), 0..6),
        ) {
            const POWERS: [f64; 5] = [1.0 / 16.0, 1.0, 2.0, 10.0, 16.0];
            #[derive(Clone, Copy)]
            enum Act {
                /// Look at the radio. Sorts before any other act under its key.
                Probe,
                /// The frame goes on the air (lazy world only).
                Announce(usize),
                /// The frame's start edge comes due (eager world only).
                Start(usize),
                /// The frame's end edge comes due: always delivered in the
                /// eager world, in the lazy one only if it is not parked.
                End(usize),
                Transmit(u64),
                /// The station takes a packet (lazy world only).
                Unpark,
                /// The station hands its packet on (lazy world only).
                Release,
            }
            type Key = (u64, u64);
            // Sequence numbers as the queue would issue them: a start edge
            // and its end edge when the frame is sent, everything else when
            // it happens to be scheduled — any total order will do.
            let mut seq = 0u64;
            let mut next_seq = || { seq += 1; seq };
            let mut eager: Vec<(Key, Act)> = Vec::new();
            let mut lazy: Vec<(Key, Act)> = Vec::new();
            let mut arrivals = Vec::new();
            let mut parks = Vec::new();
            let mut edge_keys = Vec::new();
            for (i, &(sent, flight, airtime, decodable, power, park)) in frames.iter().enumerate() {
                let (start, end) = (sent + flight, sent + flight + airtime);
                let (start_seq, end_seq) = (next_seq(), next_seq());
                arrivals.push(Arrival {
                    start: SimTime::from_nanos(start),
                    seq: start_seq,
                    tx_id: TxId(i as u64),
                    end: SimTime::from_nanos(end),
                    decodable,
                    power: POWERS[power],
                    parked_end: None,
                });
                parks.push((!decodable).then_some((park, end_seq)));
                edge_keys.extend([(start, start_seq), (end, end_seq)]);
                eager.push(((start, start_seq), Act::Start(i)));
                eager.push(((end, end_seq), Act::End(i)));
                // Announced no later than the edge is due, under the same seq.
                lazy.push(((sent, start_seq), Act::Announce(i)));
                lazy.push(((end, end_seq), Act::End(i)));
            }
            for &(at, airtime) in &transmits {
                let key = (at, next_seq());
                eager.push((key, Act::Transmit(airtime)));
                lazy.push((key, Act::Transmit(airtime)));
            }
            for &(at, pick) in &probes {
                // Half of them under the very key of some edge.
                let key = edge_keys.get(pick).copied().unwrap_or_else(|| (at, next_seq()));
                eager.push((key, Act::Probe));
                lazy.push((key, Act::Probe));
            }
            for &(at, take) in &custody {
                lazy.push(((at, next_seq()), if take { Act::Unpark } else { Act::Release }));
            }
            // One last look once everything has happened.
            eager.push(((u64::MAX, u64::MAX), Act::Probe));
            lazy.push(((u64::MAX, u64::MAX), Act::Probe));
            let in_order = |&(key, act): &(Key, Act)| (key, !matches!(act, Act::Probe));
            eager.sort_by_key(in_order);
            lazy.sort_by_key(in_order);

            let run = |script: &[(Key, Act)]| {
                let mut phy = PhyState::new();
                // `i` where frame i's start edge was applied, `-i - 1` its end.
                let mut applied: Vec<i64> = Vec::new();
                let mut outcomes = vec![None; arrivals.len()];
                let mut parked = vec![false; arrivals.len()];
                let mut holding = false;
                let mut seen = Vec::new();
                let mut settled = 0;
                for &((time, seq), act) in script {
                    let now = SimTime::from_nanos(time);
                    if !matches!(act, Act::Announce(_) | Act::Start(_)) {
                        settled += phy.settle(now, seq, true, |radio, edge| match edge {
                            Edge::Start { tx_id, .. } => applied.push(tx_id.0 as i64),
                            Edge::End { tx_id, at } => {
                                assert!(!holding || radio.carrier_busy(at), "an uncovered end at {at}");
                                applied.push(-(tx_id.0 as i64) - 1);
                                outcomes[tx_id.0 as usize] = Some(RxOutcome::NotDecodable);
                            }
                        });
                    }
                    match act {
                        Act::Probe => {
                            seen.push((phy.active_receptions(), phy.carrier_busy(now), phy.idle_at(now)));
                        }
                        Act::Announce(i) => {
                            let a = arrivals[i];
                            let parked_end = parks[i].and_then(|(park, end_seq)| {
                                let admitted = if holding { phy.covers(a.end, end_seq) } else { park };
                                admitted.then_some(end_seq)
                            });
                            parked[i] = parked_end.is_some();
                            phy.announce(Arrival { parked_end, ..a });
                        }
                        Act::Start(i) => {
                            let a = arrivals[i];
                            phy.on_rx_start(a.tx_id, a.start, a.end, a.decodable, a.power);
                            applied.push(i as i64);
                        }
                        Act::End(i) if parked[i] => {}
                        Act::End(i) => {
                            outcomes[i] = phy.on_rx_end(arrivals[i].tx_id, now);
                            applied.push(-(i as i64) - 1);
                        }
                        Act::Transmit(airtime) if !phy.is_transmitting(now) => {
                            phy.begin_transmit(now, now + sim_core::SimDuration::from_nanos(airtime));
                        }
                        Act::Transmit(_) => {}
                        Act::Unpark => {
                            holding = true;
                            phy.unpark_ends(|end, end_seq, tx_id| {
                                let i = tx_id.0 as usize;
                                let key = parks[i].map(|(_, end_seq)| end_seq);
                                assert_eq!((end, Some(end_seq)), (arrivals[i].end, key), "another edge's key");
                                assert!((end.as_nanos(), end_seq) > (time, seq), "an edge that was due");
                                assert!(std::mem::take(&mut parked[i]), "handed back twice");
                            });
                        }
                        Act::Release => holding = false,
                    }
                }
                (phy, applied, outcomes, seen, settled, parked)
            };
            let (eager_phy, eager_applied, eager_outcomes, eager_seen, ..) = run(&eager);
            let (lazy_phy, lazy_applied, lazy_outcomes, lazy_seen, settled, still_parked) = run(&lazy);
            prop_assert!(eager_outcomes.iter().all(Option::is_some));
            prop_assert_eq!(lazy_outcomes, eager_outcomes);
            prop_assert_eq!(lazy_applied, eager_applied);
            prop_assert_eq!(lazy_seen, eager_seen);
            prop_assert_eq!(lazy_phy, eager_phy);
            // Every start edge was settled, and every end edge nobody took back.
            let never_unparked = still_parked.iter().filter(|&&p| p).count();
            prop_assert_eq!(settled, arrivals.len() + never_unparked);
        }
    }
}
