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
}

impl Arrival {
    fn key(&self) -> (SimTime, u64) {
        (self.start, self.seq)
    }
}

/// The radio state of one node: whether it is transmitting, which signals
/// currently impinge on it, which are about to, and whether its
/// carrier-sense reports busy.
///
/// A start edge touches nothing but this receiver, so it need not be a
/// scheduler event of its own: [`Self::announce`] parks it and
/// [`Self::settle`] applies, in `(start, seq)` order, every parked edge that
/// precedes a given scheduler key. A driver that settles a node before each
/// piece of work it runs there leaves the node in exactly the state eager
/// [`Self::on_rx_start`] calls at each edge's own instant would have.
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
        self.receptions.push(Reception { tx_id, decodable, corrupted: new_corrupted, power });
        self.energy_until = self.energy_until.max(end);
    }

    /// Parks a signal whose start edge [`Self::settle`] will apply.
    pub fn announce(&mut self, arrival: Arrival) {
        // Edges mostly arrive in the order they were announced: walk back
        // only past the ones a nearer sender has overtaken.
        let at = self.pending.iter().rposition(|a| a.key() < arrival.key()).map_or(0, |i| i + 1);
        self.pending.insert(at, arrival);
    }

    /// Applies, in `(start, seq)` order, the start edge of every announced
    /// signal that precedes the scheduler key `(time, seq)`: one
    /// [`Self::on_rx_start`] stamped with the arrival's own `start`, then
    /// `heard` for the caller's bookkeeping of the same edge. With
    /// `radio_on` false the due edges reach a receiver that is switched off
    /// and are dropped unheard.
    #[inline]
    pub fn settle(
        &mut self,
        time: SimTime,
        seq: u64,
        radio_on: bool,
        mut heard: impl FnMut(&Arrival),
    ) {
        let due = self.pending.iter().take_while(|a| a.key() < (time, seq)).count();
        if due == 0 {
            return;
        }
        if radio_on {
            for i in 0..due {
                let a = self.pending[i];
                self.on_rx_start(a.tx_id, a.start, a.end, a.decodable, a.power);
                heard(&a);
            }
        }
        self.pending.drain(..due);
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
    /// `None`). Signals announced but still in flight are not touched here:
    /// each is dropped when its edge comes due, if the radio is still off
    /// then ([`Self::settle`] with `radio_on` false). The node's own
    /// transmission, if one is on the air, is not this receiver's business
    /// and runs out by itself.
    pub fn radio_off(&mut self) {
        self.receptions.clear();
        self.energy_until = SimTime::ZERO;
    }

    /// Physical carrier sense: busy while transmitting or while any sensed
    /// signal is on the air.
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

sim_core::snap_record! { Reception { tx_id, decodable, corrupted, power } }

sim_core::snap_record! {
    Arrival { start, seq, tx_id, end, decodable, power }
    check |a| a.start <= a.end => "pending arrival ends before it starts";
    check |a| a.power.is_finite() => "pending arrival power";
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
        phy.radio_off();
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
        Arrival { start: t(start), seq, tx_id: TxId(tx), end: t(end), decodable: true, power: 1.0 }
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
        phy.settle(t(50), 3, true, |a| heard.push(a.tx_id.0));
        assert_eq!(heard, [2, 1]);
        assert_eq!(keys(&phy), [4], "the edge behind the key stays parked");
        assert_eq!(phy.active_receptions(), 2);
        assert!(phy.carrier_busy(t(50)));
        phy.settle(t(50), 3, true, |_| unreachable!("nothing new is due"));
        phy.settle(t(50), u64::MAX, true, |a| heard.push(a.tx_id.0));
        assert_eq!(heard, [2, 1, 3]);
        assert!(phy.pending().is_empty());
    }

    #[test]
    fn edges_due_while_the_radio_is_off_are_dropped_unheard() {
        let mut phy = PhyState::new();
        phy.announce(edge(10, 0, 1, 100));
        phy.announce(edge(30, 2, 2, 130));
        phy.settle(t(20), 0, false, |_| unreachable!("an off radio hears nothing"));
        assert_eq!(phy.active_receptions(), 0);
        assert!(!phy.carrier_busy(t(20)));
        assert_eq!(phy.pending().len(), 1, "the edge still in flight is not touched");
        assert_eq!(phy.on_rx_end(TxId(1), t(100)), None);
        phy.settle(t(40), 0, true, |_| {});
        assert_eq!(phy.on_rx_end(TxId(2), t(130)), Some(RxOutcome::Decoded));
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
        phy.announce(edge(40, 2, 2, 140));
        phy.announce(edge(50, 0, 1, 150));
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

        /// Lazy start edges are exact. One receiver lives the same history
        /// twice: eagerly, every start edge, end edge and own transmission
        /// applied at its own `(time, seq)` key — the queue the simulator no
        /// longer builds; lazily, start edges announced when the frame goes
        /// on the air and settled before each end edge, transmission and
        /// arbitrary extra key. Overlaps, capture ratios, half-duplex
        /// corruption and same-instant ties included, both must report the
        /// same outcomes, hear the edges in the same order and end in equal
        /// states.
        #[test]
        fn settled_start_edges_match_eager_ones(
            frames in proptest::collection::vec(
                (0u64..300, 0u64..4, 1u64..60, any::<bool>(), 0usize..5), 1..24),
            transmits in proptest::collection::vec((0u64..300, 1u64..40), 0..6),
            extra_settles in proptest::collection::vec(0u64..400, 0..12),
        ) {
            const POWERS: [f64; 5] = [1.0 / 16.0, 1.0, 2.0, 10.0, 16.0];
            #[derive(Clone, Copy)]
            enum Act {
                /// The frame goes on the air (lazy world only).
                Announce(usize),
                /// The frame's start edge comes due (eager world only).
                Start(usize),
                End(usize),
                Transmit(u64),
                Settle,
            }
            // Sequence numbers as the queue would issue them: a start edge
            // and its end edge when the frame is sent, everything else when
            // it happens to be scheduled — any total order will do.
            let mut seq = 0u64;
            let mut next_seq = || { seq += 1; seq };
            let mut eager: Vec<((u64, u64), Act)> = Vec::new();
            let mut lazy: Vec<((u64, u64), Act)> = Vec::new();
            let mut arrivals = Vec::new();
            for (i, &(sent, flight, airtime, decodable, power)) in frames.iter().enumerate() {
                let (start, end) = (sent + flight, sent + flight + airtime);
                let (start_seq, end_seq) = (next_seq(), next_seq());
                arrivals.push(Arrival {
                    start: SimTime::from_nanos(start),
                    seq: start_seq,
                    tx_id: TxId(i as u64),
                    end: SimTime::from_nanos(end),
                    decodable,
                    power: POWERS[power],
                });
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
            for &at in &extra_settles {
                lazy.push(((at, next_seq()), Act::Settle));
            }
            eager.sort_by_key(|&(key, _)| key);
            lazy.sort_by_key(|&(key, _)| key);

            let run = |script: &[((u64, u64), Act)]| {
                let mut phy = PhyState::new();
                let mut heard = Vec::new();
                let mut outcomes = vec![None; arrivals.len()];
                for &((time, seq), act) in script {
                    let now = SimTime::from_nanos(time);
                    if !matches!(act, Act::Announce(_) | Act::Start(_)) {
                        phy.settle(now, seq, true, |a| heard.push(a.tx_id));
                    }
                    match act {
                        Act::Announce(i) => phy.announce(arrivals[i]),
                        Act::Start(i) => {
                            let a = arrivals[i];
                            phy.on_rx_start(a.tx_id, a.start, a.end, a.decodable, a.power);
                            heard.push(a.tx_id);
                        }
                        Act::End(i) => outcomes[i] = phy.on_rx_end(arrivals[i].tx_id, now),
                        Act::Transmit(airtime) if !phy.is_transmitting(now) => {
                            phy.begin_transmit(now, now + sim_core::SimDuration::from_nanos(airtime));
                        }
                        Act::Transmit(_) | Act::Settle => {}
                    }
                }
                phy.settle(SimTime::MAX, u64::MAX, true, |a| heard.push(a.tx_id));
                (phy, heard, outcomes)
            };
            let (eager_phy, eager_heard, eager_outcomes) = run(&eager);
            let (lazy_phy, lazy_heard, lazy_outcomes) = run(&lazy);
            prop_assert!(eager_outcomes.iter().all(Option::is_some));
            prop_assert_eq!(lazy_outcomes, eager_outcomes);
            prop_assert_eq!(lazy_heard, eager_heard);
            prop_assert_eq!(lazy_phy, eager_phy);
        }
    }
}
