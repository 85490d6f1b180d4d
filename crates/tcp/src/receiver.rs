//! The TCP receiver ("sink") agent.

use std::collections::BTreeSet;

use sim_core::{SimDuration, SimTime};
use wire::{FlowId, SackBlock, TcpSegment, TcpSegmentKind};

/// Identifies one delayed-ACK timer set by the receiver; the driver
/// schedules an event and calls [`TcpReceiver::on_delack_timer`] with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DelAckTimer(pub u64);

/// What the receiver wants done after processing a data segment in
/// delayed-ACK mode.
#[derive(Clone, Debug, Default)]
pub struct ReceiverOutput {
    /// An ACK to send now, if any.
    pub ack: Option<TcpSegment>,
    /// A delayed-ACK timer to arm, if any.
    pub set_timer: Option<(DelAckTimer, SimTime)>,
}

/// RFC 1122's delayed-ACK ceiling.
const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// Receiver-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Data segments received (including duplicates and out-of-order).
    pub segments_received: u64,
    /// Segments that were duplicates of already-delivered data.
    pub duplicates: u64,
    /// ACKs generated.
    pub acks_sent: u64,
}

sim_core::snap_record! { DelAckTimer { 0 } }

sim_core::snap_record! { ReceiverStats { segments_received, duplicates, acks_sent } }

/// A one-way TCP receiver: acknowledges every arriving data segment with a
/// cumulative ACK (generating duplicate ACKs on reordering/loss), optionally
/// attaches SACK blocks, and — for Muzha flows — echoes the path's minimum
/// DRAI (`MRAI`) and the congestion mark from the arriving data segment.
///
/// # Example
///
/// ```
/// use sim_core::SimTime;
/// use tcp::TcpReceiver;
/// use wire::{FlowId, TcpSegment, TcpSegmentKind};
///
/// let mut rx = TcpReceiver::new(FlowId::new(0), false);
/// let seg = TcpSegment::data(FlowId::new(0), 0, 1460, None);
/// let ack = rx.on_data_segment(&seg, SimTime::ZERO);
/// match ack.kind {
///     TcpSegmentKind::Ack { ack, .. } => assert_eq!(ack, 1),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub struct TcpReceiver {
    flow: FlowId,
    rcv_nxt: u64,
    out_of_order: BTreeSet<u64>,
    sack_enabled: bool,
    stats: ReceiverStats,
    payload_bytes_seen: u32,
    /// Highest sequence number ever seen (for out-of-order detection).
    max_seq_seen: Option<u64>,
    delack_enabled: bool,
    /// A fully-built ACK waiting for the delayed-ACK rule to release it.
    pending_ack: Option<TcpSegment>,
    delack_timer: Option<DelAckTimer>,
    next_delack_id: u64,
    delack_cancelled: u64,
}

sim_core::snap_record! {
    given (flow: FlowId, sack_enabled: bool, delack_enabled: bool) TcpReceiver {
        flow = flow,
        rcv_nxt,
        out_of_order,
        sack_enabled = sack_enabled,
        stats,
        payload_bytes_seen,
        max_seq_seen,
        delack_enabled = delack_enabled,
        pending_ack,
        delack_timer,
        next_delack_id,
        delack_cancelled,
    }
    // Already delivered data cannot also be buffered.
    check |rx| rx.out_of_order.first().is_none_or(|&lo| lo > rx.rcv_nxt)
        => "receiver ooo below rcv_nxt";
}

/// Maximum SACK blocks attached to one ACK (TCP option-space limit).
const MAX_SACK_BLOCKS: usize = 3;

impl TcpReceiver {
    /// Creates a receiver for `flow`; `sack_enabled` controls whether ACKs
    /// carry SACK blocks.
    pub fn new(flow: FlowId, sack_enabled: bool) -> Self {
        TcpReceiver {
            flow,
            rcv_nxt: 0,
            out_of_order: BTreeSet::new(),
            sack_enabled,
            stats: ReceiverStats::default(),
            payload_bytes_seen: wire::TCP_PAYLOAD_BYTES,
            max_seq_seen: None,
            delack_enabled: false,
            pending_ack: None,
            delack_timer: None,
            next_delack_id: 0,
            delack_cancelled: 0,
        }
    }

    /// Creates a receiver with RFC 1122 delayed ACKs: in-order segments are
    /// acknowledged every second segment or after 100 ms, whichever comes
    /// first; out-of-order or duplicate arrivals are acknowledged
    /// immediately (they carry loss/reorder information the sender needs
    /// now). In a contended wireless chain this roughly halves the reverse
    /// ACK traffic.
    pub fn with_delayed_ack(flow: FlowId, sack_enabled: bool) -> Self {
        TcpReceiver { delack_enabled: true, ..Self::new(flow, sack_enabled) }
    }

    /// The flow this receiver serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Next expected in-order segment (segments `< rcv_nxt` delivered).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// In-order delivered bytes so far (goodput numerator).
    pub fn delivered_bytes(&self) -> u64 {
        self.rcv_nxt * u64::from(self.payload_bytes_seen)
    }

    /// Processes a data segment and returns the ACK to send back
    /// (immediate-ACK mode; see [`Self::on_data_segment_delack`] for the
    /// delayed variant, the only one of the two that reads the clock).
    ///
    /// # Panics
    ///
    /// Panics if called with a non-data segment or one for another flow.
    pub fn on_data_segment(&mut self, segment: &TcpSegment, _now: SimTime) -> TcpSegment {
        let (ack, _advanced) = self.absorb(segment);
        self.stats.acks_sent += 1;
        ack
    }

    /// Processes a data segment under the delayed-ACK policy.
    ///
    /// # Panics
    ///
    /// Panics if called with a non-data segment or one for another flow.
    pub fn on_data_segment_delack(&mut self, segment: &TcpSegment, now: SimTime) -> ReceiverOutput {
        assert!(self.delack_enabled, "receiver not in delayed-ACK mode");
        let (ack, advanced_in_order) = self.absorb(segment);
        if !advanced_in_order {
            // Dup or out-of-order: the sender needs this signal now. Any
            // pending delayed ACK is superseded by this fresher one.
            self.pending_ack = None;
            self.cancel_delack_timer();
            self.stats.acks_sent += 1;
            return ReceiverOutput { ack: Some(ack), set_timer: None };
        }
        if self.pending_ack.take().is_some() {
            // Second in-order segment: release one coalesced ACK.
            self.cancel_delack_timer();
            self.stats.acks_sent += 1;
            return ReceiverOutput { ack: Some(ack), set_timer: None };
        }
        // First in-order segment: hold the ACK briefly.
        self.pending_ack = Some(ack);
        let id = DelAckTimer(self.next_delack_id);
        self.next_delack_id += 1;
        self.delack_timer = Some(id);
        ReceiverOutput { ack: None, set_timer: Some((id, now + DELACK_TIMEOUT)) }
    }

    /// Whether `id` is the currently armed delayed-ACK timer. The driver
    /// consults this at its dispatch choke point to discard stale timer
    /// pops without entering the receiver.
    pub fn delack_is_live(&self, id: DelAckTimer) -> bool {
        self.delack_timer == Some(id)
    }

    /// Number of delayed-ACK timers tombstoned before firing (superseded
    /// by an immediate ACK); their queued events pop stale.
    pub fn timers_cancelled(&self) -> u64 {
        self.delack_cancelled
    }

    fn cancel_delack_timer(&mut self) {
        if self.delack_timer.take().is_some() {
            self.delack_cancelled += 1;
        }
    }

    /// A delayed-ACK timer fired; returns the held ACK if `id` is current.
    pub fn on_delack_timer(&mut self, id: DelAckTimer) -> Option<TcpSegment> {
        if self.delack_timer == Some(id) {
            self.delack_timer = None;
            let ack = self.pending_ack.take();
            if ack.is_some() {
                self.stats.acks_sent += 1;
            }
            ack
        } else {
            None
        }
    }

    /// Core segment processing; returns the (possibly withheld) ACK and
    /// whether the segment advanced the in-order stream.
    fn absorb(&mut self, segment: &TcpSegment) -> (TcpSegment, bool) {
        assert_eq!(segment.flow, self.flow, "segment for wrong flow");
        let TcpSegmentKind::Data { seq, payload_bytes, avbw, marked, retransmit } = segment.kind
        else {
            panic!("receiver fed a non-data segment");
        };
        self.payload_bytes_seen = payload_bytes;
        self.stats.segments_received += 1;
        // TCP-DOOR's signal: a *fresh* (non-retransmitted) segment arriving
        // below the highest sequence seen means the network reordered
        // packets — in a MANET, almost always a route change (§3.1 [39]).
        let ooo = !retransmit && self.max_seq_seen.is_some_and(|m| seq < m);
        self.max_seq_seen = Some(self.max_seq_seen.map_or(seq, |m| m.max(seq)));
        let mut advanced = false;
        if seq < self.rcv_nxt || self.out_of_order.contains(&seq) {
            self.stats.duplicates += 1;
        } else if seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            // Drain any contiguous run buffered out of order.
            while self.out_of_order.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
            advanced = true;
        } else {
            self.out_of_order.insert(seq);
        }
        let ack = TcpSegment {
            flow: self.flow,
            kind: TcpSegmentKind::Ack {
                ack: self.rcv_nxt,
                mrai: avbw,
                marked,
                ooo,
                sack: if self.sack_enabled { self.sack_blocks() } else { Vec::new() },
            },
        };
        (ack, advanced)
    }

    /// Contiguous runs of out-of-order data, lowest first, capped at
    /// [`MAX_SACK_BLOCKS`].
    fn sack_blocks(&self) -> Vec<SackBlock> {
        let mut blocks: Vec<SackBlock> = Vec::new();
        for &seq in &self.out_of_order {
            match blocks.last_mut() {
                Some(last) if last.end == seq => last.end = seq + 1,
                _ => {
                    if blocks.len() == MAX_SACK_BLOCKS {
                        break;
                    }
                    blocks.push(SackBlock::new(seq, seq + 1));
                }
            }
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Drai;

    fn rx(sack: bool) -> TcpReceiver {
        TcpReceiver::new(FlowId::new(0), sack)
    }

    fn data(seq: u64) -> TcpSegment {
        TcpSegment::data(FlowId::new(0), seq, 1460, None)
    }

    fn muzha_data(seq: u64, level: Drai, marked: bool) -> TcpSegment {
        let mut seg = TcpSegment::data(FlowId::new(0), seq, 1460, Some(level));
        if marked {
            seg.set_congestion_mark();
        }
        seg
    }

    fn ack_of(seg: TcpSegment) -> (u64, Option<Drai>, bool, Vec<SackBlock>) {
        match seg.kind {
            TcpSegmentKind::Ack { ack, mrai, marked, sack, .. } => (ack, mrai, marked, sack),
            _ => unreachable!(),
        }
    }

    fn ooo_of(seg: &TcpSegment) -> bool {
        match &seg.kind {
            TcpSegmentKind::Ack { ooo, .. } => *ooo,
            _ => unreachable!(),
        }
    }

    #[test]
    fn out_of_order_detection_for_door() {
        let mut r = rx(false);
        let _ = r.on_data_segment(&data(0), SimTime::ZERO);
        let _ = r.on_data_segment(&data(3), SimTime::from_nanos(1));
        // A fresh segment below the max seen: reordering.
        let ack = r.on_data_segment(&data(1), SimTime::from_nanos(2));
        assert!(ooo_of(&ack), "fresh lower-seq arrival is OOO");
        // A *retransmitted* segment below the max is expected, not OOO.
        let mut retx = data(2);
        if let TcpSegmentKind::Data { retransmit, .. } = &mut retx.kind {
            *retransmit = true;
        }
        let ack = r.on_data_segment(&retx, SimTime::from_nanos(3));
        assert!(!ooo_of(&ack), "retransmissions are not OOO signals");
        // In-order progress is never OOO.
        let ack = r.on_data_segment(&data(4), SimTime::from_nanos(4));
        assert!(!ooo_of(&ack));
    }

    #[test]
    fn in_order_delivery_advances() {
        let mut r = rx(false);
        for seq in 0..5 {
            let (ack, ..) = ack_of(r.on_data_segment(&data(seq), SimTime::from_nanos(seq)));
            assert_eq!(ack, seq + 1);
        }
        assert_eq!(r.rcv_nxt(), 5);
        assert_eq!(r.delivered_bytes(), 5 * 1460);
    }

    #[test]
    fn gap_generates_duplicate_acks() {
        let mut r = rx(false);
        let _ = r.on_data_segment(&data(0), SimTime::ZERO);
        // Segment 1 lost; 2, 3, 4 arrive.
        for seq in 2..5 {
            let (ack, ..) = ack_of(r.on_data_segment(&data(seq), SimTime::from_nanos(seq)));
            assert_eq!(ack, 1, "duplicate ACK expected");
        }
        // The retransmitted 1 fills the hole and acks everything.
        let (ack, ..) = ack_of(r.on_data_segment(&data(1), SimTime::from_nanos(9)));
        assert_eq!(ack, 5);
    }

    #[test]
    fn old_duplicate_counted() {
        let mut r = rx(false);
        let _ = r.on_data_segment(&data(0), SimTime::ZERO);
        let _ = r.on_data_segment(&data(0), SimTime::from_nanos(1));
        assert_eq!(r.stats().duplicates, 1);
        // Buffered out-of-order duplicate too.
        let _ = r.on_data_segment(&data(5), SimTime::from_nanos(2));
        let _ = r.on_data_segment(&data(5), SimTime::from_nanos(3));
        assert_eq!(r.stats().duplicates, 2);
    }

    #[test]
    fn sack_blocks_reported() {
        let mut r = rx(true);
        let _ = r.on_data_segment(&data(0), SimTime::ZERO);
        let _ = r.on_data_segment(&data(2), SimTime::from_nanos(1));
        let _ = r.on_data_segment(&data(3), SimTime::from_nanos(2));
        let (ack, _, _, sack) = ack_of(r.on_data_segment(&data(6), SimTime::from_nanos(3)));
        assert_eq!(ack, 1);
        assert_eq!(sack, vec![SackBlock::new(2, 4), SackBlock::new(6, 7)]);
    }

    #[test]
    fn sack_block_cap() {
        let mut r = rx(true);
        // Gaps at every other seq: 1, 3, 5, 7, 9 received; 0 missing.
        for seq in [1, 3, 5, 7, 9] {
            let _ = r.on_data_segment(&data(seq), SimTime::from_nanos(seq));
        }
        let (_, _, _, sack) = ack_of(r.on_data_segment(&data(11), SimTime::from_nanos(11)));
        assert_eq!(sack.len(), 3, "capped at 3 blocks");
    }

    #[test]
    fn non_sack_receiver_sends_no_blocks() {
        let mut r = rx(false);
        let _ = r.on_data_segment(&data(2), SimTime::ZERO);
        let (_, _, _, sack) = ack_of(r.on_data_segment(&data(4), SimTime::from_nanos(1)));
        assert!(sack.is_empty());
    }

    #[test]
    fn muzha_echo_mrai_and_mark() {
        let mut r = rx(false);
        let (_, mrai, marked, _) =
            ack_of(r.on_data_segment(&muzha_data(0, Drai::Stabilizing, false), SimTime::ZERO));
        assert_eq!(mrai, Some(Drai::Stabilizing));
        assert!(!marked);
        // A marked segment's dup ACK carries the mark (paper §4.7).
        let (_, mrai, marked, _) = ack_of(r.on_data_segment(
            &muzha_data(5, Drai::AggressiveDeceleration, true),
            SimTime::from_nanos(1),
        ));
        assert_eq!(mrai, Some(Drai::AggressiveDeceleration));
        assert!(marked);
    }

    /// What a receiver is built with — its flow, SACK, delayed ACKs — is not
    /// in its bytes: two fresh receivers built differently write the same
    /// record, and a busy one decoded around its settings acknowledges the
    /// next segment as the original does.
    #[test]
    fn the_flow_and_both_modes_are_given_not_read() {
        let encoded = |rx: &TcpReceiver| {
            let mut w = sim_core::SnapshotWriter::new();
            rx.encode_state(&mut w);
            w.finish()
        };
        let flow = FlowId::new(3);
        let segment = |seq| TcpSegment::data(flow, seq, 1460, None);
        assert_eq!(encoded(&rx(false)), encoded(&TcpReceiver::with_delayed_ack(flow, true)));
        let mut busy = TcpReceiver::with_delayed_ack(flow, true);
        for seq in [0, 2, 3] {
            let _ = busy.on_data_segment_delack(&segment(seq), SimTime::ZERO);
        }
        let bytes = encoded(&busy);
        let mut r = sim_core::SnapshotReader::new(&bytes);
        let mut twin = TcpReceiver::decode_state(&mut r, flow, true, true).expect("own encoding");
        let at = SimTime::from_nanos(1);
        let (a, b) = (
            busy.on_data_segment_delack(&segment(1), at),
            twin.on_data_segment_delack(&segment(1), at),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(encoded(&twin), encoded(&busy));
    }

    #[test]
    #[should_panic(expected = "non-data segment")]
    fn ack_input_panics() {
        let mut r = rx(false);
        let _ = r.on_data_segment(&TcpSegment::ack(FlowId::new(0), 0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "wrong flow")]
    fn wrong_flow_panics() {
        let mut r = rx(false);
        let seg = TcpSegment::data(FlowId::new(9), 0, 1460, None);
        let _ = r.on_data_segment(&seg, SimTime::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Feeding any permutation of segments 0..n eventually delivers all
        /// of them in order, and rcv_nxt never exceeds the count.
        #[test]
        fn any_arrival_order_delivers_everything(
            mut order in proptest::collection::vec(0u64..20, 20)
        ) {
            // Make it a permutation of 0..20 by construction.
            order.sort_unstable();
            order.dedup();
            let n = order.len() as u64;
            let mut r = TcpReceiver::new(FlowId::new(0), true);
            let mut shuffled = order.clone();
            shuffled.reverse(); // deterministic non-trivial order
            for (i, &seq) in shuffled.iter().enumerate() {
                let _ = r.on_data_segment(&data(seq), SimTime::from_nanos(i as u64));
                prop_assert!(r.rcv_nxt() <= n);
            }
            // Fill any holes below the max delivered.
            for seq in 0..n {
                let _ = r.on_data_segment(&data(seq), SimTime::from_nanos(100 + seq));
            }
            prop_assert!(r.rcv_nxt() >= n);
        }
    }

    fn data(seq: u64) -> TcpSegment {
        TcpSegment::data(FlowId::new(0), seq, 1460, None)
    }
}

#[cfg(test)]
mod delack_tests {
    use super::*;

    fn rx() -> TcpReceiver {
        TcpReceiver::with_delayed_ack(FlowId::new(0), false)
    }

    fn data(seq: u64) -> TcpSegment {
        TcpSegment::data(FlowId::new(0), seq, 1460, None)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn ack_no(seg: &TcpSegment) -> u64 {
        match seg.kind {
            TcpSegmentKind::Ack { ack, .. } => ack,
            _ => unreachable!(),
        }
    }

    #[test]
    fn first_segment_is_held_second_releases() {
        let mut r = rx();
        let out = r.on_data_segment_delack(&data(0), t(0));
        assert!(out.ack.is_none(), "first in-order segment is held");
        assert!(out.set_timer.is_some());
        let out = r.on_data_segment_delack(&data(1), t(10));
        let ack = out.ack.expect("second segment releases one ACK");
        assert_eq!(ack_no(&ack), 2, "coalesced cumulative ACK");
        assert!(out.set_timer.is_none());
        // Exactly one ACK for two segments.
        assert_eq!(r.stats().acks_sent, 1);
    }

    #[test]
    fn timer_releases_a_lone_segment() {
        let mut r = rx();
        let out = r.on_data_segment_delack(&data(0), t(0));
        let (id, at) = out.set_timer.unwrap();
        assert_eq!(at, t(100), "RFC 1122 100 ms ceiling");
        let ack = r.on_delack_timer(id).expect("held ACK released");
        assert_eq!(ack_no(&ack), 1);
        // Stale firing is a no-op.
        assert!(r.on_delack_timer(id).is_none());
    }

    #[test]
    fn out_of_order_acks_immediately() {
        let mut r = rx();
        let _ = r.on_data_segment_delack(&data(0), t(0));
        let _ = r.on_data_segment_delack(&data(1), t(5));
        // Gap: segment 3 arrives before 2 — dup-ACK must go out NOW.
        let out = r.on_data_segment_delack(&data(3), t(10));
        let ack = out.ack.expect("OOO arrival must ACK immediately");
        assert_eq!(ack_no(&ack), 2);
        assert!(out.set_timer.is_none());
    }

    #[test]
    fn pending_ack_superseded_by_immediate_event() {
        let mut r = rx();
        // Segment 0 held...
        let out = r.on_data_segment_delack(&data(0), t(0));
        let (id, _) = out.set_timer.unwrap();
        // ...then a gap arrival forces an immediate (and fresher) ACK.
        assert!(r.delack_is_live(id));
        let out = r.on_data_segment_delack(&data(5), t(10));
        assert!(out.ack.is_some());
        // The old timer must now be stale: no double-ACK.
        assert!(!r.delack_is_live(id), "superseded timer must read dead");
        assert_eq!(r.timers_cancelled(), 1);
        assert!(r.on_delack_timer(id).is_none());
    }

    #[test]
    fn immediate_mode_unaffected() {
        let mut r = TcpReceiver::new(FlowId::new(0), false);
        let ack = r.on_data_segment(&data(0), t(0));
        assert_eq!(ack_no(&ack), 1);
        assert_eq!(r.stats().acks_sent, 1);
    }

    #[test]
    #[should_panic(expected = "not in delayed-ACK mode")]
    fn delack_call_requires_mode() {
        let mut r = TcpReceiver::new(FlowId::new(0), false);
        let _ = r.on_data_segment_delack(&data(0), t(0));
    }
}
