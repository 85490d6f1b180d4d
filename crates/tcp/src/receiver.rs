//! The TCP receiver ("sink") agent.

use std::collections::BTreeSet;

use sim_core::SimTime;
use wire::{FlowId, SackBlock, TcpSegment, TcpSegmentKind};

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
}

sim_core::snap_record! {
    given (flow: FlowId, sack_enabled: bool) TcpReceiver {
        flow = flow,
        rcv_nxt,
        out_of_order,
        sack_enabled = sack_enabled,
        stats,
        payload_bytes_seen,
        max_seq_seen,
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
        }
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

    /// Processes a data segment and returns the ACK to send back: every
    /// segment is acknowledged at once, as ns-2's sink does.
    ///
    /// # Panics
    ///
    /// Panics if called with a non-data segment or one for another flow.
    pub fn on_data_segment(&mut self, segment: &TcpSegment, _now: SimTime) -> TcpSegment {
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
        if seq < self.rcv_nxt || self.out_of_order.contains(&seq) {
            self.stats.duplicates += 1;
        } else if seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            // Drain any contiguous run buffered out of order.
            while self.out_of_order.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
        } else {
            self.out_of_order.insert(seq);
        }
        self.stats.acks_sent += 1;
        TcpSegment {
            flow: self.flow,
            kind: TcpSegmentKind::Ack {
                ack: self.rcv_nxt,
                mrai: avbw,
                marked,
                ooo,
                sack: if self.sack_enabled { self.sack_blocks() } else { Vec::new() },
            },
        }
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

    /// What a receiver is built with — its flow and SACK — is not in its
    /// bytes: two fresh receivers built differently write the same record,
    /// and a busy one decoded around its settings acknowledges the next
    /// segment as the original does.
    #[test]
    fn the_flow_and_sack_are_given_not_read() {
        let encoded = |rx: &TcpReceiver| {
            let mut w = sim_core::SnapshotWriter::new();
            rx.encode_state(&mut w);
            w.finish()
        };
        let flow = FlowId::new(3);
        let segment = |seq| TcpSegment::data(flow, seq, 1460, None);
        assert_eq!(encoded(&rx(false)), encoded(&TcpReceiver::new(flow, true)));
        let mut busy = TcpReceiver::new(flow, true);
        for seq in [0, 2, 3] {
            let _ = busy.on_data_segment(&segment(seq), SimTime::ZERO);
        }
        let bytes = encoded(&busy);
        let mut r = sim_core::SnapshotReader::new(&bytes);
        let mut twin = TcpReceiver::decode_state(&mut r, flow, true).expect("own encoding");
        let at = SimTime::from_nanos(1);
        let (a, b) = (busy.on_data_segment(&segment(1), at), twin.on_data_segment(&segment(1), at));
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
