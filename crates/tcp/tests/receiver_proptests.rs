//! Property tests for TCP receiver reassembly: any mix of duplicated,
//! overlapping and reordered segment arrivals must produce exactly-once,
//! in-order delivery — for the plain (Reno/Vegas-style) receiver and the
//! SACK-enabled receiver alike.
//!
//! These are the faultline test corpus's transport-layer counterpart: the
//! runtime invariant checker asserts `rcv_nxt` monotonicity on live runs,
//! while these tests push the reassembly machine through far nastier
//! arrival patterns than a simulation run would generate.

#![allow(clippy::cast_possible_truncation, reason = "test inputs are small generated values")]

use proptest::prelude::*;
use sim_core::SimTime;
use tcp::TcpReceiver;
use wire::{FlowId, TcpSegment, TcpSegmentKind};

const FLOW: FlowId = FlowId::new(0);
const MSS: u64 = 1460;

fn data(seq: u64) -> TcpSegment {
    TcpSegment::data(FLOW, seq, MSS as u32, None)
}

fn ack_no(seg: &TcpSegment) -> u64 {
    match seg.kind {
        TcpSegmentKind::Ack { ack, .. } => ack,
        _ => panic!("receiver returned a non-ACK"),
    }
}

/// Feeds `arrivals` (arbitrary dups/reorders drawn from `0..n`), then a
/// final in-order sweep `0..n` closing every hole, and returns the receiver.
fn feed(mut r: TcpReceiver, arrivals: &[u64], n: u64) -> TcpReceiver {
    for (tick, &seq) in arrivals.iter().enumerate() {
        let ack = r.on_data_segment(&data(seq), SimTime::from_nanos(tick as u64));
        // The cumulative ACK always points exactly at the reassembly
        // frontier.
        assert_eq!(ack_no(&ack), r.rcv_nxt());
    }
    for seq in 0..n {
        let _ = r.on_data_segment(&data(seq), SimTime::from_nanos(1_000_000 + seq));
    }
    r
}

proptest! {
    /// Exactly-once delivery: no matter how arrivals duplicate or reorder,
    /// once every hole is closed the receiver has delivered each of the
    /// `n` segments exactly once — never zero, never twice.
    #[test]
    fn exactly_once_in_order_delivery(
        arrivals in proptest::collection::vec(0u64..12, 40)
    ) {
        const N: u64 = 12;
        for sack in [false, true] {
            let r = feed(TcpReceiver::new(FLOW, sack), &arrivals, N);
            prop_assert_eq!(r.rcv_nxt(), N);
            prop_assert_eq!(r.delivered_bytes(), N * MSS);
        }
    }

    /// The reassembly frontier never moves backwards and never runs ahead
    /// of the number of distinct segments that could have been delivered.
    #[test]
    fn rcv_nxt_is_monotone_and_bounded(
        arrivals in proptest::collection::vec(0u64..16, 48)
    ) {
        let mut r = TcpReceiver::new(FLOW, true);
        let mut prev = 0u64;
        let mut seen: Vec<u64> = Vec::new();
        for (i, &seq) in arrivals.iter().enumerate() {
            if !seen.contains(&seq) {
                seen.push(seq);
            }
            let _ = r.on_data_segment(&data(seq), SimTime::from_nanos(i as u64));
            prop_assert!(r.rcv_nxt() >= prev, "rcv_nxt went backwards");
            prop_assert!(
                r.rcv_nxt() as usize <= seen.len(),
                "frontier ran ahead of the distinct data seen"
            );
            prev = r.rcv_nxt();
        }
    }

    /// Re-delivering an already-delivered segment re-ACKs the frontier and
    /// never advances it.
    #[test]
    fn duplicates_never_advance(
        n in 1u64..20,
        dup_rounds in 1usize..4
    ) {
        let mut r = TcpReceiver::new(FLOW, false);
        for seq in 0..n {
            let _ = r.on_data_segment(&data(seq), SimTime::from_nanos(seq));
        }
        let before = r.rcv_nxt();
        for round in 0..dup_rounds {
            for seq in 0..n {
                let ack = r.on_data_segment(
                    &data(seq),
                    SimTime::from_nanos(10_000 + (round as u64) * 100 + seq),
                );
                prop_assert_eq!(ack_no(&ack), before, "dup must re-ACK the frontier");
            }
        }
        prop_assert_eq!(r.rcv_nxt(), before);
        prop_assert_eq!(r.delivered_bytes(), n * MSS);
    }

    /// The SACK-enabled and plain receivers agree on cumulative delivery
    /// for any arrival pattern — SACK only changes what the ACKs *say*,
    /// never what is delivered.
    #[test]
    fn sack_and_plain_receivers_deliver_identically(
        arrivals in proptest::collection::vec(0u64..10, 30)
    ) {
        let mut plain = TcpReceiver::new(FLOW, false);
        let mut sack = TcpReceiver::new(FLOW, true);
        for (i, &seq) in arrivals.iter().enumerate() {
            let t = SimTime::from_nanos(i as u64);
            let a = plain.on_data_segment(&data(seq), t);
            let b = sack.on_data_segment(&data(seq), t);
            prop_assert_eq!(plain.rcv_nxt(), sack.rcv_nxt());
            prop_assert_eq!(ack_no(&a), ack_no(&b));
        }
        prop_assert_eq!(plain.delivered_bytes(), sack.delivered_bytes());
    }
}
