//! Tier-1 differential gate for the calendar-queue scheduler: under
//! randomised interleavings of push / pop / lazy-cancel, the calendar
//! queue and the `BinaryHeap`-backed reference must emit *identical* pop
//! streams — same timestamps, same payloads, same FIFO order among ties,
//! same tombstone skips. The heap is a reference only — no simulation can
//! be configured onto it — so this queue-level stream equality, with
//! sim-core's `calendar_matches_heap*` proptests, is where the calendar's
//! two tiers (a one-lap calendar of 128 buckets × 65,536 ns and a heap past
//! its horizon) are checked against an implementation that has neither.
//! End to end, `tests/snapshot_twin.rs` checks that a calendar laid out
//! afresh by `restore` pops as the long-running one does.

#![allow(clippy::cast_possible_truncation, reason = "test inputs are small generated values")]

use proptest::prelude::*;
use tcp_muzha::sim::{EventQueue, HeapQueue, SimDuration, SimRng, SimTime, TimerSlab};

/// The calendar's lap: 128 buckets of 65,536 ns. Entries at or past the
/// lap's horizon wait in the far heap.
const LAP_NS: u64 = 128 * 65_536;

/// The first nanosecond past the lap that starts in `now`'s bucket.
fn horizon(now: SimTime) -> SimTime {
    let start = now.as_nanos() / 65_536 * 65_536;
    SimTime::from_nanos(start + LAP_NS)
}

/// One scripted operation against both queues.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule a fresh timer at `now + offset_ns` (quantised so ties are
    /// frequent — the FIFO tie discipline is the property under test).
    Push { offset_ns: u64 },
    /// Schedule a fresh timer at the lap's horizon shifted by `delta_ns`
    /// (-1, 0 or +1): the last nanosecond of the near tier, the first of
    /// the far one, and the next.
    Horizon { delta_ns: i64 },
    /// Schedule 400 fresh timers at one instant 100 ms out, as the city's
    /// mobility ticks are.
    Burst,
    /// Pop the earliest event from both queues and compare.
    Pop,
    /// Tombstone the `sel`-th still-live handle (lazy cancellation: the
    /// queued event stays put and must later pop as a stale skip).
    Cancel { sel: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u64..64).prop_map(|(discriminant, x)| match discriminant {
        // Quantised offsets (weight 3/10): ~1/8 of pushes collide exactly
        // in time, so the FIFO tie discipline is constantly under load.
        0..=2 => Op::Push { offset_ns: (x % 8) * 125_000 },
        // Far-future outliers (1/10) jump the lap to the heap's head.
        3 => Op::Push { offset_ns: (1 + x % 4) * 1_000_000_000 },
        // CWmax countdowns (1023 slots of 20 µs) and horizon edges (1/10
        // each) migrate from the heap as the lap moves.
        4 => Op::Push { offset_ns: 20_460_000 },
        5 => Op::Horizon { delta_ns: (x % 3) as i64 - 1 },
        6 if x < 8 => Op::Burst,
        // Pops (2/10, more when the burst is skipped) interleave with
        // pushes so `now` keeps advancing.
        6..=8 => Op::Pop,
        _ => Op::Cancel { sel: x as usize },
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Same ops in, same (time, handle, liveness) stream out.
    #[test]
    fn calendar_matches_heap_reference(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        drain in any::<bool>(),
    ) {
        let mut calendar = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut slab = TimerSlab::new();
        let mut live = Vec::new();
        let mut stale_skips = 0u64;
        let mut pops = 0u64;

        for op in &ops {
            match *op {
                Op::Push { .. } | Op::Horizon { .. } | Op::Burst => {
                    // Both queues agree on `now` (asserted below), so the
                    // same absolute times are legal for each.
                    let now = calendar.now();
                    let (at, count) = match *op {
                        Op::Push { offset_ns } => (now + SimDuration::from_nanos(offset_ns), 1),
                        Op::Horizon { delta_ns } => {
                            let edge = horizon(now).as_nanos().saturating_add_signed(delta_ns);
                            (SimTime::from_nanos(edge), 1)
                        }
                        _ => (now + SimDuration::from_millis(100), 400),
                    };
                    for _ in 0..count {
                        let handle = slab.schedule();
                        live.push(handle);
                        calendar.push(at, handle);
                        heap.push(at, handle);
                    }
                }
                Op::Cancel { sel } => {
                    if !live.is_empty() {
                        let handle = live.swap_remove(sel % live.len());
                        prop_assert!(slab.cancel(handle));
                    }
                }
                Op::Pop => {
                    let a = calendar.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b, "pop streams diverged");
                    if let Some((_, handle)) = a {
                        pops += 1;
                        // The dispatch choke point's stale check: a
                        // tombstoned handle pops but must not fire.
                        if slab.fire(handle) {
                            live.retain(|h| *h != handle);
                        } else {
                            stale_skips += 1;
                        }
                    }
                }
            }
            prop_assert_eq!(calendar.len(), heap.len());
            prop_assert_eq!(calendar.now(), heap.now());
        }

        if drain {
            // Drain both queues to the end: tail order (including events
            // still in the far heap) must also agree.
            loop {
                let a = calendar.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b, "drain streams diverged");
                match a {
                    None => break,
                    Some((_, handle)) => {
                        pops += 1;
                        if !slab.fire(handle) {
                            stale_skips += 1;
                        }
                    }
                }
            }
            prop_assert!(calendar.is_empty() && heap.is_empty());
            // Every scheduled handle was pushed exactly once and the drain
            // popped them all; each pop either fired its timer or skipped a
            // tombstone, so the books must balance exactly.
            prop_assert_eq!(pops, slab.scheduled_count());
            prop_assert_eq!(stale_skips, slab.cancelled_count());
            prop_assert_eq!(slab.live(), 0);
        }
    }

    /// Sequence numbers are part of the contract now that a driver can take
    /// one without queueing anything (`reserve_seq`), order lazily applied
    /// work against popped entries by `(time, seq)`, and queue that work
    /// after all under the number it took (`push_reserved`): reservations
    /// interleaved with pushes leave both queues issuing the same numbers,
    /// a reserved number is carried by no entry until it is pushed under,
    /// and `pop_entry` returns the smallest key of a model that knows
    /// nothing but keys — so an entry pushed under an old number pops ahead
    /// of the later-pushed ties at its instant (the head's included) and
    /// behind the earlier ones.
    #[test]
    fn reserved_seqs_keep_the_queues_in_lock_step(
        ops in proptest::collection::vec((0u8..8, 0u64..4, 0usize..4), 1..200),
    ) {
        let mut calendar = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut model = std::collections::BTreeSet::new();
        let mut issued = 0u64;
        let mut reserved = Vec::new();
        for &(kind, slot, pick) in &ops {
            // Coarse time slots: most pushes tie with an earlier one, and
            // slot 0 is the instant of the entry popped last.
            let at = calendar.now() + SimDuration::from_nanos(slot * 1_000);
            match kind {
                0..=2 => {
                    // The payload is the seq the entry must be given.
                    calendar.push(at, issued);
                    heap.push(at, issued);
                    model.insert((at, issued));
                    issued += 1;
                }
                3 | 4 => {
                    prop_assert_eq!(calendar.reserve_seq(), issued);
                    prop_assert_eq!(heap.reserve_seq(), issued);
                    reserved.push(issued);
                    issued += 1;
                }
                5 if !reserved.is_empty() => {
                    let seq = reserved.swap_remove(pick % reserved.len());
                    calendar.push_reserved(at, seq, seq);
                    heap.push_reserved(at, seq, seq);
                    model.insert((at, seq));
                }
                _ => {
                    let expected = model.pop_first();
                    let popped = calendar.pop_entry();
                    prop_assert_eq!(popped, heap.pop_entry());
                    prop_assert_eq!(popped.map(|(time, seq, _)| (time, seq)), expected);
                    if let Some((_, seq, payload)) = popped {
                        prop_assert_eq!(seq, payload, "pop_entry reported another entry's seq");
                        prop_assert!(!reserved.contains(&seq), "a reserved seq was queued");
                    }
                }
            }
            prop_assert_eq!(calendar.next_seq(), issued);
            prop_assert_eq!(calendar.len(), model.len());
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(calendar.peek_time(), model.first().map(|&(time, _)| time));
        }
    }

    /// Ties at one timestamp pop in exact insertion order from both queues,
    /// regardless of how many other timestamps surround them.
    #[test]
    fn fifo_ties_survive_mixed_traffic(
        seed in 0u64..1000,
        ties in 2usize..20,
        noise in 0usize..40,
    ) {
        let mut rng = SimRng::new(seed);
        let mut calendar = EventQueue::new();
        let mut heap = HeapQueue::new();
        let tie_time = SimTime::ZERO + SimDuration::from_millis(5);
        let mut payload = 0u64;
        for _ in 0..noise {
            let at = SimTime::ZERO + SimDuration::from_nanos(u64::from(rng.below(10_000_000)));
            calendar.push(at, payload);
            heap.push(at, payload);
            payload += 1;
        }
        let first_tie = payload;
        for _ in 0..ties {
            calendar.push(tie_time, payload);
            heap.push(tie_time, payload);
            payload += 1;
        }
        let mut seen_ties = Vec::new();
        while let Some((t, p)) = calendar.pop() {
            prop_assert_eq!(Some((t, p)), heap.pop());
            if t == tie_time && p >= first_tie {
                seen_ties.push(p);
            }
        }
        prop_assert_eq!(heap.pop(), None);
        let expected: Vec<u64> = (first_tie..first_tie + ties as u64).collect();
        prop_assert_eq!(seen_ties, expected, "FIFO tie order violated");
    }
}
