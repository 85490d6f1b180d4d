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
        let mut pushes = 0u64;

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
                        pushes += 1;
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
            prop_assert_eq!(pops, pushes);
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
    /// behind the earlier ones. Entries land in three buckets, so pops that
    /// empty one leave slots that filings into another take.
    #[test]
    fn reserved_seqs_keep_the_queues_in_lock_step(ops in lock_step_ops()) {
        lock_step(&ops, &mut Rewrites::default());
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

/// Where an entry of [`lock_step`] lands, after the instant of the entry
/// popped last: four instants 1 µs apart, in `now`'s bucket unless it is
/// about to end, and two in the next two buckets.
const LOCK_STEP_AT_NS: [u64; 6] = [0, 1_000, 2_000, 3_000, 65_536, 2 * 65_536 + 500];

/// `(kind, instant, pick)`: a push (kinds 0–2), a reservation (3–4), a
/// `push_reserved` under the `pick`-th outstanding number (5) or a pop.
fn lock_step_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..8, 0usize..LOCK_STEP_AT_NS.len(), 0usize..4), 1..200)
}

/// How the filings and pops of one [`lock_step`] run met their bucket's
/// list, told from the model's keys and the lap's geometry alone.
#[derive(Debug, Default)]
struct Rewrites {
    /// Filed into an empty bucket, setting its bit.
    first: u64,
    /// Filed ahead of every entry of its bucket.
    head: u64,
    /// Filed between two entries of its bucket.
    mid: u64,
    /// Filed behind every entry of its bucket.
    tail: u64,
    /// Filed under a reserved seq ahead of a later-pushed tie.
    walked_past_ties: u64,
    /// Popped its bucket's last entry, clearing its bit.
    emptied: u64,
    /// Filed into another bucket than the one a pop just emptied.
    refilled_elsewhere: u64,
}

/// The lap's bucket window of `time`: 65,536 ns each.
fn window(time: SimTime) -> u64 {
    time.as_nanos() / 65_536
}

/// Runs `ops` on both queues beside a model of their keys, checks them
/// after every op, and adds the rewrites the filings and pops made to
/// `seen`.
fn lock_step(ops: &[(u8, usize, usize)], seen: &mut Rewrites) {
    let mut calendar = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut model = std::collections::BTreeSet::new();
    let mut issued = 0u64;
    let mut reserved = Vec::new();
    let mut last_emptied = None;
    for &(kind, slot, pick) in ops {
        // Coarse instants: most pushes tie with an earlier one, and slot 0
        // is the instant of the entry popped last.
        let at = calendar.now() + SimDuration::from_nanos(LOCK_STEP_AT_NS[slot]);
        let seq = match kind {
            0..=2 => Some(issued),
            5 if !reserved.is_empty() => Some(reserved.swap_remove(pick % reserved.len())),
            _ => None,
        };
        if let Some(seq) = seq {
            let bucket = || model.iter().filter(|&&(time, _)| window(time) == window(at));
            let ahead = bucket().filter(|&&key| key > (at, seq)).count();
            match (bucket().count(), ahead) {
                (0, _) => seen.first += 1,
                (n, a) if a == n => seen.head += 1,
                (_, 0) => seen.tail += 1,
                _ => seen.mid += 1,
            }
            if bucket().any(|&(time, later)| time == at && later > seq) {
                seen.walked_past_ties += 1;
            }
            if last_emptied.take().is_some_and(|emptied| emptied != window(at)) {
                seen.refilled_elsewhere += 1;
            }
            if seq == issued {
                // The payload is the seq the entry must be given.
                calendar.push(at, seq);
                heap.push(at, seq);
                issued += 1;
            } else {
                calendar.push_reserved(at, seq, seq);
                heap.push_reserved(at, seq, seq);
            }
            model.insert((at, seq));
        } else if kind == 3 || kind == 4 {
            assert_eq!(calendar.reserve_seq(), issued);
            assert_eq!(heap.reserve_seq(), issued);
            reserved.push(issued);
            issued += 1;
        } else {
            let expected = model.pop_first();
            let popped = calendar.pop_entry();
            assert_eq!(popped, heap.pop_entry());
            assert_eq!(popped.map(|(time, seq, _)| (time, seq)), expected);
            if let Some((time, seq, payload)) = popped {
                assert_eq!(seq, payload, "pop_entry reported another entry's seq");
                assert!(!reserved.contains(&seq), "a reserved seq was queued");
                if !model.iter().any(|&(other, _)| window(other) == window(time)) {
                    seen.emptied += 1;
                    last_emptied = Some(window(time));
                }
            }
        }
        assert_eq!(calendar.next_seq(), issued);
        assert_eq!(calendar.len(), model.len());
        assert_eq!(heap.len(), model.len());
        assert_eq!(calendar.peek_time(), model.first().map(|&(time, _)| time));
    }
}

/// The lock-step property's own inputs reach every way a filing or a pop
/// rewrites a bucket's list: a head, a middle and a tail insertion, an
/// insertion into an empty bucket, a reserved seq filed ahead of the ties
/// pushed after it, the pop that empties a bucket, and the filing into
/// another bucket that takes the slot that pop freed.
#[test]
fn lock_step_reaches_every_link_rewrite() {
    let mut seen = Rewrites::default();
    for case in 0..48 {
        lock_step(&lock_step_ops().generate(&mut TestRng::new(case)), &mut seen);
    }
    let Rewrites { first, head, mid, tail, walked_past_ties, emptied, refilled_elsewhere } = seen;
    let counts = [first, head, mid, tail, walked_past_ties, emptied, refilled_elsewhere];
    assert!(counts.iter().all(|&n| n >= 20), "{seen:?}");
}
