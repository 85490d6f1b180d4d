//! The stable, timed event queue at the heart of the simulator.
//!
//! Two implementations share one contract:
//!
//! * [`EventQueue`] — a one-lap calendar for the next 8.39 ms and a binary
//!   heap beyond it, used by the driver loop.
//! * [`HeapQueue`] — the original `BinaryHeap` implementation, kept only as
//!   the oracle the calendar is checked against (`calendar_matches_heap*`
//!   below, `tests/scheduler_differential.rs`); no simulation runs on it.
//!
//! Both pop events in `(time, seq)` order with FIFO tie-break.

#![expect(
    clippy::disallowed_types,
    reason = "the scheduler's home: both heaps here pop in (time, seq) order, never by arbitrary tie"
)]

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Debug;

use crate::SimTime;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Each bucket spans 2^16 = 65,536 ns: a DIFS (50 µs) plus the longest
/// propagation delay, or three 20 µs backoff slots — a few DCF steps and
/// the burst of `RxEnd`s that ends a frame.
const BUCKET_SHIFT: u32 = 16;
/// Buckets in one lap, one bit each in `EventQueue::occupied`: 128 ×
/// 65,536 ns = 8.39 ms, longer than anything a transmission schedules (a
/// 1,534-byte DATA frame lasts 6.33 ms at 2 Mbit/s, PLCP included, plus
/// propagation). TCP, AODV and sampling timers, and CWmax countdowns
/// (20.5 ms), wait in the far heap.
const BUCKETS: u64 = u128::BITS as u64;
/// [`BUCKETS`] as the near tier's array length.
const LAP_LEN: usize = u128::BITS as usize;

/// The bucket window holding `time`.
fn window(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

/// A priority queue of `(SimTime, E)` pairs that pops events in time order,
/// breaking ties by insertion order (FIFO).
///
/// The FIFO tie-break is what makes simulations deterministic: two events
/// scheduled for the same instant are always delivered in the order they were
/// scheduled, independent of queue internals.
///
/// # Implementation
///
/// Two tiers with no adaptive state. The near tier is a one-lap calendar:
/// the lap is the 128 windows of 65,536 ns from the window of
/// [`Self::now`], and window `w` of the lap lives in bucket `w % 128`, so
/// each bucket holds only its own window's entries, in `(time, seq)`
/// order, and an occupancy bitmap finds the next non-empty one. The far
/// tier is a binary heap of every entry at or past the lap's horizon. A
/// pop that moves [`Self::now`] into a later window moves the lap with it
/// and files the far entries the lap now reaches into their buckets; a pop
/// that finds the lap empty jumps it to the heap's head.
///
/// Because equal times always share a bucket or the heap, FIFO ties cost
/// one sorted insert into a run of equal-time entries and pop in insertion
/// order.
///
/// # Example
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_nanos(10);
/// q.push(t, 'a');
/// q.push(t, 'b');
/// assert_eq!(q.pop(), Some((t, 'a')));
/// assert_eq!(q.pop(), Some((t, 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The near tier: window `w` of the lap in bucket `w % BUCKETS`.
    near: Box<[VecDeque<Entry<E>>; LAP_LEN]>,
    /// Bit `i` is set while bucket `i` holds an entry.
    occupied: u128,
    /// The far tier: every entry in window `cursor + BUCKETS` or later.
    far: BinaryHeap<Entry<E>>,
    /// The lap's first window: that of [`Self::now`].
    cursor: u64,
    len: usize,
    next_seq: u64,
    /// Time of the most recent pop — the queue's notion of "now" and the
    /// monotonicity floor for [`Self::push`]. Pops at an equal timestamp
    /// are legal and keep FIFO order via `next_seq`; only a push *behind*
    /// this stamp is a bug (it would mean an event tried to reach into the
    /// simulated past) and panics with the event's debug summary.
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: Box::new([const { VecDeque::new() }; LAP_LEN]),
            occupied: 0,
            far: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event — scheduling
    /// into the past is always a simulation bug. The message carries the
    /// offending event's debug summary alongside the two times.
    pub fn push(&mut self, time: SimTime, event: E)
    where
        E: Debug,
    {
        let seq = self.reserve_seq();
        self.push_reserved(time, seq, event);
    }

    /// Schedules `event` under a sequence number [`Self::reserve_seq`]
    /// issued earlier: work that was being applied lazily becomes a queue
    /// entry after all, with the `(time, seq)` key it would have had if it
    /// had been pushed when the number was taken. It pops among entries
    /// pushed since exactly where that push would have put it.
    ///
    /// # Panics
    ///
    /// As [`Self::push`]: `time` may not lie before the last popped event.
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E)
    where
        E: Debug,
    {
        assert!(
            time >= self.last_popped,
            "scheduled event at {time} before current time {}: {event:?}",
            self.last_popped
        );
        debug_assert!(seq < self.next_seq, "seq {seq} was never issued");
        self.file(Entry { time, seq, event });
        self.len += 1;
    }

    /// Issues the sequence number the next [`Self::push`] would have been
    /// given, without queueing anything. A driver that applies some piece of
    /// work lazily instead of scheduling it takes the work's place in the
    /// FIFO order this way: whatever is pushed afterwards keeps exactly the
    /// `(time, seq)` key it would have had, and the driver can order the
    /// lazy work against popped entries by comparing keys.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The sequence number the next push or [`Self::reserve_seq`] will be
    /// given: every number issued so far is below it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether `time` falls inside the lap, before its horizon.
    fn in_lap(&self, time: SimTime) -> bool {
        window(time) < self.cursor + BUCKETS
    }

    /// Puts `entry` in its bucket if the lap reaches it, in the far heap
    /// otherwise.
    fn file(&mut self, entry: Entry<E>) {
        if !self.in_lap(entry.time) {
            self.far.push(entry);
            return;
        }
        let slot = window(entry.time) % BUCKETS;
        let bucket = &mut self.near[slot as usize];
        // Walk back past later keys. Fresh pushes carry the largest seq so
        // far, so this is O(1) for the common append; an entry under a
        // reserved seq also walks past the later-pushed ties at its instant.
        let mut pos = bucket.len();
        while pos > 0 && (entry.time, entry.seq) < (bucket[pos - 1].time, bucket[pos - 1].seq) {
            pos -= 1;
        }
        // `VecDeque::insert` is an out-of-line call; appends skip it.
        if pos == bucket.len() {
            bucket.push_back(entry);
        } else {
            bucket.insert(pos, entry);
        }
        self.occupied |= 1 << slot;
    }

    /// The first non-empty bucket from the cursor's, wrapping past the last
    /// bucket to the lap's later windows. Only called with the lap non-empty.
    fn first_bucket(&self) -> usize {
        let start = self.cursor % BUCKETS;
        let ahead = u64::from(self.occupied.rotate_right(start as u32).trailing_zeros());
        ((start + ahead) % BUCKETS) as usize
    }

    /// Starts the lap at `time`'s window and files every far entry the lap
    /// now reaches into its bucket.
    fn advance(&mut self, time: SimTime) {
        if window(time) == self.cursor {
            return;
        }
        self.cursor = window(time);
        while self.far.peek().is_some_and(|head| self.in_lap(head.time)) {
            if let Some(entry) = self.far.pop() {
                self.file(entry);
            }
        }
    }

    /// The entries tied at the earliest pending time, in FIFO order. While
    /// the lap is empty they are in the far heap.
    fn ties(&self) -> Vec<&Entry<E>> {
        if self.occupied != 0 {
            let bucket = &self.near[self.first_bucket()];
            let time = bucket.front().map(|head| head.time);
            return bucket.iter().take_while(|e| Some(e.time) == time).collect();
        }
        let Some(head) = self.far.peek() else { return Vec::new() };
        let mut tied: Vec<&Entry<E>> = self.far.iter().filter(|e| e.time == head.time).collect();
        tied.sort_unstable_by_key(|e| e.seq);
        tied
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_nth(0).map(|(time, _, event)| (time, event))
    }

    /// Removes the `n`-th event (FIFO order) among those tied at the
    /// earliest pending time and returns it with its `(time, seq)` key;
    /// `pop_nth(0)` pops what [`Self::pop`] pops. Returns `None` when the
    /// queue is empty or `n` is outside the tie run (the queue is untouched
    /// in that case). The remaining tied events keep their original
    /// insertion sequence, so FIFO order among them survives.
    pub fn pop_nth(&mut self, n: usize) -> Option<(SimTime, u64, E)> {
        if self.occupied == 0 {
            // The lap is empty: jump it to the far heap's head. Check `n`
            // first — a lap that starts past `now` could not file a later
            // push at `now`, so a pop that fails must leave the lap alone.
            let head = self.far.peek()?.time;
            if n > 0 && n >= self.ties().len() {
                return None;
            }
            self.advance(head);
        }
        let slot = self.first_bucket();
        let bucket = &mut self.near[slot];
        let time = bucket.front()?.time;
        // The tie run occupies positions `0..k` of the first bucket.
        if bucket.get(n).is_none_or(|e| e.time != time) {
            return None;
        }
        // As in `file`: the common case skips the out-of-line `remove`.
        let entry = if n == 0 { bucket.pop_front() } else { bucket.remove(n) }?;
        if bucket.is_empty() {
            self.occupied &= !(1 << slot);
        }
        self.len -= 1;
        self.last_popped = entry.time;
        self.advance(entry.time);
        Some((entry.time, entry.seq, entry.event))
    }

    /// Number of pending events tied at the earliest time (0 when empty).
    pub fn tie_count(&self) -> usize {
        self.ties().len()
    }

    /// Visits each event tied at the earliest time, in FIFO order.
    pub fn for_each_tie(&self, mut f: impl FnMut(&E)) {
        for entry in self.ties() {
            f(&entry.event);
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.occupied == 0 {
            return self.far.peek().map(|head| head.time);
        }
        self.near[self.first_bucket()].front().map(|head| head.time)
    }

    /// Every pending entry, both tiers, in no particular order.
    fn entries(&self) -> impl Iterator<Item = &Entry<E>> {
        self.near.iter().flatten().chain(&self.far)
    }

    /// Every pending event, in no particular order — for validating a
    /// restored queue's contents, never for deciding what runs next.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.entries().map(|entry| &entry.event)
    }

    /// The virtual time of the most recently popped event — the tie stamp
    /// against which [`Self::push`] enforces monotonicity.
    ///
    /// Pushing at exactly `now()` is allowed: the new event sorts after
    /// everything already popped (its pop is still in the future) and after
    /// any pending event at the same instant that was pushed earlier (FIFO).
    /// `now()` never moves backwards; it advances only when `pop` returns an
    /// event with a strictly later time.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Number of pending events, in both tiers. This is a live count
    /// maintained by push/pop, so the driver's high-water mark reads it for
    /// free.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Every pending entry as `(time, seq, event)` in `(time, seq)` order —
    /// the canonical form the snapshot codec stores. Which tier holds an
    /// entry is not part of it: that follows from its time and
    /// `last_popped`, and the pop order depends only on `(time, seq)`.
    fn snapshot_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut all: Vec<(SimTime, u64, &E)> =
            self.entries().map(|e| (e.time, e.seq, &e.event)).collect();
        all.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        all
    }

    /// Rebuilds a queue from its canonical snapshot form. Entries must
    /// arrive in `(time, seq)` order at or after `last_popped`; sequence
    /// numbers are preserved so FIFO ties replay identically.
    fn from_restored(last_popped: SimTime, next_seq: u64, entries: Vec<(SimTime, u64, E)>) -> Self {
        let mut q = EventQueue::new();
        q.last_popped = last_popped;
        q.cursor = window(last_popped);
        q.len = entries.len();
        q.next_seq = next_seq;
        for (time, seq, event) in entries {
            q.file(Entry { time, seq, event });
        }
        q
    }
}

/// The original `BinaryHeap`-backed queue: same contract as [`EventQueue`]
/// (time order, FIFO ties, monotonic push), O(log n) push/pop. Kept as the
/// reference implementation the differential property tests compare the
/// calendar queue against; it is not selectable for a simulation.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new(), next_seq: 0, last_popped: SimTime::ZERO }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event (with the
    /// offending event's debug summary, mirroring [`EventQueue::push`]).
    pub fn push(&mut self, time: SimTime, event: E)
    where
        E: Debug,
    {
        let seq = self.reserve_seq();
        self.push_reserved(time, seq, event);
    }

    /// Schedules `event` under a sequence number issued earlier by
    /// [`Self::reserve_seq`] (see [`EventQueue::push_reserved`]).
    ///
    /// # Panics
    ///
    /// As [`Self::push`].
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E)
    where
        E: Debug,
    {
        assert!(
            time >= self.last_popped,
            "scheduled event at {time} before current time {}: {event:?}",
            self.last_popped
        );
        debug_assert!(seq < self.next_seq, "seq {seq} was never issued");
        self.heap.push(Entry { time, seq, event });
    }

    /// Issues the next sequence number without queueing anything (see
    /// [`EventQueue::reserve_seq`]).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.last_popped, "event queue went backwards");
        self.last_popped = entry.time;
        Some((entry.time, entry.event))
    }

    /// Removes the `n`-th event (FIFO order) among those tied at the
    /// earliest pending time and returns it with its `(time, seq)` key (see
    /// [`EventQueue::pop_nth`]). The other tied entries are re-inserted with
    /// their original sequence numbers, so FIFO order among the survivors
    /// is preserved.
    pub fn pop_nth(&mut self, n: usize) -> Option<(SimTime, u64, E)> {
        let time = self.heap.peek()?.time;
        // The heap pops `(time, seq)` ascending, so draining the tie run
        // yields it already in FIFO order.
        let mut tied: Vec<Entry<E>> = Vec::new();
        while self.heap.peek().is_some_and(|e| e.time == time) {
            if let Some(entry) = self.heap.pop() {
                tied.push(entry);
            }
        }
        if n >= tied.len() {
            self.heap.extend(tied);
            return None;
        }
        // swap_remove scrambles the survivors' order, but re-inserting into
        // the heap restores `(time, seq)` order from the preserved seqs.
        let entry = tied.swap_remove(n);
        self.heap.extend(tied);
        debug_assert!(entry.time >= self.last_popped, "event queue went backwards");
        self.last_popped = entry.time;
        Some((entry.time, entry.seq, entry.event))
    }

    /// Number of pending events tied at the earliest time (0 when empty).
    pub fn tie_count(&self) -> usize {
        let Some(head) = self.heap.peek() else { return 0 };
        self.heap.iter().filter(|e| e.time == head.time).count()
    }

    /// Visits each event tied at the earliest time, in FIFO order.
    pub fn for_each_tie(&self, mut f: impl FnMut(&E)) {
        let Some(head) = self.heap.peek() else { return };
        let mut tied: Vec<&Entry<E>> = self.heap.iter().filter(|e| e.time == head.time).collect();
        tied.sort_unstable_by_key(|e| e.seq);
        for entry in tied {
            f(&entry.event);
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The virtual time of the most recently popped event (see
    /// [`EventQueue::now`] for the tie-stamp semantics).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: crate::Snapshotable + Debug> crate::Snapshotable for EventQueue<E> {
    fn encode(&self, w: &mut crate::SnapshotWriter) {
        let entries = self.snapshot_entries();
        w.put(&self.last_popped);
        w.put_u64(self.next_seq);
        w.put_usize(entries.len());
        for (time, seq, event) in entries {
            w.put(&time);
            w.put_u64(seq);
            event.encode(w);
        }
    }

    fn decode(r: &mut crate::SnapshotReader<'_>) -> Result<Self, crate::SnapError> {
        let last_popped: SimTime = r.get()?;
        let next_seq = r.take_u64()?;
        let count = r.take_usize()?;
        let mut entries: Vec<(SimTime, u64, E)> = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let time: SimTime = r.get()?;
            let seq = r.take_u64()?;
            let event = E::decode(r)?;
            if time < last_popped {
                return Err(crate::SnapError::Invalid("queued event before now"));
            }
            if seq >= next_seq {
                return Err(crate::SnapError::Invalid("queued event seq from the future"));
            }
            if let Some(&(pt, ps, _)) = entries.last() {
                if (time, seq) <= (pt, ps) {
                    return Err(crate::SnapError::Invalid("queue entries out of order"));
                }
            }
            entries.push((time, seq, event));
        }
        Ok(EventQueue::from_restored(last_popped, next_seq, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 'a');
        assert_eq!(q.pop(), Some((t(10), 'a')));
        q.push(t(10), 'b'); // same instant as "now" is allowed
        q.push(t(15), 'c');
        assert_eq!(q.pop(), Some((t(10), 'b')));
        assert_eq!(q.pop(), Some((t(15), 'c')));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(t(10), ());
        q.pop();
        q.push(t(9), ());
    }

    #[test]
    fn past_panic_names_the_event() {
        let caught = std::panic::catch_unwind(|| {
            let mut q = EventQueue::new();
            q.push(t(10), "late-rto");
            q.pop();
            q.push(t(9), "late-rto");
        });
        let msg = caught.unwrap_err();
        let msg = msg.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("late-rto"), "panic must carry the event: {msg}");
    }

    #[test]
    fn now_and_len_track_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(t(42), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(42)));
        q.pop();
        assert_eq!(q.now(), t(42));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_jump_then_near_pushes() {
        // A pop far in the future commits the cursor out there; pushes at
        // (or just after) the new `now` must still be found by the scan.
        let mut q = EventQueue::new();
        q.push(t(10_000_000_000), 'f'); // +10 s
        assert_eq!(q.pop(), Some((t(10_000_000_000), 'f')));
        q.push(t(10_000_000_000), 'a'); // exactly at now
        q.push(t(10_000_000_001), 'b');
        q.push(t(10_000_500_000), 'c');
        assert_eq!(q.pop(), Some((t(10_000_000_000), 'a')));
        assert_eq!(q.pop(), Some((t(10_000_000_001), 'b')));
        assert_eq!(q.pop(), Some((t(10_000_500_000), 'c')));
    }

    #[test]
    fn both_tiers_drain_in_order() {
        // A second of colliding times: most start in the far heap and
        // migrate lap by lap, through sorted inserts at every tie.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0u64..5_000 {
            let time = t((i * 7919) % 1_000 * 1_000_000);
            q.push(time, i);
            expect.push((time, i));
        }
        assert!(q.occupied != 0 && !q.far.is_empty(), "both tiers must be in use");
        expect.sort_by_key(|&(time, i)| (time, i));
        for (time, i) in expect {
            assert_eq!(q.pop(), Some((time, i)));
        }
        assert!(q.occupied == 0 && q.far.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// The first nanosecond past the lap of `q`.
    fn horizon<E>(q: &EventQueue<E>) -> u64 {
        (q.cursor + BUCKETS) << BUCKET_SHIFT
    }

    /// An entry at the horizon has the bucket number of the lap's first
    /// window: it waits in the heap, not behind that window's entries.
    #[test]
    fn the_horizon_is_the_far_tiers_and_len_counts_both() {
        let mut q = EventQueue::new();
        q.push(t(100), 'a');
        let h = horizon(&q);
        q.push(t(h), 'c');
        q.push(t(h - 1), 'b');
        q.push(t(h + 1), 'd');
        assert_eq!((q.len(), q.far.len()), (4, 2), "len counts both tiers");
        let popped: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, ['a', 'b', 'c', 'd']);
    }

    /// A pop that moves the lap on files what the new lap reaches, and
    /// nothing at its horizon.
    #[test]
    fn migration_stops_short_of_the_new_horizon() {
        const W: u64 = 1 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        for (time, e) in [(W, 'a'), (W + 1, 'b'), (2 * W, 'c'), ((1 + BUCKETS) * W, 'd')] {
            q.push(t(time), e);
        }
        assert_eq!(q.pop(), Some((t(W), 'a')));
        assert_eq!((q.len(), q.far.len()), (3, 1));
        let popped: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, ['b', 'c', 'd']);
    }

    /// The bucket search wraps: a later window can sit in a lower bucket.
    #[test]
    fn the_bucket_search_wraps_past_the_last_bucket() {
        const W: u64 = 1 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.push(t(100 * W), 'x');
        q.pop();
        q.push(t(130 * W), 'b'); // bucket 2
        q.push(t(101 * W), 'a'); // bucket 101
        assert_eq!(q.peek_time(), Some(t(101 * W)));
        assert_eq!(q.pop(), Some((t(101 * W), 'a')));
        assert_eq!(q.pop(), Some((t(130 * W), 'b')));
    }

    /// While the lap is empty the tie run is in the heap: it is counted and
    /// visited there, and a `pop_nth` past it must not move the lap — a
    /// push at `now` afterwards is still the next pop.
    #[test]
    fn a_failed_pop_nth_leaves_an_empty_lap_where_it_was() {
        let mut q = EventQueue::new();
        q.push(t(10), 'x');
        q.pop();
        let rto = 3_000_000_000;
        for e in ['a', 'b', 'c'] {
            q.push(t(rto), e);
        }
        assert_eq!((q.occupied, q.far.len()), (0, 3));
        assert_eq!(q.tie_count(), 3);
        let mut seen = Vec::new();
        q.for_each_tie(|&e| seen.push(e));
        assert_eq!(seen, ['a', 'b', 'c']);
        assert_eq!(q.pop_nth(3), None);
        assert_eq!(q.len(), 3);
        q.push(t(10), 'n');
        assert_eq!(q.pop(), Some((t(10), 'n')));
        assert_eq!(q.pop_nth(1), Some((t(rto), 2, 'b')));
        assert_eq!(q.pop(), Some((t(rto), 'a')));
        assert_eq!(q.pop(), Some((t(rto), 'c')));
    }

    /// A restored queue files each entry where the long-running one holds
    /// it, and pops exactly as it does.
    #[test]
    fn a_queue_straddling_the_horizon_round_trips_through_a_snapshot() {
        use crate::{SnapshotReader, SnapshotWriter, Snapshotable};
        let mut q = EventQueue::new();
        q.push(t(1_000_000), 0u64);
        q.pop();
        let h = horizon(&q);
        let times = [h, h - 1, h + 1, 1_000_000, 21_460_000, 101_000_000, h, 101_000_000];
        for (i, &time) in times.iter().enumerate() {
            q.push(t(time), i as u64 + 1);
        }
        let mut w = SnapshotWriter::new();
        q.encode(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let mut restored = EventQueue::<u64>::decode(&mut r).expect("its own bytes decode");
        assert_eq!(r.finish(), Ok(()));
        assert_eq!((restored.len(), restored.far.len()), (q.len(), q.far.len()));
        assert_eq!((restored.occupied, restored.next_seq()), (q.occupied, q.next_seq()));
        loop {
            let popped = q.pop_nth(0);
            assert_eq!(restored.pop_nth(0), popped);
            if popped.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_heap_reference_on_mixed_workload() {
        // Deterministic pseudo-random interleaving of pushes and pops,
        // including ties and multi-year spreads, checked pop-for-pop
        // against the reference heap.
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let step = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        for i in 0..20_000u64 {
            let r = step(&mut state);
            if r % 100 < 65 {
                let base = cal.now().as_nanos();
                let delta = match r % 3 {
                    0 => r % 50,                // tie-heavy
                    1 => r % 1_000_000,         // in-year
                    _ => 1_000_000_000 + r % 7, // far future
                };
                cal.push(t(base + delta), i);
                heap.push(t(base + delta), i);
            } else {
                assert_eq!(cal.pop(), heap.pop());
                assert_eq!(cal.now(), heap.now());
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn heap_queue_keeps_contract() {
        let mut q = HeapQueue::new();
        q.push(t(5), 'b');
        q.push(t(1), 'a');
        q.push(t(5), 'c');
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop(), Some((t(1), 'a')));
        assert_eq!(q.pop(), Some((t(5), 'b')));
        assert_eq!(q.pop(), Some((t(5), 'c')));
        assert_eq!(q.now(), t(5));
        assert!(q.is_empty());
    }

    /// Runs `$body` once per queue type, `$new` bound to its constructor and
    /// `$kind` to its name for assertion messages.
    macro_rules! on_both_queues {
        (|$new:ident, $kind:ident| $body:block) => {{
            {
                let ($new, $kind) = (EventQueue::new, "calendar");
                $body
            }
            {
                let ($new, $kind) = (HeapQueue::new, "heap");
                $body
            }
        }};
    }

    #[test]
    fn tie_count_and_for_each_tie_see_the_fifo_run() {
        on_both_queues!(|new, kind| {
            let mut q = new();
            assert_eq!(q.tie_count(), 0);
            q.push(t(10), 'a');
            q.push(t(10), 'b');
            q.push(t(10), 'c');
            q.push(t(20), 'z');
            assert_eq!(q.tie_count(), 3);
            let mut seen = Vec::new();
            q.for_each_tie(|&e| seen.push(e));
            assert_eq!(seen, vec!['a', 'b', 'c'], "{kind}: ties must visit in FIFO order");
            q.pop();
            assert_eq!(q.tie_count(), 2);
            q.pop();
            q.pop();
            assert_eq!(q.tie_count(), 1, "{kind}: a lone head is a tie run of one");
        });
    }

    #[test]
    fn pop_nth_picks_one_tie_and_keeps_fifo_for_the_rest() {
        on_both_queues!(|new, kind| {
            let mut q = new();
            for e in ['a', 'b', 'c', 'd'] {
                q.push(t(10), e);
            }
            q.push(t(20), 'z');
            assert_eq!(q.pop_nth(2), Some((t(10), 2, 'c')), "{kind}: third pushed, seq 2");
            assert_eq!(q.pop_nth(4), None, "{kind}: out-of-run index must not pop");
            assert_eq!(q.len(), 4, "{kind}: failed pop_nth must not lose events");
            assert_eq!(q.pop(), Some((t(10), 'a')), "{kind}");
            assert_eq!(q.pop(), Some((t(10), 'b')), "{kind}");
            assert_eq!(q.pop(), Some((t(10), 'd')), "{kind}");
            assert_eq!(q.pop(), Some((t(20), 'z')), "{kind}");
            // Pushing at `now` after a pop_nth keeps working (cursor committed).
            q.push(t(20), 'y');
            assert_eq!(q.pop_nth(0), Some((t(20), 5, 'y')), "{kind}");
        });
    }

    /// A reserved number is one no entry will ever carry: the pushes around
    /// it keep the keys they would have had if it had been a push.
    #[test]
    fn reserve_seq_takes_a_place_in_the_fifo_order() {
        on_both_queues!(|new, kind| {
            let mut q = new();
            q.push(t(10), 'a');
            assert_eq!(q.reserve_seq(), 1, "{kind}");
            q.push(t(10), 'b');
            assert_eq!(q.reserve_seq(), 3, "{kind}");
            assert_eq!(q.len(), 2, "{kind}: reserving queues nothing");
            assert_eq!(q.pop_nth(1), Some((t(10), 2, 'b')), "{kind}");
            assert_eq!(q.pop_nth(0), Some((t(10), 0, 'a')), "{kind}");
        });
        assert_eq!(EventQueue::<()>::new().next_seq(), 0);
    }

    /// An entry pushed under a reserved number sorts by that number, not by
    /// when it was pushed: ahead of the head's later-pushed ties, behind the
    /// earlier one, and the head of the queue if its key is the smallest.
    #[test]
    fn push_reserved_lands_where_the_reserving_push_would_have() {
        on_both_queues!(|new, kind| {
            let mut q = new();
            q.push(t(10), 'a'); // seq 0
            let early = q.reserve_seq(); // 1
            q.push(t(10), 'c'); // 2
            let first = q.reserve_seq(); // 3
            q.push(t(10), 'd'); // 4
            q.push(t(20), 'z'); // 5
            q.push_reserved(t(10), early, 'b');
            q.push_reserved(t(5), first, '!');
            assert_eq!(q.len(), 6, "{kind}");
            assert_eq!(q.peek_time(), Some(t(5)), "{kind}: the new entry is the head");
            assert_eq!(q.pop_nth(0), Some((t(5), 3, '!')), "{kind}");
            assert_eq!(q.tie_count(), 4, "{kind}");
            let mut seen = Vec::new();
            q.for_each_tie(|&e| seen.push(e));
            assert_eq!(seen, ['a', 'b', 'c', 'd'], "{kind}: key order, not push order");
            assert_eq!(q.pop_nth(1), Some((t(10), 1, 'b')), "{kind}");
            // At the instant of the entry popped last, under a number older
            // than that entry's: still legal, still next.
            let late = q.reserve_seq(); // 6
            q.push(t(10), 'f'); // 7
            q.push_reserved(t(10), late, 'e');
            let rest: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(rest, ['a', 'c', 'd', 'e', 'f', 'z'], "{kind}");
        });
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn push_reserved_into_the_past_panics_like_push() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push(t(10), ());
        q.pop();
        q.push_reserved(t(9), seq, ());
    }

    #[test]
    fn pop_nth_zero_is_exactly_pop() {
        // Same deterministic mixed workload on four queues: two popped with
        // `pop()`, two with `pop_nth(0)` — every observation must agree.
        on_both_queues!(|new, kind| {
            let mut plain = new();
            let mut nth = new();
            let mut state = 0xdeadbeefu64;
            let step = |s: &mut u64| {
                *s ^= *s << 13;
                *s ^= *s >> 7;
                *s ^= *s << 17;
                *s
            };
            for i in 0..5_000u64 {
                let r = step(&mut state);
                if r % 10 < 6 {
                    let base = plain.now().as_nanos();
                    let delta = if r % 2 == 0 { r % 20 } else { r % 500_000 };
                    plain.push(t(base + delta), i);
                    nth.push(t(base + delta), i);
                } else {
                    assert_eq!(plain.pop(), nth.pop_nth(0).map(|(t, _, e)| (t, e)), "{kind}");
                    assert_eq!(plain.now(), nth.now(), "{kind}");
                    assert_eq!(plain.peek_time(), nth.peek_time(), "{kind}");
                }
            }
            loop {
                let (a, b) = (plain.pop(), nth.pop_nth(0).map(|(t, _, e)| (t, e)));
                assert_eq!(a, b, "{kind}");
                if a.is_none() {
                    break;
                }
            }
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping the whole queue yields times in nondecreasing order, and
        /// equal-time events preserve insertion order.
        #[test]
        fn pop_order_is_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &nanos) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(nanos), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((time, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(time >= lt);
                    if time == lt {
                        prop_assert!(idx > lidx, "FIFO violated on tie");
                    }
                }
                last = Some((time, idx));
            }
        }

        /// The queue never loses or duplicates events.
        #[test]
        fn conservation(times in proptest::collection::vec(0u64..100, 0..100)) {
            let mut q = EventQueue::new();
            for &nanos in &times {
                q.push(SimTime::from_nanos(nanos), nanos);
            }
            let mut popped = Vec::new();
            while let Some((_, v)) = q.pop() {
                popped.push(v);
            }
            let mut expected = times.clone();
            expected.sort_unstable();
            popped.sort_unstable();
            prop_assert_eq!(popped, expected);
        }

        /// The calendar queue and the reference heap agree on tie-group
        /// shape and on `pop_nth` for arbitrary decision sequences — the
        /// contract the model-checking explorer's replays lean on. Times
        /// fall in clusters 10 ms apart, farther than one lap, so tie runs
        /// are counted, visited and popped in the heap tier as well.
        #[test]
        fn calendar_matches_heap_under_pop_nth(
            times in proptest::collection::vec(
                (0u64..4, 0u64..6).prop_map(|(cluster, k)| cluster * 10_000_000 + k * 1_000),
                1..120,
            ),
            picks in proptest::collection::vec(0usize..8, 1..120),
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            for (i, &nanos) in times.iter().enumerate() {
                cal.push(SimTime::from_nanos(nanos), i);
                heap.push(SimTime::from_nanos(nanos), i);
            }
            for &pick in picks.iter().cycle().take(times.len()) {
                prop_assert_eq!(cal.tie_count(), heap.tie_count());
                let mut cal_ties = Vec::new();
                cal.for_each_tie(|&e| cal_ties.push(e));
                let mut heap_ties = Vec::new();
                heap.for_each_tie(|&e| heap_ties.push(e));
                prop_assert_eq!(&cal_ties, &heap_ties, "tie runs diverged");
                let past = cal.tie_count();
                prop_assert_eq!(cal.pop_nth(past), None);
                prop_assert_eq!(heap.pop_nth(past), None);
                prop_assert_eq!(cal.len(), heap.len());
                // Clamp into the run so every iteration pops something.
                let n = pick.min(cal.tie_count().saturating_sub(1));
                prop_assert_eq!(cal.pop_nth(n), heap.pop_nth(n));
            }
            prop_assert!(cal.is_empty() && heap.is_empty());
        }

        /// Pushes relative to `now` that land on the lap's horizon and a
        /// nanosecond either side of it, CWmax countdowns (1023 × 20 µs) and
        /// bursts of 400 at one instant 100 ms out, interleaved with
        /// `pop_nth`: pops cross the tiers, migrate and jump, and the
        /// calendar agrees with the heap on every observation.
        #[test]
        fn calendar_matches_heap_across_the_horizon(
            ops in proptest::collection::vec((0u8..10, 0usize..4), 1..200),
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut payload = 0u32;
            for &(kind, pick) in &ops {
                let now = cal.now().as_nanos();
                let horizon = ((now >> BUCKET_SHIFT) + BUCKETS) << BUCKET_SHIFT;
                let times = match kind {
                    0..=2 => vec![horizon + u64::from(kind) - 1],
                    3 => vec![now + 20_460_000],
                    4 => vec![now + 100_000_000; 400],
                    5 => vec![now + pick as u64 * 5_000],
                    _ => Vec::new(),
                };
                for at in times {
                    cal.push(SimTime::from_nanos(at), payload);
                    heap.push(SimTime::from_nanos(at), payload);
                    payload += 1;
                }
                if kind >= 6 {
                    prop_assert_eq!(cal.tie_count(), heap.tie_count());
                    let n = pick.min(cal.tie_count().saturating_sub(1));
                    prop_assert_eq!(cal.pop_nth(n), heap.pop_nth(n));
                }
                prop_assert_eq!(cal.len(), heap.len());
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// The calendar queue and the reference heap agree pop-for-pop on
        /// arbitrary push batches (times spread over several bucket years).
        #[test]
        fn calendar_matches_heap(times in proptest::collection::vec(0u64..5_000_000, 0..300)) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            for (i, &nanos) in times.iter().enumerate() {
                cal.push(SimTime::from_nanos(nanos), i);
                heap.push(SimTime::from_nanos(nanos), i);
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
