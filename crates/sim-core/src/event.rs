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
use std::collections::BinaryHeap;
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
/// [`BUCKETS`] as the length of the near tier's array of list ends.
const LAP_LEN: usize = u128::BITS as usize;

/// No slot: the link past either end of a bucket's list, and past the last
/// free slot.
const NIL: usize = usize::MAX;

/// The bucket window holding `time`.
fn window(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

/// One place in the near tier's arena: a queued entry's key and its links
/// in its bucket's list, then its event. A slot on the free list holds no
/// event and links only forward, to the next free slot.
#[derive(Debug)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    /// The previous entry of the bucket; [`NIL`] at its head.
    prev: usize,
    /// The next entry of the bucket, or the next free slot; [`NIL`] at the
    /// end of either list.
    next: usize,
    event: Option<E>,
}

/// The first and last slots of a bucket's list, read only while the
/// bucket's bit in `EventQueue::occupied` is set.
#[derive(Clone, Copy, Debug)]
struct Ends {
    head: usize,
    tail: usize,
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
/// A bucket is a doubly linked list threaded through one arena of slots
/// that all 128 buckets share, as ns-2 threads its calendar through the
/// events themselves; the bucket itself is two indices. A popped entry's
/// slot goes on a free list that the next filing into any bucket takes
/// first, so the arena holds as many slots as the most near entries ever
/// queued at once, not the largest burst each bucket ever took.
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
    /// The near tier's entries, whichever bucket holds them, and the free
    /// slots between them.
    slots: Vec<Slot<E>>,
    /// The first free slot.
    free: usize,
    /// The near tier: window `w` of the lap is the list `ends[w % BUCKETS]`.
    ends: [Ends; LAP_LEN],
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
            slots: Vec::new(),
            free: NIL,
            ends: [Ends { head: NIL, tail: NIL }; LAP_LEN],
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
        self.reserve_seqs(1)
    }

    /// Issues `count` consecutive sequence numbers at once and returns the
    /// first: a block for work whose entries are filed in some other order
    /// than their numbers. Each entry later filed under a number of the
    /// block with [`Self::push_reserved`] pops exactly where it would have
    /// had it been pushed when the block was taken, whatever the order of
    /// filing; filing in key order keeps each insertion at its bucket's tail.
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += count;
        first
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
        let bucket = (window(entry.time) % BUCKETS) as usize;
        let key = (entry.time, entry.seq);
        let slot = self.take_slot(entry);
        if self.occupied & (1 << bucket) == 0 {
            self.occupied |= 1 << bucket;
            self.ends[bucket] = Ends { head: slot, tail: slot };
            return;
        }
        // Walk back past later keys. Fresh pushes carry the largest seq so
        // far, so this is O(1) for the common append; an entry under a
        // reserved seq also walks past the later-pushed ties at its instant.
        let (mut before, mut after) = (self.ends[bucket].tail, NIL);
        while before != NIL && key < (self.slots[before].time, self.slots[before].seq) {
            after = before;
            before = self.slots[before].prev;
        }
        self.slots[slot].prev = before;
        self.slots[slot].next = after;
        if before == NIL {
            self.ends[bucket].head = slot;
        } else {
            self.slots[before].next = slot;
        }
        if after == NIL {
            self.ends[bucket].tail = slot;
        } else {
            self.slots[after].prev = slot;
        }
    }

    /// Stores `entry` in the first free slot, or in a new one if none is
    /// free, unlinked, and returns its index.
    fn take_slot(&mut self, Entry { time, seq, event }: Entry<E>) -> usize {
        let slot = Slot { time, seq, prev: NIL, next: NIL, event: Some(event) };
        if self.free == NIL {
            self.slots.push(slot);
            return self.slots.len() - 1;
        }
        let index = self.free;
        self.free = self.slots[index].next;
        self.slots[index] = slot;
        index
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

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(time, _, event)| (time, event))
    }

    /// Removes the earliest event and returns it with its `(time, seq)` key,
    /// or `None` if the queue is empty.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes the earliest event and returns it with its `(time, seq)` key
    /// if it fires at or before `end`; `None`, with the queue untouched, if
    /// it fires later or the queue is empty. One lookup for what
    /// [`Self::peek_time`] and then [`Self::pop_entry`] would find.
    pub fn pop_due(&mut self, end: SimTime) -> Option<(SimTime, u64, E)> {
        if self.occupied == 0 {
            // The lap is empty: jump it to the far heap's head.
            let head = self.far.peek()?.time;
            if head > end {
                return None;
            }
            self.advance(head);
        }
        let bucket = self.first_bucket();
        let index = self.ends[bucket].head;
        let slot = &mut self.slots[index];
        if slot.time > end {
            return None;
        }
        let event = slot.event.take()?;
        let (time, seq, next) = (slot.time, slot.seq, slot.next);
        slot.next = self.free;
        self.free = index;
        if next == NIL {
            self.occupied &= !(1 << bucket);
        } else {
            self.ends[bucket].head = next;
            self.slots[next].prev = NIL;
        }
        self.len -= 1;
        self.last_popped = time;
        self.advance(time);
        Some((time, seq, event))
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.occupied == 0 {
            return self.far.peek().map(|head| head.time);
        }
        Some(self.slots[self.ends[self.first_bucket()].head].time)
    }

    /// Every pending entry as `(time, seq, event)`, both tiers, in no
    /// particular order.
    fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        let near = self.slots.iter().filter_map(|s| Some((s.time, s.seq, s.event.as_ref()?)));
        near.chain(self.far.iter().map(|e| (e.time, e.seq, &e.event)))
    }

    /// Every pending event, in no particular order — for validating a
    /// restored queue's contents, never for deciding what runs next.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.entries().map(|(_, _, event)| event)
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
    /// the canonical form the snapshot codec stores. Which tier or slot
    /// holds an entry is not part of it: the tier follows from its time and
    /// `last_popped`, and the pop order depends only on `(time, seq)`.
    fn snapshot_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut all: Vec<(SimTime, u64, &E)> = self.entries().collect();
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
        // In key order the lap's entries come first: the arena is sized to
        // them, and each is appended at its bucket's tail.
        q.slots.reserve_exact(entries.partition_point(|&(time, ..)| q.in_lap(time)));
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
        self.reserve_seqs(1)
    }

    /// Issues `count` consecutive sequence numbers and returns the first
    /// (see [`EventQueue::reserve_seqs`]).
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += count;
        first
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(time, _, event)| (time, event))
    }

    /// Removes the earliest event and returns it with its `(time, seq)` key
    /// (see [`EventQueue::pop_entry`]).
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.last_popped, "event queue went backwards");
        self.last_popped = entry.time;
        Some((entry.time, entry.seq, entry.event))
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
            let popped = q.pop_entry();
            assert_eq!(restored.pop_entry(), popped);
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
            assert_eq!(q.pop_entry(), Some((t(10), 0, 'a')), "{kind}");
            assert_eq!(q.pop_entry(), Some((t(10), 2, 'b')), "{kind}");
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
            assert_eq!(q.pop_entry(), Some((t(5), 3, '!')), "{kind}");
            assert_eq!(q.pop_entry(), Some((t(10), 0, 'a')), "{kind}");
            assert_eq!(q.pop_entry(), Some((t(10), 1, 'b')), "{kind}: key order, not push order");
            // At the instant of the entry popped last, under a number older
            // than the next push's: still legal, still next.
            let late = q.reserve_seq(); // 6
            q.push(t(10), 'f'); // 7
            q.push_reserved(t(10), late, 'e');
            let rest: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(rest, ['c', 'd', 'e', 'f', 'z'], "{kind}");
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

    /// Twenty laps, each filing a burst of 400 entries at one instant (the
    /// city's mobility ticks), popping half a lap, then filing three
    /// 60-entry frame bursts into other buckets and popping the rest: every
    /// slot is reused by the next burst, whatever bucket it lands in.
    #[test]
    fn the_arena_never_holds_more_slots_than_near_entries_queued_at_once() {
        use crate::{SnapshotReader, SnapshotWriter, Snapshotable};
        const W: u64 = 1 << BUCKET_SHIFT;
        let near = |q: &EventQueue<u64>| q.len() - q.far.len();
        let mut q = EventQueue::new();
        let mut most_near = 0;
        let mut payload = 0u64;
        let pop_to = |q: &mut EventQueue<u64>, end: u64, most_near: &mut usize| {
            while q.pop_due(t(end)).is_some() {
                *most_near = (*most_near).max(near(q));
                assert!(q.slots.len() <= *most_near, "{} slots", q.slots.len());
            }
        };
        for lap in 0..20u64 {
            let start = q.now().as_nanos();
            let ticks = [(start + (7 * lap % 60 + 1) * W, 400)];
            let frames = (1..=3).map(|f| (start + (7 * lap + 20 * f) % 60 * W + 1_234 * f, 60));
            for (i, (at, count)) in ticks.into_iter().chain(frames).enumerate() {
                if i == 1 {
                    pop_to(&mut q, start + 32 * W, &mut most_near);
                }
                for _ in 0..count {
                    q.push(t(at.max(q.now().as_nanos())), payload);
                    payload += 1;
                    most_near = most_near.max(near(&q));
                    assert!(q.slots.len() <= most_near, "lap {lap}: {} slots", q.slots.len());
                }
            }
            pop_to(&mut q, start + 64 * W, &mut most_near);
            assert!(q.is_empty());
        }
        assert!((400..=580).contains(&most_near), "{most_near} near entries at once");
        assert_eq!(q.slots.len(), most_near, "the arena grew to the peak and no further");

        // Half a lap's bursts left queued: a restored arena holds exactly
        // the entries the lap reaches, with no free slot.
        let now = q.now().as_nanos();
        for k in 0..700u64 {
            q.push(t(now + k * 3 * W / 2), k);
        }
        let mut w = SnapshotWriter::new();
        q.encode(&mut w);
        let bytes = w.finish();
        let mut restored =
            EventQueue::<u64>::decode(&mut SnapshotReader::new(&bytes)).expect("its own bytes");
        assert!(!restored.far.is_empty() && near(&restored) > 0, "both tiers must be in use");
        assert_eq!(restored.slots.len(), near(&restored));
        assert_eq!(restored.free, NIL);
        loop {
            let popped = q.pop_entry();
            assert_eq!(restored.pop_entry(), popped);
            if popped.is_none() {
                break;
            }
        }
    }

    /// `pop_due` pops what `peek_time` then `pop_entry` would, and leaves
    /// the queue untouched when its head is later than the bound, in
    /// either tier.
    #[test]
    fn pop_due_pops_only_what_is_due() {
        const W: u64 = 1 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.push(t(5 * W), 'a');
        q.push(t(300 * W), 'z');
        assert_eq!(q.pop_due(t(5 * W - 1)), None);
        assert_eq!((q.len(), q.now()), (2, SimTime::ZERO));
        assert_eq!(q.pop_due(t(5 * W)), Some((t(5 * W), 0, 'a')));
        // The lap is empty and the heap's head is past the bound: the lap
        // does not jump.
        assert_eq!(q.pop_due(t(299 * W)), None);
        assert_eq!((q.len(), q.cursor), (1, 5));
        assert_eq!(q.pop_due(SimTime::MAX), Some((t(300 * W), 1, 'z')));
        assert_eq!(q.pop_due(SimTime::MAX), None);
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

        /// The calendar queue and the reference heap pop the same keys from
        /// tie runs. Times fall in clusters 10 ms apart, farther than one
        /// lap, so runs are also popped out of the heap tier with the lap
        /// empty, and pushes at `now` between pops join the run being popped.
        #[test]
        fn calendar_matches_heap_on_clustered_ties(
            times in proptest::collection::vec(
                (0u64..4, 0u64..6).prop_map(|(cluster, k)| cluster * 10_000_000 + k * 1_000),
                1..120,
            ),
            pushes in proptest::collection::vec(any::<bool>(), 1..120),
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            for (i, &nanos) in times.iter().enumerate() {
                cal.push(SimTime::from_nanos(nanos), i);
                heap.push(SimTime::from_nanos(nanos), i);
            }
            for (i, &push) in pushes.iter().enumerate() {
                if push {
                    cal.push(cal.now(), times.len() + i);
                    heap.push(heap.now(), times.len() + i);
                }
                prop_assert_eq!(cal.pop_entry(), heap.pop_entry());
                prop_assert_eq!(cal.len(), heap.len());
            }
            loop {
                let (a, b) = (cal.pop_entry(), heap.pop_entry());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Pushes relative to `now` that land on the lap's horizon and a
        /// nanosecond either side of it, CWmax countdowns (1023 × 20 µs) and
        /// bursts of 400 at one instant 100 ms out, interleaved with
        /// pops: pops cross the tiers, migrate and jump, and the
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
                    prop_assert_eq!(cal.pop_entry(), heap.pop_entry());
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

        /// A block of reserved numbers may be filed in any order: entries
        /// under one block, filed in a random permutation among ordinary
        /// pushes made before and after the block was taken, pop exactly as
        /// the same entries filed in seq order, and as the reference heap
        /// pops them. Times fall in one bucket and in the next lap, so
        /// insertions walk back past block members and far-tier members
        /// migrate; a shared instant makes ties that only seqs break.
        #[test]
        fn a_reserved_block_pops_the_same_whatever_order_it_is_filed_in(
            before in proptest::collection::vec(0usize..3, 0..20),
            block in proptest::collection::vec((0usize..3, any::<u64>()), 1..40),
            after in proptest::collection::vec(0usize..3, 0..20),
        ) {
            const AT: [u64; 3] = [40_000, 40_000 + 1_000, 40_000 + 10_000_000];
            let mut shuffled = EventQueue::new();
            let mut sorted = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut payload = 0usize;
            let mut push_all = |at: usize,
                                shuffled: &mut EventQueue<usize>,
                                sorted: &mut EventQueue<usize>,
                                heap: &mut HeapQueue<usize>| {
                let at = SimTime::from_nanos(AT[at]);
                shuffled.push(at, payload);
                sorted.push(at, payload);
                heap.push(at, payload);
                payload += 1;
            };
            for &at in &before {
                push_all(at, &mut shuffled, &mut sorted, &mut heap);
            }
            let n = block.len() as u64;
            let first = shuffled.reserve_seqs(n);
            prop_assert_eq!(sorted.reserve_seqs(n), first);
            prop_assert_eq!(heap.reserve_seqs(n), first);
            for &at in &after {
                push_all(at, &mut shuffled, &mut sorted, &mut heap);
            }
            // Member `i` of the block, under seq `first + i`; filed in the
            // order of its random rank.
            let mut order: Vec<usize> = (0..block.len()).collect();
            order.sort_by_key(|&i| block[i].1);
            for (i, &(at, _)) in block.iter().enumerate() {
                let at = SimTime::from_nanos(AT[at]);
                sorted.push_reserved(at, first + i as u64, payload + i);
            }
            for &i in &order {
                let at = SimTime::from_nanos(AT[block[i].0]);
                shuffled.push_reserved(at, first + i as u64, payload + i);
                heap.push_reserved(at, first + i as u64, payload + i);
            }
            loop {
                let popped = shuffled.pop_entry();
                prop_assert_eq!(popped, sorted.pop_entry());
                prop_assert_eq!(popped, heap.pop_entry());
                if popped.is_none() {
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
