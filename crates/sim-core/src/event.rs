//! The stable, timed event queue at the heart of the simulator.
//!
//! Two implementations share one contract:
//!
//! * [`EventQueue`] — a calendar queue (Brown's O(1) event list, the
//!   scheduler ns-2 ships as its default), used by the driver loop.
//! * [`HeapQueue`] — the original `BinaryHeap` implementation, kept only as
//!   the oracle the calendar is checked against (`calendar_matches_heap*`
//!   below, `tests/scheduler_differential.rs`); no simulation runs on it.
//!
//! Both pop events in `(time, seq)` order with FIFO tie-break.

use std::cell::Cell;
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

/// Smallest bucket count the calendar ever shrinks to.
const MIN_BUCKETS: usize = 4;
/// Initial estimate of the gap between consecutive event times (ns).
const INITIAL_GAP: u64 = 1_024;

/// Cached location of the earliest pending entry: `bucket` holds the head
/// with the minimal `(time, seq)` over the whole queue.
#[derive(Clone, Copy, Debug)]
struct Hint {
    time: SimTime,
    bucket: usize,
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
/// A calendar queue: a power-of-two array of buckets, each a `(time, seq)`-
/// sorted deque, with bucket `(t / width) & mask` owning every event whose
/// time is `t` modulo one "year" (`nbuckets × width`). Pops scan at most one
/// lap from a cursor committed at the previous pop; a lap that finds nothing
/// in its year window falls back to a direct minimum search, which also
/// handles far-future jumps. The bucket width tracks an EWMA of observed
/// pop-to-pop gaps, and the bucket count doubles when occupancy exceeds two
/// per bucket and halves below one per two buckets (ns-2's resize policy),
/// so push and pop stay O(1) amortised against the heap's O(log n).
///
/// Because equal times always map to the same bucket, FIFO ties cost one
/// sorted-insert into a run of equal-time entries and pop in insertion order.
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
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Bucket width in nanoseconds (≥ 1).
    width: u64,
    len: usize,
    next_seq: u64,
    /// Time of the most recent pop — the queue's notion of "now" and the
    /// monotonicity floor for [`Self::push`]. Pops at an equal timestamp
    /// are legal and keep FIFO order via `next_seq`; only a push *behind*
    /// this stamp is a bug (it would mean an event tried to reach into the
    /// simulated past) and panics with the event's debug summary.
    last_popped: SimTime,
    /// Bucket the next lap scan starts from. Committed only at pop time
    /// (and at resize), which keeps the scan invariant `window start ≤`
    /// [`Self::now`] `≤ every queued time` true at all times.
    cursor: usize,
    /// Exclusive end of the cursor bucket's current year window (u128: the
    /// window math must not overflow near `SimTime::MAX`).
    year_end: u128,
    /// EWMA of nonzero gaps between consecutively popped times; feeds the
    /// bucket width at the next resize.
    gap_avg: u64,
    /// Cached minimum, maintained by pushes and invalidated by pops and
    /// resizes; `Cell` so [`Self::peek_time`] can memoise its search.
    hint: Cell<Option<Hint>>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let width = INITIAL_GAP * 2;
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            width,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            cursor: 0,
            year_end: u128::from(width),
            gap_avg: INITIAL_GAP,
            hint: Cell::new(None),
        }
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        ((time.as_nanos() / self.width) as usize) & (self.buckets.len() - 1)
    }

    fn window_end(&self, time: SimTime) -> u128 {
        let w = u128::from(self.width);
        (u128::from(time.as_nanos()) / w + 1) * w
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
        if self.len + 1 > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        let bucket = self.bucket_of(time);
        Self::insert_sorted(&mut self.buckets[bucket], Entry { time, seq, event });
        self.len += 1;
        if let Some(h) = self.hint.get() {
            if time < h.time {
                self.hint.set(Some(Hint { time, bucket }));
            }
        } else if self.len == 1 {
            // Only event in the queue: it is trivially the minimum. The
            // cursor is NOT moved here — commits happen at pop time only.
            self.hint.set(Some(Hint { time, bucket }));
        }
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

    /// Inserts keeping the deque sorted by `(time, seq)`. Fresh pushes carry
    /// the largest `seq` so far, so this walks back only past strictly later
    /// times — O(1) for the common append case; an entry under a reserved
    /// `seq` also walks past the later-pushed ties at its own instant.
    fn insert_sorted(deque: &mut VecDeque<Entry<E>>, entry: Entry<E>) {
        let mut pos = deque.len();
        while pos > 0 {
            let prev = &deque[pos - 1];
            if (prev.time, prev.seq) <= (entry.time, entry.seq) {
                break;
            }
            pos -= 1;
        }
        deque.insert(pos, entry);
    }

    /// Locates the bucket holding the global `(time, seq)` minimum: one lap
    /// from the committed cursor checking each bucket head against its year
    /// window, then a direct minimum search over all heads (far-future
    /// fallback). Equal times share a bucket, so the minimal head time is
    /// unique and identifies the bucket unambiguously.
    fn locate_min(&self) -> Hint {
        if let Some(h) = self.hint.get() {
            return h;
        }
        let n = self.buckets.len();
        let mut top = self.year_end;
        for i in 0..n {
            let b = (self.cursor + i) & (n - 1);
            if let Some(head) = self.buckets[b].front() {
                if u128::from(head.time.as_nanos()) < top {
                    let h = Hint { time: head.time, bucket: b };
                    self.hint.set(Some(h));
                    return h;
                }
            }
            top += u128::from(self.width);
        }
        let mut best: Option<Hint> = None;
        for (b, q) in self.buckets.iter().enumerate() {
            if let Some(head) = q.front() {
                if best.is_none_or(|h| head.time < h.time) {
                    best = Some(Hint { time: head.time, bucket: b });
                }
            }
        }
        let Some(h) = best else { unreachable!("locate_min called on an empty queue") };
        self.hint.set(Some(h));
        h
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
        if self.len == 0 {
            return None;
        }
        let Hint { time, bucket } = self.locate_min();
        // Equal times share a bucket and sort contiguously at its front, so
        // the tie run occupies positions `0..k` of the min bucket's deque.
        if self.buckets[bucket].get(n).is_none_or(|e| e.time != time) {
            return None;
        }
        // Commit the cursor: the window start is ≤ the popped time, which
        // becomes `last_popped`, so every later push lands at or ahead of it.
        self.cursor = bucket;
        self.year_end = self.window_end(time);
        let Some(entry) = self.buckets[bucket].remove(n) else {
            unreachable!("tie entry vanished from its bucket")
        };
        debug_assert!(entry.time == time, "hint disagreed with bucket head");
        self.len -= 1;
        let gap = entry.time.as_nanos() - self.last_popped.as_nanos();
        if gap > 0 {
            self.gap_avg = (self.gap_avg.saturating_mul(3).saturating_add(gap)) / 4;
        }
        self.last_popped = entry.time;
        self.hint.set(None);
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.resize(self.buckets.len() / 2);
        } else if let Some(head) = self.buckets[bucket].front() {
            // The next head of the popped bucket is the global minimum while
            // it stays inside the committed year window (same argument as
            // the lap scan's first bucket) — covers bursts and FIFO ties.
            if u128::from(head.time.as_nanos()) < self.year_end {
                self.hint.set(Some(Hint { time: head.time, bucket }));
            }
        }
        Some((entry.time, entry.seq, entry.event))
    }

    /// Number of pending events tied at the earliest time (0 when empty).
    pub fn tie_count(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let Hint { time, bucket } = self.locate_min();
        self.buckets[bucket].iter().take_while(|e| e.time == time).count()
    }

    /// Visits each event tied at the earliest time, in FIFO order.
    pub fn for_each_tie(&self, mut f: impl FnMut(&E)) {
        if self.len == 0 {
            return;
        }
        let Hint { time, bucket } = self.locate_min();
        for entry in self.buckets[bucket].iter().take_while(|e| e.time == time) {
            f(&entry.event);
        }
    }

    /// Rebuilds the bucket array at `nbuckets` (a power of two), re-deriving
    /// the width from the pop-gap EWMA so each bucket spans roughly two
    /// expected events, and re-anchoring the cursor at [`Self::now`].
    fn resize(&mut self, nbuckets: usize) {
        debug_assert!(nbuckets.is_power_of_two());
        self.width = self.gap_avg.saturating_mul(2).max(1);
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for q in &mut self.buckets {
            all.extend(q.drain(..));
        }
        all.sort_unstable_by_key(|a| (a.time, a.seq));
        self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
        for entry in all {
            let b = self.bucket_of(entry.time);
            // Entries arrive in (time, seq) order, so push_back keeps every
            // bucket sorted without a search.
            self.buckets[b].push_back(entry);
        }
        self.cursor = self.bucket_of(self.last_popped);
        self.year_end = self.window_end(self.last_popped);
        self.hint.set(None);
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        Some(self.locate_min().time)
    }

    /// Every pending event, in no particular order — for validating a
    /// restored queue's contents, never for deciding what runs next.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.buckets.iter().flatten().map(|entry| &entry.event)
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

    /// Number of pending events. This is a live count maintained by
    /// push/pop, so the driver's high-water mark reads it for free.
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
    /// the canonical form the snapshot codec stores. Calendar internals
    /// (bucket layout, width, gap EWMA) are deliberately not part of it:
    /// they are a performance cache, rebuilt on restore, and the pop order
    /// depends only on `(time, seq)`.
    fn snapshot_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut all: Vec<(SimTime, u64, &E)> =
            self.buckets.iter().flatten().map(|e| (e.time, e.seq, &e.event)).collect();
        all.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        all
    }

    /// Rebuilds a queue from its canonical snapshot form. Entries must
    /// arrive in `(time, seq)` order at or after `last_popped`; sequence
    /// numbers are preserved so FIFO ties replay identically.
    fn from_restored(last_popped: SimTime, next_seq: u64, entries: Vec<(SimTime, u64, E)>) -> Self
    where
        E: Debug,
    {
        let mut q = EventQueue::new();
        q.last_popped = last_popped;
        q.cursor = q.bucket_of(last_popped);
        q.year_end = q.window_end(last_popped);
        for (time, seq, event) in entries {
            if q.len + 1 > q.buckets.len() * 2 {
                q.resize(q.buckets.len() * 2);
            }
            let bucket = q.bucket_of(time);
            Self::insert_sorted(&mut q.buckets[bucket], Entry { time, seq, event });
            q.len += 1;
        }
        q.hint.set(None);
        q.next_seq = next_seq;
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
    fn grow_and_shrink_preserve_order() {
        // Push enough to force several grows, drain to force shrinks, with
        // deliberately colliding times so sorted-insert paths are exercised.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0u64..5_000 {
            let time = t((i * 7919) % 1_000 * 1_000);
            q.push(time, i);
            expect.push((time, i));
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "growth heuristic never fired");
        expect.sort_by_key(|&(time, i)| (time, i));
        for (time, i) in expect {
            assert_eq!(q.pop(), Some((time, i)));
        }
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "drained queue should shrink back");
        assert_eq!(q.pop(), None);
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
        /// contract the model-checking explorer's replays lean on.
        #[test]
        fn calendar_matches_heap_under_pop_nth(
            times in proptest::collection::vec(0u64..2_000, 1..120),
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
                // Clamp into the run so every iteration pops something.
                let n = pick.min(cal.tie_count().saturating_sub(1));
                prop_assert_eq!(cal.pop_nth(n), heap.pop_nth(n));
            }
            prop_assert!(cal.is_empty() && heap.is_empty());
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
