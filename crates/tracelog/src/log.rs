//! The trace store: an append-only log or a bounded flight-recorder ring.

use std::collections::{vec_deque, VecDeque};

use crate::codec::{Decoded, EntryBytes};
use crate::filter::TraceFilter;
use crate::record::{TraceEntry, TraceRecord};
use sim_core::SimTime;

/// A snapshot of the flight-recorder ring, taken when something went wrong
/// (typically an invariant violation reported by `faultline::InvariantChecker`).
#[derive(Clone, Debug)]
pub struct TraceDump {
    /// Virtual time the dump was triggered.
    pub at: SimTime,
    /// Why the dump was taken (e.g. the violation text).
    pub reason: String,
    /// The ring contents at trigger time, oldest first.
    pub entries: Vec<TraceEntry>,
}

/// An in-memory, deterministic trace store.
///
/// Two shapes:
///
/// * [`TraceLog::new`] — an unbounded append-only log of every admitted
///   record (use a [`TraceFilter`] to keep it manageable), held as compact
///   bytes coded against the entries before them, about a tenth of a typed
///   [`TraceEntry`] each;
/// * [`TraceLog::flight_recorder`] — a bounded ring keeping only the most
///   recent `capacity` records, meant to be dumped (see [`TraceLog::dump`])
///   the moment an invariant trips.
///
/// Recording is a pure observation: the log never feeds anything back into
/// the simulation, so enabling it cannot change a run.
///
/// # Example
///
/// ```
/// use sim_core::SimTime;
/// use tracelog::{TraceLog, TraceRecord};
/// use wire::NodeId;
/// let mut log = TraceLog::flight_recorder(2);
/// for slots in 0..5 {
///     let rec = TraceRecord::MacBackoff { node: NodeId::new(0), slots, cw: 31 };
///     log.record(SimTime::from_nanos(slots as u64), rec);
/// }
/// assert_eq!(log.len(), 2); // only the last two survive
/// assert_eq!(log.seen(), 5);
/// ```
#[derive(Debug)]
pub struct TraceLog {
    filter: TraceFilter,
    store: Store,
    dumps: Vec<TraceDump>,
    seen: u64,
    kept: u64,
}

#[derive(Debug)]
enum Store {
    /// Every admitted entry, as codec bytes.
    Log(EntryBytes),
    /// The most recent `capacity` admitted entries, typed.
    Ring { capacity: usize, entries: VecDeque<TraceEntry> },
}

/// The stored entries of either shape, oldest first.
enum Entries<'a> {
    Log(Decoded<'a>),
    Ring(vec_deque::Iter<'a, TraceEntry>),
}

impl Iterator for Entries<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        match self {
            Entries::Log(it) => it.next(),
            Entries::Ring(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Entries::Log(it) => it.size_hint(),
            Entries::Ring(it) => it.size_hint(),
        }
    }
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new()
    }
}

impl TraceLog {
    /// An unbounded log admitting every record.
    pub fn new() -> Self {
        TraceLog::with_filter(TraceFilter::all())
    }

    /// An unbounded log admitting only what `filter` passes.
    pub fn with_filter(filter: TraceFilter) -> Self {
        TraceLog::with_store(filter, Store::Log(EntryBytes::default()))
    }

    /// A bounded ring keeping the most recent `capacity` admitted records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn flight_recorder(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        let entries = VecDeque::with_capacity(capacity);
        TraceLog::with_store(TraceFilter::all(), Store::Ring { capacity, entries })
    }

    fn with_store(filter: TraceFilter, store: Store) -> Self {
        TraceLog { filter, store, dumps: Vec::new(), seen: 0, kept: 0 }
    }

    /// Whether this log is a bounded flight recorder.
    pub fn is_flight_recorder(&self) -> bool {
        self.capacity().is_some()
    }

    /// The ring capacity, for flight recorders.
    pub fn capacity(&self) -> Option<usize> {
        match self.store {
            Store::Log(_) => None,
            Store::Ring { capacity, .. } => Some(capacity),
        }
    }

    /// The filter in front of the store.
    pub fn filter(&self) -> &TraceFilter {
        &self.filter
    }

    /// Offers one record to the log. Filtered records are counted in
    /// [`TraceLog::seen`] but not stored.
    pub fn record(&mut self, at: SimTime, record: TraceRecord) {
        self.seen += 1;
        if !self.filter.is_all() && !self.filter.admits(&record) {
            return;
        }
        match &mut self.store {
            Store::Log(bytes) => bytes.push(&TraceEntry { at, record }),
            Store::Ring { capacity, entries } => {
                if entries.len() == *capacity {
                    entries.pop_front();
                }
                entries.push_back(TraceEntry { at, record });
            }
        }
        self.kept += 1;
    }

    /// The stored entries, oldest first: exactly [`TraceLog::len`] of them.
    pub fn iter(&self) -> impl Iterator<Item = TraceEntry> + '_ {
        match &self.store {
            Store::Log(bytes) => Entries::Log(bytes.iter()),
            Store::Ring { entries, .. } => Entries::Ring(entries.iter()),
        }
    }

    /// The stored entries as a contiguous vector, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEntry> {
        self.iter().collect()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Log(bytes) => bytes.len(),
            Store::Ring { entries, .. } => entries.len(),
        }
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the stored entries occupy: the codec bytes of an unbounded log,
    /// `len() × size_of::<TraceEntry>()` for a ring.
    pub fn stored_bytes(&self) -> usize {
        match &self.store {
            Store::Log(bytes) => bytes.byte_len(),
            Store::Ring { entries, .. } => entries.len() * std::mem::size_of::<TraceEntry>(),
        }
    }

    /// Total records offered (stored or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Total records stored over the log's lifetime (including ones a ring
    /// has since evicted).
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Records a finished flight-recorder dump: snapshots the current ring
    /// contents under `reason`. The ring keeps recording afterwards.
    pub fn dump(&mut self, at: SimTime, reason: &str) {
        self.dumps.push(TraceDump { at, reason: reason.to_string(), entries: self.snapshot() });
    }

    /// Dumps taken so far, in trigger order.
    pub fn dumps(&self) -> &[TraceDump] {
        &self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Layer;
    use wire::NodeId;

    fn backoff(slots: u32) -> TraceRecord {
        TraceRecord::MacBackoff { node: NodeId::new(0), slots, cw: 31 }
    }

    #[test]
    fn unbounded_log_keeps_everything() {
        let mut log = TraceLog::new();
        for i in 0..100u32 {
            log.record(SimTime::from_nanos(u64::from(i)), backoff(i));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.seen(), 100);
        assert_eq!(log.kept(), 100);
        assert!(!log.is_flight_recorder());
    }

    #[test]
    fn ring_keeps_exactly_last_n() {
        let mut log = TraceLog::flight_recorder(3);
        for i in 0..10u32 {
            log.record(SimTime::from_nanos(i as u64), backoff(i));
        }
        assert_eq!(log.len(), 3);
        let slots: Vec<u32> = log
            .iter()
            .map(|e| match e.record {
                TraceRecord::MacBackoff { slots, .. } => slots,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, [7, 8, 9]);
        assert_eq!(log.seen(), 10);
        assert_eq!(log.kept(), 10);
    }

    #[test]
    fn filter_counts_but_does_not_store() {
        let mut log = TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt));
        log.record(SimTime::ZERO, backoff(1));
        assert_eq!(log.len(), 0);
        assert_eq!(log.seen(), 1);
        assert_eq!(log.kept(), 0);
    }

    #[test]
    fn dump_snapshots_ring() {
        let mut log = TraceLog::flight_recorder(2);
        log.record(SimTime::from_nanos(1), backoff(1));
        log.record(SimTime::from_nanos(2), backoff(2));
        log.record(SimTime::from_nanos(3), backoff(3));
        log.dump(SimTime::from_nanos(3), "test violation");
        // Recording continues after the dump without disturbing it.
        log.record(SimTime::from_nanos(4), backoff(4));
        let dumps = log.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "test violation");
        assert_eq!(dumps[0].entries.len(), 2);
        assert_eq!(dumps[0].entries[0].at, SimTime::from_nanos(2));
        assert_eq!(dumps[0].entries[1].at, SimTime::from_nanos(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TraceLog::flight_recorder(0);
    }
}
