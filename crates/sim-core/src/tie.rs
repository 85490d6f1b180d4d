//! Tie-order decision hooks: the replay substrate of the model checker.
//!
//! The queues in [`crate::event`] break same-instant ties FIFO — that is the
//! determinism contract. A [`TieOrder`] popping an [`EventQueue`] overrides
//! that break with a *decision vector*: at the i-th tie run it meets inside
//! its window, [`TieOrder::pop`] pops the `decisions[i]`-th tied entry
//! instead of the FIFO head (beyond the vector's end every choice defaults
//! to 0, i.e. plain FIFO). Each such choice point is recorded as a
//! [`TieChoice`] carrying the size of its run, so an explorer can replay a
//! prefix, read the log, and enumerate the untried alternatives — branching
//! by replay, because the simulation itself is deterministic given the seed
//! and the decision vector.
//!
//! `sim_core` stays agnostic about what the events *are*: no class of event
//! commutes with another, so every member of a run is an alternative and
//! the count is all the explorer needs.

use std::fmt::Debug;

use crate::{EventQueue, SimTime};

/// One recorded tie-break decision: how many entries were tied and the
/// index, in FIFO order, of the one popped first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TieChoice {
    /// Virtual time of the tie run.
    pub at: SimTime,
    /// Number of entries tied at `at`.
    pub ties: usize,
    /// FIFO index of the entry that was popped.
    pub chosen: usize,
}

/// A prescribed tie-break decision vector plus the log of choices actually
/// taken — install on a driver with `Simulator::install_tie_order`, run,
/// then read the log back with [`TieOrder::into_choices`].
///
/// Semantics of [`TieOrder::pop`]:
/// * only a run of two or more entries tied at an instant inside the
///   optional window (inclusive) is a choice point; everywhere else the pop
///   is the queue's own;
/// * decisions are consumed in encounter order; past the end of the vector
///   the choice is 0 (FIFO), so an empty vector reproduces the plain run;
/// * a prescribed index outside the observed run is clamped to 0 and
///   flagged via [`TieOrder::diverged`] — it means the replayed prefix did
///   not reproduce the recording, which a correct explorer never does.
#[derive(Clone, Debug, Default)]
pub struct TieOrder {
    decisions: Vec<usize>,
    cursor: usize,
    window: Option<(SimTime, SimTime)>,
    diverged: bool,
    choices: Vec<TieChoice>,
}

impl TieOrder {
    /// A tie order prescribing `decisions`, with no window restriction.
    pub fn new(decisions: Vec<usize>) -> Self {
        TieOrder { decisions, ..TieOrder::default() }
    }

    /// Restricts choice points to ties with `start <= time <= end`.
    pub fn with_window(mut self, start: SimTime, end: SimTime) -> Self {
        self.window = Some((start, end));
        self
    }

    /// Whether a tie at `time` is a choice point under this order's window.
    fn covers(&self, time: SimTime) -> bool {
        self.window.is_none_or(|(start, end)| time >= start && time <= end)
    }

    /// Pops the next entry of `queue` with its `(time, seq)` key. When two
    /// or more entries are tied at the head's instant and the window covers
    /// it, the whole run is popped, the next decision picks one, and the
    /// rest are filed back under their own keys, so FIFO order among them
    /// survives and a push at [`EventQueue::now`] still lands behind them.
    pub fn pop<E: Debug>(&mut self, queue: &mut EventQueue<E>) -> Option<(SimTime, u64, E)> {
        let head = queue.pop_entry()?;
        let at = head.0;
        if queue.peek_time() != Some(at) || !self.covers(at) {
            return Some(head);
        }
        let mut tied = vec![head];
        while queue.peek_time() == Some(at) {
            tied.extend(queue.pop_entry());
        }
        let entry = tied.remove(self.choose(at, tied.len()));
        for (time, seq, event) in tied {
            queue.push_reserved(time, seq, event);
        }
        Some(entry)
    }

    /// Consumes the next decision for a run of `ties` entries at virtual
    /// time `at`, records the choice, and returns the FIFO index to pop.
    fn choose(&mut self, at: SimTime, ties: usize) -> usize {
        let prescribed = self.decisions.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        let chosen = if prescribed < ties {
            prescribed
        } else {
            self.diverged = true;
            0
        };
        self.choices.push(TieChoice { at, ties, chosen });
        chosen
    }

    /// Consumes the order, returning its choice log in encounter order.
    pub fn into_choices(self) -> Vec<TieChoice> {
        self.choices
    }

    /// True if some prescribed decision did not fit its observed run —
    /// the replay diverged from the recording that produced the vector.
    pub fn diverged(&self) -> bool {
        self.diverged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// A queue holding one run per `(time, count)` pair, its members
    /// numbered in push order.
    fn queue(runs: &[(u64, usize)]) -> EventQueue<usize> {
        let mut q = EventQueue::new();
        for (i, at) in runs.iter().flat_map(|&(at, n)| std::iter::repeat_n(at, n)).enumerate() {
            q.push(t(at), i);
        }
        q
    }

    /// Pops `q` dry through `order`: the payloads, in pop order.
    fn drain(order: &mut TieOrder, q: &mut EventQueue<usize>) -> Vec<usize> {
        std::iter::from_fn(|| order.pop(q)).map(|(_, _, e)| e).collect()
    }

    #[test]
    fn empty_vector_is_fifo() {
        let mut order = TieOrder::default();
        let mut q = queue(&[(5, 3), (6, 2)]);
        assert_eq!(drain(&mut order, &mut q), [0, 1, 2, 3, 4]);
        assert!(!order.diverged());
        let ties: Vec<usize> = order.into_choices().iter().map(|c| c.ties).collect();
        assert_eq!(ties, [3, 2, 2], "a lone entry is not a choice point");
    }

    #[test]
    fn decisions_are_consumed_in_order_then_default_to_fifo() {
        let mut order = TieOrder::new(vec![2, 1]);
        let mut q = queue(&[(1, 3), (2, 4)]);
        assert_eq!(drain(&mut order, &mut q), [2, 1, 0, 3, 4, 5, 6], "past the vector end: FIFO");
        assert!(!order.diverged());
        let log = order.into_choices();
        assert_eq!(log.iter().map(|c| c.chosen).collect::<Vec<_>>(), [2, 1, 0, 0, 0]);
        assert_eq!(log.iter().map(|c| c.ties).collect::<Vec<_>>(), [3, 2, 4, 3, 2]);
        assert_eq!(log.iter().map(|c| c.at).collect::<Vec<_>>(), [t(1), t(1), t(2), t(2), t(2)]);
    }

    #[test]
    fn out_of_range_decision_clamps_and_flags_divergence() {
        let mut order = TieOrder::new(vec![5]);
        assert_eq!(drain(&mut order, &mut queue(&[(1, 2)])), [0, 1]);
        assert!(order.diverged());
    }

    #[test]
    fn window_gates_choice_points() {
        let mut order = TieOrder::new(vec![1, 1, 1]).with_window(t(10), t(20));
        let mut q = queue(&[(9, 2), (10, 2), (20, 2), (21, 2)]);
        assert_eq!(drain(&mut order, &mut q), [0, 1, 3, 2, 5, 4, 6, 7]);
        let at: Vec<SimTime> = order.into_choices().iter().map(|c| c.at).collect();
        assert_eq!(at, [t(10), t(20)], "the window is inclusive at both ends");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `TieOrder::pop` against a sorted `Vec` of keys. Times fall in
        /// clusters 10 ms apart, past the calendar's 8.39 ms lap, so some
        /// tie runs are popped out of the far heap while the lap is empty;
        /// some entries go in under reserved seqs. Through a random decision
        /// vector and window, every pop must return the model's key and
        /// every choice point record the model's run size; the first pops
        /// are each followed by a push at `now()`, which the model keys
        /// behind every survivor of the run.
        #[test]
        fn tie_order_pop_matches_a_sorted_model(
            batch in proptest::collection::vec((0u64..4, 0u64..3, any::<bool>()), 1..80),
            decisions in proptest::collection::vec(0usize..5, 0..40),
            window in (0u64..4, 0u64..4),
            pushes in 0usize..40,
        ) {
            let at = |cluster: u64, k: u64| SimTime::from_nanos(cluster * 10_000_000 + k * 1_000);
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut reserved = Vec::new();
            for &(cluster, k, late) in &batch {
                if late {
                    reserved.push((at(cluster, k), q.reserve_seq()));
                } else {
                    model.push((at(cluster, k), q.next_seq()));
                    q.push(at(cluster, k), q.next_seq());
                }
            }
            for (time, seq) in reserved {
                q.push_reserved(time, seq, seq);
                model.push((time, seq));
            }
            model.sort_unstable();
            let (first, last) = (window.0.min(window.1), window.0.max(window.1));
            let mut order =
                TieOrder::new(decisions.clone()).with_window(at(first, 0), at(last, 2));
            let mut expected_log = Vec::new();
            for step in 0.. {
                let Some(&(head, _)) = model.first() else { break };
                let ties = model.iter().take_while(|&&(time, _)| time == head).count();
                let mut pick = None;
                if ties > 1 && (first..=last).contains(&(head.as_nanos() / 10_000_000)) {
                    pick = decisions.get(expected_log.len()).copied().filter(|&d| d < ties);
                    expected_log.push((head, ties, pick.unwrap_or(0)));
                }
                let expected = model.remove(pick.unwrap_or(0));
                let popped = order.pop(&mut q);
                prop_assert_eq!(popped.map(|(time, seq, _)| (time, seq)), Some(expected));
                prop_assert_eq!(popped.map(|(_, seq, payload)| payload == seq), Some(true));
                if step < pushes {
                    let key = (q.now(), q.next_seq());
                    model.insert(model.partition_point(|&k| k < key), key);
                    q.push(key.0, key.1);
                }
                prop_assert_eq!(q.len(), model.len());
            }
            prop_assert!(order.pop(&mut q).is_none());
            let log: Vec<(SimTime, usize, usize)> =
                order.into_choices().iter().map(|c| (c.at, c.ties, c.chosen)).collect();
            prop_assert_eq!(log, expected_log);
        }
    }
}
