//! Tie-order decision hooks: the replay substrate of the model checker.
//!
//! The queues in [`crate::event`] break same-instant ties FIFO — that is the
//! determinism contract. A [`TieOrder`] installed on a driver overrides that
//! break with a *decision vector*: at the i-th tie group encountered inside
//! its window, the driver pops the `decisions[i]`-th tied event instead of
//! the FIFO head (beyond the vector's end every choice defaults to 0, i.e.
//! plain FIFO). Each consulted group is recorded as a [`TieChoice`] carrying
//! the [`TieClass`] fingerprints of its members, so an explorer can replay a
//! prefix, read the log, and enumerate the untried alternatives — branching
//! without any state snapshot, because the simulation itself is
//! deterministic given the seed and the decision vector.
//!
//! `sim_core` stays agnostic about what the events *are*: the driver
//! classifies its own event type into [`TieClass`] fingerprints, which the
//! choice log carries so a counter-example says what was tied with what.

use crate::SimTime;

/// Coarse behavioural class of one tied event, as declared by the driver:
/// how far beyond its own node the event's dispatch can reach. No two
/// classes commute — each can transmit, draw the shared RNG stream or write
/// shared state, so the position of every tied event matters and the
/// explorer permutes them all. (A class for work that touches one node only
/// existed for signal start edges; those are no longer scheduler events.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TieKind {
    /// General node work: may transmit, draw the shared RNG stream, or touch
    /// a shared queue.
    NodeWork,
    /// Writes shared channel state (e.g. mobility position updates).
    ChannelWrite,
    /// Global events (sampling ticks, scripted faults, flow starts).
    Global,
}

/// Scheduling fingerprint of one pending event inside a tie group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TieClass {
    /// Index of the owning node, or `None` for global events.
    pub node: Option<u32>,
    /// Behavioural class.
    pub kind: TieKind,
}

impl TieClass {
    /// A fingerprint owned by node `node`.
    pub fn node(node: u32, kind: TieKind) -> Self {
        TieClass { node: Some(node), kind }
    }

    /// A global fingerprint.
    pub fn global() -> Self {
        TieClass { node: None, kind: TieKind::Global }
    }
}

/// One recorded tie-break decision: the group the driver saw (FIFO order)
/// and the index it was told to pop first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TieChoice {
    /// Virtual time of the tie group.
    pub at: SimTime,
    /// Fingerprints of the tied events, in FIFO order.
    pub group: Vec<TieClass>,
    /// Index into `group` that was popped.
    pub chosen: usize,
}

/// A prescribed tie-break decision vector plus the log of choices actually
/// taken — install on a driver with `Simulator::install_tie_order`, run,
/// then read the log back with [`TieOrder::choices`].
///
/// Semantics of [`TieOrder::choose`]:
/// * decisions are consumed in encounter order; past the end of the vector
///   the choice is 0 (FIFO), so an empty vector reproduces the plain run;
/// * a prescribed index outside the observed group is clamped to 0 and
///   flagged via [`TieOrder::diverged`] — it means the replayed prefix did
///   not reproduce the recording, which a correct explorer never does;
/// * only ties inside the optional window (inclusive) are choice points;
///   outside it the driver must not call `choose` at all.
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
    pub fn covers(&self, time: SimTime) -> bool {
        self.window.is_none_or(|(start, end)| time >= start && time <= end)
    }

    /// Consumes the next decision for a tie `group` (FIFO fingerprints) at
    /// virtual time `at`, records the choice, and returns the index to pop.
    pub fn choose(&mut self, at: SimTime, group: Vec<TieClass>) -> usize {
        let prescribed = self.decisions.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        let chosen = if prescribed < group.len() {
            prescribed
        } else {
            self.diverged = true;
            0
        };
        self.choices.push(TieChoice { at, group, chosen });
        chosen
    }

    /// The prescribed decision vector.
    pub fn decisions(&self) -> &[usize] {
        &self.decisions
    }

    /// The choices taken so far, in encounter order.
    pub fn choices(&self) -> &[TieChoice] {
        &self.choices
    }

    /// Consumes the order, returning its choice log.
    pub fn into_choices(self) -> Vec<TieChoice> {
        self.choices
    }

    /// Number of choice points encountered so far.
    pub fn choice_points(&self) -> usize {
        self.choices.len()
    }

    /// True if some prescribed decision did not fit its observed group —
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

    fn group(n: usize) -> Vec<TieClass> {
        (0..n as u32).map(|i| TieClass::node(i, TieKind::NodeWork)).collect()
    }

    #[test]
    fn empty_vector_is_fifo() {
        let mut order = TieOrder::default();
        assert_eq!(order.choose(t(5), group(3)), 0);
        assert_eq!(order.choose(t(5), group(2)), 0);
        assert!(!order.diverged());
        assert_eq!(order.choice_points(), 2);
    }

    #[test]
    fn decisions_are_consumed_in_order_then_default_to_fifo() {
        let mut order = TieOrder::new(vec![2, 1]);
        assert_eq!(order.choose(t(1), group(3)), 2);
        assert_eq!(order.choose(t(1), group(2)), 1);
        assert_eq!(order.choose(t(2), group(4)), 0, "past the vector end: FIFO");
        assert!(!order.diverged());
        let log = order.into_choices();
        assert_eq!(log.iter().map(|c| c.chosen).collect::<Vec<_>>(), vec![2, 1, 0]);
        assert_eq!(log.iter().map(|c| c.group.len()).collect::<Vec<_>>(), vec![3, 2, 4]);
    }

    #[test]
    fn out_of_range_decision_clamps_and_flags_divergence() {
        let mut order = TieOrder::new(vec![5]);
        assert_eq!(order.choose(t(1), group(2)), 0);
        assert!(order.diverged());
    }

    #[test]
    fn window_gates_choice_points() {
        let order = TieOrder::default().with_window(t(10), t(20));
        assert!(!order.covers(t(9)));
        assert!(order.covers(t(10)));
        assert!(order.covers(t(20)));
        assert!(!order.covers(t(21)));
        assert!(TieOrder::default().covers(t(9)), "no window covers everything");
    }
}
