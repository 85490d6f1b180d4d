//! Deterministic fault injection and runtime protocol invariants.
//!
//! The paper evaluates TCP Muzha on clean, static chains; this crate is the
//! adversarial counterpart. It contributes two pieces that the `netstack`
//! simulator wires through the whole stack:
//!
//! * [`ScenarioScript`] — a run file: optional header lines stating what the
//!   run is built on (seed, duration, `topology`, `mobility`, `flow`s, each
//!   parsed by the grammar its flag already used) and a timed schedule of
//!   faults (link flaps, node kill/pause/revive, Gilbert–Elliott bursty-loss
//!   episodes, queue blackhole/saturation windows, partition/heal), parsed
//!   from a small line-based text format or built programmatically. Faults are applied
//!   as ordinary sim-time events, so a scripted run is exactly as
//!   reproducible as a clean one: same seed + same script ⇒ identical
//!   `trace_hash` on twin runs.
//! * [`InvariantChecker`] — a cross-layer runtime checker fed the
//!   simulator's one record stream: the `tracelog::TraceRecord`s a trace log
//!   stores, every one of them, in order. It asserts, on every record, the
//!   protocol properties that must hold *regardless* of what the scenario
//!   does to the network: receiver sequence monotonicity, cwnd/ssthresh
//!   sanity, AODV route freshness (no forwarding on expired or known-dead
//!   routes, RERR actually emitted on a scripted break), MAC airtime /
//!   NAV / contention-window bounds, and packet conservation. Violations
//!   carry the tail of the record stream for diagnosis.
//!
//! The crate is deliberately independent of `netstack` (which depends on
//! it): the checker reads `tracelog`'s plain `Copy` records and nothing of
//! the simulator, so it can also be driven directly by unit tests —
//! including intentionally-buggy streams proving the checker fails when it
//! should.
//!
//! On top of the two, [`mc`] turns sampled scenario regression into proof:
//! a bounded exhaustive explorer that enumerates same-instant tie
//! permutations and fault placements of a script, replaying the full
//! invariant checker on every branch (see the module docs for the
//! replay-based branching design and its DPOR pruning relation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
pub mod mc;
mod scenario;

pub use checker::{CheckerLimits, InvariantChecker, LedgerSummary, Violation};
pub use mc::{BranchOutcome, BranchRecord, CounterExample, McConfig, McVerdict};
pub use scenario::{FaultEvent, FlowLine, ScenarioScript, TimedFault};
