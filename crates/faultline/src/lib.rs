//! The runtime protocol invariant checker.
//!
//! The paper evaluates TCP Muzha on clean, static chains; this crate is the
//! adversarial counterpart's judge. [`InvariantChecker`] is a cross-layer
//! runtime checker fed the simulator's one record stream: the
//! `tracelog::TraceRecord`s a trace log stores, every one of them, in order.
//! It asserts, on every record, the protocol properties that must hold
//! *regardless* of what a run's scripted faults do to the network: receiver
//! sequence monotonicity, cwnd/ssthresh sanity, AODV route freshness (no
//! forwarding on expired or known-dead routes, RERR actually emitted on a
//! scripted break), MAC airtime / NAV / contention-window bounds, and packet
//! conservation. Violations carry the tail of the record stream for
//! diagnosis.
//!
//! The crate is deliberately independent of `netstack` (which depends on
//! it): the checker reads `tracelog`'s plain `Copy` records and nothing of
//! the simulator, so it can also be driven directly by unit tests —
//! including intentionally-buggy streams proving the checker fails when it
//! should. The faults themselves are `netstack::FaultEvent`s, the run file
//! that schedules them is `harness::run`, and the model checker that replays
//! this checker on every interleaving is `harness::mc`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;

pub use checker::{CheckerLimits, InvariantChecker, LedgerSummary, Violation};
