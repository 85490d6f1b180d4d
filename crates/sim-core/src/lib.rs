//! Deterministic discrete-event simulation core for the TCP Muzha reproduction.
//!
//! This crate provides the engine primitives every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a stable (FIFO-on-tie) queue of timed events: a
//!   one-lap calendar for the next 8.39 ms, whose buckets are linked lists
//!   through one arena of slots that holds no more than the most entries
//!   the lap ever held at once, and a heap beyond it, with [`HeapQueue`]
//!   as the reference the differential tests compare it against,
//! * [`TieOrder`] — the model checker's one tie pop: it pops an
//!   [`EventQueue`], choosing among same-instant ties by a decision vector
//!   and logging each choice as a [`TieChoice`],
//! * [`TimerSlab`] — generation-checked timer handles for lazy cancellation,
//! * [`SmallVec`] — an inline-first vector for hot-path output batches,
//! * [`SimRng`] — a seeded, reproducible random number generator,
//! * [`stats`] — small online statistics helpers (EWMA, time series).
//!
//! The simulation is bit-for-bit deterministic for a given seed: events that
//! fire at the same virtual time are delivered in insertion order. Every
//! simulation is single-threaded: one queue, popped serially. Parallelism
//! lives across runs, in `harness::parallel`.
//!
//! # Example
//!
//! ```
//! use sim_core::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_micros(), ev), (1_000, "a"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detmap;
mod event;
mod perf;
mod rng;
mod smallvec;
pub mod snapshot;
pub mod stats;
mod tie;
mod time;
mod timer;
mod trace;

pub use detmap::{DetMap, DetSet};
pub use event::{EventQueue, HeapQueue};
pub use perf::RunPerf;
pub use rng::SimRng;
pub use smallvec::SmallVec;
pub use snapshot::{
    SnapError, SnapshotReader, SnapshotWriter, Snapshotable, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use tie::{TieChoice, TieOrder};
pub use time::{SimDuration, SimTime};
pub use timer::{TimerHandle, TimerSlab};
pub use trace::{twin_run, TraceHash};
