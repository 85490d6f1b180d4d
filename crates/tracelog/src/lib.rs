//! Deterministic observability for the TCP Muzha reproduction.
//!
//! The simulator can *hash* its event stream (`Simulator::trace_hash`); this
//! crate lets it *record* the stream as typed, timestamped [`TraceRecord`]s
//! covering every layer — PHY frames/collisions/losses, MAC backoffs and
//! retry drops, AODV receives/forwards/route changes, interface-queue
//! enqueues/marks/drops (including the Muzha AVBW-S stamp), and TCP
//! send/receive/congestion-state events.
//!
//! Design rules:
//!
//! * **Pure observer.** Records are built from values the simulator already
//!   holds; recording never draws randomness, never touches the event queue,
//!   and therefore never changes a run. Twin runs produce byte-identical
//!   streams.
//! * **Allocation-light.** [`TraceRecord`] is `Copy`; the only per-record
//!   cost is appending to the log's backing storage: varint bytes coded
//!   against the entries before them in an unbounded log (about 8 B a
//!   record on a chain, against an 88-byte [`TraceEntry`]), a typed slot
//!   in a flight-recorder ring.
//! * **Sinks live outside the sim crates.** The [`ns2`] formatter and
//!   [`FlowSeries`] consume a finished (or in-flight) log; file I/O stays
//!   in `harness`.
//!
//! # Example
//!
//! ```
//! use sim_core::SimTime;
//! use tracelog::{Layer, TraceFilter, TraceLog, TraceRecord};
//! use wire::{FlowId, NodeId};
//!
//! let mut log = TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt));
//! log.record(
//!     SimTime::from_nanos(1_000),
//!     TraceRecord::TcpSend {
//!         node: NodeId::new(0),
//!         flow: FlowId::new(0),
//!         seq: 0,
//!         uid: 1,
//!         bytes: 1500,
//!         retransmit: false,
//!     },
//! );
//! let text = tracelog::ns2::render(log.iter());
//! assert!(text.starts_with("s 0.000001000 _n0_ AGT"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod filter;
mod log;
pub mod ns2;
mod record;
mod series;

pub use filter::TraceFilter;
pub use log::{TraceDump, TraceLog};
pub use record::{Direction, Layer, PacketKind, TraceEntry, TraceRecord};
pub use series::{resample, FlowSeries};
