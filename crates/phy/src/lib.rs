//! Wireless physical layer: radio parameters, geometry, the shared channel,
//! and the per-node PHY reception state machine.
//!
//! The model mirrors what the paper's NS2 setup provides:
//!
//! * a half-duplex radio at 2 Mbps with a 250 m transmission range and a
//!   larger (550 m) carrier-sense/interference range,
//! * boolean "disc" propagation — exact 250 m node spacing in the paper's
//!   topologies makes reception binary in NS2's two-ray-ground model too,
//! * per-receiver collision detection with ns-2's capture rule: when two
//!   signals overlap at a receiver, the frame being received survives if it
//!   is at least 10× (10 dB, ns-2's `CPThresh_`) stronger than the
//!   newcomer; otherwise both are corrupted (see [`PhyState`]),
//! * an optional i.i.d. per-frame random loss probability standing in for
//!   channel bit errors (the paper's "random loss").
//!
//! The crate is a pure state machine: the `netstack` crate owns the event
//! loop and calls into [`PhyState`] when scheduled receptions start and end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod loss;
mod params;
mod state;

pub use channel::{Channel, Link, LinkRow};
pub use loss::{GeState, GilbertElliott};
pub use params::RadioParams;
pub use state::{Arrival, Edge, PhyState, RxOutcome, TxId};
// Geometry lives in the `topo` subsystem; re-exported here so PHY users keep
// a single import path.
pub use topo::Position;
