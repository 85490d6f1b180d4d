//! AODV (Ad hoc On-demand Distance Vector) routing, the protocol the paper's
//! NS2 evaluation uses (Table 5.1).
//!
//! Implemented subset (matching ns-2's default configuration for static
//! multihop scenarios):
//!
//! * on-demand **route discovery**: RREQ flooding with `(origin,
//!   broadcast-id)` duplicate suppression, reverse-route learning, RREP
//!   unicast back along the reverse path, and intermediate-node replies from
//!   fresh-enough cached routes,
//! * **destination sequence numbers** to keep routes loop-free,
//! * **route maintenance**: MAC-layer link-failure feedback (the 802.11
//!   retry limit) invalidates routes through the dead hop and emits a RERR
//!   as a TTL-1 broadcast; a neighbour that loses a route it used passes
//!   the RERR on the same way; sources re-discover on demand,
//! * **packet buffering** during discovery with a bounded buffer and
//!   retry-limited, binary-exponential RREQ timeouts.
//!
//! Omitted: HELLO beacons — link breaks are reported by the MAC, as in ns-2
//! with link-layer failure detection; precursor lists — a RERR reaches
//! every neighbour; the expanding-ring search — every flood, retries
//! included, carries `AodvConfig::rreq_ttl`; and periodic route-table
//! purges — expiry is checked lazily.
//!
//! Like the MAC, the router is a pure state machine driven by the `netstack`
//! crate, producing [`AodvOutput`] actions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod table;

pub use config::AodvConfig;
pub use engine::{Aodv, AodvOutput, AodvOutputs, AodvStats, AodvTimer, DropReason};
pub use table::{Route, RouteTable};
