//! Topology & mobility subsystem: where nodes are, how they move, and how
//! the PHY finds their neighbours.
//!
//! This crate owns three concerns the PHY and simulator build on:
//!
//! * **Geometry** — [`Position`] on the metre plane, with both exact
//!   ([`Position::distance_to`]) and hot-path squared
//!   ([`Position::distance_sq_to`]) distance forms.
//! * **Spatial index** — [`SpatialGrid`], a dense cell grid keyed to the
//!   carrier-sense radius so neighbor queries and position updates visit
//!   O(density) candidates instead of all N nodes. It returns a candidate
//!   *set* in no particular order; a caller that filters it by distance and
//!   sorts what survives gets the rows an all-pairs scan would produce,
//!   which makes the grid a *pure accelerator*.
//! * **Scenario vocabulary** — topology generators ([`generators`]) and
//!   the declarative [`TopologySpec`] / [`MobilitySpec`] specs that
//!   `SimConfig` and the harness `--topology`/`--mobility` flags speak,
//!   plus [`WaypointLeg`] for scripted, replayable motion.
//!
//! Everything is seed-deterministic: random placements and waypoint
//! streams derive from `SimRng`, never from ambient randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
mod geometry;
mod grid;
mod spec;

pub use geometry::Position;
pub use grid::SpatialGrid;
pub use spec::{MobilitySpec, TopologySpec, WaypointLeg};
