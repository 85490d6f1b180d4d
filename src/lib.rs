//! # TCP Muzha — router-assisted TCP congestion control for wireless ad hoc
//! networks
//!
//! A full reproduction of *"A New TCP Congestion Control Mechanism over
//! Wireless Ad Hoc Networks by Router-Assisted Approach"* (ICDCS 2007
//! workshops): the TCP Muzha protocol plus the entire simulation substrate
//! it was evaluated on, reimplemented from scratch in Rust.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`sim`] — discrete-event simulation engine primitives,
//! * [`wire`] — packets, segments, frames, the `AVBW-S`/DRAI option,
//! * [`phy`], [`mac`], [`routing`] — the wireless stack (radio + capture
//!   model, 802.11 DCF, AODV),
//! * [`transport`] — TCP Reno/NewReno/SACK/Vegas baselines,
//! * [`muzha`] — the paper's contribution: DRAI router agent + Muzha sender,
//! * [`net`] — assembled nodes, the [`net::Simulator`], topologies,
//! * [`experiments`] — regenerates every table and figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
//! use tcp_muzha::sim::SimTime;
//!
//! // A 4-hop chain with a single TCP Muzha flow, as in the paper's Fig 5.1.
//! let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
//! let (src, dst) = topology::chain_flow(4);
//! let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
//! sim.run_until(SimTime::from_secs_f64(5.0));
//! let report = sim.flow_report(flow);
//! assert!(report.throughput_kbps(sim.now()) > 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Discrete-event simulation engine primitives.
pub mod sim {
    pub use sim_core::stats;
    pub use sim_core::{
        twin_run, EventQueue, HeapQueue, RunPerf, SimDuration, SimRng, SimTime, SnapError,
        SnapshotReader, SnapshotWriter, Snapshotable, TieChoice, TieOrder, TimerHandle, TimerSlab,
        TraceHash, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
    };
}

/// On-the-wire types: packets, segments, frames, and the DRAI option.
pub use wire;

/// Topology & mobility subsystem: geometry, the spatial grid index,
/// topology generators, and the `--topology`/`--mobility` spec grammar.
pub use topo;

/// Wireless physical layer: radio, channel geometry, capture model.
pub use phy;

/// IEEE 802.11 DCF MAC layer.
pub use mac80211 as mac;

/// AODV routing.
pub use aodv as routing;

/// TCP baselines (Reno, NewReno, SACK, Vegas) and the receiver.
pub use tcp as transport;

/// TCP Muzha: DRAI computation, router agent, Muzha sender.
pub use muzha;

/// The runtime protocol invariant checker.
pub use faultline;

/// Deterministic trace subsystem: typed records, filters, flight recorder,
/// ns-2 sink adapter, per-flow time series.
pub use tracelog;

/// Assembled network stack: nodes, simulator, topologies, flow reports.
pub mod net {
    pub use netstack::{
        topology, BusyTracker, DropTailQueue, FaultEvent, FlowReport, FlowSpec, MobilitySpec,
        NodeSummary, RunReport, SimConfig, Simulator, TcpVariant, TimedFault, TopologySpec,
        WaypointLeg,
    };
}

/// Paper experiment harness (Chapter 5 tables and figures).
pub mod experiments {
    pub use harness::experiments::*;
    pub use harness::{
        average, effective_jobs, render_series, render_table, run_batch, run_matrix,
        significantly_greater, welch_t, ExperimentConfig, Mean, WallClock,
    };
}

/// CSV export of experiment results for external plotting.
pub use harness::export;

/// One run, stated completely: what a run file (or the flags that spell
/// one) means, and the one constructor from it to a [`net::Simulator`].
pub use harness::run;

/// The model checker: bounded interleaving search and its simulator
/// branches (the `harness mc` engine).
pub use harness::mc;

/// Rendering plumbing behind `harness trace`: ns-2 lines, CSV.
pub use harness::tracecap;
