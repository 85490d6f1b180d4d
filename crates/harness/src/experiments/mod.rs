//! One module per simulation in the paper's Chapter 5, plus the DRAI
//! ablations its §4.6 leaves as future work. Every cell is a
//! [`Run`](crate::run::Run) on the chain of Fig. 5.1 or the cross of
//! Fig. 5.15, built by `Run::build`.

use netstack::{FlowSpec, MobilitySpec, SimConfig, TopologySpec};
use sim_core::SimDuration;

use crate::run::Run;

mod ablations;
mod chain_sweep;
mod coexist;
mod cwnd;
mod dynamics;

pub use ablations::ablations;
pub use chain_sweep::{throughput_vs_hops, ChainSweep, SweepMetric, SweepPoint};
pub use coexist::{coexistence, CoexistKind, CoexistResult, CoexistRun};
pub use cwnd::{cwnd_traces, cwnd_traces_batch, CwndTrace};
pub use dynamics::{throughput_dynamics, throughput_dynamics_batch, DynamicsResult};

/// The static run of `flows` under `cfg` on the `hops`-hop chain of Fig. 5.1.
fn on_chain(cfg: SimConfig, hops: usize, flows: Vec<FlowSpec>, duration: SimDuration) -> Run {
    Run::new(cfg, TopologySpec::Chain { hops: arm(hops) }, MobilitySpec::Static, flows, duration)
}

/// The static run of `flows` under `cfg` on the cross of Fig. 5.15.
fn on_cross(cfg: SimConfig, hops: usize, flows: Vec<FlowSpec>, duration: SimDuration) -> Run {
    Run::new(cfg, TopologySpec::Cross { hops: arm(hops) }, MobilitySpec::Static, flows, duration)
}

#[expect(clippy::expect_used, reason = "no paper topology has 65,536 hops")]
fn arm(hops: usize) -> u16 {
    u16::try_from(hops).expect("a hop count a topology can place")
}
