//! One module per simulation in the paper's Chapter 5, plus the DRAI
//! ablations its §4.6 leaves as future work.

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
