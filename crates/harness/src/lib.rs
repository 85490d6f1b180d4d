//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Chapter 5).
//!
//! Each experiment module mirrors one simulation of the paper:
//!
//! | Paper artifact | Module / entry point |
//! |---|---|
//! | Figs. 5.2–5.7 (cwnd vs. time, 4/8/16-hop chains)   | [`experiments::cwnd_traces`] |
//! | Figs. 5.8–5.10 (throughput vs. hops, window 4/8/32)| [`experiments::throughput_vs_hops`] |
//! | Figs. 5.11–5.13 (retransmissions vs. hops)         | same sweep, retransmission column |
//! | Figs. 5.15–5.18 (coexistence & Jain fairness)      | [`experiments::coexistence`] |
//! | Figs. 5.19–5.22 (throughput dynamics, 3 flows)     | [`experiments::throughput_dynamics`] |
//! | §4.6 DRAI / cadence ablations (EXPERIMENTS.md)     | [`experiments::ablations`] |
//!
//! `--bin reproduce` is the one program that runs them all and writes the
//! outputs; timing the simulator is `benchmark/`'s job, not this crate's.
//!
//! Every cell of those experiments is a [`run::Run`]: what a run file
//! (`Run::parse`: topology, mobility, flows, seed, duration, timed faults)
//! or the flags that spell one mean, and `Run::build` the one place in this
//! crate that constructs a simulator. A cell other than an
//! ablation row (whose DRAI thresholds and cadence no run-file line spells)
//! can be written as a run file — a `chain:h` or `cross:h` topology and its
//! `flow` lines — that builds the same simulator. `--bin harness` drives a
//! `Run` four ways — `trace` (capture, [`tracecap`]), `topo` (run
//! checked), `mc` (explore, [`mc`]: the model checker, search and simulator
//! branches in one module), `checkpoint` (snapshot / resume) — off
//! the one argv table in [`cli`].
//!
//! Runs are averaged over several seeds (the paper reports single NS2 runs;
//! we prefer mean ± spread for honesty about variance). All entry points
//! return plain-data result structs whose `Display` impls print the same
//! rows/series the paper plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod export;
pub mod mc;
mod parallel;
pub mod run;
mod runner;
mod table;
pub mod tracecap;
mod wallclock;

pub use parallel::{effective_jobs, run_batch, run_matrix};
pub use runner::{average, significantly_greater, welch_t, ExperimentConfig, Mean};
pub use table::{render_series, render_table};
pub use wallclock::WallClock;
