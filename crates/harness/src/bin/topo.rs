//! Topology/mobility scenario runner: builds a simulator entirely from a
//! `--topology` / `--mobility` description, drives TCP flows across it with
//! the runtime invariant checker installed, and reports the trace hash,
//! the packet-conservation ledger and the wall-clock event rate.
//!
//! ```sh
//! cargo run --release -p harness --bin topo -- \
//!     [--topology SPEC] [--mobility SPEC] \
//!     [--secs S] [--seed S] [--flows N] [--variant NAME]
//! ```
//!
//! Topology specs: `chain:8`, `grid:4x5`, `random-disc:100` (dense square
//! area), `random-disc:100@2000x2000`, `city-blocks:4x4@16`. Mobility
//! specs: `static`, `waypoint` (1–20 m/s, no pause), `waypoint:1-20@30`
//! (30 s pause). Defaults: `random-disc:40`, `waypoint`, one Muzha flow,
//! 30 virtual seconds.
//!
//! Exit status 0 on a clean verdict; an invariant violation (or a ledger
//! that does not balance) prints one `VIOLATION: …` line each and exits 2,
//! as `mc` does on a counter-example.

use faultline::InvariantChecker;
use harness::cli::{self, parse_flag_with, CliError};
use harness::tracecap;
use harness::WallClock;
use netstack::{FlowSpec, MobilitySpec, SimConfig, Simulator, TcpVariant, TopologySpec};
use sim_core::SimTime;
use wire::NodeId;

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let valued = ["--topology", "--mobility", "--secs", "--seed", "--flows", "--variant"];
    cli::positionals(args, &valued, &[])?;
    let topology = parse_flag_with(args, "--topology", tracecap::flow_topology)?
        .unwrap_or_else(|| TopologySpec::random_disc_dense(40, 250.0));
    let mobility = parse_flag_with(args, "--mobility", MobilitySpec::parse)?
        .unwrap_or(MobilitySpec::DEFAULT_WAYPOINT);
    let secs = parse_flag_with(args, "--secs", cli::parse_secs)?.unwrap_or(30.0);
    let seed = parse_flag_with(args, "--seed", str::parse::<u64>)?;
    let flows = parse_flag_with(args, "--flows", str::parse::<usize>)?.unwrap_or(1);
    let variant =
        parse_flag_with(args, "--variant", tracecap::variant_by_name)?.unwrap_or(TcpVariant::Muzha);

    let mut cfg = SimConfig { topology, mobility, ..SimConfig::default() };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }

    println!(
        "topology {topology} ({} nodes), mobility {mobility}, \
         {flows} {} flow(s), {secs} s virtual, seed {:#x}",
        topology.node_count(),
        variant.name(),
        cfg.seed,
    );

    let mut sim = Simulator::from_config(cfg);
    sim.install_checker(InvariantChecker::new());
    add_spread_flows(&mut sim, variant, flows);
    let clock = WallClock::start();
    sim.run_until(SimTime::from_secs_f64(secs));
    let wall_s = clock.elapsed_secs();
    let perf = sim.perf();
    let checker = sim.take_checker().expect("checker installed above");

    println!(
        "trace hash {:#018x}  |  {} events in {:.2} s wall = {:.0} events/s  |  \
         {} signal edges settled off the queue",
        sim.trace_hash(),
        perf.events_processed,
        wall_s,
        perf.events_processed as f64 / wall_s.max(1e-9),
        perf.edges_settled,
    );
    println!(
        "mobility: {} position updates, {} neighbor-row churn",
        perf.position_updates, perf.link_churn
    );
    let ledger = checker.ledger();
    println!(
        "ledger: injected {} = delivered {} + dropped {} + fault {} + in-flight {}",
        ledger.injected, ledger.delivered, ledger.dropped, ledger.fault_dropped, ledger.in_flight,
    );
    let (lines, status) = verdict(&checker);
    for line in lines {
        println!("{line}");
    }
    if status != 0 {
        std::process::exit(status);
    }
    Ok(())
}

/// What a sealed checker's findings print as, and the exit status they earn:
/// 0 for a balanced ledger and no violation, otherwise one `VIOLATION: …`
/// line each and 2, as `mc` exits on a counter-example.
fn verdict(checker: &InvariantChecker) -> (Vec<String>, i32) {
    let ledger = checker.ledger();
    let mut lines = Vec::new();
    if ledger.injected
        != ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight
    {
        lines.push(format!("VIOLATION: conservation ledger out of balance: {ledger:?}"));
    }
    lines.extend(checker.violations().iter().map(|v| format!("VIOLATION: {v}")));
    if lines.is_empty() {
        (vec![format!("invariants: clean ({} records checked)", checker.records_seen())], 0)
    } else {
        (lines, 2)
    }
}

/// Adds `flows` flows: the first between the most-separated pair, the rest
/// between deterministically spread endpoints.
fn add_spread_flows(sim: &mut Simulator, variant: TcpVariant, flows: usize) {
    let n = sim.node_count();
    assert!(n >= 2, "a flow needs two nodes");
    let (src, dst) = tracecap::farthest_pair(sim);
    sim.add_flow(FlowSpec::new(src, dst, variant));
    for k in 1..flows {
        // Spread the remaining endpoints around the node index space;
        // nudge apart if a pair collides.
        let a = (k * n / flows) % n;
        let mut b = (a + n / 2) % n;
        if a == b {
            b = (b + 1) % n;
        }
        sim.add_flow(FlowSpec::new(NodeId::new(a as u16), NodeId::new(b as u16), variant));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelog::TraceRecord;
    use wire::FlowId;

    #[test]
    fn a_violation_is_printed_and_exits_2_and_a_clean_run_exits_0() {
        let at = SimTime::from_secs_f64(1.0);
        let (node, flow) = (NodeId::new(0), FlowId::new(0));
        let sent =
            TraceRecord::TcpSend { node, flow, seq: 0, uid: 1, bytes: 1500, retransmit: false };
        let mut clean = InvariantChecker::new();
        clean.on_record(at, &sent);
        clean.finish(at);
        assert_eq!(verdict(&clean), (vec!["invariants: clean (1 records checked)".to_string()], 0));

        // The same uid born twice: a fabricated `conservation` violation.
        let mut dirty = clean.clone();
        dirty.on_record(at, &sent);
        let (lines, status) = verdict(&dirty);
        assert_eq!(status, 2);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("VIOLATION: [conservation] t=1.000000s uid 0x1"), "{lines:?}");
    }
}
