//! Topology/mobility scenario runner: builds a simulator entirely from a
//! `--topology` / `--mobility` description, drives TCP flows across it with
//! the runtime invariant checker installed, and reports the trace hash,
//! the packet-conservation ledger and the wall-clock event rate.
//!
//! ```sh
//! cargo run --release -p harness --bin topo -- \
//!     [--topology SPEC] [--mobility SPEC] [--phy-index grid|brute-force] \
//!     [--secs S] [--seed S] [--flows N] [--variant NAME] [--twin]
//! ```
//!
//! Topology specs: `chain:8`, `grid:4x5`, `random-disc:100` (dense square
//! area), `random-disc:100@2000x2000`, `city-blocks:4x4@16`. Mobility
//! specs: `static`, `waypoint` (1–20 m/s, no pause), `waypoint:1-20@30`
//! (30 s pause). Defaults: `random-disc:40`, `waypoint`, grid index, one
//! Muzha flow, 30 virtual seconds.
//!
//! `--twin` runs the same scenario a second time on the brute-force PHY
//! index and fails loudly unless the trace hashes are bit-identical — the
//! end-to-end form of the grid/brute equivalence the PHY proptests pin.

use faultline::InvariantChecker;
use harness::cli::{self, parse_flag_with, CliError};
use harness::tracecap;
use harness::WallClock;
use netstack::{FlowSpec, IndexKind, MobilitySpec, SimConfig, Simulator, TcpVariant, TopologySpec};
use sim_core::SimTime;
use wire::NodeId;

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let topology = parse_flag_with(args, "--topology", TopologySpec::parse)?
        .unwrap_or_else(|| TopologySpec::random_disc_dense(40, 250.0));
    let mobility = parse_flag_with(args, "--mobility", MobilitySpec::parse)?
        .unwrap_or(MobilitySpec::DEFAULT_WAYPOINT);
    let index = parse_flag_with(args, "--phy-index", IndexKind::parse)?.unwrap_or_default();
    let secs = parse_flag_with(args, "--secs", str::parse::<u64>)?.unwrap_or(30);
    let seed = parse_flag_with(args, "--seed", str::parse::<u64>)?;
    let flows = parse_flag_with(args, "--flows", str::parse::<usize>)?.unwrap_or(1);
    let variant =
        parse_flag_with(args, "--variant", tracecap::variant_by_name)?.unwrap_or(TcpVariant::Muzha);
    let twin = args.iter().any(|a| a == "--twin");

    let mut cfg = SimConfig { topology, mobility, phy_index: index, ..SimConfig::default() };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }

    println!(
        "topology {topology} ({} nodes), mobility {mobility}, index {index}, \
         {flows} {} flow(s), {secs} s virtual, seed {:#x}",
        topology.node_count(),
        variant.name(),
        cfg.seed,
    );

    let outcome = simulate(cfg, variant, flows, secs);
    println!(
        "trace hash {:#018x}  |  {} events in {:.2} s wall = {:.0} events/s",
        outcome.hash,
        outcome.events,
        outcome.wall_s,
        outcome.events as f64 / outcome.wall_s.max(1e-9),
    );
    println!(
        "mobility: {} position updates, {} neighbor-row churn",
        outcome.position_updates, outcome.link_churn
    );
    println!(
        "ledger: injected {} = delivered {} + dropped {} + fault {} + in-flight {}",
        outcome.ledger.injected,
        outcome.ledger.delivered,
        outcome.ledger.dropped,
        outcome.ledger.fault_dropped,
        outcome.ledger.in_flight,
    );
    assert_eq!(
        outcome.ledger.injected,
        outcome.ledger.delivered
            + outcome.ledger.dropped
            + outcome.ledger.fault_dropped
            + outcome.ledger.in_flight,
        "conservation ledger out of balance"
    );
    if outcome.violations.is_empty() {
        println!("invariants: clean ({} events checked)", outcome.checked);
    } else {
        for v in &outcome.violations {
            println!("VIOLATION: {v}");
        }
        panic!("{} invariant violation(s)", outcome.violations.len());
    }

    if twin {
        let mut twin_cfg = cfg;
        twin_cfg.phy_index = match index {
            IndexKind::Grid => IndexKind::BruteForce,
            IndexKind::BruteForce => IndexKind::Grid,
        };
        let other = simulate(twin_cfg, variant, flows, secs);
        assert_eq!(
            outcome.hash, other.hash,
            "PHY index kinds diverged: {index} vs {} — the spatial grid must be \
             behaviourally invisible",
            twin_cfg.phy_index,
        );
        println!(
            "twin ({}): trace hash identical, {:.0} events/s",
            twin_cfg.phy_index,
            other.events as f64 / other.wall_s.max(1e-9),
        );
    }
    Ok(())
}

struct Outcome {
    hash: u64,
    events: u64,
    wall_s: f64,
    position_updates: u64,
    link_churn: u64,
    ledger: faultline::LedgerSummary,
    violations: Vec<faultline::Violation>,
    checked: u64,
}

fn simulate(cfg: SimConfig, variant: TcpVariant, flows: usize, secs: u64) -> Outcome {
    let mut sim = Simulator::from_config(cfg);
    sim.install_checker(InvariantChecker::new());
    add_spread_flows(&mut sim, variant, flows);
    let clock = WallClock::start();
    sim.run_until(SimTime::from_secs_f64(secs as f64));
    let wall_s = clock.elapsed_secs();
    let perf = sim.perf();
    let checker = sim.take_checker().expect("checker installed above");
    Outcome {
        hash: sim.trace_hash(),
        events: perf.events_processed,
        wall_s,
        position_updates: perf.position_updates,
        link_churn: perf.link_churn,
        ledger: checker.ledger(),
        violations: checker.violations().to_vec(),
        checked: checker.events_seen(),
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
