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

use std::collections::BTreeSet;
use std::fmt::Write as _;

use faultline::InvariantChecker;
use harness::cli::{self, CliError};
use harness::WallClock;
use netstack::{MobilitySpec, TopologySpec};
use sim_core::SimDuration;

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    cli::positionals(args, &[&["--script"][..], &cli::SHAPE_FLAGS].concat(), &[])?;
    let default = (
        TopologySpec::random_disc_dense(40, 250.0),
        MobilitySpec::DEFAULT_WAYPOINT,
        SimDuration::from_secs(30),
    );
    let run = cli::parse_run(args, Some(default))?;

    let variants: BTreeSet<&str> = run.flows.iter().map(|f| f.variant.name()).collect();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "topology {} ({} nodes), mobility {}, {} {} flow(s), {} s virtual, seed {:#x}",
        run.cfg.topology,
        run.cfg.topology.node_count(),
        run.cfg.mobility,
        run.flows.len(),
        variants.into_iter().collect::<Vec<_>>().join("/"),
        run.duration.as_secs_f64(),
        run.cfg.seed,
    );
    cli::print_report(std::mem::take(&mut report));

    let mut sim = run.build();
    sim.install_checker(InvariantChecker::new());
    let clock = WallClock::start();
    sim.run_until(run.end());
    let wall_s = clock.elapsed_secs();
    let perf = sim.perf();
    let checker = sim.take_checker().expect("checker installed above");

    let _ = writeln!(
        report,
        "trace hash {:#018x}  |  {} events in {:.2} s wall = {:.0} events/s  |  \
         {} signal edges settled off the queue",
        sim.trace_hash(),
        perf.events_processed,
        wall_s,
        perf.events_processed as f64 / wall_s.max(1e-9),
        perf.edges_settled,
    );
    let _ = writeln!(
        report,
        "mobility: {} position updates, {} neighbor-row churn",
        perf.position_updates, perf.link_churn
    );
    let ledger = checker.ledger();
    let _ = writeln!(
        report,
        "ledger: injected {} = delivered {} + dropped {} + fault {} + in-flight {}",
        ledger.injected, ledger.delivered, ledger.dropped, ledger.fault_dropped, ledger.in_flight,
    );
    let (lines, status) = verdict(&checker);
    for line in lines {
        let _ = writeln!(report, "{line}");
    }
    cli::print_report(report);
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;
    use tracelog::TraceRecord;
    use wire::{FlowId, NodeId};

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
