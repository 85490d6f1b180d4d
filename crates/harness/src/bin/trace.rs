//! Trace capture CLI: runs a single-flow chain scenario with the trace
//! subsystem enabled and emits the capture as ns-2 trace lines, a pcap
//! file, or CSV.
//!
//! ```sh
//! cargo run --release -p harness --bin trace -- \
//!     [--hops N] [--variant NAME] [--secs S] [--seed S] [--quick] \
//!     [--topology SPEC] [--mobility SPEC] \
//!     [--format ns2|pcap|csv] [--follow-flow F] [--last N] [--out PATH]
//! ```
//!
//! Defaults: a 4-hop chain, one Muzha flow, 10 virtual seconds, ns-2
//! format on stdout. `--quick` shortens the run to 2 s (used by the CI
//! smoke job). `--follow-flow F` keeps only records attributable to flow
//! `F`; `--last N` keeps only the final `N` records. `--out` writes to a
//! file instead of stdout; pcap output is binary and requires it.
//!
//! `--topology SPEC` (e.g. `grid:4x4`, `random-disc:40`,
//! `city-blocks:4x4@16`) swaps the chain for a generated topology, with
//! one flow between the two most-separated nodes; `--mobility SPEC`
//! (`static`, `waypoint`, `waypoint:1-20@30`) sets every node roaming.

use harness::cli::{self, parse_flag, parse_flag_with, CliError};
use harness::tracecap::{self, TraceFormat};
use netstack::{MobilitySpec, TopologySpec};
use sim_core::SimDuration;
use tracelog::{TraceEntry, TraceFilter};
use wire::FlowId;

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let own = ["--script", "--format", "--follow-flow", "--last", "--out"];
    cli::positionals(args, &[&own[..], &cli::SHAPE_FLAGS].concat(), &["--quick"])?;
    let quick = args.iter().any(|a| a == "--quick");

    let secs = SimDuration::from_secs(if quick { 2 } else { 10 });
    let run = cli::parse_run(args, Some((TopologySpec::default(), MobilitySpec::Static, secs)))?;
    let format = parse_flag_with(args, "--format", TraceFormat::parse)?.unwrap_or(TraceFormat::Ns2);
    let follow = parse_flag_with(args, "--follow-flow", str::parse::<u32>)?.map(FlowId::new);
    let last = parse_flag_with(args, "--last", str::parse::<usize>)?;
    let out = parse_flag(args, "--out")?;
    if format.is_binary() && out.is_none() {
        return Err(cli::conflicting(args, "--format", "binary output needs --out PATH"));
    }

    let mut filter = TraceFilter::all();
    if let Some(flow) = follow {
        filter = filter.flow(flow);
    }
    eprintln!(
        "capturing {} ({} nodes, {} mobility), {} flow(s), {} s virtual...",
        run.cfg.topology,
        run.cfg.topology.node_count(),
        run.cfg.mobility,
        run.flows.len(),
        run.duration.as_secs_f64()
    );
    let log = run.capture(filter);
    eprintln!("{} records seen, {} kept", log.seen(), log.kept());

    let entries: Vec<TraceEntry> = tracecap::tail(log.iter().copied().collect(), last);
    let bytes = tracecap::render(&entries, format);

    match out {
        Some(path) => {
            cli::write_output(&path, &bytes)?;
            eprintln!("wrote {} records ({} bytes) to {path}", entries.len(), bytes.len());
        }
        None => cli::print_report(&bytes),
    }
    Ok(())
}
