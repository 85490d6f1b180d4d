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
use netstack::{MobilitySpec, SimConfig, TcpVariant, TopologySpec};
use sim_core::SimDuration;
use tracelog::{TraceEntry, TraceFilter};
use wire::FlowId;

fn main() {
    cli::run_main(run);
}

/// `--hops N` is `--topology chain:N` as far as bounds go: at least one hop,
/// no more nodes than ids address.
fn parse_hops(text: &str) -> Result<usize, String> {
    TopologySpec::parse(&format!("chain:{text}")).map(|chain| chain.node_count() - 1)
}

fn run(args: &[String]) -> Result<(), CliError> {
    let valued = [
        "--hops",
        "--variant",
        "--secs",
        "--seed",
        "--format",
        "--follow-flow",
        "--last",
        "--out",
        "--topology",
        "--mobility",
    ];
    cli::positionals(args, &valued, &["--quick"])?;
    let quick = args.iter().any(|a| a == "--quick");

    let hops = parse_flag_with(args, "--hops", parse_hops)?.unwrap_or(4);
    let variant =
        parse_flag_with(args, "--variant", tracecap::variant_by_name)?.unwrap_or(TcpVariant::Muzha);
    let secs =
        parse_flag_with(args, "--secs", str::parse::<u64>)?.unwrap_or(if quick { 2 } else { 10 });
    let seed = parse_flag_with(args, "--seed", str::parse::<u64>)?;
    let format = parse_flag_with(args, "--format", TraceFormat::parse)?.unwrap_or(TraceFormat::Ns2);
    let follow = parse_flag_with(args, "--follow-flow", str::parse::<u32>)?.map(FlowId::new);
    let last = parse_flag_with(args, "--last", str::parse::<usize>)?;
    let out = parse_flag(args, "--out")?;
    let topology = parse_flag_with(args, "--topology", tracecap::flow_topology)?;
    let mobility = parse_flag_with(args, "--mobility", MobilitySpec::parse)?;
    if mobility.is_some() && topology.is_none() {
        let reason = "needs --topology SPEC; the default chain is fixed";
        return Err(cli::conflicting(args, "--mobility", reason));
    }
    if format.is_binary() && out.is_none() {
        return Err(cli::conflicting(args, "--format", "binary output needs --out PATH"));
    }

    let mut cfg = SimConfig::default();
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    let mut filter = TraceFilter::all();
    if let Some(flow) = follow {
        filter = filter.flow(flow);
    }

    let (log, flow) = if let Some(spec) = topology {
        cfg.topology = spec;
        cfg.mobility = mobility.unwrap_or_default();
        eprintln!(
            "capturing {spec} topology ({} nodes, {} mobility), {} flow, {secs} s virtual...",
            spec.node_count(),
            cfg.mobility,
            variant.name()
        );
        tracecap::capture_topology(variant, SimDuration::from_secs(secs), cfg, filter)
    } else {
        eprintln!("capturing {hops}-hop chain, {} flow, {secs} s virtual...", variant.name());
        tracecap::capture_chain(hops, variant, SimDuration::from_secs(secs), cfg, filter)
    };
    eprintln!("flow {flow}: {} records seen, {} kept", log.seen(), log.kept());

    let entries: Vec<TraceEntry> = tracecap::tail(log.iter().copied().collect(), last);
    let bytes = tracecap::render(&entries, format);

    match out {
        Some(path) => {
            cli::write_output(&path, &bytes)?;
            eprintln!("wrote {} records ({} bytes) to {path}", entries.len(), bytes.len());
        }
        None => {
            // Tolerate a closed pipe (`trace ... | head`) instead of
            // panicking mid-write.
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(&bytes);
        }
    }
    Ok(())
}
