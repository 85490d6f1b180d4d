//! The run-driving CLI: one binary, four subcommands, one way to say what
//! runs.
//!
//! ```sh
//! cargo run --release -p harness --bin harness -- trace      RUN [--quick] \
//!     [--format ns2|csv] [--follow-flow F] [--last N] [--out PATH]
//! cargo run --release -p harness --bin harness -- topo       RUN
//! cargo run --release -p harness --bin harness -- mc         --script PATH.scn \
//!     [--tie-window START:END] [--max-branches N] [--max-depth N] \
//!     [--shift-window SECS] [--shift-steps N] [--report PATH] [--quiet]
//! cargo run --release -p harness --bin harness -- checkpoint snapshot --script PATH.scn \
//!     (--at SECS --out PATH | --checkpoint-every SECS --out-dir DIR)
//! cargo run --release -p harness --bin harness -- checkpoint resume --script PATH.scn \
//!     --from PATH [--until SECS]
//! ```
//!
//! `RUN` is `--script PATH.scn` — a run file stating topology, mobility,
//! flows, seed, duration and faults (grammar: `harness::run::Run::parse`,
//! DESIGN.md "A run file") — *or* the run-shape flags that spell one:
//! `[--topology SPEC | --hops N] [--mobility SPEC] [--variant NAME]
//! [--flows N] [--secs S] [--seed S]`, never both. Topology specs: `chain:8`
//! (`--hops 8`), `cross:4`, `grid:4x5`, `random-disc:100`,
//! `random-disc:100@2000x2000`, `city-blocks:4x4@16`; mobility specs: `static`, `waypoint` (1–20 m/s, no
//! pause), `waypoint:1-20@30`. `--flows N` flows of `--variant` (one Muzha
//! flow when absent) run between the two most-separated nodes, then between
//! spread endpoints. Either way the command line becomes one
//! [`harness::run::Run`], and the subcommand runs what it builds. `mc` and
//! `checkpoint` take a file only.
//!
//! **`trace`** captures the run with the trace subsystem enabled and emits
//! ns-2 trace lines or CSV. Given no `RUN`: a 4-hop chain, one
//! Muzha flow, 10 virtual seconds (`--quick`: 2 s, the CI smoke job), ns-2
//! format on stdout. `--follow-flow F` keeps only records attributable to
//! flow `F`; `--last N` keeps only the final `N` records. `--out` writes to
//! a file instead of stdout.
//!
//! **`topo`** runs under the runtime invariant checker and reports the trace
//! hash, the packet-conservation ledger and the wall-clock event rate. Given
//! no `RUN`: `random-disc:40`, `waypoint`, one Muzha flow, 30 virtual
//! seconds. Exit status 0 on a clean verdict; an invariant violation (or a
//! ledger that does not balance) prints one `VIOLATION: …` line each and
//! exits 2, as `mc` does on a counter-example.
//!
//! **`mc`** exhaustively explores the bounded interleavings of the run under
//! the invariant checker and emits a machine-readable verdict.
//! `--tie-window` bounds which same-instant ties become choice points
//! (virtual seconds, e.g. `3.9:4.5`); without it every tie in the run
//! branches, which is rarely tractable. `--shift-window`/`--shift-steps`
//! additionally explore fault placements shifted on a grid of that
//! half-width. `--report PATH` writes the canonical branch log
//! (byte-identical across runs of the same exploration — CI diffs it to pin
//! determinism). With a `--tie-window` every branch shares the run up to the
//! window, so that prefix runs once per placement, is snapshotted, and each
//! branch restores the snapshot and replays only its suffix; without one
//! every branch replays from t = 0. Verdicts and branch logs are
//! bit-identical either way; the saved event count is reported on stderr.
//! The verdict block goes to stdout. On a violation the counter-example's
//! decision vector and a flight-recorder dump of the lead-up window are
//! printed, and the exit code is 2; a truncated (non-exhaustive) clean
//! search exits 3; a proof exits 0.
//!
//! **`checkpoint`** snapshots the run at `--at` (or every
//! `--checkpoint-every` virtual seconds until the duration) and resumes a
//! snapshot in a fresh process to the run's duration (or `--until`). A
//! resumed run is bit-identical to the straight run — same `trace_hash`,
//! same perf counters (the twin test `tests/snapshot_twin.rs` pins this over
//! the whole corpus). Both print the final trace hash so straight and
//! resumed legs can be compared from the shell. A snapshot carries the flows,
//! every position and every node's movement, but not the configuration: it
//! resumes only under the `seed` it was taken under, on a topology of the
//! same node count.
//!
//! Exit codes everywhere: 0 on success, 2 on a bad command line, an unusable
//! file or a snapshot that fails to restore.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use faultline::InvariantChecker;
use harness::cli::{self, parse_flag, parse_flag_with, required_flag, CliError, Subcommand};
use harness::mc::{explore_scenario, flight_recorder_dump, McConfig};
use harness::run::Run;
use harness::tracecap::{self, TraceFormat};
use harness::WallClock;
use netstack::{MobilitySpec, TopologySpec};
use sim_core::{SimDuration, SimTime, SnapError};
use tracelog::TraceFilter;
use wire::FlowId;

fn main() {
    cli::run_main(|args| {
        let (subcommand, positional) = cli::subcommand(args)?;
        let args = &args[1..];
        match subcommand {
            Subcommand::Trace => trace(args),
            Subcommand::Topo => topo(args),
            Subcommand::Mc => mc(args),
            Subcommand::Checkpoint => checkpoint(args, positional.first().copied()),
        }
    });
}

/// `harness trace`: capture the run, render the capture.
fn trace(args: &[String]) -> Result<(), CliError> {
    let quick = args.iter().any(|a| a == "--quick");

    let secs = SimDuration::from_secs(if quick { 2 } else { 10 });
    let run = cli::parse_run(args, Some((TopologySpec::default(), MobilitySpec::Static, secs)))?;
    let format = parse_flag_with(args, "--format", TraceFormat::parse)?.unwrap_or(TraceFormat::Ns2);
    let follow = parse_flag_with(args, "--follow-flow", str::parse::<u32>)?.map(FlowId::new);
    let last = parse_flag_with(args, "--last", str::parse::<usize>)?;
    let out = parse_flag(args, "--out")?;

    let mut filter = TraceFilter::all();
    if let Some(flow) = follow {
        filter = filter.flow(flow);
    }
    eprintln!(
        "capturing {} ({} nodes, {} mobility), {} flow(s), {} s virtual...",
        run.topology,
        run.topology.node_count(),
        run.mobility,
        run.flows.len(),
        run.duration.as_secs_f64()
    );
    let log = run.capture(filter);
    eprintln!(
        "{} records seen, {} kept in {} bytes ({:.2} B a record)",
        log.seen(),
        log.kept(),
        log.stored_bytes(),
        log.stored_bytes() as f64 / log.len().max(1) as f64
    );

    let skipped = last.map_or(0, |n| log.len().saturating_sub(n));
    let text = tracecap::render(log.iter().skip(skipped), format);

    match out {
        Some(path) => {
            cli::write_output(&path, &text)?;
            let records = log.len() - skipped;
            eprintln!("wrote {records} records ({} bytes) to {path}", text.len());
        }
        None => cli::print_report(&text)?,
    }
    Ok(())
}

/// `harness topo`: run under the invariant checker, report hash, ledger and verdict.
fn topo(args: &[String]) -> Result<(), CliError> {
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
        run.topology,
        run.topology.node_count(),
        run.mobility,
        run.flows.len(),
        variants.into_iter().collect::<Vec<_>>().join("/"),
        run.duration.as_secs_f64(),
        run.cfg.seed,
    );
    cli::print_report(std::mem::take(&mut report))?;

    let mut sim = run.build();
    sim.install_checker(InvariantChecker::new());
    let clock = WallClock::start();
    sim.run_until(run.end());
    let wall_s = clock.elapsed_secs();
    let perf = sim.perf();
    #[expect(clippy::expect_used, reason = "the checker is installed above")]
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
    cli::print_report(report)?;
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

/// `START:END` in virtual seconds, `START <= END`.
fn parse_window(text: &str) -> Result<(SimTime, SimTime), String> {
    let (start, end) = text.split_once(':').ok_or("want START:END seconds")?;
    let start = SimDuration::parse_secs(start).map_err(|e| format!("start: {e}"))?;
    let end = SimDuration::parse_secs(end).map_err(|e| format!("end: {e}"))?;
    if start > end {
        return Err("START must not exceed END".to_string());
    }
    Ok((SimTime::ZERO + start, SimTime::ZERO + end))
}

/// `harness mc`: explore the run's bounded interleavings, print the verdict.
fn mc(args: &[String]) -> Result<(), CliError> {
    let run = cli::parse_run(args, None)?;

    let mut cfg = McConfig {
        tie_window: parse_flag_with(args, "--tie-window", parse_window)?,
        ..McConfig::default()
    };
    if let Some(n) = parse_flag_with(args, "--max-branches", str::parse)? {
        cfg.max_branches = n;
    }
    if let Some(n) = parse_flag_with(args, "--max-depth", str::parse)? {
        cfg.max_depth = n;
    }
    if let Some(half) = parse_flag_with(args, "--shift-window", SimDuration::parse_secs)? {
        cfg.shift_window_ns = half.as_nanos();
    }
    if let Some(n) = parse_flag_with(args, "--shift-steps", str::parse)? {
        cfg.shift_steps = n;
    }
    let report = parse_flag(args, "--report")?;
    let quiet = args.iter().any(|a| a == "--quiet");

    if !quiet {
        eprintln!(
            "exploring {} (window {:?}, max {} branches, depth {}, {} placement step(s))...",
            run.name, cfg.tie_window, cfg.max_branches, cfg.max_depth, cfg.shift_steps
        );
    }
    let (verdict, stats) = explore_scenario(&run, &cfg);
    if !quiet && stats.prefix_events > 0 {
        eprintln!(
            "checkpoint resume: {} events dispatched ({} prefix + {} replayed) vs {} for full replay",
            stats.resumed_events(),
            stats.prefix_events,
            stats.replayed_events,
            stats.full_replay_events
        );
    }
    if !quiet {
        eprintln!(
            "{}: {} branches explored, {} choice points deep",
            verdict.status(),
            verdict.branches_explored,
            verdict.max_choice_points
        );
    }

    cli::print_report(verdict.render())?;
    if let Some(dump) = flight_recorder_dump(&run, &cfg, &verdict) {
        cli::print_report(dump)?;
    }
    if let Some(path) = report {
        cli::write_output(&path, verdict.render_log())?;
        if !quiet {
            eprintln!("branch log ({} branches) written to {path}", verdict.log.len());
        }
    }

    std::process::exit(match (verdict.counter_example.is_some(), verdict.truncated) {
        (true, _) => 2,
        (false, true) => 3,
        (false, false) => 0,
    });
}

/// `harness checkpoint snapshot|resume`.
fn checkpoint(args: &[String], mode: Option<&str>) -> Result<(), CliError> {
    let leg = match mode {
        Some("snapshot") => snapshot,
        Some("resume") => resume,
        other => return Err(CliError::subcommand(other, "snapshot or resume")),
    };
    leg(&cli::parse_run(args, None)?, args)
}

/// `snapshot`: run to `--at` and write one snapshot, or sweep
/// `--checkpoint-every` writing one file per checkpoint instant.
fn snapshot(run: &Run, args: &[String]) -> Result<(), CliError> {
    let mut sim = run.build();
    if let Some(step) = parse_flag_with(args, "--checkpoint-every", SimDuration::parse_secs)? {
        if step == SimDuration::ZERO {
            return Err(cli::conflicting(args, "--checkpoint-every", "must be positive"));
        }
        let out_dir = required_flag(args, "--out-dir")?;
        std::fs::create_dir_all(&out_dir).map_err(|e| CliError::file("create", &out_dir, e))?;
        let mut at = SimTime::ZERO + step;
        let mut written = 0usize;
        while at < run.end() {
            sim.run_until(at);
            // Whole nanoseconds, so two instants of one sweep never share a name.
            let (secs, nanos) = (at.as_nanos() / 1_000_000_000, at.as_nanos() % 1_000_000_000);
            let path = format!("{out_dir}/{}-t{secs}.{nanos:09}.snap", run.name);
            cli::write_output(&path, sim.snapshot())?;
            cli::print_report(format!(
                "checkpoint {path}: t={} events={} hash={:#018x}\n",
                at,
                sim.perf().events_processed,
                sim.trace_hash()
            ))?;
            written += 1;
            at += step;
        }
        sim.run_until(run.end());
        cli::print_report(format!(
            "{} checkpoint(s) in {out_dir}; final t={} hash={:#018x}\n",
            written,
            sim.now(),
            sim.trace_hash()
        ))?;
    } else {
        let at = parse_flag_with(args, "--at", SimDuration::parse_secs)?;
        let at = at.ok_or_else(|| CliError::Required {
            flag: "--at SECS or --checkpoint-every SECS".to_string(),
        })?;
        let out = required_flag(args, "--out")?;
        sim.run_until(SimTime::ZERO + at);
        let bytes = sim.snapshot();
        cli::write_output(&out, &bytes)?;
        cli::print_report(format!(
            "snapshot {out}: {} bytes, t={} events={} hash={:#018x}\n",
            bytes.len(),
            sim.now(),
            sim.perf().events_processed,
            sim.trace_hash()
        ))?;
    }
    Ok(())
}

/// `resume`: restore `--from` into the run built afresh and run to its
/// duration (or `--until`).
fn resume(run: &Run, args: &[String]) -> Result<(), CliError> {
    let from = required_flag(args, "--from")?;
    let bytes = std::fs::read(&from).map_err(|e| CliError::file("read", &from, e))?;
    let end = parse_flag_with(args, "--until", SimDuration::parse_secs)?
        .map_or(run.end(), |until| SimTime::ZERO + until);
    let mut sim = run.build();
    sim.restore(&bytes).map_err(|e| {
        // The fingerprint is 64 bits of hash: it cannot say which line differs.
        let hint = match e {
            SnapError::Mismatch(_) => {
                "; it resumes only under the `seed` it was taken under, on a \
                 topology of the same node count"
            }
            _ => "",
        };
        CliError::file("resume", &from, format!("{e}{hint}"))
    })?;
    let resumed_from = sim.now();
    if end < resumed_from {
        let reason = format!("{end} is before t={resumed_from}, when {from} was taken");
        return Err(cli::conflicting(args, "--until", reason));
    }
    let baseline = sim.perf().events_processed;
    sim.run_until(end);
    let perf = sim.perf();
    cli::print_report(format!(
        "resumed {from} at t={resumed_from}, ran to t={}: events={} (+{} after resume) hash={:#018x}\n",
        sim.now(),
        perf.events_processed,
        perf.events_processed - baseline,
        sim.trace_hash()
    ))
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
