//! Model-checker CLI: exhaustively explores the bounded interleavings of a
//! `.scn` scenario script under the runtime invariant checker and emits a
//! machine-readable verdict.
//!
//! ```sh
//! cargo run --release -p harness --bin mc -- --script PATH.scn \
//!     [--tie-window START:END] [--max-branches N] [--max-depth N] \
//!     [--shift-window SECS] [--shift-steps N] [--report PATH] [--quiet]
//! ```
//!
//! The run follows the scenario-corpus convention: a 4-hop chain, one
//! NewReno flow end to end, the script's seed and duration. `--tie-window`
//! bounds which same-instant ties become choice points (virtual seconds,
//! e.g. `3.9:4.5`); without it every tie in the run branches, which is
//! rarely tractable. `--shift-window`/`--shift-steps` additionally explore
//! fault placements shifted on a grid of that half-width. `--report PATH`
//! writes the canonical branch log (byte-identical across runs of the same
//! exploration — CI diffs it to pin determinism).
//!
//! With a `--tie-window` every branch shares the run up to the window, so
//! that prefix runs once per placement, is snapshotted, and each branch
//! restores the snapshot and replays only its suffix; without one every
//! branch replays from t = 0. Verdicts and branch logs are bit-identical
//! either way; the saved event count is reported on stderr.
//!
//! The verdict block goes to stdout. On a violation the counter-example's
//! decision vector and a flight-recorder dump of the lead-up window are
//! printed, and the exit code is 2; a truncated (non-exhaustive) clean
//! search exits 3; a proof exits 0.

use faultline::mc::McConfig;
use harness::cli::{self, parse_flag, parse_flag_with, CliError};
use harness::mc::{explore_scenario, flight_recorder_dump};
use sim_core::{SimDuration, SimTime};

fn main() {
    cli::run_main(run);
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

fn run(args: &[String]) -> Result<(), CliError> {
    let valued = [
        "--script",
        "--tie-window",
        "--max-branches",
        "--max-depth",
        "--shift-window",
        "--shift-steps",
        "--report",
    ];
    cli::positionals(args, &valued, &["--quiet"])?;
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

    print!("{}", verdict.render());
    if verdict.counter_example.is_some() {
        if let Some(dump) = flight_recorder_dump(&run, &cfg, &verdict) {
            print!("{dump}");
        }
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
