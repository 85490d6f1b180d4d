//! Snapshot/resume CLI over the corpus-convention simulation (4-hop chain,
//! one NewReno flow, the script's seed and duration).
//!
//! ```sh
//! # One checkpoint at virtual time T:
//! cargo run --release -p harness --bin checkpoint -- snapshot \
//!     --script PATH.scn --at SECS --out run.snap
//!
//! # Periodic checkpoints every N virtual seconds until the duration:
//! cargo run --release -p harness --bin checkpoint -- snapshot \
//!     --script PATH.scn --checkpoint-every SECS --out-dir DIR
//!
//! # Resume a checkpoint and run to the script's duration (or --until):
//! cargo run --release -p harness --bin checkpoint -- resume \
//!     --script PATH.scn --from run.snap [--until SECS]
//! ```
//!
//! A resumed run is bit-identical to the straight run — same `trace_hash`,
//! same perf counters (the twin test `tests/snapshot_twin.rs` pins this
//! over the whole corpus). Both subcommands print the final trace hash so
//! straight and resumed legs can be compared from the shell. Exit codes:
//! 0 on success, 2 on a bad command line, an unusable file or a snapshot
//! that fails to restore.

use harness::cli::{self, parse_flag_with, required_flag, write_output, CliError};
use harness::run::Run;
use sim_core::{SimDuration, SimTime};

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let valued =
        ["--script", "--at", "--out", "--checkpoint-every", "--out-dir", "--from", "--until"];
    cli::positionals(args, &valued, &[])?;
    let Some(mode) = args.first().map(String::as_str) else {
        usage("missing subcommand");
    };
    let run = cli::parse_run(args, None)?;

    match mode {
        "snapshot" => snapshot(&run, args),
        "resume" => resume(&run, args),
        other => usage(&format!("unknown subcommand {other:?} (want snapshot or resume)")),
    }
}

/// `snapshot`: run to `--at` and write one snapshot, or sweep
/// `--checkpoint-every` writing one file per checkpoint instant.
fn snapshot(run: &Run, args: &[String]) -> Result<(), CliError> {
    let mut sim = run.build();
    if let Some(step) = parse_flag_with(args, "--checkpoint-every", SimDuration::parse_secs)? {
        if step == SimDuration::ZERO {
            usage("--checkpoint-every must be positive");
        }
        let out_dir = required_flag(args, "--out-dir")?;
        std::fs::create_dir_all(&out_dir).map_err(|e| CliError::file("create", &out_dir, e))?;
        let mut at = SimTime::ZERO + step;
        let mut written = 0usize;
        while at < run.end() {
            sim.run_until(at);
            let path = format!("{out_dir}/{}-t{:.3}.snap", run.name, at.as_secs_f64());
            write_output(&path, sim.snapshot())?;
            println!(
                "checkpoint {path}: t={} events={} hash={:#018x}",
                at,
                sim.perf().events_processed,
                sim.trace_hash()
            );
            written += 1;
            at += step;
        }
        sim.run_until(run.end());
        println!(
            "{} checkpoint(s) in {out_dir}; final t={} hash={:#018x}",
            written,
            sim.now(),
            sim.trace_hash()
        );
    } else {
        let at = parse_flag_with(args, "--at", SimDuration::parse_secs)?
            .unwrap_or_else(|| usage("snapshot wants --at SECS or --checkpoint-every SECS"));
        let out = required_flag(args, "--out")?;
        sim.run_until(SimTime::ZERO + at);
        let bytes = sim.snapshot();
        write_output(&out, &bytes)?;
        println!(
            "snapshot {out}: {} bytes, t={} events={} hash={:#018x}",
            bytes.len(),
            sim.now(),
            sim.perf().events_processed,
            sim.trace_hash()
        );
    }
    Ok(())
}

/// `resume`: restore `--from` into a freshly built convention simulator and
/// run to the script's duration (or `--until`).
fn resume(run: &Run, args: &[String]) -> Result<(), CliError> {
    let from = required_flag(args, "--from")?;
    let bytes = std::fs::read(&from).map_err(|e| CliError::file("read", &from, e))?;
    let end = parse_flag_with(args, "--until", SimDuration::parse_secs)?
        .map_or(run.end(), |until| SimTime::ZERO + until);
    let mut sim = run.build();
    sim.restore(&bytes).map_err(|e| CliError::file("resume", &from, e))?;
    let resumed_from = sim.now();
    if end < resumed_from {
        let reason = format!("{end} is before t={resumed_from}, when {from} was taken");
        return Err(cli::conflicting(args, "--until", reason));
    }
    let baseline = sim.perf().events_processed;
    sim.run_until(end);
    let perf = sim.perf();
    println!(
        "resumed {from} at t={resumed_from}, ran to t={}: events={} (+{} after resume) hash={:#018x}",
        sim.now(),
        perf.events_processed,
        perf.events_processed - baseline,
        sim.trace_hash()
    );
    Ok(())
}

fn usage(msg: &str) -> ! {
    eprintln!("checkpoint: {msg}");
    eprintln!(
        "usage: checkpoint snapshot --script PATH.scn (--at SECS --out PATH | --checkpoint-every SECS --out-dir DIR)"
    );
    eprintln!("       checkpoint resume --script PATH.scn --from PATH [--until SECS]");
    std::process::exit(2);
}
