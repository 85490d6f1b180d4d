//! A run really is one file: `tests/fixtures/grid-roam.scn`, with no flag
//! beside `--script` and each subcommand's own, is captured, run checked,
//! explored to a proof and checkpointed / resumed across processes by the one
//! binary; and the run-shape flags build the run a file that spells them
//! does.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

mod common;

use std::process::Command;

use harness::cli;
use netstack::{MobilitySpec, TopologySpec};
use sim_core::SimDuration;

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");
const GRID_ROAM: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/grid-roam.scn");

/// `harness ARGS`, required to exit 0; its stdout.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = Command::new(HARNESS).args(args).output().expect("spawn harness");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    out.stdout
}

fn text_of(args: &[&str]) -> String {
    String::from_utf8(stdout_of(args)).expect("utf-8 report")
}

/// The `hash=0x…` a `checkpoint` line ends on.
fn hash_of(line: &str) -> &str {
    line.trim_end().rsplit("hash=").next().filter(|h| h.starts_with("0x")).expect("a hash= field")
}

#[test]
fn one_run_file_is_captured_checked_proved_and_resumed() {
    let dir = common::scratch("grid_roam");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();

    // trace: ns-2 lines on stdout naming the cut link's fault, and a CSV file.
    let ns2 = text_of(&["trace", "--script", GRID_ROAM]);
    assert!(ns2.lines().count() > 10_000 && ns2.contains(" FLT "), "{}", ns2.len());
    let csv = path("grid-roam.csv");
    assert!(
        stdout_of(&["trace", "--script", GRID_ROAM, "--format", "csv", "--out", &csv]).is_empty()
    );
    assert!(std::fs::metadata(&csv).expect("CSV written").len() > 100_000);

    // topo: checked, clean.
    let report = text_of(&["topo", "--script", GRID_ROAM]);
    assert!(report.starts_with("topology grid:3x3 (9 nodes), mobility waypoint:1-5@2, 2 "));
    assert!(report.contains("\ninvariants: clean ("), "{report}");

    // mc: a proof around the fault, the same log twice.
    let (log_a, log_b) = (path("a.log"), path("b.log"));
    for log in [&log_a, &log_b] {
        let window = ["--tie-window", "3.02:3.04", "--max-branches", "2000"];
        let args = [&["mc", "--script", GRID_ROAM][..], &window, &["--report", log, "--quiet"]];
        let verdict = text_of(&args.concat());
        assert!(verdict.contains("status=PROVED\n"), "{verdict}");
        assert!(!verdict.contains("branches_explored=1\n"), "the window must branch: {verdict}");
    }
    let branches = std::fs::read(&log_a).expect("branch log written");
    assert!(branches == std::fs::read(&log_b).expect("branch log written"));

    // checkpoint: cut mid-outage, resume in a second process, one hash=.
    let (ck, straight) = (path("ck.snap"), path("straight.snap"));
    text_of(&["checkpoint", "snapshot", "--script", GRID_ROAM, "--at", "3.5", "--out", &ck]);
    let resumed = text_of(&["checkpoint", "resume", "--script", GRID_ROAM, "--from", &ck]);
    let ran = ["checkpoint", "snapshot", "--script", GRID_ROAM, "--at", "6", "--out", &straight];
    let ran = text_of(&ran);
    assert_eq!(hash_of(&resumed), hash_of(&ran), "{resumed}{ran}");
    // ... which is the hash `topo` printed for the same file.
    assert!(report.contains(&format!("trace hash {}", hash_of(&ran))), "{report}{ran}");
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

/// Run-shape flags and a file that spells the same run are the same run:
/// `trace` prints the same bytes and `topo` the same hash either way.
#[test]
fn flags_build_the_run_a_file_that_spells_them_does() {
    let dir = common::scratch("spelled");
    let file = dir.join("spelled.scn");
    let file = file.to_str().expect("utf-8 temp path");
    // Each states topology, mobility and duration, so no subcommand's
    // defaults (nor the ones handed to `parse_run` here) take part.
    for flags in [
        &["--topology", "grid:3x3", "--mobility", "waypoint", "--secs", "2", "--variant", "SACK"][..],
        &["--hops", "3", "--mobility", "static", "--secs", "1.5", "--seed", "5"],
        &["--topology", "random-disc:12", "--mobility", "waypoint:2-4@1", "--secs", "1"],
    ] {
        let args: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        let unused = (TopologySpec::default(), MobilitySpec::Static, SimDuration::ZERO);
        let run = cli::parse_run(&args, Some(unused)).expect("flags spell a run");
        assert_eq!(run.flows.len(), 1, "a single flow between the farthest pair");
        assert!(run.faults.is_empty(), "no fault");
        let spelled = run.to_string();
        std::fs::write(file, &spelled).expect("write run file");

        let flagged = stdout_of(&[&["trace"], flags].concat());
        assert!(flagged == stdout_of(&["trace", "--script", file]), "trace {flags:?}:\n{spelled}");
        let hash = |report: String| report.split("  |  ").next().map(str::to_string);
        let flagged = hash(text_of(&[&["topo"], flags].concat()));
        assert_eq!(flagged, hash(text_of(&["topo", "--script", file])), "topo {flags:?}");
        assert!(flagged.is_some_and(|line| line.contains("\ntrace hash 0x")));
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
