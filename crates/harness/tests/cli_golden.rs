//! What the four run-driving subcommands print, pinned from the real binary:
//! the captures of `trace`, the verdict lines of `topo`, the `hash=` /
//! `bytes` of the CI `checkpoint` sequence and the branch logs and verdict
//! blocks of the four CI `mc` proofs and of one truncated `mc` run. A
//! change to how a run is *built* (from flags, from a script) or to which
//! binary holds a subcommand must leave every expected byte below alone;
//! only [`harness`] — how a subcommand is spawned — may be respelled.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

mod common;

use std::process::{Command, Output};

use sim_core::TraceHash;

/// Spawns subcommand `sub` with `args`.
fn harness(sub: &str, args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_harness");
    Command::new(bin).arg(sub).args(args).output().expect("spawn harness binary")
}

/// [`harness`], required to exit 0; its stdout.
fn stdout_of(sub: &str, args: &[&str]) -> Vec<u8> {
    let out = harness(sub, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{sub} {args:?}: {stderr}");
    out.stdout
}

fn text_of(sub: &str, args: &[&str]) -> String {
    String::from_utf8(stdout_of(sub, args)).expect("utf-8 report")
}

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", TraceHash::new().write_bytes(bytes).digest())
}

fn corpus(name: &str) -> String {
    format!("{}/../../tests/scenarios/{name}.scn", env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The last capture is the 1,040-node city: every record of a mobile run,
/// position updates included, decoded back out of the trace log's store.
#[test]
fn trace_captures_are_byte_identical() {
    let city = fixture("city-1k.scn");
    let captures: [&[&str]; 5] = [
        &["--quick"],
        &["--quick", "--format", "csv"],
        &["--quick", "--hops", "2", "--variant", "NewReno"],
        &["--quick", "--topology", "grid:3x3", "--mobility", "waypoint"],
        &["--script", &city],
    ];
    let digests: Vec<String> =
        captures.iter().map(|args| digest(&stdout_of("trace", args))).collect();
    assert_eq!(
        digests,
        [
            "48e17dd1c5340c37",
            "0d7a8424067d45aa",
            "fafa837f5030efe9",
            "ad94d9e898ac8625",
            "16bb38faaf5bd27a",
        ]
    );
}

/// The lines of a `topo` report that do not hold a wall-clock figure: the
/// trace hash (cut before the event rate), the ledger and the verdict.
fn topo_verdict(args: &[&str]) -> Vec<String> {
    text_of("topo", args)
        .lines()
        .filter(|l| ["trace hash", "ledger:", "invariants:"].iter().any(|p| l.starts_with(p)))
        .map(|l| l.split("  |  ").next().unwrap_or(l).to_string())
        .collect()
}

#[test]
fn topo_reports_the_same_hash_ledger_and_verdict() {
    assert_eq!(
        topo_verdict(&["--secs", "2", "--seed", "1"]),
        [
            "trace hash 0x4b2f7850985e919d",
            "ledger: injected 37 = delivered 36 + dropped 0 + fault 0 + in-flight 1",
            "invariants: clean (24172 records checked)",
        ]
    );
    let chain8 = ["--topology", "chain:8", "--mobility", "static", "--flows", "2", "--secs", "2"];
    assert_eq!(
        topo_verdict(&chain8),
        [
            "trace hash 0x116ff2ef2f798958",
            "ledger: injected 47 = delivered 45 + dropped 2 + fault 0 + in-flight 0",
            "invariants: clean (7691 records checked)",
        ]
    );
}

/// Every line of a `topo` report but its first, with the wall-clock figures
/// cut from the trace hash line: the hash, the event count, the edges settled
/// off the queue, the mobility counts, the ledger and the verdict.
fn topo_lines(args: &[&str]) -> Vec<String> {
    text_of("topo", args)
        .lines()
        .skip(1)
        .map(|l| {
            let cells: Vec<&str> = l.split("  |  ").collect();
            match cells.as_slice() {
                [hash, events, settled] => {
                    let events = events.split(" in ").next().unwrap_or(events);
                    format!("{hash}  |  {events}  |  {settled}")
                }
                _ => l.to_string(),
            }
        })
        .collect()
}

/// The two run files with the most motion: a 1,040-node city, where a grid
/// that dropped a candidate would change the rows, and nine roaming nodes.
#[test]
fn topo_pins_the_mobile_run_files() {
    assert_eq!(
        topo_lines(&["--script", &fixture("city-1k.scn")]),
        [
            "trace hash 0x4d2c88cf63ddfe9a  |  78544 events  |  \
             124043 signal edges settled off the queue",
            "mobility: 41600 position updates, 8525 neighbor-row churn",
            "ledger: injected 60 = delivered 52 + dropped 2 + fault 0 + in-flight 6",
            "invariants: clean (75169 records checked)",
        ]
    );
    assert_eq!(
        topo_lines(&["--script", &fixture("grid-roam.scn")]),
        [
            "trace hash 0xf256784346e63ae6  |  40741 events  |  \
             50430 signal edges settled off the queue",
            "mobility: 540 position updates, 65 neighbor-row churn",
            "ledger: injected 146 = delivered 134 + dropped 10 + fault 0 + in-flight 2",
            "invariants: clean (28581 records checked)",
        ]
    );
}

/// `line` from `from` on: what a `checkpoint` line says after the path it
/// names, which differs from one scratch directory to the next.
fn after<'a>(line: &'a str, from: &str) -> &'a str {
    &line[line.find(from).unwrap_or_else(|| panic!("no {from:?} in {line:?}"))..]
}

/// The CI step "Checkpoint, resume in a new process, compare with a straight
/// run", then one periodic sweep.
#[test]
fn checkpoint_sequence_prints_the_same_hashes_and_sizes() {
    let dir = common::scratch("checkpoint");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let (scn, ck, straight, cut) =
        (corpus("chain-break"), path("ck.snap"), path("straight.snap"), path("cut.snap"));

    let taken = text_of("checkpoint", &["snapshot", "--script", &scn, "--at", "4", "--out", &ck]);
    assert_eq!(
        after(&taken, ": "),
        ": 5129 bytes, t=4.000000s events=19721 hash=0x71534f49066f9e30\n"
    );
    let resumed = text_of("checkpoint", &["resume", "--script", &scn, "--from", &ck]);
    assert_eq!(
        after(&resumed, " at t="),
        " at t=4.000000s, ran to t=15.000000s: events=39044 (+19323 after resume) \
         hash=0x237736b373f481a7\n"
    );
    let ran =
        text_of("checkpoint", &["snapshot", "--script", &scn, "--at", "15", "--out", &straight]);
    assert_eq!(
        after(&ran, ": "),
        ": 4788 bytes, t=15.000000s events=39044 hash=0x237736b373f481a7\n"
    );
    let size = |p: &str| std::fs::metadata(p).expect("snapshot written").len();
    assert_eq!((size(&ck), size(&straight)), (5129, 4788));

    let bytes = std::fs::read(&ck).expect("snapshot written");
    std::fs::write(&cut, &bytes[..1000]).expect("write truncated snapshot");
    let refused = harness("checkpoint", &["resume", "--script", &scn, "--from", &cut]);
    assert_eq!(refused.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.ends_with("snapshot truncated mid-field\n"), "{stderr}");

    let sweep = ["snapshot", "--script", &scn, "--checkpoint-every", "5", "--out-dir", &path("d")];
    let sweep = text_of("checkpoint", &sweep);
    let lines: Vec<&str> = sweep.lines().collect();
    assert_eq!(lines.len(), 3, "{sweep}");
    assert_eq!(after(lines[0], ": "), ": t=5.000000s events=20010 hash=0x3baddeb1c0009b30");
    assert_eq!(after(lines[1], ": "), ": t=10.000000s events=20179 hash=0x1a91917993cb12de");
    assert!(lines[2].starts_with("2 checkpoint(s) in "), "{sweep}");
    assert_eq!(after(lines[2], "; "), "; final t=15.000000s hash=0x237736b373f481a7");
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

/// The `mc-verify` proofs of CI, and one windowless run its budget cuts
/// short: the verdict block on stdout and the branch log `--report` writes.
#[test]
fn mc_proofs_print_the_same_verdicts_and_branch_logs() {
    let dir = common::scratch("mc");
    let log = dir.join("branches.log");
    let log = log.to_str().expect("utf-8 temp path");
    let shifted: &[&str] = &["--shift-window", "0.002", "--shift-steps", "3"];
    let mut proofs = Vec::new();
    for (name, window, shift) in [
        ("chain-break", "4.0:4.004", shifted),
        ("relay-crash", "4.0:4.004", &[]),
        ("pause-resume", "3.0:3.004", &[]),
    ] {
        let scn = corpus(name);
        let mut args = vec!["--script", scn.as_str(), "--tie-window", window];
        args.extend_from_slice(shift);
        args.extend_from_slice(&["--max-branches", "2000", "--report", log, "--quiet"]);
        let verdict = text_of("mc", &args).replace('\n', " ");
        let branches = std::fs::read(log).expect("branch log written");
        proofs.push(format!("{verdict}log={}", digest(&branches)));
    }
    assert_eq!(
        proofs,
        [
            "mc-verdict script=chain-break status=PROVED placements=3 branches_explored=8 \
             truncated=false max_choice_points=2 max_group=2 log=1e82883bbaa06a37",
            "mc-verdict script=relay-crash status=PROVED placements=1 branches_explored=2 \
             truncated=false max_choice_points=1 max_group=2 log=0e3b4585aba519e1",
            "mc-verdict script=pause-resume status=PROVED placements=1 branches_explored=6 \
             truncated=false max_choice_points=2 max_group=3 log=bfcf765f68bbe414",
        ]
    );

    // Ties under mobility: the grid-roam run file, over the window its
    // proof in CI uses.
    let grid_roam = format!("{}/../../tests/fixtures/grid-roam.scn", env!("CARGO_MANIFEST_DIR"));
    let args = ["--script", &grid_roam, "--tie-window", "3.02:3.04", "--report", log, "--quiet"];
    let verdict = text_of("mc", &args).replace('\n', " ");
    let branches = std::fs::read(log).expect("branch log written");
    assert_eq!(
        format!("{verdict}log={}", digest(&branches)),
        "mc-verdict script=grid-roam status=PROVED placements=1 branches_explored=12 \
         truncated=false max_choice_points=3 max_group=3 log=0dff87fbf098bb66"
    );

    // No window: every frame end is a choice point, and the budget runs out
    // (exit 3) thousands of choice points deep, with groups of four.
    let scn = corpus("chain-break");
    let args = ["--script", &scn, "--max-branches", "40", "--report", log, "--quiet"];
    let truncated = harness("mc", &args);
    assert_eq!(truncated.status.code(), Some(3));
    let verdict = String::from_utf8(truncated.stdout).expect("utf-8 report").replace('\n', " ");
    let branches = std::fs::read(log).expect("branch log written");
    assert_eq!(
        format!("{verdict}log={}", digest(&branches)),
        "mc-verdict script=chain-break status=TRUNCATED placements=1 branches_explored=40 \
         truncated=true max_choice_points=5589 max_group=4 log=d21153ab2b7748dc"
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
