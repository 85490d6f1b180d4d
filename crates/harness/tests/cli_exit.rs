//! A rejected command line or an unusable file is one `error: …` line on
//! stderr and exit status 2, from the real binaries: no panic (101), and no
//! silent run on the defaults (0) when a flag is misspelt or has been
//! retired.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

mod common;

use std::process::{Command, Output};

/// The run-driving binary; its first argument is the subcommand.
const HARNESS: &str = env!("CARGO_BIN_EXE_harness");
const REPRODUCE: &str = env!("CARGO_BIN_EXE_reproduce");

/// Exactly one `error:` line naming `needle`, status 2, and never a panic —
/// whatever else the binary had already said on stderr.
fn assert_error(bin: &str, args: &[&str], needle: &str) -> Output {
    let out = Command::new(bin).args(args).output().expect("spawn harness binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error: ")).collect();
    assert_eq!(errors.len(), 1, "{bin} {args:?}: {stderr}");
    assert!(errors[0].contains(needle), "{bin} {args:?}: {stderr}");
    out
}

/// [`assert_error`] before anything ran: that line is all of stderr, and
/// stdout is empty.
fn assert_rejected(bin: &str, args: &[&str], needle: &str) {
    let out = assert_error(bin, args, needle);
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not start a run");
    assert_eq!(out.stderr.iter().filter(|&&b| b == b'\n').count(), 1, "{bin} {args:?}");
}

#[test]
fn retired_and_misspelt_flags_exit_2() {
    // The reference-variant selectors this build no longer has.
    assert_rejected(HARNESS, &["topo", "--phy-index", "grid"], "unknown flag --phy-index");
    assert_rejected(HARNESS, &["topo", "--phy-indx=brute"], "unknown flag --phy-indx");
    assert_rejected(HARNESS, &["topo", "--twin"], "unknown flag --twin");
    assert_rejected(HARNESS, &["topo", "--scheduler", "heap"], "unknown flag --scheduler");
    assert_rejected(HARNESS, &["topo", "--secs", "1", "--bogus"], "unknown flag --bogus");
    // Every other subcommand goes through the same check.
    assert_rejected(HARNESS, &["trace", "--quick", "--shards", "2"], "--shards");
    assert_rejected(HARNESS, &["mc", "--script", "x.scn", "--quite"], "--quite");
    assert_rejected(HARNESS, &["checkpoint", "snapshot", "--att", "1"], "--att");
    assert_rejected(REPRODUCE, &["--quik"], "--quik");
    // Forks the program now chooses for itself, and the capture `trace` owns.
    assert_rejected(HARNESS, &["mc", "--script", "x.scn", "--resume"], "--resume");
    assert_rejected(REPRODUCE, &["--trace", "x"], "unknown flag --trace");
    assert_rejected(REPRODUCE, &["--pcap", "x"], "unknown flag --pcap");
    // One table, but each subcommand keeps its own flags: another's is unknown,
    // and `mc` and `checkpoint` take a run as a file only.
    assert_rejected(HARNESS, &["topo", "--quick"], "unknown flag --quick");
    assert_rejected(HARNESS, &["trace", "--tie-window", "1:2"], "unknown flag --tie-window");
    assert_rejected(HARNESS, &["mc", "--script", "x.scn", "--hops", "2"], "unknown flag --hops");
    assert_rejected(HARNESS, &["checkpoint", "snapshot", "--seed", "1"], "unknown flag --seed");
}

/// What to do comes first and is diagnosed first: `checkpoint bogus` used to
/// complain that `--script` is required, and a missing or unknown
/// `checkpoint` subcommand was a private usage text, not an error row.
#[test]
fn a_missing_or_unknown_subcommand_is_named_before_anything_else() {
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/scenarios/chain-break.scn");
    let top = "(want trace, topo, mc or checkpoint)";
    assert_rejected(HARNESS, &[], &format!("missing subcommand {top}"));
    assert_rejected(HARNESS, &["--quick"], &format!("missing subcommand {top}"));
    assert_rejected(
        HARNESS,
        &["explain", "--quick"],
        &format!("unknown subcommand \"explain\" {top}"),
    );
    let leg = "(want snapshot or resume)";
    assert_rejected(
        HARNESS,
        &["checkpoint", "bogus"],
        &format!("unknown subcommand \"bogus\" {leg}"),
    );
    assert_rejected(
        HARNESS,
        &["checkpoint", "--script", script],
        &format!("missing subcommand {leg}"),
    );
    assert_rejected(HARNESS, &["checkpoint", "snapshot"], "--script is required");
    let neither = ["checkpoint", "snapshot", "--script", script];
    assert_rejected(HARNESS, &neither, "--at SECS or --checkpoint-every SECS is required");
}

/// Files that cannot be read, parsed or written used to be panics (`mc`,
/// `trace`, `reproduce`) or `checkpoint`'s private exit status 1.
#[test]
fn unusable_files_are_one_error_line_not_panics() {
    let dir = common::scratch("files");
    let bad_script = dir.join("bad.scn");
    std::fs::write(&bad_script, "at zzz link-down 1 2\n").expect("write fixture");
    let bad_script = bad_script.to_str().expect("utf-8 temp path");
    let a_file = dir.join("file");
    std::fs::write(&a_file, "").expect("write fixture");
    let under_a_file = a_file.join("x");
    let under_a_file = under_a_file.to_str().expect("utf-8 temp path");
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/scenarios/chain-break.scn");

    assert_rejected(
        HARNESS,
        &["mc", "--script", "/nonexistent.scn"],
        "cannot read /nonexistent.scn",
    );
    assert_rejected(HARNESS, &["mc", "--script", bad_script], "cannot parse");
    let report = ["mc", "--script", script, "--tie-window", "99:99", "--report", under_a_file];
    assert_error(HARNESS, &report, "cannot write");

    for (script, out, needle) in [
        ("/nonexistent.scn", "unwritten.snap", "cannot read /nonexistent.scn"),
        (bad_script, "unwritten.snap", "cannot parse"),
        (script, under_a_file, "cannot write"),
    ] {
        let args = ["checkpoint", "snapshot", "--script", script, "--at", "1", "--out", out];
        assert_rejected(HARNESS, &args, needle);
    }
    for (from, needle) in [("/nonexistent.snap", "cannot read"), (script, "cannot resume")] {
        let args = ["checkpoint", "resume", "--script", script, "--from", from];
        assert_rejected(HARNESS, &args, needle);
    }

    assert_error(HARNESS, &["trace", "--quick", "--out", under_a_file], "cannot write");
    assert_rejected(REPRODUCE, &[under_a_file, "--quick"], "cannot create");
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

#[test]
fn one_node_topology_is_a_bad_value_not_a_panic() {
    for sub in ["topo", "trace"] {
        assert_rejected(HARNESS, &[sub, "--topology", "grid:1x1"], "a flow needs two nodes");
    }
}

/// `topo` maps its checker's verdict to its exit status (`verdict` in the
/// binary, unit-tested there on a fabricated violation): a clean run says how
/// many records were checked and exits 0.
#[test]
fn topo_exits_0_on_a_clean_verdict() {
    let args = ["topo", "--topology", "chain:2", "--mobility", "static", "--secs", "1"];
    let out = Command::new(HARNESS).args(args).output().expect("spawn topo");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("invariants: clean (") && stdout.contains(" records checked)"));
    assert!(!stdout.contains("VIOLATION"), "{stdout}");
}

/// Values the parsers used to accept and a later layer panicked on (exit
/// 101 after the banner): a degenerate or unaddressable topology, and a
/// time past `SimTime`'s `u64` nanoseconds.
#[test]
fn hostile_topologies_and_times_are_bad_values_not_panics() {
    for sub in ["topo", "trace"] {
        for area in ["0x0", "-5x10", "NaNxNaN"] {
            let spec = format!("random-disc:50@{area}");
            assert_rejected(HARNESS, &[sub, "--topology", &spec], "positive and finite");
        }
        for spec in ["grid:300x300", "city-blocks:300x300"] {
            assert_rejected(HARNESS, &[sub, "--topology", spec], "at most 65535");
        }
        // Parses, but no seed connects it: a placement panic at `generators.rs`.
        for spec in ["random-disc:40@5000x5000", "random-disc:40@1e6x1e6"] {
            assert_rejected(HARNESS, &[sub, "--topology", spec, "--seed", "3"], "at seed 3 ");
        }
    }
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/scenarios/chain-break.scn");
    let never = "99999999999999";
    assert_rejected(HARNESS, &["topo", "--secs", never], "below 2^64 ns");
    // `trace --secs` is the same parser now; it used to be a `u64` of seconds.
    assert_rejected(HARNESS, &["trace", "--secs", never], "below 2^64 ns");
    assert_rejected(
        HARNESS,
        &["checkpoint", "snapshot", "--script", script, "--at", never, "--out", "unwritten.snap"],
        "below 2^64 ns",
    );
    assert_rejected(
        HARNESS,
        &["mc", "--script", script, "--quiet", "--tie-window", &format!("4.0:{never}")],
        "below 2^64 ns",
    );
}

/// Flags that parse on their own and cannot be honoured together used to be
/// `assert!`s (`trace`: exit 101, two of them after the whole capture had
/// run) or a run that went nowhere and said so with status 0 (`checkpoint
/// resume --until` a time the snapshot is already past).
#[test]
fn flags_that_contradict_each_other_are_bad_values() {
    // A chain is a topology like any other: it may roam, and `--hops` spells one.
    let roaming = ["trace", "--quick", "--mobility", "waypoint", "--last", "1"];
    let roaming = Command::new(HARNESS).args(roaming).output().expect("spawn trace");
    assert!(roaming.status.success(), "{}", String::from_utf8_lossy(&roaming.stderr));
    assert_rejected(HARNESS, &["trace", "--hops", "2", "--topology", "chain:2"], "give one");
    let retired = ["trace", "--quick", "--format", "pcap"];
    assert_rejected(HARNESS, &retired, "unknown format 'pcap' (ns2, csv)");
    assert_rejected(HARNESS, &["trace", "--quick", "--hops", "0"], "bad chain hop count '0'");
    assert_rejected(HARNESS, &["trace", "--quick", "--hops", "65535"], "at most 65535");

    let dir = common::scratch("until");
    let snap = dir.join("ck.snap");
    let snap = snap.to_str().expect("utf-8 temp path");
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/scenarios/chain-break.scn");
    // A run is stated once: by a file or by flags, whichever subcommand asks.
    for (sub, flag) in [("trace", "--hops=2"), ("topo", "--seed=3"), ("topo", "--flows=2")] {
        let needle = "--script states the whole run";
        assert_rejected(HARNESS, &[sub, "--script", script, flag], needle);
    }

    let taken = Command::new(HARNESS)
        .args(["checkpoint", "snapshot", "--script", script, "--at", "4", "--out", snap])
        .output()
        .expect("spawn checkpoint");
    assert!(taken.status.success(), "{}", String::from_utf8_lossy(&taken.stderr));
    let resume = ["checkpoint", "resume", "--script", script, "--from", snap, "--until", "1"];
    let out = assert_error(HARNESS, &resume, "1.000000s is before t=4.000000s");
    assert!(out.stdout.is_empty(), "a refused resume reports no run");
    // The snapshot's own instant is a run of no events, not an error.
    let at_cut = Command::new(HARNESS)
        .args(["checkpoint", "resume", "--script", script, "--from", snap, "--until", "4"])
        .output()
        .expect("spawn checkpoint");
    assert!(at_cut.status.success(), "{}", String::from_utf8_lossy(&at_cut.stderr));
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

/// A run file is checked before anything runs, whoever reads it. Times past
/// `SimTime` used to panic inside the parser (`time.rs`, exit 101), and a
/// node the topology lacks was an index panic in `netstack::fault` one
/// virtual second into the run.
#[test]
fn a_hostile_run_file_is_a_line_error_from_every_subcommand() {
    let dir = common::scratch("hostile");
    let path = dir.join("hostile.scn");
    let path = path.to_str().expect("utf-8 temp path");
    for (text, needle) in [
        ("seed 1\nduration 1e30\n", "scenario line 2: bad duration `1e30`"),
        ("at 1e30 kill 1\n", "scenario line 1: bad time `1e30`: want a non-negative"),
        ("flow 0 1 muzha 1.9e10\n", "scenario line 1: bad start `1.9e10`"),
        ("mobility waypoint:1-2@1e30\n", "scenario line 1: bad mobility"),
        ("duration 3\nat 1 kill 9\n", "scenario line 2: no node n9 in chain:4 (5 nodes)"),
        ("at 1 link-down 2 9\n", "scenario line 1: no node n9"),
        ("flow 0 9 muzha\n", "scenario line 1: no node n9"),
        ("\nflow 2 2 newreno\n", "scenario line 2: a flow needs two nodes"),
        ("topology grid:2x2\nat 1 kill 4\n", "scenario line 2: no node n4 in grid:2x2"),
        ("flow 0 4 muzha 0 0\n", "scenario line 1: bad window `0`: "),
        (
            "seed 5\ntopology random-disc:40@5000x5000\n",
            "scenario line 2: random-disc:40@5000x5000 has no connected placement at seed 5 ",
        ),
    ] {
        std::fs::write(path, text).expect("write run file");
        for sub in [
            &["trace"][..],
            &["topo"],
            &["mc"],
            &["checkpoint", "snapshot", "--at", "2", "--out", "unwritten.snap"],
        ] {
            let args = [sub, &["--script", path]].concat();
            assert_rejected(HARNESS, &args, needle);
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

/// `--checkpoint-every 1e-12` passed a `== 0.0` test, rounded to a 0 ns step
/// and rewrote one file for ever; any step below 1 ms wrote colliding
/// `t{:.3}` names.
#[test]
fn a_checkpoint_sweep_needs_a_positive_step_and_never_reuses_a_path() {
    let dir = common::scratch("sweep");
    let script = dir.join("fine.scn");
    std::fs::write(&script, "name fine\nduration 0.002\n").expect("write run file");
    let (script, out) = (script.to_str().expect("utf-8"), dir.join("out"));
    let sweep = |step: &str| {
        let mut child = Command::new(HARNESS)
            .args(["checkpoint", "snapshot", "--script", script, "--checkpoint-every", step])
            .args(["--out-dir", out.to_str().expect("utf-8")])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn checkpoint");
        // A sweep that never advances would hang the suite: give it 20 s.
        for _ in 0..400 {
            if child.try_wait().expect("poll checkpoint").is_some() {
                return child.wait_with_output().expect("collect checkpoint");
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        child.kill().expect("kill a sweep that does not end");
        panic!("--checkpoint-every {step} did not end");
    };
    for step in ["1e-12", "0", "4e-10"] {
        let refused = sweep(step);
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert_eq!(refused.status.code(), Some(2), "{step}: {stderr}");
        assert!(stderr.contains("--checkpoint-every") && stderr.contains("must be positive"));
        assert!(!out.exists(), "a refused sweep writes nothing");
    }
    let swept = sweep("0.0004");
    let stdout = String::from_utf8_lossy(&swept.stdout);
    assert!(swept.status.success(), "{}", String::from_utf8_lossy(&swept.stderr));
    assert!(stdout.contains("4 checkpoint(s) in "), "{stdout}");
    let files = std::fs::read_dir(&out).expect("out dir").count();
    assert_eq!(files, 4, "one file per checkpoint printed:\n{stdout}");
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

/// `--flows 0` printed `0 Muzha flow(s)` and ran one; a count past the
/// topology's nodes asked for that many endpoint pairs before anything
/// checked it.
#[test]
fn a_run_of_no_flows_is_a_bad_value() {
    for sub in ["topo", "trace"] {
        let args = [sub, "--topology", "chain:3", "--secs", "1", "--flows", "0"];
        assert_rejected(HARNESS, &args, "--flows: cannot use \"0\": a run needs a flow");
        assert_rejected(HARNESS, &[sub, "--flows", "many"], "--flows: cannot use \"many\"");
        let args = [sub, "--topology", "chain:3", "--secs", "1", "--flows", "5"];
        assert_rejected(HARNESS, &args, "--flows: cannot use \"5\": at most 4 flows on a 4-node");
        let args = [sub, "--flows", "18446744073709551615"];
        assert_rejected(HARNESS, &args, "--flows: cannot use \"18446744073709551615\": at most");
    }
}

/// `harness topo … | head -3`: a reader that goes away is not a panic in
/// `println!` (exit 101 from `topo`, `mc` and `checkpoint` before).
#[test]
fn a_closed_stdout_is_tolerated_by_every_subcommand() {
    let dir = common::scratch("pipe");
    let snap = dir.join("ck.snap");
    let snap = snap.to_str().expect("utf-8 temp path");
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/scenarios/chain-break.scn");
    for args in [
        &["trace", "--quick"][..],
        &["topo", "--topology", "chain:2", "--mobility", "static", "--secs", "1"],
        &["mc", "--script", script, "--tie-window", "99:99", "--quiet"],
        &["checkpoint", "snapshot", "--script", script, "--at", "1", "--out", snap],
        &["checkpoint", "snapshot", "--script", script, "--checkpoint-every", "6", "--out-dir"],
    ] {
        let mut child = Command::new(HARNESS)
            .args(args)
            .args(args.ends_with(&["--out-dir"]).then_some(dir.as_os_str()))
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn harness");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("collect harness");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
