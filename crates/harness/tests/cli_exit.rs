//! A rejected command line is one `error: …` line on stderr and exit
//! status 2, from the real binaries: no panic (101), and no silent run on
//! the defaults (0) when a flag is misspelt or has been retired.

use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn harness binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not start a run");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains(needle), "{bin} {args:?}: {stderr}");
}

#[test]
fn retired_and_misspelt_flags_exit_2() {
    let topo = env!("CARGO_BIN_EXE_topo");
    // The reference-variant selectors this build no longer has.
    assert_rejected(topo, &["--phy-index", "grid"], "unknown flag --phy-index");
    assert_rejected(topo, &["--phy-indx=brute"], "unknown flag --phy-indx");
    assert_rejected(topo, &["--twin"], "unknown flag --twin");
    assert_rejected(topo, &["--scheduler", "heap"], "unknown flag --scheduler");
    assert_rejected(topo, &["--secs", "1", "--bogus"], "unknown flag --bogus");
    // Every other binary goes through the same check.
    assert_rejected(env!("CARGO_BIN_EXE_trace"), &["--quick", "--shards", "2"], "--shards");
    assert_rejected(env!("CARGO_BIN_EXE_mc"), &["--script", "x.scn", "--quite"], "--quite");
    assert_rejected(env!("CARGO_BIN_EXE_checkpoint"), &["snapshot", "--att", "1"], "--att");
    assert_rejected(env!("CARGO_BIN_EXE_reproduce"), &["--quik"], "--quik");
    assert_rejected(env!("CARGO_BIN_EXE_calibrate"), &["cwnd", "--job", "2"], "--job");
}

#[test]
fn one_node_topology_is_a_bad_value_not_a_panic() {
    for bin in [env!("CARGO_BIN_EXE_topo"), env!("CARGO_BIN_EXE_trace")] {
        assert_rejected(bin, &["--topology", "grid:1x1"], "a flow needs two nodes");
    }
}

/// Values the parsers used to accept and a later layer panicked on (exit
/// 101 after the banner): a degenerate or unaddressable topology, and a
/// time past `SimTime`'s `u64` nanoseconds.
#[test]
fn hostile_topologies_and_times_are_bad_values_not_panics() {
    for bin in [env!("CARGO_BIN_EXE_topo"), env!("CARGO_BIN_EXE_trace")] {
        for area in ["0x0", "-5x10", "NaNxNaN"] {
            let spec = format!("random-disc:50@{area}");
            assert_rejected(bin, &["--topology", &spec], "positive and finite");
        }
        for spec in ["grid:300x300", "city-blocks:300x300"] {
            assert_rejected(bin, &["--topology", spec], "at most 65535");
        }
    }
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/scenarios/chain-break.scn");
    let never = "99999999999999";
    assert_rejected(env!("CARGO_BIN_EXE_topo"), &["--secs", never], "below 2^64 ns");
    assert_rejected(
        env!("CARGO_BIN_EXE_checkpoint"),
        &["snapshot", "--script", script, "--at", never, "--out", "unwritten.snap"],
        "below 2^64 ns",
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_mc"),
        &["--script", script, "--quiet", "--tie-window", &format!("4.0:{never}")],
        "below 2^64 ns",
    );
}
