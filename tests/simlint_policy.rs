//! Tier-1 gate: the workspace must satisfy the determinism & panic-safety
//! policy enforced by `crates/simlint`, judged against the checked-in
//! `simlint.allow` ratchet.
//!
//! This is the same check `cargo run -p simlint` performs; wiring it into
//! the test suite means a `HashMap` re-introduced into a simulation-state
//! crate, a `thread_rng()` call anywhere, or an unbudgeted `unwrap()` in
//! protocol code turns the build red — not just a CI lint lane.

use std::path::Path;

#[test]
fn workspace_satisfies_determinism_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = simlint::check_workspace(root, &root.join("simlint.allow"))
        .expect("simlint scan must be able to read the workspace");
    assert!(
        report.is_clean(),
        "simlint policy violations (fix the code or argue a budget in \
         simlint.allow):\n{}",
        simlint::render_text(&report)
    );
}

#[test]
fn wallclock_licence_covers_measurement_crates_only() {
    // Pin the nondet carve-out: `Instant` is licensed in the measurement
    // crate (harness owns the `WallClock` shim) and nowhere else — in
    // particular not in any sim-state crate, where wall time entering the
    // event loop would break twin-run determinism.
    assert!(simlint::wallclock_licensed("crates/harness/src/wallclock.rs"));
    assert!(simlint::wallclock_licensed("crates/harness/src/bin/topo.rs"));
    for path in [
        "crates/sim-core/src/time.rs",
        "crates/netstack/src/sim.rs",
        "crates/simlint/src/lib.rs",
        "src/lib.rs",
        "tests/determinism.rs",
        "examples/chain_throughput.rs",
    ] {
        assert!(!simlint::wallclock_licensed(path), "{path} must not see the wall clock");
    }
    for krate in simlint::WALLCLOCK_CRATES {
        assert!(
            !simlint::SIM_STATE_CRATES.contains(&krate),
            "a wall-clock licence on sim-state crate `{krate}` would defeat the policy"
        );
    }
}

#[test]
fn trace_subsystem_is_held_to_sim_state_policy() {
    // The trace log runs *inside* the event loop as a pure observer; a
    // nondeterministic iteration order or wall-clock read there would leak
    // straight into the recorded streams. Pin it into the strict set.
    assert!(
        simlint::SIM_STATE_CRATES.contains(&"tracelog"),
        "crates/tracelog must stay in the sim-state crate list"
    );
    assert!(
        !simlint::WALLCLOCK_CRATES.contains(&"tracelog"),
        "crates/tracelog must not gain a wall-clock licence"
    );
}

#[test]
fn topology_subsystem_is_held_to_sim_state_policy() {
    // The spatial grid decides which nodes the channel visits on every
    // neighbor refresh, and the generators draw placements from `SimRng` —
    // a hash-ordered map or wall-clock read in `topo` would reorder PHY
    // events between runs. Pin it into the strict set.
    assert!(
        simlint::SIM_STATE_CRATES.contains(&"topo"),
        "crates/topo must stay in the sim-state crate list"
    );
    assert!(
        !simlint::WALLCLOCK_CRATES.contains(&"topo"),
        "crates/topo must not gain a wall-clock licence"
    );
}

#[test]
fn binaryheap_licence_covers_sim_core_only() {
    // Pin the binary-heap carve-out: the scheduler's home crate may use
    // `std::collections::BinaryHeap` (the event queue's far-future tier
    // and the `HeapQueue` differential reference live there); everywhere
    // else an ad-hoc heap would bypass the FIFO tie discipline the
    // trace-hash determinism contract depends on.
    assert!(simlint::binaryheap_licensed("crates/sim-core/src/event.rs"));
    assert!(simlint::binaryheap_licensed("crates/sim-core/src/lib.rs"));
    for path in [
        "crates/sim-core/tests/event_props.rs",
        "crates/netstack/src/sim.rs",
        "crates/harness/src/runner.rs",
        "src/lib.rs",
        "tests/end_to_end.rs",
    ] {
        assert!(!simlint::binaryheap_licensed(path), "{path} must not use BinaryHeap directly");
    }
}

#[test]
fn thread_licence_covers_parallel_drivers_only() {
    // Pin the thread carve-out: `std::thread` shares the wall-clock
    // licence — the measurement crate (whole-run batch parallelism, merged
    // in submission order) and nowhere else. A simulation is
    // single-threaded; the path the retired in-simulation driver lived at
    // must not be licensed again by accident.
    assert!(simlint::wallclock_licensed("crates/harness/src/parallel.rs"));
    for path in [
        "crates/sim-core/src/shard.rs",
        "crates/sim-core/src/event.rs",
        "crates/sim-core/src/lib.rs",
        "crates/netstack/src/sim.rs",
        "crates/phy/src/channel.rs",
        "src/lib.rs",
        "tests/determinism.rs",
    ] {
        assert!(!simlint::wallclock_licensed(path), "{path} must not spawn threads");
    }
}

// ---------------------------------------------------------------------------
// Fixture workspace: tests/fixtures/simlint_bad is an intentionally-broken
// tree (never compiled, skipped by the real scan) that pins the analyzer's
// detection power — if a rule regresses to not-firing, these turn red.
// ---------------------------------------------------------------------------

fn fixture_findings() -> Vec<simlint::Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/simlint_bad");
    simlint::scan_workspace(&root).expect("fixture tree must scan")
}

fn fixture_messages(rule: simlint::Rule) -> Vec<String> {
    fixture_findings().into_iter().filter(|f| f.rule == rule).map(|f| f.message).collect()
}

#[test]
fn fixture_trace_coverage_failures_are_caught() {
    let messages = fixture_messages(simlint::Rule::TraceCoverage);
    let expect = [
        "`TraceRecord::Orphan` is never constructed",
        "`TraceRecord::Orphan` is not rendered by `ns2::line`",
        "wildcard arm in accessor `TraceRecord::layer`",
        "`Layer::Agt` is missing from `Layer::ALL`",
    ];
    for needle in expect {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "missing trace-coverage finding ({needle}); got: {messages:#?}"
        );
    }
    assert_eq!(messages.len(), expect.len(), "unexpected extras: {messages:#?}");
}

#[test]
fn fixture_token_rules_fire() {
    let findings = fixture_findings();
    let hits: Vec<(simlint::Rule, &str, usize)> = findings
        .iter()
        .filter(|f| {
            matches!(
                f.rule,
                simlint::Rule::TimerClear
                    | simlint::Rule::CastTruncate
                    | simlint::Rule::FloatOrder
                    | simlint::Rule::NanCompare
            )
        })
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    // dcf.rs: the guarded clear in `on_timer` passes; the raw clear in
    // `reset` fires, once.
    assert_eq!(
        hits.iter()
            .filter(
                |(r, p, _)| *r == simlint::Rule::TimerClear && *p == "crates/mac80211/src/dcf.rs"
            )
            .count(),
        1,
        "exactly the raw clear must fire: {hits:?}"
    );
    for rule in [simlint::Rule::CastTruncate, simlint::Rule::FloatOrder, simlint::Rule::NanCompare]
    {
        assert!(
            hits.iter().any(|(r, p, _)| *r == rule && *p == "crates/sim-core/src/clock.rs"),
            "{rule} must fire in the clock fixture: {hits:?}"
        );
    }
}

#[test]
fn fixture_unlicensed_thread_spawn_is_caught() {
    // The aodv fixture spawns a raw thread from a sim-state crate; exactly
    // that one spawn must fire, and the licensed harness batch runner
    // must stay clean in the real scan —
    // `workspace_satisfies_determinism_policy` above covers the latter.
    let hits: Vec<(String, usize)> = fixture_findings()
        .into_iter()
        .filter(|f| f.rule == simlint::Rule::ThreadSpawn)
        .map(|f| (f.path, f.line))
        .collect();
    assert_eq!(
        hits,
        vec![("crates/aodv/src/engine.rs".to_string(), 5)],
        "exactly the unlicensed spawn must fire"
    );
}

#[test]
fn fixture_workspace_is_rejected_and_real_scan_never_sees_it() {
    // End to end: an empty allowlist turns every fixture finding into a
    // violation…
    let report = simlint::apply_allowlist(fixture_findings(), &simlint::Allowlist::default());
    assert!(!report.is_clean());
    assert!(report.violations.len() >= 9, "got {}", report.violations.len());
    // …and none of those findings can leak into the real workspace scan
    // (scan_workspace skips `fixtures/` trees).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let real = simlint::scan_workspace(root).expect("workspace scan");
    assert!(
        !real.iter().any(|f| f.path.contains("fixtures")),
        "the real scan must skip fixture trees"
    );
}

#[test]
fn allowlist_is_not_stale() {
    // The ratchet only moves down: when a file drops below its budget the
    // allowlist must be tightened in the same change, so budgets always
    // reflect reality.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = simlint::check_workspace(root, &root.join("simlint.allow"))
        .expect("simlint scan must be able to read the workspace");
    assert!(
        report.stale.is_empty(),
        "simlint.allow budgets are looser than the code needs — ratchet \
         them down:\n{}",
        report.stale.iter().map(|s| format!("  {s}\n")).collect::<String>()
    );
}
