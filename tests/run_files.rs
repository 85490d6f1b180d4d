//! A run is one file: `tests/fixtures/grid-roam.scn` states a run that is
//! nothing like the corpus convention — a roaming grid, two flows of
//! different variants, a staggered start, a link cut — and is traced,
//! checked, snapshotted mid-run and resumed like any corpus script; and no
//! near-miss of a run file makes [`Run::parse`] or [`Run::build`] panic.

use proptest::prelude::*;
use tcp_muzha::faultline::InvariantChecker;
use tcp_muzha::net::{MobilitySpec, TcpVariant, TopologySpec};
use tcp_muzha::run::Run;
use tcp_muzha::sim::SimTime;
use tcp_muzha::tracelog::{Layer, TraceLog, TraceRecord};
use tcp_muzha::wire::{FlowId, NodeId};

const GRID_ROAM: &str = include_str!("fixtures/grid-roam.scn");

/// The eight corpus scripts and the one run file that is not one of them.
const RUN_FILES: [&str; 9] = [
    include_str!("scenarios/chain-break.scn"),
    include_str!("scenarios/relay-crash.scn"),
    include_str!("scenarios/bursty-channel.scn"),
    include_str!("scenarios/blackhole-window.scn"),
    include_str!("scenarios/partition-heal.scn"),
    include_str!("scenarios/pause-resume.scn"),
    include_str!("scenarios/queue-squeeze.scn"),
    include_str!("scenarios/storm.scn"),
    GRID_ROAM,
];

#[test]
fn a_non_chain_run_file_is_traced_checked_snapshotted_and_resumed() {
    let run = Run::parse(GRID_ROAM).expect("grid-roam parses and names nodes of its grid");
    assert_eq!(run.topology, TopologySpec::Grid { rows: 3, cols: 3 });
    assert!(matches!(run.mobility, MobilitySpec::Waypoint { .. }));
    let [muzha, newreno] = run.flows[..] else { panic!("two flows, not {}", run.flows.len()) };
    assert_eq!((muzha.variant, newreno.variant), (TcpVariant::Muzha, TcpVariant::NewReno));
    assert_eq!((muzha.start, newreno.start), (SimTime::ZERO, SimTime::from_secs_f64(1.5)));
    assert_eq!(newreno.tcp.advertised_window, 8);

    // Straight leg: traced and checked, cut in the middle of the outage.
    let cut = SimTime::from_secs_f64(3.5);
    let mut straight = run.build();
    straight.install_trace_log(TraceLog::new());
    straight.install_checker(InvariantChecker::new());
    straight.run_until(cut);
    let bytes = straight.snapshot();
    straight.run_until(run.end());

    let checker = straight.take_checker().expect("checker was installed");
    assert!(checker.violations().is_empty(), "{:?}", checker.violations());
    let ledger = checker.ledger();
    assert_eq!(
        ledger.injected,
        ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight,
        "{ledger:?}"
    );
    let log = straight.take_trace_log().expect("log was installed");
    let (a, b) = (NodeId::new(4), NodeId::new(5));
    let cuts: Vec<(SimTime, bool)> = log
        .iter()
        .filter_map(|e| match e.record {
            TraceRecord::FaultLink { a: x, b: y, up } if (x, y) == (a, b) => Some((e.at, up)),
            _ => None,
        })
        .collect();
    assert_eq!(cuts, [(run.faults[0].at, false), (run.faults[1].at, true)]);
    for flow in [0, 1].map(FlowId::new) {
        let delivered = straight.flow_report(flow).delivered_segments;
        assert!(delivered > 0, "flow {flow} delivered nothing");
        let traced = |e: tcp_muzha::tracelog::TraceEntry| {
            e.record.layer() == Layer::Agt && e.record.flow() == Some(flow)
        };
        assert!(log.iter().any(traced), "flow {flow} left no transport record");
    }
    assert!(straight.perf().position_updates > 0, "nobody moved");

    // Resumed leg: the same file builds the restore target.
    let mut resumed = run.build();
    resumed.restore(&bytes).expect("the run's own snapshot restores");
    assert_eq!(resumed.now(), cut);
    resumed.run_until(run.end());
    assert_eq!(resumed.trace_hash(), straight.trace_hash());
    assert_eq!(resumed.perf(), straight.perf());
}

/// Link rows are derived, not stored: a cut that falls between two moves —
/// this run's moves land on multiples of the 100 ms mobility tick, and the
/// cut is at 2.25 s — leaves the straight run holding rows built transmission
/// by transmission and staled move by move, and the resumed one holding none.
/// Both go on to the same hash, through the link cut as well.
#[test]
fn a_cut_between_two_moves_resumes_to_the_straight_hash() {
    let run = Run::parse(GRID_ROAM).expect("grid-roam parses and names nodes of its grid");
    let cut = SimTime::from_secs_f64(2.25);
    let mut straight = run.build();
    straight.run_until(cut);
    let moved_before = straight.perf().position_updates;
    assert!(moved_before > 0, "nobody moved before the cut");
    let bytes = straight.snapshot();
    straight.run_until(run.end());
    assert!(straight.perf().position_updates > moved_before, "nobody moved after the cut");

    let mut resumed = run.build();
    resumed.restore(&bytes).expect("the run's own snapshot restores");
    resumed.run_until(run.end());
    assert_eq!(resumed.trace_hash(), straight.trace_hash());
    assert_eq!(resumed.perf(), straight.perf());
}

/// Numbers and tokens a near-valid run file might hold in any position.
const HOSTILE: [&str; 17] = [
    "1e30",
    "1.9e10",
    "99999999999999",
    "-1",
    "-0",
    "NaN",
    "inf",
    "1e-320",
    "0",
    "65535",
    "65536",
    "18446744073709551616",
    "|",
    "#",
    "waypoint:1e-320-1e308@1e30",
    "grid:65535x65535",
    "cross:3",
];

/// `text` with one token dropped, duplicated or replaced by a hostile one, or
/// one whole line said twice.
fn mutate(text: &str, line: usize, token: usize, kind: u8, hostile: usize) -> String {
    let mut lines: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect())
        .filter(|toks: &Vec<&str>| !toks.is_empty())
        .collect();
    let line = line % lines.len();
    let token = token % lines[line].len();
    match kind % 4 {
        0 => drop(lines[line].remove(token)),
        1 => {
            let again = lines[line][token];
            lines[line].insert(token, again);
        }
        2 => lines[line][token] = HOSTILE[hostile % HOSTILE.len()],
        _ => {
            let again = lines[line].clone();
            lines.push(again);
        }
    }
    lines.iter().map(|toks| toks.join(" ") + "\n").collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Untrusted text in, a `Run` or a message out: whatever one to three
    /// mutations make of a run file, `Run::parse` returns, and what it
    /// accepts builds (all nine files are small enough to build each case).
    #[test]
    fn near_valid_run_files_are_refused_or_accepted_never_a_panic(
        file in 0usize..9,
        mutations in proptest::collection::vec(
            (any::<usize>(), any::<usize>(), any::<u8>(), any::<usize>()),
            1..4,
        ),
    ) {
        let mut text = RUN_FILES[file].to_string();
        for (line, token, kind, hostile) in mutations {
            text = mutate(&text, line, token, kind, hostile);
            if text.is_empty() {
                break;
            }
        }
        if let Ok(run) = Run::parse(&text) {
            // What was accepted is a run: every endpoint is a node, and the
            // simulator takes it as it is.
            let n = run.topology.node_count();
            prop_assert!(run.flows.iter().all(|f| f.src.index() < n && f.dst.index() < n));
            prop_assert_eq!(run.build().node_count(), n);
        }
    }
}

/// The mutator reaches both verdicts, so the property above is not vacuous.
#[test]
fn mutations_reach_both_verdicts() {
    let verdict = |text: &str| Run::parse(text).map(|run| run.build());
    let (mut accepted, mut refused) = (0, 0);
    for line in 0..9 {
        for kind in 0..4 {
            match verdict(&mutate(GRID_ROAM, line, 1, kind, line)) {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert!(accepted >= 5 && refused >= 5, "{accepted} accepted, {refused} refused");
    // Pinned: a header line said twice is last-wins (a `flow` line is one more flow).
    let twice = mutate(GRID_ROAM, 3, 0, 3, 0);
    assert!(twice.ends_with("topology grid:3x3\n"), "{twice}");
    assert!(verdict(&twice).is_ok());
}

/// Every spelling of a topology and a mobility model the grammars document.
const SPECS: [&str; 12] = [
    "chain",
    "chain:8",
    "grid",
    "grid:4x8",
    "random-disc:100",
    "random-disc:100@2500x2500",
    "random-disc:40@5000x5000",
    "city-blocks",
    "city-blocks:4x4@20",
    "static",
    "waypoint",
    "waypoint:5-15@2",
];

/// `spec` with the character at `at` dropped, said twice, or replaced by a
/// separator, a spec word or a hostile number.
fn mutate_spec(spec: &str, at: usize, kind: u8, pick: usize) -> String {
    const WORDS: [&str; 10] = [":", "x", "@", "-", ".", "e", "chain", "grid", "waypoint", ""];
    let mut chars: Vec<String> = spec.chars().map(String::from).collect();
    let at = at % (chars.len() + 1);
    match kind % 4 {
        0 if at < chars.len() => drop(chars.remove(at)),
        1 if at < chars.len() => chars.insert(at, chars[at].clone()),
        2 => chars.insert(at, WORDS[pick % WORDS.len()].to_string()),
        _ => chars.insert(at, HOSTILE[pick % HOSTILE.len()].to_string()),
    }
    chars.concat()
}

/// Both parsers return on `text`; whatever they accept is usable as is: a
/// topology places or says why it cannot (tried where it is small enough to
/// place in every case), never a panic.
fn parse_specs(text: &str) {
    if let Ok(topology) = TopologySpec::parse(text) {
        assert!(topology.node_count() <= usize::from(u16::MAX), "{text}: too many nodes");
        if topology.node_count() <= 400 {
            if let Ok(positions) = topology.try_build(250.0, 1) {
                assert_eq!(positions.len(), topology.node_count(), "{text}");
            }
        }
    }
    if let Ok(MobilitySpec::Waypoint { min_speed_mps: lo, max_speed_mps: hi, .. }) =
        MobilitySpec::parse(text)
    {
        assert!(0.0 < lo && lo <= hi && hi.is_finite(), "{text}: speeds {lo}-{hi}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Arbitrary bytes are refused or accepted by both spec parsers, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_a_spec_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        parse_specs(&String::from_utf8_lossy(&bytes));
    }

    /// One to three character-level mutations of a documented spelling are
    /// refused or accepted by both spec parsers, never a panic.
    #[test]
    fn near_valid_specs_are_refused_or_accepted_never_a_panic(
        spec in 0usize..SPECS.len(),
        mutations in proptest::collection::vec(
            (any::<usize>(), any::<u8>(), any::<usize>()),
            1..4,
        ),
    ) {
        let mut text = SPECS[spec].to_string();
        for (at, kind, pick) in mutations {
            text = mutate_spec(&text, at, kind, pick);
        }
        parse_specs(&text);
    }
}

/// The spec mutator reaches both verdicts, so the property above is not vacuous.
#[test]
fn spec_mutations_reach_both_verdicts() {
    let accepted =
        |text: &str| TopologySpec::parse(text).is_ok() || MobilitySpec::parse(text).is_ok();
    let (mut yes, mut no) = (0, 0);
    for (i, spec) in SPECS.iter().enumerate() {
        for at in 0..=spec.len() {
            for kind in 0..4 {
                if accepted(&mutate_spec(spec, at, kind, i)) {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
        }
    }
    assert!(yes >= 50 && no >= 50, "{yes} accepted, {no} refused");
}
