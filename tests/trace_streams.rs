//! Tier-1 gate for the trace subsystem (`crates/tracelog`): captured
//! streams must be byte-identical across twin runs and across batch worker
//! counts, every ns-2 line must lead with its entry's fields, the rendered
//! ns-2 stream must match a checked-in golden fixture, and the flight
//! recorder must dump exactly its ring on an injected invariant violation.
//! Captures of a whole run go through `harness::run::Run::capture`, as
//! `harness trace` does.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

use tcp_muzha::experiments::cwnd_traces_batch;
use tcp_muzha::faultline::{CheckerLimits, InvariantChecker};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::run::Run;
use tcp_muzha::sim::{SimDuration, SimTime};
use tcp_muzha::tracecap;
use tcp_muzha::tracelog::{ns2, Layer, TraceEntry, TraceFilter, TraceLog, TraceRecord};
use tcp_muzha::wire::NodeId;

/// The same corpus `tests/scenario_corpus.rs` runs clean; here every
/// script must also produce a byte-identical trace stream on a twin run.
const CORPUS: [(&str, &str); 8] = [
    ("chain-break", include_str!("scenarios/chain-break.scn")),
    ("relay-crash", include_str!("scenarios/relay-crash.scn")),
    ("bursty-channel", include_str!("scenarios/bursty-channel.scn")),
    ("blackhole-window", include_str!("scenarios/blackhole-window.scn")),
    ("partition-heal", include_str!("scenarios/partition-heal.scn")),
    ("pause-resume", include_str!("scenarios/pause-resume.scn")),
    ("queue-squeeze", include_str!("scenarios/queue-squeeze.scn")),
    ("storm", include_str!("scenarios/storm.scn")),
];

/// The run `text` states, with a full trace log installed.
fn run_traced_scenario(text: &str) -> TraceLog {
    let run = Run::parse(text).expect("corpus scripts parse and name nodes of their topology");
    run.capture(TraceFilter::all())
}

#[test]
fn corpus_twin_runs_produce_byte_identical_trace_streams() {
    for (name, text) in CORPUS {
        let a = run_traced_scenario(text);
        let b = run_traced_scenario(text);
        assert!(!a.is_empty(), "{name}: the traced run recorded nothing");
        let stream_a = ns2::render(a.iter());
        let stream_b = ns2::render(b.iter());
        assert_eq!(stream_a, stream_b, "{name}: twin runs must render byte-identical ns-2 streams");
        // The CSV sink must agree too — same entries, same bytes.
        assert_eq!(
            tracecap::csv(a.iter()),
            tracecap::csv(b.iter()),
            "{name}: twin runs must render byte-identical CSV captures"
        );
    }
}

/// A log installed on a restored simulator is the log of the run from the
/// restore instant on: whether or not the first leg was traced, it holds
/// nothing stamped earlier, its entries are in time order, and it equals the
/// uninterrupted traced run's suffix.
#[test]
fn a_log_installed_after_restore_starts_at_the_restore_instant() {
    let build = || {
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim
    };
    let (t, end) = (SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(8.0));
    let mut first_leg = build();
    first_leg.run_until(t);
    let bytes = first_leg.snapshot();

    let mut resumed = build();
    resumed.restore(&bytes).expect("the cut restores");
    resumed.install_trace_log(TraceLog::new());
    resumed.run_until(end);
    let resumed = resumed.take_trace_log().expect("log was installed").snapshot();

    let back_dated = resumed.iter().filter(|e| e.at < t).count();
    assert_eq!(back_dated, 0, "entries stamped before the restore at {t}");
    let inversions = resumed.windows(2).filter(|pair| pair[1].at < pair[0].at).count();
    assert_eq!(inversions, 0, "entries out of time order");

    let mut straight = build();
    straight.install_trace_log(TraceLog::new());
    straight.run_until(end);
    let straight = straight.take_trace_log().expect("log was installed");
    let suffix: Vec<TraceEntry> = straight.iter().filter(|e| e.at > t).collect();
    assert!(!suffix.is_empty());
    assert_eq!(resumed, suffix);
}

#[test]
fn batch_worker_count_does_not_change_traces() {
    // `cwnd_traces_batch` runs every (hops, variant) combo through the
    // trace subsystem; fanning across workers must not change a single
    // sample.
    let variants = [TcpVariant::NewReno, TcpVariant::Muzha];
    let serial =
        cwnd_traces_batch(&[2, 3], &variants, SimDuration::from_secs(2), SimConfig::default(), 1);
    let parallel =
        cwnd_traces_batch(&[2, 3], &variants, SimDuration::from_secs(2), SimConfig::default(), 4);
    assert_eq!(serial.len(), parallel.len());
    for (row_s, row_p) in serial.iter().zip(&parallel) {
        for (s, p) in row_s.iter().zip(row_p) {
            assert_eq!(s.variant, p.variant);
            assert_eq!(
                s.trace.samples(),
                p.trace.samples(),
                "{}-hop {}: --jobs changed the cwnd trace",
                s.hops,
                s.variant
            );
        }
    }
}

/// Lines of golden fixture coverage: enough to cross route discovery,
/// slow-start, and steady data flow on the 2-hop chain.
const GOLDEN_LINES: usize = 250;

fn golden_capture() -> Vec<TraceEntry> {
    let seed = SimConfig::default().seed;
    let text = format!("seed {seed}\nduration 1\ntopology chain:2\nflow 0 2 NewReno\n");
    run_traced_scenario(&text).snapshot()
}

#[test]
fn two_hop_newreno_stream_matches_golden_fixture() {
    // The first GOLDEN_LINES ns-2 lines of a canonical 2-hop NewReno run,
    // checked in at tests/fixtures/trace_newreno_2hop.tr. Any change to
    // packet timing, uid assignment, or trace formatting shows up here as
    // a reviewable fixture diff (regenerate with:
    // `cargo run -p harness --bin harness -- trace --hops 2 --variant newreno \
    //    --secs 1 | head -n 250`).
    let entries = golden_capture();
    assert!(entries.len() >= GOLDEN_LINES, "run too short for the fixture");
    let rendered = ns2::render(entries[..GOLDEN_LINES].iter().copied());
    let golden = include_str!("fixtures/trace_newreno_2hop.tr");
    assert_eq!(
        rendered, golden,
        "ns-2 stream diverged from tests/fixtures/trace_newreno_2hop.tr \
         (if intentional, regenerate the fixture)"
    );
}

/// A scripted fault is in the log under its own layer, at its scripted
/// instant: the kill and revive of relay-crash, the break and heal of
/// chain-break, and nothing but eaten packets — inside the window — for a
/// blackhole.
#[test]
fn fault_script_runs_log_their_faults_at_the_scripted_instants() {
    let faults_of = |text: &str| -> Vec<TraceEntry> {
        let log = run_traced_scenario(text);
        log.iter().filter(|e| e.record.layer() == Layer::Fault).collect()
    };
    let t = SimTime::from_secs_f64;
    let n = NodeId::new;

    // The relay happens to be idle at the kill: two transitions, no drops.
    let crash = faults_of(include_str!("scenarios/relay-crash.scn"));
    assert_eq!(
        crash,
        [
            TraceEntry { at: t(4.0), record: TraceRecord::FaultNode { node: n(2), up: false } },
            TraceEntry { at: t(8.0), record: TraceRecord::FaultNode { node: n(2), up: true } },
        ]
    );

    let brk = faults_of(include_str!("scenarios/chain-break.scn"));
    assert_eq!(
        brk,
        [
            TraceEntry {
                at: t(4.0),
                record: TraceRecord::FaultLink { a: n(2), b: n(3), up: false }
            },
            TraceEntry {
                at: t(9.0),
                record: TraceRecord::FaultLink { a: n(2), b: n(3), up: true }
            },
        ]
    );

    let hole = faults_of(include_str!("scenarios/blackhole-window.scn"));
    assert!(!hole.is_empty(), "the blackhole ate nothing");
    for e in &hole {
        assert!(matches!(e.record, TraceRecord::FaultDrop { node, .. } if node == n(1)), "{e:?}");
        assert!(t(3.0) <= e.at && e.at < t(6.0), "{e:?} outside the window");
    }
}

/// The fault-free golden capture, and a fault script's log with its `FLT`
/// lines: every ns-2 line leads with its entry's direction, instant, node
/// and layer, and the lines are in time order.
#[test]
fn ns2_lines_mirror_the_entries() {
    let crash = run_traced_scenario(include_str!("scenarios/relay-crash.scn")).snapshot();
    let fault_lines = crash.iter().filter(|e| ns2::line(e).contains("_ FLT --- ")).count();
    assert_eq!(fault_lines, 2, "relay-crash logs a kill and a revive");
    ns2_mirrors(&crash);
    ns2_mirrors(&golden_capture());
}

fn ns2_mirrors(entries: &[TraceEntry]) {
    assert!(!entries.is_empty());
    for pair in entries.windows(2) {
        assert!(pair[0].at <= pair[1].at, "entry times must be monotone");
    }
    for entry in entries {
        let rec = &entry.record;
        let nanos = entry.at.as_nanos();
        let (s, ns) = (nanos / 1_000_000_000, nanos % 1_000_000_000);
        let (op, node, tag) = (rec.direction().ns2_op(), rec.node(), rec.layer().ns2_tag());
        let head = format!("{op} {s}.{ns:09} _{node}_ {tag} ");
        let line = ns2::line(entry);
        assert!(line.starts_with(&head), "{line:?} does not lead with {head:?}");
    }
}

/// A short NewReno transfer on the 2-hop chain under a checker with
/// `limits`, beside `log` if there is one: the log, and the sealed checker.
fn run_checked(
    limits: CheckerLimits,
    log: Option<TraceLog>,
) -> (Option<TraceLog>, InvariantChecker) {
    let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
    let (src, dst) = topology::chain_flow(2);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    sim.install_checker(InvariantChecker::with_limits(limits));
    if let Some(log) = log {
        sim.install_trace_log(log);
    }
    sim.run_until(SimTime::from_secs_f64(3.0));
    (sim.take_trace_log(), sim.take_checker().expect("checker was installed"))
}

/// An absurdly low cwnd ceiling guarantees a violation early in any normal
/// transfer.
fn tight_window() -> CheckerLimits {
    CheckerLimits { max_cwnd_segments: 2.0, ..CheckerLimits::default() }
}

#[test]
fn flight_recorder_dump_is_the_tail_of_the_full_stream() {
    const CAP: usize = 24;
    let (full, _) = run_checked(tight_window(), Some(TraceLog::new()));
    let (recorder, checker) = run_checked(tight_window(), Some(TraceLog::flight_recorder(CAP)));
    let (full, recorder) = (full.expect("installed"), recorder.expect("installed"));

    let dumps = recorder.dumps();
    assert_eq!(dumps.len(), checker.violations().len(), "one dump per violation");
    let dump = &dumps[0];
    assert_eq!(dump.entries.len(), CAP, "the dump must hold exactly the ring");
    assert_eq!(dump.reason, checker.violations()[0].to_string());

    // The log is written before the checker is fed, at every choke point:
    // the dump ends on the very record that tripped the invariant — the
    // first window above the ceiling.
    let full = full.snapshot();
    let offender = full
        .iter()
        .position(|e| matches!(e.record, TraceRecord::TcpCwnd { cwnd, .. } if cwnd > 2.0))
        .expect("the window opens past two segments");
    assert_eq!(dump.at, full[offender].at);
    assert_eq!(dump.entries.last(), Some(&full[offender]));
    // Both runs are deterministic twins, so the dump is the contiguous
    // window of the full stream ending there.
    assert_eq!(dump.entries, full[offender + 1 - CAP..=offender]);
}

/// A filter in front of the log must not starve the checker: beside a log
/// that keeps one layer, or one node, or nothing at all, the checker reaches
/// the verdict it reaches alone.
#[test]
fn a_filtered_log_beside_a_checker_leaves_its_verdict_alone() {
    let verdict = |c: &InvariantChecker| {
        let list: Vec<_> =
            c.violations().iter().map(|v| (v.at, v.invariant, v.detail.clone())).collect();
        (c.ledger(), c.records_seen(), list)
    };
    let alone = verdict(&run_checked(tight_window(), None).1);
    assert!(alone.0.delivered > 0 && !alone.2.is_empty());
    for filter in [
        TraceFilter::all(),
        TraceFilter::all().layer(Layer::Phy),
        TraceFilter::all().node(NodeId::new(1)),
        TraceFilter::all().layers(&[]),
    ] {
        let log = TraceLog::with_filter(filter.clone());
        let (log, checker) = run_checked(tight_window(), Some(log));
        assert_eq!(verdict(&checker), alone, "beside a log filtered by {filter:?}");
        let seen = log.expect("log was installed").seen();
        assert_eq!(seen, checker.records_seen(), "both were offered every record");
    }
}

/// The unbounded log's compact store on a real run: an 8-hop Muzha chain
/// traced for 10 virtual seconds keeps at most 9 B a record (8.17 when
/// written; a fixed-width layout of the same fields takes about 27).
#[test]
fn a_traced_chain_stores_at_most_nine_bytes_a_record() {
    let mut sim = Simulator::new(topology::chain(8), SimConfig::default());
    let (src, dst) = topology::chain_flow(8);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
    sim.install_trace_log(TraceLog::new());
    sim.run_until(SimTime::from_secs_f64(10.0));
    let log = sim.take_trace_log().expect("log was installed");
    assert!(log.len() > 10_000, "only {} records", log.len());
    let (bytes, records) = (log.stored_bytes(), log.len());
    assert!(bytes <= 9 * records, "{bytes} B for {records} records");
    assert_eq!(log.iter().count(), records);
}
