//! The scenario corpus runner: every script in `tests/scenarios/` runs as
//! the `Run` it states — none states a topology, mobility or flow, so each
//! is the corpus convention, which one test pins against a simulator built
//! by hand — under the runtime invariant checker, twice, and must (a)
//! parse, (b) produce bit-identical twin runs (same seed + script ⇒ same
//! `trace_hash`), and (c) finish with zero invariant violations.
//!
//! A final test feeds the checker an intentionally-buggy record stream to
//! prove the harness *can* fail — a checker that never fires is worthless.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

use tcp_muzha::faultline::mc::{self, BranchOutcome, McConfig};
use tcp_muzha::faultline::{FaultEvent, InvariantChecker, LedgerSummary, ScenarioScript};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::run::Run;
use tcp_muzha::sim::{EventQueue, SimDuration, SimTime, TieClass, TieKind, TieOrder, TraceHash};
use tcp_muzha::tracelog::{PacketKind, TraceLog, TraceRecord};
use tcp_muzha::wire::{FlowId, NodeId};

/// The corpus, embedded so the test binary is self-contained and the run
/// order is deterministic.
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

/// The run `script` states: for a corpus script, which has no header line
/// beyond name, seed and duration, the corpus convention.
fn run_of(script: &ScenarioScript) -> Run {
    Run::from_script(script).expect("corpus scripts name nodes of their topology")
}

/// Runs `script` under the invariant checker.
fn run_scenario(script: &ScenarioScript) -> (u64, u64, LedgerSummary, Vec<String>) {
    let run = run_of(script);
    let mut sim = run.build();
    sim.install_checker(InvariantChecker::new());
    sim.run_until(run.end());
    let checker = sim.take_checker().expect("checker was installed");
    let violations = checker.violations().iter().map(|v| v.to_string()).collect();
    let delivered = sim.flow_report(FlowId::new(0)).delivered_segments;
    (sim.trace_hash(), delivered, checker.ledger(), violations)
}

/// "Absent = convention" against the one hand-built reference there is: the
/// run of a header-less script is a 4-hop chain placed by hand, one NewReno
/// flow end to end, seed 1 and 10 s — same trace hash, same snapshot bytes.
#[test]
fn a_header_less_script_is_the_hand_built_corpus_convention() {
    let script = ScenarioScript::parse("at 2 link-down 1 2\nat 3 link-up 1 2\n").unwrap();
    let run = run_of(&script);
    let cfg = SimConfig { seed: 1, ..SimConfig::default() };
    let mut by_hand = Simulator::new(topology::chain(4), cfg);
    let (src, dst) = topology::chain_flow(4);
    by_hand.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    by_hand.load_scenario(&script);
    let mut built = run.build();
    for sim in [&mut by_hand, &mut built] {
        sim.run_until(SimTime::from_secs_f64(2.5));
    }
    assert!(by_hand.snapshot() == built.snapshot(), "snapshot bytes differ mid-run");
    assert_eq!(run.end(), SimTime::from_secs_f64(10.0));
    for sim in [&mut by_hand, &mut built] {
        sim.run_until(run.end());
    }
    assert_eq!(by_hand.trace_hash(), built.trace_hash());
    assert_eq!(by_hand.perf(), built.perf());
}

#[test]
fn corpus_parses_and_is_well_formed() {
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text)
            .unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        assert_eq!(script.name, name, "file name and `name` header must agree");
        assert!(script.seed.is_some(), "{name}: corpus scripts must pin a seed");
        assert!(script.duration.is_some(), "{name}: corpus scripts must pin a duration");
        assert!(!script.events.is_empty(), "{name}: corpus scripts must inject something");
        assert!(
            script.duration
                > script.events.iter().map(|e| Some(e.at - SimTime::ZERO)).max().flatten(),
            "{name}: every fault must fire within the run"
        );
    }
}

#[test]
fn corpus_runs_clean_and_twin_runs_are_bit_identical() {
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text)
            .unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        let (hash_a, delivered_a, ledger_a, violations_a) = run_scenario(&script);
        let (hash_b, delivered_b, _, _) = run_scenario(&script);
        assert_eq!(
            hash_a, hash_b,
            "{name}: twin runs with the same seed + script must be bit-identical"
        );
        assert_eq!(delivered_a, delivered_b, "{name}: twin delivery counts diverged");
        assert!(
            violations_a.is_empty(),
            "{name}: invariant violations:\n{}",
            violations_a.join("\n")
        );
        assert!(delivered_a > 0, "{name}: the flow delivered nothing at all");
        assert_eq!(
            ledger_a.injected,
            ledger_a.delivered + ledger_a.dropped + ledger_a.fault_dropped + ledger_a.in_flight,
            "{name}: conservation ledger does not balance: {ledger_a:?}"
        );
    }
}

/// `delivered > 0` above cannot see a flow that dies half way. The frozen
/// relay of `pause-resume` used to come back with a ghost reception jamming
/// its carrier sense, and the committed digest pinned the result: 51
/// segments by t = 4 s and not one more. The flow must outlive the outage.
#[test]
fn pause_resume_delivers_more_after_the_resume_than_before_the_pause() {
    let script = ScenarioScript::parse(include_str!("scenarios/pause-resume.scn")).unwrap();
    let [pause, resume] = [script.events[0].at, script.events[1].at];
    let run = run_of(&script);
    let mut sim = run.build();
    let delivered = |sim: &Simulator| sim.flow_report(FlowId::new(0)).delivered_segments;
    sim.run_until(pause);
    let before_pause = delivered(&sim);
    sim.run_until(resume);
    let at_resume = delivered(&sim);
    sim.run_until(run.end());
    let after_resume = delivered(&sim) - at_resume;
    assert!(before_pause > 0, "the flow never got going before the pause");
    assert!(
        after_resume > before_pause,
        "{before_pause} segments in the {pause} before the pause, {after_resume} in the {} after \
         the resume",
        run.end() - resume
    );
}

/// One pinned row of `tests/fixtures/corpus_digests.txt`.
fn digest_row(name: &str, sim: &Simulator) -> String {
    let delivered: u64 = sim.run_report().flows.iter().map(|f| f.delivered_bytes).sum();
    format!("{name} {:016x} {delivered} {}", sim.trace_hash(), sim.perf().events_processed)
}

/// The cross-commit oracle: every other hash gate compares two runs of the
/// *same* build, so a refactor that shifts both sides passes them all. This
/// one compares the 8 corpus scripts plus a 60-node random-waypoint disc
/// against digests committed by an earlier build.
/// A legitimate behaviour change regenerates the fixture from the table the
/// failure prints — and says so in its PR.
#[test]
fn corpus_digests_match_the_committed_fixture() {
    let mut rows = Vec::new();
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text)
            .unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        let run = run_of(&script);
        let mut sim = run.build();
        sim.run_until(run.end());
        rows.push(digest_row(name, &sim));
    }

    // The corpus runs on a static chain; the disc exercises the mobility
    // tick, grid index updates and AODV repair under motion.
    let mut sim = disc60_waypoint();
    sim.run_until(SimTime::from_secs_f64(3.0));
    let perf = sim.perf();
    assert_eq!(perf.classified_total(), perf.events_processed, "classification invariant broken");
    rows.push(digest_row("disc60-waypoint", &sim));

    let committed: Vec<&str> = include_str!("fixtures/corpus_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert!(
        rows == committed,
        "behaviour changed against tests/fixtures/corpus_digests.txt; this build produces:\n{}\n",
        rows.join("\n")
    );
}

/// Digest of everything a run shows the outside: every [`TraceRecord`]
/// (unbounded log) in order, then every field of every flow report, each
/// node's summary and AODV counters, and the checker's conservation ledger.
/// Folded through the `Debug` renderings, which name every field and print
/// floats shortest-round-trip, so no field can be forgotten here.
///
/// Unlike `trace_hash` it sees no scheduler event, so it is the oracle for
/// a change to *which events exist* that must leave behaviour alone.
///
/// [`TraceRecord`]: tcp_muzha::tracelog::TraceRecord
fn observable_digest(sim: &mut Simulator) -> u64 {
    let log = sim.take_trace_log().expect("an unbounded trace log was installed");
    let checker = sim.take_checker().expect("a checker was installed");
    assert_eq!(log.kept(), log.seen(), "the log must be unbounded and unfiltered");
    let mut h = TraceHash::new();
    for entry in log.iter() {
        h.write_str(&format!("{entry:?}"));
    }
    for flow in sim.all_flow_reports() {
        h.write_str(&format!("{flow:?}"));
    }
    for i in 0..sim.node_count() {
        let node = NodeId::from_index(i);
        h.write_str(&format!("{:?} {:?}", sim.node_summary(node), sim.aodv_stats(node)));
    }
    h.write_str(&format!("{:?}", checker.ledger()));
    h.digest()
}

/// Installs the two observers [`observable_digest`] reads.
fn observe(sim: &mut Simulator) {
    sim.install_checker(InvariantChecker::new());
    sim.install_trace_log(TraceLog::new());
}

/// The run `script` states under tie order `order`, observed.
fn observed_corpus_run(script: &ScenarioScript, order: TieOrder) -> (Simulator, TieOrder) {
    let run = run_of(script);
    let mut sim = run.build();
    observe(&mut sim);
    sim.install_tie_order(order);
    sim.run_until(run.end());
    let order = sim.take_tie_order().expect("tie order was installed");
    (sim, order)
}

/// The 60-node random-waypoint disc of the digest fixtures, built but not run.
fn disc60_waypoint() -> Simulator {
    use tcp_muzha::net::{MobilitySpec, TopologySpec};
    let cfg = SimConfig {
        seed: 77,
        topology: TopologySpec::RandomDisc { count: 60, width_m: 1500.0, height_m: 1100.0 },
        mobility: MobilitySpec::Waypoint {
            min_speed_mps: 2.0,
            max_speed_mps: 20.0,
            pause: SimDuration::from_millis(250),
        },
        ..SimConfig::default()
    };
    let last = NodeId::from_index(cfg.topology.node_count() - 1);
    let flows = vec![FlowSpec::new(NodeId::new(0), last, TcpVariant::Muzha)];
    Run::new(cfg, flows, SimDuration::from_secs(3)).build()
}

/// The three CI `mc-verify` proofs: script, tie window (s), fault-shift
/// half-window (ns) and grid steps.
const MC_PROOFS: [(&str, (f64, f64), u64, usize); 3] = [
    (include_str!("scenarios/chain-break.scn"), (4.0, 4.004), 2_000_000, 3),
    (include_str!("scenarios/relay-crash.scn"), (4.0, 4.004), 0, 1),
    (include_str!("scenarios/pause-resume.scn"), (3.0, 3.004), 0, 1),
];

/// One `mc` proof's branch log with each branch's `trace_hash` replaced by
/// its observable digest: the exploration runs as `harness mc` runs it, then
/// every logged branch is replayed observed.
fn observable_branch_log(script: &ScenarioScript, cfg: &McConfig) -> String {
    let (verdict, _) = tcp_muzha::mc::explore_scenario(&run_of(script), cfg);
    assert!(verdict.proved(), "{}: {}", script.name, verdict.status());
    let placed = mc::placements(script, cfg);
    let (start, end) = cfg.tie_window.expect("the CI proofs pin a tie window");
    let mut out = String::new();
    for rec in &verdict.log {
        let order = TieOrder::new(rec.decisions.clone()).with_window(start, end);
        let (mut sim, _) = observed_corpus_run(&placed[rec.placement], order);
        assert_eq!(sim.trace_hash(), rec.trace_hash, "the replay must be the logged branch");
        out.push_str(&format!(
            "branch placement={} decisions={:?} choice_points={} violations={} observable={:016x}\n",
            rec.placement,
            rec.decisions,
            rec.choice_points,
            rec.violations,
            observable_digest(&mut sim)
        ));
    }
    out
}

/// The second cross-commit oracle (ROADMAP item 2(a)): `corpus_digests.txt`
/// pins the scheduler's event stream, this pins what the run *showed* — for
/// the eight corpus scripts and the mobile disc, [`observable_digest`]; for
/// the three CI `mc` proofs, the digest of [`observable_branch_log`]. A
/// change that only moves work between scheduler events (or off the queue)
/// regenerates the first fixture and must leave this one byte-identical.
#[test]
fn observable_digests_match_the_committed_fixture() {
    let mut rows = Vec::new();
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text).expect("corpus parses");
        let (mut sim, _) = observed_corpus_run(&script, TieOrder::default());
        rows.push(format!("{name} {:016x}", observable_digest(&mut sim)));
    }
    let mut sim = disc60_waypoint();
    observe(&mut sim);
    sim.run_until(SimTime::from_secs_f64(3.0));
    rows.push(format!("disc60-waypoint {:016x}", observable_digest(&mut sim)));
    for (text, (from, to), shift_window_ns, shift_steps) in MC_PROOFS {
        let script = ScenarioScript::parse(text).expect("corpus parses");
        let cfg = McConfig {
            tie_window: Some((SimTime::from_secs_f64(from), SimTime::from_secs_f64(to))),
            max_branches: 2000,
            shift_window_ns,
            shift_steps,
            ..McConfig::default()
        };
        let mut h = TraceHash::new();
        h.write_str(&observable_branch_log(&script, &cfg));
        rows.push(format!("mc:{} {:016x}", script.name, h.digest()));
    }

    let committed: Vec<&str> = include_str!("fixtures/observable_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert!(
        rows == committed,
        "observable behaviour changed against tests/fixtures/observable_digests.txt; this build \
         produces:\n{}\n",
        rows.join("\n")
    );
}

/// The observable digest discriminates what `trace_hash` does wherever the
/// difference reaches behaviour: one flipped same-instant tie and one fault
/// moved by a millisecond each change both.
#[test]
fn observable_digest_sees_a_flipped_tie_and_a_shifted_fault() {
    let script = ScenarioScript::parse(include_str!("scenarios/chain-break.scn")).unwrap();
    let run = |script: &ScenarioScript, decisions: Vec<usize>| {
        let (mut sim, order) = observed_corpus_run(script, TieOrder::new(decisions));
        (sim.trace_hash(), observable_digest(&mut sim), order.into_choices())
    };
    let (fifo_hash, fifo_seen, choices) = run(&script, Vec::new());

    // Most ties commute (two neighbours hearing one frame end): flipping
    // them moves `trace_hash` and, rightly, nothing observable. Flip ties in
    // encounter order until one steers the run.
    let steering = choices.iter().enumerate().filter(|(_, c)| c.group.len() >= 2).take(16).find(
        |&(target, _)| {
            let mut decisions = vec![0; target];
            decisions.push(1);
            let (hash, seen, _) = run(&script, decisions);
            assert_ne!(hash, fifo_hash, "tie {target}: a permuted tie must move the trace hash");
            seen != fifo_seen
        },
    );
    assert!(steering.is_some(), "none of the first 16 ties changes what the run shows");

    // A fault shows through its consequences — shift one that lands on a
    // busy relay: the kill of relay-crash, with packets in custody.
    let script = ScenarioScript::parse(include_str!("scenarios/relay-crash.scn")).unwrap();
    let mut shifted = script.clone();
    shifted.events[0].at += SimDuration::from_millis(1);
    let (hash, seen, _) = run(&script, Vec::new());
    let (shifted_hash, shifted_seen, _) = run(&shifted, Vec::new());
    assert_ne!(shifted_hash, hash);
    assert_ne!(shifted_seen, seen, "a kill 1 ms later must show in the observable stream");

    // And through its own `Fault`-layer record, consequences or none: the
    // chain's two ends never hear each other, so breaking that "link" steers
    // nothing, and moving the break still shows.
    let idle_break = |at: f64| {
        let (a, b) = (NodeId::new(0), NodeId::new(4));
        let script = ScenarioScript::new("idle-break").at(at, FaultEvent::LinkDown { a, b });
        let (mut sim, _) = observed_corpus_run(&script, TieOrder::default());
        (sim.flow_report(FlowId::new(0)), observable_digest(&mut sim))
    };
    let ((report, seen), (shifted_report, shifted_seen)) = (idle_break(2.0), idle_break(2.001));
    assert_eq!(format!("{report:?}"), format!("{shifted_report:?}"), "the break steered the flow");
    assert_ne!(shifted_seen, seen, "a link transition must show at its own instant");
}

/// Scenario seeds are not decorative: two corpus entries differing only in
/// seed must produce different traces.
#[test]
fn corpus_seeds_matter() {
    let script = ScenarioScript::parse(include_str!("scenarios/chain-break.scn")).unwrap();
    let mut reseeded = script.clone();
    reseeded.seed = Some(999);
    let (a, ..) = run_scenario(&script);
    let (b, ..) = run_scenario(&reseeded);
    assert_ne!(a, b, "changing the seed must change the trace hash");
}

/// The intentionally-buggy fixture: a fabricated record stream with a
/// receiver sequence regression, a delivery that was never injected, and a
/// forward over a route that expired. The checker must flag all three —
/// proving a clean corpus means something.
#[test]
fn checker_flags_an_intentionally_buggy_stream() {
    let t = SimTime::from_secs_f64;
    let flow = FlowId::new(0);
    let sent = |uid| TraceRecord::TcpSend {
        node: NodeId::new(0),
        flow,
        seq: uid,
        uid,
        bytes: 1500,
        retransmit: false,
    };
    let delivered = |uid, rcv_nxt| TraceRecord::TcpRecvData {
        node: NodeId::new(4),
        flow,
        seq: uid,
        uid,
        avbw: None,
        marked: false,
        rcv_nxt_after: Some(rcv_nxt),
    };
    let mut checker = InvariantChecker::new();
    checker.on_record(t(1.0), &sent(1));
    checker.on_record(t(1.1), &delivered(1, 10));
    // Bug 1: rcv_nxt goes backwards.
    checker.on_record(t(1.2), &sent(2));
    checker.on_record(t(1.3), &delivered(2, 5));
    // Bug 2: a data packet materialises out of thin air.
    checker.on_record(t(2.0), &delivered(999, 11));
    // Bug 3: forwarding data on an expired route.
    checker.on_record(
        t(3.0),
        &TraceRecord::RtrForward {
            node: NodeId::new(1),
            next_hop: NodeId::new(2),
            kind: PacketKind::TcpData,
            uid: 3,
            flow: Some(flow),
            bytes: 1500,
            ttl: 62,
            origin: false,
            route_valid_until: Some(t(2.5)),
        },
    );
    checker.finish(t(4.0));
    let invariants: Vec<&str> = checker.violations().iter().map(|v| v.invariant).collect();
    assert_eq!(invariants, ["tcp-monotone", "conservation", "aodv-route-fresh"]);
    // Each carries the records leading up to it, ending on the offender.
    for (v, offender) in checker.violations().iter().zip(["uid: 2,", "uid: 999,", "uid: 3,"]) {
        assert!(v.trail.last().is_some_and(|line| line.contains(offender)), "{v}");
    }
}

/// `SimDuration` is re-exported through the facade for scenario tooling.
#[test]
fn scenario_duration_roundtrips_through_facade_types() {
    let script = ScenarioScript::parse("duration 2.5\nat 1 heal\n").unwrap();
    assert_eq!(script.duration, Some(SimDuration::from_secs_f64(2.5)));
}

// ---------------------------------------------------------------------------
// The planted ordering bug (tests/fixtures/mc-ordering-bug.scn).
// ---------------------------------------------------------------------------

/// The timer toy behind the fixture: one retransmit-timer slot held the way
/// the stack held it before the generation-token guard (PR 5) — `armed`
/// stores the token of the live timer, a `Fire` pop consumes it, an
/// `AckRearm` cancels the live timer and arms a fresh token one second out.
#[derive(Clone, Copy, Debug)]
enum TimerToyEvent {
    /// A queued timer pop carrying the token it was armed with.
    Fire { token: u32 },
    /// The ACK that cancels the live timer and re-arms token `next`.
    AckRearm { next: u32 },
}

/// Replays the fixture's tie under `decisions`. With `guarded` false, the
/// `Fire` handler checks only that *a* timer is armed — the pre-PR 5 bug.
/// With it true, the handler demands an exact token match (the id-match
/// guard the real stack carries in `netstack`'s timer wheel).
///
/// The invariant: the re-armed retransmit obligation (token 2) must
/// eventually fire. In FIFO order the stale `Fire{1}` runs before the ACK,
/// legitimately consumes token 1, and the bug is invisible; only the
/// flipped permutation — ACK first, then the now-stale `Fire{1}` — makes
/// the unguarded handler swallow token 2's arming and drop the obligation.
fn run_timer_toy(
    script: &ScenarioScript,
    guarded: bool,
    seed: u64,
    decisions: &[usize],
) -> BranchOutcome {
    let at = script.events.first().expect("fixture pins the tie instant").at;
    let mut q = EventQueue::new();
    q.push(at, TimerToyEvent::Fire { token: 1 }); // queued before the ACK ⇒ FIFO runs it first
    q.push(at, TimerToyEvent::AckRearm { next: 2 });
    let mut order = TieOrder::new(decisions.to_vec());
    let mut armed = Some(1u32);
    let mut fired: Vec<u32> = Vec::new();
    let mut trace = TraceHash::new();
    trace.write_u64(seed);
    loop {
        // The same choke point as `Simulator::pop_event`.
        let popped = if q.tie_count() > 1 {
            let group = vec![TieClass::node(0, TieKind::NodeWork); q.tie_count()];
            let chosen = order.choose(q.peek_time().expect("tie implies a head"), group);
            q.pop_nth(chosen).map(|(now, _, ev)| (now, ev))
        } else {
            q.pop()
        };
        let Some((now, ev)) = popped else { break };
        match ev {
            TimerToyEvent::Fire { token } => {
                let hit = if guarded { armed == Some(token) } else { armed.is_some() };
                trace.write_u64(u64::from(token));
                if hit {
                    armed = None;
                    fired.push(token);
                }
            }
            TimerToyEvent::AckRearm { next } => {
                trace.write_u64(u64::from(next) << 32);
                armed = Some(next);
                q.push(now + SimDuration::from_secs(1), TimerToyEvent::Fire { token: next });
            }
        }
    }
    let mut violations = Vec::new();
    if !fired.contains(&2) {
        violations.push("timer-guard: re-armed retransmit obligation never fired".to_string());
    }
    BranchOutcome { trace_hash: trace.digest(), choices: order.into_choices(), violations }
}

/// The ISSUE's acceptance scenario for the explorer: 8-seed FIFO sampling
/// (the corpus runner's whole arsenal before this PR) passes the buggy
/// handler every time, the explorer catches it in two branches, and the
/// guarded handler — the shape the real stack uses — is *proved* clean over
/// the same space.
#[test]
fn explorer_catches_the_planted_timer_guard_bug() {
    let script = ScenarioScript::parse(include_str!("fixtures/mc-ordering-bug.scn"))
        .expect("fixture parses");
    assert_eq!(script.name, "mc-ordering-bug");

    // Seed sampling never flips same-instant FIFO order, so every seed
    // takes the clean path and the bug stays invisible.
    for seed in 1..=8 {
        let fifo = run_timer_toy(&script, false, seed, &[]);
        assert!(fifo.violations.is_empty(), "seed {seed} sampling must miss the bug");
    }

    // The explorer flips the tie and finds the counter-example immediately.
    let cfg = McConfig::default();
    let buggy = mc::explore(&script.name, 1, &cfg, |_, d| {
        run_timer_toy(&script, false, script.seed.unwrap_or(1), d)
    });
    assert_eq!(buggy.status(), "VIOLATION");
    let ce = buggy.counter_example.expect("the flipped tie must violate");
    assert_eq!(ce.decisions, vec![1], "ACK-before-stale-fire is the losing order");
    assert!(ce.violations.iter().any(|v| v.contains("timer-guard")), "{:?}", ce.violations);

    // With the id-match guard the same exploration is a proof: both orders
    // of the tie keep the obligation alive.
    let guarded = mc::explore(&script.name, 1, &cfg, |_, d| {
        run_timer_toy(&script, true, script.seed.unwrap_or(1), d)
    });
    assert!(guarded.proved(), "got {}", guarded.status());
    assert_eq!(guarded.branches_explored, 2, "one tie of two conflicting events ⇒ two branches");
}
