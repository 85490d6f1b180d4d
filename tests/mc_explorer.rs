//! Properties of the model-checking explorer (`faultline::mc` + the
//! `harness::mc` glue, PR 7).
//!
//! The first half drives the explorer over a *toy* scheduler — a real
//! `EventQueue` popped through the same tie-order choke point as
//! `netstack::Simulator` — where ground truth is computable: the branch
//! count is the product of tie-group factorials, every decision vector
//! must be distinct and every branch must replay to its recorded hash. The
//! second half runs the real simulator, each run built by
//! `harness::run::Run` from its script:
//! a window with no ties degenerates to exactly the plain corpus run
//! (the hook is a pure wrapper), three corpus scripts are *proved* clean
//! over a small window around their first fault, and the two tie races the
//! PR audited — same-instant RERR-vs-data work and delayed-ACK-vs-RTO —
//! hold every invariant in every order.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]
#![allow(clippy::cast_possible_truncation, reason = "test inputs are small generated values")]

use proptest::prelude::*;
use tcp_muzha::faultline::mc::{self, BranchOutcome, McConfig};
use tcp_muzha::faultline::{InvariantChecker, ScenarioScript};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::run::Run;
use tcp_muzha::sim::{twin_run, EventQueue, SimTime, TieClass, TieKind, TieOrder, TraceHash};

// ---------------------------------------------------------------------------
// Toy model: an EventQueue popped exactly the way netstack pops it.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct ToyEvent {
    id: u32,
    class: TieClass,
}

/// Mirror of `Simulator::pop_event`: when the head of the queue is a tie
/// inside the window, ask the `TieOrder` which member to dispatch first.
fn pop_toy(q: &mut EventQueue<ToyEvent>, order: &mut TieOrder) -> Option<(SimTime, ToyEvent)> {
    if let Some(t) = q.peek_time() {
        if order.covers(t) && q.tie_count() > 1 {
            let mut group = Vec::new();
            q.for_each_tie(|e| group.push(e.class));
            let chosen = order.choose(t, group);
            return q.pop_nth(chosen).map(|(t, _, ev)| (t, ev));
        }
    }
    q.pop()
}

/// Replays `batch` under `decisions`; the trace hash folds the total
/// dispatch order, so every interleaving is distinguishable.
fn run_toy(batch: &[(u64, ToyEvent)], decisions: &[usize]) -> BranchOutcome {
    let mut q = EventQueue::new();
    for &(at, ev) in batch {
        q.push(SimTime::from_nanos(at), ev);
    }
    let mut order = TieOrder::new(decisions.to_vec());
    let mut trace = TraceHash::new();
    while let Some((t, ev)) = pop_toy(&mut q, &mut order) {
        trace.write_u64(t.as_nanos());
        trace.write_u64(u64::from(ev.id));
    }
    BranchOutcome {
        trace_hash: trace.digest(),
        choices: order.into_choices(),
        violations: Vec::new(),
    }
}

/// Builds a toy batch from proptest picks: `times` are drawn from a tiny
/// alphabet so ties actually form, and ids stay unique so orders are
/// distinguishable.
fn toy_batch(times: &[u8], nodes: &[u8]) -> Vec<(u64, ToyEvent)> {
    times
        .iter()
        .zip(nodes)
        .enumerate()
        .map(|(i, (&t, &n))| {
            let class = TieClass::node(u32::from(n % 4), TieKind::NodeWork);
            (u64::from(t % 3) * 1_000, ToyEvent { id: i as u32, class })
        })
        .collect()
}

/// Product of k! over the tie-group sizes of `batch` — the exact number of
/// interleavings.
fn factorial_product(batch: &[(u64, ToyEvent)]) -> usize {
    let mut counts = std::collections::BTreeMap::new();
    for &(at, _) in batch {
        *counts.entry(at).or_insert(0usize) += 1;
    }
    counts.values().map(|&k| (1..=k).product::<usize>()).product()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The explorer enumerates exactly the product of tie-group factorials,
    /// every decision vector is distinct, every total order is distinct,
    /// and replaying any recorded vector reproduces its recorded hash.
    #[test]
    fn conflicting_ties_enumerate_the_exact_factorial_product(
        times in proptest::collection::vec(0u8..3, 2..6),
        nodes in proptest::collection::vec(any::<u8>(), 6),
    ) {
        let batch = toy_batch(&times, &nodes);
        let verdict = mc::explore("toy", 1, &McConfig::default(), |_, d| run_toy(&batch, d));
        prop_assert!(verdict.proved());
        prop_assert_eq!(verdict.branches_explored, factorial_product(&batch));

        let mut vectors: Vec<_> = verdict.log.iter().map(|r| r.decisions.clone()).collect();
        vectors.sort();
        vectors.dedup();
        prop_assert_eq!(vectors.len(), verdict.log.len(), "decision vectors must be distinct");

        let mut hashes: Vec<_> = verdict.log.iter().map(|r| r.trace_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        prop_assert_eq!(hashes.len(), verdict.log.len(), "each branch is a distinct order");

        for rec in &verdict.log {
            let replay = run_toy(&batch, &rec.decisions);
            prop_assert_eq!(replay.trace_hash, rec.trace_hash, "replay must reproduce the branch");
        }
    }

}

// ---------------------------------------------------------------------------
// Real simulator: differential, corpus proofs, and the audited tie races.
// ---------------------------------------------------------------------------

/// Runs `run` with *no* tie-order hook installed — the reference a hooked
/// run must match.
fn plain_corpus_hash(run: &Run) -> u64 {
    twin_run(|| {
        let mut sim = run.build();
        sim.install_checker(InvariantChecker::new());
        sim.run_until(run.end());
        sim.trace_hash()
    })
}

/// The run a script text states.
fn run_of(text: &str) -> Run {
    let script = ScenarioScript::parse(text).expect("script parses");
    Run::from_script(&script).expect("script names nodes of its topology")
}

/// Differential: with the tie window pushed past the end of the run (and no
/// fault-shift window), the explorer finds zero choice points, explores
/// exactly one branch, and that branch's hash equals the plain un-hooked
/// corpus run — the `TieOrder` hook is a pure wrapper around FIFO popping.
#[test]
fn empty_window_exploration_is_exactly_the_plain_run() {
    let run = run_of(include_str!("scenarios/chain-break.scn"));
    let past_end = SimTime::from_secs_f64(1_000.0);
    let cfg = McConfig { tie_window: Some((past_end, past_end)), ..McConfig::default() };
    let (verdict, _) = tcp_muzha::mc::explore_scenario(&run, &cfg);
    assert!(verdict.proved(), "got {}", verdict.status());
    assert_eq!(verdict.placements, 1);
    assert_eq!(verdict.branches_explored, 1, "no ties in window ⇒ exactly one branch");
    assert_eq!(verdict.max_choice_points, 0);
    assert_eq!(
        verdict.log[0].trace_hash,
        plain_corpus_hash(&run),
        "the single branch must be the plain corpus run, bit for bit"
    );
}

/// Exhaustively proves three corpus scripts clean over a small tie window
/// around their first fault — the instant where reordering is most likely
/// to matter — and pins the canonical branch log byte-identical across two
/// independent explorations (the ISSUE's determinism acceptance check).
#[test]
fn explorer_proves_corpus_scripts_with_canonical_logs() {
    let corpus = [
        include_str!("scenarios/chain-break.scn"),
        include_str!("scenarios/relay-crash.scn"),
        include_str!("scenarios/pause-resume.scn"),
    ];
    for text in corpus {
        let script = run_of(text);
        let first_fault = script.script.events.first().expect("corpus scripts have faults").at;
        let cfg = McConfig {
            tie_window: Some((
                first_fault,
                first_fault + tcp_muzha::sim::SimDuration::from_millis(3),
            )),
            max_branches: 600,
            ..McConfig::default()
        };
        let run = || tcp_muzha::mc::explore_scenario(&script, &cfg).0;
        let verdict = run();
        assert!(
            verdict.proved(),
            "{}: expected a proof, got {} after {} branches",
            script.script.name,
            verdict.status(),
            verdict.branches_explored
        );
        assert!(verdict.branches_explored >= 1);
        assert_eq!(
            verdict.render_log(),
            run().render_log(),
            "{}: two explorations must emit byte-identical branch logs",
            script.script.name
        );
    }
}

/// Audit #1 (ISSUE satellite): same-instant RERR-vs-data ties. Breaking a
/// mid-chain link makes the relay's route-error work (AODV timers, RERR
/// transmission) land at the same instants as in-flight data delivery on
/// neighbouring nodes. Every permutation of those ties must keep all
/// invariants — conservation, timer hygiene, route-state consistency.
#[test]
fn rerr_versus_data_delivery_ties_hold_invariants_in_every_order() {
    let script =
        run_of("name rerr-race\nseed 3\nduration 4\nat 1.5 link-down 2 3\nat 2.5 link-up 2 3\n");
    let cfg = McConfig {
        tie_window: Some((SimTime::from_secs_f64(1.5), SimTime::from_secs_f64(1.504))),
        max_branches: 600,
        ..McConfig::default()
    };
    let (verdict, _) = tcp_muzha::mc::explore_scenario(&script, &cfg);
    assert!(
        verdict.proved(),
        "expected a proof, got {} ({:?})",
        verdict.status(),
        verdict.counter_example
    );
    assert!(verdict.branches_explored > 1, "the break instant must actually branch");
}

/// Audit #2 (ISSUE satellite): delayed-ACK-vs-RTO ties. A delayed-ACK flow
/// over a breaking link puts the receiver's DelAck timer and the sender's
/// RTO in play at the same instants as retransmitted data. Drive the
/// explorer directly over a custom (non-corpus) build: a 2-hop chain with
/// `with_delayed_ack()` so both timers are live during the outage window.
#[test]
fn delayed_ack_versus_rto_ties_hold_invariants_in_every_order() {
    let script = ScenarioScript::parse(
        "name delack-rto\nseed 5\nduration 4\nat 1.2 link-down 1 2\nat 2.2 link-up 1 2\n",
    )
    .expect("fixture parses");
    let window = (SimTime::from_secs_f64(1.2), SimTime::from_secs_f64(1.204));
    let cfg = McConfig { tie_window: Some(window), max_branches: 600, ..McConfig::default() };
    let verdict = mc::explore(&script.name, 1, &cfg, |_, decisions| {
        let mut order = TieOrder::new(decisions.to_vec()).with_window(window.0, window.1);
        let sim_cfg = SimConfig { seed: script.seed.unwrap_or(1), ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(2), sim_cfg);
        let (src, dst) = topology::chain_flow(2);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno).with_delayed_ack());
        sim.load_scenario(&script);
        sim.install_checker(InvariantChecker::new());
        sim.install_tie_order(order);
        sim.run_until(SimTime::ZERO + script.duration.expect("fixture pins a duration"));
        order = sim.take_tie_order().expect("tie order was installed");
        let checker = sim.take_checker().expect("checker was installed");
        let mut violations: Vec<String> =
            checker.violations().iter().map(|v| v.to_string()).collect();
        if order.diverged() {
            violations.push("replay-divergence: a decision exceeded its tie group".to_string());
        }
        BranchOutcome { trace_hash: sim.trace_hash(), choices: order.into_choices(), violations }
    });
    assert!(
        verdict.proved(),
        "expected a proof, got {} ({:?})",
        verdict.status(),
        verdict.counter_example
    );
}
