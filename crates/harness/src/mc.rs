//! Glue between the generic explorer (`faultline::mc`) and the simulator:
//! builds one full simulation per branch from the [`Run`] under exploration
//! and feeds the invariant checker's findings back to the search.
//! `faultline` cannot depend on `netstack`, so this is where the two meet;
//! `harness mc` and the test suite both drive exploration through here so
//! CLI verdicts and test assertions can never disagree.

use faultline::mc::{self, BranchOutcome, McConfig, McVerdict};
use faultline::InvariantChecker;
use netstack::Simulator;
use sim_core::{SimTime, TieOrder};
use tracelog::TraceLog;

use crate::run::Run;

/// `run` once per fault placement of `cfg`'s shift grid, the scripted
/// placement first.
fn placed_runs(run: &Run, cfg: &McConfig) -> Vec<Run> {
    let placed = mc::placements(&run.script, cfg);
    placed.into_iter().map(|script| Run { script, ..run.clone() }).collect()
}

/// Runs `sim` — built from `run`, checker installed — to the run's end
/// under `order`, returning the sealed simulator, the consumed tie order,
/// and the sealed checker.
#[expect(
    clippy::expect_used,
    reason = "the tie order is installed here and the checker by every caller"
)]
fn run_to_end(
    mut sim: Simulator,
    run: &Run,
    order: TieOrder,
) -> (Simulator, TieOrder, InvariantChecker) {
    sim.install_tie_order(order);
    sim.run_until(run.end());
    let order = sim.take_tie_order().expect("tie order was installed");
    let checker = sim.take_checker().expect("checker was installed");
    (sim, order, checker)
}

/// [`run_to_end`] from t = 0 on a freshly built simulator, optionally traced.
fn run_with_order(
    run: &Run,
    order: TieOrder,
    log: Option<TraceLog>,
) -> (Simulator, TieOrder, InvariantChecker) {
    let mut sim = run.build();
    sim.install_checker(InvariantChecker::new());
    if let Some(log) = log {
        sim.install_trace_log(log);
    }
    run_to_end(sim, run, order)
}

/// Runs one branch of the exploration from t = 0: `run` (already shifted to
/// its placement) replayed under `decisions` with the tie window from `cfg`.
/// Returns the outcome and the branch's dispatched-event count. This is the
/// reference [`run_branch_resumed`] must match bit for bit.
pub fn run_branch(run: &Run, cfg: &McConfig, decisions: &[usize]) -> (BranchOutcome, u64) {
    let (sim, order, checker) = run_with_order(run, windowed_order(cfg, decisions), None);
    let events = sim.perf().events_processed;
    (seal_branch(&sim, order, &checker), events)
}

/// The tie order for one branch: `decisions`, confined to `cfg`'s window.
fn windowed_order(cfg: &McConfig, decisions: &[usize]) -> TieOrder {
    let order = TieOrder::new(decisions.to_vec());
    match cfg.tie_window {
        Some((start, end)) => order.with_window(start, end),
        None => order,
    }
}

/// What the search sees of a finished branch.
fn seal_branch(sim: &Simulator, order: TieOrder, checker: &InvariantChecker) -> BranchOutcome {
    let mut violations: Vec<String> = checker.violations().iter().map(|v| v.to_string()).collect();
    if order.diverged() {
        violations.push("replay-divergence: a decision exceeded its tie group".to_string());
    }
    BranchOutcome { trace_hash: sim.trace_hash(), choices: order.into_choices(), violations }
}

/// Explores every bounded interleaving of `run` under `cfg`: fault
/// placements on the shift grid × tie permutations inside the window, the
/// full invariant checker on every branch. See [`faultline::mc::explore`].
///
/// A tie window means every branch of a placement shares the run up to the
/// window: that prefix runs once, is snapshotted, and each branch restores
/// the snapshot and replays only its suffix. Without a window there is no
/// shared prefix and every branch replays from t = 0 ([`run_branch`]). The
/// verdict is bit-identical either way — same hashes, same choices, same
/// violations.
pub fn explore_scenario(run: &Run, cfg: &McConfig) -> (McVerdict, ResumeStats) {
    let placed = placed_runs(run, cfg);
    // A window opening at t = 0 has no prefix either: the checkpoint would
    // have to sit before the first instant.
    let checkpoints: Vec<Checkpoint> = match cfg.tie_window {
        Some((start, _)) if start > SimTime::ZERO => {
            placed.iter().map(|p| checkpoint_before(p, start)).collect()
        }
        _ => Vec::new(),
    };
    let mut stats = ResumeStats {
        prefix_events: checkpoints.iter().map(|c| c.prefix_events).sum(),
        ..ResumeStats::default()
    };
    let verdict = mc::explore(&run.name, placed.len(), cfg, |placement, decisions| {
        let (outcome, replayed, prefix) = match checkpoints.get(placement) {
            Some(checkpoint) => {
                let (outcome, replayed) =
                    run_branch_resumed(&placed[placement], cfg, checkpoint, decisions);
                (outcome, replayed, checkpoint.prefix_events)
            }
            None => {
                let (outcome, events) = run_branch(&placed[placement], cfg, decisions);
                (outcome, events, 0)
            }
        };
        stats.replayed_events += replayed;
        stats.full_replay_events += prefix + replayed;
        outcome
    });
    (verdict, stats)
}

// ----------------------------------------------------------------------
// Checkpointed branch resume (ROADMAP item 5)
// ----------------------------------------------------------------------

/// A mid-run checkpoint of one placement's simulation:
/// the serialized simulator plus the live (unsealed) checker state, taken
/// just before the tie window opens. Branch resumes restore the bytes and
/// re-install a clone of the checker, because observers are not part of
/// the snapshot.
#[derive(Debug)]
pub struct Checkpoint {
    bytes: Vec<u8>,
    checker: InvariantChecker,
    /// Events the shared prefix dispatched to reach the checkpoint.
    pub prefix_events: u64,
}

/// Work accounting for an exploration, for asserting (and reporting) what
/// checkpointed resume saves over replaying every branch from t = 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResumeStats {
    /// Events executed once per placement to build its checkpoint.
    pub prefix_events: u64,
    /// Events replayed across all branches (after restoring a checkpoint,
    /// when there is one).
    pub replayed_events: u64,
    /// Events the same branches cost replayed from t = 0 (each branch's
    /// prefix plus its suffix — the prefix is shared, so a full replay
    /// pays it once per branch instead of once per placement).
    pub full_replay_events: u64,
}

impl ResumeStats {
    /// Total events the exploration actually dispatched.
    pub fn resumed_events(&self) -> u64 {
        self.prefix_events + self.replayed_events
    }
}

/// Runs the shared prefix of `run` once — up to, but *not* including,
/// the instant `at` — and captures a [`Checkpoint`]. Events at exactly
/// `at` are tie candidates of the exploration window, so they must be
/// dispatched under each branch's tie order, not consumed FIFO here. An
/// `at` past the run's duration checkpoints the end of the run: no branch
/// may see events the full replay never dispatches.
pub fn checkpoint_before(run: &Run, at: SimTime) -> Checkpoint {
    let mut sim = run.build();
    sim.install_checker(InvariantChecker::new());
    let stop = SimTime::from_nanos(at.as_nanos().saturating_sub(1));
    sim.run_until(stop.min(run.end()));
    #[expect(clippy::expect_used, reason = "the checker is installed above")]
    let checker = sim.checker().cloned().expect("checker was installed");
    Checkpoint { bytes: sim.snapshot(), checker, prefix_events: sim.perf().events_processed }
}

/// Runs one branch by restoring `checkpoint` and replaying only the suffix
/// under `decisions`. Returns the branch outcome — bit-identical to
/// [`run_branch`] on the same inputs — and the number of suffix events
/// replayed.
pub fn run_branch_resumed(
    run: &Run,
    cfg: &McConfig,
    checkpoint: &Checkpoint,
    decisions: &[usize],
) -> (BranchOutcome, u64) {
    let mut sim = run.build();
    #[expect(
        clippy::expect_used,
        reason = "the checkpoint was taken in-process from this run's build"
    )]
    sim.restore(&checkpoint.bytes).expect("checkpoint restores into its config twin");
    sim.install_checker(checkpoint.checker.clone());
    let (sim, order, checker) = run_to_end(sim, run, windowed_order(cfg, decisions));
    let replayed = sim.perf().events_processed - checkpoint.prefix_events;
    (seal_branch(&sim, order, &checker), replayed)
}

/// Replays the counter-example branch of `verdict` with a flight recorder
/// installed and renders every dump it triggered (the lead-up window to
/// each invariant violation) as ns-2 trace lines. Returns `None` when the
/// verdict has no counter-example.
pub fn flight_recorder_dump(run: &Run, cfg: &McConfig, verdict: &McVerdict) -> Option<String> {
    use std::fmt::Write as _;
    let ce = verdict.counter_example.as_ref()?;
    let placed = placed_runs(run, cfg);
    let placement = placed.get(ce.placement)?;
    let order = windowed_order(cfg, &ce.decisions);
    let (mut sim, _, _) = run_with_order(placement, order, Some(TraceLog::flight_recorder(64)));
    #[expect(clippy::expect_used, reason = "`run_with_order` installs the recorder it is given")]
    let log = sim.take_trace_log().expect("flight recorder was installed");
    let mut out = String::new();
    for dump in log.dumps() {
        let _ = writeln!(out, "# flight-recorder dump at {} — {}", dump.at, dump.reason);
        out.push_str(&tracelog::ns2::render(dump.entries.iter().copied()));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_break() -> Run {
        let text =
            "name mini-break\nseed 3\nduration 4\nat 1.5 link-down 2 3\nat 2.5 link-up 2 3\n";
        let script = faultline::ScenarioScript::parse(text).expect("fixture parses");
        Run::from_script(&script).expect("fixture names nodes of chain:4")
    }

    #[test]
    fn branch_zero_matches_the_plain_corpus_run() {
        let run = chain_break();
        let cfg = McConfig::default();
        let (a, _) = run_branch(&run, &cfg, &[]);
        let (b, _) = run_branch(&run, &cfg, &[]);
        assert_eq!(a.trace_hash, b.trace_hash, "replays of the same branch must agree");
        assert_eq!(a.choices, b.choices);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
    }

    #[test]
    fn windowed_exploration_of_a_short_break_proves_clean() {
        let run = chain_break();
        let (verdict, _) = explore_scenario(&run, &windowed_cfg());
        assert!(
            verdict.proved(),
            "expected a proof, got {} ({} branches)",
            verdict.status(),
            verdict.branches_explored
        );
        assert!(verdict.branches_explored > 1, "the window must actually branch");
    }

    fn windowed_cfg() -> McConfig {
        McConfig {
            tie_window: Some((SimTime::from_secs_f64(1.5), SimTime::from_secs_f64(1.502))),
            max_branches: 200,
            ..McConfig::default()
        }
    }

    #[test]
    fn resumed_branch_is_bit_identical_to_full_replay() {
        let run = chain_break();
        let cfg = windowed_cfg();
        let checkpoint = checkpoint_before(&run, SimTime::from_secs_f64(1.5));
        for decisions in [vec![], vec![1]] {
            let (full, total) = run_branch(&run, &cfg, &decisions);
            let (resumed, replayed) = run_branch_resumed(&run, &cfg, &checkpoint, &decisions);
            assert_eq!(full.trace_hash, resumed.trace_hash, "hash for decisions {decisions:?}");
            assert_eq!(full.choices, resumed.choices, "choices for decisions {decisions:?}");
            assert_eq!(full.violations, resumed.violations);
            assert!(replayed > 0, "the suffix must contain events");
            assert_eq!(
                checkpoint.prefix_events + replayed,
                total,
                "prefix + suffix must account for every event of the full replay"
            );
        }
    }

    #[test]
    fn checkpointed_exploration_matches_full_replay_with_fewer_events() {
        let run = chain_break();
        let cfg = windowed_cfg();
        let placed = placed_runs(&run, &cfg);
        let full = mc::explore(&run.name, placed.len(), &cfg, |p, decisions| {
            run_branch(&placed[p], &cfg, decisions).0
        });
        let (resumed, stats) = explore_scenario(&run, &cfg);
        assert_eq!(
            full.render_log(),
            resumed.render_log(),
            "checkpointed and full-replay explorations must agree branch for branch"
        );
        assert!(resumed.branches_explored > 1, "the window must actually branch");
        assert!(
            stats.resumed_events() < stats.full_replay_events,
            "resume must dispatch fewer events than full replay: {stats:?}"
        );
        // No window, no shared prefix: the same entry point replays in full.
        let unwindowed = McConfig { max_branches: 3, ..McConfig::default() };
        let (_, unwindowed) = explore_scenario(&run, &unwindowed);
        assert_eq!(unwindowed.prefix_events, 0);
        assert_eq!(unwindowed.resumed_events(), unwindowed.full_replay_events);
    }

    /// The PR 7 planted ordering bug, re-planted at the harness level: a
    /// branch whose in-window tie resolution deviates from FIFO trips the
    /// invariant (decision vector `[1]`, exactly the toy's counter-example).
    /// Checkpoint resume must reproduce the same counter-example as full
    /// replay while dispatching strictly fewer events.
    #[test]
    fn checkpoint_resume_reproduces_the_planted_counter_example_cheaper() {
        let run = chain_break();
        let cfg = windowed_cfg();
        let plant = |mut outcome: BranchOutcome| {
            if outcome.choices.iter().any(|c| c.chosen != 0) {
                outcome.violations.push("planted: a deferred event won its tie".to_string());
            }
            outcome
        };

        let placed = placed_runs(&run, &cfg);
        let mut full_events = 0u64;
        let full = mc::explore(&run.name, placed.len(), &cfg, |p, decisions| {
            let (outcome, events) = run_branch(&placed[p], &cfg, decisions);
            full_events += events;
            plant(outcome)
        });
        let ce_full = full.counter_example.as_ref().expect("full replay finds the planted bug");
        assert_eq!(ce_full.decisions, vec![1], "the PR 7 planted counter-example");

        let start = cfg.tie_window.unwrap().0;
        let checkpoints: Vec<Checkpoint> =
            placed.iter().map(|p| checkpoint_before(p, start)).collect();
        let mut resumed_events: u64 = checkpoints.iter().map(|c| c.prefix_events).sum();
        let resumed = mc::explore(&run.name, placed.len(), &cfg, |p, decisions| {
            let (outcome, replayed) =
                run_branch_resumed(&placed[p], &cfg, &checkpoints[p], decisions);
            resumed_events += replayed;
            plant(outcome)
        });
        let ce = resumed.counter_example.as_ref().expect("resume finds the planted bug");
        assert_eq!(ce.decisions, ce_full.decisions, "same counter-example either way");
        assert_eq!(ce.placement, ce_full.placement);
        assert!(
            resumed_events < full_events,
            "checkpoint resume must replay fewer events: {resumed_events} resumed vs {full_events} full"
        );
    }
}
