//! Bounded exhaustive interleaving exploration — the model checker.
//!
//! The simulator is bit-for-bit deterministic given a seed and a tie-order
//! decision vector (`sim_core::TieOrder`), so a *branch* of the exploration
//! is a re-run with a different vector: no in-memory forking. [`explore`]
//! enumerates
//!
//! 1. permutations of same-instant `(time, seq)` ties at the scheduler,
//!    bounded to a virtual-time window and a decision-vector depth, and
//! 2. placements of a run's faults, shifted on a deterministic grid inside a
//!    configurable window ([`placements`]),
//!
//! running a branch closure on every branch. Every permutation is explored
//! — no scheduler event commutes with another, so each member of a tie run
//! is an alternative and the explorer reads only the run's size — and hard
//! branch budgets keep the search bounded. Exploration order is canonical —
//! depth-first, earliest choice point first, lowest alternative first — so
//! two runs over the same script produce byte-identical branch logs.
//!
//! The closure is what makes a branch: [`explore_scenario`] builds one full
//! simulation per branch from the [`Run`] under exploration, with the
//! invariant checker installed, and feeds its findings back to the search;
//! toy drivers in the tests stand in for the simulator through the same
//! closure. `harness mc` and the test suite both drive exploration through
//! here, so CLI verdicts and test assertions can never disagree.
//!
//! A branch re-executes the prefix it shares with its siblings unless it
//! can skip it: with a tie window, [`explore_scenario`] runs each
//! placement's prefix once, snapshots it before the window opens, and
//! resumes every branch from the snapshot ([`run_branch_resumed`]), without
//! touching the search logic. Without a window every branch replays from
//! t = 0, so cost grows with (branches × run length).

use std::fmt::Write as _;

use faultline::InvariantChecker;
use netstack::Simulator;
use sim_core::{SimTime, TieChoice, TieOrder};
use tracelog::TraceLog;

use crate::run::Run;

/// Exploration bounds and windows.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Only scheduler ties with `start <= time <= end` become choice
    /// points; `None` explores ties over the whole run (use with care —
    /// every frame ends at all its listeners together, and each such tie
    /// multiplies the branch count).
    pub tie_window: Option<(SimTime, SimTime)>,
    /// Hard cap on branches (full replays) across all placements; hitting
    /// it marks the verdict truncated, i.e. *not* a proof.
    pub max_branches: usize,
    /// Maximum decision-vector length explored; choice points beyond this
    /// depth stay at FIFO and mark the verdict truncated.
    pub max_depth: usize,
    /// Half-width of the fault-placement window in nanoseconds: each
    /// placement shifts every scripted fault by one offset drawn from a
    /// uniform grid over `[-shift_window_ns, +shift_window_ns]`. Zero
    /// explores only the scripted placement.
    pub shift_window_ns: u64,
    /// Number of placements on that grid (the scripted placement is always
    /// included; values below 2 mean "scripted placement only").
    pub shift_steps: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            tie_window: None,
            max_branches: 10_000,
            max_depth: 64,
            shift_window_ns: 0,
            shift_steps: 1,
        }
    }
}

/// What one replayed branch reports back to the explorer.
#[derive(Clone, Debug)]
pub struct BranchOutcome {
    /// The run's trace digest (identifies the interleaving).
    pub trace_hash: u64,
    /// Choice points encountered inside the tie window, in order, each with
    /// the size of its tie run.
    pub choices: Vec<TieChoice>,
    /// Rendered invariant violations; empty means the branch ran clean.
    pub violations: Vec<String>,
}

/// One line of the canonical branch log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchRecord {
    /// Index into the explored placements.
    pub placement: usize,
    /// The decision vector this branch ran with.
    pub decisions: Vec<usize>,
    /// The branch's trace digest.
    pub trace_hash: u64,
    /// Choice points the branch encountered.
    pub choice_points: usize,
    /// Invariant violations the branch tripped.
    pub violations: usize,
}

/// A reproducible pointer at the first violating branch found.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// Placement index the violation occurred under.
    pub placement: usize,
    /// Decision vector that reproduces it (`TieOrder::new(decisions)`).
    pub decisions: Vec<usize>,
    /// The rendered violations.
    pub violations: Vec<String>,
}

/// The explorer's machine-readable verdict.
#[derive(Clone, Debug)]
pub struct McVerdict {
    /// Name of the explored script.
    pub script: String,
    /// Number of fault placements explored.
    pub placements: usize,
    /// Branches actually replayed.
    pub branches_explored: usize,
    /// True when a budget (branches or depth) cut the search short — the
    /// clean verdict is then a bounded search, not a proof.
    pub truncated: bool,
    /// Largest number of choice points any branch encountered.
    pub max_choice_points: usize,
    /// Widest tie group any branch encountered.
    pub max_group: usize,
    /// First violating branch, if any (exploration stops there).
    pub counter_example: Option<CounterExample>,
    /// The canonical branch log, in exploration order.
    pub log: Vec<BranchRecord>,
}

impl McVerdict {
    /// True when every reachable interleaving within the windows was
    /// explored and none violated an invariant — a proof over the bounded
    /// space, not a sample.
    pub fn proved(&self) -> bool {
        !self.truncated && self.counter_example.is_none()
    }

    /// One-word verdict for reports.
    pub fn status(&self) -> &'static str {
        if self.counter_example.is_some() {
            "VIOLATION"
        } else if self.truncated {
            "TRUNCATED"
        } else {
            "PROVED"
        }
    }

    /// Renders the machine-readable verdict block (stable line-oriented
    /// `key=value` format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "mc-verdict script={}", self.script);
        let _ = writeln!(out, "status={}", self.status());
        let _ = writeln!(out, "placements={}", self.placements);
        let _ = writeln!(out, "branches_explored={}", self.branches_explored);
        let _ = writeln!(out, "truncated={}", self.truncated);
        let _ = writeln!(out, "max_choice_points={}", self.max_choice_points);
        let _ = writeln!(out, "max_group={}", self.max_group);
        if let Some(ce) = &self.counter_example {
            let _ = writeln!(
                out,
                "counter_example placement={} decisions={}",
                ce.placement,
                render_decisions(&ce.decisions)
            );
            for v in &ce.violations {
                let _ = writeln!(out, "violation {v}");
            }
        }
        out
    }

    /// Renders the canonical branch log; two explorer runs over the same
    /// script must produce byte-identical output.
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# mc branch log script={}", self.script);
        for rec in &self.log {
            let _ = writeln!(
                out,
                "branch placement={} decisions={} choice_points={} violations={} hash={:016x}",
                rec.placement,
                render_decisions(&rec.decisions),
                rec.choice_points,
                rec.violations,
                rec.trace_hash
            );
        }
        out
    }
}

fn render_decisions(decisions: &[usize]) -> String {
    let mut s = String::from("[");
    for (i, d) in decisions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{d}");
    }
    s.push(']');
    s
}

/// The fault placements explored for `run` under `cfg`: the run as written
/// plus copies whose faults are shifted on a deterministic
/// integer-nanosecond grid over `±shift_window_ns`. Shifted fault times
/// clamp at zero; shifts past the run's duration simply never fire. The
/// run as written is always first: placement index 0 of every verdict.
pub fn placements(run: &Run, cfg: &McConfig) -> Vec<Run> {
    let mut out = vec![run.clone()];
    if cfg.shift_steps < 2 || cfg.shift_window_ns == 0 {
        return out;
    }
    let window = cfg.shift_window_ns as i128;
    let steps = cfg.shift_steps as i128;
    for i in 0..steps {
        // Uniform grid over [-window, +window], endpoints included.
        let offset = -window + (2 * window * i) / (steps - 1).max(1);
        if offset == 0 {
            continue; // the scripted placement is already index 0
        }
        let mut shifted = run.clone();
        for timed in &mut shifted.faults {
            let at = i128::from(timed.at.as_nanos()) + offset;
            #[expect(clippy::cast_possible_truncation, reason = "clamped to u64's range")]
            let clamped = at.clamp(0, i128::from(u64::MAX)) as u64;
            timed.at = SimTime::from_nanos(clamped);
        }
        out.push(shifted);
    }
    out
}

/// Explores every tie-order interleaving of the script `script_name`
/// reachable within `cfg`'s windows and budgets, over `n_placements` fault
/// placements.
///
/// `run` executes one branch: given `(placement index, decision vector)` it
/// must deterministically replay the simulation with that tie order and
/// report the outcome. Exploration starts from the all-FIFO branch of each
/// placement and extends decision vectors depth-first in canonical order
/// (earliest choice point first, lowest alternative first). The search stops at the
/// first violating branch, a exhausted branch budget, or exhaustion of the
/// bounded space — in that last case the verdict is a proof.
pub fn explore<F>(script_name: &str, n_placements: usize, cfg: &McConfig, mut run: F) -> McVerdict
where
    F: FnMut(usize, &[usize]) -> BranchOutcome,
{
    let mut verdict = McVerdict {
        script: script_name.to_string(),
        placements: n_placements,
        branches_explored: 0,
        truncated: false,
        max_choice_points: 0,
        max_group: 0,
        counter_example: None,
        log: Vec::new(),
    };
    'placements: for placement in 0..n_placements {
        // Depth-first over decision vectors; the stack is pushed in reverse
        // child order so the lowest (i, j) extension is explored first.
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(decisions) = stack.pop() {
            if verdict.branches_explored >= cfg.max_branches {
                verdict.truncated = true;
                break 'placements;
            }
            let outcome = run(placement, &decisions);
            verdict.branches_explored += 1;
            verdict.max_choice_points = verdict.max_choice_points.max(outcome.choices.len());
            verdict.max_group =
                verdict.max_group.max(outcome.choices.iter().map(|c| c.ties).max().unwrap_or(0));
            verdict.log.push(BranchRecord {
                placement,
                decisions: decisions.clone(),
                trace_hash: outcome.trace_hash,
                choice_points: outcome.choices.len(),
                violations: outcome.violations.len(),
            });
            let mut violations = outcome.violations;
            if outcome.choices.len() < decisions.len() {
                // The replay consumed fewer choice points than the vector
                // prescribes: the run diverged from the recording that
                // spawned this branch, which breaks the whole method.
                violations.push(format!(
                    "replay-divergence: {} decisions but only {} choice points",
                    decisions.len(),
                    outcome.choices.len()
                ));
            }
            if !violations.is_empty() {
                verdict.counter_example = Some(CounterExample { placement, decisions, violations });
                break 'placements;
            }
            if outcome.choices.len() > cfg.max_depth {
                // Alternatives beyond the depth bound exist but stay
                // unexplored: a clean result is no longer a proof.
                verdict.truncated = true;
            }
            // Children: untried alternatives at every choice point this
            // branch left at its default. Positions `0..decisions.len()`
            // were forced by ancestors and already enumerated there.
            let horizon = outcome.choices.len().min(cfg.max_depth);
            let mut children: Vec<Vec<usize>> = Vec::new();
            for (i, choice) in outcome.choices.iter().enumerate().take(horizon) {
                if i < decisions.len() {
                    continue;
                }
                for j in 1..choice.ties {
                    let mut child = Vec::with_capacity(i + 1);
                    child.extend_from_slice(&decisions);
                    child.resize(i, 0);
                    child.push(j);
                    children.push(child);
                }
            }
            while let Some(child) = children.pop() {
                stack.push(child);
            }
        }
    }
    verdict
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
/// full invariant checker on every branch. See [`explore`].
///
/// A tie window means every branch of a placement shares the run up to the
/// window: that prefix runs once, is snapshotted, and each branch restores
/// the snapshot and replays only its suffix. Without a window there is no
/// shared prefix and every branch replays from t = 0 ([`run_branch`]). The
/// verdict is bit-identical either way — same hashes, same choices, same
/// violations.
pub fn explore_scenario(run: &Run, cfg: &McConfig) -> (McVerdict, ResumeStats) {
    let placed = placements(run, cfg);
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
    let verdict = explore(&run.name, placed.len(), cfg, |placement, decisions| {
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
// Checkpointed branch resume (DESIGN §10.1)
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
    let ce = verdict.counter_example.as_ref()?;
    let placed = placements(run, cfg);
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
    use sim_core::{EventQueue, SimDuration, TraceHash};

    fn chain_break() -> Run {
        let text =
            "name mini-break\nseed 3\nduration 4\nat 1.5 link-down 2 3\nat 2.5 link-up 2 3\n";
        Run::parse(text).expect("fixture parses and names nodes of chain:4")
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
        let placed = placements(&run, &cfg);
        let full = explore(&run.name, placed.len(), &cfg, |p, decisions| {
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

        let placed = placements(&run, &cfg);
        let mut full_events = 0u64;
        let full = explore(&run.name, placed.len(), &cfg, |p, decisions| {
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
        let resumed = explore(&run.name, placed.len(), &cfg, |p, decisions| {
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

    /// A toy branch runner over tie groups of the given sizes, group `g`
    /// queued at `g` ns: the trace hash folds the order in which the
    /// members pop through the decision vector.
    fn toy_runner(groups: Vec<usize>) -> impl FnMut(usize, &[usize]) -> BranchOutcome {
        move |_placement, decisions| {
            let mut queue = EventQueue::new();
            for (g, &size) in groups.iter().enumerate() {
                for member in 0..size {
                    queue.push(SimTime::from_nanos(g as u64), (g as u64) << 32 | member as u64);
                }
            }
            let mut order = TieOrder::new(decisions.to_vec());
            let mut hash = TraceHash::new();
            while let Some((_, _, member)) = order.pop(&mut queue) {
                hash.write_u64(member);
            }
            BranchOutcome {
                trace_hash: hash.digest(),
                choices: order.into_choices(),
                violations: vec![],
            }
        }
    }

    #[test]
    fn a_tie_group_explores_every_permutation() {
        // One group of 3 events: 3! = 6 branches, all trace hashes distinct.
        let verdict = explore("toy", 1, &McConfig::default(), toy_runner(vec![3]));
        assert!(verdict.proved());
        assert_eq!(verdict.branches_explored, 6);
        let mut hashes: Vec<u64> = verdict.log.iter().map(|r| r.trace_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 6, "every permutation must produce a distinct order");
    }

    #[test]
    fn branch_budget_truncates_and_says_so() {
        let cfg = McConfig { max_branches: 3, ..McConfig::default() };
        let verdict = explore("toy", 1, &cfg, toy_runner(vec![3]));
        assert!(verdict.truncated);
        assert!(!verdict.proved());
        assert_eq!(verdict.branches_explored, 3);
    }

    #[test]
    fn depth_budget_truncates_and_says_so() {
        let cfg = McConfig { max_depth: 1, ..McConfig::default() };
        let verdict = explore("toy", 1, &cfg, toy_runner(vec![3]));
        // Only the first choice point branches: 1 base + 2 alternatives.
        assert_eq!(verdict.branches_explored, 3);
        assert!(verdict.truncated, "unexplored deeper alternatives are not a proof");
    }

    #[test]
    fn exploration_stops_at_the_first_violation() {
        let mut runner = toy_runner(vec![2]);
        let verdict = explore("toy", 1, &McConfig::default(), move |p, d| {
            let mut out = runner(p, d);
            if d == [1] {
                out.violations.push("planted".to_string());
            }
            out
        });
        assert_eq!(verdict.status(), "VIOLATION");
        let ce = verdict.counter_example.expect("violation must carry a counter-example");
        assert_eq!(ce.decisions, vec![1]);
        assert_eq!(ce.violations, vec!["planted".to_string()]);
    }

    #[test]
    fn verdict_and_log_render_deterministically() {
        let run = || explore("toy", 1, &McConfig::default(), toy_runner(vec![2, 3]));
        let (a, b) = (run(), run());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render_log(), b.render_log());
        assert!(a.render().contains("status=PROVED"));
        assert!(a.render_log().starts_with("# mc branch log script=toy"));
    }

    #[test]
    fn placements_shift_on_a_deterministic_grid() {
        let run =
            Run::parse("name shifty\nseed 1\nduration 10\nat 4 link-down 1 2\nat 6 link-up 1 2\n")
                .expect("fixture parses");
        let cfg = McConfig {
            shift_window_ns: SimDuration::from_millis(100).as_nanos(),
            shift_steps: 3,
            ..McConfig::default()
        };
        let shifted = placements(&run, &cfg);
        assert_eq!(shifted.len(), 3, "grid of 3 includes the scripted placement once");
        let firsts: Vec<u64> =
            shifted.iter().map(|r| r.faults.first().map_or(0, |e| e.at.as_nanos())).collect();
        let base = SimTime::from_secs_f64(4.0).as_nanos();
        assert_eq!(firsts[0], base, "placement 0 is the script as written");
        assert_eq!(firsts[1], base - 100_000_000);
        assert_eq!(firsts[2], base + 100_000_000);
        // Degenerate configs collapse to the scripted placement.
        let lone = placements(&run, &McConfig::default());
        assert_eq!(lone.len(), 1);
        // Early faults clamp at zero instead of going negative.
        let early =
            Run::parse("name early\nduration 5\nat 0.00000002 heal\n").expect("fixture parses");
        let wide = McConfig { shift_window_ns: 1_000_000, shift_steps: 3, ..McConfig::default() };
        let clamped = placements(&early, &wide);
        assert_eq!(clamped[1].faults.first().map_or(1, |e| e.at.as_nanos()), 0);
    }
}
