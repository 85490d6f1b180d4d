//! Bounded exhaustive interleaving exploration — the model checker.
//!
//! The simulator is bit-for-bit deterministic given a seed and a tie-order
//! decision vector (`sim_core::TieOrder`), so a *branch* of the exploration
//! is simply a full re-run with a different vector: no state snapshots, no
//! in-memory forking. The explorer below enumerates
//!
//! 1. permutations of same-instant `(time, seq)` ties at the scheduler,
//!    bounded to a virtual-time window and a decision-vector depth, and
//! 2. placements of a scenario script's faults, shifted on a deterministic
//!    grid inside a configurable window,
//!
//! running the caller's branch closure (which installs the full invariant
//! checker) on every branch. Every permutation is explored — no class of
//! scheduler event commutes with another (see `sim_core::TieKind`) — and
//! hard branch budgets keep the search bounded. Exploration order is
//! canonical — depth-first, earliest
//! choice point first, lowest alternative first — so two runs over the same
//! script produce byte-identical branch logs.
//!
//! The crate stays independent of the network stack: the explorer is
//! generic over a `run(placement, decisions) -> BranchOutcome` closure, and
//! the harness supplies the glue that builds a simulator per branch.
//!
//! Replay-based branching re-executes the shared prefix of every branch, so
//! cost grows with (branches × run length). The planned upgrade path
//! (ROADMAP item 5) is state snapshot/restore, which would turn each branch
//! into an O(suffix) resume without touching this module's search logic.

use std::fmt::Write as _;

use sim_core::{SimTime, TieChoice};

use crate::scenario::ScenarioScript;

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
    /// Choice points encountered inside the tie window, in order, with the
    /// FIFO-ordered fingerprints of each group.
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

/// The fault placements explored for `script` under `cfg`: the scripted
/// placement plus shifted copies on a deterministic integer-nanosecond grid
/// over `±shift_window_ns`. Shifted fault times clamp at zero; shifts past
/// the script's duration simply never fire. The scripted placement is
/// always first, so placement index 0 of every verdict is the script as
/// written.
pub fn placements(script: &ScenarioScript, cfg: &McConfig) -> Vec<ScenarioScript> {
    let mut out = vec![script.clone()];
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
        let mut shifted = script.clone();
        for timed in &mut shifted.events {
            let at = i128::from(timed.at.as_nanos()) + offset;
            #[expect(clippy::cast_possible_truncation, reason = "clamped to u64's range")]
            let clamped = at.clamp(0, i128::from(u64::MAX)) as u64;
            timed.at = SimTime::from_nanos(clamped);
        }
        out.push(shifted);
    }
    out
}

/// Explores every tie-order interleaving of `script` reachable within
/// `cfg`'s windows and budgets, over `n_placements` fault placements.
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
            verdict.max_group = verdict
                .max_group
                .max(outcome.choices.iter().map(|c| c.group.len()).max().unwrap_or(0));
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
                for j in 1..choice.group.len() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{SimDuration, TieClass, TieKind};

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn work(node: u32) -> TieClass {
        TieClass::node(node, TieKind::NodeWork)
    }

    /// A toy branch runner over a fixed list of tie groups: "dispatching"
    /// the k-th remaining member of a group just permutes indices, and the
    /// trace hash is the fold of the resulting total order.
    fn toy_runner(groups: Vec<Vec<TieClass>>) -> impl FnMut(usize, &[usize]) -> BranchOutcome {
        move |_placement, decisions| {
            let mut order = sim_core::TieOrder::new(decisions.to_vec());
            let mut hash = 0xcbf29ce484222325u64;
            let mut fold = |x: u64| {
                hash ^= x;
                hash = hash.wrapping_mul(0x100000001b3);
            };
            for (g, group) in groups.iter().enumerate() {
                let mut remaining: Vec<(usize, TieClass)> =
                    group.iter().copied().enumerate().collect();
                while !remaining.is_empty() {
                    let idx = if remaining.len() > 1 {
                        order.choose(t(g as u64), remaining.iter().map(|&(_, c)| c).collect())
                    } else {
                        0
                    };
                    let (original, _) = remaining.remove(idx);
                    fold((g as u64) << 32 | original as u64);
                }
            }
            BranchOutcome { trace_hash: hash, choices: order.into_choices(), violations: vec![] }
        }
    }

    #[test]
    fn a_tie_group_explores_every_permutation() {
        // One group of 3 events: 3! = 6 branches, all trace hashes distinct.
        let verdict = explore(
            "toy",
            1,
            &McConfig::default(),
            toy_runner(vec![vec![work(0), work(1), work(2)]]),
        );
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
        let verdict = explore("toy", 1, &cfg, toy_runner(vec![vec![work(0), work(1), work(2)]]));
        assert!(verdict.truncated);
        assert!(!verdict.proved());
        assert_eq!(verdict.branches_explored, 3);
    }

    #[test]
    fn depth_budget_truncates_and_says_so() {
        let cfg = McConfig { max_depth: 1, ..McConfig::default() };
        let verdict = explore("toy", 1, &cfg, toy_runner(vec![vec![work(0), work(1), work(2)]]));
        // Only the first choice point branches: 1 base + 2 alternatives.
        assert_eq!(verdict.branches_explored, 3);
        assert!(verdict.truncated, "unexplored deeper alternatives are not a proof");
    }

    #[test]
    fn exploration_stops_at_the_first_violation() {
        let mut runner = toy_runner(vec![vec![work(0), work(1)]]);
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
        let run = || {
            explore(
                "toy",
                1,
                &McConfig::default(),
                toy_runner(vec![vec![work(0), work(1)], vec![work(3), work(4), work(5)]]),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render_log(), b.render_log());
        assert!(a.render().contains("status=PROVED"));
        assert!(a.render_log().starts_with("# mc branch log script=toy"));
    }

    #[test]
    fn placements_shift_on_a_deterministic_grid() {
        let script = ScenarioScript::parse(
            "name shifty\nseed 1\nduration 10\nat 4 link-down 1 2\nat 6 link-up 1 2\n",
        )
        .expect("fixture parses");
        let cfg = McConfig {
            shift_window_ns: SimDuration::from_millis(100).as_nanos(),
            shift_steps: 3,
            ..McConfig::default()
        };
        let shifted = placements(&script, &cfg);
        assert_eq!(shifted.len(), 3, "grid of 3 includes the scripted placement once");
        let firsts: Vec<u64> =
            shifted.iter().map(|s| s.events.first().map_or(0, |e| e.at.as_nanos())).collect();
        let base = SimTime::from_secs_f64(4.0).as_nanos();
        assert_eq!(firsts[0], base, "placement 0 is the script as written");
        assert_eq!(firsts[1], base - 100_000_000);
        assert_eq!(firsts[2], base + 100_000_000);
        // Degenerate configs collapse to the scripted placement.
        let lone = placements(&script, &McConfig::default());
        assert_eq!(lone.len(), 1);
        // Early faults clamp at zero instead of going negative.
        let early = ScenarioScript::parse("name early\nduration 5\nat 0.00000002 heal\n")
            .expect("fixture parses");
        let wide = McConfig { shift_window_ns: 1_000_000, shift_steps: 3, ..McConfig::default() };
        let clamped = placements(&early, &wide);
        assert_eq!(clamped[1].events.first().map_or(1, |e| e.at.as_nanos()), 0);
    }
}
