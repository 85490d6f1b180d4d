//! One run, stated completely: the seam between a run file (or the flags
//! that spell one, or an experiment's cell) and a [`Simulator`].
//!
//! A run file states what a run is built on and the timed faults it
//! suffers. The text format is line-based; `#` starts a comment:
//!
//! ```text
//! # Two flows across a roaming grid, one link cut mid-transfer.
//! name grid-break
//! seed 7
//! duration 30
//! topology grid:3x3
//! mobility waypoint:1-5@2
//! flow 0 8 Muzha
//! flow 2 6 NewReno 1.5 8     # starts at 1.5 s, advertised window 8
//! at 5.0  link-down 1 2
//! at 12.0 link-up 1 2
//! at 15.0 ge 0.02 0.2 0.0 0.8
//! at 20.0 ge-off
//! ```
//!
//! [`Run::parse`] turns it into a [`Run`]: every absent header line takes
//! its default and every node id is checked against the topology. Every
//! `at` keyword maps 1:1 onto a [`FaultEvent`] variant. [`Run::new`] states
//! a run in code, as every Chapter-5 cell of [`crate::experiments`] does.
//! [`Run::build`] is the only place in this crate that constructs a
//! simulator: the paper's cells, the corpus tests, `harness
//! trace|topo|mc|checkpoint` and the model checker's branches all run what
//! it returns.

use std::fmt;
use std::num::NonZeroU32;
use std::str::SplitWhitespace;

use netstack::{
    FaultEvent, FlowSpec, MobilitySpec, RandomWaypoint, SimConfig, Simulator, TcpVariant,
    TimedFault, TopologySpec,
};
use phy::GilbertElliott;
use sim_core::{SimDuration, SimTime};
use tcp::TcpConfig;
use topo::Position;
use tracelog::{TraceFilter, TraceLog};
use wire::NodeId;

/// Seed of a run file that states none.
const DEFAULT_SEED: u64 = 1;
/// Duration of a run file that states none.
const DEFAULT_DURATION: SimDuration = SimDuration::from_secs(10);

/// A run, ready to build: name, configuration, placement, flows, horizon, faults.
#[derive(Clone, Debug)]
pub struct Run {
    /// The run's name (a `name` line), or empty.
    pub name: String,
    /// Table 5.1's defaults under the run's seed.
    pub cfg: SimConfig,
    /// Where the nodes start, placed from `(topology, cfg.seed)`.
    pub topology: TopologySpec,
    /// How every node moves once placed.
    pub mobility: MobilitySpec,
    /// The flows, in the order their ids are handed out.
    pub flows: Vec<FlowSpec>,
    /// How long the run lasts.
    pub duration: SimDuration,
    /// The timed faults, in file order; [`Run::build`] loads them.
    pub faults: Vec<TimedFault>,
    /// The placement made while the run was checked, kept for
    /// [`Run::build`].
    placed: Option<Placement>,
}

/// A placement and what it was placed from: a run whose topology, seed or
/// range changed since is placed afresh.
#[derive(Clone, Debug)]
struct Placement {
    from: (TopologySpec, u64, f64),
    positions: Vec<Position>,
}

impl Run {
    /// Parses a run file.
    ///
    /// Grammar (one directive per line, `#` to end of line is a comment):
    ///
    /// ```text
    /// name <word>
    /// seed <u64>
    /// duration <seconds>
    /// topology <spec>            (as `--topology`: chain:8, grid:3x3, ...)
    /// mobility <spec>            (as `--mobility`: static, waypoint:1-20@2)
    /// flow <src> <dst> <variant> [start-seconds] [window]
    /// at <seconds> link-down <a> <b>
    /// at <seconds> link-up <a> <b>
    /// at <seconds> kill <node>
    /// at <seconds> revive <node>
    /// at <seconds> pause <node>
    /// at <seconds> resume <node>
    /// at <seconds> ge <p_gb> <p_bg> <loss_good> <loss_bad>
    /// at <seconds> ge-off
    /// at <seconds> blackhole <node>
    /// at <seconds> blackhole-off <node>
    /// at <seconds> saturate <node> <capacity>
    /// at <seconds> saturate-off <node>
    /// at <seconds> partition <node>... | <node>...
    /// at <seconds> heal
    /// ```
    ///
    /// A header line given twice is last-wins, except `flow`, where every
    /// line is one more flow. An absent `seed` is 1, an absent `duration`
    /// 10 s, an absent `topology` `chain:4`, an absent `mobility` `static`,
    /// and a file without a `flow` line carries one NewReno flow from node 0
    /// to the last node: the convention every corpus script is written to.
    /// Faults keep file order; the simulator's FIFO-on-tie queue keeps it
    /// for same-time faults.
    ///
    /// # Errors
    ///
    /// A message naming the first line that does not parse; once the whole
    /// text has, the `topology` line if the seed cannot place it, then the
    /// line of a flow or fault whose node the topology does not have, or of a
    /// flow from a node to itself.
    pub fn parse(text: &str) -> Result<Run, String> {
        let mut name = String::new();
        let (mut seed, mut duration) = (DEFAULT_SEED, DEFAULT_DURATION);
        let (mut topology, mut mobility) = (TopologySpec::default(), MobilitySpec::default());
        let mut topology_line = 0;
        let (mut flows, mut faults) = (Vec::new(), Vec::new());
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let mut toks = line.split_whitespace();
            let Some(head) = toks.next() else { continue };
            let fail = |msg: String| format!("scenario line {lineno}: {msg}");
            match head {
                "name" => name = toks.next().ok_or_else(|| fail("missing name".into()))?.into(),
                "seed" => seed = parse_num::<u64>(&mut toks, "seed").map_err(fail)?,
                "duration" => {
                    let parsed = parse_tok(toks.next(), "duration", SimDuration::parse_secs);
                    duration = parsed.map_err(fail)?;
                    if duration == SimDuration::ZERO {
                        return Err(fail("duration must be positive".into()));
                    }
                }
                "topology" => {
                    let spec = parse_tok(toks.next(), "topology", TopologySpec::parse);
                    topology = spec.map_err(fail)?;
                    topology_line = lineno;
                }
                "mobility" => {
                    let spec = parse_tok(toks.next(), "mobility", MobilitySpec::parse);
                    mobility = spec.map_err(fail)?;
                }
                "flow" => flows.push((lineno, parse_flow(&mut toks).map_err(fail)?)),
                "at" => {
                    let at = parse_tok(toks.next(), "time", SimDuration::parse_secs);
                    let at = SimTime::ZERO + at.map_err(fail)?;
                    let fault = parse_fault(&mut toks).map_err(fail)?;
                    faults.push((lineno, TimedFault { at, fault }));
                }
                other => return Err(fail(format!("unknown directive `{other}`"))),
            }
            if let Some(extra) = toks.next() {
                return Err(format!("scenario line {lineno}: trailing token `{extra}`"));
            }
        }
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let positions = match topology.try_build(cfg.radio.tx_range_m, seed) {
            Ok(positions) => positions,
            Err(e) => return Err(format!("scenario line {topology_line}: {e}")),
        };
        let nodes = positions.len();
        let check = |line: usize, node: NodeId| {
            if node.index() >= nodes {
                return Err(format!(
                    "scenario line {line}: no node {node} in {topology} ({nodes} nodes)"
                ));
            }
            Ok(())
        };
        for &(line, flow) in &flows {
            check(line, flow.src)?;
            check(line, flow.dst)?;
            if flow.src == flow.dst {
                return Err(format!("scenario line {line}: a flow needs two nodes"));
            }
        }
        for (line, timed) in &faults {
            for node in timed.fault.nodes() {
                check(*line, node)?;
            }
        }
        let flows = if flows.is_empty() {
            if nodes < 2 {
                return Err(format!("a flow needs two nodes, {topology} has {nodes}"));
            }
            vec![FlowSpec::new(NodeId::new(0), NodeId::from_index(nodes - 1), TcpVariant::NewReno)]
        } else {
            flows.into_iter().map(|(_, flow)| flow).collect()
        };
        let faults = faults.into_iter().map(|(_, timed)| timed).collect();
        let run = Run { name, cfg, topology, mobility, flows, duration, faults, placed: None };
        Ok(run.placed_at(positions))
    }

    /// A run stated in code rather than text: `cfg` as given — seed, DRAI
    /// thresholds and all —, `flows` in id order, no faults.
    pub fn new(
        cfg: SimConfig,
        topology: TopologySpec,
        mobility: MobilitySpec,
        flows: Vec<FlowSpec>,
        duration: SimDuration,
    ) -> Run {
        let faults = Vec::new();
        Run { name: String::new(), cfg, topology, mobility, flows, duration, faults, placed: None }
    }

    /// This run, keeping `positions` — its topology placed under its seed
    /// and transmission range — for [`Run::build`].
    pub(crate) fn placed_at(mut self, positions: Vec<Position>) -> Run {
        self.placed = Some(Placement { from: self.placement_inputs(), positions });
        self
    }

    fn placement_inputs(&self) -> (TopologySpec, u64, f64) {
        (self.topology, self.cfg.seed, self.cfg.radio.tx_range_m)
    }

    /// The simulator of this run at t = 0: nodes placed from
    /// `(topology, cfg.seed)` — the placement [`Run::parse`] or
    /// [`crate::cli::parse_run`] made, if the run still states what it was
    /// made from —, every node on a random-waypoint plan over
    /// the topology's extent if `mobility` asks for one, flows registered,
    /// faults scheduled. Also the restore target for a snapshot of the same
    /// run — restoring overwrites the scheduled faults wholesale, and the
    /// positions and movements with what the snapshot holds.
    ///
    /// # Panics
    ///
    /// On what [`Run::parse`] refuses, or a part of `cfg` its constructor
    /// refuses ([`Simulator::new`]).
    pub fn build(&self) -> Simulator {
        let cfg = self.cfg;
        let positions = match &self.placed {
            Some(placed) if placed.from == self.placement_inputs() => placed.positions.clone(),
            _ => self.topology.build(cfg.radio.tx_range_m, cfg.seed),
        };
        let mut sim = Simulator::new(positions, cfg);
        if let MobilitySpec::Waypoint { min_speed_mps, max_speed_mps, pause } = self.mobility {
            let (width_m, height_m) = self.topology.extent();
            let plan = RandomWaypoint {
                min_pause: pause,
                max_pause: pause,
                ..RandomWaypoint::roaming(width_m, height_m, min_speed_mps, max_speed_mps)
            };
            for i in 0..sim.node_count() {
                sim.set_random_waypoint(NodeId::from_index(i), plan);
            }
        }
        for flow in &self.flows {
            sim.add_flow(*flow);
        }
        sim.load_faults(&self.faults);
        sim
    }

    /// The instant the run ends.
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }

    /// Runs to the end with a trace log behind `filter` installed and
    /// returns the log.
    #[expect(clippy::expect_used, reason = "the log is installed two lines up")]
    pub fn capture(&self, filter: TraceFilter) -> TraceLog {
        let mut sim = self.build();
        sim.install_trace_log(TraceLog::with_filter(filter));
        sim.run_until(self.end());
        sim.take_trace_log().expect("log installed above")
    }
}

/// The header lines that state this run; [`Run::parse`] of them gives the
/// same run back (faults aside).
impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.name.is_empty() {
            writeln!(f, "name {}", self.name)?;
        }
        writeln!(f, "seed {}", self.cfg.seed)?;
        writeln!(f, "duration {}", self.duration.as_secs_f64())?;
        writeln!(f, "topology {}", self.topology)?;
        writeln!(f, "mobility {}", self.mobility)?;
        for flow in &self.flows {
            let FlowSpec { src, dst, variant, start, .. } = *flow;
            write!(f, "flow {} {} {variant}", src.index(), dst.index())?;
            let window = flow.tcp.advertised_window;
            if window != TcpConfig::default().advertised_window {
                writeln!(f, " {} {window}", start.as_secs_f64())?;
            } else if start > SimTime::ZERO {
                writeln!(f, " {}", start.as_secs_f64())?;
            } else {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// The token `tok`, parsed by `parse`: a number's `FromStr`, a spec grammar.
fn parse_tok<T, E: fmt::Display>(
    tok: Option<&str>,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let tok = tok.ok_or_else(|| format!("missing {what}"))?;
    parse(tok).map_err(|e| format!("bad {what} `{tok}`: {e}"))
}

fn parse_num<T: std::str::FromStr>(toks: &mut SplitWhitespace<'_>, what: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    parse_tok(toks.next(), what, str::parse::<T>)
}

fn parse_flow(toks: &mut SplitWhitespace<'_>) -> Result<FlowSpec, String> {
    let (src, dst) = (parse_node(toks)?, parse_node(toks)?);
    let variant = parse_tok(toks.next(), "variant", TcpVariant::parse)?;
    let start = toks.next().map(|t| parse_tok(Some(t), "start", SimDuration::parse_secs));
    // A zero window is refused here: the transport asserts it away.
    let window = toks.next().map(|t| parse_tok(Some(t), "window", str::parse::<NonZeroU32>));
    let start = SimTime::ZERO + start.transpose()?.unwrap_or(SimDuration::ZERO);
    let spec = FlowSpec::new(src, dst, variant).starting_at(start);
    Ok(match window.transpose()? {
        Some(window) => spec.with_window(window.get()),
        None => spec,
    })
}

fn parse_node(toks: &mut SplitWhitespace<'_>) -> Result<NodeId, String> {
    let raw = parse_num::<u16>(toks, "node id")?;
    if raw == u16::MAX {
        return Err(format!("node id {raw} is reserved for broadcast"));
    }
    Ok(NodeId::new(raw))
}

fn parse_fault(toks: &mut SplitWhitespace<'_>) -> Result<FaultEvent, String> {
    let Some(kind) = toks.next() else {
        return Err("missing fault keyword after time".into());
    };
    let fault = match kind {
        "link-down" => FaultEvent::LinkDown { a: parse_node(toks)?, b: parse_node(toks)? },
        "link-up" => FaultEvent::LinkUp { a: parse_node(toks)?, b: parse_node(toks)? },
        "kill" => FaultEvent::Kill { node: parse_node(toks)? },
        "revive" => FaultEvent::Revive { node: parse_node(toks)? },
        "pause" => FaultEvent::Pause { node: parse_node(toks)? },
        "resume" => FaultEvent::Resume { node: parse_node(toks)? },
        "ge" => {
            let p_gb = parse_num::<f64>(toks, "p_gb")?;
            let p_bg = parse_num::<f64>(toks, "p_bg")?;
            let loss_good = parse_num::<f64>(toks, "loss_good")?;
            let loss_bad = parse_num::<f64>(toks, "loss_bad")?;
            FaultEvent::GeStart(GilbertElliott::new(p_gb, p_bg, loss_good, loss_bad)?)
        }
        "ge-off" => FaultEvent::GeStop,
        "blackhole" => FaultEvent::Blackhole { node: parse_node(toks)? },
        "blackhole-off" => FaultEvent::BlackholeOff { node: parse_node(toks)? },
        "saturate" => FaultEvent::Saturate {
            node: parse_node(toks)?,
            capacity: parse_num::<usize>(toks, "capacity")?,
        },
        "saturate-off" => FaultEvent::SaturateOff { node: parse_node(toks)? },
        "partition" => {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            let mut after_bar = false;
            for tok in toks.by_ref() {
                if tok == "|" {
                    if after_bar {
                        return Err("partition has more than one `|`".into());
                    }
                    after_bar = true;
                    continue;
                }
                let raw: u16 = tok.parse().map_err(|e| format!("bad node id `{tok}`: {e}"))?;
                if raw == u16::MAX {
                    return Err(format!("node id {raw} is reserved for broadcast"));
                }
                let side = if after_bar { &mut right } else { &mut left };
                side.push(NodeId::new(raw));
            }
            if !after_bar || left.is_empty() || right.is_empty() {
                return Err("partition needs nodes on both sides of `|`".into());
            }
            FaultEvent::Partition { left, right }
        }
        "heal" => FaultEvent::Heal,
        other => return Err(format!("unknown fault `{other}`")),
    };
    Ok(fault)
}

/// The pair of nodes with the greatest separation (first such pair in
/// row-major scan order — deterministic). A natural flow for arbitrary
/// generated topologies: the longest line the routing layer must sustain.
///
/// Exact without testing all pairs. Let `c` be the centre of the
/// placement's bounding box, `R` the largest distance of a node from it,
/// and `D` the squared separation of the node at `R` from the node
/// farthest from it: the farthest pair is at least `D` apart. Node `i` is
/// at most `|p_i − c| + R` from any node, so a node whose `(|p_i − c| +
/// R)²` falls short of `D` (by a margin far above rounding) is in no
/// farthest pair. The pairs of the nodes left are scanned in the row-major
/// order, so ties fall as in a scan of all pairs. On a generated placement
/// that leaves the nodes near the box's corners; positions whose squared
/// distances are not normal numbers (NaN, infinite, all coincident) leave
/// every node in.
///
/// # Panics
///
/// Panics if `positions` holds fewer than two nodes.
pub fn farthest_pair(positions: &[Position]) -> (NodeId, NodeId) {
    assert!(positions.len() >= 2, "a flow needs two nodes");
    let left = farthest_pair_candidates(positions);
    let (mut best, mut best_sq) = ((NodeId::new(0), NodeId::new(1)), -1.0);
    for (k, &i) in left.iter().enumerate() {
        for &j in &left[k + 1..] {
            let d = positions[i].distance_sq_to(positions[j]);
            if d > best_sq {
                best_sq = d;
                best = (NodeId::from_index(i), NodeId::from_index(j));
            }
        }
    }
    best
}

/// The nodes, ascending, that [`farthest_pair`]'s bound cannot rule out of
/// a farthest pair.
fn farthest_pair_candidates(positions: &[Position]) -> Vec<usize> {
    let (lo, hi) = positions.iter().fold(
        (Position::new(f64::MAX, f64::MAX), Position::new(f64::MIN, f64::MIN)),
        |(lo, hi), p| {
            (
                Position::new(lo.x.min(p.x), lo.y.min(p.y)),
                Position::new(hi.x.max(p.x), hi.y.max(p.y)),
            )
        },
    );
    let centre = Position::new(lo.x / 2.0 + hi.x / 2.0, lo.y / 2.0 + hi.y / 2.0);
    let radii: Vec<f64> = positions.iter().map(|p| p.distance_to(centre)).collect();
    let (mut far, mut reach) = (0, f64::NEG_INFINITY);
    for (i, &r) in radii.iter().enumerate() {
        if r > reach {
            (far, reach) = (i, r);
        }
    }
    let found = positions.iter().map(|p| p.distance_sq_to(positions[far])).fold(0.0, f64::max);
    // Below the square root of the least normal number the squares of the
    // radii may underflow, which no relative margin covers.
    let prunes = found.is_finite() && found >= f64::MIN_POSITIVE.sqrt();
    let short = |r: f64| prunes && (r + reach) * (r + reach) * (1.0 + 1e-9) < found;
    (0..positions.len()).filter(|&i| !short(radii[i])).collect()
}

/// The endpoints `flows` flows get on `positions` when only their number is
/// given: the first between the most-separated pair, the rest between
/// deterministically spread endpoints half the node index space apart — two
/// distinct nodes of the placement, as it has at least two.
///
/// # Panics
///
/// On a placement of fewer than two nodes, as [`farthest_pair`].
pub fn spread_endpoints(positions: &[Position], flows: usize) -> Vec<(NodeId, NodeId)> {
    let n = positions.len();
    let mut ends = vec![farthest_pair(positions)];
    for k in 1..flows {
        let a = (k * n / flows) % n;
        ends.push((NodeId::from_index(a), NodeId::from_index((a + n / 2) % n)));
    }
    ends
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::MobilitySpec;
    use proptest::prelude::*;

    #[test]
    fn parses_full_grammar() {
        let text = "\
# comment
name storm
seed 99
duration 25
at 1.0 link-down 0 1
at 2.0 link-up 0 1   # inline comment
at 3.0 kill 2
at 4.0 revive 2
at 5.0 pause 3
at 6.0 resume 3
at 7.0 ge 0.02 0.2 0.0 0.8
at 8.0 ge-off
at 9.0 blackhole 1
at 10.0 blackhole-off 1
at 11.0 saturate 1 4
at 12.0 saturate-off 1
at 13.0 partition 0 1 | 2 3
at 14.0 heal
";
        let s = Run::parse(text).unwrap();
        assert_eq!(s.name, "storm");
        assert_eq!(s.cfg.seed, 99);
        assert_eq!(s.duration, SimDuration::from_secs_f64(25.0));
        assert_eq!(s.faults.len(), 14);
        assert_eq!(
            s.faults[0],
            TimedFault {
                at: SimTime::from_secs_f64(1.0),
                fault: FaultEvent::LinkDown { a: NodeId::new(0), b: NodeId::new(1) },
            }
        );
        assert!(matches!(s.faults[6].fault, FaultEvent::GeStart(_)));
        assert_eq!(
            s.faults[12].fault,
            FaultEvent::Partition {
                left: vec![NodeId::new(0), NodeId::new(1)],
                right: vec![NodeId::new(2), NodeId::new(3)],
            }
        );
        assert_eq!(s.faults[13].fault, FaultEvent::Heal);
    }

    #[test]
    fn header_lines_state_topology_mobility_and_flows() {
        let text = "\
name grid-break
topology grid:3x3      # rows x cols
mobility waypoint:1-5@2
flow 0 8 muzha
at 5 link-down 1 2
flow 2 6 NewReno 1.5 8
flow 1 7 SACK 0.25
";
        let s = Run::parse(text).unwrap();
        assert_eq!(s.topology, TopologySpec::Grid { rows: 3, cols: 3 });
        assert_eq!(Ok(s.mobility), MobilitySpec::parse("waypoint:1-5@2"));
        let flows = |run: &Run| -> Vec<_> {
            let flow = |f: &FlowSpec| (f.src, f.dst, f.variant, f.start, f.tcp.advertised_window);
            run.flows.iter().map(flow).collect()
        };
        let (default, node, secs) =
            (TcpConfig::default().advertised_window, NodeId::new, SimTime::from_secs_f64);
        assert_eq!(
            flows(&s),
            [
                (node(0), node(8), TcpVariant::Muzha, secs(0.0), default),
                (node(2), node(6), TcpVariant::NewReno, secs(1.5), 8),
                (node(1), node(7), TcpVariant::Sack, secs(0.25), default),
            ]
        );
        // The flow lines render as the text that parses back to them.
        assert_eq!(flows(&Run::parse(&s.to_string()).unwrap()), flows(&s));
    }

    /// Pinned: a single-valued header line given twice is last-wins, like
    /// `name`, `seed` and `duration` before it; `flow` lines add up.
    #[test]
    fn a_repeated_header_line_is_last_wins() {
        let s = Run::parse(
            "seed 1\nseed 2\ntopology chain:8\ntopology grid:2x2\n\
             mobility waypoint\nmobility static\n",
        )
        .unwrap();
        assert_eq!(s.cfg.seed, 2);
        assert_eq!(s.topology, TopologySpec::Grid { rows: 2, cols: 2 });
        assert_eq!(s.mobility, MobilitySpec::Static);
    }

    /// Every time in a run file goes through `SimDuration::parse_secs`: these
    /// used to panic inside `parse` (`time.rs`, "time out of range").
    #[test]
    fn times_beyond_simtime_are_line_errors_not_panics() {
        for (bad, line) in [
            ("duration 1e30", 1),
            ("seed 3\nduration 1.9e10", 2),
            ("at 1e30 kill 1", 1),
            ("\n\nat 99999999999999 heal", 3),
            ("flow 0 1 muzha 1e30", 1),
            ("mobility waypoint:1-2@1e30", 1),
        ] {
            let err = Run::parse(bad).expect_err(bad);
            assert!(err.starts_with(&format!("scenario line {line}: ")), "{bad:?}: {err}");
        }
        let edge = Run::parse("duration 1.8e10\nat 1.8e10 heal\n").unwrap();
        assert_eq!(edge.duration, SimDuration::from_secs_f64(1.8e10));
    }

    #[test]
    fn script_order_is_preserved_for_ties() {
        let s = Run::parse("at 5 link-down 0 1\nat 5 link-down 1 2\n").unwrap();
        assert_eq!(
            s.faults[0].fault,
            FaultEvent::LinkDown { a: NodeId::new(0), b: NodeId::new(1) }
        );
        assert_eq!(
            s.faults[1].fault,
            FaultEvent::LinkDown { a: NodeId::new(1), b: NodeId::new(2) }
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "at",
            "at x kill 1",
            "at 1.0 frobnicate 2",
            "at 1.0 kill",
            "at 1.0 kill 65535",
            "at 1.0 ge 2.0 0.5 0 1",
            "at 1.0 ge 0.1 0.0 0 1", // absorbing bad state
            "at 1.0 partition 0 1",
            "at 1.0 partition | 1",
            "at 1.0 partition 0 | 1 | 2",
            "at -1 kill 1",
            "duration 0",
            "topology",
            "topology moebius:3",
            "topology grid:300x300",
            "mobility brownian",
            "flow 0",
            "flow 0 1",
            "flow 0 1 bogus",
            "flow 0 65535 muzha",
            "flow 0 1 muzha soon",
            "flow 0 1 muzha 1 -8",
            "flow 0 1 muzha 1 0",
            "flow 0 1 muzha 1 8 extra",
            "bogus 3",
            "at 1.0 kill 1 extra",
        ] {
            let got = Run::parse(bad);
            assert!(got.is_err(), "should reject {bad:?}, got {got:?}");
        }
        // A zero window is the transport's assert, so it is a line error first.
        let zero = Run::parse("seed 4\nflow 0 4 muzha 0 0\n").unwrap_err();
        assert!(zero.starts_with("scenario line 2: bad window `0`: "), "{zero}");
    }

    #[test]
    fn empty_script_is_valid() {
        let s = Run::parse("# nothing\n\n").unwrap();
        assert!(s.faults.is_empty());
        assert_eq!(s.cfg.seed, DEFAULT_SEED);
    }

    #[test]
    fn absent_lines_mean_the_corpus_convention() {
        let run = Run::parse("").expect("the empty script is a run");
        assert_eq!(run.cfg.seed, 1);
        assert_eq!(run.duration, SimDuration::from_secs(10));
        assert_eq!(run.topology, TopologySpec::Chain { hops: 4 });
        assert_eq!(run.mobility, MobilitySpec::Static);
        let default = FlowSpec::new(NodeId::new(0), NodeId::new(4), TcpVariant::NewReno);
        assert_eq!(format!("{:?}", run.flows), format!("{:?}", [default]));
        // "End to end" on another topology is node 0 to the last node.
        let grid = Run::parse("topology grid:3x3\n").expect("a run");
        assert_eq!((grid.flows[0].src, grid.flows[0].dst), (NodeId::new(0), NodeId::new(8)));
        assert_eq!(grid.flows[0].variant, TcpVariant::NewReno);
        assert!(Run::parse("topology grid:1x1\n").unwrap_err().contains("a flow needs two nodes"));
    }

    #[test]
    fn a_mobility_line_needs_no_topology_line() {
        let run = Run::parse("mobility waypoint\n").expect("a roaming chain is a run");
        assert_eq!(run.topology, TopologySpec::Chain { hops: 4 });
        assert_eq!(run.mobility, MobilitySpec::DEFAULT_WAYPOINT);
        let mut sim = run.build();
        sim.run_until(SimTime::from_secs_f64(0.5));
        assert!(sim.perf().position_updates > 0, "nobody moved");
    }

    #[test]
    fn build_places_the_topology_and_puts_every_node_on_the_waypoint_plan() {
        let run = Run::parse("seed 9\ntopology grid:3x3\nmobility waypoint:5-10\n").expect("a run");
        let mut sim = run.build();
        assert_eq!(sim.node_count(), 9);
        let node = |i| NodeId::from_index(i);
        let placed = TopologySpec::Grid { rows: 3, cols: 3 }.build(250.0, 9);
        assert!((0..9).all(|i| sim.position(node(i)) == placed[i]), "placed as the spec says");
        sim.run_until(SimTime::from_secs_f64(5.0));
        assert!((0..9).all(|i| sim.position(node(i)) != placed[i]), "every node roams");
        // Deterministic in the run.
        let mut twin = run.build();
        twin.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(sim.trace_hash(), twin.trace_hash());
    }

    /// The placement `parse` checks is the one `build` uses; a run whose
    /// seed or topology changed since is placed again.
    #[test]
    fn a_run_is_placed_once_and_again_when_it_changes() {
        let positions = |sim: &Simulator| -> Vec<Position> {
            (0..sim.node_count()).map(|i| sim.position(NodeId::from_index(i))).collect()
        };
        let mut run = Run::parse("seed 5\ntopology random-disc:30\n").expect("a run");
        let placed = run.placed.as_ref().map(|p| (p.from, p.positions.clone()));
        let want = run.topology.build(250.0, 5);
        assert_eq!(placed, Some(((run.topology, 5, 250.0), want.clone())));
        assert_eq!(positions(&run.build()), want);
        run.cfg.seed = 6;
        assert_eq!(positions(&run.build()), run.topology.build(250.0, 6));
        run.topology = TopologySpec::Grid { rows: 5, cols: 6 };
        assert_eq!(positions(&run.build()), run.topology.build(250.0, 6));
        let flagged = crate::cli::parse_run(
            &["--topology".into(), "random-disc:30".into(), "--seed".into(), "5".into()],
            Some((TopologySpec::default(), MobilitySpec::Static, SimDuration::from_secs(1))),
        )
        .expect("a run");
        assert_eq!(flagged.placed.map(|p| p.positions), Some(want));
    }

    #[test]
    fn a_flow_line_carries_its_start_and_window() {
        let run = Run::parse("flow 1 3 muzha 1.5 8\nflow 3 1 vegas\n").expect("a run");
        let [a, b] = run.flows[..] else { panic!("two flow lines, {} flows", run.flows.len()) };
        assert_eq!((a.src, a.dst, a.variant), (NodeId::new(1), NodeId::new(3), TcpVariant::Muzha));
        assert_eq!((a.start, a.tcp.advertised_window), (SimTime::from_secs_f64(1.5), 8));
        assert_eq!(
            (b.start, b.tcp.advertised_window),
            (SimTime::ZERO, TcpConfig::default().advertised_window)
        );
    }

    /// Each of these used to be an index panic in `netstack::fault` (or an
    /// `add_flow` assert) one virtual second into the run.
    #[test]
    fn a_node_the_topology_lacks_is_refused_with_its_line() {
        for (text, line, needle) in [
            ("seed 7\nat 1 kill 9\n", 2, "no node n9 in chain:4 (5 nodes)"),
            ("at 1 kill 5\n", 1, "no node n5"),
            ("at 0 heal\nat 1 link-down 2 9\n", 2, "no node n9"),
            ("at 1 partition 0 1 | 2 7\n", 1, "no node n7"),
            ("flow 0 4 muzha\n\nflow 0 9 muzha\n", 3, "no node n9"),
            ("flow 9 0 muzha\n", 1, "no node n9"),
            ("at 1 heal\nflow 2 2 newreno\n", 2, "a flow needs two nodes"),
            ("topology grid:2x2\nat 1 pause 4\n", 2, "no node n4 in grid:2x2 (4 nodes)"),
        ] {
            let err = Run::parse(text).expect_err(text);
            assert_eq!(err.split(": ").next(), Some(format!("scenario line {line}").as_str()));
            assert!(err.contains(needle), "{text:?}: {err}");
        }
        // The last node is a node, and a larger topology has the one chain:4 lacks.
        for text in ["at 1 kill 4\nflow 4 0 muzha\n", "topology chain:9\nat 1 kill 9\n"] {
            assert!(Run::parse(text).is_ok(), "{text:?}");
        }
    }

    /// A generated topology of at least two nodes, by family.
    fn topology(family: u8, a: u16, b: u16) -> TopologySpec {
        match family % 5 {
            0 => TopologySpec::Chain { hops: a },
            4 => TopologySpec::Cross { hops: 2 * a },
            1 => TopologySpec::Grid { rows: a.min(9), cols: b.min(9) + 1 },
            2 => TopologySpec::RandomDisc {
                count: a + 1,
                width_m: 300.0 + f64::from(b),
                height_m: 900.0 + f64::from(a),
            },
            _ => TopologySpec::CityBlocks { blocks_x: a.min(6), blocks_y: b.min(6), extra: b },
        }
    }

    proptest! {
        /// The header a run renders as is the run: parsed and built into a
        /// `Run` again it has the same name, configuration, horizon and flows.
        #[test]
        fn a_run_renders_as_the_header_that_parses_back_to_it(
            (seed, millis) in (any::<u64>(), 1u64..100_000),
            (family, a, b) in (any::<u8>(), 1u16..40, 1u16..40),
            (lo, spread, pause_ms) in (0u32..20, 0u32..20, 0u64..5_000),
            flows in proptest::collection::vec(
                (any::<u16>(), 1u16..500, 0usize..9, 0u64..20_000, 0u32..64),
                1..5,
            ),
        ) {
            let spec = topology(family, a, b);
            let n = u16::try_from(spec.node_count()).unwrap();
            let mobility = match lo {
                0 => MobilitySpec::Static,
                _ => MobilitySpec::Waypoint {
                    min_speed_mps: f64::from(lo) / 2.0,
                    max_speed_mps: f64::from(lo + spread) / 2.0,
                    pause: SimDuration::from_millis(pause_ms),
                },
            };
            let flows = flows.into_iter().map(|(src, hop, variant, start_ms, window)| {
                let (src, dst) = (src % n, (src % n + 1 + hop % (n - 1)) % n);
                let start = SimTime::ZERO + SimDuration::from_millis(start_ms);
                let flow = FlowSpec::new(NodeId::new(src), NodeId::new(dst), TcpVariant::ALL[variant]);
                let flow = flow.starting_at(start);
                if window > 0 { flow.with_window(window) } else { flow }
            });
            let run = Run {
                name: if seed % 2 == 0 { "generated".into() } else { String::new() },
                cfg: SimConfig { seed, ..SimConfig::default() },
                topology: spec,
                mobility,
                flows: flows.collect(),
                duration: SimDuration::from_millis(millis),
                faults: Vec::new(),
                placed: None,
            };
            let text = run.to_string();
            let again = Run::parse(&text).unwrap_or_else(|e| panic!("{e} in\n{text}"));
            let shape = |r: &Run| {
                format!("{:?}", (&r.name, r.cfg, r.topology, r.mobility, &r.flows, r.duration))
            };
            prop_assert_eq!(shape(&again), shape(&run), "{}", text);
        }
    }

    /// The all-pairs scan [`farthest_pair`] replaced: the reference it is
    /// held to.
    fn farthest_pair_all_pairs(positions: &[Position]) -> (NodeId, NodeId) {
        let (mut best, mut best_sq) = ((NodeId::new(0), NodeId::new(1)), -1.0);
        for (i, pi) in positions.iter().enumerate() {
            for (j, pj) in positions.iter().enumerate().skip(i + 1) {
                let d = pi.distance_sq_to(*pj);
                if d > best_sq {
                    best_sq = d;
                    best = (NodeId::from_index(i), NodeId::from_index(j));
                }
            }
        }
        best
    }

    proptest! {
        /// The pruned scan picks the all-pairs scan's pair: on random discs,
        /// on `grid` and `city-blocks` lattices (whose corners tie, two or
        /// four ways, so the pick is the first in row-major order), on both
        /// with nodes copied onto others (coincident farthest ends), and on
        /// every two-node prefix.
        #[test]
        fn the_pruned_scan_picks_the_all_pairs_pair(
            (count, width, height, seed) in (2u16..300, 1u32..5000, 1u32..5000, any::<u64>()),
            (rows, cols, extra) in (1u16..12, 1u16..12, 0u16..40),
            copies in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..12),
        ) {
            let (width_m, height_m) = (f64::from(width), f64::from(height));
            let cases = [
                TopologySpec::RandomDisc { count, width_m, height_m },
                TopologySpec::Grid { rows, cols: cols + 1 },
                TopologySpec::CityBlocks { blocks_x: rows, blocks_y: cols, extra },
            ];
            for spec in cases {
                // Placed without the connectivity retry, which a sparse
                // disc would not pass.
                let mut positions = match spec {
                    TopologySpec::RandomDisc { .. } => {
                        let mut rng = sim_core::SimRng::new(seed);
                        (0..count)
                            .map(|_| Position::new(rng.unit_f64() * width_m, rng.unit_f64() * height_m))
                            .collect()
                    }
                    _ => spec.build(250.0, seed),
                };
                let n = positions.len();
                prop_assert_eq!(farthest_pair(&positions), farthest_pair_all_pairs(&positions));
                prop_assert_eq!(farthest_pair(&positions[..2]), farthest_pair_all_pairs(&positions[..2]));
                for &(to, from) in &copies {
                    positions[to % n] = positions[from % n];
                }
                prop_assert_eq!(farthest_pair(&positions), farthest_pair_all_pairs(&positions), "{}", spec);
            }
        }
    }

    #[test]
    fn the_pruned_scan_keeps_every_node_where_distances_are_not_normal() {
        let p = Position::new;
        let cases: [&[Position]; 6] = [
            &[p(5.0, 5.0); 4],
            &[p(0.0, 0.0), p(f64::NAN, 1.0), p(300.0, 0.0), p(0.0, 300.0)],
            &[p(f64::NAN, 0.0), p(1.0, 0.0), p(2.0, 0.0)],
            &[p(0.0, 0.0), p(f64::INFINITY, 0.0), p(10.0, 0.0), p(f64::INFINITY, 1.0)],
            &[p(0.0, 0.0), p(1e-160, 0.0), p(0.0, 2e-160), p(1e-161, 1e-161)],
            &[p(-1e300, 0.0), p(1e300, 0.0), p(0.0, 1e300), p(1e300, 1e300)],
        ];
        for positions in cases {
            assert_eq!(
                farthest_pair(positions),
                farthest_pair_all_pairs(positions),
                "{positions:?}"
            );
        }
    }

    /// What makes the scan cheap: on each generated family only nodes near
    /// the corners are left to pair, and the ties come out row-major.
    #[test]
    fn the_bound_leaves_the_corners() {
        let left = |spec: &str| {
            let positions = TopologySpec::parse(spec).unwrap().build(250.0, 1);
            (farthest_pair_candidates(&positions), farthest_pair(&positions))
        };
        let ends = |a, b| (NodeId::new(a), NodeId::new(b));
        assert_eq!(left("chain:8"), (vec![0, 8], ends(0, 8)));
        assert_eq!(left("grid:3x3"), (vec![0, 2, 6, 8], ends(0, 8)));
        assert_eq!(left("cross:4").0, [0, 4, 5, 8]);
        assert_eq!(left("grid:20x20"), (vec![0, 19, 380, 399], ends(0, 399)));
        for spec in ["random-disc:2000", "city-blocks:19x19@400"] {
            let (candidates, pair) = left(spec);
            assert!(candidates.len() <= 16, "{spec}: {} nodes left", candidates.len());
            assert!(candidates.contains(&pair.0.index()) && candidates.contains(&pair.1.index()));
        }
    }

    #[test]
    fn spread_endpoints_start_at_the_farthest_pair_and_never_pair_a_node_with_itself() {
        let chain = TopologySpec::Chain { hops: 8 };
        let placed = |spec: TopologySpec| spec.build(250.0, 1);
        assert_eq!(spread_endpoints(&placed(chain), 1), [(NodeId::new(0), NodeId::new(8))]);
        for family in 0..5 {
            for (a, b) in [(1, 1), (2, 3), (7, 5)] {
                let spec = topology(family, a, b);
                for flows in [1, 2, 3, 9, 17] {
                    let ends = spread_endpoints(&placed(spec), flows);
                    assert_eq!(ends.len(), flows);
                    let n = spec.node_count();
                    let named =
                        |(a, b): &(NodeId, NodeId)| a != b && a.index() < n && b.index() < n;
                    assert!(ends.iter().all(named), "{spec}, {flows} flows: {ends:?}");
                }
            }
        }
    }
}
