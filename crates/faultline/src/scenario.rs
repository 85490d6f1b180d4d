//! A run file: what a run is built on, and the timed faults it suffers.
//!
//! A scenario is optional run metadata — name, seed, duration, topology,
//! mobility, flows — plus a list of `(time, fault)` pairs. The text format
//! is line-based; `#` starts a comment:
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
//! Every header line is optional, and an absent one means the corpus
//! convention: seed 1, 10 s, `topology chain:4`, `mobility static`, one
//! NewReno flow from node 0 to the last node. Every event keyword maps 1:1
//! onto a [`FaultEvent`] variant; see [`ScenarioScript::parse`] for the full
//! grammar.

use std::fmt;

use phy::GilbertElliott;
use sim_core::{SimDuration, SimTime};
use tcp::TcpVariant;
use topo::{MobilitySpec, TopologySpec};
use wire::NodeId;

/// One scripted fault.
///
/// Faults are applied by the simulator at their scheduled virtual time, on
/// the ordinary event queue, so they cannot perturb determinism.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Force the bidirectional `a`—`b` link down, independent of geometry.
    LinkDown {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Release a previously scripted link block.
    LinkUp {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Crash a node: radio off, interface queue and MAC state flushed,
    /// routing tables cleared. Packets in custody are accounted as fault
    /// drops, not silently lost.
    Kill {
        /// The node to crash.
        node: NodeId,
    },
    /// Power a killed node back up (fresh routes, same identity — packet
    /// uid streams continue so deduplication keeps working).
    Revive {
        /// The node to revive.
        node: NodeId,
    },
    /// Freeze a node: it stops processing timers and queued work but keeps
    /// all state; the radio stays off while paused.
    Pause {
        /// The node to freeze.
        node: NodeId,
    },
    /// Unfreeze a paused node, replaying the work deferred while frozen.
    Resume {
        /// The node to unfreeze.
        node: NodeId,
    },
    /// Begin a Gilbert–Elliott bursty-loss episode on the whole channel
    /// (replaces the flat Bernoulli `per_frame_loss` while active).
    GeStart(GilbertElliott),
    /// End the bursty-loss episode, returning to the configured flat loss.
    GeStop,
    /// Queue blackhole: the node's interface queue silently discards every
    /// enqueue attempt (a classic misbehaving-router fault).
    Blackhole {
        /// The misbehaving node.
        node: NodeId,
    },
    /// End a blackhole window.
    BlackholeOff {
        /// The node to restore.
        node: NodeId,
    },
    /// Clamp the node's interface queue to `capacity` packets (saturation
    /// window: a much smaller buffer than configured).
    Saturate {
        /// The node whose queue shrinks.
        node: NodeId,
        /// Temporary queue capacity in packets (0 behaves as blackhole).
        capacity: usize,
    },
    /// End a saturation window, restoring the configured capacity.
    SaturateOff {
        /// The node to restore.
        node: NodeId,
    },
    /// Partition the network: every link between a `left` node and a
    /// `right` node is forced down.
    Partition {
        /// Nodes on one side of the cut.
        left: Vec<NodeId>,
        /// Nodes on the other side.
        right: Vec<NodeId>,
    },
    /// Heal: release *all* currently scripted link blocks (from
    /// `link-down` and `partition` alike).
    Heal,
}

sim_core::snap_enum! {
    FaultEvent, "fault event tag" {
        0 => LinkDown { a, b },
        1 => LinkUp { a, b },
        2 => Kill { node },
        3 => Revive { node },
        4 => Pause { node },
        5 => Resume { node },
        6 => GeStart(ge),
        7 => GeStop,
        8 => Blackhole { node },
        9 => BlackholeOff { node },
        10 => Saturate { node, capacity },
        11 => SaturateOff { node },
        12 => Partition { left, right },
        13 => Heal,
    }
}

impl FaultEvent {
    /// Every node the fault names, so a run can check them against its
    /// topology before the simulator indexes by one.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            FaultEvent::LinkDown { a, b } | FaultEvent::LinkUp { a, b } => vec![*a, *b],
            FaultEvent::Kill { node }
            | FaultEvent::Revive { node }
            | FaultEvent::Pause { node }
            | FaultEvent::Resume { node }
            | FaultEvent::Blackhole { node }
            | FaultEvent::BlackholeOff { node }
            | FaultEvent::Saturate { node, .. }
            | FaultEvent::SaturateOff { node } => vec![*node],
            FaultEvent::Partition { left, right } => [left.as_slice(), right].concat(),
            FaultEvent::GeStart(_) | FaultEvent::GeStop | FaultEvent::Heal => Vec::new(),
        }
    }
}

/// One `flow` header line: a TCP flow the run carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowLine {
    /// Sending end host.
    pub src: NodeId,
    /// Receiving end host.
    pub dst: NodeId,
    /// Sender implementation.
    pub variant: TcpVariant,
    /// When the source starts (`[start]`, seconds; zero when absent).
    pub start: SimTime,
    /// Advertised window in segments (`[window]`); `None` keeps the
    /// transport's default.
    pub window: Option<u32>,
}

impl fmt::Display for FlowLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow {} {} {}", self.src.index(), self.dst.index(), self.variant)?;
        if self.start > SimTime::ZERO || self.window.is_some() {
            write!(f, " {}", self.start.as_secs_f64())?;
        }
        match self.window {
            Some(window) => write!(f, " {window}"),
            None => Ok(()),
        }
    }
}

/// A fault scheduled at a virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedFault {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub fault: FaultEvent,
}

sim_core::snap_record! { TimedFault { at, fault } }

/// A parsed run file: header lines and the ordered fault scenario.
///
/// Events keep script order; the simulator schedules them on its event
/// queue, whose FIFO-on-tie ordering preserves script order for same-time
/// faults. A header line given twice is last-wins, except `flow`, where
/// every line is one more flow.
#[derive(Clone, Debug, Default)]
pub struct ScenarioScript {
    /// Scenario name (from a `name` header line, or empty).
    pub name: String,
    /// Suggested RNG seed (`seed` header line).
    pub seed: Option<u64>,
    /// Suggested run duration (`duration` header line, seconds).
    pub duration: Option<SimDuration>,
    /// Where the nodes start (`topology` header line).
    pub topology: Option<TopologySpec>,
    /// How they move (`mobility` header line).
    pub mobility: Option<MobilitySpec>,
    /// The flows (`flow` header lines), in script order.
    pub flows: Vec<FlowLine>,
    /// The timed faults, in script order.
    pub events: Vec<TimedFault>,
    /// Where each `flow` line, then each `at` line, stood in the text, for a
    /// diagnostic that has to name one after parsing; empty for a script
    /// built in code. Provenance, not content: equality ignores it.
    pub lines: Vec<usize>,
}

impl PartialEq for ScenarioScript {
    fn eq(&self, other: &Self) -> bool {
        let content = |s: &Self| (s.seed, s.duration, s.topology, s.mobility);
        self.name == other.name
            && content(self) == content(other)
            && self.flows == other.flows
            && self.events == other.events
    }
}

impl ScenarioScript {
    /// An empty named scenario, for programmatic construction.
    pub fn new(name: &str) -> Self {
        ScenarioScript { name: name.to_string(), ..ScenarioScript::default() }
    }

    /// Appends a fault at `seconds` of virtual time.
    #[must_use]
    pub fn at(mut self, seconds: f64, fault: FaultEvent) -> Self {
        self.events.push(TimedFault { at: SimTime::from_secs_f64(seconds), fault });
        self
    }

    /// Parses the text scenario format.
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
    /// # Errors
    ///
    /// Returns a message naming the first offending line.
    pub fn parse(text: &str) -> Result<ScenarioScript, String> {
        let mut script = ScenarioScript::default();
        let mut fault_lines = Vec::new();
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
                "name" => {
                    script.name = toks.next().ok_or_else(|| fail("missing name".into()))?.into();
                }
                "seed" => {
                    script.seed = Some(parse_num::<u64>(&mut toks, "seed").map_err(fail)?);
                }
                "duration" => {
                    let duration = parse_tok(toks.next(), "duration", SimDuration::parse_secs);
                    let duration = duration.map_err(fail)?;
                    if duration == SimDuration::ZERO {
                        return Err(fail("duration must be positive".into()));
                    }
                    script.duration = Some(duration);
                }
                "topology" => {
                    let spec = parse_tok(toks.next(), "topology", TopologySpec::parse);
                    script.topology = Some(spec.map_err(fail)?);
                }
                "mobility" => {
                    let spec = parse_tok(toks.next(), "mobility", MobilitySpec::parse);
                    script.mobility = Some(spec.map_err(fail)?);
                }
                "flow" => {
                    script.flows.push(parse_flow(&mut toks).map_err(fail)?);
                    script.lines.push(lineno);
                }
                "at" => {
                    let at = parse_tok(toks.next(), "time", SimDuration::parse_secs);
                    let at = SimTime::ZERO + at.map_err(fail)?;
                    let fault = parse_fault(&mut toks).map_err(fail)?;
                    script.events.push(TimedFault { at, fault });
                    fault_lines.push(lineno);
                }
                other => return Err(fail(format!("unknown directive `{other}`"))),
            }
            if let Some(extra) = toks.next() {
                return Err(format!("scenario line {lineno}: trailing token `{extra}`"));
            }
        }
        script.lines.append(&mut fault_lines);
        Ok(script)
    }

    /// What to call flow `k` (then fault `k - flows.len()`) in a diagnostic:
    /// its line in the text, when there was a text.
    pub fn place(&self, k: usize) -> String {
        match self.lines.get(k) {
            Some(line) => format!("scenario line {line}"),
            None => format!("scenario `{}`", self.name),
        }
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

fn parse_num<T: std::str::FromStr>(
    toks: &mut std::str::SplitWhitespace<'_>,
    what: &str,
) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    parse_tok(toks.next(), what, str::parse::<T>)
}

fn parse_flow(toks: &mut std::str::SplitWhitespace<'_>) -> Result<FlowLine, String> {
    let (src, dst) = (parse_node(toks)?, parse_node(toks)?);
    let variant = parse_tok(toks.next(), "variant", TcpVariant::parse)?;
    let start = toks.next().map(|t| parse_tok(Some(t), "start", SimDuration::parse_secs));
    let window = toks.next().map(|t| parse_tok(Some(t), "window", str::parse::<u32>));
    let start = SimTime::ZERO + start.transpose()?.unwrap_or(SimDuration::ZERO);
    Ok(FlowLine { src, dst, variant, start, window: window.transpose()? })
}

fn parse_node(toks: &mut std::str::SplitWhitespace<'_>) -> Result<NodeId, String> {
    let raw = parse_num::<u16>(toks, "node id")?;
    if raw == u16::MAX {
        return Err(format!("node id {raw} is reserved for broadcast"));
    }
    Ok(NodeId::new(raw))
}

fn parse_fault(toks: &mut std::str::SplitWhitespace<'_>) -> Result<FaultEvent, String> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = ScenarioScript::parse(text).unwrap();
        assert_eq!(s.name, "storm");
        assert_eq!(s.seed, Some(99));
        assert_eq!(s.duration, Some(SimDuration::from_secs_f64(25.0)));
        assert_eq!(s.events.len(), 14);
        assert_eq!(
            s.events[0],
            TimedFault {
                at: SimTime::from_secs_f64(1.0),
                fault: FaultEvent::LinkDown { a: NodeId::new(0), b: NodeId::new(1) },
            }
        );
        assert!(matches!(s.events[6].fault, FaultEvent::GeStart(_)));
        assert_eq!(
            s.events[12].fault,
            FaultEvent::Partition {
                left: vec![NodeId::new(0), NodeId::new(1)],
                right: vec![NodeId::new(2), NodeId::new(3)],
            }
        );
        assert_eq!(s.events[13].fault, FaultEvent::Heal);
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
        let s = ScenarioScript::parse(text).unwrap();
        assert_eq!(s.topology, Some(TopologySpec::Grid { rows: 3, cols: 3 }));
        assert_eq!(s.mobility, MobilitySpec::parse("waypoint:1-5@2").ok());
        let flow = |src, dst, variant, start: f64, window| FlowLine {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            variant,
            start: SimTime::from_secs_f64(start),
            window,
        };
        assert_eq!(
            s.flows,
            [
                flow(0, 8, TcpVariant::Muzha, 0.0, None),
                flow(2, 6, TcpVariant::NewReno, 1.5, Some(8)),
                flow(1, 7, TcpVariant::Sack, 0.25, None),
            ]
        );
        // Flows first, then faults, each where it stood in the text.
        assert_eq!(s.lines, [4, 6, 7, 5]);
        assert_eq!(s.place(1), "scenario line 6");
        assert_eq!(s.place(3), "scenario line 5");
        assert_eq!(ScenarioScript::new("x").place(0), "scenario `x`");
        // A flow line renders as the text that parses back to it.
        for line in &s.flows {
            let again = ScenarioScript::parse(&line.to_string()).unwrap();
            assert_eq!(again.flows, [*line], "{line}");
        }
        // Absent lines stay absent: what they default to is the run's business.
        let bare = ScenarioScript::parse("at 1 heal\n").unwrap();
        assert_eq!((bare.topology, bare.mobility, bare.flows.len()), (None, None, 0));
    }

    /// Pinned: a single-valued header line given twice is last-wins, like
    /// `name`, `seed` and `duration` before it; `flow` lines add up.
    #[test]
    fn a_repeated_header_line_is_last_wins() {
        let s = ScenarioScript::parse(
            "seed 1\nseed 2\ntopology chain:8\ntopology grid:2x2\n\
             mobility waypoint\nmobility static\n",
        )
        .unwrap();
        assert_eq!(s.seed, Some(2));
        assert_eq!(s.topology, Some(TopologySpec::Grid { rows: 2, cols: 2 }));
        assert_eq!(s.mobility, Some(MobilitySpec::Static));
    }

    /// Every time in a script goes through `SimDuration::parse_secs`: these
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
            let err = ScenarioScript::parse(bad).expect_err(bad);
            assert!(err.starts_with(&format!("scenario line {line}: ")), "{bad:?}: {err}");
        }
        let edge = ScenarioScript::parse("duration 1.8e10\nat 1.8e10 heal\n").unwrap();
        assert_eq!(edge.duration, Some(SimDuration::from_secs_f64(1.8e10)));
    }

    #[test]
    fn fault_nodes_lists_every_node_a_fault_names() {
        let s = ScenarioScript::parse(
            "at 1 link-down 1 2\nat 1 saturate 3 4\nat 1 partition 0 1 | 7 9\nat 1 ge-off\n",
        )
        .unwrap();
        let named: Vec<Vec<usize>> =
            s.events.iter().map(|e| e.fault.nodes().iter().map(|n| n.index()).collect()).collect();
        assert_eq!(named, [vec![1, 2], vec![3], vec![0, 1, 7, 9], vec![]]);
    }

    #[test]
    fn script_order_is_preserved_for_ties() {
        let s = ScenarioScript::parse("at 5 link-down 0 1\nat 5 link-down 1 2\n").unwrap();
        assert_eq!(
            s.events[0].fault,
            FaultEvent::LinkDown { a: NodeId::new(0), b: NodeId::new(1) }
        );
        assert_eq!(
            s.events[1].fault,
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
            "flow 0 1 muzha 1 8 extra",
            "bogus 3",
            "at 1.0 kill 1 extra",
        ] {
            let got = ScenarioScript::parse(bad);
            assert!(got.is_err(), "should reject {bad:?}, got {got:?}");
        }
    }

    #[test]
    fn builder_matches_parser() {
        let built = ScenarioScript::new("x")
            .at(5.0, FaultEvent::Kill { node: NodeId::new(2) })
            .at(9.0, FaultEvent::Revive { node: NodeId::new(2) });
        let parsed = ScenarioScript::parse("name x\nat 5 kill 2\nat 9 revive 2\n").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn empty_script_is_valid() {
        let s = ScenarioScript::parse("# nothing\n\n").unwrap();
        assert!(s.events.is_empty());
        assert!(s.seed.is_none());
    }
}
