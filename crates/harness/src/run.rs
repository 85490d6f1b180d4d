//! One run, stated completely: the seam between a run file (or the flags
//! that spell one) and a [`Simulator`].
//!
//! A [`Run`] is what a [`ScenarioScript`] means once every absent header line
//! has taken its default and every node id has been checked against the
//! topology. [`Run::build`] is the only place in this crate, outside
//! `experiments`, that constructs a simulator: the corpus tests, `harness
//! trace|topo|mc|checkpoint` and the model checker's branches all run what
//! it returns.

use std::fmt;

use faultline::{FlowLine, ScenarioScript};
use netstack::{FlowSpec, SimConfig, Simulator, TcpVariant, TopologySpec};
use sim_core::{SimDuration, SimTime};
use tcp::TcpConfig;
use topo::Position;
use tracelog::{TraceFilter, TraceLog};
use wire::NodeId;

/// Seed of a script that states none.
const DEFAULT_SEED: u64 = 1;
/// Duration of a script that states none.
const DEFAULT_DURATION: SimDuration = SimDuration::from_secs(10);

/// A run, ready to build: configuration, flows, horizon and faults.
#[derive(Clone, Debug)]
pub struct Run {
    /// The script's name (empty for a run spelled by flags).
    pub name: String,
    /// Table 5.1's defaults under the script's seed, topology and mobility.
    pub cfg: SimConfig,
    /// The flows, in the order their ids are handed out.
    pub flows: Vec<FlowSpec>,
    /// How long the run lasts.
    pub duration: SimDuration,
    /// The script the run came from; [`Run::build`] loads its faults.
    pub script: ScenarioScript,
}

impl Run {
    /// What `script` means. An absent `seed` is 1, an absent `duration`
    /// 10 s, an absent `topology` `chain:4`, an absent `mobility` `static`,
    /// and a script without a `flow` line carries one NewReno flow from node
    /// 0 to the last node: the convention every corpus script is written to.
    ///
    /// # Errors
    ///
    /// A message naming the line of a flow or fault whose node the topology
    /// does not have, or of a flow from a node to itself.
    pub fn from_script(script: &ScenarioScript) -> Result<Run, String> {
        let cfg = SimConfig {
            seed: script.seed.unwrap_or(DEFAULT_SEED),
            topology: script.topology.unwrap_or_default(),
            mobility: script.mobility.unwrap_or_default(),
            ..SimConfig::default()
        };
        let nodes = cfg.topology.node_count();
        let check = |node: NodeId, k: usize| {
            if node.index() >= nodes {
                let (at, topology) = (script.place(k), cfg.topology);
                return Err(format!("{at}: no node {node} in {topology} ({nodes} nodes)"));
            }
            Ok(())
        };
        for (k, flow) in script.flows.iter().enumerate() {
            check(flow.src, k)?;
            check(flow.dst, k)?;
            if flow.src == flow.dst {
                return Err(format!("{}: a flow needs two nodes", script.place(k)));
            }
        }
        for (k, timed) in script.events.iter().enumerate() {
            for node in timed.fault.nodes() {
                check(node, script.flows.len() + k)?;
            }
        }
        let flows = if script.flows.is_empty() {
            if nodes < 2 {
                return Err(format!("a flow needs two nodes, {} has {nodes}", cfg.topology));
            }
            vec![FlowSpec::new(NodeId::new(0), NodeId::new(nodes as u16 - 1), TcpVariant::NewReno)]
        } else {
            script.flows.iter().map(flow_spec).collect()
        };
        Ok(Run {
            name: script.name.clone(),
            cfg,
            flows,
            duration: script.duration.unwrap_or(DEFAULT_DURATION),
            script: script.clone(),
        })
    }

    /// The simulator of this run at t = 0: nodes placed and moving as the
    /// configuration says, flows registered, faults scheduled. Also the
    /// restore target for a snapshot of the same run — restoring overwrites
    /// the scheduled faults wholesale.
    pub fn build(&self) -> Simulator {
        let mut sim = Simulator::from_config(self.cfg);
        for flow in &self.flows {
            sim.add_flow(*flow);
        }
        sim.load_scenario(&self.script);
        sim
    }

    /// The instant the run ends.
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }

    /// Runs to the end with a trace log behind `filter` installed and
    /// returns the log.
    pub fn capture(&self, filter: TraceFilter) -> TraceLog {
        let mut sim = self.build();
        sim.install_trace_log(TraceLog::with_filter(filter));
        sim.run_until(self.end());
        sim.take_trace_log().expect("log installed above")
    }
}

fn flow_spec(line: &FlowLine) -> FlowSpec {
    let spec = FlowSpec::new(line.src, line.dst, line.variant).starting_at(line.start);
    match line.window {
        Some(window) => spec.with_window(window),
        None => spec,
    }
}

/// The header lines that state this run; [`ScenarioScript::parse`] of them,
/// then [`Run::from_script`], gives the same run back (faults aside).
impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.name.is_empty() {
            writeln!(f, "name {}", self.name)?;
        }
        writeln!(f, "seed {}", self.cfg.seed)?;
        writeln!(f, "duration {}", self.duration.as_secs_f64())?;
        writeln!(f, "topology {}", self.cfg.topology)?;
        writeln!(f, "mobility {}", self.cfg.mobility)?;
        for flow in &self.flows {
            let default = TcpConfig::default().advertised_window;
            let window = Some(flow.tcp.advertised_window).filter(|w| *w != default);
            let FlowSpec { src, dst, variant, start, .. } = *flow;
            writeln!(f, "{}", FlowLine { src, dst, variant, start, window })?;
        }
        Ok(())
    }
}

/// The pair of nodes with the greatest separation (first such pair in
/// row-major scan order — deterministic). A natural flow for arbitrary
/// generated topologies: the longest line the routing layer must sustain.
pub fn farthest_pair(positions: &[Position]) -> (NodeId, NodeId) {
    assert!(positions.len() >= 2, "a flow needs two nodes");
    let (mut best, mut best_sq) = ((NodeId::new(0), NodeId::new(1)), -1.0);
    for (i, pi) in positions.iter().enumerate() {
        for (j, pj) in positions.iter().enumerate().skip(i + 1) {
            let d = pi.distance_sq_to(*pj);
            if d > best_sq {
                best_sq = d;
                best = (NodeId::new(i as u16), NodeId::new(j as u16));
            }
        }
    }
    best
}

/// The endpoints `flows` flows get on `topology` as `seed` places it when
/// only their number is given: the first between the most-separated pair,
/// the rest between deterministically spread endpoints.
pub fn spread_endpoints(topology: TopologySpec, seed: u64, flows: usize) -> Vec<(NodeId, NodeId)> {
    let positions = topology.build(SimConfig::default().radio.tx_range_m, seed);
    let n = positions.len();
    let mut ends = vec![farthest_pair(&positions)];
    for k in 1..flows {
        // Spread the remaining endpoints around the node index space;
        // nudge apart if a pair collides.
        let a = (k * n / flows) % n;
        let mut b = (a + n / 2) % n;
        if a == b {
            b = (b + 1) % n;
        }
        ends.push((NodeId::new(a as u16), NodeId::new(b as u16)));
    }
    ends
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::MobilitySpec;
    use proptest::prelude::*;

    fn run_of(text: &str) -> Result<Run, String> {
        Run::from_script(&ScenarioScript::parse(text)?)
    }

    #[test]
    fn absent_lines_mean_the_corpus_convention() {
        let run = run_of("").expect("the empty script is a run");
        assert_eq!(run.cfg.seed, 1);
        assert_eq!(run.duration, SimDuration::from_secs(10));
        assert_eq!(run.cfg.topology, TopologySpec::Chain { hops: 4 });
        assert_eq!(run.cfg.mobility, MobilitySpec::Static);
        let default = FlowSpec::new(NodeId::new(0), NodeId::new(4), TcpVariant::NewReno);
        assert_eq!(format!("{:?}", run.flows), format!("{:?}", [default]));
        // "End to end" on another topology is node 0 to the last node.
        let grid = run_of("topology grid:3x3\n").expect("a run");
        assert_eq!((grid.flows[0].src, grid.flows[0].dst), (NodeId::new(0), NodeId::new(8)));
        assert_eq!(grid.flows[0].variant, TcpVariant::NewReno);
        assert!(run_of("topology grid:1x1\n").unwrap_err().contains("a flow needs two nodes"));
    }

    #[test]
    fn a_mobility_line_needs_no_topology_line() {
        let run = run_of("mobility waypoint\n").expect("a roaming chain is a run");
        assert_eq!(run.cfg.topology, TopologySpec::Chain { hops: 4 });
        assert_eq!(run.cfg.mobility, MobilitySpec::DEFAULT_WAYPOINT);
        let mut sim = run.build();
        sim.run_until(SimTime::from_secs_f64(0.5));
        assert!(sim.perf().position_updates > 0, "nobody moved");
    }

    #[test]
    fn a_flow_line_carries_its_start_and_window() {
        let run = run_of("flow 1 3 muzha 1.5 8\nflow 3 1 vegas\n").expect("a run");
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
            let err = run_of(text).expect_err(text);
            assert_eq!(err.split(": ").next(), Some(format!("scenario line {line}").as_str()));
            assert!(err.contains(needle), "{text:?}: {err}");
        }
        // The last node is a node, and a larger topology has the one chain:4 lacks.
        for text in ["at 1 kill 4\nflow 4 0 muzha\n", "topology chain:9\nat 1 kill 9\n"] {
            assert!(run_of(text).is_ok(), "{text:?}");
        }
        // A script built in code has no lines to name; it is refused all the same.
        let built = ScenarioScript::new("coded")
            .at(1.0, faultline::FaultEvent::Kill { node: NodeId::new(9) });
        assert_eq!(
            Run::from_script(&built).unwrap_err(),
            "scenario `coded`: no node n9 in chain:4 (5 nodes)"
        );
    }

    /// A generated topology of at least two nodes, by family.
    fn topology(family: u8, a: u16, b: u16) -> TopologySpec {
        match family % 4 {
            0 => TopologySpec::Chain { hops: a },
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
                0..5,
            ),
        ) {
            let spec = topology(family, a, b);
            let n = spec.node_count() as u16;
            let mobility = match lo {
                0 => MobilitySpec::Static,
                _ => MobilitySpec::Waypoint {
                    min_speed_mps: f64::from(lo) / 2.0,
                    max_speed_mps: f64::from(lo + spread) / 2.0,
                    pause: SimDuration::from_millis(pause_ms),
                },
            };
            let flows = flows.into_iter().map(|(src, hop, variant, start_ms, window)| FlowLine {
                src: NodeId::new(src % n),
                dst: NodeId::new((src % n + 1 + hop % (n - 1)) % n),
                variant: TcpVariant::ALL[variant],
                start: SimTime::ZERO + SimDuration::from_millis(start_ms),
                window: Some(window).filter(|w| *w > 0),
            });
            let script = ScenarioScript {
                name: if seed % 2 == 0 { "generated".into() } else { String::new() },
                seed: Some(seed),
                duration: Some(SimDuration::from_millis(millis)),
                topology: Some(spec),
                mobility: Some(mobility),
                flows: flows.collect(),
                ..ScenarioScript::default()
            };
            let run = Run::from_script(&script).expect("generated endpoints are nodes");
            let text = run.to_string();
            let again = run_of(&text).unwrap_or_else(|e| panic!("{e} in\n{text}"));
            let shape = |r: &Run| format!("{:?}", (&r.name, r.cfg, &r.flows, r.duration));
            prop_assert_eq!(shape(&again), shape(&run), "{}", text);
        }
    }

    #[test]
    fn spread_endpoints_start_at_the_farthest_pair_and_never_pair_a_node_with_itself() {
        let chain = TopologySpec::Chain { hops: 8 };
        assert_eq!(spread_endpoints(chain, 1, 1), [(NodeId::new(0), NodeId::new(8))]);
        for (spec, flows) in [(chain, 2), (chain, 9), (TopologySpec::Chain { hops: 1 }, 5)] {
            let ends = spread_endpoints(spec, 1, flows);
            assert_eq!(ends.len(), flows);
            assert!(ends.iter().all(|(a, b)| a != b), "{ends:?}");
        }
    }
}
