//! Node mobility: the movement a node is executing, the plan that picks its
//! next waypoint, and the periodic tick that walks it there.

use phy::Position;
use sim_core::{
    snap_enum, snap_record, SimDuration, SimTime, SnapError, SnapshotReader, SnapshotWriter,
};
use topo::WaypointLeg;
use tracelog::TraceRecord;
use wire::NodeId;

use crate::event::Event;
use crate::Simulator;

/// An active movement: the node heads toward `target` at `speed_mps`; when
/// it arrives, `plan` picks the next waypoint (or the movement ends).
#[derive(Clone, Debug)]
pub(crate) struct Movement {
    target: Position,
    speed_mps: f64,
    plan: MobilityPlan,
}

/// What a node does when it reaches its current waypoint.
#[derive(Clone, Debug)]
enum MobilityPlan {
    /// Draw the next waypoint from the random-waypoint model.
    Waypoint(RandomWaypoint),
    /// Follow a scripted leg list; `next` indexes the leg to start after
    /// the current one completes (past-the-end means the script is done).
    Script { legs: Vec<WaypointLeg>, next: usize },
}

/// Parameters of the classic random-waypoint mobility model.
#[derive(Clone, Copy, Debug)]
pub struct RandomWaypoint {
    /// Nodes roam inside `[0, width] × [0, height]` metres.
    pub width_m: f64,
    /// Area height in metres.
    pub height_m: f64,
    /// Uniformly drawn speed range in m/s.
    pub min_speed_mps: f64,
    /// Maximum speed in m/s.
    pub max_speed_mps: f64,
    /// Minimum pause at each waypoint before heading to the next.
    pub min_pause: SimDuration,
    /// Maximum pause at each waypoint. When equal to `min_pause` the pause
    /// is fixed and no random draw is made for it.
    pub max_pause: SimDuration,
}

impl RandomWaypoint {
    /// A plan roaming the whole `width × height` area without pausing,
    /// with the given uniform speed range.
    pub fn roaming(width_m: f64, height_m: f64, min_speed_mps: f64, max_speed_mps: f64) -> Self {
        RandomWaypoint {
            width_m,
            height_m,
            min_speed_mps,
            max_speed_mps,
            min_pause: SimDuration::ZERO,
            max_pause: SimDuration::ZERO,
        }
    }

    /// Whether the area, the speed range and the pause range are all
    /// non-degenerate — what [`Simulator::set_random_waypoint`] asserts and
    /// the snapshot decoder checks.
    fn is_well_formed(&self) -> bool {
        self.width_m > 0.0
            && self.height_m > 0.0
            && self.min_speed_mps > 0.0
            && self.min_speed_mps <= self.max_speed_mps
            && self.min_pause <= self.max_pause
    }
}

/// How often moving nodes' positions are refreshed.
const MOBILITY_TICK: SimDuration = SimDuration::from_millis(100);

impl Simulator {
    /// Moves a node to a new position (mobility hook). Takes effect for
    /// all transmissions that *start* after the call; signals already on
    /// the air are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_position(&mut self, node: NodeId, position: Position) {
        self.apply_position(node, position);
    }

    /// Writes a node's position through to the channel, accounting the
    /// neighbor-row churn and logging the move. Every position change —
    /// scripted teleport or mobility-tick step — funnels through here so
    /// the perf counters and the trace log see identical motion.
    fn apply_position(&mut self, node: NodeId, position: Position) {
        let churn = self.channel.set_position(node, position);
        self.perf.position_updates += 1;
        self.perf.link_churn += churn as u64;
        if self.observed() {
            self.rec(TraceRecord::PhyMove { node, x: position.x, y: position.y });
        }
    }

    /// Installs `movement` for `node`, replacing any in progress, and arms
    /// the tick chain unless one is still running: a node has at most one
    /// tick queued, and a movement installed while it is queued rides it.
    fn start_movement(&mut self, node: NodeId, movement: Movement) {
        self.movements[node.index()] = Some(movement);
        if !self.ticking[node.index()] {
            self.arm_tick(node, self.now + MOBILITY_TICK);
        }
    }

    /// Queues `node`'s next mobility tick.
    fn arm_tick(&mut self, node: NodeId, at: SimTime) {
        self.ticking[node.index()] = true;
        self.schedule(at, Event::MobilityTick { node });
    }

    /// Starts moving `node` in a straight line toward `target` at
    /// `speed_mps`, updating its position every 100 ms of virtual time: a
    /// one-leg [`Simulator::set_waypoint_script`]. Replaces any movement in
    /// progress for the node.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not positive.
    pub fn move_node(&mut self, node: NodeId, target: Position, speed_mps: f64) {
        self.set_waypoint_script(node, vec![WaypointLeg::to(target, speed_mps)]);
    }

    /// Puts `node` under the random-waypoint mobility model: it repeatedly
    /// picks a uniform point in the area, moves there at a uniformly drawn
    /// speed, pauses for a uniformly drawn time, and repeats. Replaces any
    /// movement in progress.
    ///
    /// # Panics
    ///
    /// Panics if the area, the speed range or the pause range is
    /// degenerate.
    pub fn set_random_waypoint(&mut self, node: NodeId, plan: RandomWaypoint) {
        assert!(
            plan.is_well_formed(),
            "area and speeds must be positive, speed and pause ranges ordered"
        );
        let (target, speed_mps) = self.draw_waypoint(&plan);
        self.start_movement(
            node,
            Movement { target, speed_mps, plan: MobilityPlan::Waypoint(plan) },
        );
    }

    /// Puts `node` on a scripted waypoint tour: it visits each leg's target
    /// at the leg's speed, pausing for the leg's pause after arriving, and
    /// stops after the last leg. Replaces any movement in progress. Unlike
    /// [`Simulator::set_random_waypoint`] this consumes no randomness, so a
    /// script replays identically regardless of what else the run does.
    ///
    /// # Panics
    ///
    /// Panics if `legs` is empty or any leg's speed is not positive.
    pub fn set_waypoint_script(&mut self, node: NodeId, legs: Vec<WaypointLeg>) {
        for leg in &legs {
            assert!(leg.speed_mps > 0.0, "every leg speed must be positive");
        }
        let Some(first) = legs.first().copied() else {
            panic!("a waypoint script needs at least one leg");
        };
        self.start_movement(
            node,
            Movement {
                target: first.target,
                speed_mps: first.speed_mps,
                plan: MobilityPlan::Script { legs, next: 1 },
            },
        );
    }

    /// Stops any movement in progress for `node`. Its queued tick, if any,
    /// stays queued and finds nothing to do, unless a movement started
    /// before it fires rides it.
    pub fn stop_node(&mut self, node: NodeId) {
        self.movements[node.index()] = None;
    }

    fn draw_waypoint(&mut self, plan: &RandomWaypoint) -> (Position, f64) {
        let x = self.rng.unit_f64() * plan.width_m;
        let y = self.rng.unit_f64() * plan.height_m;
        let speed =
            plan.min_speed_mps + self.rng.unit_f64() * (plan.max_speed_mps - plan.min_speed_mps);
        (Position::new(x, y), speed)
    }

    /// Draws a pause from the plan's range. A degenerate range consumes no
    /// randomness, so plans without pauses leave the RNG stream exactly as
    /// it was before pauses existed.
    fn draw_pause(&mut self, plan: &RandomWaypoint) -> SimDuration {
        if plan.max_pause <= plan.min_pause {
            return plan.min_pause;
        }
        let span = (plan.max_pause - plan.min_pause).as_secs_f64();
        plan.min_pause + SimDuration::from_secs_f64(self.rng.unit_f64() * span)
    }

    pub(crate) fn mobility_tick(&mut self, node: NodeId) {
        self.ticking[node.index()] = false;
        let Some(movement) = &self.movements[node.index()] else { return };
        let (target, speed_mps) = (movement.target, movement.speed_mps);
        let here = self.channel.position(node);
        let distance = here.distance_to(target);
        let step = speed_mps * MOBILITY_TICK.as_secs_f64();
        if distance <= step {
            self.arrive(node, target);
        } else {
            let frac = step / distance;
            let next = Position::new(
                here.x + (target.x - here.x) * frac,
                here.y + (target.y - here.y) * frac,
            );
            self.apply_position(node, next);
            self.arm_tick(node, self.now + MOBILITY_TICK);
        }
    }

    /// Snaps `node` to the waypoint it just reached, then lets the plan
    /// decide what happens next (pauses delay the next tick rather than
    /// adding a dedicated event class).
    fn arrive(&mut self, node: NodeId, waypoint: Position) {
        self.apply_position(node, waypoint);
        let Some(Movement { plan, .. }) = self.movements[node.index()].take() else { return };
        let next = match plan {
            MobilityPlan::Waypoint(plan) => {
                let (target, speed_mps) = self.draw_waypoint(&plan);
                let pause = self.draw_pause(&plan);
                Some((pause, Movement { target, speed_mps, plan: MobilityPlan::Waypoint(plan) }))
            }
            // The pause belongs to the leg that just finished: the one
            // before `next`.
            MobilityPlan::Script { legs, next } => legs.get(next).copied().map(|leg| {
                let pause = legs[next - 1].pause;
                let plan = MobilityPlan::Script { legs, next: next + 1 };
                (pause, Movement { target: leg.target, speed_mps: leg.speed_mps, plan })
            }),
        };
        if let Some((pause, movement)) = next {
            self.movements[node.index()] = Some(movement);
            self.arm_tick(node, self.now + pause + MOBILITY_TICK);
        }
    }

    /// A node's current position.
    pub fn position(&self, node: NodeId) -> Position {
        self.channel.position(node)
    }
}

snap_record! {
    RandomWaypoint { width_m, height_m, min_speed_mps, max_speed_mps, min_pause, max_pause }
    check |p| p.is_well_formed() => "random waypoint plan";
}

snap_enum! {
    MobilityPlan, "mobility plan tag" { 0 => Waypoint(plan), 1 => Script { legs, next } }
    // A live script is always travelling toward `legs[next-1]`, so the resume
    // index sits in 1..=len (and `legs` is not empty).
    check |p| !matches!(p, MobilityPlan::Script { legs, next } if *next == 0 || *next > legs.len())
        => "waypoint script index";
}

snap_record! {
    Movement { target, speed_mps, plan }
    check |m| m.speed_mps > 0.0 => "movement speed";
}

/// Writes the movements as the node-keyed map they once were: the count, then
/// each moving node and its movement, in node order.
pub(crate) fn encode_movements(movements: &[Option<Movement>], w: &mut SnapshotWriter) {
    w.put_usize(movements.iter().flatten().count());
    for (i, movement) in movements.iter().enumerate() {
        if let Some(movement) = movement {
            w.put(&NodeId::from_index(i));
            w.put(movement);
        }
    }
}

/// Reads what [`encode_movements`] wrote into one slot per node. As in the
/// map, a node named twice keeps its last movement.
pub(crate) fn decode_movements(
    r: &mut SnapshotReader<'_>,
    node_count: usize,
) -> Result<Vec<Option<Movement>>, SnapError> {
    let mut movements = vec![None; node_count];
    for _ in 0..r.take_usize()? {
        let node: NodeId = r.get()?;
        let movement: Movement = r.get()?;
        let slot = movements
            .get_mut(node.index())
            .ok_or(SnapError::Invalid("movement for a missing node"))?;
        *slot = Some(movement);
    }
    Ok(movements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, FlowSpec, SimConfig, TcpVariant};
    use sim_core::SimTime;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn linear_motion_reaches_target_and_stops() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(2);
        // 100 m away at 20 m/s: arrives at t = 5 s.
        let start = sim.position(node);
        let target = Position::new(start.x + 100.0, start.y);
        sim.move_node(node, target, 20.0);
        sim.run_until(secs(2.5));
        let mid = sim.position(node);
        assert!(mid.x > start.x && mid.x < target.x, "mid-flight at {mid}");
        sim.run_until(secs(6.0));
        assert_eq!(sim.position(node), target);
        // No further drift after arrival.
        sim.run_until(secs(10.0));
        assert_eq!(sim.position(node), target);
    }

    #[test]
    fn movement_speed_is_respected() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        let start = sim.position(node);
        sim.move_node(node, Position::new(start.x + 1000.0, 0.0), 10.0);
        sim.run_until(secs(10.0));
        let moved = sim.position(node).distance_to(start);
        assert!((moved - 100.0).abs() < 2.0, "10 m/s for 10 s ≈ 100 m, got {moved}");
    }

    #[test]
    fn random_waypoint_stays_in_area() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(1);
        sim.set_random_waypoint(node, RandomWaypoint::roaming(500.0, 500.0, 50.0, 100.0));
        for step in 1..=60 {
            sim.run_until(secs(step as f64));
            let p = sim.position(node);
            assert!(
                (-1.0..=501.0).contains(&p.x) && (-1.0..=501.0).contains(&p.y),
                "escaped the area: {p}"
            );
        }
        // It actually moved.
        assert_ne!(sim.position(node), Position::new(250.0, 0.0));
        sim.stop_node(node);
        let frozen = sim.position(node);
        sim.run_until(secs(65.0));
        assert_eq!(sim.position(node), frozen);
    }

    /// `move_node` is a one-leg script: same event stream, same state.
    #[test]
    fn move_node_is_a_one_leg_waypoint_script() {
        let run = |scripted: bool| {
            let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
            let (src, dst) = topology::chain_flow(2);
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            let target = Position::new(400.0, 150.0);
            if scripted {
                sim.set_waypoint_script(NodeId::new(1), vec![WaypointLeg::to(target, 20.0)]);
            } else {
                sim.move_node(NodeId::new(1), target, 20.0);
            }
            sim.run_until(secs(1.5));
            let mid_flight = sim.snapshot();
            sim.run_until(secs(12.0));
            assert_eq!(sim.position(NodeId::new(1)), target, "arrived and stopped");
            (sim.trace_hash(), mid_flight, sim.snapshot())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn replacing_a_movement_does_not_double_tick() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        sim.move_node(node, Position::new(1000.0, 0.0), 10.0);
        // Redirect mid-flight; speed unchanged, so distance covered in a
        // fixed time must not exceed speed × time (a double tick chain
        // would move the node twice per tick).
        sim.run_until(secs(1.0));
        sim.move_node(node, Position::new(0.0, 1000.0), 10.0);
        let at_redirect = sim.position(node);
        sim.run_until(secs(6.0));
        let moved = sim.position(node).distance_to(at_redirect);
        assert!(moved <= 51.0, "5 s at 10 m/s must cover ≤ 50 m, got {moved}");
    }

    /// A stopped node's tick stays queued: a restart before it fires must
    /// ride it, not arm a second chain that moves the node twice per tick.
    #[test]
    fn a_stopped_and_restarted_node_keeps_its_speed() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        let target = Position::new(1000.0, 0.0);
        sim.move_node(node, target, 10.0);
        sim.run_until(secs(1.0));
        sim.stop_node(node);
        sim.move_node(node, target, 10.0);
        let at_restart = sim.position(node);
        sim.run_until(secs(6.0));
        let moved = sim.position(node).distance_to(at_restart);
        assert!((moved - 50.0).abs() < 1e-6, "5 s at 10 m/s must cover 50 m, got {moved}");
    }

    /// The same restart in a run restored from a snapshot cut between the
    /// stop and the restart: the restored run knows from its queue that a
    /// tick is pending, and goes on as the straight run does.
    #[test]
    fn a_snapshot_between_stop_and_restart_resumes_one_tick_chain() {
        let node = NodeId::new(0);
        let target = Position::new(1000.0, 0.0);
        let build = || {
            let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
            let (src, dst) = topology::chain_flow(2);
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            sim
        };
        let mut straight = build();
        straight.move_node(node, target, 10.0);
        straight.run_until(secs(1.0));
        straight.stop_node(node);
        let cut = straight.snapshot();
        let mut resumed = build();
        resumed.restore(&cut).expect("a run's own snapshot restores");
        let at_restart = straight.position(node);
        for sim in [&mut straight, &mut resumed] {
            sim.move_node(node, target, 10.0);
            sim.run_until(secs(6.0));
        }
        let moved = resumed.position(node).distance_to(at_restart);
        assert!((moved - 50.0).abs() < 1e-6, "5 s at 10 m/s must cover 50 m, got {moved}");
        assert_eq!(resumed.trace_hash(), straight.trace_hash());
        assert_eq!(resumed.snapshot(), straight.snapshot());
    }

    #[test]
    fn scripted_waypoints_visit_each_leg_and_stop() {
        use topo::WaypointLeg;
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        let a = Position::new(100.0, 0.0);
        let b = Position::new(100.0, 100.0);
        sim.set_waypoint_script(
            node,
            vec![
                WaypointLeg::to(a, 50.0).pausing(sim_core::SimDuration::from_secs_f64(1.0)),
                WaypointLeg::to(b, 50.0),
            ],
        );
        sim.run_until(secs(2.5));
        assert_eq!(sim.position(node), a, "arrived (~2 s at 50 m/s) and pausing at leg 1");
        sim.run_until(secs(6.0));
        assert_eq!(sim.position(node), b, "second leg reached");
        // Script exhausted: the node stays put.
        sim.run_until(secs(10.0));
        assert_eq!(sim.position(node), b);
    }

    #[test]
    fn scripted_pause_delays_the_next_leg() {
        use topo::WaypointLeg;
        let mut paused = Simulator::new(topology::chain(2), SimConfig::default());
        let mut eager = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        let a = Position::new(100.0, 0.0);
        let b = Position::new(100.0, 100.0);
        paused.set_waypoint_script(
            node,
            vec![
                WaypointLeg::to(a, 50.0).pausing(sim_core::SimDuration::from_secs_f64(3.0)),
                WaypointLeg::to(b, 50.0),
            ],
        );
        eager.set_waypoint_script(node, vec![WaypointLeg::to(a, 50.0), WaypointLeg::to(b, 50.0)]);
        // At t = 3 s the eager twin is already on (or done with) leg 2,
        // while the paused twin is still sitting at leg 1's waypoint.
        paused.run_until(secs(3.0));
        eager.run_until(secs(3.0));
        assert_eq!(paused.position(node), a, "pausing at the first waypoint");
        assert!(eager.position(node).y > 0.0, "no pause: second leg under way");
        // Both finish eventually.
        paused.run_until(secs(12.0));
        assert_eq!(paused.position(node), b);
    }

    #[test]
    fn waypoint_pause_draw_preserves_zero_pause_stream() {
        // A plan whose pause range is degenerate must consume exactly the
        // randomness the pre-pause model did: same seed, same trajectory.
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(1);
        sim.set_random_waypoint(
            node,
            RandomWaypoint {
                min_pause: sim_core::SimDuration::from_secs_f64(1.0),
                max_pause: sim_core::SimDuration::from_secs_f64(1.0),
                ..RandomWaypoint::roaming(500.0, 500.0, 50.0, 100.0)
            },
        );
        let mut twin = Simulator::new(topology::chain(2), SimConfig::default());
        twin.set_random_waypoint(node, RandomWaypoint::roaming(500.0, 500.0, 50.0, 100.0));
        sim.run_until(secs(30.0));
        twin.run_until(secs(30.0));
        // Same waypoint sequence (same RNG draws), different timing.
        assert!(sim.position(node).x >= 0.0 && twin.position(node).x >= 0.0);
    }

    #[test]
    fn mobile_relay_flow_survives_with_rediscovery() {
        // 5-node chain; the flow runs 0 -> 4. Node 2 wanders slowly around
        // its home; AODV re-discovers through node positions as needed.
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(secs(3.0));
        // Drift node 2 100 m north and back; connectivity is preserved
        // (neighbours at 250 m spacing, range 250 m... moving north breaks
        // 1-2 and 2-3 links at ~? sqrt(250^2+100^2)=269>250: breaks!) so
        // the route must fail and recover.
        let home = sim.position(NodeId::new(2));
        sim.move_node(NodeId::new(2), Position::new(home.x, 100.0), 25.0);
        sim.run_until(secs(8.0));
        sim.move_node(NodeId::new(2), home, 25.0);
        sim.run_until(secs(15.0));
        let before_tail = sim.flow_report(flow).delivered_segments;
        sim.run_until(secs(20.0));
        let tail = sim.flow_report(flow).delivered_segments - before_tail;
        assert!(tail > 5, "flow must recover after the relay returns, got {tail}");
    }
}
