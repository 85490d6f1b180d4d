//! The five workloads: how each is set up from a seed, driven, and counted.
//!
//! A repetition is one seeded simulation (or, for the batch workload, one
//! whole sweep) run from scratch, so every repetition of a workload is the
//! same deterministic computation and must yield the same [`Outcome`].

use faultline::InvariantChecker;
use harness::experiments::{self, ChainSweep, CoexistKind, CoexistResult};
use harness::{run_batch, ExperimentConfig, WallClock};
use netstack::{topology, FlowSpec, SimConfig, Simulator, TcpVariant, TopologySpec, WaypointLeg};
use phy::Position;
use sim_core::{RunPerf, SimDuration, SimRng, SimTime, TraceHash};
use tracelog::TraceLog;
use wire::NodeId;

/// One named workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8-hop static chain, one Muzha flow.
    Chain8Muzha,
    /// The Chapter-5 figure sweep through the batch engine.
    PaperSweepBatch,
    /// Static dense random disc, 100 nodes, 8 one-hop Muzha flows.
    Disc100Dense,
    /// 400-node street grid under waypoint mobility, 8 Muzha flows.
    City400Waypoint,
    /// `Chain8Muzha` with every observer live.
    Chain8Observed,
}

/// Chain lengths of the batch sweep (paper Figs. 5.8–5.13).
const SWEEP_HOPS: [usize; 3] = [4, 8, 16];
/// Advertised window of the batch sweep (Figs. 5.10 and 5.13).
const SWEEP_WINDOW: u32 = 32;
/// Arm length of the coexistence cross (Fig. 5.15).
const CROSS_HOPS: usize = 4;
const CROSS_PAIR: CoexistKind =
    CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha };
/// Seeds per sweep cell.
const SWEEP_SEEDS: u64 = 2;
/// Flows on the dense disc and in the city.
const SCALE_FLOWS: usize = 8;
const DISC_NODES: u16 = 100;
/// 19 × 19 blocks: 20 × 20 = 400 intersections.
const CITY_BLOCKS: u16 = 19;
pub(crate) const CITY: TopologySpec =
    TopologySpec::CityBlocks { blocks_x: CITY_BLOCKS, blocks_y: CITY_BLOCKS, extra: 0 };
/// Seeds of the scenario geometry. Where nodes stand and where they walk is
/// part of a workload's definition, like its flow endpoints: host time per
/// simulated second follows the offered load, and the load of a random
/// placement or a random walk differs between draws by far more than any
/// change to the simulator moves it (measured: 9 % and 37 % standard
/// deviation over seeds, against 0.3 % and 1.6 % with the geometry held).
/// `--seed` drives every draw the simulator itself makes at run time.
const PLACEMENT_SEED: u64 = 0x6469_7363; // "disc"
const TRAJECTORY_SEED: u64 = 0x6369_7479; // "city"
/// Share of a block by which a city flow's destination starts nearer its
/// source than the next intersection: 225 m apart under a 250 m range.
const ENDPOINT_NUDGE: f64 = 0.1;
/// Waypoint legs per node: at 1–20 m/s across a 4.75 km city, more than
/// any run here walks.
const LEGS_PER_NODE: usize = 4;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::Chain8Muzha,
        Workload::PaperSweepBatch,
        Workload::Disc100Dense,
        Workload::City400Waypoint,
        Workload::Chain8Observed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chain8Muzha => "chain8_muzha",
            Workload::PaperSweepBatch => "paper_sweep_batch",
            Workload::Disc100Dense => "disc100_dense",
            Workload::City400Waypoint => "city400_waypoint",
            Workload::Chain8Observed => "chain8_observed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Virtual seconds one full-size repetition simulates (per cell for the
    /// batch workload). Sized so a repetition lasts about 0.1 s of host
    /// time on the baseline host: a 14 s run then works through its panel
    /// of seeds five or six times.
    pub fn virtual_secs(self) -> u64 {
        match self {
            Workload::Chain8Muzha => 50,
            // 36 s of records sit midway between two doublings of the trace
            // log's buffer (131 072 and 262 144 entries at ≈ 5 300 a second),
            // so no seed's peak memory flips on which side it lands.
            Workload::Chain8Observed => 36,
            Workload::PaperSweepBatch | Workload::City400Waypoint => 3,
            Workload::Disc100Dense => 2,
        }
    }

    /// Node count of the single-simulation workloads (0 for the batch,
    /// whose cells differ).
    pub fn node_count(self) -> usize {
        match self {
            Workload::Chain8Muzha | Workload::Chain8Observed => 9,
            Workload::PaperSweepBatch => 0,
            Workload::Disc100Dense => usize::from(DISC_NODES),
            Workload::City400Waypoint => CITY.node_count(),
        }
    }

    /// The set-up phase of a single-simulation workload: everything between
    /// a `SimConfig` and the first `run_until` — topology generation with
    /// its connectivity retry, channel and position-index build, mobility
    /// script generation, flow registration and observer install.
    ///
    /// # Panics
    ///
    /// Panics for the batch workload, whose sweep builds a simulator per cell.
    pub fn build(self, seed: u64) -> Simulator {
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let node = |i: usize| NodeId::new(i as u16);
        let (mut sim, flows): (Simulator, Vec<(NodeId, NodeId)>) = match self {
            Workload::Chain8Muzha | Workload::Chain8Observed => {
                (Simulator::new(topology::chain(8), cfg), vec![topology::chain_flow(8)])
            }
            Workload::PaperSweepBatch => unreachable!("the sweep builds a simulator per cell"),
            Workload::Disc100Dense => {
                let sim =
                    Simulator::new(disc_spec().build(cfg.radio.tx_range_m, PLACEMENT_SEED), cfg);
                // Index-spread sources (a uniform draw of the disc), each
                // sending to its nearest neighbour: saturated one-hop flows
                // keep every radio in carrier-sense range busy, which is the
                // fan-out load, and leave routing and TCP recovery nothing
                // to vary.
                let flows = (0..SCALE_FLOWS)
                    .map(|k| node(k * sim.node_count() / SCALE_FLOWS))
                    .map(|src| (src, nearest_node(&sim, src)))
                    .collect();
                (sim, flows)
            }
            Workload::City400Waypoint => {
                // Adjacent intersections along a street, spread over the
                // grid. The lattice pitch equals the transmission range, so
                // each destination starts a tenth of a block towards its
                // source: whether the first packets get through must not
                // hang on how the PHY compares a distance equal to its range.
                let side = usize::from(CITY_BLOCKS) + 1;
                let flows: Vec<(NodeId, NodeId)> = (0..SCALE_FLOWS)
                    .map(|k| (2 + 5 * (k % 4), 5 + 10 * (k / 4)))
                    .map(|(ix, iy)| (node(iy * side + ix), node(iy * side + ix + 1)))
                    .collect();
                // What `Simulator::from_config` does, with the placement in
                // hand between its two steps.
                let mut positions = CITY.build(cfg.radio.tx_range_m, cfg.seed);
                for &(src, dst) in &flows {
                    let (from, to) = (positions[src.index()], positions[dst.index()]);
                    positions[dst.index()] = Position::new(
                        to.x + (from.x - to.x) * ENDPOINT_NUDGE,
                        to.y + (from.y - to.y) * ENDPOINT_NUDGE,
                    );
                }
                let mut sim = Simulator::new(positions, cfg);
                // The literature-standard waypoint walk (uniform targets,
                // 1–20 m/s, no pause), drawn once and scripted: in range at
                // the start, walking apart from the first tick.
                let (width, height) = CITY.extent();
                let mut rng = SimRng::new(TRAJECTORY_SEED);
                for i in 0..sim.node_count() {
                    let legs = (0..LEGS_PER_NODE)
                        .map(|_| {
                            let to = Position::new(rng.unit_f64() * width, rng.unit_f64() * height);
                            WaypointLeg::to(to, 1.0 + rng.unit_f64() * 19.0)
                        })
                        .collect();
                    sim.set_waypoint_script(node(i), legs);
                }
                (sim, flows)
            }
        };
        for (src, dst) in flows {
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        }
        if self == Workload::Chain8Observed {
            sim.install_trace_log(TraceLog::new());
            sim.install_checker(InvariantChecker::new());
        }
        sim
    }

    /// The run phase: advances `sim` to `virtual_secs` in `run_until` calls
    /// of `step_ms` virtual milliseconds, calling `after_step` after each.
    /// The observed chain also takes a full snapshot after every whole
    /// virtual second.
    fn drive(
        self,
        sim: &mut Simulator,
        virtual_secs: u64,
        step_ms: u64,
        mut after_step: impl FnMut(&Simulator),
    ) -> SnapshotTally {
        let mut tally = SnapshotTally::default();
        let (mut at_ms, end_ms) = (0, virtual_secs * 1_000);
        while at_ms < end_ms {
            at_ms = (at_ms + step_ms.max(1)).min(end_ms);
            sim.run_until(SimTime::ZERO + SimDuration::from_nanos(at_ms * 1_000_000));
            if self == Workload::Chain8Observed && at_ms % 1_000 == 0 {
                tally.taken += 1;
                tally.bytes += sim.snapshot().len() as u64;
            }
            after_step(sim);
        }
        tally
    }

    /// Virtual milliseconds per timed slice of an untraced repetition: about
    /// 4–6 ms of host time on the baseline host, whole periods of the
    /// workload's periodic work (mobility ticks every 100 ms, the observed
    /// chain's snapshot every second). A slice is a `run_until` call;
    /// cutting a run into slices changes nothing it computes.
    fn slice_ms(self) -> u64 {
        match self {
            Workload::Chain8Muzha => 2_000,
            Workload::Chain8Observed => 1_000,
            Workload::Disc100Dense | Workload::City400Waypoint => 100,
            Workload::PaperSweepBatch => unreachable!("a sweep is timed whole"),
        }
    }

    /// Runs one untraced repetition at `virtual_secs` (per cell for the
    /// batch workload) and times its set-up phase and every slice of its
    /// run phase.
    pub fn run_rep(self, seed: u64, virtual_secs: u64) -> Rep {
        if self == Workload::PaperSweepBatch {
            return sweep_rep(seed, virtual_secs);
        }
        let (setups, mut sim) = time_setups(|| self.build(seed));
        let mut slices = Vec::new();
        let mut events = 0;
        let clock = WallClock::start();
        let mut started_s = clock.elapsed_secs();
        let snapshots = self.drive(&mut sim, virtual_secs, self.slice_ms(), |sim| {
            let wall_s = clock.elapsed_secs() - started_s;
            let now = sim.perf().events_processed;
            slices.push(Slice { wall_s, load: (now - events) as f64 });
            events = now;
            // Reading the counters is not part of the run.
            started_s = clock.elapsed_secs();
        });
        Rep { setups, slices, sim_s: virtual_secs as f64, outcome: outcome_of(&mut sim, snapshots) }
    }

    /// Runs one repetition serially in 1-virtual-second `run_until` slices,
    /// reporting each to `sink`. The batch workload runs its cells one
    /// after another, each sliced.
    pub fn run_sliced(self, seed: u64, virtual_secs: u64, sink: &mut dyn SliceSink) -> Outcome {
        let sliced = |mut sim: Simulator, sink: &mut dyn SliceSink| {
            let mut events = 0;
            sink.run_starts();
            let snapshots = self.drive(&mut sim, virtual_secs, 1_000, |sim| {
                let now = sim.perf().events_processed;
                sink.slice_done(now - events);
                events = now;
            });
            outcome_of(&mut sim, snapshots)
        };
        if self == Workload::PaperSweepBatch {
            let outcomes: Vec<Outcome> =
                sweep_cells(seed).iter().map(|cell| sliced(cell.build(), sink)).collect();
            return sum_outcomes(&outcomes);
        }
        sliced(self.build(seed), sink)
    }

    /// Checks that a snapshot taken halfway restores into a freshly built
    /// simulator that then finishes on the same digest as the uninterrupted
    /// run. Returns whether it did. One simulator lives at a time, so the
    /// check holds no more memory than a repetition does.
    pub fn resumes_identically(self, seed: u64, virtual_secs: u64) -> bool {
        let end = SimTime::ZERO + SimDuration::from_secs(virtual_secs);
        let (bytes, straight) = {
            let mut sim = self.build(seed);
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(virtual_secs / 2));
            let bytes = sim.snapshot();
            sim.run_until(end);
            (bytes, (sim.trace_hash(), sim.perf()))
        };
        let mut resumed = self.build(seed);
        if resumed.restore(&bytes).is_err() {
            return false;
        }
        resumed.run_until(end);
        (resumed.trace_hash(), resumed.perf()) == straight
    }
}

/// Most set-ups one repetition makes, and the host time it spends on them
/// at most beyond the first.
const SETUPS_PER_REP: usize = 256;
const SETUP_BUDGET_S: f64 = 0.01;

/// Makes a repetition's set-up again and again, timing each — a set-up
/// lasts microseconds to a millisecond, and one reading per repetition is
/// too few to tell a quiet host from a busy one. Keeps the last thing built.
fn time_setups<T>(mut set_up: impl FnMut() -> T) -> (Vec<f64>, T) {
    let budget = WallClock::start();
    let mut setups = Vec::new();
    loop {
        let clock = WallClock::start();
        let built = set_up();
        setups.push(clock.elapsed_secs());
        if setups.len() == SETUPS_PER_REP || budget.elapsed_secs() >= SETUP_BUDGET_S {
            return (setups, built);
        }
    }
}

/// The dense disc's placement spec: 100 nodes at a mean degree of 12.
pub(crate) fn disc_spec() -> TopologySpec {
    TopologySpec::random_disc_dense(DISC_NODES, SimConfig::default().radio.tx_range_m)
}

fn nearest_node(sim: &Simulator, from: NodeId) -> NodeId {
    let at = sim.position(from);
    (0..sim.node_count())
        .map(|i| NodeId::new(i as u16))
        .filter(|&other| other != from)
        .min_by(|&a, &b| {
            at.distance_sq_to(sim.position(a)).total_cmp(&at.distance_sq_to(sim.position(b)))
        })
        .expect("the disc has more than one node")
}

/// Receives the slice boundaries of [`Workload::run_sliced`].
pub trait SliceSink {
    /// A simulator is built and its first slice starts now.
    fn run_starts(&mut self);
    /// A slice just ended, having dispatched `events` events.
    fn slice_done(&mut self, events: u64);
}

/// Snapshots taken during a run and their total size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotTally {
    /// Number of snapshots.
    pub taken: u64,
    /// Sum of their encoded sizes.
    pub bytes: u64,
}

/// One timed stretch of a repetition's run phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    /// Host seconds inside `run_until` (and, on the observed chain, the
    /// snapshot that follows it).
    pub wall_s: f64,
    /// The work the slice offered the simulator, in the unit host time is
    /// costed by: events dispatched, or — for a batch sweep, which is timed
    /// whole and whose result tables carry no counters — virtual seconds.
    pub load: f64,
}

/// One timed repetition.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    /// Host seconds from `SimConfig` to the first `run_until` (for the
    /// batch: the whole sweep at zero duration), once per time the set-up
    /// was made.
    pub setups: Vec<f64>,
    /// The run phase, slice by slice (for the batch: the whole sweep).
    pub slices: Vec<Slice>,
    /// Virtual seconds simulated (summed over cells for the batch).
    pub sim_s: f64,
    /// What the repetition computed.
    pub outcome: Outcome,
}

impl Rep {
    /// Host seconds of the run phase.
    pub fn run_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// Load offered per virtual second.
    pub fn load_rate(&self) -> f64 {
        self.slices.iter().map(|s| s.load).sum::<f64>() / self.sim_s
    }
}

/// Everything a repetition computed that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The simulator's event digest (folded over cells for the batch; a
    /// digest of the rendered result tables for an untraced batch sweep).
    pub trace_hash: u64,
    /// The simulator's work counters (summed over cells; zero for an
    /// untraced batch sweep, whose API returns tables only).
    pub perf: RunPerf,
    /// Counters read from reports, summaries and observers.
    pub counts: Counts,
    /// Aggregate goodput of all flows in kbit/s (mean per cell for the
    /// batch).
    pub goodput_kbps: f64,
}

/// Per-layer counters that are not in [`RunPerf`]. Sums over nodes, flows
/// and — for the batch — cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulations behind these counts (1, or the sweep's cell count).
    pub cells: u64,
    /// Virtual seconds simulated, over all cells.
    pub virtual_secs: u64,
    /// Corrupted receptions observed by MACs.
    pub collisions: u64,
    /// Packets the MAC gave up on after its retry limit.
    pub mac_drops: u64,
    /// Interface-queue overflow drops.
    pub ifq_drops: u64,
    /// Route discoveries originated.
    pub discoveries: u64,
    /// RREQ packets sent (originated and rebroadcast).
    pub rreq_sent: u64,
    /// Data packets dropped by routing.
    pub aodv_drops: u64,
    /// Data segments sent, retransmissions included.
    pub segments_sent: u64,
    /// Retransmitted data segments.
    pub retransmissions: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// ACKs (new and duplicate) received by Muzha senders.
    pub muzha_acks: u64,
    /// ACKs (new and duplicate) received by the other senders.
    pub other_acks: u64,
    /// In-order segments delivered to receivers.
    pub delivered_segments: u64,
    /// In-order payload bytes delivered to receivers.
    pub delivered_bytes: u64,
    /// Records the trace log kept.
    pub records_kept: u64,
    /// Invariant violations the checker recorded.
    pub violations: u64,
    /// Injected packets with no terminal event at the end of the run.
    pub ledger_in_flight: u64,
    /// Runs whose conservation ledger did not balance.
    pub ledger_unbalanced: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Total encoded size of those snapshots.
    pub snapshot_bytes: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.cells += o.cells;
        self.virtual_secs += o.virtual_secs;
        self.collisions += o.collisions;
        self.mac_drops += o.mac_drops;
        self.ifq_drops += o.ifq_drops;
        self.discoveries += o.discoveries;
        self.rreq_sent += o.rreq_sent;
        self.aodv_drops += o.aodv_drops;
        self.segments_sent += o.segments_sent;
        self.retransmissions += o.retransmissions;
        self.timeouts += o.timeouts;
        self.muzha_acks += o.muzha_acks;
        self.other_acks += o.other_acks;
        self.delivered_segments += o.delivered_segments;
        self.delivered_bytes += o.delivered_bytes;
        self.records_kept += o.records_kept;
        self.violations += o.violations;
        self.ledger_in_flight += o.ledger_in_flight;
        self.ledger_unbalanced += o.ledger_unbalanced;
        self.snapshots += o.snapshots;
        self.snapshot_bytes += o.snapshot_bytes;
    }
}

/// Reads a finished simulator's digest, counters and observers. Seals and
/// removes the checker, hence `&mut`.
fn outcome_of(sim: &mut Simulator, snapshots: SnapshotTally) -> Outcome {
    let virtual_secs = sim.now().saturating_since(SimTime::ZERO).as_secs_f64();
    let mut counts = Counts {
        cells: 1,
        virtual_secs: virtual_secs as u64,
        snapshots: snapshots.taken,
        snapshot_bytes: snapshots.bytes,
        records_kept: sim.trace_log().map_or(0, |log| log.len() as u64),
        ..Counts::default()
    };
    for (i, node) in sim.all_node_summaries().iter().enumerate() {
        let aodv = sim.aodv_stats(NodeId::new(i as u16));
        counts.collisions += node.collisions;
        counts.mac_drops += node.mac_drops;
        counts.ifq_drops += node.queue_drops;
        counts.discoveries += aodv.discoveries;
        counts.rreq_sent += aodv.rreq_sent;
        counts.aodv_drops += aodv.data_drops;
    }
    for flow in sim.all_flow_reports() {
        let acks = flow.sender.acked_segments + flow.sender.dupacks;
        if flow.variant == TcpVariant::Muzha {
            counts.muzha_acks += acks;
        } else {
            counts.other_acks += acks;
        }
        counts.segments_sent += flow.sender.segments_sent;
        counts.retransmissions += flow.sender.retransmissions;
        counts.timeouts += flow.sender.timeouts;
        counts.delivered_segments += flow.delivered_segments;
        counts.delivered_bytes += flow.delivered_bytes;
    }
    if let Some(checker) = sim.take_checker() {
        let ledger = checker.ledger();
        let accounted = ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight;
        counts.violations = checker.violations().len() as u64;
        counts.ledger_in_flight = ledger.in_flight;
        counts.ledger_unbalanced = u64::from(ledger.injected != accounted);
    }
    Outcome {
        trace_hash: sim.trace_hash(),
        perf: sim.perf(),
        goodput_kbps: kbps(counts.delivered_bytes, virtual_secs),
        counts,
    }
}

fn kbps(bytes: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 * 8.0 / secs / 1_000.0
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// The batch workload
// ---------------------------------------------------------------------------

fn sweep_seeds(seed: u64) -> Vec<u64> {
    (0..SWEEP_SEEDS).map(|i| seed.wrapping_mul(SWEEP_SEEDS).wrapping_add(i)).collect()
}

/// The figure-regeneration job as users run it: the chain sweep of
/// Figs. 5.8–5.13 at window 32 plus the cross-4 coexistence pair of
/// Fig. 5.15, through the harness experiments at `jobs` workers.
fn paper_sweep(seed: u64, virtual_secs: u64, jobs: usize) -> (ChainSweep, CoexistResult) {
    let cfg = ExperimentConfig {
        seeds: sweep_seeds(seed),
        duration: SimDuration::from_secs(virtual_secs),
        base: SimConfig::default(),
        jobs,
    };
    let chains =
        experiments::throughput_vs_hops(&SWEEP_HOPS, &[SWEEP_WINDOW], &TcpVariant::PAPER, &cfg);
    let cross = experiments::coexistence(&[CROSS_HOPS], &[CROSS_PAIR], &cfg);
    (chains, cross)
}

/// Number of simulations in one sweep.
pub fn sweep_cell_count() -> u64 {
    (SWEEP_HOPS.len() * TcpVariant::PAPER.len() + 1) as u64 * SWEEP_SEEDS
}

/// Host seconds the sweep takes at `jobs` workers (0 = one per core).
pub fn time_sweep(seed: u64, virtual_secs: u64, jobs: usize) -> f64 {
    let clock = WallClock::start();
    std::hint::black_box(paper_sweep(seed, virtual_secs, jobs));
    clock.elapsed_secs()
}

fn sweep_rep(seed: u64, virtual_secs: u64) -> Rep {
    // Set-up of a sweep is spread over its cells, so it is measured as the
    // same sweep at zero duration: every simulator is built, every flow
    // registered, every worker started, and nothing is simulated.
    let (setups, ()) = time_setups(|| {
        std::hint::black_box(paper_sweep(seed, 0, 0));
    });
    let clock = WallClock::start();
    let (chains, cross) = paper_sweep(seed, virtual_secs, 0);
    let run_s = clock.elapsed_secs();
    let cells = sweep_cell_count();
    let per_cell_kbps: f64 = chains.points.iter().map(|p| p.throughput_kbps.mean).sum::<f64>()
        + cross.runs.iter().map(|r| r.aggregate_kbps.mean).sum::<f64>();
    let mut digest = TraceHash::new();
    digest.write_str(&format!("{chains:?}{cross:?}"));
    let outcome = Outcome {
        trace_hash: digest.digest(),
        perf: RunPerf::default(),
        counts: Counts { cells, virtual_secs: cells * virtual_secs, ..Counts::default() },
        goodput_kbps: per_cell_kbps / (cells / SWEEP_SEEDS) as f64,
    };
    let sim_s = (cells * virtual_secs) as f64;
    Rep { setups, slices: vec![Slice { wall_s: run_s, load: sim_s }], sim_s, outcome }
}

/// One simulation of the sweep, rebuilt here from public API so the traced
/// pass can read the counters the experiment tables do not carry.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// `Some((hops, variant))` for a chain cell, `None` for the cross.
    chain: Option<(usize, TcpVariant)>,
    seed: u64,
}

impl Cell {
    fn build(&self) -> Simulator {
        let cfg = SimConfig { seed: self.seed, ..SimConfig::default() };
        match self.chain {
            Some((hops, variant)) => {
                let mut sim = Simulator::new(topology::chain(hops), cfg);
                let (src, dst) = topology::chain_flow(hops);
                sim.add_flow(FlowSpec::new(src, dst, variant).with_window(SWEEP_WINDOW));
                sim
            }
            None => {
                let mut sim = Simulator::new(topology::cross(CROSS_HOPS), cfg);
                let (hs, hd) = topology::cross_horizontal_flow(CROSS_HOPS);
                let (vs, vd) = topology::cross_vertical_flow(CROSS_HOPS);
                sim.add_flow(FlowSpec::new(hs, hd, CROSS_PAIR.horizontal));
                sim.add_flow(FlowSpec::new(vs, vd, CROSS_PAIR.vertical));
                sim
            }
        }
    }
}

fn sweep_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &hops in &SWEEP_HOPS {
        for &variant in &TcpVariant::PAPER {
            cells.extend(
                sweep_seeds(seed)
                    .into_iter()
                    .map(|seed| Cell { chain: Some((hops, variant)), seed }),
            );
        }
    }
    cells.extend(sweep_seeds(seed).into_iter().map(|seed| Cell { chain: None, seed }));
    cells
}

/// Re-runs the sweep's cells through `run_batch` at `jobs` workers and sums
/// what each simulator reports.
pub fn sweep_mirror(seed: u64, virtual_secs: u64, jobs: usize) -> Outcome {
    let cells = sweep_cells(seed);
    let outcomes = run_batch(&cells, jobs, |cell, _| {
        let mut sim = cell.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(virtual_secs));
        outcome_of(&mut sim, SnapshotTally::default())
    });
    sum_outcomes(&outcomes)
}

fn sum_outcomes(outcomes: &[Outcome]) -> Outcome {
    let mut digest = TraceHash::new();
    let mut perf = RunPerf::default();
    let mut counts = Counts::default();
    for o in outcomes {
        digest.write_u64(o.trace_hash);
        counts.add(&o.counts);
        let p = &o.perf;
        perf.events_processed += p.events_processed;
        perf.phy_events += p.phy_events;
        perf.mac_events += p.mac_events;
        perf.routing_events += p.routing_events;
        perf.transport_events += p.transport_events;
        perf.mobility_events += p.mobility_events;
        perf.sampling_events += p.sampling_events;
        perf.fault_events += p.fault_events;
        perf.timers_cancelled += p.timers_cancelled;
        perf.timers_stale_popped += p.timers_stale_popped;
        perf.position_updates += p.position_updates;
        perf.link_churn += p.link_churn;
        perf.peak_event_queue = perf.peak_event_queue.max(p.peak_event_queue);
        perf.peak_ifq_depth = perf.peak_ifq_depth.max(p.peak_ifq_depth);
    }
    // Mean goodput per cell: total bytes over total virtual seconds.
    let goodput_kbps = kbps(counts.delivered_bytes, counts.virtual_secs as f64);
    Outcome { trace_hash: digest.digest(), perf, counts, goodput_kbps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("chain9"), None);
    }

    #[test]
    fn scale_workloads_have_the_declared_sizes_and_one_hop_flows() {
        for w in [Workload::Disc100Dense, Workload::City400Waypoint] {
            let sim = w.build(1);
            assert_eq!(sim.node_count(), w.node_count());
            let flows = sim.all_flow_reports();
            assert_eq!(flows.len(), SCALE_FLOWS);
            for flow in flows {
                let apart = sim.position(flow.src).distance_to(sim.position(flow.dst));
                // Strictly inside: delivery must not hang on `<` against `<=`.
                assert!(apart < 240.0, "{:?} -> {:?} are {apart} m apart", flow.src, flow.dst);
            }
        }
        assert_eq!(Workload::Chain8Muzha.build(1).node_count(), Workload::Chain8Muzha.node_count());
    }

    #[test]
    fn geometry_is_fixed_and_the_seed_drives_the_run() {
        let w = Workload::City400Waypoint;
        let (a, b) = (w.build(1), w.build(2));
        assert!((0..400).all(|i| a.position(NodeId::new(i)) == b.position(NodeId::new(i))));
        assert_ne!(w.run_rep(1, 1).outcome.trace_hash, w.run_rep(2, 1).outcome.trace_hash);
    }

    #[test]
    fn a_repetition_is_timed_slice_by_slice_and_computes_what_one_call_does() {
        let w = Workload::Disc100Dense;
        let rep = w.run_rep(1, 1);
        assert_eq!(rep.slices.len() as u64, 1_000 / w.slice_ms());
        let load: f64 = rep.slices.iter().map(|s| s.load).sum();
        assert_eq!(load, rep.outcome.perf.events_processed as f64);
        assert!(rep.slices.iter().all(|s| s.wall_s > 0.0 && s.load > 0.0));
        assert!((1..=SETUPS_PER_REP).contains(&rep.setups.len()));
        let mut whole = w.build(1);
        whole.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(whole.trace_hash(), rep.outcome.trace_hash);
        assert_eq!(whole.perf(), rep.outcome.perf);
    }

    #[test]
    fn set_ups_are_made_at_least_once_and_the_last_is_kept() {
        let mut made = 0;
        let (setups, last) = time_setups(|| {
            made += 1;
            made
        });
        assert_eq!(setups.len(), SETUPS_PER_REP.min(last));
        assert_eq!(last, made);
    }

    #[test]
    fn sweep_cells_cover_the_experiment_matrix() {
        assert_eq!(sweep_cells(3).len() as u64, sweep_cell_count());
        assert_eq!(sweep_cell_count(), 26);
        assert_ne!(sweep_seeds(3), sweep_seeds(4));
    }
}
