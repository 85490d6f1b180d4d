//! Every cell `reproduce --quick` runs, pinned by name: one row per
//! Chapter-5 cell (`trace_hash`, delivered bytes, events processed) at a
//! short horizon, plus one digest per experiment entry point over the
//! `Debug` of what it returns.
//!
//! The cell rows build each simulator by hand, the way the experiments
//! placed and populated it when the fixture was committed; the group rows
//! run the experiments themselves. A change to how an experiment builds its
//! cells that keeps what they do leaves both byte-identical. Every cell but
//! the ablations' (whose DRAI thresholds and cadence no run-file line
//! spells) is also written as run-file text, which must build the same row.
//!
//! A legitimate behaviour change regenerates the fixture from the table the
//! failure prints — and says so in its commit.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

use tcp_muzha::experiments::{
    ablations, coexistence, cwnd_traces_batch, run_batch, throughput_dynamics_batch,
    throughput_vs_hops, CoexistKind, ExperimentConfig,
};
use tcp_muzha::faultline::ScenarioScript;
use tcp_muzha::muzha::{AdjustmentCadence, DraiConfig};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::run::Run;
use tcp_muzha::sim::{SimDuration, SimTime, TraceHash};
use tcp_muzha::tracelog::{Layer, TraceFilter, TraceLog};

/// How long every cell runs, dynamics aside.
const HORIZON: SimDuration = SimDuration::from_secs(2);
/// Dynamics cells run until all three flow starts (0, 10, 20 s) have fired.
const DYNAMICS_HORIZON: SimDuration = SimDuration::from_secs(21);
/// The seeds `reproduce --quick` averages over, ablations aside.
const SEEDS: [u64; 2] = [11, 23];
/// The ablations' own seeds.
const ABLATION_SEEDS: [u64; 3] = [11, 23, 37];
/// The chain lengths of the cwnd traces and of the quick sweep.
const CHAIN_HOPS: [usize; 3] = [4, 8, 16];
/// The cross arm lengths of the coexistence runs.
const CROSS_HOPS: [usize; 3] = [4, 6, 8];
/// The sweep's advertised windows.
const WINDOWS: [u32; 3] = [4, 8, 32];
/// The chain and cross of the ablation rows.
const ABLATION_HOPS: usize = 4;

/// The coexisting pairs, horizontal first.
fn pairs() -> [CoexistKind; 2] {
    [
        CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Vegas },
        CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha },
    ]
}

/// The ablations' DRAI rows, as `harness::experiments::ablations` names them.
fn drai_variants() -> [(&'static str, DraiConfig); 5] {
    let full = DraiConfig::default();
    let no_util_cap = DraiConfig {
        util_moderate_above: 2.0,
        util_stable_above: 2.0,
        util_decel_above: 2.0,
        ..full
    };
    let queue_only = DraiConfig {
        retry_stable_above: 2.0,
        retry_decel_above: 2.0,
        mark_retry_above: 2.0,
        ..no_util_cap
    };
    [
        ("full", full),
        ("no-marking", DraiConfig { mark_at: f64::INFINITY, mark_retry_above: 2.0, ..full }),
        ("no-util-cap", no_util_cap),
        ("queue-only", queue_only),
        ("ecn-binary", DraiConfig::ecn_like()),
    ]
}

/// One cell of a quick reproduction.
#[derive(Clone, Copy, Debug)]
enum Cell {
    /// Figs 5.2–5.7: one flow on a chain, the transport layer traced.
    Cwnd { hops: usize, variant: TcpVariant },
    /// Figs 5.8–5.13: one flow on a chain at an advertised window.
    Sweep { hops: usize, window: u32, variant: TcpVariant, seed: u64 },
    /// Figs 5.15–5.18: a horizontal and a vertical flow on a cross.
    Coexist { hops: usize, kind: CoexistKind, seed: u64 },
    /// Figs 5.19–5.22: three staggered flows of one variant on a 4-hop chain.
    Dynamics { variant: TcpVariant },
    /// A DRAI or cadence row: one Muzha flow on the 4-hop chain.
    AblationChain { row: &'static str, drai: DraiConfig, cadence: AdjustmentCadence, seed: u64 },
    /// A DRAI row: NewReno beside Muzha on the 4-hop cross.
    AblationCross { row: &'static str, drai: DraiConfig, seed: u64 },
}

/// Every cell, in the order `reproduce --quick` runs them.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for hops in CHAIN_HOPS {
        for variant in TcpVariant::PAPER {
            cells.push(Cell::Cwnd { hops, variant });
        }
    }
    for window in WINDOWS {
        for hops in CHAIN_HOPS {
            for variant in TcpVariant::PAPER {
                for seed in SEEDS {
                    cells.push(Cell::Sweep { hops, window, variant, seed });
                }
            }
        }
    }
    for hops in CROSS_HOPS {
        for kind in pairs() {
            for seed in SEEDS {
                cells.push(Cell::Coexist { hops, kind, seed });
            }
        }
    }
    for variant in TcpVariant::PAPER {
        cells.push(Cell::Dynamics { variant });
    }
    let chain_rows = drai_variants()
        .map(|(row, drai)| (row, drai, AdjustmentCadence::default()))
        .into_iter()
        .chain([
            ("per-rtt", DraiConfig::default(), AdjustmentCadence::PerRtt),
            ("per-ack", DraiConfig::default(), AdjustmentCadence::PerAck),
        ]);
    for (row, drai, cadence) in chain_rows {
        for seed in ABLATION_SEEDS {
            cells.push(Cell::AblationChain { row, drai, cadence, seed });
        }
    }
    for (row, drai) in drai_variants() {
        for seed in ABLATION_SEEDS {
            cells.push(Cell::AblationCross { row, drai, seed });
        }
    }
    cells
}

impl Cell {
    /// The cell's name in the fixture.
    fn name(&self) -> String {
        match *self {
            Cell::Cwnd { hops, variant } => format!("cwnd chain:{hops} {variant}"),
            Cell::Sweep { hops, window, variant, seed } => {
                format!("sweep chain:{hops} w{window} {variant} s{seed}")
            }
            Cell::Coexist { hops, kind, seed } => {
                format!("coexist cross:{hops} {}/{} s{seed}", kind.horizontal, kind.vertical)
            }
            Cell::Dynamics { variant } => format!("dynamics chain:4 {variant}"),
            Cell::AblationChain { row, seed, .. } => format!("ablation chain:4 {row} s{seed}"),
            Cell::AblationCross { row, seed, .. } => format!("ablation cross:4 {row} s{seed}"),
        }
    }

    /// When the cell's run stops.
    fn end(&self) -> SimTime {
        match self {
            Cell::Dynamics { .. } => SimTime::ZERO + DYNAMICS_HORIZON,
            _ => SimTime::ZERO + HORIZON,
        }
    }

    /// The cell as a run file; `None` for an ablation row.
    fn scn(&self) -> Option<String> {
        let (seed, duration, topology, flows) = match *self {
            Cell::Cwnd { hops, variant } => (
                SimConfig::default().seed,
                HORIZON,
                format!("chain:{hops}"),
                vec![format!("0 {hops} {variant}")],
            ),
            Cell::Sweep { hops, window, variant, seed } => (
                seed,
                HORIZON,
                format!("chain:{hops}"),
                vec![format!("0 {hops} {variant} 0 {window}")],
            ),
            Cell::Coexist { hops, kind, seed } => (
                seed,
                HORIZON,
                format!("cross:{hops}"),
                vec![
                    format!("0 {hops} {}", kind.horizontal),
                    format!("{} {} {}", hops + 1, 2 * hops, kind.vertical),
                ],
            ),
            Cell::Dynamics { variant } => (
                SimConfig::default().seed,
                DYNAMICS_HORIZON,
                "chain:4".to_string(),
                [0, 10, 20].map(|start| format!("0 4 {variant} {start}")).to_vec(),
            ),
            Cell::AblationChain { .. } | Cell::AblationCross { .. } => return None,
        };
        let mut text = format!(
            "name {}\nseed {seed}\nduration {}\ntopology {topology}\n",
            self.name().replace(' ', "-"),
            duration.as_secs_f64()
        );
        for flow in flows {
            text.push_str(&format!("flow {flow}\n"));
        }
        Some(text)
    }

    /// The cell's simulator at t = 0, placed and populated by hand.
    fn by_hand(&self) -> Simulator {
        let seeded = |seed| SimConfig { seed, ..SimConfig::default() };
        let chain = |hops, cfg, flows: &[FlowSpec]| {
            let mut sim = Simulator::new(topology::chain(hops), cfg);
            for &flow in flows {
                sim.add_flow(flow);
            }
            sim
        };
        let cross = |hops, cfg, horizontal, vertical| {
            let mut sim = Simulator::new(topology::cross(hops), cfg);
            let (hs, hd) = topology::cross_horizontal_flow(hops);
            let (vs, vd) = topology::cross_vertical_flow(hops);
            sim.add_flow(FlowSpec::new(hs, hd, horizontal));
            sim.add_flow(FlowSpec::new(vs, vd, vertical));
            sim
        };
        match *self {
            Cell::Cwnd { hops, variant } => {
                let (src, dst) = topology::chain_flow(hops);
                let mut sim =
                    chain(hops, SimConfig::default(), &[FlowSpec::new(src, dst, variant)]);
                sim.install_trace_log(TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt)));
                sim
            }
            Cell::Sweep { hops, window, variant, seed } => {
                let (src, dst) = topology::chain_flow(hops);
                chain(hops, seeded(seed), &[FlowSpec::new(src, dst, variant).with_window(window)])
            }
            Cell::Coexist { hops, kind, seed } => {
                cross(hops, seeded(seed), kind.horizontal, kind.vertical)
            }
            Cell::Dynamics { variant } => {
                let (src, dst) = topology::chain_flow(4);
                let flows = [0, 10, 20].map(|s| {
                    FlowSpec::new(src, dst, variant)
                        .starting_at(SimTime::ZERO + SimDuration::from_secs(s))
                });
                chain(4, SimConfig::default(), &flows)
            }
            Cell::AblationChain { drai, cadence, seed, .. } => {
                let (src, dst) = topology::chain_flow(ABLATION_HOPS);
                let flow = FlowSpec::new(src, dst, TcpVariant::Muzha).with_muzha_cadence(cadence);
                chain(ABLATION_HOPS, SimConfig { drai, ..seeded(seed) }, &[flow])
            }
            Cell::AblationCross { drai, seed, .. } => cross(
                ABLATION_HOPS,
                SimConfig { drai, ..seeded(seed) },
                TcpVariant::NewReno,
                TcpVariant::Muzha,
            ),
        }
    }
}

/// A finished run as a fixture row: name, trace hash, delivered bytes and
/// events processed.
fn row(name: &str, sim: &Simulator) -> String {
    let delivered: u64 = sim.run_report().flows.iter().map(|f| f.delivered_bytes).sum();
    format!("{name} {:016x} {delivered} {}", sim.trace_hash(), sim.perf().events_processed)
}

/// Runs `sim` to `end` and renders its row.
fn finish(name: &str, mut sim: Simulator, end: SimTime) -> String {
    sim.run_until(end);
    row(name, &sim)
}

/// The committed rows whose first word is (`true`) or is not `group`.
fn committed(groups: bool) -> Vec<&'static str> {
    include_str!("fixtures/cell_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter(|l| l.starts_with("group ") == groups)
        .collect()
}

fn assert_committed(rows: &[String], groups: bool) {
    assert!(
        rows == committed(groups).as_slice(),
        "cells changed against tests/fixtures/cell_digests.txt; this build produces:\n{}\n",
        rows.join("\n")
    );
}

#[test]
fn every_quick_cell_matches_the_committed_fixture() {
    let cells = cells();
    assert_eq!(cells.len(), 12 + 72 + 12 + 4 + 36);
    let rows = run_batch(&cells, 0, |cell, _| finish(&cell.name(), cell.by_hand(), cell.end()));
    assert_committed(&rows, false);
}

/// Each non-ablation cell, read from its run-file text and built by
/// `Run::build`, is the row its hand-built twin committed. The twins install
/// no trace log: an observer changes none of a row's columns.
#[test]
fn every_non_ablation_cell_is_its_run_file_twin() {
    let cells: Vec<(String, String)> =
        cells().iter().filter_map(|cell| Some((cell.name(), cell.scn()?))).collect();
    assert_eq!(cells.len(), 12 + 72 + 12 + 4);
    let rows = run_batch(&cells, 0, |(name, text), _| {
        let script = ScenarioScript::parse(text).unwrap_or_else(|e| panic!("{e} in\n{text}"));
        let run = Run::from_script(&script).unwrap_or_else(|e| panic!("{e} in\n{text}"));
        finish(name, run.build(), run.end())
    });
    let committed: Vec<&str> = committed(false)
        .into_iter()
        .filter(|row| cells.iter().any(|(name, _)| row.starts_with(&format!("{name} "))))
        .collect();
    assert!(
        rows == committed,
        "a run-file twin differs from its hand-built cell; the twins produce:\n{}\n",
        rows.join("\n")
    );
}

/// One digest per experiment entry point, over the `Debug` of its result,
/// at quick's hops, seeds and pairs and the cells' horizons.
#[test]
fn every_experiment_entry_point_matches_the_committed_fixture() {
    let digest = |name: &str, result: &dyn std::fmt::Debug| {
        let mut h = TraceHash::new();
        h.write_str(&format!("{result:?}"));
        format!("group {name} {:016x}", h.digest())
    };
    let quick = |seeds: &[u64]| ExperimentConfig {
        seeds: seeds.to_vec(),
        duration: HORIZON,
        base: SimConfig::default(),
        jobs: 0,
    };
    let rows = [
        digest(
            "cwnd_traces_batch",
            &cwnd_traces_batch(&CHAIN_HOPS, &TcpVariant::PAPER, HORIZON, SimConfig::default(), 0),
        ),
        digest(
            "throughput_vs_hops",
            &throughput_vs_hops(&CHAIN_HOPS, &WINDOWS, &TcpVariant::PAPER, &quick(&SEEDS)),
        ),
        digest("coexistence", &coexistence(&CROSS_HOPS, &pairs(), &quick(&SEEDS))),
        digest(
            "throughput_dynamics_batch",
            &throughput_dynamics_batch(
                &TcpVariant::PAPER,
                DYNAMICS_HORIZON,
                SimDuration::from_secs(1),
                SimConfig::default(),
                0,
            ),
        ),
        digest("ablations", &ablations(&quick(&ABLATION_SEEDS), HORIZON)),
    ];
    assert_committed(&rows, true);
}
