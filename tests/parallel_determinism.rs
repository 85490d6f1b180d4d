//! Parallel-equals-serial determinism: the batch engine's core promise.
//!
//! Fanning experiment runs across worker threads must be a pure wall-clock
//! optimisation — every rendered table, every CSV byte, and every perf
//! counter must be identical to the serial output, because each
//! `(combo, seed)` run owns a fresh simulator with its own seeded RNG and
//! results are collected by submission index, never by completion order.
//! Each batch is held against parallel runs at two workers (the calling
//! thread and one it starts), at more workers than the batch has cells, and
//! at one worker per core twice, the second time on the core count the
//! process kept.

use sim_core::twin_run;
use tcp_muzha::experiments::{
    ablations, coexistence, cwnd_traces_batch, run_batch, throughput_dynamics_batch,
    throughput_vs_hops, CoexistKind, ExperimentConfig, SweepMetric,
};
use tcp_muzha::export;
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::sim::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [11, 23, 37];

fn cfg(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        seeds: SEEDS.to_vec(),
        duration: SimDuration::from_secs(4),
        base: SimConfig::default(),
        jobs,
    }
}

/// The job counts a batch of `cells` is held against besides one: two, one
/// above the cell count, and `0` (one per core) twice, so that at least the
/// second run reads the count the process kept.
fn parallel_jobs(cells: usize) -> [usize; 4] {
    [2, cells + 1, 0, 0]
}

#[test]
fn parallel_chain_sweep_tables_and_csv_are_byte_identical() {
    let hops = [2usize, 4];
    let windows = [4u32, 8];
    let variants = [TcpVariant::NewReno, TcpVariant::Muzha];
    let serial = throughput_vs_hops(&hops, &windows, &variants, &cfg(1));
    let cells = hops.len() * windows.len() * variants.len() * SEEDS.len();
    for jobs in parallel_jobs(cells) {
        let parallel = throughput_vs_hops(&hops, &windows, &variants, &cfg(jobs));
        for w in windows {
            for metric in [SweepMetric::ThroughputKbps, SweepMetric::Retransmissions] {
                assert_eq!(
                    serial.render(w, metric),
                    parallel.render(w, metric),
                    "jobs {jobs}, window {w}: parallel table must match serial byte for byte"
                );
            }
        }
        assert_eq!(export::sweep_csv(&serial), export::sweep_csv(&parallel), "jobs {jobs}: CSV");
    }

    // The sweep's `RunPerf` blocks, one a chain cell, through the same engine.
    let chains: Vec<(usize, TcpVariant, u64)> = hops
        .iter()
        .flat_map(|&h| variants.iter().flat_map(move |&v| SEEDS.map(|seed| (h, v, seed))))
        .collect();
    let perf_blocks = |jobs| {
        run_batch(&chains, jobs, |&(hops, variant, seed), _| {
            let mut sim =
                Simulator::new(topology::chain(hops), SimConfig { seed, ..SimConfig::default() });
            let (src, dst) = topology::chain_flow(hops);
            sim.add_flow(FlowSpec::new(src, dst, variant));
            sim.run_until(SimTime::from_secs_f64(2.0));
            format!("{:?}", sim.perf())
        })
    };
    let serial = perf_blocks(1);
    for jobs in parallel_jobs(chains.len()) {
        assert_eq!(perf_blocks(jobs), serial, "jobs {jobs}: RunPerf blocks");
    }
}

#[test]
fn parallel_coexistence_output_is_byte_identical() {
    let pairs = [CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha }];
    let serial = coexistence(&[4], &pairs, &cfg(1));
    for jobs in parallel_jobs(SEEDS.len()) {
        let parallel = coexistence(&[4], &pairs, &cfg(jobs));
        assert_eq!(serial.render(), parallel.render(), "jobs {jobs}: table");
        assert_eq!(
            export::coexist_csv(&serial),
            export::coexist_csv(&parallel),
            "jobs {jobs}: CSV"
        );
    }
    // `reproduce`'s ablation step: the same pair under each DRAI variant,
    // beside a batch of single-flow chain runs.
    let cross = SimDuration::from_secs(4);
    assert_eq!(ablations(&cfg(1), cross), ablations(&cfg(3), cross));
}

#[test]
fn parallel_trace_batches_match_serial() {
    let duration = SimDuration::from_secs(3);
    let variants = [TcpVariant::NewReno, TcpVariant::Muzha];
    let serial = cwnd_traces_batch(&[2, 4], &variants, duration, SimConfig::default(), 1);
    let parallel = cwnd_traces_batch(&[2, 4], &variants, duration, SimConfig::default(), 4);
    assert_eq!(serial.len(), parallel.len());
    for (s_group, p_group) in serial.iter().zip(&parallel) {
        for (s, p) in s_group.iter().zip(p_group) {
            assert_eq!(s.variant, p.variant);
            assert_eq!(s.trace.samples(), p.trace.samples(), "{}: trace diverged", s.variant);
        }
    }

    let window = SimDuration::from_secs(1);
    let serial = throughput_dynamics_batch(&variants, duration, window, SimConfig::default(), 1);
    let parallel = throughput_dynamics_batch(&variants, duration, window, SimConfig::default(), 3);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.render(), p.render(), "{}: dynamics series diverged", s.variant.name());
    }
}

#[test]
fn perf_counters_are_twin_deterministic() {
    // RunPerf counts virtual events only, so twin runs must agree exactly —
    // and the counters must describe a real run, fully classified.
    let perf = twin_run(|| {
        let cfg = SimConfig { seed: 42, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(SimTime::from_secs_f64(5.0));
        sim.perf()
    });
    assert!(perf.events_processed > 0, "a 5 s run must dispatch events");
    assert_eq!(
        perf.classified_total(),
        perf.events_processed,
        "every dispatched event must be classified into exactly one subsystem"
    );
    assert!(perf.phy_events > 0, "radio traffic must dominate a healthy run");
    assert!(perf.transport_events > 0);
    assert!(perf.peak_event_queue > 0);
    assert!(perf.peak_ifq_depth > 0);
}

#[test]
fn run_report_bundles_flows_nodes_and_perf() {
    let cfg = SimConfig { seed: 7, ..SimConfig::default() };
    let mut sim = Simulator::new(topology::chain(3), cfg);
    let (src, dst) = topology::chain_flow(3);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    sim.run_until(SimTime::from_secs_f64(3.0));
    let report = sim.run_report();
    assert_eq!(report.flows.len(), 1);
    assert_eq!(report.nodes.len(), sim.node_count());
    assert_eq!(report.perf, sim.perf());
    assert!(report.perf.events_processed > 0);
}
