//! Twin-run determinism regression: the runtime counterpart of the static
//! determinism policy (the root `clippy.toml`, enforced by
//! `cargo clippy --workspace --all-targets -- -D warnings`).
//!
//! Two simulators built from the same topology, config and seed are run
//! through identical schedules; their per-flow statistics *and* the
//! event-trace digest must match bit for bit. The digest folds every
//! dispatched event in order, so even a transient divergence that happens
//! to converge by the end of the run (e.g. a hash-ordered retransmit that
//! costs the same throughput) still turns the test red.

use sim_core::twin_run;
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::phy::RadioParams;
use tcp_muzha::sim::SimTime;
use tcp_muzha::tracelog::{FlowSeries, Layer, TraceFilter, TraceLog};

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

#[test]
fn same_seed_runs_are_identical_including_trace_hash() {
    for variant in [TcpVariant::NewReno, TcpVariant::Muzha] {
        twin_run(|| {
            let cfg = SimConfig { seed: 0xC0FFEE, ..SimConfig::default() };
            let mut sim = Simulator::new(topology::chain(5), cfg);
            let (src, dst) = topology::chain_flow(5);
            let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
            sim.install_trace_log(TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt)));
            sim.run_until(secs(6.0));
            let log = sim.take_trace_log().expect("log was installed");
            let r = sim.flow_report(flow);
            (
                sim.trace_hash(),
                r.delivered_segments,
                r.sender.segments_sent,
                r.sender.retransmissions,
                FlowSeries::collect(flow, None, log.iter()).cwnd.samples().to_vec(),
            )
        });
    }
}

#[test]
fn same_seed_runs_are_identical_under_loss_and_mobility() {
    // Random loss and random-waypoint motion exercise every RNG consumer;
    // mobility exercises the movements table (formerly hash-ordered).
    let digest = twin_run(|| {
        let radio = RadioParams { per_frame_loss: 0.02, ..RadioParams::default() };
        let cfg = SimConfig { seed: 7, radio, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::cross(4), cfg);
        let (hs, hd) = topology::cross_horizontal_flow(4);
        let (vs, vd) = topology::cross_vertical_flow(4);
        let f1 = sim.add_flow(FlowSpec::new(hs, hd, TcpVariant::Muzha));
        let f2 = sim.add_flow(FlowSpec::new(vs, vd, TcpVariant::Vegas));
        sim.run_until(secs(8.0));
        (
            sim.trace_hash(),
            sim.flow_report(f1).delivered_segments,
            sim.flow_report(f2).delivered_segments,
        )
    });
    // Sanity: the digest must reflect a real event stream, not an empty run.
    assert_ne!(digest.0, sim_core::TraceHash::new().digest());
}

#[test]
fn different_seeds_produce_different_traces() {
    // The digest must actually be sensitive to the schedule: two different
    // seeds on a lossy link should (overwhelmingly) diverge.
    let run = |seed: u64| {
        let radio = RadioParams { per_frame_loss: 0.05, ..RadioParams::default() };
        let cfg = SimConfig { seed, radio, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.run_until(secs(4.0));
        sim.trace_hash()
    };
    assert_ne!(run(1), run(2), "trace digest is insensitive to the seed");
}
