//! End-to-end integration tests spanning every crate: PHY → MAC → AODV →
//! TCP → Muzha, driven through the public facade.

use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::phy::{Position, RadioParams};
use tcp_muzha::sim::SimTime;
use tcp_muzha::tracelog::{Layer, TraceFilter, TraceLog, TraceRecord};
use tcp_muzha::wire::NodeId;

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

#[test]
fn every_variant_moves_data_across_a_chain() {
    for variant in TcpVariant::ALL {
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
        sim.run_until(secs(5.0));
        let r = sim.flow_report(flow);
        assert!(
            r.delivered_segments > 20,
            "{variant}: only {} segments in 5 s",
            r.delivered_segments
        );
        // Reliability invariant: in-order delivery never outruns the sender.
        assert!(r.delivered_segments <= r.sender.segments_sent);
    }
}

#[test]
fn delivery_is_reliable_and_in_order() {
    // The receiver acknowledges cumulatively: the `ack` of its successive
    // `TcpAckTx` records never goes back (a repeat is a duplicate ACK), moves
    // forward, and ends at the delivery count the report gives.
    let mut sim = Simulator::new(topology::chain(6), SimConfig::default());
    let (src, dst) = topology::chain_flow(6);
    let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    sim.install_trace_log(TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt)));
    sim.run_until(secs(10.0));
    let log = sim.take_trace_log().expect("log was installed");
    let acks: Vec<(SimTime, u64)> = log
        .iter()
        .filter_map(|e| match e.record {
            TraceRecord::TcpAckTx { ack, .. } => Some((e.at, ack)),
            _ => None,
        })
        .collect();
    assert!(!acks.is_empty());
    for pair in acks.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "time went backwards");
        assert!(pair[0].1 <= pair[1].1, "delivery count went backwards");
    }
    let advances = acks.windows(2).filter(|pair| pair[0].1 < pair[1].1).count();
    assert!(advances > 20, "only {advances} acknowledgements moved forward in 10 s");
    assert_eq!(acks.last().map(|a| a.1), Some(sim.flow_report(flow).delivered_segments));
}

#[test]
fn identical_seeds_are_bit_for_bit_reproducible() {
    let run = || {
        let mut sim = Simulator::new(topology::cross(4), SimConfig::default());
        let (hs, hd) = topology::cross_horizontal_flow(4);
        let (vs, vd) = topology::cross_vertical_flow(4);
        let f1 = sim.add_flow(FlowSpec::new(hs, hd, TcpVariant::NewReno));
        let f2 = sim.add_flow(FlowSpec::new(vs, vd, TcpVariant::Muzha));
        sim.run_until(secs(8.0));
        (
            sim.flow_report(f1).sender,
            sim.flow_report(f2).sender,
            sim.flow_report(f1).delivered_segments,
            sim.flow_report(f2).delivered_segments,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn random_loss_degrades_but_does_not_kill() {
    let mut clean_kbps = 0.0;
    let mut lossy_kbps = 0.0;
    for (loss, out) in [(0.0, &mut clean_kbps), (0.03, &mut lossy_kbps)] {
        let radio = RadioParams { per_frame_loss: loss, ..RadioParams::default() };
        let cfg = SimConfig { radio, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(secs(15.0));
        *out = sim.flow_report(flow).throughput_kbps(sim.now());
    }
    assert!(lossy_kbps > 20.0, "3% frame loss must not kill the flow: {lossy_kbps}");
    assert!(lossy_kbps < clean_kbps, "loss should cost something");
}

#[test]
fn route_break_recovers_via_aodv() {
    // Break the 4-hop chain by moving the middle relay out of range
    // mid-run; AODV has no alternative path, so the flow stalls. Moving it
    // back must let discovery re-establish the route and traffic resume.
    let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
    let (src, dst) = topology::chain_flow(4);
    let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
    sim.run_until(secs(5.0));
    let before = sim.flow_report(flow).delivered_segments;
    assert!(before > 20, "flow must be established first");

    // Teleport node 2 far away: links 1-2 and 2-3 both die.
    let home = sim.position(NodeId::new(2));
    sim.set_position(NodeId::new(2), Position::new(10_000.0, 10_000.0));
    sim.run_until(secs(10.0));
    let during = sim.flow_report(flow).delivered_segments;

    // Bring it home; give TCP time to probe again (RTO backoff may have
    // grown to several seconds during the outage).
    sim.set_position(NodeId::new(2), home);
    sim.run_until(secs(30.0));
    let after = sim.flow_report(flow).delivered_segments;

    assert!(
        after > during + 20,
        "flow must resume after the route heals: {before} -> {during} -> {after}"
    );
}

#[test]
fn killed_relay_partitions_and_revive_heals() {
    // Scripted partition/heal: crashing the middle relay of a 4-hop chain
    // cuts the only path (the flow stalls); reviving it lets AODV
    // re-discover and traffic resume. The invariant checker rides along
    // the whole run and its conservation ledger must account for every
    // injected packet — nothing silently vanishes in the crash.
    use tcp_muzha::faultline::InvariantChecker;
    use tcp_muzha::net::{FaultEvent, TimedFault};

    let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
    let (src, dst) = topology::chain_flow(4);
    let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
    let faults = [
        TimedFault { at: secs(5.0), fault: FaultEvent::Kill { node: NodeId::new(2) } },
        TimedFault { at: secs(10.0), fault: FaultEvent::Revive { node: NodeId::new(2) } },
    ];
    sim.load_faults(&faults);
    sim.install_checker(InvariantChecker::new());

    sim.run_until(secs(5.0));
    let before = sim.flow_report(flow).delivered_segments;
    assert!(before > 20, "flow must be established before the crash");

    sim.run_until(secs(10.0));
    let during = sim.flow_report(flow).delivered_segments;
    assert!(
        during < before + 10,
        "flow must stall while the only relay is dead: {before} -> {during}"
    );

    // Give TCP time to climb out of its RTO backoff after the heal.
    sim.run_until(secs(30.0));
    let after = sim.flow_report(flow).delivered_segments;
    assert!(
        after > during + 20,
        "flow must resume after the revive: {before} -> {during} -> {after}"
    );

    let checker = sim.take_checker().expect("checker was installed");
    assert!(checker.is_clean(), "invariant violations:\n{:?}", checker.violations());
    let ledger = checker.ledger();
    assert_eq!(
        ledger.injected,
        ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight,
        "conservation ledger must balance: {ledger:?}"
    );
    assert!(
        ledger.in_flight < 100,
        "no silent undercounting: in-flight at end of run should be a \
         window's worth at most, got {ledger:?}"
    );
    assert!(ledger.delivered > 0 && ledger.injected > ledger.delivered);
}

#[test]
fn three_flow_chain_shares_capacity() {
    let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
    let (src, dst) = topology::chain_flow(4);
    let flows: Vec<_> = (0..3)
        .map(|i| {
            sim.add_flow(
                FlowSpec::new(src, dst, TcpVariant::Muzha).starting_at(secs(i as f64 * 5.0)),
            )
        })
        .collect();
    sim.run_until(secs(25.0));
    let delivered: Vec<u64> =
        flows.iter().map(|&f| sim.flow_report(f).delivered_segments).collect();
    for (i, &d) in delivered.iter().enumerate() {
        assert!(d > 10, "flow {i} starved: {delivered:?}");
    }
}

#[test]
fn non_adjacent_nodes_cannot_communicate_without_relays() {
    // Two nodes 500 m apart with nothing in between: no route can form.
    let positions = vec![Position::new(0.0, 0.0), Position::new(500.0, 0.0)];
    let mut sim = Simulator::new(positions, SimConfig::default());
    let flow = sim.add_flow(FlowSpec::new(NodeId::new(0), NodeId::new(1), TcpVariant::NewReno));
    sim.run_until(secs(10.0));
    assert_eq!(sim.flow_report(flow).delivered_segments, 0);
}

#[test]
fn larger_advertised_window_never_breaks_delivery() {
    for window in [1u32, 2, 4, 16, 64] {
        let mut sim = Simulator::new(topology::chain(3), SimConfig::default());
        let (src, dst) = topology::chain_flow(3);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno).with_window(window));
        sim.run_until(secs(5.0));
        let r = sim.flow_report(flow);
        assert!(r.delivered_segments > 10, "window {window}: {}", r.delivered_segments);
    }
}

#[test]
fn simulator_time_is_monotone_across_calls() {
    let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
    let (src, dst) = topology::chain_flow(2);
    let _ = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Reno));
    for step in 1..=10 {
        sim.run_until(secs(step as f64 * 0.5));
        assert_eq!(sim.now(), secs(step as f64 * 0.5));
    }
}
