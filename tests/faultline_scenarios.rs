//! Scenario-driven protocol regression tests for the faultline subsystem:
//! scripted faults applied to full simulations, checked by the runtime
//! invariant checker.

use tcp_muzha::faultline::InvariantChecker;
use tcp_muzha::net::{
    topology, FaultEvent, FlowSpec, SimConfig, Simulator, TcpVariant, TimedFault,
};
use tcp_muzha::sim::SimTime;
use tcp_muzha::wire::NodeId;

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn at(s: f64, fault: FaultEvent) -> TimedFault {
    TimedFault { at: secs(s), fault }
}

/// The satellite regression from the issue: a scripted link break
/// mid-transfer on a 4-hop chain must make the upstream node emit an AODV
/// RERR and re-discover, the flow must recover once the link heals, and no
/// data may be forwarded over the dead link after its failure was observed
/// (the `aodv-dead-link` invariant stays quiet).
#[test]
fn scripted_link_break_triggers_rerr_and_recovery() {
    let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
    let (src, dst) = topology::chain_flow(4);
    let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    let faults = [
        at(5.0, FaultEvent::LinkDown { a: NodeId::new(2), b: NodeId::new(3) }),
        at(10.0, FaultEvent::LinkUp { a: NodeId::new(2), b: NodeId::new(3) }),
    ];
    sim.load_faults(&faults);
    sim.install_checker(InvariantChecker::new());

    sim.run_until(secs(5.0));
    let before = sim.flow_report(flow).delivered_segments;
    assert!(before > 20, "flow must be established before the break, got {before}");
    let discoveries_before = sim.aodv_stats(src).discoveries;

    sim.run_until(secs(10.0));
    let during = sim.flow_report(flow).delivered_segments;
    // Node 2 was actively relaying data over the broken link: the MAC
    // failure must surface as a route error broadcast.
    assert!(
        sim.aodv_stats(NodeId::new(2)).rerr_sent >= 1,
        "relay upstream of the break must emit a RERR"
    );
    // The chain has no alternative path, so the source re-discovers (and
    // keeps failing) while the link is down.
    assert!(
        sim.aodv_stats(src).discoveries > discoveries_before,
        "source must attempt route re-discovery after the RERR"
    );
    assert!(
        during < before + 20,
        "flow should essentially stall while the only path is down: {before} -> {during}"
    );

    // After the heal, give TCP time to back off its RTO and probe again.
    sim.run_until(secs(30.0));
    let after = sim.flow_report(flow).delivered_segments;
    assert!(
        after > during + 20,
        "flow must recover after the link heals: {before} -> {during} -> {after}"
    );

    let checker = sim.take_checker().expect("checker was installed");
    // Zero violations covers the headline invariants of this scenario:
    // `aodv-dead-link` (no forwarding over the broken link after node 2
    // observed the failure), `aodv-rerr` (the obligation was discharged),
    // and conservation/monotonicity throughout.
    assert!(checker.is_clean(), "invariant violations:\n{:?}", checker.violations());
    assert!(checker.records_seen() > 1000, "checker must have seen the whole run");
}

/// Twin runs of the same seed + script must be bit-identical, and a
/// different seed must actually change the trace (the scenario machinery
/// must not accidentally de-randomise the run).
#[test]
fn scenario_twin_runs_are_bit_identical() {
    let run = |seed: u64| {
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        let faults = [
            at(2.0, FaultEvent::LinkDown { a: NodeId::new(1), b: NodeId::new(2) }),
            at(3.0, FaultEvent::LinkUp { a: NodeId::new(1), b: NodeId::new(2) }),
            at(4.0, FaultEvent::Kill { node: NodeId::new(3) }),
            at(6.0, FaultEvent::Revive { node: NodeId::new(3) }),
        ];
        sim.load_faults(&faults);
        sim.install_checker(InvariantChecker::new());
        sim.run_until(secs(8.0));
        let checker = sim.take_checker().expect("checker was installed");
        assert!(checker.is_clean(), "{:?}", checker.violations());
        (sim.trace_hash(), sim.flow_report(flow).delivered_segments)
    };
    let (h1, d1) = run(7);
    let (h2, d2) = run(7);
    let (h3, _) = run(8);
    assert_eq!(h1, h2, "same seed + script must be bit-identical");
    assert_eq!(d1, d2);
    assert_ne!(h1, h3, "different seeds must diverge");
}

/// Faults scheduled at the same virtual time fire in script order, so a
/// down/up flap in one instant is a no-op while up/down leaves the link
/// dead — distinguishable by trace hash and delivery.
#[test]
fn same_time_faults_keep_script_order() {
    let run = |first_down: bool| {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        let link = (NodeId::new(0), NodeId::new(1));
        let faults = if first_down {
            [
                at(2.0, FaultEvent::LinkDown { a: link.0, b: link.1 }),
                at(2.0, FaultEvent::LinkUp { a: link.0, b: link.1 }),
            ]
        } else {
            [
                at(2.0, FaultEvent::LinkUp { a: link.0, b: link.1 }),
                at(2.0, FaultEvent::LinkDown { a: link.0, b: link.1 }),
            ]
        };
        sim.load_faults(&faults);
        sim.run_until(secs(6.0));
        sim.flow_report(flow).delivered_segments
    };
    let flap = run(true);
    let dead = run(false);
    assert!(flap > dead + 20, "down-then-up ({flap}) must beat up-then-down ({dead}) on delivery");
}
