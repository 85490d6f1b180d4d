//! Quickstart: run one TCP Muzha flow over the paper's 4-hop chain
//! (Fig. 5.1) and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::expect_used, reason = "an example reports a failure by panicking")]

use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::sim::SimTime;
use tcp_muzha::tracelog::{FlowSeries, Layer, TraceFilter, TraceLog};

fn main() {
    // The paper's Table 5.1 setup: 2 Mbps 802.11 DCF radios, 250 m spacing,
    // AODV routing, 50-packet drop-tail interface queues.
    let config = SimConfig::default();

    // A 4-hop chain: source — r1 — r2 — r3 — destination.
    let mut sim = Simulator::new(topology::chain(4), config);
    let (src, dst) = topology::chain_flow(4);

    // One FTP/TCP-Muzha flow. Routers along the path fold their DRAI
    // recommendation into every data packet; the receiver echoes it in ACKs.
    let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));

    // Curves come from the trace log, as ns-2 takes them from its trace
    // file: keep the transport layer's records and read the window off them.
    sim.install_trace_log(TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt)));

    // Run 10 virtual seconds.
    let end = SimTime::from_secs_f64(10.0);
    sim.run_until(end);
    let log = sim.take_trace_log().expect("installed above");

    let report = sim.flow_report(flow);
    println!("TCP Muzha over a 4-hop 802.11 chain, 10 s:");
    println!(
        "  delivered : {} segments ({} bytes)",
        report.delivered_segments, report.delivered_bytes
    );
    println!("  goodput   : {:.1} kbit/s", report.throughput_kbps(sim.now()));
    println!("  sent      : {} segments", report.sender.segments_sent);
    println!("  retransmit: {}", report.sender.retransmissions);
    println!("  timeouts  : {}", report.sender.timeouts);
    println!();
    println!("congestion window over time (first 20 changes):");
    let series = FlowSeries::collect(flow, None, log.iter());
    for &(t, cwnd) in series.cwnd.samples().iter().take(20) {
        println!("  {:>8.3}s  cwnd = {cwnd}", t.as_secs_f64());
    }
    println!();
    println!("per-node view (queue drops / MAC drops / route discoveries):");
    for (i, s) in sim.all_node_summaries().iter().enumerate() {
        println!("  node {i}: {} / {} / {}", s.queue_drops, s.mac_drops, s.discoveries);
    }
}
