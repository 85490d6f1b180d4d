//! Mobility (paper §6 future work): how do the variants cope when a relay
//! physically wanders, breaking and re-forming the route?
//!
//! A 4-hop chain carries one flow while the middle relay oscillates 150 m
//! north and back every 12 s. Each excursion breaks both of its links
//! (AODV detects the failure through MAC retry exhaustion, floods a fresh
//! discovery when the relay returns) and the sender must ride out the
//! outage without collapsing its retransmission timer.
//!
//! ```sh
//! cargo run --release --example mobility
//! ```

use tcp_muzha::experiments::{average, render_table};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::phy::Position;
use tcp_muzha::sim::SimTime;
use tcp_muzha::wire::NodeId;

fn main() {
    const DURATION_S: f64 = 60.0;
    let seeds = [11u64, 23, 37];
    println!("Mobile relay scenario: 4-hop chain, node 2 oscillates ±150 m, {DURATION_S} s\n");
    let mut rows = Vec::new();
    let variants = [
        TcpVariant::NewReno,
        TcpVariant::Sack,
        TcpVariant::Vegas,
        TcpVariant::Door,
        TcpVariant::Muzha,
    ];
    for variant in variants {
        let mut kbps = Vec::new();
        let mut discoveries = Vec::new();
        for &seed in &seeds {
            let cfg = SimConfig { seed, ..SimConfig::default() };
            let mut sim = Simulator::new(topology::chain(4), cfg);
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
            let relay = NodeId::new(2);
            let home = sim.position(relay);
            let away = Position::new(home.x, 150.0);
            // Oscillate: out at t = 5, 17, 29, ...; back 6 s later.
            let mut t = 5.0;
            while t + 6.0 < DURATION_S {
                sim.run_until(SimTime::from_secs_f64(t));
                sim.move_node(relay, away, 50.0);
                sim.run_until(SimTime::from_secs_f64(t + 6.0));
                sim.move_node(relay, home, 50.0);
                t += 12.0;
            }
            sim.run_until(SimTime::from_secs_f64(DURATION_S));
            let r = sim.flow_report(flow);
            kbps.push(r.throughput_kbps(sim.now()));
            discoveries
                .push(sim.all_node_summaries().iter().map(|s| s.discoveries).sum::<u64>() as f64);
        }
        rows.push(vec![
            variant.name().to_string(),
            average(&kbps).pm(),
            format!("{:.0}", average(&discoveries).mean),
        ]);
    }
    println!("{}", render_table(&["variant", "goodput kbps", "route discoveries"], &rows));
    println!(
        "The relay is away (route broken) half the time, so even a perfect\n\
         sender is bounded by ~50% of the static-chain goodput. Watch how\n\
         quickly each variant resumes after the route heals."
    );
}
