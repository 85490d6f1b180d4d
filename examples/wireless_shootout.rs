//! Wireless TCP shootout: router-assisted Muzha vs the end-to-end wireless
//! enhancements the paper cites in related work — TCP Veno ([22], random
//! loss discrimination from the backlog estimate), TCP Westwood ([24],
//! bandwidth-estimation decrease) and TCP-DOOR ([39], out-of-order
//! route-change detection) — plus the classic baselines.
//!
//! Two scenarios on the 4-hop chain:
//!   1. clean channel (contention losses only),
//!   2. 2 % random frame loss (the §4.7 regime the discrimination
//!      mechanisms were designed for).
//!
//! ```sh
//! cargo run --release --example wireless_shootout
//! ```

use tcp_muzha::experiments::{average, render_table};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::phy::RadioParams;
use tcp_muzha::sim::SimTime;

fn measure(variant: TcpVariant, loss: f64, seeds: &[u64]) -> (f64, f64, f64) {
    let mut kbps = Vec::new();
    let mut retx = Vec::new();
    for &seed in seeds {
        let radio = RadioParams { per_frame_loss: loss, ..RadioParams::default() };
        let cfg = SimConfig { seed, radio, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
        sim.run_until(SimTime::from_secs_f64(30.0));
        let r = sim.flow_report(flow);
        kbps.push(r.throughput_kbps(sim.now()));
        retx.push(r.sender.retransmissions as f64);
    }
    (average(&kbps).mean, average(&kbps).std_dev, average(&retx).mean)
}

fn main() {
    let seeds = [11u64, 23, 37, 53, 71];
    let variants = [
        TcpVariant::Tahoe,
        TcpVariant::Reno,
        TcpVariant::NewReno,
        TcpVariant::Sack,
        TcpVariant::Vegas,
        TcpVariant::Veno,
        TcpVariant::Westwood,
        TcpVariant::Door,
        TcpVariant::Muzha,
    ];
    println!("Wireless TCP shootout: 4-hop chain, 30 s, seeds {seeds:?}\n");
    let mut rows = Vec::new();
    for variant in variants {
        let (clean, clean_sd, clean_retx) = measure(variant, 0.0, &seeds);
        let (lossy, lossy_sd, lossy_retx) = measure(variant, 0.02, &seeds);
        let retention = if clean > 0.0 { lossy / clean * 100.0 } else { 0.0 };
        rows.push(vec![
            variant.name().to_string(),
            format!("{clean:.1} ±{clean_sd:.1}"),
            format!("{clean_retx:.0}"),
            format!("{lossy:.1} ±{lossy_sd:.1}"),
            format!("{lossy_retx:.0}"),
            format!("{retention:.0}%"),
        ]);
    }
    println!(
        "{}",
        render_table(&["variant", "clean kbps", "retx", "2% loss kbps", "retx", "retained"], &rows)
    );
    println!(
        "Reading guide: Veno and Westwood attack random loss end-to-end\n\
         (backlog heuristic / bandwidth estimate); Muzha gets the answer from\n\
         the routers. Higher 'retained' = better loss discrimination."
    );
}
