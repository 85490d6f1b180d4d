//! Design objective 3 (paper §4.7): dealing with random wireless loss.
//!
//! Sweeps an i.i.d. per-frame corruption probability on a 4-hop chain and
//! compares TCP Muzha against TCP NewReno. Muzha's unmarked-duplicate-ACK
//! rule retransmits random losses *without* shrinking the window, so its
//! throughput should degrade more gracefully than NewReno's, whose AIMD
//! treats every loss as congestion.
//!
//! ```sh
//! cargo run --release --example random_loss
//! ```

use tcp_muzha::experiments::{average, render_table};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::phy::RadioParams;
use tcp_muzha::sim::SimTime;

fn main() {
    const HOPS: usize = 4;
    const DURATION_S: f64 = 30.0;
    let seeds = [11u64, 23, 37, 53, 71];
    let loss_rates = [0.0, 0.005, 0.01, 0.02, 0.05];
    let variants = [TcpVariant::NewReno, TcpVariant::Muzha];

    println!("Random-loss resilience: {HOPS}-hop chain, {DURATION_S} s, seeds {seeds:?}\n");
    let mut rows = Vec::new();
    for &loss in &loss_rates {
        let mut row = vec![format!("{:.1}%", loss * 100.0)];
        for &variant in &variants {
            let mut kbps = Vec::new();
            let mut retx = Vec::new();
            for &seed in &seeds {
                let radio = RadioParams { per_frame_loss: loss, ..RadioParams::default() };
                let cfg = SimConfig { seed, radio, ..SimConfig::default() };
                let mut sim = Simulator::new(topology::chain(HOPS), cfg);
                let (src, dst) = topology::chain_flow(HOPS);
                let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
                sim.run_until(SimTime::from_secs_f64(DURATION_S));
                let r = sim.flow_report(flow);
                kbps.push(r.throughput_kbps(sim.now()));
                retx.push(r.sender.retransmissions as f64);
            }
            row.push(average(&kbps).pm());
            row.push(format!("{:.1}", average(&retx).mean));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["frame loss", "NewReno kbps", "retx", "Muzha kbps", "retx"], &rows)
    );
    println!(
        "Expected shape: both degrade with loss, but Muzha keeps a larger\n\
         fraction of its loss-free throughput because unmarked losses do not\n\
         shrink its window."
    );
}
