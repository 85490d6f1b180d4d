//! Simulation 1 (paper Figs. 5.2–5.7): evolution of the congestion window
//! for each TCP variant over 4-, 8- and 16-hop chains.
//!
//! Prints each trace as a plottable `(time, cwnd)` series plus the summary
//! statistics the paper discusses (Muzha: fast rise, small oscillation;
//! NewReno/SACK: sawtooth; Vegas: small and flat).
//!
//! The window curves come from the trace subsystem (`crates/tracelog`):
//! `experiments::cwnd` captures each run's transport-layer records and
//! extracts the per-flow series with `tracelog::FlowSeries`. `--ns2`
//! additionally prints the raw transport trace lines of the 4-hop Muzha
//! run, eyeball-comparable with the paper's NS-2 substrate.
//!
//! ```sh
//! cargo run --release --example cwnd_trace           # summary only
//! cargo run --release --example cwnd_trace -- --series  # full series too
//! cargo run --release --example cwnd_trace -- --ns2     # + raw trace lines
//! ```

#![allow(clippy::expect_used, reason = "an example reports a failure by panicking")]

use tcp_muzha::experiments::{cwnd_traces, render_series};
use tcp_muzha::export;
use tcp_muzha::faultline::ScenarioScript;
use tcp_muzha::net::{SimConfig, TcpVariant};
use tcp_muzha::run::Run;
use tcp_muzha::sim::{SimDuration, SimTime};
use tcp_muzha::tracelog::{ns2, Layer, TraceFilter};

fn main() {
    let print_series = std::env::args().any(|a| a == "--series");
    let print_csv = std::env::args().any(|a| a == "--csv");
    let print_ns2 = std::env::args().any(|a| a == "--ns2");
    for hops in [4usize, 8, 16] {
        println!("== {hops}-hop chain, 0–10 s (Figs 5.2–5.7) ==");
        let traces =
            cwnd_traces(hops, &TcpVariant::PAPER, SimDuration::from_secs(10), SimConfig::default());
        for t in &traces {
            let mean = t.mean_cwnd(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(10.0));
            let std = t.cwnd_std_dev(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(10.0));
            println!(
                "  {:>8}: mean cwnd {:5.2}, oscillation (std) {:5.2}, {} window changes",
                t.variant.name(),
                mean,
                std,
                t.trace.len()
            );
        }
        if print_series {
            for t in &traces {
                let pts = t.resampled(SimDuration::from_millis(100), SimTime::from_secs_f64(10.0));
                println!(
                    "{}",
                    render_series(&format!("{} {}-hop cwnd", t.variant.name(), hops), &pts)
                );
            }
        }
        if print_csv {
            for t in &traces {
                println!("# {} {}-hop", t.variant.name(), hops);
                print!("{}", export::cwnd_csv(t, 0.1, 10.0));
            }
        }
        println!();
    }
    if print_ns2 {
        println!("== raw transport trace, 4-hop Muzha, first 2 s (ns-2 format) ==");
        let seed = SimConfig::default().seed;
        let text = format!("seed {seed}\nduration 2\nflow 0 4 Muzha\n");
        let script = ScenarioScript::parse(&text).expect("run file parses");
        let run = Run::from_script(&script).expect("run file names nodes of chain:4");
        let log = run.capture(TraceFilter::all().layer(Layer::Agt));
        print!("{}", ns2::render(log.iter()));
        println!();
    }
    println!(
        "Expected shape: Muzha rises promptly and then holds a steady window\n\
         (low std); NewReno and SACK oscillate; Vegas stays small and flat."
    );
}
