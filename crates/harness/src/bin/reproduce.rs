//! One-shot reproduction: regenerates every table and figure of the paper
//! into an output directory, as both human-readable text and plottable CSV.
//!
//! ```sh
//! cargo run --release -p harness --bin reproduce -- [OUT_DIR] [--quick] [--jobs N]
//! ```
//!
//! `OUT_DIR` defaults to `results/`. `--quick` uses fewer seeds and shorter
//! runs (minutes instead of tens of minutes). `--jobs N` fans the
//! independent `(experiment, variant, seed)` runs across `N` worker
//! threads (`0` = one per core); every output file is byte-identical to a
//! serial (`--jobs 1`, the default) run.
//!
//! `--trace PATH` and/or `--pcap PATH` additionally capture the
//! representative 4-hop Muzha run through the trace subsystem and write it
//! as ns-2 trace lines / a pcap file (see `crates/tracelog`).

use std::fs;
use std::path::{Path, PathBuf};

use harness::cli::{self, parse_flag, parse_flag_with, CliError};
use harness::experiments::{
    coexistence, cwnd_traces_batch, throughput_dynamics_batch, throughput_vs_hops, CoexistKind,
    SweepMetric,
};
use harness::tracecap::{self, TraceFormat};
use harness::{export, ExperimentConfig};
use netstack::{SimConfig, TcpVariant};
use sim_core::{SimDuration, SimTime};
use tracelog::{TraceEntry, TraceFilter};

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let positional = cli::positionals(args, &["--jobs", "--trace", "--pcap"], &["--quick"])?;
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = parse_flag_with(args, "--jobs", str::parse::<usize>)?.unwrap_or(1);
    let trace_path = parse_flag(args, "--trace")?;
    let pcap_path = parse_flag(args, "--pcap")?;
    let out_dir = PathBuf::from(positional.first().copied().unwrap_or("results"));
    fs::create_dir_all(&out_dir).expect("create output directory");

    let (seeds, chain_secs, cross_secs, hops): (Vec<u64>, u64, u64, Vec<usize>) = if quick {
        (vec![11, 23], 10, 15, vec![4, 8, 16])
    } else {
        (vec![11, 23, 37, 53, 71], 30, 50, vec![4, 8, 12, 16, 20, 24, 28, 32])
    };

    // ---- Figs 5.2–5.7: cwnd traces ------------------------------------
    println!("[1/4] cwnd traces (Figs 5.2-5.7)...");
    let cwnd_hops = [4usize, 8, 16];
    let all_traces = cwnd_traces_batch(
        &cwnd_hops,
        &TcpVariant::PAPER,
        SimDuration::from_secs(10),
        SimConfig::default(),
        jobs,
    );
    let mut cwnd_txt = String::new();
    for (h, traces) in cwnd_hops.iter().zip(&all_traces) {
        cwnd_txt.push_str(&format!("== {h}-hop chain ==\n"));
        for t in traces {
            cwnd_txt.push_str(&format!(
                "{:>8}: mean cwnd {:5.2} (2-10 s), oscillation {:5.2}\n",
                t.variant.name(),
                t.mean_cwnd(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(10.0)),
                t.cwnd_std_dev(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(10.0)),
            ));
            write(
                &out_dir,
                &format!("fig5_2_cwnd_{}_{}hop.csv", t.variant.name().to_lowercase(), h),
                &export::cwnd_csv(t, 0.1, 10.0),
            );
        }
    }
    write(&out_dir, "fig5_2_to_5_7_cwnd_summary.txt", &cwnd_txt);

    // ---- Figs 5.8–5.13: chain sweep ------------------------------------
    println!("[2/4] chain sweep (Figs 5.8-5.13)...");
    let cfg = ExperimentConfig {
        seeds: seeds.clone(),
        duration: SimDuration::from_secs(chain_secs),
        base: SimConfig::default(),
        jobs,
    };
    let sweep = throughput_vs_hops(&hops, &[4, 8, 32], &TcpVariant::PAPER, &cfg);
    let mut sweep_txt = String::new();
    for w in [4u32, 8, 32] {
        sweep_txt.push_str(&format!("== throughput kbps, window {w} (Figs 5.8-5.10) ==\n"));
        sweep_txt.push_str(&sweep.render(w, SweepMetric::ThroughputKbps));
        sweep_txt.push_str(&format!("\n== retransmissions, window {w} (Figs 5.11-5.13) ==\n"));
        sweep_txt.push_str(&sweep.render(w, SweepMetric::Retransmissions));
        sweep_txt.push('\n');
    }
    write(&out_dir, "fig5_8_to_5_13_chain_sweep.txt", &sweep_txt);
    write(&out_dir, "fig5_8_to_5_13_chain_sweep.csv", &export::sweep_csv(&sweep));

    // ---- Figs 5.15–5.18: coexistence -----------------------------------
    println!("[3/4] coexistence (Figs 5.15-5.18)...");
    let cfg = ExperimentConfig {
        seeds: seeds.clone(),
        duration: SimDuration::from_secs(cross_secs),
        base: SimConfig::default(),
        jobs,
    };
    let pairs = [
        CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Vegas },
        CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha },
    ];
    let coexist = coexistence(&[4, 6, 8], &pairs, &cfg);
    write(&out_dir, "fig5_15_to_5_18_coexistence.txt", &coexist.render());
    write(&out_dir, "fig5_15_to_5_18_coexistence.csv", &export::coexist_csv(&coexist));

    // ---- Figs 5.19–5.22: dynamics --------------------------------------
    println!("[4/4] throughput dynamics (Figs 5.19-5.22)...");
    let results = throughput_dynamics_batch(
        &TcpVariant::PAPER,
        SimDuration::from_secs(30),
        SimDuration::from_secs(1),
        SimConfig::default(),
        jobs,
    );
    let mut dyn_txt = String::new();
    for result in &results {
        dyn_txt.push_str(&format!(
            "{:>8}: tail fairness {:.3}, per-flow segments {:?}\n",
            result.variant.name(),
            result.tail_fairness(10),
            result.reports.iter().map(|r| r.delivered_segments).collect::<Vec<_>>(),
        ));
        write(
            &out_dir,
            &format!("fig5_19_dynamics_{}.csv", result.variant.name().to_lowercase()),
            &export::dynamics_csv(result),
        );
    }
    write(&out_dir, "fig5_19_to_5_22_dynamics.txt", &dyn_txt);

    // ---- Optional trace capture ----------------------------------------
    if trace_path.is_some() || pcap_path.is_some() {
        let trace_secs = if quick { 2 } else { 10 };
        println!("[+] trace capture (4-hop Muzha chain, {trace_secs} s)...");
        let (log, _) = tracecap::capture_chain(
            4,
            TcpVariant::Muzha,
            SimDuration::from_secs(trace_secs),
            SimConfig::default(),
            TraceFilter::all(),
        );
        let entries: Vec<TraceEntry> = log.iter().copied().collect();
        if let Some(path) = trace_path {
            fs::write(&path, tracecap::render(&entries, TraceFormat::Ns2))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("    wrote {} ns-2 trace lines to {path}", entries.len());
        }
        if let Some(path) = pcap_path {
            fs::write(&path, tracecap::render(&entries, TraceFormat::Pcap))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("    wrote {} pcap records to {path}", entries.len());
        }
    }

    println!("done — results in {}", out_dir.display());
    Ok(())
}

fn write(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
