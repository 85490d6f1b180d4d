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
//! threads (`0` = one per core, counted once per process); every output
//! file is byte-identical to a serial (`--jobs 1`, the default) run. The
//! DRAI ablations of step 5 keep their own three seeds and horizons under
//! `--quick` too, so the table in EXPERIMENTS.md regenerates from either.

use std::path::PathBuf;

use harness::cli::{self, parse_flag_with, write_output, CliError};
use harness::experiments::{
    ablations, coexistence, cwnd_traces_batch, throughput_dynamics_batch, throughput_vs_hops,
    CoexistKind, SweepMetric,
};
use harness::{export, ExperimentConfig};
use netstack::{SimConfig, TcpVariant};
use sim_core::{SimDuration, SimTime};

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let positional = cli::positionals(args, &["--jobs"], &["--quick"])?;
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = parse_flag_with(args, "--jobs", str::parse::<usize>)?.unwrap_or(1);
    let out_dir = PathBuf::from(positional.first().copied().unwrap_or("results"));
    std::fs::create_dir_all(&out_dir).map_err(|e| CliError::file("create", &out_dir, e))?;
    let write = |name: &str, contents: &str| write_output(out_dir.join(name), contents);

    let (seeds, chain_secs, cross_secs, hops): (Vec<u64>, u64, u64, Vec<usize>) = if quick {
        (vec![11, 23], 10, 15, vec![4, 8, 16])
    } else {
        (vec![11, 23, 37, 53, 71], 30, 50, vec![4, 8, 12, 16, 20, 24, 28, 32])
    };

    // ---- Figs 5.2–5.7: cwnd traces ------------------------------------
    println!("[1/5] cwnd traces (Figs 5.2-5.7)...");
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
                &format!("fig5_2_cwnd_{}_{}hop.csv", t.variant.name().to_lowercase(), h),
                &export::cwnd_csv(t, 0.1, 10.0),
            )?;
        }
    }
    write("fig5_2_to_5_7_cwnd_summary.txt", &cwnd_txt)?;

    // ---- Figs 5.8–5.13: chain sweep ------------------------------------
    println!("[2/5] chain sweep (Figs 5.8-5.13)...");
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
    write("fig5_8_to_5_13_chain_sweep.txt", &sweep_txt)?;
    write("fig5_8_to_5_13_chain_sweep.csv", &export::sweep_csv(&sweep))?;

    // ---- Figs 5.15–5.18: coexistence -----------------------------------
    println!("[3/5] coexistence (Figs 5.15-5.18)...");
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
    write("fig5_15_to_5_18_coexistence.txt", &coexist.render())?;
    write("fig5_15_to_5_18_coexistence.csv", &export::coexist_csv(&coexist))?;

    // ---- Figs 5.19–5.22: dynamics --------------------------------------
    println!("[4/5] throughput dynamics (Figs 5.19-5.22)...");
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
            &format!("fig5_19_dynamics_{}.csv", result.variant.name().to_lowercase()),
            &export::dynamics_csv(result),
        )?;
    }
    write("fig5_19_to_5_22_dynamics.txt", &dyn_txt)?;

    // ---- DRAI / cadence ablations (EXPERIMENTS.md) -----------------------
    println!("[5/5] DRAI and cadence ablations...");
    let cfg = ExperimentConfig {
        seeds: vec![11, 23, 37],
        duration: SimDuration::from_secs(15),
        base: SimConfig::default(),
        jobs,
    };
    write("ablations.txt", &ablations(&cfg, SimDuration::from_secs(30)))?;

    println!("done — results in {}", out_dir.display());
    Ok(())
}
