//! DRAI and cadence ablations (paper §4.6 / §6 future work): which parts of
//! the DRAI formula buy Muzha its results?
//!
//! Every row is one Muzha flow on the 4-hop chain (goodput) and, for the
//! DRAI variants, a NewReno/Muzha pair on the 4-hop cross (Jain fairness —
//! the [`coexistence`] experiment with the variant's thresholds swapped in):
//!
//! * **full** — the calibrated default,
//! * **no-marking** — congestion marks never set: every dup-ACK run looks
//!   random, so the sender never halves (paper Table 4.1 row 2 disabled),
//! * **no-util-cap** — channel utilisation never caps acceleration,
//! * **queue-only** — neither utilisation nor retry signals; only queue
//!   occupancy drives the DRAI (a wired-style AQM signal),
//! * **ecn-binary** — the paper's §4.6 strawman: binary (two-level)
//!   feedback, as ECN would provide,
//! * **per-rtt** / **per-ack** — the full DRAI with the sender applying
//!   each adjustment once per RTT (the paper) or spread over a round's ACKs.

use muzha::{AdjustmentCadence, DraiConfig};
use netstack::{topology, FlowSpec, SimConfig, TcpVariant};
use sim_core::SimDuration;
use wire::FlowId;

use super::{coexistence, on_chain, CoexistKind};
use crate::run::Run;
use crate::{average, render_table, run_matrix, ExperimentConfig};

const HOPS: usize = 4;

fn drai_variants() -> [(&'static str, DraiConfig); 5] {
    let full = DraiConfig::default();
    let no_util_cap = DraiConfig {
        util_moderate_above: 2.0,
        util_stable_above: 2.0,
        util_decel_above: 2.0,
        ..full
    };
    [
        ("full", full),
        ("no-marking", DraiConfig { mark_at: f64::INFINITY, mark_retry_above: 2.0, ..full }),
        ("no-util-cap", no_util_cap),
        (
            "queue-only",
            DraiConfig {
                retry_stable_above: 2.0,
                retry_decel_above: 2.0,
                mark_retry_above: 2.0,
                ..no_util_cap
            },
        ),
        ("ecn-binary", DraiConfig::ecn_like()),
    ]
}

/// Runs both ablations and renders their two tables. Chain runs last
/// `cfg.duration`, cross runs `cross_duration`; every `(row, seed)` run fans
/// across `cfg.jobs` workers and the text is identical at any worker count.
pub fn ablations(cfg: &ExperimentConfig, cross_duration: SimDuration) -> String {
    let drai = drai_variants();
    let cadences = [("per-rtt", AdjustmentCadence::PerRtt), ("per-ack", AdjustmentCadence::PerAck)];
    let chains: Vec<(DraiConfig, AdjustmentCadence)> = drai
        .iter()
        .map(|&(_, drai)| (drai, AdjustmentCadence::default()))
        .chain(cadences.iter().map(|&(_, cadence)| (DraiConfig::default(), cadence)))
        .collect();
    let mut chain_kbps = run_matrix(
        &chains,
        cfg,
        |&(drai, cadence), sim_cfg| {
            let (src, dst) = topology::chain_flow(HOPS);
            let flow = FlowSpec::new(src, dst, TcpVariant::Muzha).with_muzha_cadence(cadence);
            let run =
                Run::new(on_chain(SimConfig { drai, ..sim_cfg }, HOPS), vec![flow], cfg.duration);
            let mut sim = run.build();
            sim.run_until(run.end());
            sim.flow_report(FlowId::new(0)).throughput_kbps(sim.now())
        },
        |_, kbps| average(&kbps).pm(),
    );
    let cadence_kbps = chain_kbps.split_off(drai.len());

    let pair = [CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha }];
    let drai_rows: Vec<Vec<String>> = drai
        .iter()
        .zip(chain_kbps)
        .map(|(&(name, drai), kbps)| {
            let cross = ExperimentConfig {
                base: SimConfig { drai, ..cfg.base },
                duration: cross_duration,
                ..cfg.clone()
            };
            let fairness = coexistence(&[HOPS], &pair, &cross).runs[0].fairness.mean;
            vec![name.to_string(), kbps, format!("{fairness:.3}")]
        })
        .collect();
    let cadence_rows: Vec<Vec<String>> = cadences
        .iter()
        .zip(cadence_kbps)
        .map(|(&(name, _), kbps)| vec![name.into(), kbps])
        .collect();

    format!(
        "== DRAI ablations (4-hop chain goodput / NewReno-coexistence fairness) ==\n{}\n\
         == Muzha adjustment-cadence ablation (4-hop chain goodput) ==\n{}",
        render_table(&["drai variant", "chain kbps", "cross Jain"], &drai_rows),
        render_table(&["cadence", "chain kbps"], &cadence_rows),
    )
}
