//! Simulation 3A: fairness when two variants coexist on a cross topology
//! (Figs. 5.15–5.18).
//!
//! An h-hop cross (h ∈ {4, 6, 8}); one FTP flow crosses horizontally, the
//! other vertically, sharing only the centre node. The paper compares
//! NewReno-vs-Vegas (NewReno steals the channel) against NewReno-vs-Muzha
//! (fair sharing), reporting per-flow throughput and Jain's fairness index.

use netstack::{topology, FlowSpec, TcpVariant};
use sim_core::stats::jain_fairness_index;
use wire::FlowId;

use super::on_cross;
use crate::run::Run;
use crate::{average, render_table, run_matrix, ExperimentConfig, Mean};

/// Which pair of variants coexists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoexistKind {
    /// Variant of the horizontal (west → east) flow.
    pub horizontal: TcpVariant,
    /// Variant of the vertical (north → south) flow.
    pub vertical: TcpVariant,
}

/// Result of one (hops, pair) configuration, averaged over seeds.
#[derive(Clone, Debug)]
pub struct CoexistRun {
    /// Cross arm length in hops.
    pub hops: usize,
    /// The coexisting pair.
    pub kind: CoexistKind,
    /// Horizontal flow goodput (kbit/s).
    pub horizontal_kbps: Mean,
    /// Vertical flow goodput (kbit/s).
    pub vertical_kbps: Mean,
    /// Jain fairness index over the two flows, averaged over seeds.
    pub fairness: Mean,
    /// Sum of both flows' goodput (kbit/s).
    pub aggregate_kbps: Mean,
}

/// All coexistence runs.
#[derive(Clone, Debug)]
pub struct CoexistResult {
    /// One entry per (hops, pair).
    pub runs: Vec<CoexistRun>,
}

impl CoexistResult {
    /// Renders the paper-style table: per-flow throughput and fairness.
    pub fn render(&self) -> String {
        let header =
            ["hops", "pair (horiz / vert)", "horiz kbps", "vert kbps", "aggregate", "Jain"];
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.hops.to_string(),
                    format!("{} / {}", r.kind.horizontal.name(), r.kind.vertical.name()),
                    r.horizontal_kbps.pm(),
                    r.vertical_kbps.pm(),
                    r.aggregate_kbps.pm(),
                    format!("{:.3}", r.fairness.mean),
                ]
            })
            .collect();
        render_table(&header, &rows)
    }
}

/// Runs Simulation 3A for every `(hops, pair)` combination, fanning the
/// seed runs across `cfg.jobs` worker threads. Results are identical at
/// any worker count.
pub fn coexistence(
    hops_list: &[usize],
    pairs: &[CoexistKind],
    cfg: &ExperimentConfig,
) -> CoexistResult {
    let mut combos: Vec<(usize, CoexistKind)> = Vec::new();
    for &hops in hops_list {
        for &kind in pairs {
            combos.push((hops, kind));
        }
    }
    let runs = run_matrix(
        &combos,
        cfg,
        |&(hops, kind), sim_cfg| {
            let (hs, hd) = topology::cross_horizontal_flow(hops);
            let (vs, vd) = topology::cross_vertical_flow(hops);
            let flows =
                vec![FlowSpec::new(hs, hd, kind.horizontal), FlowSpec::new(vs, vd, kind.vertical)];
            let run = Run::new(on_cross(sim_cfg, hops), flows, cfg.duration);
            let mut sim = run.build();
            sim.run_until(run.end());
            let [h, v] = [0, 1].map(|i| sim.flow_report(FlowId::new(i)).throughput_kbps(sim.now()));
            (h, v)
        },
        |&(hops, kind), seed_runs| {
            let h_kbps: Vec<f64> = seed_runs.iter().map(|r| r.0).collect();
            let v_kbps: Vec<f64> = seed_runs.iter().map(|r| r.1).collect();
            let fairness: Vec<f64> =
                seed_runs.iter().map(|&(h, v)| jain_fairness_index(&[h, v])).collect();
            let aggregate: Vec<f64> = seed_runs.iter().map(|&(h, v)| h + v).collect();
            CoexistRun {
                hops,
                kind,
                horizontal_kbps: average(&h_kbps),
                vertical_kbps: average(&v_kbps),
                fairness: average(&fairness),
                aggregate_kbps: average(&aggregate),
            }
        },
    );
    CoexistResult { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::SimConfig;
    use sim_core::SimDuration;

    #[test]
    fn coexist_runs_and_renders() {
        let cfg = ExperimentConfig {
            seeds: vec![11],
            duration: SimDuration::from_secs(5),
            base: SimConfig::default(),
            jobs: 1,
        };
        let result = coexistence(
            &[4],
            &[CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha }],
            &cfg,
        );
        assert_eq!(result.runs.len(), 1);
        let r = &result.runs[0];
        assert!(r.fairness.mean > 0.0 && r.fairness.mean <= 1.0);
        assert!(r.aggregate_kbps.mean > 0.0, "someone must get through");
        let s = result.render();
        assert!(s.contains("NewReno / Muzha"));
        assert!(s.contains("Jain"));
    }
}
