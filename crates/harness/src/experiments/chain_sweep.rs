//! Simulation 2: throughput and retransmissions vs. number of hops
//! (Figs. 5.8–5.13).
//!
//! A single FTP flow over an h-hop chain, 30 s, no background traffic,
//! swept over h and the advertised window (`window_` ∈ {4, 8, 32}).

use netstack::{topology, FlowSpec, TcpVariant};
use wire::FlowId;

use super::on_chain;
use crate::run::Run;
use crate::{average, render_table, run_matrix, ExperimentConfig, Mean};

/// One measured point of the sweep (one bar in Figs. 5.8–5.13).
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Chain length in hops.
    pub hops: usize,
    /// Advertised window in segments.
    pub window: u32,
    /// Sender variant.
    pub variant: TcpVariant,
    /// Goodput in kbit/s, averaged over seeds.
    pub throughput_kbps: Mean,
    /// Retransmitted segments per run, averaged over seeds.
    pub retransmissions: Mean,
    /// TCP timeouts per run, averaged over seeds.
    pub timeouts: Mean,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct ChainSweep {
    /// All measured points, ordered by (window, hops, variant).
    pub points: Vec<SweepPoint>,
}

impl ChainSweep {
    /// Points for one advertised window (one figure of the paper).
    pub fn for_window(&self, window: u32) -> impl Iterator<Item = &SweepPoint> {
        self.points.iter().filter(move |p| p.window == window)
    }

    /// The point for an exact (hops, window, variant) triple.
    pub fn point(&self, hops: usize, window: u32, variant: TcpVariant) -> Option<&SweepPoint> {
        self.points.iter().find(|p| p.hops == hops && p.window == window && p.variant == variant)
    }

    /// Renders the paper-style table for one window: rows = hops, columns =
    /// variants; `metric` picks throughput or retransmissions.
    pub fn render(&self, window: u32, metric: SweepMetric) -> String {
        let variants: Vec<TcpVariant> = {
            let mut vs: Vec<TcpVariant> = Vec::new();
            for p in self.for_window(window) {
                if !vs.contains(&p.variant) {
                    vs.push(p.variant);
                }
            }
            vs
        };
        let mut hops: Vec<usize> = self.for_window(window).map(|p| p.hops).collect();
        hops.sort_unstable();
        hops.dedup();
        let mut header = vec!["hops".to_string()];
        header.extend(variants.iter().map(|v| v.name().to_string()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = hops
            .iter()
            .map(|&h| {
                let mut row = vec![h.to_string()];
                for &v in &variants {
                    let cell = self
                        .point(h, window, v)
                        .map(|p| match metric {
                            SweepMetric::ThroughputKbps => p.throughput_kbps.pm(),
                            SweepMetric::Retransmissions => p.retransmissions.pm(),
                            SweepMetric::Timeouts => p.timeouts.pm(),
                        })
                        .unwrap_or_else(|| "-".into());
                    row.push(cell);
                }
                row
            })
            .collect();
        render_table(&header_refs, &rows)
    }
}

/// Which column of the sweep to render.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMetric {
    /// Goodput (Figs. 5.8–5.10).
    ThroughputKbps,
    /// Retransmitted segments (Figs. 5.11–5.13).
    Retransmissions,
    /// TCP timeouts (diagnostic).
    Timeouts,
}

/// Runs the Simulation 2 sweep. Seeds × combos fan out across `cfg.jobs`
/// worker threads; the points (and their ordering) are identical at any
/// worker count.
pub fn throughput_vs_hops(
    hops_list: &[usize],
    windows: &[u32],
    variants: &[TcpVariant],
    cfg: &ExperimentConfig,
) -> ChainSweep {
    let mut combos: Vec<(u32, usize, TcpVariant)> = Vec::new();
    for &window in windows {
        for &hops in hops_list {
            for &variant in variants {
                combos.push((window, hops, variant));
            }
        }
    }
    let points = run_matrix(
        &combos,
        cfg,
        |&(window, hops, variant), sim_cfg| {
            let (src, dst) = topology::chain_flow(hops);
            let flow = FlowSpec::new(src, dst, variant).with_window(window);
            let run = Run::new(on_chain(sim_cfg, hops), vec![flow], cfg.duration);
            let mut sim = run.build();
            sim.run_until(run.end());
            let report = sim.flow_report(FlowId::new(0));
            (
                report.throughput_kbps(sim.now()),
                report.sender.retransmissions as f64,
                report.sender.timeouts as f64,
            )
        },
        |&(window, hops, variant), runs| {
            let kbps: Vec<f64> = runs.iter().map(|r| r.0).collect();
            let retx: Vec<f64> = runs.iter().map(|r| r.1).collect();
            let timeouts: Vec<f64> = runs.iter().map(|r| r.2).collect();
            SweepPoint {
                hops,
                window,
                variant,
                throughput_kbps: average(&kbps),
                retransmissions: average(&retx),
                timeouts: average(&timeouts),
            }
        },
    );
    ChainSweep { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::SimConfig;
    use sim_core::SimDuration;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            seeds: vec![11],
            duration: SimDuration::from_secs(5),
            base: SimConfig::default(),
            jobs: 1,
        }
    }

    #[test]
    fn sweep_produces_all_points() {
        let sweep =
            throughput_vs_hops(&[2, 4], &[4], &[TcpVariant::NewReno, TcpVariant::Muzha], &tiny());
        assert_eq!(sweep.points.len(), 4);
        let p = sweep.point(4, 4, TcpVariant::Muzha).unwrap();
        assert!(p.throughput_kbps.mean > 0.0);
    }

    #[test]
    fn render_contains_variants_and_hops() {
        let sweep = throughput_vs_hops(&[2], &[4], &[TcpVariant::NewReno], &tiny());
        let s = sweep.render(4, SweepMetric::ThroughputKbps);
        assert!(s.contains("NewReno"));
        assert!(s.contains("hops"));
        let s = sweep.render(4, SweepMetric::Retransmissions);
        assert!(s.lines().count() == 3);
    }
}
