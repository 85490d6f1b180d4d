//! Simulation 3B: throughput dynamics of three staggered flows
//! (Figs. 5.19–5.22).
//!
//! Three FTP flows of the *same* variant share a 4-hop chain, entering at
//! 0 s, 10 s and 20 s. The paper plots each flow's windowed throughput over
//! time and argues Muzha's flows converge to a fair share quickly and
//! smoothly while the other variants oscillate.

use netstack::{topology, FlowReport, FlowSpec, SimConfig, TcpVariant};
use sim_core::stats::jain_fairness_index;
use sim_core::{SimDuration, SimTime};
use wire::FlowId;

use super::on_chain;
use crate::render_series;

/// The windowed throughput series of the three flows.
#[derive(Clone, Debug)]
pub struct DynamicsResult {
    /// The variant all three flows use.
    pub variant: TcpVariant,
    /// Width of the throughput averaging window.
    pub window: SimDuration,
    /// Per-flow series of `(time s, kbit/s over the preceding window)`.
    pub series: Vec<Vec<(f64, f64)>>,
    /// Flow start times.
    pub starts: Vec<SimTime>,
    /// Full-run reports (for totals / retransmissions).
    pub reports: Vec<FlowReport>,
}

impl DynamicsResult {
    /// Jain fairness over the three flows' windowed throughputs in the
    /// final `tail` of the run (all three active).
    pub fn tail_fairness(&self, tail: usize) -> f64 {
        let shares: Vec<f64> = self
            .series
            .iter()
            .map(|s| {
                let n = s.len();
                let from = n.saturating_sub(tail);
                let w = &s[from..];
                if w.is_empty() {
                    0.0
                } else {
                    w.iter().map(|&(_, y)| y).sum::<f64>() / w.len() as f64
                }
            })
            .collect();
        jain_fairness_index(&shares)
    }

    /// Renders the three curves as text series (the figure's data).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.series.iter().enumerate() {
            out.push_str(&render_series(
                &format!("{} flow {} (start {})", self.variant.name(), i + 1, self.starts[i]),
                s,
            ));
        }
        out
    }
}

/// Runs Simulation 3B for several variants at once, one worker thread per
/// run (capped at `jobs`; 0 = auto, 1 = serial). Returns results in
/// `variants` order, identical at any worker count.
pub fn throughput_dynamics_batch(
    variants: &[TcpVariant],
    duration: SimDuration,
    window: SimDuration,
    cfg: SimConfig,
    jobs: usize,
) -> Vec<DynamicsResult> {
    crate::run_batch(variants, jobs, |&variant, _| {
        throughput_dynamics(variant, duration, window, cfg)
    })
}

/// Runs Simulation 3B for one variant.
pub fn throughput_dynamics(
    variant: TcpVariant,
    duration: SimDuration,
    window: SimDuration,
    cfg: SimConfig,
) -> DynamicsResult {
    const HOPS: usize = 4;
    let starts = [
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(10),
        SimTime::ZERO + SimDuration::from_secs(20),
    ];
    let (src, dst) = topology::chain_flow(HOPS);
    let specs = starts.map(|start| FlowSpec::new(src, dst, variant).starting_at(start));
    let run = on_chain(cfg, HOPS, specs.to_vec(), duration);
    let mut sim = run.build();
    let flows: Vec<FlowId> = (0..starts.len()).map(FlowId::from_index).collect();
    let end = run.end();
    // One point per window `[t - window, t)`: each receiver's cumulative
    // count read one clock tick before `t`, less its reading a window ago.
    let tick = SimDuration::from_nanos(1);
    let payload_bits = f64::from(wire::TCP_PAYLOAD_BYTES) * 8.0;
    let mut series = vec![Vec::new(); flows.len()];
    let mut delivered = vec![0u64; flows.len()];
    let mut t = SimTime::ZERO + window;
    while t <= end {
        sim.run_until(t - tick);
        for (i, &flow) in flows.iter().enumerate() {
            let so_far = sim.flow_report(flow).delivered_segments;
            let segs = so_far - delivered[i];
            let kbps = segs as f64 * payload_bits / window.as_secs_f64() / 1_000.0;
            series[i].push((t.as_secs_f64(), kbps));
            delivered[i] = so_far;
        }
        t += window;
    }
    sim.run_until(end);
    let reports: Vec<FlowReport> = flows.iter().map(|&f| sim.flow_report(f)).collect();
    DynamicsResult { variant, window, series, starts: starts.to_vec(), reports }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_flows_staggered() {
        let result = throughput_dynamics(
            TcpVariant::Muzha,
            SimDuration::from_secs(12),
            SimDuration::from_secs(1),
            SimConfig::default(),
        );
        assert_eq!(result.series.len(), 3);
        // Flow 1 has delivered something before flow 2 starts.
        let early: f64 = result.series[0].iter().filter(|&&(t, _)| t <= 9.0).map(|&(_, y)| y).sum();
        assert!(early > 0.0, "first flow idle before 9 s");
        // Flow 3 (starts at 20 s) has delivered nothing in a 12 s run.
        let f3: f64 = result.series[2].iter().map(|&(_, y)| y).sum();
        assert_eq!(f3, 0.0);
        // Rendering produces three named series.
        let text = result.render();
        assert_eq!(text.matches("# Muzha flow").count(), 3);
        let f = result.tail_fairness(5);
        assert!(f > 0.0 && f <= 1.0);
    }
}
