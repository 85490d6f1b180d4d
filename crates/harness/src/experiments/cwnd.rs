//! Simulation 1: change of congestion window size (Figs. 5.2–5.7).
//!
//! A single FTP/TCP flow over an h-hop chain (h ∈ {4, 8, 16}); the paper
//! plots each variant's congestion window over 0–10 s (and zoomed 0–2 s).

use netstack::{topology, FlowSpec, SimConfig, TcpVariant};
use sim_core::stats::TimeSeries;
use sim_core::{SimDuration, SimTime};
use tracelog::{FlowSeries, Layer, TraceFilter};
use wire::FlowId;

use super::on_chain;

/// One congestion-window trace (one curve in Figs. 5.2–5.7).
#[derive(Clone, Debug)]
pub struct CwndTrace {
    /// Chain length in hops.
    pub hops: usize,
    /// Sender variant.
    pub variant: TcpVariant,
    /// `(time, cwnd)` samples recorded at every window change.
    pub trace: TimeSeries,
}

impl CwndTrace {
    /// The trace resampled on a uniform grid of `step` over `[0, until)` —
    /// convenient for plotting and for comparing against the paper.
    pub fn resampled(&self, step: SimDuration, until: SimTime) -> Vec<(f64, f64)> {
        tracelog::resample(&self.trace, step, until)
    }

    /// Mean window over `[from, to)` (time weighted).
    pub fn mean_cwnd(&self, from: SimTime, to: SimTime) -> f64 {
        self.trace.time_weighted_mean(from, to).unwrap_or(0.0)
    }

    /// A simple stability measure: the standard deviation of the resampled
    /// window over `[from, to)`. The paper argues Muzha's window is
    /// markedly steadier than NewReno's or SACK's.
    pub fn cwnd_std_dev(&self, from: SimTime, to: SimTime) -> f64 {
        let pts = self.resampled(SimDuration::from_millis(100), to);
        let pts: Vec<f64> =
            pts.into_iter().filter(|&(t, _)| t >= from.as_secs_f64()).map(|(_, v)| v).collect();
        crate::average(&pts).std_dev
    }
}

/// Runs Simulation 1 for the given chain length and variants, over
/// `duration` with one seed (the paper shows single-run traces).
#[expect(clippy::expect_used, reason = "the batch returns one entry per chain length asked for")]
pub fn cwnd_traces(
    hops: usize,
    variants: &[TcpVariant],
    duration: SimDuration,
    cfg: SimConfig,
) -> Vec<CwndTrace> {
    cwnd_traces_batch(&[hops], variants, duration, cfg, 1)
        .into_iter()
        .next()
        .expect("one chain length requested")
}

/// Runs Simulation 1 for several chain lengths at once, fanning the
/// `(hops, variant)` runs across `jobs` worker threads (0 = auto,
/// 1 = serial). Returns one `Vec<CwndTrace>` per entry of `hops_list`, in
/// order; traces are identical at any worker count.
pub fn cwnd_traces_batch(
    hops_list: &[usize],
    variants: &[TcpVariant],
    duration: SimDuration,
    cfg: SimConfig,
    jobs: usize,
) -> Vec<Vec<CwndTrace>> {
    let mut combos: Vec<(usize, TcpVariant)> = Vec::new();
    for &hops in hops_list {
        for &variant in variants {
            combos.push((hops, variant));
        }
    }
    let mut traces = crate::run_batch(&combos, jobs, |&(hops, variant), _| {
        let (src, dst) = topology::chain_flow(hops);
        let run = on_chain(cfg, hops, vec![FlowSpec::new(src, dst, variant)], duration);
        // The window curve is the run's `TcpCwnd` records, as ns-2 reads it
        // from a trace file: keep the transport layer, extract per flow.
        let log = run.capture(TraceFilter::all().layer(Layer::Agt));
        let series = FlowSeries::collect(FlowId::new(0), None, log.iter());
        CwndTrace { hops, variant, trace: series.cwnd }
    });
    hops_list.iter().map(|_| traces.drain(..variants.len()).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_cover_requested_variants() {
        let traces = cwnd_traces(
            4,
            &[TcpVariant::NewReno, TcpVariant::Muzha],
            SimDuration::from_secs(3),
            SimConfig::default(),
        );
        assert_eq!(traces.len(), 2);
        for t in &traces {
            assert!(t.trace.len() > 1, "{}: window never moved", t.variant);
        }
    }

    #[test]
    fn resampling_is_uniform_grid() {
        let traces =
            cwnd_traces(2, &[TcpVariant::NewReno], SimDuration::from_secs(2), SimConfig::default());
        let pts = traces[0].resampled(SimDuration::from_millis(500), SimTime::from_secs_f64(2.0));
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[1].0, 0.5);
    }

    #[test]
    fn mean_and_stability_computable() {
        let traces =
            cwnd_traces(2, &[TcpVariant::Muzha], SimDuration::from_secs(3), SimConfig::default());
        let m = traces[0].mean_cwnd(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(3.0));
        assert!(m >= 1.0, "mean cwnd {m}");
        let _ = traces[0].cwnd_std_dev(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(3.0));
    }
}
