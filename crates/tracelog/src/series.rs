//! Per-flow time-series extraction from a trace stream.

use crate::record::{TraceEntry, TraceRecord};
use sim_core::stats::TimeSeries;
use sim_core::{SimDuration, SimTime};
use wire::{FlowId, NodeId};

/// The classic per-flow curves (cwnd, ssthresh, RTT, RTO, queue depth,
/// AVBW-S) assembled from a trace stream.
///
/// The log is the one place these curves exist — senders, receivers and flow
/// reports keep counters, not samples. Run a simulation with a `TraceLog`,
/// then fold the entries through [`FlowSeries::observe`] (or build in one go
/// with [`FlowSeries::collect`]).
///
/// The `cwnd` series has the flow's opening window and then one sample per
/// sender call (ACK or timeout) that moved the window, stamped at that call.
/// A log installed mid-run yields the curve from its install instant on.
#[derive(Clone, Debug)]
pub struct FlowSeries {
    /// The flow being followed.
    pub flow: FlowId,
    /// Node whose interface queue feeds `queue_depth` (usually the flow's
    /// bottleneck or source); `None` disables the queue series.
    pub queue_node: Option<NodeId>,
    /// Congestion window (segments), one sample per window change.
    pub cwnd: TimeSeries,
    /// Slow-start threshold (segments), for variants that expose one.
    pub ssthresh: TimeSeries,
    /// Smoothed RTT (milliseconds), once measured.
    pub srtt_ms: TimeSeries,
    /// Retransmission timeout (milliseconds).
    pub rto_ms: TimeSeries,
    /// Interface-queue depth at `queue_node` after each enqueue.
    pub queue_depth: TimeSeries,
    /// AVBW-S (path-minimum DRAI code 1..=5) stamped on the flow's data
    /// packets as they leave `queue_node` (any node when unset).
    pub avbw: TimeSeries,
}

impl FlowSeries {
    /// An empty series set for `flow` with the queue series disabled.
    pub fn new(flow: FlowId) -> Self {
        FlowSeries {
            flow,
            queue_node: None,
            cwnd: TimeSeries::new(),
            ssthresh: TimeSeries::new(),
            srtt_ms: TimeSeries::new(),
            rto_ms: TimeSeries::new(),
            queue_depth: TimeSeries::new(),
            avbw: TimeSeries::new(),
        }
    }

    /// Folds one trace entry into the series (entries must arrive in time
    /// order, as a [`crate::TraceLog`] stores them).
    pub fn observe(&mut self, entry: &TraceEntry) {
        match entry.record {
            TraceRecord::TcpCwnd { flow, cwnd, ssthresh, srtt, rto, .. } if flow == self.flow => {
                self.cwnd.record(entry.at, cwnd);
                if let Some(ss) = ssthresh {
                    self.ssthresh.record(entry.at, ss);
                }
                if let Some(srtt) = srtt {
                    self.srtt_ms.record(entry.at, srtt.as_secs_f64() * 1e3);
                }
                if let Some(rto) = rto {
                    self.rto_ms.record(entry.at, rto.as_secs_f64() * 1e3);
                }
            }
            TraceRecord::IfqEnqueue { node, flow, depth, avbw, .. }
                if flow == Some(self.flow)
                    && self.queue_node.is_none_or(|wanted| wanted == node) =>
            {
                self.queue_depth.record(entry.at, f64::from(depth));
                if let Some(level) = avbw {
                    self.avbw.record(entry.at, f64::from(level.code()));
                }
            }
            _ => {}
        }
    }

    /// Builds the series from a finished trace in one pass.
    pub fn collect(
        flow: FlowId,
        queue_node: Option<NodeId>,
        entries: impl IntoIterator<Item = TraceEntry>,
    ) -> Self {
        let mut series = FlowSeries::new(flow);
        series.queue_node = queue_node;
        for entry in entries {
            series.observe(&entry);
        }
        series
    }
}

/// Resamples a change-triggered step series on a uniform grid of `step`
/// over `[0, until)`, holding the last value (0.0 before the first sample).
///
/// This is the canonical plotting transform experiments use to compare
/// against the paper's figures.
///
/// # Example
///
/// ```
/// use sim_core::stats::TimeSeries;
/// use sim_core::{SimDuration, SimTime};
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_secs_f64(0.4), 2.0);
/// let pts = tracelog::resample(&ts, SimDuration::from_millis(500), SimTime::from_secs_f64(1.0));
/// assert_eq!(pts, [(0.0, 0.0), (0.5, 2.0)]);
/// ```
pub fn resample(series: &TimeSeries, step: SimDuration, until: SimTime) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    let samples = series.samples();
    while t < until {
        let idx = samples.partition_point(|&(st, _)| st <= t);
        let v = if idx == 0 { 0.0 } else { samples[idx - 1].1 };
        out.push((t.as_secs_f64(), v));
        t += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Drai;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn cwnd_entry(ms: u64, flow: u32, cwnd: f64) -> TraceEntry {
        TraceEntry {
            at: t(ms),
            record: TraceRecord::TcpCwnd {
                node: NodeId::new(0),
                flow: FlowId::new(flow),
                cwnd,
                ssthresh: Some(32.0),
                srtt: Some(SimDuration::from_millis(80)),
                rto: Some(SimDuration::from_millis(240)),
                phase: "slow-start",
            },
        }
    }

    fn enqueue_entry(ms: u64, node: u16, flow: u32, depth: u32, avbw: Option<Drai>) -> TraceEntry {
        TraceEntry {
            at: t(ms),
            record: TraceRecord::IfqEnqueue {
                node: NodeId::new(node),
                uid: 1,
                flow: Some(FlowId::new(flow)),
                depth,
                avbw,
                marked: false,
            },
        }
    }

    #[test]
    fn collect_extracts_matching_flow_only() {
        let entries = [cwnd_entry(10, 0, 2.0), cwnd_entry(20, 1, 9.0), cwnd_entry(30, 0, 3.0)];
        let s = FlowSeries::collect(FlowId::new(0), None, entries);
        assert_eq!(s.cwnd.len(), 2);
        assert_eq!(s.cwnd.last(), Some((t(30), 3.0)));
        assert_eq!(s.ssthresh.len(), 2);
        assert_eq!(s.srtt_ms.last(), Some((t(30), 80.0)));
        assert_eq!(s.rto_ms.last(), Some((t(30), 240.0)));
    }

    #[test]
    fn queue_series_respects_watch_node() {
        let entries = [
            enqueue_entry(10, 0, 0, 3, Some(Drai::Stabilizing)),
            enqueue_entry(20, 1, 0, 7, None),
            enqueue_entry(30, 0, 1, 9, None), // other flow
        ];
        let watched = FlowSeries::collect(FlowId::new(0), Some(NodeId::new(0)), entries);
        assert_eq!(watched.queue_depth.samples(), [(t(10), 3.0)]);
        assert_eq!(watched.avbw.samples(), [(t(10), 3.0)]);
        let any = FlowSeries::collect(FlowId::new(0), None, entries);
        assert_eq!(any.queue_depth.len(), 2);
    }

    #[test]
    fn resample_holds_last_value() {
        let mut ts = TimeSeries::new();
        ts.record(t(400), 2.0);
        ts.record(t(900), 5.0);
        let pts = resample(&ts, SimDuration::from_millis(250), t(1000));
        assert_eq!(pts, [(0.0, 0.0), (0.25, 0.0), (0.5, 2.0), (0.75, 2.0)]);
    }
}
