//! Result extraction.

use sim_core::{RunPerf, SimDuration, SimTime};
use tcp::TcpStats;
use wire::{FlowId, NodeId};

use crate::TcpVariant;

/// One flow's counters as they stand when the report is taken: scalars
/// only, so taking one costs nothing that grows with the run.
///
/// Curves are not here. The window over time is the run's `TcpCwnd` trace
/// records (`tracelog::FlowSeries::collect(..).cwnd`, with a `TraceLog`
/// installed), as ns-2 reads it from a trace file; goodput over a window is
/// the difference of [`FlowReport::delivered_segments`] between two reports
/// taken at the window's ends of a sliced `Simulator::run_until`.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowId,
    /// Sender variant.
    pub variant: TcpVariant,
    /// Source and destination nodes.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// When the flow started.
    pub start: SimTime,
    /// Sender-side counters (retransmissions, timeouts, ...).
    pub sender: TcpStats,
    /// The sender's smoothed RTT at the end of the run, if measured.
    pub srtt: Option<SimDuration>,
    /// In-order segments delivered to the receiver.
    pub delivered_segments: u64,
    /// In-order payload bytes delivered (goodput numerator).
    pub delivered_bytes: u64,
}

impl FlowReport {
    /// Goodput in bits per second over `[start, end)`.
    ///
    /// Returns 0.0 if the interval is empty.
    pub fn throughput_bps(&self, end: SimTime) -> f64 {
        let span = end.saturating_since(self.start);
        if span == SimDuration::ZERO {
            0.0
        } else {
            self.delivered_bytes as f64 * 8.0 / span.as_secs_f64()
        }
    }

    /// Goodput in kilobits per second over `[start, end)`.
    pub fn throughput_kbps(&self, end: SimTime) -> f64 {
        self.throughput_bps(end) / 1_000.0
    }
}

/// Everything a whole run produced: per-flow reports, per-node summaries
/// and the deterministic work counters the driver loop accumulated.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// One report per registered flow, in registration order.
    pub flows: Vec<FlowReport>,
    /// One summary per node, in node-id order.
    pub nodes: Vec<NodeSummary>,
    /// The run's work counters (event totals, per-subsystem split, peaks).
    pub perf: RunPerf,
}

/// Per-node summary after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeSummary {
    /// Congestion (queue-overflow) drops at this node's IFQ.
    pub queue_drops: u64,
    /// Packets dropped by the MAC after exhausting retries (link failures).
    pub mac_drops: u64,
    /// Data packets dropped by routing (no route / TTL / discovery failed).
    pub routing_drops: u64,
    /// Route discoveries originated by this node.
    pub discoveries: u64,
    /// Signal ends at this node that did not decode
    /// (`mac80211::MacStats::rx_collisions`): collided or channel-corrupted
    /// receptions plus every carrier-sense-only signal end, which is most of
    /// them in a dense field. The per-cause losses are the `PhyCollision` /
    /// `PhyLoss` trace records.
    pub collisions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bytes: u64, start_s: f64) -> FlowReport {
        FlowReport {
            flow: FlowId::new(0),
            variant: TcpVariant::Muzha,
            src: NodeId::new(0),
            dst: NodeId::new(4),
            start: SimTime::from_secs_f64(start_s),
            sender: TcpStats::default(),
            srtt: None,
            delivered_segments: bytes / 1460,
            delivered_bytes: bytes,
        }
    }

    #[test]
    fn throughput_computation() {
        let r = report(1_460_000, 0.0);
        // 1.46 MB over 10 s = 1.168 Mbps.
        let bps = r.throughput_bps(SimTime::from_secs_f64(10.0));
        assert!((bps - 1_168_000.0).abs() < 1.0);
        assert!((r.throughput_kbps(SimTime::from_secs_f64(10.0)) - 1_168.0).abs() < 0.001);
    }

    #[test]
    fn throughput_respects_start_time() {
        let r = report(1_460_000, 5.0);
        let bps = r.throughput_bps(SimTime::from_secs_f64(10.0));
        assert!((bps - 2_336_000.0).abs() < 1.0, "only 5 s elapsed");
    }

    #[test]
    fn empty_interval_is_zero() {
        let r = report(1000, 3.0);
        assert_eq!(r.throughput_bps(SimTime::from_secs_f64(3.0)), 0.0);
        assert_eq!(r.throughput_bps(SimTime::ZERO), 0.0);
    }
}
