//! The interface between transport agents and the network stack driver.

use sim_core::SimTime;
use wire::{FlowId, TcpSegment};

use crate::SendState;

/// Identifies one transport timer (retransmission timer). The driver
/// schedules an event at the requested time and calls
/// [`Transport::on_timer`]; stale ids must be ignored by the agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TcpTimer(pub u64);

/// Actions a transport agent asks the driver to perform.
#[derive(Clone, Debug)]
pub enum TcpOutput {
    /// Hand this segment to the network layer for routing.
    SendSegment(TcpSegment),
    /// Call [`Transport::on_timer`] with `id` at `at`.
    SetTimer {
        /// Timer identity to echo back.
        id: TcpTimer,
        /// Absolute firing time.
        at: SimTime,
    },
}

/// Counters every sender maintains; the paper's evaluation metrics are
/// computed from these (retransmissions: Figs. 5.11–5.13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Data segments transmitted, including retransmissions.
    pub segments_sent: u64,
    /// Retransmitted data segments (fast retransmit + timeout resends).
    pub retransmissions: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast-retransmit events entered.
    pub fast_retransmits: u64,
    /// Highest cumulatively acknowledged segment.
    pub acked_segments: u64,
    /// Duplicate ACKs received.
    pub dupacks: u64,
}

/// A one-way TCP sender agent with an infinite (FTP) backlog: the
/// interface the driver and the observers see of [`crate::Sender`], its one
/// implementation.
pub trait Transport: std::fmt::Debug {
    /// Human-readable variant name ("NewReno", "Vegas", ...).
    fn name(&self) -> &'static str;

    /// The flow this sender drives.
    fn flow(&self) -> FlowId;

    /// Starts the flow; returns the initial transmissions.
    fn open(&mut self, now: SimTime) -> Vec<TcpOutput>;

    /// Processes an incoming ACK segment.
    fn on_ack_segment(&mut self, segment: &TcpSegment, now: SimTime) -> Vec<TcpOutput>;

    /// A timer set via [`TcpOutput::SetTimer`] fired.
    fn on_timer(&mut self, id: TcpTimer, now: SimTime) -> Vec<TcpOutput>;

    /// The sequence, RTT and timer bookkeeping every variant layers its
    /// congestion control on; the accessors below read it.
    fn send_state(&self) -> &SendState;

    /// Whether a timer id is still the currently armed one. The driver
    /// consults this to discard stale timer pops before calling
    /// [`Transport::on_timer`].
    fn timer_is_live(&self, id: TcpTimer) -> bool {
        self.send_state().timer_is_live(id)
    }

    /// Number of timers tombstoned before firing (lazy cancellations whose
    /// queued events pop stale).
    fn timers_cancelled(&self) -> u64 {
        self.send_state().timers_cancelled()
    }

    /// Current congestion window in segments.
    fn cwnd(&self) -> f64;

    /// Counters.
    fn stats(&self) -> TcpStats {
        self.send_state().stats
    }

    /// The smoothed round-trip time, once at least one valid sample exists.
    fn srtt(&self) -> Option<sim_core::SimDuration> {
        self.send_state().rtt.srtt()
    }

    /// The current retransmission timeout. Consumed by trace observers.
    fn rto(&self) -> Option<sim_core::SimDuration> {
        Some(self.send_state().rtt.rto())
    }

    /// The slow-start threshold in segments, for variants that maintain one
    /// (Vegas and Muzha do not). Consumed by the runtime invariant checker.
    fn ssthresh(&self) -> Option<f64>;

    /// A short label for the congestion-control phase the sender is in,
    /// recorded in trace snapshots.
    fn phase(&self) -> &'static str;
}

sim_core::snap_record! { TcpTimer { 0 } }

sim_core::snap_record! {
    TcpStats {
        segments_sent, retransmissions, timeouts, fast_retransmits, acked_segments, dupacks
    }
}
