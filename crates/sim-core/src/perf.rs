//! Run-performance telemetry: deterministic counters describing how much
//! work a simulation run performed.
//!
//! [`RunPerf`] is pure bookkeeping over the *virtual* event stream — it
//! counts events, never timestamps them — so it is itself deterministic:
//! twin runs with the same seed must report identical counter blocks, and
//! the determinism regression suite asserts exactly that. Wall-clock
//! measurement (events per second, batch speed-ups) lives in the harness
//! layer behind its `WallClock` shim; wall time never enters sim state.

/// Counters accumulated by a simulator over one run.
///
/// The per-subsystem split mirrors the event vocabulary of the netstack
/// driver loop: radio events dominate healthy runs, so a shifted ratio
/// (e.g. routing events spiking) is itself a useful diagnostic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunPerf {
    /// Total events dispatched by the driver loop.
    pub events_processed: u64,
    /// Radio pipeline events: the end of a signal at a listener that could
    /// decode it or whose MAC holds a packet, and the sender's transmission
    /// leaving the air. A signal's start edge is never an event, nor is the
    /// end of a sense-only signal at a MAC with no packet — see
    /// [`RunPerf::edges_settled`].
    pub phy_events: u64,
    /// MAC-layer timer events (backoff, CTS/ACK timeouts, NAV).
    pub mac_events: u64,
    /// Routing events (AODV timers and jittered flood enqueues).
    pub routing_events: u64,
    /// Transport events (TCP retransmission timers and flow starts).
    pub transport_events: u64,
    /// Mobility position-update ticks.
    pub mobility_events: u64,
    /// Periodic DRAI sampling ticks.
    pub sampling_events: u64,
    /// Scripted fault-injection events.
    pub fault_events: u64,
    /// Signal edges applied (or dropped at a radio that is off) without a
    /// queue entry of their own: every start edge, and the end edge of a
    /// sense-only signal while the listener's MAC holds no packet. Not an
    /// event class and not in [`RunPerf::classified_total`]; but
    /// `events_processed + edges_settled` is the per-listener work of a run,
    /// a sum that stays comparable across changes to *which* edges are
    /// events, where `events_processed` alone does not.
    pub edges_settled: u64,
    /// Timers tombstoned before firing (lazy cancellation: the event stays
    /// queued and is discarded as a stale pop at dispatch).
    pub timers_cancelled: u64,
    /// Timer events popped and discarded because their handle was no longer
    /// live. Stale pops are still classified into their subsystem counter
    /// first — the [`RunPerf::classified_total`] invariant covers them —
    /// so this counter is a strict subset, not an extra class.
    pub timers_stale_popped: u64,
    /// Node position writes applied to the channel (mobility steps plus
    /// scripted teleports). Not an event class: each write happens *inside*
    /// a mobility or fault event already counted above.
    pub position_updates: u64,
    /// Total rx/cs adjacency entries changed by those position writes (the
    /// moved node's own rows; peer rows mirror them). The per-move cost the
    /// spatial grid optimises — and a topology-dynamics measure: high churn
    /// means routes break faster than AODV can repair them.
    pub link_churn: u64,
    /// High-water mark of the pending-event queue (the event queue's live
    /// length over both tiers, sampled before every pop).
    pub peak_event_queue: usize,
    /// High-water mark of any node's interface queue.
    pub peak_ifq_depth: usize,
}

impl RunPerf {
    /// Sum of the per-subsystem counters. Equals [`RunPerf::events_processed`]
    /// when every dispatched event was classified — including stale timer
    /// pops, which are classified into their subsystem *before* the driver
    /// discards them ([`RunPerf::timers_stale_popped`] only annotates that
    /// subset; it does not participate in this sum).
    pub fn classified_total(&self) -> u64 {
        self.phy_events
            + self.mac_events
            + self.routing_events
            + self.transport_events
            + self.mobility_events
            + self.sampling_events
            + self.fault_events
    }
}

crate::snap_record! {
    RunPerf {
        events_processed,
        phy_events,
        mac_events,
        routing_events,
        transport_events,
        mobility_events,
        sampling_events,
        fault_events,
        edges_settled,
        timers_cancelled,
        timers_stale_popped,
        position_updates,
        link_churn,
        peak_event_queue,
        peak_ifq_depth,
    }
}
