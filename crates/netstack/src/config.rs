//! Simulation and flow configuration.

use aodv::AodvConfig;
use mac80211::MacParams;
use muzha::DraiConfig;

use crate::RedConfig;
use phy::RadioParams;
use sim_core::{SimDuration, SimTime};
pub use tcp::TcpVariant;
use tcp::{AdjustmentCadence, TcpConfig, VegasConfig};
use topo::{MobilitySpec, TopologySpec};
use wire::NodeId;

/// Which queueing discipline every node's interface queue uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueueDiscipline {
    /// ns-2's `Queue/DropTail` — the paper's setup (Table 5.1).
    DropTail,
    /// RED with optional ECN marking — the standardised router-assisted
    /// baseline the paper discusses in §3.2.
    Red(RedConfig),
}

/// Whole-simulation configuration (paper Table 5.1 defaults).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Radio parameters (2 Mbps, 250 m range, ...).
    pub radio: RadioParams,
    /// 802.11 DCF parameters.
    pub mac: MacParams,
    /// AODV parameters.
    pub aodv: AodvConfig,
    /// Muzha DRAI thresholds (used by every node's router agent).
    pub drai: DraiConfig,
    /// Interface queue capacity in packets (ns-2 IFQ: 50).
    pub ifq_capacity: usize,
    /// Queueing discipline of the interface queues.
    pub queue: QueueDiscipline,
    /// Master RNG seed; every run with the same seed is identical.
    pub seed: u64,
    /// How often each node samples channel utilisation and queue length
    /// for its DRAI computer.
    pub sample_interval: SimDuration,
    /// Initial node placement, regenerated deterministically from
    /// `(topology, seed)` by [`crate::Simulator::from_config`]. Ignored by
    /// [`crate::Simulator::new`], which takes explicit positions.
    pub topology: TopologySpec,
    /// Mobility model applied to every node by
    /// [`crate::Simulator::from_config`] (waypoint streams draw from the
    /// master RNG, so runs stay seed-deterministic).
    pub mobility: MobilitySpec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            radio: RadioParams::default(),
            mac: MacParams::default(),
            aodv: AodvConfig::default(),
            drai: DraiConfig::default(),
            ifq_capacity: 50,
            queue: QueueDiscipline::DropTail,
            seed: 0x4d757a6861, // "Muzha"
            sample_interval: SimDuration::from_millis(50),
            topology: TopologySpec::default(),
            mobility: MobilitySpec::default(),
        }
    }
}

impl SimConfig {
    /// Derives consistent MAC timing from the radio parameters.
    pub fn with_radio(mut self, radio: RadioParams) -> Self {
        self.radio = radio;
        self.mac.data_rate_bps = radio.data_rate_bps;
        self.mac.basic_rate_bps = radio.basic_rate_bps;
        self.mac.plcp = radio.plcp_overhead;
        self
    }

    /// Validates all nested configuration.
    ///
    /// # Panics
    ///
    /// Panics if any nested config is inconsistent, if MAC and PHY rates
    /// disagree, or if the IFQ capacity is zero.
    pub fn validate(&self) {
        self.radio.validate();
        self.mac.validate();
        self.aodv.validate();
        self.drai.validate();
        self.topology.validate();
        if let MobilitySpec::Waypoint { min_speed_mps, max_speed_mps, .. } = self.mobility {
            assert!(
                min_speed_mps > 0.0 && min_speed_mps <= max_speed_mps && max_speed_mps.is_finite(),
                "waypoint speed range must be positive and ordered"
            );
        }
        assert!(self.ifq_capacity > 0, "IFQ capacity must be positive");
        assert_eq!(
            self.mac.data_rate_bps, self.radio.data_rate_bps,
            "MAC and PHY data rates must agree"
        );
    }
}

/// One TCP flow to simulate.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Sending end host.
    pub src: NodeId,
    /// Receiving end host.
    pub dst: NodeId,
    /// Sender implementation.
    pub variant: TcpVariant,
    /// When the FTP source starts.
    pub start: SimTime,
    /// Transport configuration (advertised window etc.).
    pub tcp: TcpConfig,
    /// Vegas thresholds (ignored by other variants).
    pub vegas: VegasConfig,
    /// Muzha window-adjustment cadence (ignored by other variants).
    pub muzha_cadence: AdjustmentCadence,
    /// RFC 1122 delayed ACKs at the receiver: acknowledge every second
    /// in-order segment or after 100 ms. Halves the reverse ACK traffic —
    /// a meaningful effect in a contended wireless chain. Off by default
    /// (ns-2's sink, and hence the paper, ACKs every segment).
    pub delayed_ack: bool,
    /// ELFN-style route-failure assistance (paper §3, TCP-ELFN/TCP-F):
    /// while the source has no route to the destination, the flow's
    /// retransmission timer is held (checked every 100 ms) instead of
    /// firing into the void — so a route outage does not compound the
    /// exponential RTO backoff. Off by default (the paper's TCP agents run
    /// unassisted).
    pub elfn: bool,
}

impl FlowSpec {
    /// A flow with default transport settings starting at time zero.
    pub fn new(src: NodeId, dst: NodeId, variant: TcpVariant) -> Self {
        FlowSpec {
            src,
            dst,
            variant,
            start: SimTime::ZERO,
            tcp: TcpConfig::default(),
            vegas: VegasConfig::default(),
            muzha_cadence: AdjustmentCadence::default(),
            delayed_ack: false,
            elfn: false,
        }
    }

    /// Sets the start time.
    #[must_use]
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Sets the advertised window (`window_` in the paper).
    #[must_use]
    pub fn with_window(mut self, window: u32) -> Self {
        self.tcp.advertised_window = window;
        self
    }

    /// Sets the Muzha window-adjustment cadence (no-op for other variants).
    #[must_use]
    pub fn with_muzha_cadence(mut self, cadence: AdjustmentCadence) -> Self {
        self.muzha_cadence = cadence;
        self
    }

    /// Enables ELFN-style route-failure assistance for this flow.
    #[must_use]
    pub fn with_elfn(mut self) -> Self {
        self.elfn = true;
        self
    }

    /// Enables the fixed-RTO heuristic (paper §3.1 \[40\]) for this flow.
    #[must_use]
    pub fn with_fixed_rto(mut self) -> Self {
        self.tcp.fixed_rto = true;
        self
    }

    /// Enables RFC 1122 delayed ACKs at this flow's receiver.
    #[must_use]
    pub fn with_delayed_ack(mut self) -> Self {
        self.delayed_ack = true;
        self
    }
}

sim_core::snap_record! {
    FlowSpec { src, dst, variant, start, tcp, vegas, muzha_cadence, delayed_ack, elfn }
    check |f| f.src != f.dst => "flow endpoints equal";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_valid() {
        SimConfig::default().validate();
    }

    #[test]
    fn with_radio_syncs_mac() {
        let radio = RadioParams { data_rate_bps: 11_000_000, ..RadioParams::default() };
        let cfg = SimConfig::default().with_radio(radio);
        cfg.validate();
        assert_eq!(cfg.mac.data_rate_bps, 11_000_000);
    }

    #[test]
    fn flow_spec_builders() {
        let spec = FlowSpec::new(NodeId::new(0), NodeId::new(4), TcpVariant::Muzha)
            .starting_at(SimTime::from_secs_f64(10.0))
            .with_window(8);
        assert_eq!(spec.start.as_secs_f64(), 10.0);
        assert_eq!(spec.tcp.advertised_window, 8);
    }
}
