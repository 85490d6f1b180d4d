//! Simulation and flow configuration.

use aodv::AodvConfig;
use mac80211::MacParams;
use muzha::DraiConfig;
use phy::RadioParams;
use sim_core::SimTime;
pub use tcp::TcpVariant;
use tcp::{AdjustmentCadence, TcpConfig, VegasConfig};
use wire::NodeId;

/// Whole-simulation configuration (paper Table 5.1 defaults), each part
/// checked by the constructor it feeds ([`phy::Channel::new`],
/// [`mac80211::Mac::new`], [`aodv::Aodv::new`], [`muzha::DraiComputer::new`],
/// the interface queue's). Placement is the caller's.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Radio parameters (250 m range, 550 m carrier sense, frame loss).
    pub radio: RadioParams,
    /// 802.11 DCF parameters, the bit rates (2 / 1 Mbps) among them.
    pub mac: MacParams,
    /// AODV parameters.
    pub aodv: AodvConfig,
    /// Muzha DRAI thresholds (used by every node's router agent).
    pub drai: DraiConfig,
    /// Drop-tail interface queue capacity in packets (ns-2 IFQ: 50).
    pub ifq_capacity: usize,
    /// Master RNG seed; every run with the same seed is identical.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            radio: RadioParams::default(),
            mac: MacParams::default(),
            aodv: AodvConfig::default(),
            drai: DraiConfig::default(),
            ifq_capacity: 50,
            seed: 0x4d757a6861, // "Muzha"
        }
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
}

sim_core::snap_record! {
    FlowSpec { src, dst, variant, start, tcp, vegas, muzha_cadence }
    check |f| f.src != f.dst => "flow endpoints equal";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_spec_builders() {
        let spec = FlowSpec::new(NodeId::new(0), NodeId::new(4), TcpVariant::Muzha)
            .starting_at(SimTime::from_secs_f64(10.0))
            .with_window(8);
        assert_eq!(spec.start.as_secs_f64(), 10.0);
        assert_eq!(spec.tcp.advertised_window, 8);
    }
}
