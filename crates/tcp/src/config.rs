//! Transport configuration.

use sim_core::SimDuration;

/// Configuration shared by every TCP sender variant.
///
/// Defaults mirror the ns-2 agents as configured by the paper: 1460-byte
/// payloads, dup-ACK threshold 3, a 200 ms minimum RTO with a 3 s initial
/// RTO (generous enough to ride out AODV route discovery), and the
/// advertised window (`window_`) that Simulation 2 sweeps over {4, 8, 32}.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TcpConfig {
    /// Data payload per segment, in bytes.
    pub payload_bytes: u32,
    /// Receiver advertised window (`window_` in the paper), in segments.
    /// Caps the effective send window.
    pub advertised_window: u32,
    /// Initial congestion window in segments.
    pub initial_cwnd: f64,
    /// Initial slow-start threshold in segments.
    pub initial_ssthresh: f64,
    /// Duplicate ACKs that trigger fast retransmit.
    pub dupack_threshold: u32,
    /// Retransmission timeout before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Lower bound on the RTO.
    pub min_rto: SimDuration,
    /// Upper bound on the RTO.
    pub max_rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            payload_bytes: wire::TCP_PAYLOAD_BYTES,
            advertised_window: 32,
            initial_cwnd: 1.0,
            initial_ssthresh: 64.0,
            dupack_threshold: 3,
            initial_rto: SimDuration::from_secs(3),
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
        }
    }
}

impl TcpConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero window, zero payload, or inverted RTO bounds.
    pub fn validate(&self) {
        assert!(self.payload_bytes > 0, "payload must be positive");
        assert!(self.advertised_window > 0, "advertised window must be positive");
        assert!(self.initial_cwnd >= 1.0, "initial cwnd must be at least 1");
        assert!(self.dupack_threshold > 0, "dup-ACK threshold must be positive");
        assert!(self.min_rto <= self.max_rto, "min RTO must not exceed max RTO");
        assert!(self.min_rto > SimDuration::ZERO, "min RTO must be positive");
    }
}

/// TCP Vegas thresholds (in segments of queued data along the path).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VegasConfig {
    /// Increase the window when fewer than `alpha` segments are queued.
    pub alpha: f64,
    /// Decrease the window when more than `beta` segments are queued.
    pub beta: f64,
    /// Leave slow start once more than `gamma` segments are queued.
    pub gamma: f64,
}

impl Default for VegasConfig {
    fn default() -> Self {
        VegasConfig { alpha: 1.0, beta: 3.0, gamma: 1.0 }
    }
}

impl VegasConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `alpha > beta` or any threshold is negative.
    pub fn validate(&self) {
        assert!(self.alpha >= 0.0 && self.beta >= 0.0 && self.gamma >= 0.0);
        assert!(self.alpha <= self.beta, "alpha must not exceed beta");
    }
}

sim_core::snap_record! {
    TcpConfig {
        payload_bytes,
        advertised_window,
        initial_cwnd,
        initial_ssthresh,
        dupack_threshold,
        initial_rto,
        min_rto,
        max_rto,
    }
    // Mirror `validate()` as a total check: a flow table must never panic.
    check |c| c.payload_bytes > 0
        && c.advertised_window > 0
        && c.initial_cwnd >= 1.0
        && c.dupack_threshold > 0
        && c.min_rto <= c.max_rto
        && c.min_rto > SimDuration::ZERO
        => "tcp config";
}

sim_core::snap_record! {
    VegasConfig { alpha, beta, gamma }
    check |c| c.alpha >= 0.0 && c.beta >= 0.0 && c.gamma >= 0.0 && c.alpha <= c.beta
        => "vegas config";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        TcpConfig::default().validate();
        VegasConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "advertised window")]
    fn zero_window_rejected() {
        TcpConfig { advertised_window: 0, ..TcpConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "alpha must not exceed beta")]
    fn inverted_vegas_rejected() {
        VegasConfig { alpha: 4.0, beta: 3.0, gamma: 1.0 }.validate();
    }
}
