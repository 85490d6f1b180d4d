//! AODV configuration.

use sim_core::SimDuration;

/// Tunable AODV parameters.
///
/// Defaults follow RFC 3561 suggested values scaled to the paper's network
/// sizes (up to 33 nodes): routes stay active for 10 s once used, RREQs are
/// retried twice with binary exponential timeout, and discovery floods use a
/// TTL that covers the whole network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AodvConfig {
    /// How long a route stays valid after last use.
    pub active_route_timeout: SimDuration,
    /// Wait for an RREP after one RREQ flood: a short base wait, doubled
    /// per retry.
    pub net_traversal_time: SimDuration,
    /// RREQ retries before the destination is declared unreachable.
    pub rreq_retries: u32,
    /// TTL of every RREQ flood, retries included: the network-wide flood.
    pub rreq_ttl: u8,
    /// Maximum data packets buffered per destination during discovery.
    pub buffer_capacity: usize,
    /// How long a seen `(origin, broadcast-id)` pair suppresses duplicate
    /// RREQ rebroadcasts.
    pub rreq_seen_lifetime: SimDuration,
}

impl Default for AodvConfig {
    fn default() -> Self {
        AodvConfig {
            active_route_timeout: SimDuration::from_secs(10),
            net_traversal_time: SimDuration::from_millis(300),
            rreq_retries: 3,
            rreq_ttl: 64,
            buffer_capacity: 64,
            rreq_seen_lifetime: SimDuration::from_secs(10),
        }
    }
}

impl AodvConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero TTL, buffer capacity or net traversal time. Zero
    /// retries is valid: one flood, then give up.
    pub fn validate(&self) {
        assert!(self.rreq_ttl > 0, "RREQ TTL must be positive");
        assert!(self.buffer_capacity > 0, "buffer capacity must be positive");
        assert!(self.net_traversal_time > SimDuration::ZERO, "net traversal time must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        AodvConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "TTL")]
    fn zero_ttl_rejected() {
        AodvConfig { rreq_ttl: 0, ..AodvConfig::default() }.validate();
    }
}
