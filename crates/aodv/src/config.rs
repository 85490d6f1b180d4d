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
    /// Wait for an RREP after one RREQ flood (doubles per retry). ns-2's
    /// expanding-ring search makes early retries fast; we mirror that with
    /// a short base wait and binary exponential growth.
    pub net_traversal_time: SimDuration,
    /// RREQ retries before the destination is declared unreachable.
    pub rreq_retries: u32,
    /// Maximum TTL for RREQ floods (the network-wide flood).
    pub rreq_ttl: u8,
    /// Expanding-ring search (RFC 3561 §6.4): the first discovery attempt
    /// uses `ring_ttl_start`, growing by `ring_ttl_increment` per retry up
    /// to `ring_ttl_threshold`, after which full-TTL floods are used.
    /// Set `ring_ttl_start >= rreq_ttl` to disable the ring search.
    ///
    /// **Disabled by default**: the paper's networks are small and every
    /// ring miss delays recovery after the frequent contention-induced
    /// route breaks (measured: −5–8 % chain goodput with rings 3/2/7), so
    /// the calibrated defaults flood at full TTL like our baseline ns-2
    /// comparison. Enable with e.g. `ring_ttl_start: 3`.
    pub ring_ttl_start: u8,
    /// TTL added per expanding-ring retry.
    pub ring_ttl_increment: u8,
    /// TTL above which the search switches to network-wide floods.
    pub ring_ttl_threshold: u8,
    /// Maximum data packets buffered per destination during discovery.
    pub buffer_capacity: usize,
    /// How long a seen `(origin, broadcast-id)` pair suppresses duplicate
    /// RREQ rebroadcasts.
    pub rreq_seen_lifetime: SimDuration,
    /// HELLO beacon interval; `None` (the default, matching ns-2 with
    /// link-layer feedback enabled) disables beacons — link failures are
    /// then detected only by the MAC retry limit.
    pub hello_interval: Option<SimDuration>,
    /// Missed HELLO intervals before a neighbour is declared lost.
    pub allowed_hello_loss: u32,
}

impl Default for AodvConfig {
    fn default() -> Self {
        AodvConfig {
            active_route_timeout: SimDuration::from_secs(10),
            net_traversal_time: SimDuration::from_millis(300),
            rreq_retries: 3,
            rreq_ttl: 64,
            ring_ttl_start: 64,
            ring_ttl_increment: 2,
            ring_ttl_threshold: 7,
            buffer_capacity: 64,
            rreq_seen_lifetime: SimDuration::from_secs(10),
            hello_interval: None,
            allowed_hello_loss: 2,
        }
    }
}

impl AodvConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero retries, TTL, or buffer capacity.
    pub fn validate(&self) {
        assert!(self.rreq_ttl > 0, "RREQ TTL must be positive");
        assert!(self.ring_ttl_start > 0, "ring TTL start must be positive");
        assert!(self.ring_ttl_increment > 0, "ring TTL increment must be positive");
        assert!(self.buffer_capacity > 0, "buffer capacity must be positive");
        assert!(self.net_traversal_time > SimDuration::ZERO, "net traversal time must be positive");
        if let Some(interval) = self.hello_interval {
            assert!(interval > SimDuration::ZERO, "hello interval must be positive");
            assert!(self.allowed_hello_loss > 0, "allowed hello loss must be positive");
        }
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
