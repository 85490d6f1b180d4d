//! MAC-layer timing and policy parameters.

use sim_core::SimDuration;
use wire::{CTS_BYTES, MAC_ACK_BYTES, RTS_BYTES};

/// Timing and policy parameters of the 802.11 DCF MAC.
///
/// Defaults are the 802.11 DSSS values used by ns-2 and hence the paper:
/// 20 µs slots, 10 µs SIFS, CWmin 31 / CWmax 1023, short retry limit 7,
/// long retry limit 4, RTS/CTS enabled for all unicast data.
///
/// # Example
///
/// ```
/// use mac80211::MacParams;
/// let p = MacParams::default();
/// assert_eq!(p.difs().as_micros(), 50);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MacParams {
    /// Backoff slot time.
    pub slot: SimDuration,
    /// Short interframe space (between exchange frames).
    pub sifs: SimDuration,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Maximum RTS attempts before declaring link failure.
    pub short_retry_limit: u32,
    /// Maximum DATA attempts before declaring link failure.
    pub long_retry_limit: u32,
    /// Bit rate for DATA frames; the MAC alone holds the rates and the PLCP.
    pub data_rate_bps: u64,
    /// Bit rate for RTS/CTS/ACK control frames.
    pub basic_rate_bps: u64,
    /// PLCP preamble + header time (192 µs, the 802.11b long preamble).
    pub plcp: SimDuration,
    /// Upper bound on propagation delay, used as guard time in timeouts
    /// and NAV values.
    pub max_prop: SimDuration,
    /// Whether unicast data uses the RTS/CTS exchange.
    pub rts_enabled: bool,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            cw_min: 31,
            cw_max: 1023,
            short_retry_limit: 7,
            long_retry_limit: 4,
            data_rate_bps: 2_000_000,
            basic_rate_bps: 1_000_000,
            plcp: SimDuration::from_micros(192),
            max_prop: SimDuration::from_micros(2),
            rts_enabled: true,
        }
    }
}

impl MacParams {
    /// DIFS = SIFS + 2 × slot.
    pub fn difs(&self) -> SimDuration {
        self.sifs + self.slot * 2
    }

    /// EIFS = SIFS + DIFS + (time to send an ACK at the basic rate);
    /// applied after a corrupted reception.
    pub fn eifs(&self) -> SimDuration {
        self.sifs + self.difs() + self.control_airtime(MAC_ACK_BYTES)
    }

    /// Airtime of a control frame of `bytes` bytes.
    pub fn control_airtime(&self, bytes: u32) -> SimDuration {
        self.plcp + SimDuration::for_bits(u64::from(bytes) * 8, self.basic_rate_bps)
    }

    /// Airtime of a DATA frame of `bytes` bytes.
    pub fn data_airtime(&self, bytes: u32) -> SimDuration {
        self.plcp + SimDuration::for_bits(u64::from(bytes) * 8, self.data_rate_bps)
    }

    /// Airtime of an RTS frame.
    pub fn rts_airtime(&self) -> SimDuration {
        self.control_airtime(RTS_BYTES)
    }

    /// Airtime of a CTS frame.
    pub fn cts_airtime(&self) -> SimDuration {
        self.control_airtime(CTS_BYTES)
    }

    /// Airtime of a MAC ACK frame.
    pub fn ack_airtime(&self) -> SimDuration {
        self.control_airtime(MAC_ACK_BYTES)
    }

    /// How long after our RTS transmission ends we wait for a CTS before
    /// declaring the attempt failed.
    pub fn cts_timeout(&self) -> SimDuration {
        self.sifs + self.cts_airtime() + self.max_prop * 2 + self.slot
    }

    /// How long after our DATA transmission ends we wait for an ACK.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs + self.ack_airtime() + self.max_prop * 2 + self.slot
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero rates or an inverted contention window.
    pub fn validate(&self) {
        assert!(self.data_rate_bps > 0 && self.basic_rate_bps > 0, "rates must be positive");
        assert!(self.cw_min > 0 && self.cw_min <= self.cw_max, "invalid contention window");
        assert!(
            self.short_retry_limit > 0 && self.long_retry_limit > 0,
            "retry limits must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timing() {
        let p = MacParams::default();
        p.validate();
        assert_eq!(p.difs().as_micros(), 50);
        // ACK: 14 B at 1 Mbps = 112 us + 192 us PLCP = 304 us.
        assert_eq!(p.ack_airtime().as_micros(), 304);
        assert_eq!(p.eifs().as_micros(), 10 + 50 + 304);
    }

    #[test]
    fn airtimes() {
        let p = MacParams::default();
        assert_eq!(p.rts_airtime().as_micros(), 192 + 160);
        assert_eq!(p.cts_airtime().as_micros(), 192 + 112);
        // 1534-byte data frame at 2 Mbps.
        assert_eq!(p.data_airtime(1534).as_micros(), 192 + 6136);
    }

    #[test]
    fn timeouts_cover_response() {
        let p = MacParams::default();
        assert!(p.cts_timeout() > p.sifs + p.cts_airtime());
        assert!(p.ack_timeout() > p.sifs + p.ack_airtime());
    }

    #[test]
    #[should_panic(expected = "invalid contention window")]
    fn bad_cw_rejected() {
        let p = MacParams { cw_min: 64, cw_max: 32, ..MacParams::default() };
        p.validate();
    }
}
