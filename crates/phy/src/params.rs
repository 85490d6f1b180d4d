//! Radio parameterisation (paper Table 5.1 defaults).

use sim_core::SimDuration;

/// Physical-layer parameters of every radio in the network.
///
/// Defaults reproduce the paper's NS2 setup: 250 m transmission range, 550 m
/// carrier-sense range, no random loss. The bit rates and PLCP timing are the
/// MAC's (`mac80211::MacParams`), as in ns-2's 802.11 model: nothing in the
/// PHY reads them.
///
/// # Example
///
/// ```
/// use phy::RadioParams;
/// let p = RadioParams::default();
/// p.validate();
/// // Two-ray ground: a frame from 250 m arrives 16× stronger than one from
/// // 500 m, enough to capture the receiver over it.
/// assert_eq!(p.rx_power(250.0) / p.rx_power(500.0), 16.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioParams {
    /// Distance within which a frame can be decoded (metres).
    pub tx_range_m: f64,
    /// Distance within which a transmission is sensed and interferes
    /// (metres). Must be at least `tx_range_m`.
    pub cs_range_m: f64,
    /// Probability that an individual otherwise-receivable frame is
    /// corrupted by channel error ("random loss"). Applied per receiver.
    pub per_frame_loss: f64,
}

impl Default for RadioParams {
    fn default() -> Self {
        RadioParams { tx_range_m: 250.0, cs_range_m: 550.0, per_frame_loss: 0.0 }
    }
}

impl RadioParams {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if ranges are non-positive or inverted, or the loss
    /// probability is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.tx_range_m > 0.0, "tx range must be positive");
        assert!(self.cs_range_m >= self.tx_range_m, "carrier-sense range must cover the tx range");
        assert!((0.0..=1.0).contains(&self.per_frame_loss), "loss probability must be in [0, 1]");
    }

    /// Propagation delay over `distance_m` metres at the speed of light.
    pub fn propagation_delay(distance_m: f64) -> SimDuration {
        const C: f64 = 299_792_458.0;
        SimDuration::from_secs_f64(distance_m.max(0.0) / C)
    }

    /// Relative received power at `distance_m`, using the two-ray-ground
    /// `1/d⁴` law normalised to 1.0 at the edge of the transmission range
    /// (absolute scale is irrelevant — the capture model only compares
    /// ratios). A frame from 250 m is 16× stronger than interference from
    /// 500 m, which clears the 10× capture threshold, exactly as in ns-2.
    pub fn rx_power(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        (self.tx_range_m / d).powi(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let p = RadioParams::default();
        p.validate();
        assert_eq!(p.tx_range_m, 250.0);
    }

    #[test]
    fn propagation() {
        let d = RadioParams::propagation_delay(250.0);
        // 250 m / c ≈ 834 ns.
        assert!(d.as_nanos() > 800 && d.as_nanos() < 900, "{}", d.as_nanos());
        assert_eq!(RadioParams::propagation_delay(-5.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "carrier-sense range")]
    fn inverted_ranges_rejected() {
        let p = RadioParams { cs_range_m: 100.0, ..RadioParams::default() };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_loss_rejected() {
        let p = RadioParams { per_frame_loss: 1.5, ..RadioParams::default() };
        p.validate();
    }
}
