//! Deriving a node's DRAI from local congestion signals.

use sim_core::stats::Ewma;
use sim_core::SimTime;
use wire::Drai;

/// Thresholds mapping local congestion state to a DRAI level.
///
/// The paper leaves the formula open ("currently, there doesn't exist any
/// theoretical formula... we take an empirical approach", §4.6) and only
/// fixes the five action levels (Table 5.2). This implementation derives the
/// level from two signals a wireless router actually has:
///
/// * **smoothed interface-queue occupancy** (packets) — the classic
///   congestion signal, and
/// * **channel utilisation** — in an 802.11 chain the medium saturates
///   before queues do, so high utilisation caps how aggressive the
///   recommendation may get.
///
/// Defaults were calibrated on the paper's chain topologies so that a Muzha
/// flow settles where queues stay short (no drops) while the channel stays
/// busy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DraiConfig {
    /// Below this smoothed queue length: recommend aggressive acceleration.
    pub accel_fast_below: f64,
    /// Below this: moderate acceleration.
    pub accel_below: f64,
    /// Below this: stabilise.
    pub stable_below: f64,
    /// Below this: moderate deceleration; at or above: aggressive.
    pub decel_below: f64,
    /// Queue length at or above which passing packets are congestion-marked.
    pub mark_at: f64,
    /// Channel utilisation above which acceleration is capped to
    /// "moderate acceleration" (no more doubling near saturation).
    pub util_moderate_above: f64,
    /// Channel utilisation above which acceleration is capped to
    /// "stabilising".
    pub util_stable_above: f64,
    /// Channel utilisation above which the recommendation is capped to
    /// "moderate deceleration". Disabled by default (set to 1.0): a healthy
    /// saturated chain runs at ~100 % utilisation at the bottleneck, so
    /// utilisation alone must never force a slowdown — only queue backlog
    /// does. Kept configurable for the ablation benches.
    pub util_decel_above: f64,
    /// EWMA smoothing factor for utilisation samples.
    pub util_alpha: f64,
    /// MAC retry ratio (failed handshakes / transmission attempts) above
    /// which the recommendation is capped to "stabilising". Retries signal
    /// contention from competing flows that queues cannot see.
    pub retry_stable_above: f64,
    /// MAC retry ratio above which the recommendation is capped to
    /// "moderate deceleration". Disabled by default: single-flow long
    /// chains self-generate ratios up to ~0.34, overlapping the
    /// coexistence signal, so forcing deceleration from retries alone
    /// harms them. Kept for the ablation benches.
    pub retry_decel_above: f64,
    /// MAC retry ratio above which passing data packets are congestion-
    /// marked. Marking is the discriminating signal for coexistence: the
    /// sender halves only when it actually loses segments *and* the path
    /// reported contention (paper §4.7), which is cheap for a lone flow
    /// (losses are rare) but makes a channel-hogging flow yield.
    pub mark_retry_above: f64,
    /// EWMA smoothing factor for queue samples.
    pub ewma_alpha: f64,
    /// How long after a congestion (queue-overflow) drop packets keep being
    /// marked, in nanoseconds of virtual time.
    pub mark_hold_nanos: u64,
}

impl Default for DraiConfig {
    fn default() -> Self {
        DraiConfig {
            accel_fast_below: 2.0,
            accel_below: 6.0,
            stable_below: 12.0,
            decel_below: 20.0,
            mark_at: 16.0,
            util_moderate_above: 0.85,
            util_stable_above: 0.97,
            util_decel_above: 1.0,
            util_alpha: 0.5,
            retry_stable_above: 0.45,
            retry_decel_above: 1.0,
            mark_retry_above: 0.28,
            ewma_alpha: 0.3,
            mark_hold_nanos: 500_000_000, // 500 ms
        }
    }
}

impl DraiConfig {
    /// An ECN-like *binary* feedback configuration, for the ablation the
    /// paper motivates in §4.6 ("ECN can be viewed as an extreme case of
    /// multi-level DRAI... too brief for the sender to gain further network
    /// status"): only two levels are ever published — moderate acceleration
    /// below the marking threshold, moderate deceleration above — and no
    /// wireless-aware (utilisation / retry) signal is used.
    pub fn ecn_like() -> Self {
        DraiConfig {
            accel_fast_below: 0.0,      // never aggressive
            accel_below: 12.0,          // q < 12  -> +1
            stable_below: 12.0,         // (empty band)
            decel_below: f64::INFINITY, // q >= 12 -> -1, never x1/2
            mark_at: 12.0,
            util_moderate_above: 2.0, // disabled
            util_stable_above: 2.0,
            util_decel_above: 2.0,
            util_alpha: 0.5,
            retry_stable_above: 2.0, // disabled
            retry_decel_above: 2.0,
            mark_retry_above: 2.0,
            ewma_alpha: 0.3,
            mark_hold_nanos: 500_000_000,
        }
    }

    /// Validates threshold ordering.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are not monotonically increasing or alpha is
    /// out of range.
    pub fn validate(&self) {
        assert!(
            self.accel_fast_below <= self.accel_below
                && self.accel_below <= self.stable_below
                && self.stable_below <= self.decel_below,
            "queue thresholds must be nondecreasing"
        );
        assert!(
            self.util_moderate_above <= self.util_stable_above
                && self.util_stable_above <= self.util_decel_above,
            "utilisation thresholds must be nondecreasing"
        );
        assert!(self.util_alpha > 0.0 && self.util_alpha <= 1.0, "util alpha out of range");
        assert!(
            self.retry_stable_above <= self.retry_decel_above,
            "retry thresholds must be nondecreasing"
        );
        assert!(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0, "alpha out of range");
    }
}

/// Computes one node's current DRAI from queue and channel observations.
///
/// # Example
///
/// ```
/// use muzha::{DraiComputer, DraiConfig};
/// use sim_core::SimTime;
/// use wire::Drai;
///
/// let mut d = DraiComputer::new(DraiConfig::default());
/// d.observe_queue(0, SimTime::ZERO);
/// assert_eq!(d.current(), Drai::AggressiveAcceleration);
/// for _ in 0..20 { d.observe_queue(20, SimTime::ZERO); }
/// assert!(d.current().is_deceleration());
/// ```
#[derive(Debug)]
pub struct DraiComputer {
    cfg: DraiConfig,
    queue: Ewma,
    utilisation: Ewma,
    retry_ratio: Ewma,
    last_congestion_drop: Option<SimTime>,
}

impl DraiComputer {
    /// Creates a computer with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent.
    pub fn new(cfg: DraiConfig) -> Self {
        cfg.validate();
        DraiComputer {
            cfg,
            queue: Ewma::new(cfg.ewma_alpha),
            utilisation: Ewma::new(cfg.util_alpha),
            retry_ratio: Ewma::new(cfg.util_alpha),
            last_congestion_drop: None,
        }
    }

    /// Feeds an interface-queue length sample (in packets).
    pub fn observe_queue(&mut self, len: usize, _now: SimTime) {
        self.queue.update(len as f64);
    }

    /// Feeds the latest channel-utilisation estimate in `[0, 1]`.
    pub fn observe_utilisation(&mut self, util: f64) {
        self.utilisation.update(util.clamp(0.0, 1.0));
    }

    /// Feeds the MAC retry ratio observed over the last sample window:
    /// failed RTS/DATA handshakes divided by transmission attempts.
    pub fn observe_retry_ratio(&mut self, ratio: f64) {
        self.retry_ratio.update(ratio.clamp(0.0, 1.0));
    }

    /// Records a queue-overflow (congestion) drop; packets will be marked
    /// for the configured hold period.
    pub fn note_congestion_drop(&mut self, now: SimTime) {
        self.last_congestion_drop = Some(now);
    }

    /// The smoothed queue length (diagnostics).
    pub fn smoothed_queue(&self) -> f64 {
        self.queue.value()
    }

    /// The smoothed channel utilisation (diagnostics).
    pub fn smoothed_utilisation(&self) -> f64 {
        self.utilisation.value()
    }

    /// The smoothed MAC retry ratio (diagnostics).
    pub fn smoothed_retry_ratio(&self) -> f64 {
        self.retry_ratio.value()
    }

    /// The node's current DRAI recommendation.
    pub fn current(&self) -> Drai {
        let q = self.queue.value();
        let from_queue = if q < self.cfg.accel_fast_below {
            Drai::AggressiveAcceleration
        } else if q < self.cfg.accel_below {
            Drai::ModerateAcceleration
        } else if q < self.cfg.stable_below {
            Drai::Stabilizing
        } else if q < self.cfg.decel_below {
            Drai::ModerateDeceleration
        } else {
            Drai::AggressiveDeceleration
        };
        // A saturated channel caps how optimistic the recommendation can be.
        let util = self.utilisation.value();
        let util_cap = if util > self.cfg.util_decel_above {
            Drai::ModerateDeceleration
        } else if util > self.cfg.util_stable_above {
            Drai::Stabilizing
        } else if util > self.cfg.util_moderate_above {
            Drai::ModerateAcceleration
        } else {
            Drai::MAX
        };
        // Sustained MAC retries mean competing traffic the queue cannot
        // see; back off so coexisting flows get their share.
        let retries = self.retry_ratio.value();
        let retry_cap = if retries > self.cfg.retry_decel_above {
            Drai::ModerateDeceleration
        } else if retries > self.cfg.retry_stable_above {
            Drai::Stabilizing
        } else {
            Drai::MAX
        };
        from_queue.fold(util_cap).fold(retry_cap)
    }

    /// Whether passing data packets should be congestion-marked right now.
    pub fn should_mark(&self, now: SimTime) -> bool {
        if self.queue.value() >= self.cfg.mark_at {
            return true;
        }
        if self.retry_ratio.value() > self.cfg.mark_retry_above {
            return true;
        }
        match self.last_congestion_drop {
            Some(at) => now.as_nanos().saturating_sub(at.as_nanos()) < self.cfg.mark_hold_nanos,
            None => false,
        }
    }
}

sim_core::snap_record! {
    given (cfg: DraiConfig) DraiComputer {
        cfg = cfg,
        queue: Ewma(cfg.ewma_alpha),
        utilisation: Ewma(cfg.util_alpha),
        retry_ratio: Ewma(cfg.util_alpha),
        last_congestion_drop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecn_like_is_binary() {
        let mut d = DraiComputer::new(DraiConfig::ecn_like());
        for _ in 0..64 {
            d.observe_queue(0, SimTime::ZERO);
        }
        assert_eq!(d.current(), Drai::ModerateAcceleration);
        for _ in 0..64 {
            d.observe_queue(30, SimTime::ZERO);
        }
        assert_eq!(d.current(), Drai::ModerateDeceleration);
        assert!(d.should_mark(SimTime::ZERO));
        // Utilisation and retries have no effect in the ECN preset.
        for _ in 0..64 {
            d.observe_utilisation(1.0);
            d.observe_retry_ratio(1.0);
        }
        assert_eq!(d.current(), Drai::ModerateDeceleration);
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn settled(len: usize) -> DraiComputer {
        let mut d = DraiComputer::new(DraiConfig::default());
        for _ in 0..64 {
            d.observe_queue(len, t(0));
        }
        d
    }

    #[test]
    fn levels_follow_queue_occupancy() {
        assert_eq!(settled(0).current(), Drai::AggressiveAcceleration);
        assert_eq!(settled(4).current(), Drai::ModerateAcceleration);
        assert_eq!(settled(8).current(), Drai::Stabilizing);
        assert_eq!(settled(15).current(), Drai::ModerateDeceleration);
        assert_eq!(settled(30).current(), Drai::AggressiveDeceleration);
    }

    #[test]
    fn ewma_smooths_spikes() {
        let mut d = settled(0);
        // One short burst does not flip the recommendation to deceleration.
        d.observe_queue(10, t(1));
        assert!(!d.current().is_deceleration(), "q = {}", d.smoothed_queue());
        // Sustained load does.
        for _ in 0..20 {
            d.observe_queue(40, t(2));
        }
        assert!(d.current().is_deceleration());
    }

    #[test]
    fn utilisation_caps_acceleration() {
        let mut d = settled(0);
        assert_eq!(d.current(), Drai::AggressiveAcceleration);
        for _ in 0..20 {
            d.observe_utilisation(0.88);
        }
        assert_eq!(d.current(), Drai::ModerateAcceleration);
        for _ in 0..20 {
            d.observe_utilisation(0.99);
        }
        assert_eq!(d.current(), Drai::Stabilizing, "pure utilisation never decelerates");
        // Utilisation never makes things *worse* than the queue says.
        let mut busy = settled(30);
        for _ in 0..20 {
            busy.observe_utilisation(0.99);
        }
        assert_eq!(busy.current(), Drai::AggressiveDeceleration);
    }

    #[test]
    fn utilisation_clamped() {
        let mut d = settled(0);
        for _ in 0..20 {
            d.observe_utilisation(7.0);
        }
        assert_eq!(d.current(), Drai::Stabilizing);
        for _ in 0..20 {
            d.observe_utilisation(-3.0);
        }
        assert_eq!(d.current(), Drai::AggressiveAcceleration);
    }

    #[test]
    fn marking_follows_queue_threshold() {
        assert!(!settled(5).should_mark(t(0)));
        assert!(!settled(12).should_mark(t(0)));
        assert!(settled(24).should_mark(t(0)));
    }

    #[test]
    fn congestion_drop_marks_for_hold_period() {
        let mut d = settled(0);
        assert!(!d.should_mark(t(10)));
        d.note_congestion_drop(t(10));
        assert!(d.should_mark(t(10)));
        assert!(d.should_mark(t(509)));
        assert!(!d.should_mark(t(511)));
    }

    /// The three weights are configuration: not in the bytes, and each
    /// average decodes under its own — the queue's `ewma_alpha`, utilisation
    /// and retry ratio `util_alpha` — so a twin smooths the next samples
    /// exactly as the original does.
    #[test]
    fn a_decoded_computer_smooths_each_signal_with_its_own_weight() {
        let cfg = DraiConfig::default();
        assert_ne!(cfg.ewma_alpha, cfg.util_alpha);
        let mut d = DraiComputer::new(cfg);
        d.observe_queue(10, t(0));
        d.observe_utilisation(0.5);
        d.observe_retry_ratio(0.5);
        let mut w = sim_core::SnapshotWriter::new();
        d.encode_state(&mut w);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 3 * (8 + 1) + 1, "three (value, initialised), no drop yet");
        let mut r = sim_core::SnapshotReader::new(&bytes);
        let mut twin = DraiComputer::decode_state(&mut r, cfg).expect("own encoding");
        let smoothed = |d: &mut DraiComputer| {
            d.observe_queue(0, t(1));
            d.observe_utilisation(0.0);
            d.observe_retry_ratio(0.0);
            (d.smoothed_queue(), d.smoothed_utilisation(), d.smoothed_retry_ratio())
        };
        assert_eq!(smoothed(&mut twin), smoothed(&mut d));
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn bad_thresholds_rejected() {
        let cfg = DraiConfig { accel_below: 0.5, ..DraiConfig::default() };
        DraiComputer::new(cfg);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The recommendation is monotone: more queue never yields a more
        /// aggressive (higher) DRAI.
        #[test]
        fn monotone_in_queue(a in 0usize..64, b in 0usize..64) {
            let (lo, hi) = (a.min(b), a.max(b));
            let da = settled_q(lo).current();
            let db = settled_q(hi).current();
            prop_assert!(db <= da, "queue {lo}->{hi} raised DRAI {da:?}->{db:?}");
        }

        /// Utilisation only ever lowers the recommendation.
        #[test]
        fn utilisation_only_caps(q in 0usize..64, util in 0.0f64..1.0) {
            let base = settled_q(q).current();
            let mut d = settled_q(q);
            for _ in 0..20 {
                d.observe_utilisation(util);
            }
            prop_assert!(d.current() <= base);
        }
    }

    fn settled_q(len: usize) -> DraiComputer {
        let mut d = DraiComputer::new(DraiConfig::default());
        for _ in 0..64 {
            d.observe_queue(len, SimTime::ZERO);
        }
        d
    }
}
