//! Round-trip-time estimation (Jacobson/Karels with Karn's algorithm).

use sim_core::SimDuration;

/// RTT estimator maintaining a smoothed RTT and mean deviation, producing
/// the retransmission timeout `RTO = srtt + 4 × rttvar`, clamped to
/// configured bounds, with binary exponential backoff on timeouts.
///
/// Karn's algorithm (never sample retransmitted segments) is enforced by the
/// *caller*, which only feeds samples from unambiguous segments.
///
/// # Example
///
/// ```
/// use sim_core::SimDuration;
/// use tcp::RttEstimator;
///
/// let mut est = RttEstimator::new(
///     SimDuration::from_secs(3),
///     SimDuration::from_millis(200),
///     SimDuration::from_secs(60),
/// );
/// assert_eq!(est.rto(), SimDuration::from_secs(3));
/// est.sample(SimDuration::from_millis(100));
/// assert!(est.rto() < SimDuration::from_secs(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    initial_rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator with no samples yet.
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            initial_rto,
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Feeds a fresh RTT measurement and clears any timeout backoff.
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RFC 6298 with α = 1/8, β = 1/4, in integer nanoseconds.
                let err = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = (self.rttvar * 3 + err) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        self.backoff = 0;
    }

    /// Current smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The retransmission timeout, including any backoff.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.initial_rto,
            Some(srtt) => {
                let raw = srtt + self.rttvar * 4;
                raw.max(self.min_rto)
            }
        };
        let backed = base.saturating_mul(1u64 << self.backoff.min(16));
        backed.min(self.max_rto)
    }

    /// Doubles the RTO (called on each retransmission timeout).
    pub fn back_off(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// The current backoff exponent (diagnostics).
    pub fn backoff_level(&self) -> u32 {
        self.backoff
    }
}

sim_core::snap_record! {
    given (initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) RttEstimator {
        srtt,
        rttvar,
        initial_rto = initial_rto,
        min_rto = min_rto,
        max_rto = max_rto,
        backoff,
    }
    check |e| e.backoff <= 16 => "rtt backoff exponent";
    // `rto()` adds `rttvar * 4` to `srtt` and `sample()` takes `srtt * 7`.
    check |e| e.srtt.unwrap_or(SimDuration::ZERO) <= ESTIMATE_BOUND && e.rttvar <= ESTIMATE_BOUND
        => "rtt estimate out of range";
}

/// The largest `srtt` or `rttvar` a decoded estimator may hold: one whose
/// own arithmetic cannot overflow.
const ESTIMATE_BOUND: SimDuration = SimDuration::from_nanos(u64::MAX / 8);

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SnapError;

    fn est() -> RttEstimator {
        RttEstimator::new(
            SimDuration::from_secs(3),
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn initial_rto_before_samples() {
        assert_eq!(est().rto(), SimDuration::from_secs(3));
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_millis() as i64 - 80).abs() <= 1);
        // Variance decays; RTO clamps to min_rto.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn rto_respects_min() {
        let mut e = est();
        for _ in 0..50 {
            e.sample(SimDuration::from_millis(1));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100)); // RTO 300ms
        e.back_off();
        assert_eq!(e.rto(), SimDuration::from_millis(600));
        e.back_off();
        assert_eq!(e.rto(), SimDuration::from_millis(1200));
        for _ in 0..20 {
            e.back_off();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60)); // max clamp
        assert_eq!(e.backoff_level(), 16);
    }

    /// Audit pin for the backoff arithmetic: `rto()` computes
    /// `base.saturating_mul(1u64 << backoff.min(16)).min(max_rto)`. The
    /// shift operand is clamped to 16 *before* shifting (so the multiplier
    /// is at most 65536 and the shift itself can never be UB), the multiply
    /// saturates instead of wrapping, and the max-RTO clamp is applied
    /// *after* the shifted multiply — boundary levels 15, 16 and 17 all
    /// land exactly on `max_rto` once the doubled base crosses it.
    #[test]
    fn backoff_boundary_levels_15_16_17_clamp_after_shift() {
        // An uncapped estimator (huge max_rto) shows the raw doubling...
        let mut raw = RttEstimator::new(
            SimDuration::from_secs(3),
            SimDuration::from_millis(200),
            SimDuration::MAX,
        );
        raw.sample(SimDuration::from_millis(100)); // base RTO 300 ms
        for _ in 0..15 {
            raw.back_off();
        }
        assert_eq!(raw.backoff_level(), 15);
        assert_eq!(raw.rto(), SimDuration::from_millis(300 << 15));
        raw.back_off();
        assert_eq!(raw.backoff_level(), 16);
        assert_eq!(raw.rto(), SimDuration::from_millis(300 << 16));
        // A 17th timeout must not shift further: the exponent pins at 16.
        raw.back_off();
        assert_eq!(raw.backoff_level(), 16, "backoff exponent saturates at 16");
        assert_eq!(raw.rto(), SimDuration::from_millis(300 << 16));

        // ...and a bounded estimator clamps those same levels to max_rto.
        let mut capped = est(); // max_rto 60 s < 300 ms << 15
        capped.sample(SimDuration::from_millis(100));
        for level in [15u32, 16, 17] {
            while capped.backoff_level() < level.min(16) {
                capped.back_off();
            }
            assert_eq!(
                capped.rto(),
                SimDuration::from_secs(60),
                "level {level} must clamp to max_rto after the shift"
            );
        }
    }

    /// A base RTO large enough that even a small shift overflows u64 must
    /// saturate (and then clamp), never wrap to a tiny RTO.
    #[test]
    fn backoff_overflow_saturates_instead_of_wrapping() {
        let mut e = RttEstimator::new(
            SimDuration::from_secs(3),
            SimDuration::from_millis(200),
            SimDuration::MAX,
        );
        // srtt ≈ 2^60 ns: at backoff 16 the multiply exceeds u64::MAX.
        e.sample(SimDuration::from_nanos(1u64 << 60));
        for _ in 0..16 {
            e.back_off();
        }
        assert_eq!(e.rto(), SimDuration::MAX, "saturation, not wraparound");
    }

    #[test]
    fn sample_clears_backoff() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        e.back_off();
        e.back_off();
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.backoff_level(), 0);
        assert!(e.rto() <= SimDuration::from_millis(300));
    }

    fn encoded(e: &RttEstimator) -> Vec<u8> {
        let mut w = sim_core::SnapshotWriter::new();
        e.encode_state(&mut w);
        w.finish()
    }

    fn decoded(bytes: &[u8], initial_rto: SimDuration) -> Result<RttEstimator, SnapError> {
        let mut r = sim_core::SnapshotReader::new(bytes);
        let max = SimDuration::from_secs(60);
        RttEstimator::decode_state(&mut r, initial_rto, SimDuration::from_millis(200), max)
    }

    /// The three bounds are configuration: not in the bytes, and what the
    /// decoder is given is what the estimator then runs with.
    #[test]
    fn the_bounds_are_given_not_read() {
        let bytes = encoded(&est());
        assert_eq!(bytes.len(), 1 + 8 + 4, "an empty srtt, rttvar, backoff");
        let e = decoded(&bytes, SimDuration::from_secs(1)).expect("own encoding");
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    /// A decoded `srtt` or `rttvar` — each spoilt on its own — past an eighth
    /// of the range is refused, since `rto()` and `sample()` would overflow
    /// on it; one at the bound decodes and runs.
    #[test]
    fn an_estimate_whose_arithmetic_overflows_is_refused() {
        type Spoil = fn(&mut RttEstimator, SimDuration);
        let spoils: [Spoil; 2] = [|e, d| e.srtt = Some(d), |e, d| e.rttvar = d];
        for (i, spoil) in spoils.into_iter().enumerate() {
            let mut e = est();
            e.sample(SimDuration::from_millis(100));
            spoil(&mut e, ESTIMATE_BOUND);
            let mut at_bound = decoded(&encoded(&e), SimDuration::from_secs(3)).expect("at bound");
            let _ = at_bound.rto();
            at_bound.sample(SimDuration::from_millis(100));
            spoil(&mut e, ESTIMATE_BOUND + SimDuration::from_nanos(1));
            assert_eq!(
                decoded(&encoded(&e), SimDuration::from_secs(3)).err(),
                Some(SnapError::Invalid("rtt estimate out of range")),
                "field {i}"
            );
        }
    }

    #[test]
    fn variance_grows_with_jitter() {
        let mut stable = est();
        let mut jittery = est();
        for i in 0..50 {
            stable.sample(SimDuration::from_millis(100));
            jittery.sample(SimDuration::from_millis(if i % 2 == 0 { 50 } else { 150 }));
        }
        assert!(jittery.rto() > stable.rto());
    }
}
