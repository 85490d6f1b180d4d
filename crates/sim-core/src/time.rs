//! Virtual time types: instants ([`SimTime`]) and spans ([`SimDuration`]).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual simulation time, measured in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is a newtype over `u64`, so a simulation can run for roughly
/// 584 years of virtual time before overflowing — far beyond the 30–50 s
/// experiments in the paper.
///
/// # Example
///
/// ```
/// use sim_core::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of virtual simulation time, measured in nanoseconds.
///
/// # Example
///
/// ```
/// use sim_core::SimDuration;
/// let d = SimDuration::from_micros(50) * 3;
/// assert_eq!(d.as_micros(), 150);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span of `secs` seconds from a float.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Parses a span written in seconds — a flag's value, a script's time —
    /// refusing what [`Self::from_secs_f64`] would panic on. Every number of
    /// seconds that enters as text comes through here, so there is one bound.
    ///
    /// # Errors
    ///
    /// The float parser's message, or the range complaint.
    pub fn parse_secs(text: &str) -> Result<Self, String> {
        let secs = text.parse::<f64>().map_err(|e| e.to_string())?;
        if secs >= 0.0 && secs * 1e9 <= u64::MAX as f64 {
            Ok(Self::from_secs_f64(secs))
        } else {
            Err("want a non-negative number of seconds below 2^64 ns".to_string())
        }
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time needed to serialise `bits` bits onto a link of `bits_per_sec`.
    ///
    /// This is the canonical transmission-delay computation used by the PHY
    /// and MAC layers.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bits * 1e9 / rate fits a u64 for any frame under 1.8e10 bits"
    )]
    pub fn for_bits(bits: u64, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "link rate must be positive");
        // Round up: a partially-serialised bit still occupies the medium.
        let nanos = (bits as u128 * 1_000_000_000u128).div_ceil(bits_per_sec as u128);
        SimDuration(nanos as u64)
    }

    /// `self * n`, saturating instead of overflowing.
    pub fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }

    /// Ratio of two spans as a float. Returns 0.0 when `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "asserted finite, non-negative and at most 2^64 above"
)]
fn secs_to_nanos(secs: f64) -> u64 {
    assert!(secs.is_finite() && secs >= 0.0, "invalid time in seconds: {secs}");
    let nanos = secs * 1e9;
    assert!(nanos <= u64::MAX as f64, "time out of range: {secs}s");
    nanos.round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "time arithmetic overflow must abort; wrapping would reorder events"
    )]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "time arithmetic overflow must abort; wrapping would reorder events"
    )]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "time arithmetic overflow must abort; wrapping would reorder events"
    )]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime subtraction underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "time arithmetic overflow must abort; wrapping would reorder events"
    )]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "time arithmetic overflow must abort; wrapping would reorder events"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "time arithmetic overflow must abort; wrapping would reorder events"
    )]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_as_text_must_be_non_negative_and_fit() {
        assert_eq!(SimDuration::parse_secs("2.5"), Ok(SimDuration::from_millis(2500)));
        assert_eq!(SimDuration::parse_secs("0"), Ok(SimDuration::ZERO));
        for bad in ["-1", "NaN", "inf", "-inf", "soon", "", "99999999999999", "1.9e10", "1e30"] {
            assert!(SimDuration::parse_secs(bad).is_err(), "{bad:?} must be rejected");
        }
        // Everything accepted is what the panicking constructor makes of it.
        for edge in ["18446744073", "1.8e10", "1e-12", "-0"] {
            let secs: f64 = edge.parse().expect(edge);
            assert_eq!(SimDuration::parse_secs(edge), Ok(SimDuration::from_secs_f64(secs)));
        }
    }

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1_500);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let u = t + SimDuration::from_millis(500);
        assert_eq!(u - t, SimDuration::from_millis(500));
        assert_eq!(u.saturating_since(t).as_millis(), 500);
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(20);
        assert_eq!((d * 3).as_micros(), 60);
        assert_eq!((d / 2).as_micros(), 10);
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn tx_time_for_bits() {
        // 1500 bytes at 2 Mbps = 6 ms.
        let d = SimDuration::for_bits(1500 * 8, 2_000_000);
        assert_eq!(d.as_micros(), 6_000);
        // Rounds up.
        let d = SimDuration::for_bits(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_panics() {
        let _ = SimDuration::for_bits(8, 0);
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn time_underflow_panics() {
        let _ = SimTime::ZERO - SimDuration::from_nanos(1);
    }

    #[test]
    fn ratio() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(4);
        assert_eq!(a.ratio(b), 0.25);
        assert_eq!(a.ratio(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn display() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.to_string(), "1.250000s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "0.002000s");
    }

    #[test]
    fn ordering() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
