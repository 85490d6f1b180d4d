//! Small online statistics helpers shared across the workspace.

use crate::{SimDuration, SimTime};

/// An exponentially weighted moving average over floating-point samples.
///
/// Used by the MAC layer for channel-utilisation tracking and by the Muzha
/// router agent for queue-occupancy smoothing.
///
/// # Example
///
/// ```
/// use sim_core::stats::Ewma;
/// let mut e = Ewma::new(0.5);
/// e.update(1.0); // first sample initialises the average
/// e.update(0.0);
/// assert_eq!(e.value(), 0.5); // 0.5*0 + 0.5*1
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    initialised: bool,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`; larger
    /// `alpha` weights recent samples more.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1], got {alpha}");
        Ewma { alpha, value: 0.0, initialised: false }
    }

    /// Feeds one sample.
    pub fn update(&mut self, sample: f64) {
        if self.initialised {
            self.value = self.alpha * sample + (1.0 - self.alpha) * self.value;
        } else {
            self.value = sample;
            self.initialised = true;
        }
    }

    /// Ages the average as if `periods` zero-valued samples had been fed:
    /// the value decays by `(1 - alpha)^periods`. Fractional periods are
    /// allowed. This is ns-2 RED's idle-time correction: while a queue sits
    /// empty no arrivals sample the EWMA, so the estimator must decay the
    /// stale value toward the true (zero) occupancy before the next sample.
    ///
    /// No-op before the first sample or for non-positive `periods`.
    pub fn age(&mut self, periods: f64) {
        if self.initialised && periods > 0.0 {
            self.value *= (1.0 - self.alpha).powf(periods);
        }
    }

    /// The current smoothed value (0.0 before any sample).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Whether at least one sample has been observed.
    pub fn is_initialised(&self) -> bool {
        self.initialised
    }
}

crate::snap_record! { given (alpha: f64) Ewma { alpha = alpha, value, initialised } }

/// A time series of `(time, value)` samples, e.g. a congestion-window trace.
///
/// # Example
///
/// ```
/// use sim_core::stats::TimeSeries;
/// use sim_core::SimTime;
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_nanos(10), 1.0);
/// ts.record(SimTime::from_nanos(20), 2.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((SimTime::from_nanos(20), 2.0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Times must be nondecreasing.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous sample.
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(time >= last, "time series must be recorded in order");
        }
        self.samples.push((time, value));
    }

    /// All samples in order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.last().copied()
    }

    /// Samples with `start <= time < end`.
    pub fn window(&self, start: SimTime, end: SimTime) -> &[(SimTime, f64)] {
        let lo = self.samples.partition_point(|&(t, _)| t < start);
        let hi = self.samples.partition_point(|&(t, _)| t < end);
        &self.samples[lo..hi]
    }

    /// Time-weighted mean of a step function defined by the samples over
    /// `[start, end)`. Returns `None` if no sample precedes `end`.
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> Option<f64> {
        if end <= start || self.samples.is_empty() {
            return None;
        }
        // Value in force at `start` is the last sample at or before it.
        let first_after = self.samples.partition_point(|&(t, _)| t <= start);
        let mut current = if first_after == 0 {
            // No sample before start; series begins inside the window.
            None
        } else {
            Some(self.samples[first_after - 1].1)
        };
        let mut cursor = start;
        let mut weighted = 0.0;
        let mut covered = SimDuration::ZERO;
        for &(t, v) in &self.samples[first_after..] {
            if t >= end {
                break;
            }
            if let Some(cv) = current {
                let span = t - cursor;
                weighted += cv * span.as_secs_f64();
                covered += span;
            }
            cursor = t;
            current = Some(v);
        }
        if let Some(cv) = current {
            let span = end - cursor;
            weighted += cv * span.as_secs_f64();
            covered += span;
        }
        if covered == SimDuration::ZERO {
            None
        } else {
            Some(weighted / covered.as_secs_f64())
        }
    }
}

/// Jain's fairness index over per-flow allocations:
/// `(Σxᵢ)² / (n · Σxᵢ²)`.
///
/// Returns 1.0 for an empty or all-zero input by convention (nothing is
/// being shared unfairly).
///
/// # Example
///
/// ```
/// use sim_core::stats::jain_fairness_index;
/// assert_eq!(jain_fairness_index(&[1.0, 1.0, 1.0]), 1.0);
/// assert!((jain_fairness_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn jain_fairness_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn ewma_first_sample_initialises() {
        let mut e = Ewma::new(0.1);
        assert!(!e.is_initialised());
        e.update(10.0);
        assert_eq!(e.value(), 10.0);
        assert!(e.is_initialised());
    }

    #[test]
    fn ewma_converges_toward_constant() {
        let mut e = Ewma::new(0.3);
        for _ in 0..200 {
            e.update(5.0);
        }
        assert!((e.value() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn ewma_age_decays_toward_zero() {
        let mut e = Ewma::new(0.5);
        e.update(8.0);
        e.age(3.0);
        assert!((e.value() - 1.0).abs() < 1e-12, "8 * 0.5^3 = 1");
        // Aging by many periods drives the value to (near) zero, exactly as
        // feeding that many zero samples would.
        e.age(60.0);
        assert!(e.value() < 1e-12);
    }

    #[test]
    fn ewma_age_is_noop_before_init_and_for_nonpositive_periods() {
        let mut e = Ewma::new(0.3);
        e.age(10.0);
        assert_eq!(e.value(), 0.0);
        assert!(!e.is_initialised());
        e.update(4.0);
        e.age(0.0);
        e.age(-5.0);
        assert_eq!(e.value(), 4.0);
    }

    #[test]
    fn series_window_selects_half_open_range() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.record(t(i * 10), i as f64);
        }
        let w = ts.window(t(20), t(50));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], (t(20), 2.0));
        assert_eq!(w[2], (t(40), 4.0));
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(t(10), 0.0);
        ts.record(t(5), 0.0);
    }

    #[test]
    fn time_weighted_mean_of_step_function() {
        let mut ts = TimeSeries::new();
        ts.record(t(0), 2.0);
        ts.record(t(100), 4.0);
        // 2.0 for 100ns then 4.0 for 100ns => mean 3.0
        let m = ts.time_weighted_mean(t(0), t(200)).unwrap();
        assert!((m - 3.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_window_starting_mid_series() {
        let mut ts = TimeSeries::new();
        ts.record(t(0), 2.0);
        ts.record(t(100), 4.0);
        let m = ts.time_weighted_mean(t(50), t(150)).unwrap();
        assert!((m - 3.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_empty_cases() {
        let ts = TimeSeries::new();
        assert_eq!(ts.time_weighted_mean(t(0), t(10)), None);
        let mut ts = TimeSeries::new();
        ts.record(t(100), 1.0);
        // Window entirely before the first sample.
        assert_eq!(ts.time_weighted_mean(t(0), t(50)), None);
    }

    #[test]
    fn jain_properties() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness_index(&[3.0]), 1.0);
        let idx = jain_fairness_index(&[1.0, 1.0, 1.0, 1.0]);
        assert!((idx - 1.0).abs() < 1e-12);
        let skew = jain_fairness_index(&[10.0, 1.0]);
        assert!(skew < 0.65);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Jain's index is always in (0, 1] for nonnegative inputs.
        #[test]
        fn jain_bounded(xs in proptest::collection::vec(0.0f64..1e6, 1..32)) {
            let idx = jain_fairness_index(&xs);
            prop_assert!(idx > 0.0 && idx <= 1.0 + 1e-12, "idx = {idx}");
        }

        /// Jain's index is scale-invariant.
        #[test]
        fn jain_scale_invariant(xs in proptest::collection::vec(0.1f64..1e3, 1..16), k in 0.1f64..100.0) {
            let a = jain_fairness_index(&xs);
            let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
            let b = jain_fairness_index(&scaled);
            prop_assert!((a - b).abs() < 1e-9);
        }

        /// EWMA stays within the range of its inputs.
        #[test]
        fn ewma_bounded(samples in proptest::collection::vec(-100.0f64..100.0, 1..64), alpha in 0.01f64..1.0) {
            let mut e = Ewma::new(alpha);
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &s in &samples {
                e.update(s);
                lo = lo.min(s);
                hi = hi.max(s);
                prop_assert!(e.value() >= lo - 1e-9 && e.value() <= hi + 1e-9);
            }
        }
    }
}
