//! Channel-utilisation accounting for the DRAI input.

use sim_core::{SimDuration, SimTime};

/// Accumulates the time a node's medium is occupied (own transmissions plus
/// all sensed signals) and reports utilisation per sampling window.
///
/// # Example
///
/// ```
/// use netstack::BusyTracker;
/// use sim_core::{SimDuration, SimTime};
///
/// let mut b = BusyTracker::new(SimTime::ZERO);
/// let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
/// b.note(t(0), t(50));
/// assert_eq!(b.sample(t(100)), 0.5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BusyTracker {
    busy_until: SimTime,
    accumulated: SimDuration,
    window_start: SimTime,
}

impl BusyTracker {
    /// Creates a tracker whose first window starts at `start`.
    pub fn new(start: SimTime) -> Self {
        BusyTracker { busy_until: start, accumulated: SimDuration::ZERO, window_start: start }
    }

    /// Records that the medium is occupied from `now` until `end`.
    /// Overlapping intervals are merged, not double counted.
    pub fn note(&mut self, now: SimTime, end: SimTime) {
        let start = self.busy_until.max(now);
        if end > start {
            self.accumulated += end - start;
            self.busy_until = end;
        }
    }

    /// Closes the current window at `now` and returns its utilisation in
    /// `[0, 1]`. Returns 0.0 for an empty window.
    pub fn sample(&mut self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.window_start);
        let util =
            if window == SimDuration::ZERO { 0.0 } else { self.accumulated.ratio(window).min(1.0) };
        self.accumulated = SimDuration::ZERO;
        self.window_start = now;
        util
    }
}

sim_core::snap_record! { BusyTracker { busy_until, accumulated, window_start } }

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn disjoint_intervals_accumulate() {
        let mut b = BusyTracker::new(t(0));
        b.note(t(0), t(10));
        b.note(t(20), t(30));
        assert_eq!(b.sample(t(100)), 0.2);
    }

    #[test]
    fn overlapping_intervals_merge() {
        let mut b = BusyTracker::new(t(0));
        b.note(t(0), t(50));
        b.note(t(25), t(60)); // 10 ms extra, not 35
        assert_eq!(b.sample(t(100)), 0.6);
    }

    #[test]
    fn nested_interval_adds_nothing() {
        let mut b = BusyTracker::new(t(0));
        b.note(t(0), t(50));
        b.note(t(10), t(20));
        assert_eq!(b.sample(t(100)), 0.5);
    }

    #[test]
    fn sample_resets_window() {
        let mut b = BusyTracker::new(t(0));
        b.note(t(0), t(100));
        assert_eq!(b.sample(t(100)), 1.0);
        assert_eq!(b.sample(t(200)), 0.0);
    }

    #[test]
    fn utilisation_clamped_to_one() {
        let mut b = BusyTracker::new(t(0));
        // Busy interval extending past the sample point.
        b.note(t(0), t(200));
        assert_eq!(b.sample(t(100)), 1.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let mut b = BusyTracker::new(t(0));
        assert_eq!(b.sample(t(0)), 0.0);
    }
}
