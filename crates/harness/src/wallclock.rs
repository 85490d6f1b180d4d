//! The one sanctioned wall-clock shim in the workspace.
//!
//! Simulation state must never observe host time — determinism depends on
//! it, and the root `clippy.toml` disallows `std::time::Instant` across the
//! workspace. Measurement code is different: events-per-second and batch
//! speed-up numbers *are* wall-clock quantities. [`WallClock`] is the narrow
//! door those measurements go through; this module's `#![expect]` is the one
//! licence, so this is the only `Instant` in the tree, and its readings must
//! only ever flow into reports, never back into simulator inputs.

#![expect(clippy::disallowed_types, reason = "the one licensed reader of wall time")]

use std::time::Instant;

/// A started wall-clock timer for measuring harness-side elapsed time.
///
/// # Example
///
/// ```
/// use harness::WallClock;
/// let clock = WallClock::start();
/// let elapsed = clock.elapsed_secs();
/// assert!(elapsed >= 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    started: Instant,
}

impl WallClock {
    /// Starts a timer now.
    pub fn start() -> Self {
        WallClock { started: Instant::now() }
    }

    /// Seconds of host time elapsed since [`WallClock::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let clock = WallClock::start();
        let a = clock.elapsed_secs();
        let b = clock.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
