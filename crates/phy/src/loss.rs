//! Bursty channel error models.
//!
//! The paper's "random loss" is a flat i.i.d. per-frame probability
//! ([`crate::RadioParams::per_frame_loss`]). Real wireless channels fade in
//! bursts: errors cluster while the channel is in a bad state and are rare
//! while it is good. The classic two-state Markov abstraction of this is the
//! Gilbert–Elliott model, provided here as a drop-in *episode* that the
//! simulator can switch on and off under scenario control.
//!
//! The model is a pure state machine: the caller owns the per-receiver
//! [`GeState`] and the [`sim_core::SimRng`] so that every draw stays on the
//! simulation's seeded stream.
//!
//! # Example
//!
//! ```
//! use phy::{GeState, GilbertElliott};
//! use sim_core::SimRng;
//!
//! let ge = GilbertElliott::new(0.05, 0.5, 0.0, 1.0).unwrap();
//! let mut state = GeState::new();
//! let mut rng = SimRng::new(7);
//! let lost = (0..10_000).filter(|_| state.frame_lost(&ge, &mut rng)).count();
//! // Stationary loss ≈ π_bad · 1.0 = 0.05 / 0.55 ≈ 9.1%.
//! assert!(lost > 500 && lost < 1_500);
//! ```

use sim_core::SimRng;

/// Parameters of a two-state Gilbert–Elliott bursty loss channel.
///
/// The channel alternates between a *good* and a *bad* state; state
/// transitions are sampled once per frame, then the frame is lost with the
/// current state's loss probability. Burstiness comes from the sojourn
/// times: the mean dwell in the bad state is `1 / p_bg` frames.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame transition probability good → bad.
    pub p_gb: f64,
    /// Per-frame transition probability bad → good.
    pub p_bg: f64,
    /// Frame loss probability while in the good state.
    pub loss_good: f64,
    /// Frame loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Builds a validated parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first parameter outside `[0, 1]`, or of
    /// a chain that can never leave one of its states it can enter.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Result<Self, String> {
        let ge = GilbertElliott { p_gb, p_bg, loss_good, loss_bad };
        ge.check()?;
        Ok(ge)
    }

    fn check(&self) -> Result<(), String> {
        for (name, v) in [
            ("p_gb", self.p_gb),
            ("p_bg", self.p_bg),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("gilbert-elliott {name} must be in [0, 1], got {v}"));
            }
        }
        if self.p_gb > 0.0 && self.p_bg == 0.0 {
            return Err("gilbert-elliott chain would be absorbed in the bad state \
                        (p_gb > 0 but p_bg == 0)"
                .to_string());
        }
        Ok(())
    }

    /// Whether the model is degenerate: both states lose frames with the
    /// same probability, so it is indistinguishable from (and evaluated
    /// exactly as) the flat Bernoulli model.
    pub fn is_degenerate(&self) -> bool {
        self.loss_good.to_bits() == self.loss_bad.to_bits()
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            return 0.0;
        }
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run frame loss probability.
    pub fn mean_loss(&self) -> f64 {
        let pi_bad = self.stationary_bad();
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }

    /// Mean sojourn in the bad state, in frames.
    pub fn mean_bad_sojourn(&self) -> f64 {
        if self.p_bg == 0.0 {
            return f64::INFINITY;
        }
        1.0 / self.p_bg
    }
}

/// Per-receiver Gilbert–Elliott channel state (starts in the good state).
///
/// Each receiver carries its own state so bursts are independent across
/// links, mirroring how the flat model draws loss per receiver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GeState {
    bad: bool,
}

impl GeState {
    /// A fresh state in the good channel condition.
    pub fn new() -> Self {
        GeState { bad: false }
    }

    /// Whether the channel is currently in the bad state.
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// Samples one frame: steps the state chain, then draws the loss from
    /// the (possibly new) state's loss probability.
    ///
    /// Degenerate parameter sets take the exact Bernoulli path — same
    /// decision *and* same number of RNG draws as the flat model — so a
    /// scripted degenerate episode reproduces the legacy behaviour
    /// bit-for-bit.
    pub fn frame_lost(&mut self, ge: &GilbertElliott, rng: &mut SimRng) -> bool {
        if ge.is_degenerate() {
            return ge.loss_good > 0.0 && rng.chance(ge.loss_good);
        }
        let flip = if self.bad { ge.p_bg } else { ge.p_gb };
        if rng.chance(flip) {
            self.bad = !self.bad;
        }
        let p = if self.bad { ge.loss_bad } else { ge.loss_good };
        p > 0.0 && rng.chance(p)
    }
}

sim_core::snap_record! {
    GilbertElliott { p_gb, p_bg, loss_good, loss_bad }
    check |ge| ge.check().is_ok() => "gilbert-elliott params";
}

sim_core::snap_record! { GeState { bad } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_params() {
        assert!(GilbertElliott::new(1.5, 0.5, 0.0, 1.0).is_err());
        assert!(GilbertElliott::new(0.1, -0.1, 0.0, 1.0).is_err());
        assert!(GilbertElliott::new(0.1, 0.5, 0.0, 2.0).is_err());
    }

    #[test]
    fn rejects_absorbing_bad_state() {
        assert!(GilbertElliott::new(0.1, 0.0, 0.0, 1.0).is_err());
        // All-good chain with no transitions is fine.
        assert!(GilbertElliott::new(0.0, 0.0, 0.01, 0.01).is_ok());
    }

    #[test]
    fn empirical_loss_rate_matches_stationary_prediction() {
        // π_bad = 0.02 / 0.22 ≈ 0.0909; mean loss ≈ 0.0909 · 0.8 ≈ 7.3%.
        let ge = GilbertElliott::new(0.02, 0.2, 0.0, 0.8).expect("valid params");
        let predicted = ge.mean_loss();
        let mut state = GeState::new();
        let mut rng = SimRng::new(0x6765);
        let n = 200_000;
        let lost = (0..n).filter(|_| state.frame_lost(&ge, &mut rng)).count();
        let empirical = lost as f64 / n as f64;
        assert!(
            (empirical - predicted).abs() < 0.01,
            "empirical {empirical:.4} vs predicted {predicted:.4}"
        );
    }

    #[test]
    fn empirical_burst_length_matches_sojourn_prediction() {
        // With loss_good = 0 and loss_bad = 1, a run of consecutive losses
        // is exactly one bad-state sojourn: Geometric(p_bg), mean 1/p_bg.
        let ge = GilbertElliott::new(0.05, 0.25, 0.0, 1.0).expect("valid params");
        let mut state = GeState::new();
        let mut rng = SimRng::new(0x6267);
        let mut bursts = Vec::new();
        let mut run = 0u64;
        for _ in 0..400_000 {
            if state.frame_lost(&ge, &mut rng) {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        assert!(bursts.len() > 1_000, "too few bursts observed: {}", bursts.len());
        let mean = bursts.iter().sum::<u64>() as f64 / bursts.len() as f64;
        let predicted = ge.mean_bad_sojourn();
        assert!(
            (mean - predicted).abs() / predicted < 0.1,
            "mean burst {mean:.3} vs predicted {predicted:.3}"
        );
    }

    #[test]
    fn degenerate_params_reproduce_bernoulli_exactly() {
        // Same seed, same draw count: the degenerate GE episode must make
        // the identical per-frame decisions as the flat Bernoulli model.
        let p = 0.03;
        let ge = GilbertElliott::new(0.1, 0.4, p, p).expect("valid params");
        assert!(ge.is_degenerate());
        let mut state = GeState::new();
        let mut ge_rng = SimRng::new(42);
        let mut flat_rng = SimRng::new(42);
        for i in 0..50_000 {
            let a = state.frame_lost(&ge, &mut ge_rng);
            let b = flat_rng.chance(p);
            assert_eq!(a, b, "diverged at frame {i}");
        }
        // And the streams stayed in lockstep.
        assert_eq!(ge_rng.next_u64(), flat_rng.next_u64());
    }

    #[test]
    fn zero_loss_degenerate_draws_nothing() {
        // loss 0/0 must not consume RNG draws, mirroring the simulator's
        // `loss_p > 0.0` guard on the flat model.
        let ge = GilbertElliott::new(0.2, 0.3, 0.0, 0.0).expect("valid params");
        let mut state = GeState::new();
        let mut rng = SimRng::new(9);
        let mut twin = SimRng::new(9);
        for _ in 0..100 {
            assert!(!state.frame_lost(&ge, &mut rng));
        }
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn bursty_channel_is_burstier_than_bernoulli_at_equal_rate() {
        // Compare the number of loss runs at matched long-run loss rates: the
        // GE channel packs its losses into fewer, longer bursts.
        let ge = GilbertElliott::new(0.01, 0.09, 0.0, 1.0).expect("valid params");
        let rate = ge.mean_loss();
        let count_runs =
            |seq: &[bool]| seq.windows(2).filter(|w| !w[0] && w[1]).count() + usize::from(seq[0]);
        let mut state = GeState::new();
        let mut rng = SimRng::new(11);
        let ge_seq: Vec<bool> = (0..100_000).map(|_| state.frame_lost(&ge, &mut rng)).collect();
        let mut rng = SimRng::new(11);
        let flat_seq: Vec<bool> = (0..100_000).map(|_| rng.chance(rate)).collect();
        let (ge_losses, flat_losses) =
            (ge_seq.iter().filter(|&&l| l).count(), flat_seq.iter().filter(|&&l| l).count());
        // Matched rates within noise...
        assert!((ge_losses as f64 - flat_losses as f64).abs() < 0.25 * flat_losses as f64);
        // ...but far fewer distinct bursts.
        assert!(
            2 * count_runs(&ge_seq) < count_runs(&flat_seq),
            "ge runs {} vs flat runs {}",
            count_runs(&ge_seq),
            count_runs(&flat_seq)
        );
    }

    #[test]
    fn stationary_math() {
        let ge = GilbertElliott::new(0.1, 0.3, 0.0, 1.0).expect("valid params");
        assert!((ge.stationary_bad() - 0.25).abs() < 1e-12);
        assert!((ge.mean_loss() - 0.25).abs() < 1e-12);
        assert!((ge.mean_bad_sojourn() - 1.0 / 0.3).abs() < 1e-12);
        let frozen = GilbertElliott::new(0.0, 0.0, 0.0, 1.0).expect("valid params");
        assert_eq!(frozen.stationary_bad(), 0.0);
    }
}
