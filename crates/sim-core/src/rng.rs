//! Seeded, reproducible randomness for simulations.
//!
//! Implemented in-repo (xoshiro256++ seeded through SplitMix64 — the same
//! construction `rand`'s `SmallRng` uses on 64-bit targets) so the
//! workspace has **no** external randomness dependency and every draw is a
//! pure function of the seed. The determinism policy enforced by `simlint`
//! requires all randomness to flow through this type.

/// A deterministic random number generator owned by a simulation run.
///
/// All randomness in a simulation (backoff slots, jitter, random loss) must
/// flow through a single `SimRng` so that a run is fully reproducible from its
/// seed.
///
/// # Example
///
/// ```
/// use sim_core::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s0: u64,
    s1: u64,
    s2: u64,
    s3: u64,
}

/// One SplitMix64 step, used to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s0: splitmix64(&mut sm),
            s1: splitmix64(&mut sm),
            s2: splitmix64(&mut sm),
            s3: splitmix64(&mut sm),
        }
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s0.wrapping_add(self.s3).rotate_left(23).wrapping_add(self.s0);
        let t = self.s1 << 17;
        self.s2 ^= self.s0;
        self.s3 ^= self.s1;
        self.s1 ^= self.s2;
        self.s0 ^= self.s3;
        self.s2 ^= t;
        self.s3 = self.s3.rotate_left(45);
        result
    }

    /// A uniformly random integer in `[0, bound)`.
    ///
    /// Uses the widening multiply-shift reduction; the bias is below 2⁻³²
    /// for any bound a simulation uses, far under anything observable.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        ((u64::from(self.next_u64() as u32) * u64::from(bound)) >> 32) as u32
    }

    /// A uniformly random integer in `[0, cw]` — the 802.11 backoff slot draw.
    pub fn backoff_slot(&mut self, cw: u32) -> u32 {
        if cw == u32::MAX {
            return self.next_u64() as u32;
        }
        self.below(cw + 1)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// A uniformly random float in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derives an independent child generator, e.g. one per node.
    ///
    /// Children seeded from distinct draws of the parent are statistically
    /// independent but still fully determined by the parent's seed.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

crate::snap_record! { SimRng { s0, s1, s2, s3 } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should differ");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn below_reaches_both_ends() {
        let mut rng = SimRng::new(8);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..2000 {
            match rng.below(7) {
                0 => lo = true,
                6 => hi = true,
                _ => {}
            }
        }
        assert!(lo && hi, "both ends of the range must be reachable");
    }

    #[test]
    fn backoff_slot_inclusive() {
        let mut rng = SimRng::new(4);
        let mut saw_max = false;
        for _ in 0..2000 {
            let s = rng.backoff_slot(3);
            assert!(s <= 3);
            saw_max |= s == 3;
        }
        assert!(saw_max, "upper bound must be reachable");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut rng = SimRng::new(6);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = SimRng::new(10);
        for _ in 0..10_000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u), "got {u}");
        }
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        let mut ca = a.fork();
        let mut cb = b.fork();
        assert_eq!(ca.next_u64(), cb.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        SimRng::new(1).below(0);
    }
}
