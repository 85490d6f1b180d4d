//! Event-trace hashing: the runtime twin of the `simlint` static policy.
//!
//! The static analyzer keeps nondeterminism *sources* out of the tree; this
//! module proves the property end-to-end: a simulator folds every dispatched
//! event into a [`TraceHash`], and two runs with the same seed must produce
//! the same digest. Any hash-ordered iteration, uninitialised read, or
//! wall-clock leak shows up as a digest mismatch within one test run.
//!
//! The digest is tiny, dependency-free, and plenty for equality comparison
//! (this is a replication check, not a cryptographic commitment): words —
//! what the simulator folds per event — cost one xor–multiply–rotate each,
//! bytes and strings go through FNV-1a (64-bit) on the same state.
//!
//! # Example
//!
//! ```
//! use sim_core::TraceHash;
//! let mut a = TraceHash::new();
//! a.write_u64(7).write_str("RxEnd");
//! let mut b = TraceHash::new();
//! b.write_u64(7).write_str("RxEnd");
//! assert_eq!(a.digest(), b.digest());
//! ```

/// An order-sensitive running digest of a simulation's event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHash {
    state: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Odd, so multiplying by it permutes the state: two digests that differ
/// before a word is folded still differ after it.
const WORD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
/// Brings the well-mixed high half down for the next word's multiply.
const WORD_ROTATE: u32 = 29;

impl TraceHash {
    /// A fresh digest.
    pub fn new() -> Self {
        TraceHash { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a `u64` into the digest as one word: a single
    /// xor–multiply–rotate, not eight byte steps — an event folds five to
    /// seven words, and the multiplies of a byte-wise fold are all
    /// dependent. Each step is a bijection of the state for a given word
    /// and of the word for a given state, so changing any bit of any one
    /// word always changes the digest.
    #[inline]
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.state = (self.state ^ value).wrapping_mul(WORD_MULTIPLIER).rotate_left(WORD_ROTATE);
        self
    }

    /// Folds a string into the digest (length-prefixed, so `"ab", "c"` and
    /// `"a", "bc"` differ).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// Folds an `f64` by bit pattern (exact, not approximate: replication
    /// means bit-for-bit equality, including NaN payloads and signed zero).
    pub fn write_f64(&mut self, value: f64) -> &mut Self {
        self.write_u64(value.to_bits())
    }

    /// The current digest value.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

impl Default for TraceHash {
    fn default() -> Self {
        Self::new()
    }
}

crate::snap_record! { TraceHash { state } }

/// Runs `f` twice and asserts both runs produce equal output — the
/// twin-run determinism check. Returns the (verified identical) result.
///
/// `f` must construct *all* of its state internally (simulator, RNG,
/// clocks); any shared mutable state between the runs defeats the check.
///
/// # Panics
///
/// Panics with a diagnostic if the two runs disagree.
///
/// # Example
///
/// ```
/// use sim_core::{twin_run, SimRng};
/// let digest = twin_run(|| {
///     let mut rng = SimRng::new(42);
///     (0..100).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
/// });
/// let _ = digest;
/// ```
pub fn twin_run<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> T {
    let first = f();
    let second = f();
    assert_eq!(
        first, second,
        "twin-run determinism check failed: two identical-seed runs diverged \
         (a nondeterminism source leaked into the simulation — run \
         `cargo run -p simlint` and check recent changes for hash-ordered \
         iteration)"
    );
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = TraceHash::new();
        a.write_u64(1).write_u64(2);
        let mut b = TraceHash::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.digest(), b.digest());
    }

    /// The word fold must keep everything the byte fold discriminated:
    /// which words, in which order, down to a single bit.
    #[test]
    fn word_fold_is_sensitive_to_order_and_to_every_bit() {
        let digest = |words: &[u64]| {
            let mut h = TraceHash::new();
            for &w in words {
                h.write_u64(w);
            }
            h.digest()
        };
        let words = [0u64, 1, 1 << 63, 0xDEAD_BEEF, u64::MAX, 42, 4_000_000_000];
        let base = digest(&words);
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                let mut swapped = words;
                swapped.swap(i, j);
                assert_ne!(digest(&swapped), base, "swapping words {i} and {j} went unnoticed");
            }
            for bit in 0..64 {
                let mut flipped = words;
                flipped[i] ^= 1 << bit;
                assert_ne!(digest(&flipped), base, "bit {bit} of word {i} went unnoticed");
            }
        }
        // A word is not its bytes: the two folds are different functions of
        // the same state and must not be confused for one another.
        let mut bytes = TraceHash::new();
        bytes.write_bytes(&7u64.to_le_bytes());
        assert_ne!(digest(&[7]), bytes.digest());
    }

    #[test]
    fn str_framing_prevents_concatenation_collisions() {
        let mut a = TraceHash::new();
        a.write_str("ab").write_str("c");
        let mut b = TraceHash::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn f64_hashing_is_bit_exact() {
        let mut a = TraceHash::new();
        a.write_f64(0.0);
        let mut b = TraceHash::new();
        b.write_f64(-0.0);
        assert_ne!(a.digest(), b.digest(), "signed zeros are distinct traces");
    }

    #[test]
    fn empty_digest_is_stable() {
        assert_eq!(TraceHash::new().digest(), TraceHash::default().digest());
    }

    #[test]
    fn twin_run_returns_the_common_value() {
        let mut calls = 0;
        let v = twin_run(|| {
            calls += 1;
            99u32
        });
        assert_eq!((v, calls), (99, 2));
    }

    #[test]
    #[should_panic(expected = "twin-run determinism check failed")]
    fn twin_run_catches_divergence() {
        let mut n = 0u32;
        twin_run(|| {
            n += 1;
            n
        });
    }
}
