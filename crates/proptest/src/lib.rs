//! A minimal, deterministic, std-only property-testing shim.
//!
//! This workspace builds in an offline environment, so the real `proptest`
//! crate cannot be fetched from a registry. This crate re-implements the
//! small slice of its API that the workspace's tests use — `proptest!`,
//! `prop_assert*`, `ProptestConfig`, `Strategy`, `any`, `Just`,
//! `prop_map`, tuple strategies, numeric range strategies and
//! `proptest::collection::vec` — on top of a seeded SplitMix64 generator.
//!
//! Two deliberate differences from upstream:
//!
//! * **No shrinking.** On failure the panic message reports the case index
//!   and the per-test seed so the exact inputs can be regenerated.
//! * **Fully deterministic.** The generator seed is derived from the test's
//!   `module_path!()` and name, never from the environment or the clock, so
//!   a red case stays red until the code (not the schedule) changes. This
//!   matches the workspace's determinism policy (the root `clippy.toml`).
//!
//! # Example
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     // In real code this carries `#[test]`; plain functions work too.
//!     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::cast_possible_truncation,
    reason = "strategies narrow uniform u64 draws into their value types on purpose"
)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------------

/// The deterministic random source driving every strategy.
///
/// SplitMix64: tiny state, excellent distribution for test-input purposes,
/// and trivially reproducible from a single `u64` seed.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` via the multiply-shift reduction.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range handed to a strategy");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a over `bytes`; used to derive stable per-test seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Test-runner configuration, mirroring the upstream struct-update idiom
/// `ProptestConfig { cases: 12, ..ProptestConfig::default() }`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Accepted for source compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64, max_shrink_iters: 0 }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for producing values of one type from a [`TestRng`].
pub trait Strategy {
    /// The produced value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps the produced value through `f` (upstream `prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Boxed / referenced strategies delegate.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy (upstream `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy produced by [`any`].
#[derive(Clone, Debug)]
pub struct Any<T>(PhantomData<T>);

/// The full-domain strategy for `T` (upstream `any::<T>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ---------------------------------------------------------------------------
// Numeric range strategies
// ---------------------------------------------------------------------------

macro_rules! unsigned_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).checked_sub(self.start as u64)
                    .filter(|&s| s > 0)
                    .expect("empty range strategy");
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}
unsigned_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty range strategy");
                (self.start as i128 + rng.below(span as u64) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                (lo + rng.below((hi - lo + 1) as u64) as i128) as $t
            }
        }
    )*};
}
signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

// ---------------------------------------------------------------------------
// Tuple strategies
// ---------------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of values from `element`, sized per `size` (a `usize`,
    /// `Range<usize>` or `RangeInclusive<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.draw(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// A length specification for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl SizeRange {
    fn draw(&self, rng: &mut TestRng) -> usize {
        let span = (self.max_inclusive - self.min) as u64 + 1;
        self.min + rng.below(span) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max_inclusive: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { min: r.start, max_inclusive: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange { min: *r.start(), max_inclusive: *r.end() }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests (see the crate docs for the supported subset).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($p:pat in $s:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let seed =
                    $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)).as_bytes());
                for case in 0..cfg.cases {
                    let case_seed = seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut rng = $crate::TestRng::new(case_seed);
                    $(let $p = $crate::Strategy::generate(&($s), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(1);
        let mut b = TestRng::new(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (3u64..10).generate(&mut rng);
            assert!((3..10).contains(&v));
            let w = (1u8..=5).generate(&mut rng);
            assert!((1..=5).contains(&w));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let s = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = TestRng::new(9);
        for _ in 0..200 {
            let v = collection::vec(0u8..4, 2..6).generate(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
        let exact = collection::vec(any::<bool>(), 20).generate(&mut rng);
        assert_eq!(exact.len(), 20);
    }

    #[test]
    fn map_and_tuples_compose() {
        let mut rng = TestRng::new(11);
        let strat = (1u8..=5).prop_map(|c| c * 2);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v % 2 == 0 && (2..=10).contains(&v));
            let (a, b, c) = (0u16..8, any::<bool>(), 1u8..10).generate(&mut rng);
            assert!(a < 8);
            let _: bool = b;
            assert!((1..10).contains(&c));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The macro itself: config, doc attrs, trailing comma, mut pattern.
        #[test]
        fn macro_roundtrip(mut xs in collection::vec(0u32..100, 1..8), flip in any::<bool>()) {
            if flip {
                xs.reverse();
            }
            prop_assert!(!xs.is_empty(), "len {}", xs.len());
            prop_assert!(xs.capacity() >= xs.len());
            prop_assert_ne!(xs.len(), 0);
        }
    }
}
