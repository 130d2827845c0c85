//! Offline stand-in for the subset of the `proptest` 1.x API this
//! workspace uses: the `proptest!` macro (including an optional
//! `#![proptest_config(...)]` header), range/tuple/`collection::vec`/
//! `any::<T>()` strategies, and the `prop_assert*` macros.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors this shim via a path dependency. Unlike real proptest there is
//! no shrinking and no persistence of failing cases: each test runs a
//! fixed number of deterministically seeded cases (default 32, override
//! with `PROPTEST_CASES`), and a failing case panics with the case index,
//! the run seed and the failed assertion.
//!
//! `PROPTEST_SEED` rotates the cases: any string (CI passes the commit
//! hash) is mixed into every case's generator, so each seed explores new
//! inputs. Unset, the cases are the fixed default ones; to replay a
//! failure, rerun with the `PROPTEST_SEED` its panic message names.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy {
    //! Value-generation strategies (sampling only — no shrinking).

    use rand::rngs::StdRng;
    use rand::{Rng, SampleRange};
    use std::ops::{Range, RangeInclusive};

    /// A source of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Sample one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl<T> Strategy for Range<T>
    where
        T: Copy,
        Range<T>: SampleRange<T>,
    {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T> Strategy for RangeInclusive<T>
    where
        T: Copy,
        RangeInclusive<T>: SampleRange<T>,
    {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
    }

    /// Types with a default "anything" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Sample an arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut StdRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut StdRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut StdRng) -> Self {
            // Arbitrary finite f32: random bits with NaN/inf exponents
            // remapped (keeps bit-level tests meaningful, avoids NaN
            // equality surprises).
            let mut bits: u32 = rng.gen();
            if bits & 0x7F80_0000 == 0x7F80_0000 {
                bits &= !0x4000_0000;
            }
            f32::from_bits(bits)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> Self {
            let mut bits: u64 = rng.gen();
            if bits & 0x7FF0_0000_0000_0000 == 0x7FF0_0000_0000_0000 {
                bits &= !0x4000_0000_0000_0000;
            }
            f64::from_bits(bits)
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The `any::<T>()` strategy constructor.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Vector length specification.
    #[derive(Copy, Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_exclusive: r.end() + 1 }
        }
    }

    /// Strategy producing `Vec`s of an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod test_runner {
    //! Case orchestration for the `proptest!` macro.

    /// A failed property assertion (carried as `Err` inside a case).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Per-test configuration (mirrors `ProptestConfig`'s used fields).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
        /// Accepted-but-ignored knob kept for struct-update compatibility.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(32);
            ProptestConfig { cases, max_shrink_iters: 0 }
        }
    }
}

pub mod prelude {
    //! The glob-imported surface (`use proptest::prelude::*`).

    pub use crate::strategy::{any, Arbitrary, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// The run seed: `PROPTEST_SEED`, trimmed, if set and non-empty.
pub fn env_seed() -> Option<String> {
    std::env::var("PROPTEST_SEED").ok().map(|s| s.trim().to_string()).filter(|s| !s.is_empty())
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic per-(test, case) generator under a run seed (see
/// [`env_seed`]): no entropy, no persistence. `None` gives the fixed
/// default cases; any seed string gives a different, equally deterministic
/// set.
pub fn case_rng(test_name: &str, case: u32, seed: Option<&str>) -> StdRng {
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, test_name.as_bytes());
    if let Some(seed) = seed {
        h = fnv1a(h ^ 0xff, seed.as_bytes());
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x5eed))
}

/// The `proptest!` macro: runs each property over `cases` deterministic
/// samples. Supports an optional `#![proptest_config(expr)]` header and
/// any number of `fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let seed = $crate::env_seed();
            for case in 0..config.cases {
                let mut proptest_case_rng =
                    $crate::case_rng(stringify!($name), case, seed.as_deref());
                $(
                    let $arg = $crate::strategy::Strategy::sample(
                        &($strat),
                        &mut proptest_case_rng,
                    );
                )*
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest case {case} of {} (PROPTEST_SEED={}): {e}",
                        stringify!($name),
                        seed.as_deref().unwrap_or("unset"),
                    );
                }
            }
        }
    )*};
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// `prop_assert!`: like `assert!` but returns an `Err` from the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)*),
            ));
        }
    };
}

/// `prop_assert_eq!`: equality variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{}: {:?} != {:?}", format!($($fmt)*), a, b);
    }};
}

/// `prop_assert_ne!`: inequality variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: both sides are {:?}", a);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn ranges_in_bounds(x in 1u32..10, y in -2.0f64..2.0) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(
            v in crate::collection::vec((0.0f32..1.0, 0u64..5), 2..7),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 7, "len {}", v.len());
            for (f, i) in &v {
                prop_assert!((0.0..1.0).contains(f));
                prop_assert!(*i < 5);
            }
        }

        #[test]
        fn any_floats_are_usable(x in any::<f32>(), b in any::<bool>()) {
            prop_assert!(!x.is_nan() && !x.is_infinite());
            prop_assert!(u32::from(b) <= 1);
        }
    }

    #[test]
    fn seeds_rotate_cases_reproducibly() {
        use crate::strategy::Strategy;
        let s = 0u64..u64::MAX;
        let draw = |seed: Option<&str>| -> Vec<u64> {
            (0..8).map(|c| s.sample(&mut crate::case_rng("t", c, seed))).collect()
        };
        assert_eq!(draw(None), draw(None));
        assert_eq!(draw(Some("abc123")), draw(Some("abc123")));
        assert_ne!(draw(None), draw(Some("abc123")));
        assert_ne!(draw(Some("abc123")), draw(Some("abc124")));
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let s = 0u64..1000;
        let a: Vec<u64> = (0..5).map(|c| s.sample(&mut crate::case_rng("t", c, None))).collect();
        let b: Vec<u64> = (0..5).map(|c| s.sample(&mut crate::case_rng("t", c, None))).collect();
        assert_eq!(a, b);
    }
}
