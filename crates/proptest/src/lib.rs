//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment is offline, so the real crates.io `proptest`
//! cannot be fetched. This shim implements the small surface the
//! workspace's property tests actually use — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `any::<T>()`, range strategies,
//! `proptest::collection::vec`, and `ProptestConfig::with_cases` — on top
//! of a seeded SplitMix64 generator, so every run samples the same inputs
//! (case N of test T is always the same value).
//!
//! It does **not** shrink failing inputs; the panic message reports the
//! case index so a failure can be replayed by reducing `with_cases`.

pub mod test_runner {
    /// Deterministic generator handed to strategies (SplitMix64).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from the test's module path + case index, so each test
        /// gets an independent but reproducible stream.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // Modulo bias is irrelevant for test-input sampling.
            self.next_u64() % bound
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Mirror of `proptest::test_runner::Config` (the `cases` knob only).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 48 }
        }
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }

        /// Case count, overridable via `PROPTEST_CASES` like the real crate.
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only shim: the case count sizes a property run, never a simulation"
        )]
        pub fn resolved_cases(&self) -> u64 {
            match std::env::var("PROPTEST_CASES") {
                Ok(v) => v.parse().unwrap_or(self.cases as u64),
                Err(_) => self.cases as u64,
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type.
    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Mirror of `proptest`'s `Strategy::prop_map`: transforms sampled
        /// values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice between same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident => $v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(S1 => s1, S2 => s2);
    tuple_strategy!(S1 => s1, S2 => s2, S3 => s3);
    tuple_strategy!(S1 => s1, S2 => s2, S3 => s3, S4 => s4);
    tuple_strategy!(S1 => s1, S2 => s2, S3 => s3, S4 => s4, S5 => s5);
    tuple_strategy!(S1 => s1, S2 => s2, S3 => s3, S4 => s4, S5 => s5, S6 => s6);

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128 - self.start as i128) as u64;
                    assert!(span > 0, "empty strategy range");
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Mirror of `proptest::prop_oneof!`: uniform choice among the arms (the
/// real crate supports weights; the workspace's tests do not use them).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$(Box::new($arm)),+])
    };
}

/// Assertion macros: the real crate returns `TestCaseError`; inside this
/// shim a plain panic gives the same test-failure behavior.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            @cfg ($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            for __case in 0..__cfg.resolved_cases() {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(
                    let $arg = $crate::strategy::Strategy::sample(
                        &($strat), &mut __rng);
                )*
                $body
            }
        }
        $crate::__proptest_fns! { @cfg ($cfg) $($rest)* }
    };
}
