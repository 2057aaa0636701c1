//! Zero-dependency testing support for the offline workspace.
//!
//! The workspace builds in environments with no crates.io access, so it
//! cannot depend on `proptest`. This crate supplies what the repository
//! uses instead:
//!
//! * a deterministic property-testing harness whose surface mirrors
//!   `proptest` (the [`proptest!`] macro, [`Strategy`], ranges and tuples
//!   as strategies, [`prop_oneof!`], `prop::collection::vec`, …), so the
//!   property suites read exactly as they would under the real crate, and
//! * bounded exhaustive enumeration helpers ([`mod@exhaustive`]) for
//!   tools that sweep every small structure instead of sampling.
//!
//! Generation is seeded from the test's module path and case index, so
//! every run of every machine explores the same inputs — reproducible
//! failures without a persisted regression file.

#![warn(missing_docs)]

pub mod exhaustive;
mod rng;
mod strategy;

pub use rng::{splitmix64, Rng};
pub use strategy::{
    any, Any, ArbitraryValue, BoxedStrategy, Just, Map, OptionStrategy, Strategy, Union,
    VecStrategy, Weighted,
};

/// Assertion failure carried out of a property body.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wraps a rendered failure message.
    #[must_use]
    pub fn new(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Property-test run configuration (the `proptest` name is kept so test
/// files read identically under either harness).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Namespaced strategy constructors, mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::{Strategy, VecStrategy};

        /// A `Vec` whose length is drawn from `len` and whose elements
        /// come from `element`.
        pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy::new(element, len)
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use crate::strategy::Weighted;

        /// `true` with probability `p`.
        #[must_use]
        pub fn weighted(p: f64) -> Weighted {
            Weighted::new(p)
        }
    }

    /// `Option` strategies.
    pub mod option {
        use crate::strategy::{OptionStrategy, Strategy};

        /// `Some` of the inner strategy three times out of four, `None`
        /// otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy::new(inner)
        }
    }
}

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Fails the enclosing property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::new(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::new(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::new(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::new(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// Picks one of several strategies, optionally weighted
/// (`weight => strategy`). All arms must share one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight as u32, $crate::Strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1u32, $crate::Strategy::boxed($strat))),+])
    };
}

/// Declares deterministic property tests.
///
/// The attribute is normally `#[test]`; the example uses `#[allow(unused)]`
/// only because doctests never execute unit tests.
///
/// ```
/// use tpi_testkit::prelude::*;
///
/// proptest! {
///     #[allow(unused)]
///     fn addition_commutes(a in 0i64..100, b in 0i64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # addition_commutes();
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); ) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])+
     fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            // Real proptest configs have more fields, so call sites spell
            // `..ProptestConfig::default()` even though ours has only one.
            #[allow(clippy::needless_update)]
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::Rng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    u64::from(case),
                );
                $(let $arg = $crate::Strategy::gen(&($strat), &mut rng);)+
                // The closure gives `prop_assert!` an early-return target.
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}",
                        stringify!($name),
                        case,
                        config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(v in -7i64..9, w in 3u32..17) {
            prop_assert!((-7..9).contains(&v));
            prop_assert!((3..17).contains(&w));
        }

        #[test]
        fn vec_lengths_respect_range(xs in prop::collection::vec(0u8..10, 2..6)) {
            prop_assert!((2..6).contains(&xs.len()));
            prop_assert!(xs.iter().all(|&x| x < 10), "{xs:?}");
        }

        #[test]
        fn oneof_covers_only_listed_arms(
            x in prop_oneof![Just(1u32), Just(2), (10u32..12).prop_map(|v| v)],
        ) {
            prop_assert!([1, 2, 10, 11].contains(&x), "unexpected {x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

        #[test]
        fn config_attribute_is_honored(seed in any::<u64>()) {
            // Five cases only; the body just has to run.
            let _ = seed;
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = prop::collection::vec(0u64..1000, 3..9);
        let a = Strategy::gen(&strat, &mut crate::Rng::for_case("det", 7));
        let b = Strategy::gen(&strat, &mut crate::Rng::for_case("det", 7));
        let c = Strategy::gen(&strat, &mut crate::Rng::for_case("det", 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
