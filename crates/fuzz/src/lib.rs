//! `tpi-fuzz`: generative kernel fuzzing with differential oracle
//! checks, auto-minimized reproducers, and a promoted adversarial
//! workload corpus.
//!
//! The repository's sixth correctness level. The first five argue that
//! the compiler, oracle, engines, and model checker agree *on the
//! programs we thought to write*; this crate removes the "we thought to
//! write" qualifier by generating unbounded streams of race-free-by-
//! construction kernels ([`gen`]) and pushing every one through the
//! entire pipeline under a differential predicate ([`check`]): static
//! lints, trace generation at two optimization levels, the staleness
//! oracle in both TPI and SC semantics, freshness-verified simulation under
//! every registry scheme, the miss-accounting identity, and
//! cross-scheme/cross-level agreement driven by the scheme table.
//!
//! Violating kernels shrink to 1-minimal `.tpi` reproducers
//! ([`minimize()`]) and surface as stable `TPI902 fuzz-violation`
//! diagnostics. The `tpi-fuzz` binary drives it all:
//!
//! ```text
//! tpi-fuzz --seed 7 --count 200 --depth 3 --schemes all --deny violations
//! tpi-fuzz --seed 7 --count 20 --sabotage base-cache-shared --minimize
//! ```
//!
//! Everything is a pure function of the seed: the same seed and options
//! produce a byte-identical corpus and byte-identical verdicts.

#![warn(missing_docs)]

pub mod check;
pub mod gen;
pub mod minimize;

pub use check::{
    check_kernel, fuzz_config, run_fuzz, violates, FuzzOptions, FuzzReport, FuzzViolation,
    ViolationClass,
};
pub use gen::{generate_kernel, GenKernel, GenOptions};
pub use minimize::minimize;
/// The sabotage catalogue `--sabotage` names, shared with `tpi-model`.
pub use tpi::proto::Sabotage;
