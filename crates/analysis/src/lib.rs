//! Coherence soundness checking for the TPI reproduction: static lints
//! plus a dynamic staleness oracle.
//!
//! The paper's correctness argument rests on the compiler never leaving a
//! potentially-stale read unmarked (Section 3's reference-marking
//! algorithm). This crate is the harness that *checks* that claim, in two
//! cooperating halves:
//!
//! * **Static lint passes** ([`passes`]) over `tpi-ir` programs and the
//!   compiler's epoch flow graph, each owning a stable diagnostic code
//!   (`TPI001` unreachable-epoch, `TPI002` doall-write-write-conflict,
//!   `TPI003` degenerate-section, `TPI004` distance-saturation, `TPI005`
//!   dead-shared-array), reporting through the structured [`diag`]
//!   machinery in human or JSON form.
//! * **Dynamic staleness oracle** ([`oracle`]): replays a trace against a
//!   worst-case never-evict cache model and flags every read the marking
//!   would allow to observe stale data, plus precision statistics
//!   (Time-Reads that never needed marking). The [`differential`] mode
//!   sweeps kernels across compiler optimization levels through the
//!   memoizing [`tpi::Runner`], asserting the aggressive levels introduce
//!   zero violations.
//! * **Interleaving-level model checker** ([`model`]): drives the real
//!   coherence engines through every interleaving of tiny bounded access
//!   programs, checking freshness, miss accounting, and the per-scheme
//!   structural invariants after every single step (`TPI901`
//!   model-violation), with counterexamples shrunk to minimal traces.
//!   The `tpi-model` binary drives it from the command line.
//!
//! The `tpi-lint` binary drives the first two halves from the command
//! line:
//!
//! ```text
//! tpi-lint --all-kernels --schemes tpi,sc,tardis,hybrid --deny violations
//! tpi-lint --format json examples/programs/stencil.tpi
//! ```
//!
//! # Example
//!
//! ```
//! use tpi_analysis::{check_trace, lint_program, LintOptions, OracleMode};
//! use tpi_compiler::{mark_program, CompilerOptions};
//! use tpi_ir::{subs, ProgramBuilder};
//! use tpi_trace::{generate_trace, TraceOptions};
//!
//! let mut p = ProgramBuilder::new();
//! let a = p.shared("A", [64]);
//! let main = p.proc("main", |f| {
//!     f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
//!     f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
//! });
//! let prog = p.finish(main).expect("valid");
//!
//! // Static half: no lint fires on this clean program.
//! assert!(lint_program(&prog, &LintOptions::default()).is_empty());
//!
//! // Dynamic half: the marking admits no stale observation.
//! let marking = mark_program(&prog, &CompilerOptions::default());
//! let trace = generate_trace(&prog, &marking, &TraceOptions::default())?;
//! assert!(check_trace(&trace, OracleMode::Tpi).is_sound());
//! # Ok::<(), tpi_trace::TraceError>(())
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod differential;
pub mod model;
pub mod oracle;
pub mod passes;

pub use diag::{diagnostics_json, Code, Diagnostic, Severity};
pub use differential::{
    check_all_kernels, check_freshness, check_sources, total_freshness_violations,
    total_violations, CellReport, DifferentialOptions, FreshnessReport, ALL_LEVELS,
};
pub use model::{
    check_schemes, model_config, ModelOptions, ModelReport, ModelViolation, SchemeReport,
};
pub use oracle::{check_trace, OracleMode, OracleReport, OracleStats, Violation};
pub use passes::{lint_program, LintContext, LintOptions, LintPass, PassRegistry};
