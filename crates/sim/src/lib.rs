//! Multiprocessor timing simulation for the TPI coherence study.
//!
//! This crate is the back half of the paper's execution-driven methodology:
//! it replays the memory-event traces produced by `tpi-trace` against a
//! coherence engine from `tpi-proto`, advancing per-processor clocks,
//! synchronizing at epoch barriers, and collecting the measurements the
//! paper reports — execution time, miss rates, classified misses, average
//! miss latency, and network traffic.
//!
//! # Example
//!
//! ```
//! use tpi_compiler::{mark_program, CompilerOptions};
//! use tpi_ir::{ProgramBuilder, subs};
//! use tpi_proto::{build_engine, EngineConfig, SchemeId};
//! use tpi_sim::{run_trace, SimOptions};
//! use tpi_trace::{generate_trace, TraceOptions};
//!
//! let mut p = ProgramBuilder::new();
//! let a = p.shared("A", [64]);
//! let main = p.proc("main", |f| {
//!     f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
//!     f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
//! });
//! let prog = p.finish(main).expect("valid");
//! let marking = mark_program(&prog, &CompilerOptions::default());
//! let trace = generate_trace(&prog, &marking, &TraceOptions::default())?;
//! let mut engine = build_engine(
//!     SchemeId::TPI,
//!     EngineConfig::paper_default(trace.layout.total_words()),
//! );
//! let result = run_trace(&trace, engine.as_mut(), &SimOptions::default());
//! assert!(result.total_cycles > 0);
//! # Ok::<(), tpi_trace::TraceError>(())
//! ```

#![warn(missing_docs)]

pub mod replay;
pub mod run;

pub use replay::{run_trace_sharded, ShardExec, ShardOptions};
pub use run::{
    run_trace, run_trace_reference, verify_accounting, EpochProfile, SimHostProfile, SimOptions,
    SimResult,
};
