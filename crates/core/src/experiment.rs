//! End-to-end experiment execution: program → marking → trace → timing.

use crate::config::ExperimentConfig;
use tpi_compiler::{mark_program, Marking, MarkingSummary};
use tpi_ir::Program;
use tpi_proto::build_engine;
use tpi_sim::{run_trace, verify_accounting, SimResult};
use tpi_trace::{generate_trace, Trace, TraceError, TraceStats};
use tpi_workloads::{Kernel, Scale};

/// Everything one experiment run produced.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Timing, misses, traffic.
    pub sim: SimResult,
    /// What the compiler decided about each read.
    pub marking: MarkingSummary,
    /// Raw event counts of the trace.
    pub trace: TraceStats,
}

/// Runs `program` under `config`.
///
/// # Errors
///
/// Returns [`TraceError`] if the program violates DOALL race freedom.
///
/// # Panics
///
/// Panics if the scheme's internal accounting identity breaks (a bug in
/// the engine, not in user input).
pub fn run_program(
    program: &Program,
    config: &ExperimentConfig,
) -> Result<ExperimentResult, TraceError> {
    let marking = mark_program(program, &config.compiler_options());
    let trace = generate_trace(program, &marking, &config.trace_options())?;
    Ok(simulate_cell(config, &trace, &marking))
}

/// The scheme-dependent tail of the pipeline, shared with the
/// [`Runner`](crate::Runner): replays `trace` on a fresh engine of
/// `config`'s scheme and checks its accounting identity.
pub(crate) fn simulate_cell(
    config: &ExperimentConfig,
    trace: &Trace,
    marking: &Marking,
) -> ExperimentResult {
    let mut engine = build_engine(
        config.scheme,
        config.engine_config(trace.layout.total_words()),
    );
    let sim = run_trace(trace, engine.as_mut(), &config.sim_options());
    verify_accounting(&sim).expect("engine accounting identity");
    ExperimentResult {
        sim,
        marking: marking.summary(),
        trace: trace.stats,
    }
}

/// Runs one of the benchmark kernels under `config`.
///
/// # Errors
///
/// Returns [`TraceError`] if the kernel races under the configured
/// schedule (the shipped kernels never do).
pub fn run_kernel(
    kernel: Kernel,
    scale: Scale,
    config: &ExperimentConfig,
) -> Result<ExperimentResult, TraceError> {
    let program = kernel.build(scale);
    run_program(&program, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_proto::{registry, SchemeId};

    #[test]
    fn all_schemes_run_all_kernels_at_test_scale() {
        for kernel in Kernel::ALL {
            for scheme in registry::global().main_schemes() {
                let cfg = ExperimentConfig::builder().scheme(scheme).build().unwrap();
                let r = run_kernel(kernel, Scale::Test, &cfg)
                    .unwrap_or_else(|e| panic!("{kernel} under {scheme}: {e}"));
                assert!(r.sim.total_cycles > 0);
                assert_eq!(r.sim.scheme, scheme.label());
            }
        }
    }

    #[test]
    fn headline_shape_tpi_comparable_to_hw_and_better_than_base() {
        // The paper's central claim, checked at test scale on the stencil
        // kernel: TPI within range of the directory scheme, both far ahead
        // of no-caching.
        let mut cycles = std::collections::HashMap::new();
        for scheme in registry::global().main_schemes() {
            let cfg = ExperimentConfig::builder().scheme(scheme).build().unwrap();
            let r = run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
            cycles.insert(scheme.label(), r.sim.total_cycles);
        }
        assert!(cycles["TPI"] < cycles["BASE"]);
        assert!(cycles["HW"] < cycles["BASE"]);
        assert!(cycles["TPI"] <= cycles["SC"], "{cycles:?}");
        let ratio = cycles["TPI"] as f64 / cycles["HW"] as f64;
        assert!((0.4..2.0).contains(&ratio), "TPI/HW = {ratio} ({cycles:?})");
    }

    #[test]
    fn limitless_runs_too() {
        let cfg = ExperimentConfig::builder()
            .scheme(SchemeId::LIMITLESS)
            .limitless_pointers(2)
            .build()
            .unwrap();
        let r = run_kernel(Kernel::Spec77, Scale::Test, &cfg).unwrap();
        assert!(
            r.sim.agg.traps > 0,
            "broadcast table must overflow 2 pointers"
        );
    }
}
