//! Shared plumbing for the experiment implementations.

use tpi::{run_kernel, ExperimentConfig, ExperimentResult, Runner};
use tpi_proto::{registry, SchemeId};
use tpi_workloads::{Kernel, Scale};

/// Runs `kernel` under `cfg` with no memoization — the reference path the
/// [`Runner`]-based experiments are checked against. Panics on the
/// (impossible for the shipped kernels) race error so experiment code
/// stays declarative.
///
/// # Panics
///
/// Panics if the kernel traces with a race (a bug in the suite).
#[must_use]
pub fn run(kernel: Kernel, scale: Scale, cfg: &ExperimentConfig) -> ExperimentResult {
    run_kernel(kernel, scale, cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"))
}

/// The paper configuration with the scheme swapped.
#[must_use]
pub fn cfg_for(scheme: SchemeId) -> ExperimentConfig {
    ExperimentConfig::builder()
        .scheme(scheme)
        .build()
        .expect("the paper machine is valid")
}

/// The paper's main comparison schemes, in registry order.
#[must_use]
pub fn main_schemes() -> Vec<SchemeId> {
    registry::global().main_schemes()
}

/// Runs every benchmark under every main scheme on `runner`; yields
/// `(kernel, scheme, result)` in a deterministic order.
///
/// # Panics
///
/// Panics if any kernel traces with a race (a bug in the suite).
#[must_use]
pub fn full_matrix(scale: Scale, runner: &Runner) -> Vec<(Kernel, SchemeId, ExperimentResult)> {
    let main = main_schemes();
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(main.iter().copied())
        .run()
        .expect("the suite is race-free");
    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        for &scheme in &main {
            out.push((kernel, scheme, grid.get(kernel, scheme).clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_for_swaps_scheme_only() {
        let c = cfg_for(SchemeId::SC);
        assert_eq!(c.scheme, SchemeId::SC);
        assert_eq!(c.procs, ExperimentConfig::paper().procs);
    }

    #[test]
    fn main_schemes_are_the_paper_four() {
        let labels: Vec<&str> = main_schemes().iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["BASE", "SC", "TPI", "HW"]);
    }

    #[test]
    fn single_run_works() {
        let r = run(Kernel::Ocean, Scale::Test, &cfg_for(SchemeId::TPI));
        assert!(r.sim.total_cycles > 0);
    }

    #[test]
    fn full_matrix_matches_fresh_runs() {
        let runner = Runner::new();
        let matrix = full_matrix(Scale::Test, &runner);
        assert_eq!(matrix.len(), 24);
        let (kernel, scheme, memoized) = &matrix[5];
        let fresh = run(*kernel, Scale::Test, &cfg_for(*scheme));
        assert_eq!(memoized.sim.total_cycles, fresh.sim.total_cycles);
        assert_eq!(memoized.sim.agg, fresh.sim.agg);
    }
}
