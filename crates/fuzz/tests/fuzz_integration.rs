//! End-to-end tests for the generative differential fuzzer: determinism
//! of the corpus and the verdicts, sabotage detection, and the
//! minimizer's violation-preservation contract.

use std::sync::Arc;
use tpi::proto::SchemeId;
use tpi_fuzz::{
    fuzz_config, generate_kernel, minimize, run_fuzz, violates, FuzzOptions, GenOptions, Sabotage,
    ViolationClass,
};
use tpi_testkit::prelude::*;
use tpi_testkit::splitmix64;

fn small_opts() -> FuzzOptions {
    FuzzOptions {
        seed: 7,
        count: 12,
        depth: 3,
        minimize: false,
        sabotage: None,
        ..FuzzOptions::default()
    }
}

/// The config seed `run_fuzz` derives for kernel `index` (kept in sync
/// with `check.rs` so tests can re-drive `violates` standalone).
fn cfg_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ index.wrapping_add(17))
}

#[test]
fn healthy_engines_survive_the_corpus() {
    let report = run_fuzz(&small_opts());
    assert_eq!(report.checked, 12);
    assert!(report.parallel_epochs > 0, "corpus exercised no DOALLs");
    assert!(report.sims > 0);
    assert!(
        report.is_clean(),
        "healthy engines violated: {:?}",
        report.diagnostics()
    );
}

#[test]
fn same_seed_gives_byte_identical_corpus_and_verdicts() {
    let opts = small_opts();
    let gen = GenOptions {
        seed: opts.seed,
        depth: opts.depth,
    };
    // Kernel sources are a pure function of (seed, depth, index).
    for index in 0..opts.count {
        let a = generate_kernel(&gen, index);
        let b = generate_kernel(&gen, index);
        assert_eq!(a.name, b.name);
        assert_eq!(a.source, b.source, "kernel {index} not deterministic");
    }
    // And the full differential verdict stream is byte-identical too.
    let first = run_fuzz(&opts).json();
    let second = run_fuzz(&opts).json();
    assert_eq!(first, second);
}

#[test]
fn distinct_seeds_give_distinct_corpora() {
    let a = generate_kernel(&GenOptions { seed: 1, depth: 3 }, 0);
    let b = generate_kernel(&GenOptions { seed: 2, depth: 3 }, 0);
    assert_ne!(a.source, b.source);
}

#[test]
fn sabotaged_engine_is_caught_and_minimized() {
    let opts = FuzzOptions {
        seed: 7,
        count: 20,
        schemes: vec![SchemeId::HYBRID],
        minimize: true,
        sabotage: Some(Sabotage::HybridDropSharer),
        ..FuzzOptions::default()
    };
    let report = run_fuzz(&opts);
    assert!(
        !report.is_clean(),
        "a sabotaged hybrid directory must produce violations"
    );
    let v = &report.violations[0];
    assert_eq!(v.class, ViolationClass::Invariant);
    assert_eq!(v.scheme, Some(SchemeId::HYBRID));
    let d = v.diagnostic().human();
    assert!(d.starts_with("error[TPI902] fuzz-violation:"), "{d}");

    // The minimized reproducer re-parses and still violates.
    let min_src = v.minimized.as_ref().expect("minimize was requested");
    assert!(min_src.len() <= v.source.len());
    let min_prog = Arc::new(tpi_ir::parse_program(min_src).expect("reproducer must re-parse"));
    assert!(violates(
        &min_prog,
        cfg_seed(opts.seed, v.index as u64),
        &opts.schemes,
        opts.sabotage,
        v.class,
        v.scheme,
    ));
}

#[test]
fn order_insensitivity_lie_is_caught_by_the_replay_class_and_minimized() {
    // A full-map directory that claims order insensitivity replays each
    // processor's stream straight through, past sharer and owner state
    // the others depend on: the replay class must notice, and shrink the
    // kernel.
    let opts = FuzzOptions {
        seed: 7,
        count: 2,
        schemes: vec![SchemeId::FULL_MAP],
        minimize: true,
        sabotage: Some(Sabotage::FullmapClaimsOrderInsensitive),
        ..FuzzOptions::default()
    };
    let report = run_fuzz(&opts);
    assert!(
        !report.is_clean(),
        "the order-insensitivity lie went unnoticed"
    );
    for v in &report.violations {
        assert_eq!(
            v.class,
            ViolationClass::Replay,
            "{}",
            v.diagnostic().human()
        );
        assert_eq!(v.scheme, Some(SchemeId::FULL_MAP));
    }
    let v = &report.violations[0];
    let min_src = v.minimized.as_ref().expect("minimize was requested");
    assert!(min_src.len() <= v.source.len());
    let min_prog = Arc::new(tpi_ir::parse_program(min_src).expect("reproducer must re-parse"));
    let cs = cfg_seed(opts.seed, v.index as u64);
    assert!(violates(
        &min_prog,
        cs,
        &opts.schemes,
        opts.sabotage,
        v.class,
        v.scheme
    ));
    // Healthy engines agree on every replay path for the same kernel.
    assert!(!violates(
        &min_prog,
        cs,
        &opts.schemes,
        None,
        v.class,
        v.scheme
    ));
}

#[test]
fn run_ahead_lie_is_caught_by_the_replay_class_and_minimized() {
    // A full-map directory that declares every access commuting runs
    // each processor ahead past sharer and owner state the others depend
    // on: the heap replay departs from the min-clock reference, and the
    // replay class must notice (through the sabotage wrapper, which only
    // forwards the rule) and shrink the kernel.
    let opts = FuzzOptions {
        seed: 7,
        count: 2,
        schemes: vec![SchemeId::FULL_MAP],
        minimize: true,
        sabotage: Some(Sabotage::FullmapCommutesAlways),
        ..FuzzOptions::default()
    };
    let report = run_fuzz(&opts);
    assert!(!report.is_clean(), "the run-ahead lie went unnoticed");
    for v in &report.violations {
        assert_eq!(
            v.class,
            ViolationClass::Replay,
            "{}",
            v.diagnostic().human()
        );
        assert_eq!(v.scheme, Some(SchemeId::FULL_MAP));
    }
    let v = &report.violations[0];
    let min_src = v.minimized.as_ref().expect("minimize was requested");
    assert!(min_src.len() < v.source.len(), "the kernel was not shrunk");
    let min_prog = Arc::new(tpi_ir::parse_program(min_src).expect("reproducer must re-parse"));
    let cs = cfg_seed(opts.seed, v.index as u64);
    assert!(violates(
        &min_prog,
        cs,
        &opts.schemes,
        opts.sabotage,
        v.class,
        v.scheme
    ));
    // The healthy rule replays the minimized kernel exactly.
    assert!(!violates(
        &min_prog,
        cs,
        &opts.schemes,
        None,
        v.class,
        v.scheme
    ));
}

#[test]
fn fuzz_config_is_deterministic_and_freshness_verified() {
    let a = fuzz_config(3);
    let b = fuzz_config(3);
    assert_eq!(a.verify_freshness, b.verify_freshness);
    assert!(a.verify_freshness);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The minimizer only ever returns programs still exhibiting the
    /// original violation class (here: the sabotaged hybrid directory's
    /// invariant break), and never grows the program.
    #[test]
    fn minimizer_preserves_violation_class(seed in 0u64..40) {
        let kernel = generate_kernel(&GenOptions { seed, depth: 3 }, 0);
        let schemes = [SchemeId::HYBRID];
        let sabotage = Some(Sabotage::HybridDropSharer);
        let class = ViolationClass::Invariant;
        let scheme = Some(SchemeId::HYBRID);
        let cs = cfg_seed(seed, 0);
        if !violates(&kernel.program, cs, &schemes, sabotage, class, scheme) {
            // This kernel happens not to trip the hook; nothing to shrink.
            return Ok(());
        }
        let min = minimize(&kernel.program, |cand| {
            violates(cand, cs, &schemes, sabotage, class, scheme)
        });
        let min = Arc::new(min);
        prop_assert!(violates(&min, cs, &schemes, sabotage, class, scheme));
        let src = tpi_ir::program_to_source(&min);
        prop_assert!(src.len() <= kernel.source.len());
    }
}
