//! End-to-end tests of the `tpi-model` interleaving checker: a clean
//! verification sweep over every registered scheme, one seeded-violation
//! test per scheme-specific invariant (hand-break the engine through the
//! sabotage hook and assert the checker catches it with a minimal
//! trace), and snapshots pinning the counterexample renderings.

use tpi::proto::{registry, Sabotage, SchemeId};
use tpi_analysis::model::{
    check_schemes, programs, ModelOptions, ModelViolation, Step, RUN_AHEAD_COMMUTES,
};

fn tiny() -> ModelOptions {
    ModelOptions {
        procs: 2,
        words: 2,
        depth: 1,
        epochs: 2,
        ..ModelOptions::default()
    }
}

/// Runs one sabotaged sweep over `scheme` and returns the violation the
/// checker must find.
fn seeded(scheme: SchemeId, sabotage: Sabotage) -> ModelViolation {
    let opts = ModelOptions {
        sabotage: Some(sabotage),
        ..tiny()
    };
    let report = check_schemes(&[scheme], &opts);
    let violations = report.violations();
    assert_eq!(
        violations.len(),
        1,
        "{scheme}: sabotage must produce exactly one (shrunk) violation"
    );
    violations[0].clone()
}

/// A 1-minimal trace reproduces the violation, and dropping its last
/// step does not (the earlier steps were already necessary by
/// construction of the shrinker).
fn assert_minimal(v: &ModelViolation) {
    assert!(!v.trace.is_empty(), "a violation needs at least one step");
    // The shrinker is greedy to fixpoint, so 1-minimality is structural;
    // spot-check that the trace is tiny rather than a full schedule.
    assert!(
        v.trace.len() <= 4,
        "expected a minimal counterexample, got {} steps: {:?}",
        v.trace.len(),
        v.trace
    );
}

/// Every access of the trace belongs to its processor's sequence in the
/// epoch its preceding barriers select, in the named program: the
/// shrinker kept a schedule the program can run, so a run-ahead claim
/// was judged against the epoch it was made in.
fn assert_reachable(v: &ModelViolation) {
    let (suite, _) = programs(&tiny());
    let program = suite
        .iter()
        .find(|p| p.name == v.program)
        .unwrap_or_else(|| panic!("no program named {}", v.program));
    let mut epoch = 0;
    for step in &v.trace {
        match *step {
            Step::Boundary => epoch += 1,
            Step::Op { proc, access } => assert!(
                program.epochs[epoch][proc as usize].contains(&access),
                "{step} is not in p{proc}'s epoch-{epoch} sequence of {}: {:?}",
                v.program,
                v.trace
            ),
        }
    }
}

#[test]
fn all_schemes_verify_clean() {
    let ids: Vec<SchemeId> = registry::global().all().iter().map(|s| s.id()).collect();
    assert_eq!(ids.len(), 8, "the registry should hold all eight schemes");
    let report = check_schemes(&ids, &tiny());
    assert!(
        report.is_clean(),
        "expected zero violations, got: {:?}",
        report.violations()
    );
    assert_eq!(report.schemes.len(), 8);
    assert!(report.total_states() > 0);
    assert!(
        report.dropped > 0,
        "symmetry reduction should drop programs"
    );
}

#[test]
fn seeded_tpi_skipped_reset_breaks_phase_discipline() {
    let v = seeded(SchemeId::TPI, Sabotage::TpiSkipResets);
    assert_eq!(v.invariant, "tpi-phase-discipline");
    assert_minimal(&v);
    // The minimal trace must actually cross a phase-reset boundary:
    // skipped resets are invisible until the clock reaches a crossing.
    assert!(v.trace.contains(&Step::Boundary));
}

#[test]
fn seeded_directory_dropped_sharer_breaks_consistency() {
    for sabotage in [Sabotage::FullmapDropSharer, Sabotage::LimitlessDropSharer] {
        let scheme = sabotage.target();
        let v = seeded(scheme, sabotage);
        assert_eq!(v.invariant, "dir-consistency", "{scheme}");
        assert_minimal(&v);
    }
}

#[test]
fn seeded_hybrid_dropped_sharer_breaks_mask() {
    let v = seeded(SchemeId::HYBRID, Sabotage::HybridDropSharer);
    assert_eq!(v.invariant, "hybrid-sharer-mask");
    assert_minimal(&v);
}

#[test]
fn seeded_tardis_rewound_wts_breaks_lease_invariants() {
    let v = seeded(SchemeId::TARDIS, Sabotage::TardisRewindWts);
    assert!(
        v.invariant.starts_with("tardis-"),
        "expected a tardis invariant, got {}",
        v.invariant
    );
    assert_minimal(&v);
}

#[test]
fn seeded_base_cached_shared_word_is_caught() {
    let v = seeded(SchemeId::BASE, Sabotage::BaseCacheShared);
    assert_eq!(v.invariant, "base-no-shared-lines");
    assert_minimal(&v);
}

#[test]
fn seeded_hw_run_ahead_lie_breaks_commutation() {
    // A full-map directory that declares every access commuting: some
    // upgrade and a remote read of its line give different states in the
    // two orders the lie claims are alike.
    let v = seeded(SchemeId::FULL_MAP, Sabotage::FullmapCommutesAlways);
    assert_eq!(v.invariant, RUN_AHEAD_COMMUTES);
    assert_minimal(&v);
    assert_reachable(&v);
    // The trace ends in the two accesses whose order the lie ignored.
    let [.., Step::Op { proc: p, .. }, Step::Op { proc: q, .. }] = v.trace[..] else {
        panic!(
            "a run-ahead counterexample ends in two accesses: {:?}",
            v.trace
        );
    };
    assert_ne!(p, q);
    assert_eq!(v.diagnostic().code, tpi_analysis::Code::Tpi901);
}

#[test]
fn healthy_rules_are_checked_not_vacuous() {
    // The order-sensitive engines make run-ahead claims in the tiny
    // sweep, and every one of them holds.
    let ids = [
        SchemeId::FULL_MAP,
        SchemeId::LIMITLESS,
        SchemeId::TARDIS,
        SchemeId::HYBRID,
    ];
    let report = check_schemes(&ids, &tiny());
    assert!(report.is_clean(), "{:?}", report.violations());
    for s in &report.schemes {
        assert!(s.claims > 0, "{}: no run-ahead claim was checked", s.scheme);
    }
    // In the second epoch of the run-ahead scenarios a processor's copy
    // from the first epoch, or a line sharing its set, is at stake: Tardis
    // claims those accesses, the directory engines refuse them.
    let claims = |id| {
        report
            .schemes
            .iter()
            .find(|s| s.scheme == id)
            .unwrap()
            .claims
    };
    assert!(claims(SchemeId::TARDIS) > claims(SchemeId::FULL_MAP));
    assert!(claims(SchemeId::TARDIS) > claims(SchemeId::HYBRID));
    // An order-insensitive engine claims every access of a sync-free
    // epoch, and every one of those claims holds too.
    let insensitive = check_schemes(&[SchemeId::TPI], &tiny());
    assert!(insensitive.is_clean(), "{:?}", insensitive.violations());
    assert!(insensitive.schemes[0].claims > 0);
}

#[test]
fn seeded_hw_order_insensitivity_lie_breaks_commutation() {
    // A full-map directory that claims order insensitivity: the heap
    // would replay each stream straight through, but some pair of its
    // accesses gives different results in the two orders.
    let v = seeded(SchemeId::FULL_MAP, Sabotage::FullmapClaimsOrderInsensitive);
    assert_eq!(v.invariant, RUN_AHEAD_COMMUTES);
    assert_minimal(&v);
    assert_reachable(&v);
    let [.., Step::Op { proc: p, .. }, Step::Op { proc: q, .. }] = v.trace[..] else {
        panic!(
            "a run-ahead counterexample ends in two accesses: {:?}",
            v.trace
        );
    };
    assert_ne!(p, q);
    assert_eq!(v.diagnostic().code, tpi_analysis::Code::Tpi901);
}

/// The counterexample renderings are a stable contract: CI logs and
/// tooling parse them, so pin both forms byte for byte.
#[test]
fn counterexample_rendering_snapshot() {
    let v = seeded(SchemeId::BASE, Sabotage::BaseCacheShared);
    let d = v.diagnostic();
    assert_eq!(
        d.human(),
        "error[TPI901] model-violation: scheme base breaks invariant \
         base-no-shared-lines after 1 step(s) (scheme=base, \
         program=producer-consumer, invariant=base-no-shared-lines, \
         trace=p0 writes w0, detail=proc 0 caches shared word 0 (BASE \
         never caches shared data))"
    );
    assert_eq!(
        d.json(),
        "{\"code\":\"TPI901\",\"name\":\"model-violation\",\
         \"severity\":\"error\",\"message\":\"scheme base breaks invariant \
         base-no-shared-lines after 1 step(s)\",\"context\":{\
         \"scheme\":\"base\",\"program\":\"producer-consumer\",\
         \"invariant\":\"base-no-shared-lines\",\
         \"trace\":\"p0 writes w0\",\
         \"detail\":\"proc 0 caches shared word 0 (BASE never caches \
         shared data)\"}}"
    );
}
