//! The Runner's contract: a memoized, parallel grid is *observably
//! identical* to fresh, serial runs — same cycle counts, same traffic,
//! same rendered tables — and the artifact cache is invalidated by
//! exactly the options each pipeline stage depends on.

use tpi::{run_kernel, run_program, ExperimentConfig, Runner};
use tpi_compiler::OptLevel;
use tpi_ir::{subs, ProgramBuilder};
use tpi_proto::{registry, SchemeId};
use tpi_testkit::prelude::*;
use tpi_workloads::{Kernel, Scale};

fn cfg(scheme: SchemeId) -> ExperimentConfig {
    ExperimentConfig::builder().scheme(scheme).build().unwrap()
}

#[test]
fn memoized_grid_equals_fresh_runs() {
    // Every cell of a kernels x schemes grid must be bit-identical to a
    // one-off run_kernel with the same configuration.
    let runner = Runner::new();
    let grid = runner
        .grid()
        .kernels([Kernel::Flo52, Kernel::Ocean, Kernel::Qcd2])
        .scale(Scale::Test)
        .schemes(registry::global().main_schemes())
        .run()
        .unwrap();
    for kernel in [Kernel::Flo52, Kernel::Ocean, Kernel::Qcd2] {
        for scheme in registry::global().main_schemes() {
            let memo = grid.get(kernel, scheme);
            let fresh = run_kernel(kernel, Scale::Test, &cfg(scheme)).unwrap();
            assert_eq!(
                memo.sim.total_cycles, fresh.sim.total_cycles,
                "{kernel}/{scheme}"
            );
            assert_eq!(memo.sim.agg, fresh.sim.agg, "{kernel}/{scheme}");
            assert_eq!(memo.sim.traffic, fresh.sim.traffic, "{kernel}/{scheme}");
            assert_eq!(memo.marking, fresh.marking, "{kernel}/{scheme}");
            assert_eq!(memo.trace, fresh.trace, "{kernel}/{scheme}");
        }
    }
    // The whole 12-cell grid interpreted each kernel exactly once.
    assert_eq!(runner.stats().traces_built, 3);
    assert_eq!(runner.stats().trace_hits, 9);
}

#[test]
fn parallel_equals_serial() {
    // Same grid on a single worker thread and on many: identical results
    // in identical order.
    let build = |runner: &Runner| {
        runner
            .grid()
            .kernels(Kernel::ALL)
            .scale(Scale::Test)
            .schemes([SchemeId::TPI, SchemeId::FULL_MAP])
            .sweep([2u32, 8], |c, bits| c.tag_bits = *bits)
            .run()
            .unwrap()
    };
    let serial = build(&Runner::serial());
    let parallel = build(&Runner::with_threads(8));
    let (s, p): (Vec<_>, Vec<_>) = (serial.iter().collect(), parallel.iter().collect());
    assert_eq!(s.len(), p.len());
    assert_eq!(s.len(), Kernel::ALL.len() * 2 * 2);
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(a.sim.total_cycles, b.sim.total_cycles);
        assert_eq!(a.sim.agg, b.sim.agg);
        assert_eq!(a.sim.traffic, b.sim.traffic);
    }
}

#[test]
fn no_cache_mode_equals_memoized() {
    // `Runner::without_memoization` (the `repro --fresh` baseline) must be
    // observably identical to the cached engine — only the stats differ.
    let build = |runner: &Runner| {
        runner
            .grid()
            .kernels([Kernel::Trfd, Kernel::Spec77])
            .scale(Scale::Test)
            .schemes(registry::global().main_schemes())
            .run()
            .unwrap()
    };
    let memo_runner = Runner::new();
    let memo = build(&memo_runner);
    let fresh_runner = Runner::new().without_memoization();
    let fresh = build(&fresh_runner);
    for (a, b) in memo.iter().zip(fresh.iter()) {
        assert_eq!(a.sim.total_cycles, b.sim.total_cycles);
        assert_eq!(a.sim.agg, b.sim.agg);
        assert_eq!(a.sim.traffic, b.sim.traffic);
        assert_eq!(a.marking, b.marking);
    }
    assert_eq!(memo_runner.stats().traces_built, 2);
    assert_eq!(fresh_runner.stats().traces_built, 8, "one per cell");
    assert_eq!(fresh_runner.stats().trace_hits, 0);
}

#[test]
fn rendered_tables_are_identical() {
    // The user-visible artifact — the rendered report — must not change
    // between the memoized-parallel and fresh-serial paths.
    let render = |results: &[(&str, &tpi::ExperimentResult)]| {
        tpi::report::scheme_comparison("equivalence", results).to_string()
    };
    let runner = Runner::new();
    let grid = runner
        .grid()
        .kernel(Kernel::Arc2d)
        .scale(Scale::Test)
        .schemes(registry::global().main_schemes())
        .run()
        .unwrap();
    let memo_rows: Vec<_> = registry::global()
        .main_schemes()
        .iter()
        .map(|&s| (s.label(), grid.get(Kernel::Arc2d, s)))
        .collect();
    let fresh: Vec<_> = registry::global()
        .main_schemes()
        .iter()
        .map(|&s| (s, run_kernel(Kernel::Arc2d, Scale::Test, &cfg(s)).unwrap()))
        .collect();
    let fresh_rows: Vec<_> = fresh.iter().map(|(s, r)| (s.label(), r)).collect();
    assert_eq!(render(&memo_rows), render(&fresh_rows));
}

#[test]
fn cache_keys_track_stage_dependencies() {
    // scheme / geometry -> only the simulation reruns;
    // opt level          -> marking and trace rebuild;
    // schedule or seed   -> trace rebuilds, marking survives.
    let runner = Runner::new();
    let base = cfg(SchemeId::TPI);

    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &base)
        .unwrap();
    let s0 = runner.stats();
    assert_eq!(
        (s0.programs_built, s0.markings_built, s0.traces_built),
        (1, 1, 1)
    );

    // A pure machine change shares everything upstream.
    let machine = ExperimentConfig::builder()
        .scheme(SchemeId::FULL_MAP)
        .cache_bytes(32 * 1024)
        .build()
        .unwrap();
    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &machine)
        .unwrap();
    let s1 = runner.stats();
    assert_eq!((s1.markings_built, s1.traces_built), (1, 1));
    assert_eq!((s1.marking_hits, s1.trace_hits), (1, 1));

    // A compiler change invalidates the marking (and hence the trace).
    let naive = ExperimentConfig::builder()
        .scheme(SchemeId::TPI)
        .opt_level(OptLevel::Naive)
        .build()
        .unwrap();
    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &naive)
        .unwrap();
    let s2 = runner.stats();
    assert_eq!((s2.markings_built, s2.traces_built), (2, 2));

    // A schedule change invalidates only the trace.
    let cyclic = ExperimentConfig::builder()
        .scheme(SchemeId::TPI)
        .policy(tpi_trace::SchedulePolicy::StaticCyclic)
        .build()
        .unwrap();
    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &cyclic)
        .unwrap();
    let s3 = runner.stats();
    assert_eq!(s3.markings_built, 2, "marking is schedule-independent");
    assert_eq!(s3.traces_built, 3);

    // The program itself was only ever built once.
    assert_eq!(s3.programs_built, 1);
}

#[test]
fn custom_programs_memoize_and_match_run_program() {
    let prog = {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [128]);
        let b = p.shared("B", [128]);
        let main = p.proc("main", |f| {
            f.doall(0, 127, |i, f| f.store(a.at(subs![i]), vec![], 2));
            f.doall(0, 127, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 2)
            });
        });
        p.finish(main).unwrap()
    };
    let fresh = run_program(&prog, &cfg(SchemeId::TPI)).unwrap();
    let runner = Runner::new();
    let grid = runner
        .grid()
        .program("pc", prog)
        .schemes([SchemeId::TPI, SchemeId::SC])
        .run()
        .unwrap();
    let memo = grid.at_program("pc", SchemeId::TPI, 0);
    assert_eq!(memo.sim.total_cycles, fresh.sim.total_cycles);
    assert_eq!(memo.sim.agg, fresh.sim.agg);
    assert_eq!(
        runner.stats().traces_built,
        1,
        "both schemes share the trace"
    );
}

/// Field-by-field [`tpi_sim::SimResult`] identity, excluding only the
/// host-side wall-clock self-measurement (which is never deterministic).
fn assert_sim_identical(a: &tpi_sim::SimResult, b: &tpi_sim::SimResult, ctx: &str) {
    assert_eq!(a.scheme, b.scheme, "{ctx}: scheme");
    assert_eq!(a.total_cycles, b.total_cycles, "{ctx}: total_cycles");
    assert_eq!(a.busy_cycles, b.busy_cycles, "{ctx}: busy_cycles");
    assert_eq!(a.agg, b.agg, "{ctx}: agg");
    assert_eq!(a.per_proc, b.per_proc, "{ctx}: per_proc");
    assert_eq!(a.traffic, b.traffic, "{ctx}: traffic");
    assert_eq!(a.wbuffer, b.wbuffer, "{ctx}: wbuffer");
    assert_eq!(a.epochs, b.epochs, "{ctx}: epochs");
    assert_eq!(a.lock_acquires, b.lock_acquires, "{ctx}: lock_acquires");
    assert_eq!(
        a.lock_wait_cycles, b.lock_wait_cycles,
        "{ctx}: lock_wait_cycles"
    );
    assert_eq!(a.profile, b.profile, "{ctx}: profile");
    assert_eq!(a.miss_by_array, b.miss_by_array, "{ctx}: miss_by_array");
}

/// `kernel`'s test-scale trace under `config`.
fn test_trace(kernel: Kernel, config: &ExperimentConfig) -> tpi_trace::Trace {
    let program = kernel.build(Scale::Test);
    let marking = tpi_compiler::mark_program(&program, &config.compiler_options());
    tpi_trace::generate_trace(&program, &marking, &config.trace_options()).unwrap()
}

/// `run_trace` and the min-clock reference replay of `kernel`'s test-scale
/// trace under `config`.
fn replay_and_reference(
    kernel: Kernel,
    config: &ExperimentConfig,
) -> (tpi_sim::SimResult, tpi_sim::SimResult) {
    let trace = test_trace(kernel, config);
    let run = |reference: bool| {
        let mut engine = tpi_proto::build_engine(
            config.scheme,
            config.engine_config(trace.layout.total_words()),
        );
        let replay = if reference {
            tpi_sim::run_trace_reference
        } else {
            tpi_sim::run_trace
        };
        replay(&trace, engine.as_mut(), &config.sim_options())
    };
    (run(false), run(true))
}

#[test]
fn replay_equals_reference_for_every_scheme() {
    // For EVERY registered scheme, the default replay must reproduce the
    // min-clock reference order exactly. MDG exercises the scan (lock-
    // guarded critical sections); FSHARE heavy false sharing; QCD2 the
    // directory invalidation paths. Order-insensitive engines (BASE, SC,
    // TPI, IDEAL) run each stream straight through the heap; the
    // order-sensitive ones (HW, LL, TARDIS, HYB) switch and run ahead.
    let schemes: Vec<SchemeId> = registry::global().all().iter().map(|s| s.id()).collect();
    assert!(schemes.len() >= 8, "the full registry is under test");
    for kernel in [Kernel::Mdg, Kernel::FalseShare, Kernel::Qcd2] {
        for &scheme in &schemes {
            let (got, want) = replay_and_reference(kernel, &cfg(scheme));
            assert_sim_identical(&got, &want, &format!("{kernel}/{scheme}"));
        }
    }
}

#[test]
fn sharded_replay_is_bit_identical_for_every_scheme() {
    // `run_trace_sharded` is an inert shim kept only because the benchmark
    // package times it (`sim.sharded.*`): for EVERY registered scheme and
    // either executor it must return exactly `run_trace`'s result, so
    // those metrics time the same replay. MDG exercises the scan (lock-
    // guarded critical sections); FSHARE heavy false sharing.
    use tpi_sim::{run_trace, run_trace_sharded, ShardExec, ShardOptions};
    let schemes: Vec<SchemeId> = registry::global().all().iter().map(|s| s.id()).collect();
    assert!(schemes.len() >= 8, "the full registry is under test");
    for kernel in [Kernel::Mdg, Kernel::FalseShare] {
        for &scheme in &schemes {
            let config = cfg(scheme);
            let trace = test_trace(kernel, &config);
            let engine_cfg = config.engine_config(trace.layout.total_words());
            let opts = config.sim_options();
            let serial = run_trace(
                &trace,
                tpi_proto::build_engine(scheme, engine_cfg.clone()).as_mut(),
                &opts,
            );
            for exec in [ShardExec::Inline, ShardExec::Threads] {
                let shards = ShardOptions { shards: 4, exec };
                let sharded = run_trace_sharded(&trace, scheme, &engine_cfg, &opts, &shards);
                assert_sim_identical(&serial, &sharded, &format!("{kernel}/{scheme}/{exec:?}"));
            }
        }
    }
}

#[test]
fn shard_counts_one_two_seven_and_sixty_four_agree() {
    // `with_sim_shards` is an inert shim kept only because the benchmark
    // package calls it: any count (including one exceeding the processor
    // count) must yield the identical result, and that result must be the
    // reference replay's.
    let reference = Runner::serial()
        .with_sim_shards(1)
        .run_kernel(Kernel::Qcd2, Scale::Test, &cfg(SchemeId::TPI))
        .unwrap();
    let (_, scan) = replay_and_reference(Kernel::Qcd2, &cfg(SchemeId::TPI));
    assert_sim_identical(&reference.sim, &scan, "shards=1 vs reference");
    for shards in [2usize, 7, 64] {
        let got = Runner::serial()
            .with_sim_shards(shards)
            .run_kernel(Kernel::Qcd2, Scale::Test, &cfg(SchemeId::TPI))
            .unwrap();
        assert_sim_identical(&reference.sim, &got.sim, &format!("shards={shards}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn replay_equals_reference_across_seeds(
        seed in any::<u64>(),
        scheme in prop_oneof![Just(SchemeId::TPI), Just(SchemeId::SC)],
    ) {
        // Randomized seeds vary the opaque-subscript gather targets, so
        // the replay's exactness is checked across many distinct traces,
        // not one golden input.
        let config = ExperimentConfig::builder()
            .scheme(scheme)
            .seed(seed)
            .build()
            .unwrap();
        let (got, want) = replay_and_reference(Kernel::Qcd2, &config);
        assert_sim_identical(&got, &want, &format!("QCD2/{scheme}/seed {seed}"));
    }
}
